//! The exploration journey: characterise a held-out program from R
//! simulated responses, then run the predictor-guided Pareto search.

use crate::stats::{union_secs, Digest};
use dse_explore::{
    hypervolume, Constraints, ExploreBudget, ExploreError, Explorer, Frontier, GroundTruth,
    MetricPredictor, Objective, SimOracle,
};
use dse_serve::{protocol, ModelRegistry, RegistryPredictor};
use dse_sim::{Metric, Metrics};
use dse_space::Config;
use std::sync::Mutex;
use std::time::Instant;

/// The held-out program explored (neither trained on nor served).
pub const PROGRAM: &str = "vpr";
/// Search budget: rounds of 16 predictor-chosen sims each, with candidate
/// pools large enough that scoring is a visible share of the run.
const ROUNDS: usize = 16;
const CANDIDATES: usize = 4096;
const SIMS_PER_ROUND: usize = 16;
const ARCHIVE: usize = 64;

/// What one pass produced.
pub struct Outcome {
    pub characterize_s: f64,
    pub trace_gen_s: f64,
    pub response_sims_s: f64,
    pub fit_s: Vec<f64>,
    pub explore_s: f64,
    pub hv: f64,
    pub digest: u64,
    pub sim_instrs: f64,
    pub layers: Option<Layers>,
}

/// Per-layer split of `explore_s`, from the pass-through wrappers.
pub struct Layers {
    pub score_s: f64,
    pub oracle_s: f64,
    pub oracle_sims: u64,
    pub rows_scored: u64,
}

/// Records the wall interval of every call it forwards.
#[derive(Default)]
struct Intervals {
    spans: Mutex<Vec<(u64, u64)>>,
    count: Mutex<u64>,
}

impl Intervals {
    fn record<T>(&self, t0: Instant, n: u64, f: impl FnOnce() -> T) -> T {
        let start = t0.elapsed().as_nanos() as u64;
        let out = f();
        let dur = t0.elapsed().as_nanos() as u64 - start;
        self.spans.lock().expect("interval lock").push((start, dur));
        *self.count.lock().expect("count lock") += n;
        out
    }

    fn secs(&self) -> f64 {
        union_secs(self.spans.lock().expect("interval lock").clone())
    }

    fn count(&self) -> u64 {
        *self.count.lock().expect("count lock")
    }
}

/// Pass-through timing wrapper around the cheap oracle.
struct TimedPredictor<'a> {
    inner: &'a dyn MetricPredictor,
    t0: Instant,
    calls: Intervals,
}

impl MetricPredictor for TimedPredictor<'_> {
    fn predict(&self, cfg: &Config, metric: Metric) -> f64 {
        self.calls
            .record(self.t0, 1, || self.inner.predict(cfg, metric))
    }

    fn predict_batch(&self, cfgs: &[Config], metric: Metric, out: &mut [f64]) {
        self.calls.record(self.t0, cfgs.len() as u64, || {
            self.inner.predict_batch(cfgs, metric, out)
        })
    }
}

/// Pass-through timing wrapper around the simulator oracle.
struct TimedOracle<'a> {
    inner: &'a dyn GroundTruth,
    t0: Instant,
    calls: Intervals,
}

impl GroundTruth for TimedOracle<'_> {
    fn simulate(&self, cfgs: &[Config]) -> Result<Vec<Metrics>, ExploreError> {
        self.calls
            .record(self.t0, cfgs.len() as u64, || self.inner.simulate(cfgs))
    }
}

fn objective() -> Objective {
    Objective::parse("cycles,energy").expect("objective")
}

fn budget(seed: u64) -> ExploreBudget {
    ExploreBudget {
        rounds: ROUNDS,
        candidates_per_round: CANDIDATES,
        sims_per_round: SIMS_PER_ROUND,
        archive_cap: ARCHIVE,
        seed,
    }
}

/// Digest of the frontier's JSON text.
pub fn frontier_digest(f: &Frontier) -> u64 {
    let mut d = Digest::default();
    d.bytes(dse_util::json::to_string(&dse_util::json::ToJson::to_json(f)).as_bytes());
    d.value()
}

/// Hypervolume of the frontier in a frame fixed by the program's own
/// baseline design: each objective divided by the baseline's value, with
/// the reference point at twice the baseline. The explorer's round
/// statistic normalises by the archive's own bounds instead, which moves
/// whenever the frontier's extremes do.
fn baseline_hv(oracle: &SimOracle, frontier: &Frontier) -> Result<f64, String> {
    let base = oracle
        .simulate(&[Config::baseline()])
        .map_err(|e| e.to_string())?[0];
    let scale = [base.cycles, base.energy];
    let points: Vec<Vec<f64>> = frontier
        .points
        .iter()
        .map(|p| p.objectives.iter().zip(scale).map(|(v, s)| v / s).collect())
        .collect();
    Ok(hypervolume(&points, &[2.0, 2.0]))
}

/// Error (%) of the registry's models for `PROGRAM`: the online step
/// over the set-up dataset's configurations (see
/// `serve::Built::rmae_pct`), averaged over the explored metrics. The
/// truth is simulated here, outside any timed pass.
pub fn rmae_pct(built: &crate::serve::Built, seed: u64) -> Result<f64, String> {
    let oracle = SimOracle::new(
        protocol::trace(&crate::train::builtin(PROGRAM)),
        protocol::options(),
    );
    let sims = oracle
        .simulate(&built.dataset.configs)
        .map_err(|e| e.to_string())?;
    let metrics = objective().metrics();
    let errors: Vec<f64> = metrics
        .iter()
        .map(|&metric| {
            let target: Vec<f64> = sims.iter().map(|m| m.get(metric)).collect();
            built.rmae_pct(metric, &target, seed)
        })
        .collect();
    Ok(errors.iter().sum::<f64>() / errors.len() as f64)
}

/// One pass: characterise `PROGRAM` on `registry` (R responses through
/// `SimOracle::simulate`, one `ModelRegistry::fit` per metric), then run
/// the explorer. With `wrapped`, the predictor and oracle handed to the
/// explorer are the timing wrappers.
pub fn run(registry: &ModelRegistry, seed: u64, wrapped: bool) -> Result<Outcome, String> {
    let profile = crate::train::builtin(PROGRAM);
    let objective = objective();
    let metrics = objective.metrics();
    let t0 = Instant::now();
    let trace = protocol::trace(&profile);
    let trace_gen_s = t0.elapsed().as_secs_f64();
    let oracle = SimOracle::new(trace, protocol::options());
    let artifact = registry
        .artifact(metrics[0])
        .ok_or("registry has no artifact")?;
    let mut rng = dse_rng::Xoshiro256::seed_from(seed ^ 0xE7);
    let idx = rng.sample_indices(artifact.configs.len(), crate::train::R);
    let cfgs: Vec<Config> = idx.iter().map(|&i| artifact.configs[i]).collect();
    let t1 = Instant::now();
    let sims = oracle.simulate(&cfgs).map_err(|e| e.to_string())?;
    let response_sims_s = t1.elapsed().as_secs_f64();
    let mut fit_s = Vec::new();
    for &m in &metrics {
        let responses: Vec<(usize, f64)> =
            idx.iter().zip(&sims).map(|(&i, s)| (i, s.get(m))).collect();
        let t = Instant::now();
        registry
            .fit(PROGRAM, m, &responses)
            .map_err(|e| e.to_string())?;
        fit_s.push(t.elapsed().as_secs_f64());
    }
    let predictor =
        RegistryPredictor::resolve(registry, PROGRAM, &metrics).map_err(|e| e.to_string())?;
    let characterize_s = t0.elapsed().as_secs_f64();

    let t2 = Instant::now();
    let tp = TimedPredictor {
        inner: &predictor,
        t0: t2,
        calls: Intervals::default(),
    };
    let to = TimedOracle {
        inner: &oracle,
        t0: t2,
        calls: Intervals::default(),
    };
    let (p, o): (&dyn MetricPredictor, &dyn GroundTruth) = if wrapped {
        (&tp, &to)
    } else {
        (&predictor, &oracle)
    };
    let explorer = Explorer {
        predictor: p,
        oracle: o,
        program: PROGRAM.to_string(),
        objective,
        constraints: Constraints::none(),
        budget: budget(seed),
        pool: None,
    };
    let frontier = explorer.run().map_err(|e| e.to_string())?;
    let explore_s = t2.elapsed().as_secs_f64();
    let hv = baseline_hv(&oracle, &frontier)?;
    let trace_len = oracle.trace().len() as f64;
    let sim_instrs = (cfgs.len() as f64 + frontier.sim_calls as f64) * trace_len;
    let layers = wrapped.then(|| Layers {
        score_s: tp.calls.secs(),
        oracle_s: to.calls.secs(),
        oracle_sims: to.calls.count(),
        rows_scored: tp.calls.count(),
    });
    Ok(Outcome {
        characterize_s,
        trace_gen_s,
        response_sims_s,
        fit_s,
        explore_s,
        hv,
        digest: frontier_digest(&frontier),
        sim_instrs,
        layers,
    })
}
