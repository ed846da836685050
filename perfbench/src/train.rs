//! The offline journey: import a raw trace, sweep the training programs
//! over a legal configuration sample, persist the artifacts, then run the
//! paper's online step on a held-out program.

use crate::stats::{timed, Digest};
use dse_core::{DatasetSpec, OfflineModel, SuiteDataset};
use dse_ml::MlpConfig;
use dse_rng::Xoshiro256;
use dse_serve::{protocol, ModelRegistry};
use dse_sim::Metric;
use dse_workload::{InstrKind, Profile, Trace, TraceGenerator};
use std::path::Path;

/// Built-in training programs: small footprints (gzip, crafty, sha),
/// memory-bound ones (mcf, art) and a branchy one (gcc). A trace-imported
/// program joins them.
pub const TRAIN_PROGRAMS: [&str; 6] = ["gzip", "crafty", "sha", "mcf", "art", "gcc"];
/// The held-out program the online step characterises.
pub const HELD_OUT: &str = "twolf";
/// Responses per online fit (the paper's R).
pub const R: usize = 32;
/// Response sets drawn for the online step (see `online_rmae`).
const DRAWS: usize = 16;
/// Shared configuration sample size and training configurations per
/// program-specific ANN: the defaults of `archdse train`. Simulations
/// follow its protocol too (`protocol::TRACE_LEN`, `protocol::WARMUP`).
const N_CONFIGS: usize = 120;
const T: usize = 90;
/// Instructions in the imported raw trace, and the seed of the synthetic
/// program it is drawn from.
const IMPORT_LEN: usize = 600_000;
const IMPORT_SHAPE: u64 = 7;

/// Looks up a built-in profile by name.
pub fn builtin(name: &str) -> Profile {
    dse_workload::suites::all_benchmarks()
        .into_iter()
        .find(|p| p.name == name)
        .unwrap_or_else(|| panic!("no built-in profile `{name}`"))
}

/// Renders a trace in the `#archdse-trace v1` text format.
pub fn trace_text(name: &str, seed: u64, trace: &Trace) -> String {
    let mut out = String::with_capacity(trace.len() * 12);
    out.push_str(&format!("#archdse-trace v1 name={name} seed={seed}\n"));
    for ins in trace.iter() {
        let line = match ins.kind {
            InstrKind::IntAlu => format!("A {:x}\n", ins.pc),
            InstrKind::IntMul => format!("M {:x}\n", ins.pc),
            InstrKind::IntDiv => format!("D {:x}\n", ins.pc),
            InstrKind::FpAlu => format!("F {:x}\n", ins.pc),
            InstrKind::FpMul => format!("G {:x}\n", ins.pc),
            InstrKind::FpDiv => format!("H {:x}\n", ins.pc),
            InstrKind::Load => format!("L {:x} {:x}\n", ins.pc, ins.addr),
            InstrKind::Store => format!("S {:x} {:x}\n", ins.pc, ins.addr),
            InstrKind::Branch => format!("B {:x} {}\n", ins.pc, if ins.taken { "T" } else { "N" }),
        };
        out.push_str(&line);
    }
    out
}

/// Set-up: writes the seeded raw trace the journey imports, returning its
/// path. The synthetic program's shape is fixed and the run seed drives
/// its trace, so the training set's make-up does not change with the
/// seed.
pub fn setup(dir: &Path, seed: u64) -> std::path::PathBuf {
    let mut profile = dse_ingest::synth::synth_profile(IMPORT_SHAPE, 0);
    profile.seed = seed;
    let trace = TraceGenerator::new(&profile).generate(IMPORT_LEN);
    let path = dir.join("imported.trace");
    std::fs::write(&path, trace_text("imported", seed, &trace)).expect("write raw trace");
    path
}

/// Wall times of the journey's stages, in seconds.
#[derive(Debug, Default, Clone)]
pub struct Stages {
    pub import: f64,
    pub import_bytes: usize,
    pub generate: f64,
    pub save: f64,
    pub open: f64,
    pub online: f64,
}

impl Stages {
    /// Time covered by the timed stages.
    pub fn sum(&self) -> f64 {
        self.import + self.generate + self.save + self.open + self.online
    }
}

/// What one pass of the journey produced.
pub struct Outcome {
    /// Wall time of the whole journey.
    pub train_s: f64,
    pub stages: Stages,
    /// Digest of the dataset's metric bits and the artifact files.
    pub digest: u64,
    /// Held-out cycles error on the configurations outside the responses,
    /// averaged over `DRAWS` response sets.
    pub rmae_pct: f64,
    /// Wall time of each online fit and prediction, in seconds.
    pub draw_secs: Vec<f64>,
    /// Instructions simulated.
    pub sim_instrs: f64,
    pub profiles: Vec<Profile>,
    pub dataset: SuiteDataset,
}

pub fn spec(seed: u64) -> DatasetSpec {
    DatasetSpec {
        n_configs: N_CONFIGS,
        trace_len: protocol::TRACE_LEN,
        warmup: protocol::WARMUP,
        seed,
    }
}

/// The paper's online step, `DRAWS` times: fit `offline` to `R`
/// responses of `target` (one value per configuration of `ds`) and
/// predict the configurations outside them. Returns the mean RMAE (%)
/// over the draws, so it reflects the model rather than one lucky draw,
/// and each draw's wall time in seconds.
pub fn online_rmae(
    offline: &OfflineModel,
    ds: &SuiteDataset,
    target: &[f64],
    seed: u64,
) -> (f64, Vec<f64>) {
    let mut rng = Xoshiro256::seed_from(seed ^ 0x0511_11E5);
    let features = ds.features();
    let (errors, secs): (Vec<f64>, Vec<f64>) = (0..DRAWS)
        .map(|_| {
            let t = std::time::Instant::now();
            let responses = rng.sample_indices(ds.n_configs(), R);
            let values: Vec<f64> = responses.iter().map(|&i| target[i]).collect();
            let predictor = offline.fit_responses(ds, &responses, &values);
            let unseen: Vec<usize> = (0..ds.n_configs())
                .filter(|i| !responses.contains(i))
                .collect();
            let preds: Vec<f64> = unseen
                .iter()
                .map(|&i| predictor.predict(&features[i]))
                .collect();
            let actual: Vec<f64> = unseen.iter().map(|&i| target[i]).collect();
            (
                dse_ml::stats::rmae(&preds, &actual),
                t.elapsed().as_secs_f64(),
            )
        })
        .unzip();
    (errors.iter().sum::<f64>() / DRAWS as f64, secs)
}

/// One pass of the journey; artifacts go to `dir/models`.
pub fn run(dir: &Path, trace_path: &Path, seed: u64) -> Outcome {
    let t0 = std::time::Instant::now();
    let mut st = Stages::default();
    let (imported, t) = timed(|| {
        let text = std::fs::read_to_string(trace_path).expect("read raw trace");
        let p = dse_ingest::profile_from_trace_str(&text).expect("import raw trace");
        (p, text.len())
    });
    st.import = t;
    st.import_bytes = imported.1;
    let mut profiles: Vec<Profile> = TRAIN_PROGRAMS.iter().map(|n| builtin(n)).collect();
    profiles.push(imported.0);
    profiles.push(builtin(HELD_OUT));
    let spec = spec(seed);
    let (ds, t) = timed(|| SuiteDataset::generate(&profiles, &spec));
    st.generate = t;

    // The held-out program is the last row: artifacts cover the rest.
    let held = ds.benchmarks.len() - 1;
    let mut train_ds = ds.clone();
    train_ds.benchmarks.truncate(held);
    let models = dir.join("models");
    let mlp = MlpConfig::default();
    let (saved, t) =
        timed(|| dse_serve::save_artifacts(&models, &train_ds, &Metric::ALL, T, &mlp, seed));
    saved.expect("save artifacts");
    st.save = t;

    // The online step starts from the Cycles model just written, as a
    // server that loads the artifacts would.
    let (registry, t) = timed(|| ModelRegistry::open(&models).expect("open artifacts"));
    st.open = t;
    let offline = &registry
        .artifact(Metric::Cycles)
        .expect("cycles artifact")
        .offline;

    let target: Vec<f64> = ds.benchmarks[held]
        .metrics
        .iter()
        .map(|m| m.cycles)
        .collect();
    let ((rmae_pct, draw_secs), t) = timed(|| online_rmae(offline, &ds, &target, seed));
    st.online = t;
    let train_s = t0.elapsed().as_secs_f64();

    let mut d = Digest::default();
    for b in &ds.benchmarks {
        d.bytes(b.name.as_bytes());
        for m in &b.metrics {
            for x in [m.cycles, m.energy, m.ed, m.edd] {
                d.f64(x);
            }
        }
    }
    let mut files: Vec<_> = std::fs::read_dir(&models)
        .expect("list artifacts")
        .map(|e| e.expect("artifact entry").path())
        .collect();
    files.sort();
    for f in files {
        d.bytes(&std::fs::read(&f).expect("read artifact"));
    }
    // Every (program, configuration) pair plus one baseline per program.
    let sim_instrs = (profiles.len() * (N_CONFIGS + 1) * protocol::TRACE_LEN) as f64;
    Outcome {
        train_s,
        stages: st,
        digest: d.value(),
        rmae_pct,
        draw_secs,
        sim_instrs,
        profiles,
        dataset: ds,
    }
}

/// Output checks beyond pass-to-pass determinism: the artifacts on disk
/// hold the dataset's values bit for bit, and sampled sweep cells equal a
/// direct scalar simulation.
pub fn check(dir: &Path, out: &Outcome, seed: u64) -> Result<(), String> {
    let ds = &out.dataset;
    let held = ds.benchmarks.len() - 1;
    let registry = ModelRegistry::open(dir.join("models")).map_err(|e| e.to_string())?;
    for metric in Metric::ALL {
        let artifact = registry
            .artifact(metric)
            .ok_or(format!("no {metric} artifact"))?;
        if artifact.configs != ds.configs {
            return Err(format!("{metric} artifact configs differ from the dataset"));
        }
        for (i, row) in artifact.design.iter().enumerate() {
            for (j, v) in row.iter().enumerate().take(held) {
                if v.to_bits() != ds.benchmarks[j].metrics[i].get(metric).to_bits() {
                    return Err(format!(
                        "{metric} design[{i}][{j}] differs from the dataset"
                    ));
                }
            }
        }
    }
    let mut rng = Xoshiro256::seed_from(seed ^ 0xC4EC);
    for _ in 0..4 {
        let b = rng.next_index(ds.benchmarks.len());
        let c = rng.next_index(ds.n_configs());
        let trace = TraceGenerator::new(&out.profiles[b]).generate(protocol::TRACE_LEN);
        let want = dse_sim::simulate(&ds.configs[c], &trace, protocol::options());
        let got = ds.benchmarks[b].metrics[c];
        if [want.cycles, want.energy].map(f64::to_bits)
            != [got.cycles, got.energy].map(f64::to_bits)
        {
            return Err(format!(
                "sweep cell ({b}, {c}) differs from a scalar simulation"
            ));
        }
    }
    Ok(())
}
