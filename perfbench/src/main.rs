//! End-to-end benchmark of the three user journeys — `train`, a served
//! prediction, and an `explore` job — with a separate traced run that
//! splits each journey by layer.
//!
//! ```text
//! perfbench --workload <train|serve|explore> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Inputs derive from `--seed` only. Passes of the workload's journey
//! repeat until `--seconds` of measurement have elapsed and each metric is
//! a median over them. Every pass's outputs are checked; a failed check
//! exits non-zero without printing numbers. The last stdout line is one
//! JSON object: every end-to-end metric `BENCHMARK.json` lists with
//! `--trace 0`, every per-layer one with `--trace 1`, whatever the
//! workload. See `perfbench/NOTES.md`.

mod explore;
mod serve;
mod stats;
mod train;

use dse_util::json::Json;
use stats::{median, peak_rss_mb, timed, union_secs};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Set-up repeats per run for serve and explore; `setup_s` is their
/// median.
const SETUP_REPS: usize = 7;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |_| format!("bad value `{value}` for {flag}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(bad)?,
            "--seconds" => args.seconds = value.parse::<u64>().map_err(bad)? as f64,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace must be 0 or 1, not `{value}`")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !["train", "serve", "explore"].contains(&args.workload.as_str()) {
        return Err("--workload must be train, serve or explore".to_string());
    }
    Ok(args)
}

/// The run's result line.
#[derive(Default)]
struct Report {
    metrics: Vec<(&'static str, f64, &'static str)>,
    attempted: u64,
    failed: u64,
}

/// The `(name, unit)` pairs `BENCHMARK.json`, in the working directory,
/// lists under `key`.
fn manifest(key: &str) -> Result<Vec<(String, String)>, String> {
    let text = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("read BENCHMARK.json: {e}"))?;
    let doc = Json::parse(&text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let list = doc.field(key).and_then(Json::as_array);
    list.and_then(|items| {
        items
            .iter()
            .map(|m| {
                Ok((
                    m.field("name")?.as_str()?.to_string(),
                    m.field("unit")?.as_str()?.to_string(),
                ))
            })
            .collect()
    })
    .map_err(|e| format!("BENCHMARK.json {key}: {e}"))
}

impl Report {
    fn put(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push((name, value, unit));
    }

    /// The result line, holding every metric the manifest lists for the
    /// run's kind, in manifest order. Every end-to-end metric must have
    /// been measured; a per-layer metric of a layer the journey bypasses
    /// reads 0.
    fn json(&self, trace: bool) -> Result<String, String> {
        let key = if trace { "per_layer" } else { "end_to_end" };
        let wanted = manifest(key)?;
        for (k, (name, value, unit)) in self.metrics.iter().enumerate() {
            if !value.is_finite() {
                return Err(format!("metric {name} is not finite"));
            }
            if !wanted.iter().any(|w| w.0 == *name && w.1 == *unit) {
                return Err(format!("metric {name} ({unit}) is not in {key}"));
            }
            if self.metrics[..k].iter().any(|m| m.0 == *name) {
                return Err(format!("metric {name} reported twice"));
            }
        }
        let mut fields = Vec::new();
        let mut bypassed = Vec::new();
        for (name, unit) in &wanted {
            let value = match self.metrics.iter().find(|m| m.0 == name) {
                Some(m) => m.1,
                None if trace => {
                    bypassed.push(name.as_str());
                    0.0
                }
                None => return Err(format!("end-to-end metric {name} was not measured")),
            };
            fields.push(format!(
                "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
            ));
        }
        if !bypassed.is_empty() {
            eprintln!("layers this journey bypasses (reported as 0): {bypassed:?}");
        }
        Ok(format!(
            "{{\"correct\": true, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.attempted,
            self.failed,
            fields.join(", ")
        ))
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\nusage: perfbench --workload <train|serve|explore> --seed <n> --seconds <s> --trace <0|1>");
            std::process::exit(2);
        }
    };
    let root = PathBuf::from(".perfbench-work");
    let work = root.join(format!("{}-{}", args.workload, std::process::id()));
    std::fs::create_dir_all(&work).expect("create work dir");
    // Timed passes run with span recording off, the program's default.
    dse_obs::set_enabled(false);
    let result = match args.workload.as_str() {
        "train" => run_train(&args, &work),
        "serve" => run_serve(&args, &work),
        _ => run_explore(&args, &work),
    };
    let _ = std::fs::remove_dir_all(&work);
    let _ = std::fs::remove_dir(&root);
    match result.and_then(|r| r.json(args.trace)) {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("perfbench: check failed: {e}");
            std::process::exit(1);
        }
    }
}

/// Runs `pass(i, traced)` until `seconds` have elapsed and at least
/// `min` passes ran. In a traced run, passes alternate untraced and
/// traced (odd indices), so the pair gives the tracing overhead.
///
/// Also returns the peak RSS after set-up and the first pass: later
/// passes only add the benchmark's own samples, whose number depends on
/// how many passes fit in the time.
fn repeat<T>(
    args: &Args,
    min: usize,
    mut pass: impl FnMut(usize, bool) -> Result<T, String>,
) -> Result<(Vec<(bool, T)>, f64), String> {
    let deadline = Instant::now() + Duration::from_secs_f64(args.seconds);
    let min = if args.trace { min.max(2) } else { min };
    let mut out = Vec::new();
    let mut rss = 0.0;
    while out.len() < min || Instant::now() < deadline {
        let traced = args.trace && out.len() % 2 == 1;
        dse_obs::set_enabled(traced);
        let _ = dse_obs::span::take_spans();
        let r = pass(out.len(), traced);
        dse_obs::set_enabled(false);
        out.push((traced, r?));
        if out.len() == 1 {
            rss = peak_rss_mb();
        }
    }
    Ok((out, rss))
}

/// Median of `f` over the passes with the given tracing state.
fn med<T>(passes: &[(bool, T)], traced: bool, f: impl Fn(&T) -> f64) -> f64 {
    let v: Vec<f64> = passes
        .iter()
        .filter(|p| p.0 == traced)
        .map(|p| f(&p.1))
        .collect();
    median(&v)
}

/// Percent by which the traced median of `f` exceeds the untraced one.
fn overhead_pct<T>(passes: &[(bool, T)], f: impl Fn(&T) -> f64 + Copy) -> f64 {
    (med(passes, true, f) / med(passes, false, f) - 1.0) * 100.0
}

/// Wall time covered by the recorded spans named `name`.
fn span_secs(spans: &[dse_obs::SpanRecord], name: &str) -> f64 {
    union_secs(
        spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.start_ns, s.dur_ns))
            .collect(),
    )
}

/// Runs set-up `SETUP_REPS` times; returns the last result and the
/// median time.
fn setup<T>(mut f: impl FnMut(usize) -> T) -> (T, f64) {
    let mut times = Vec::with_capacity(SETUP_REPS);
    let mut last = None;
    for k in 0..SETUP_REPS {
        let (v, t) = timed(|| f(k));
        times.push(t);
        last = Some(v);
    }
    eprintln!("set-up times (s): {times:.3?}");
    (last.expect("at least one set-up"), median(&times))
}

struct TrainPass {
    out: train::Outcome,
    spans: Vec<dse_obs::SpanRecord>,
}

fn run_train(args: &Args, work: &Path) -> Result<Report, String> {
    // Set-up (~0.1 s) runs again before every pass, timed apart from it:
    // this machine's speed changes over seconds, and repeats spread over
    // the run sample it as the passes do, where back-to-back repeats
    // all land in one stretch.
    let mut setup_times = Vec::new();
    let (passes, rss) = repeat(args, 3, |_, traced| {
        let (trace_path, t) = timed(|| train::setup(work, args.seed));
        setup_times.push(t);
        let out = train::run(work, &trace_path, args.seed);
        let spans = if traced {
            dse_obs::span::take_spans()
        } else {
            Vec::new()
        };
        Ok(TrainPass { out, spans })
    })?;
    eprintln!("set-up times (s): {setup_times:.3?}");
    let first = &passes[0].1.out;
    for (_, p) in &passes {
        if p.out.digest != first.digest {
            return Err("dataset/artifact digest differs between passes".to_string());
        }
        if p.out.rmae_pct.to_bits() != first.rmae_pct.to_bits() {
            return Err("predict_rmae_pct differs between passes".to_string());
        }
    }
    train::check(work, &passes.last().expect("a pass").1.out, args.seed)?;

    let mut r = Report {
        attempted: passes.len() as u64,
        ..Report::default()
    };
    if !args.trace {
        r.put("setup_s", median(&setup_times), "s");
        r.put("peak_rss_mb", rss, "MB");
        r.put(
            "latency_ms",
            med(&passes, false, |p| p.out.train_s) * 1e3,
            "ms",
        );
        r.put(
            "throughput_per_s",
            med(&passes, false, |p| p.out.sim_instrs / p.out.train_s),
            "1/s",
        );
        // Pooled over every draw of every pass: one pass's online stage
        // lasts ~6 ms, so a single preemption would move a per-pass figure.
        let draws: Vec<f64> = passes
            .iter()
            .filter(|p| !p.0)
            .flat_map(|p| p.1.out.draw_secs.iter().copied())
            .collect();
        r.put("fit_ms", median(&draws) * 1e3, "ms");
        r.put("predict_rmae_pct", first.rmae_pct, "%");
        return Ok(r);
    }
    let st =
        |f: fn(&train::Stages) -> f64| med(&passes, true, move |p: &TrainPass| f(&p.out.stages));
    let sp = |name: &'static str| {
        med(&passes, true, move |p: &TrainPass| {
            span_secs(&p.spans, name)
        })
    };
    r.put("workload.trace_gen_s", sp("dataset.traces"), "s");
    r.put("ingest.import_s", st(|s| s.import), "s");
    r.put(
        "ingest.import_mb_per_s",
        st(|s| s.import_bytes as f64 / 1e6 / s.import),
        "MB/s",
    );
    r.put("core.dataset_generate_s", st(|s| s.generate), "s");
    r.put("sim.plans_s", sp("dataset.plans"), "s");
    r.put("sim.sweep_s", sp("dataset.sweep"), "s");
    r.put("serve.save_artifacts_s", st(|s| s.save), "s");
    // Offline training of the four metric models inside save_artifacts.
    r.put("core.offline_train_s", sp("train.offline_model"), "s");
    r.put("ml.mlp_fit_s", sp("mlp.fit"), "s");
    r.put("serve.registry_open_s", st(|s| s.open), "s");
    r.put("core.online_fit_s", st(|s| s.online), "s");
    r.put(
        "train.children_cover_pct",
        med(&passes, true, |p| {
            p.out.stages.sum() / p.out.train_s * 100.0
        }),
        "%",
    );
    r.put(
        "obs.trace_overhead_pct",
        overhead_pct(&passes, |p| p.out.train_s),
        "%",
    );
    Ok(r)
}

fn run_serve(args: &Args, work: &Path) -> Result<Report, String> {
    let (offered, achieved) = serve::generator_self_test(serve::NOMINAL_RPS, 0.5);
    if achieved < 0.95 * offered {
        return Err(format!(
            "open-loop generator reached {achieved:.0}/s of {offered:.0}/s against a stub endpoint"
        ));
    }
    // Each set-up trains, fits and starts a fresh server; the previous
    // one is dropped (stopped) outside the timing.
    let mut first = None;
    let ((mut fx, last), setup_s) = setup(|k| {
        let built = serve::build_registry(&work.join(format!("serve-{k}")), args.seed);
        let fx = serve::Fixture::start(built.registry.clone(), built.fits.clone(), args.seed);
        if k == 0 {
            first = Some(built.clone());
        }
        (fx, built)
    });
    let rmae = last.served_rmae_pct(args.seed);
    let rmae_first = first.expect("a set-up").served_rmae_pct(args.seed);
    if rmae.to_bits() != rmae_first.to_bits() {
        return Err(format!(
            "served-model error differs between set-ups: {rmae_first} vs {rmae}"
        ));
    }
    // The rate ladder feeds only `serve.max_rps`, a per-layer metric, so
    // gated runs spend its time on more nominal-rate visits.
    let passes = repeat(args, 1, |_, _| fx.pass(args.trace));
    let layers = (args.trace && passes.is_ok())
        .then(|| fx.layer_timings())
        .transpose();
    drop(fx);
    let ((passes, rss), layers) = (passes?, layers?);

    for (k, (traced, p)) in passes.iter().enumerate() {
        let v = &p.visits[0];
        eprintln!(
            "pass {k}{}: predict p50 {:.1} us, fit p50 {:.3} ms, batch p50 {:.2} ms",
            if *traced { " (traced)" } else { "" },
            median(&v.predict_us),
            median(&v.fit_ms),
            median(&p.batch_secs) * 1e3
        );
    }
    let mut r = Report::default();
    let of = |traced: bool| passes.iter().filter(move |p| p.0 == traced).map(|p| &p.1);
    let all = || passes.iter().map(|p| &p.1);
    for p in all() {
        r.attempted += (p.visits.iter().map(|s| s.ops).sum::<usize>() + p.batch_secs.len()) as u64;
        r.failed += (p.visits.iter().map(|s| s.failed).sum::<usize>() + p.batch_failed) as u64;
    }
    let nominal = |rates: &[serve::Step]| {
        rates
            .iter()
            .find(|s| s.offered_rps == serve::NOMINAL_RPS)
            .cloned()
            .expect("nominal visits")
    };
    if !args.trace {
        let rates = serve::by_rate(of(false));
        for s in &rates {
            eprintln!(
                "offered {:>6.0}/s: p99 {:>8.1} us, achieved {:>8.1}/s, cache hits {:.3}, failed {}{}",
                s.offered_rps,
                s.p99_us(),
                s.achieved_rps(),
                s.hits as f64 / (s.hits + s.misses).max(1) as f64,
                s.failed,
                if s.meets_limit() {
                    ""
                } else {
                    "  (misses the limit)"
                }
            );
        }
        let nom = nominal(&rates);
        // A pass's batches run either ~3.8 or ~5.5 ms a round trip on a
        // shared two-vCPU machine, and the mode changes between passes. A
        // median over all batches jumps between the modes as their mix
        // crosses one half; the mean of per-pass medians follows the mix.
        let batch_p50s: Vec<f64> = all().map(|p| median(&p.batch_secs)).collect();
        let batch_s = batch_p50s.iter().sum::<f64>() / batch_p50s.len() as f64;
        r.put("setup_s", setup_s, "s");
        r.put("peak_rss_mb", rss, "MB");
        r.put("latency_ms", median(&nom.predict_us) * 1e-3, "ms");
        r.put(
            "throughput_per_s",
            serve::BATCH_ROWS as f64 / batch_s,
            "1/s",
        );
        r.put("fit_ms", median(&nom.fit_ms), "ms");
        r.put("predict_rmae_pct", rmae, "%");
        return Ok(r);
    }
    let layers = layers.expect("layer timings ran");
    let rates = serve::by_rate(of(true));
    let nom = nominal(&rates);
    let untraced_p50 = median(&nominal(&serve::by_rate(of(false))).predict_us);
    let ratio = |h: u64, m: u64| {
        if h + m == 0 {
            0.0
        } else {
            h as f64 / (h + m) as f64
        }
    };
    let (oh, om) = rates
        .iter()
        .fold((0, 0), |(h, m), s| (h + s.hits, m + s.misses));
    let (bh, bm) = all().fold((0, 0), |(h, m), p| (h + p.batch_hits, m + p.batch_misses));
    let sum = |f: fn(&serve::Step) -> usize| {
        all().flat_map(|p| p.visits.iter()).map(f).sum::<usize>() as f64
    };
    let p50 = median(&nom.predict_us);
    r.put("serve.cache_hit_ratio.open", ratio(oh, om), "ratio");
    r.put("serve.cache_hit_ratio.batch", ratio(bh, bm), "ratio");
    r.put("serve.offered_rps", serve::NOMINAL_RPS, "1/s");
    r.put("serve.achieved_rps", nom.achieved_rps(), "1/s");
    r.put(
        "serve.gen_lag_p99_us",
        stats::quantile(&nom.gen_lag_us, 0.99),
        "us",
    );
    r.put("serve.max_rps", serve::max_rps(&rates), "1/s");
    r.put("serve.predict_p99_us", nom.p99_us(), "us");
    r.put(
        "serve.predict_p99_unblocked_us",
        stats::quantile(&nom.predict_us, 0.99),
        "us",
    );
    r.put("serve.ops", sum(|s| s.ops), "count");
    r.put("serve.failed_ops", sum(|s| s.failed), "count");
    r.put("serve.late_ops", sum(|s| s.late), "count");
    r.put("serve.shed_503", sum(|s| s.shed), "count");
    r.put(
        "serve.batch_failed",
        all().map(|p| p.batch_failed).sum::<usize>() as f64,
        "count",
    );
    r.put(
        "serve.registry_predict_us",
        layers.registry_predict_us,
        "us",
    );
    r.put("serve.wire_us", p50 - layers.registry_predict_us, "us");
    r.put("serve.registry_fit_ms", layers.registry_fit_ms, "ms");
    r.put("ml.forward_ns_per_row", layers.forward_ns_per_row, "ns");
    r.put("util.json_write_us", layers.json_write_us, "us");
    r.put("util.json_parse_us", layers.json_parse_us, "us");
    r.put("serve.http_parse_us", layers.http_parse_us, "us");
    r.put(
        "serve.selftest_achieved_pct",
        achieved / offered * 100.0,
        "%",
    );
    r.put(
        "obs.trace_overhead_pct",
        (p50 / untraced_p50 - 1.0) * 100.0,
        "%",
    );
    Ok(r)
}

fn run_explore(args: &Args, work: &Path) -> Result<Report, String> {
    let (built, setup_s) =
        setup(|k| serve::build_registry(&work.join(format!("explore-{k}")), args.seed));
    let registry = &built.registry;
    let (passes, rss) = repeat(args, 3, |_, traced| {
        explore::run(registry, args.seed, traced)
    })?;
    let first = &passes[0].1;
    for (_, p) in &passes {
        // Wrapped (traced) and unwrapped passes must agree bit for bit:
        // the timing wrappers are pass-through.
        if p.digest != first.digest {
            return Err("frontier digest differs between passes".to_string());
        }
        if p.hv.to_bits() != first.hv.to_bits() {
            return Err("explore.hv differs between passes".to_string());
        }
    }
    let mut r = Report {
        attempted: passes.len() as u64,
        ..Report::default()
    };
    if !args.trace {
        r.put("setup_s", setup_s, "s");
        r.put("peak_rss_mb", rss, "MB");
        r.put(
            "latency_ms",
            med(&passes, false, |p| p.characterize_s + p.explore_s) * 1e3,
            "ms",
        );
        r.put(
            "throughput_per_s",
            med(&passes, false, |p| {
                p.sim_instrs / (p.characterize_s + p.explore_s)
            }),
            "1/s",
        );
        r.put(
            "fit_ms",
            med(&passes, false, |p| p.characterize_s) * 1e3,
            "ms",
        );
        r.put(
            "predict_rmae_pct",
            explore::rmae_pct(&built, args.seed)?,
            "%",
        );
        return Ok(r);
    }
    // The split is read from the traced pass with the median explore_s,
    // so score + oracle + self add up to that pass's explore_s exactly.
    let mut traced: Vec<&explore::Outcome> = passes.iter().filter(|p| p.0).map(|p| &p.1).collect();
    traced.sort_by(|a, b| a.explore_s.total_cmp(&b.explore_s));
    let mid = traced[traced.len() / 2];
    let l = mid.layers.as_ref().expect("traced passes are wrapped");
    r.put(
        "workload.trace_gen_s",
        med(&passes, true, |p| p.trace_gen_s),
        "s",
    );
    r.put(
        "sim.response_sims_s",
        med(&passes, true, |p| p.response_sims_s),
        "s",
    );
    r.put(
        "serve.registry_fit_ms",
        med(&passes, true, |p| median(&p.fit_s) * 1e3),
        "ms",
    );
    r.put("explore.explore_s_traced", mid.explore_s, "s");
    r.put("explore.hv", first.hv, "ratio");
    r.put("sim.oracle_s", l.oracle_s, "s");
    r.put("sim.oracle_sims", l.oracle_sims as f64, "count");
    r.put("explore.score_s", l.score_s, "s");
    r.put("explore.rows_scored", l.rows_scored as f64, "count");
    r.put(
        "explore.self_s",
        mid.explore_s - l.score_s - l.oracle_s,
        "s",
    );
    r.put(
        "obs.trace_overhead_pct",
        overhead_pct(&passes, |p| p.explore_s),
        "%",
    );
    Ok(r)
}
