//! Golden-snapshot test: pins exact `SimResult` values for eight seeded
//! configuration × profile pairs, captured from the simulator **before**
//! the allocation-free hot-loop rewrite (SoA traces, ring-buffer pipeline
//! state, wakeup wheel).
//!
//! Unlike the oracle envelope (tests/differential_oracle.rs), which bounds
//! behaviour, this test demands bit-exact equality on every field — any
//! layout-change-induced drift in scheduling, caching, prediction, or
//! energy accounting fails loudly.
//!
//! The pairs are reproducible: configs come from `sample_legal` under a
//! fixed seed, profiles are looked up by name, and the (profile, config)
//! grid is thinned to the checkerboard `(pi + ci) % 2 == 0`.

use dse_rng::Xoshiro256;
use dse_sim::{
    simulate_detailed, simulate_profiled, try_simulate_batch_records, SimOptions, SimResult,
};
use dse_space::{sample_legal, Config, ConstantParams};
use dse_workload::{suites, Instr, InstrKind, Trace, TraceGenerator};

const TRACE_LEN: usize = 12_000;
const WARMUP: usize = 2_000;
const SEED: u64 = 0x601D;

/// (profile name, config index, expected result) — captured pre-rewrite.
#[rustfmt::skip]
fn golden() -> Vec<(&'static str, usize, SimResult)> {
    vec![
        ("gzip", 0, SimResult { instructions: 10000, cycles: 72617, energy_nj: 23497.998553681267, ipc: 0.13770880096946997, l1i_miss_rate: 0.04665314401622718, l1d_miss_rate: 0.25799256505576207, l2_miss_rate: 0.7900763358778626, bpred_miss_rate: 0.10873664362036455 }),
        ("gzip", 2, SimResult { instructions: 10000, cycles: 72431, energy_nj: 46980.44879138564, ipc: 0.13806243183167427, l1i_miss_rate: 0.04213197969543147, l1d_miss_rate: 0.2578966926793014, l2_miss_rate: 0.7992277992277992, bpred_miss_rate: 0.10817610062893082 }),
        ("gcc", 1, SimResult { instructions: 10000, cycles: 91650, energy_nj: 44845.81207365496, ipc: 0.10911074740861974, l1i_miss_rate: 0.11817078106029948, l1d_miss_rate: 0.18662232076866223, l2_miss_rate: 0.7641154328732748, bpred_miss_rate: 0.2620571916346564 }),
        ("gcc", 3, SimResult { instructions: 10000, cycles: 103417, energy_nj: 54376.94272396826, ipc: 0.09669590106075404, l1i_miss_rate: 0.11821862348178137, l1d_miss_rate: 0.18588322246858832, l2_miss_rate: 0.7660377358490567, bpred_miss_rate: 0.26228107646305 }),
        ("art", 0, SimResult { instructions: 10000, cycles: 147113, energy_nj: 75972.42306195703, ipc: 0.06797495802546343, l1i_miss_rate: 0.05692695214105793, l1d_miss_rate: 0.7361571829548355, l2_miss_rate: 0.9172781854569713, bpred_miss_rate: 0.12394366197183099 }),
        ("art", 2, SimResult { instructions: 10000, cycles: 147528, energy_nj: 122777.96481294662, ipc: 0.06778374274713952, l1i_miss_rate: 0.05695564516129032, l1d_miss_rate: 0.7361571829548355, l2_miss_rate: 0.9172781854569713, bpred_miss_rate: 0.1287593984962406 }),
        ("sha", 1, SimResult { instructions: 10000, cycles: 38751, energy_nj: 19536.58667601273, ipc: 0.2580578565714433, l1i_miss_rate: 0.0752441125789776, l1d_miss_rate: 0.09152542372881356, l2_miss_rate: 0.63125, bpred_miss_rate: 0.17914438502673796 }),
        ("sha", 3, SimResult { instructions: 10000, cycles: 41416, energy_nj: 23006.67806380891, ipc: 0.24145257871354067, l1i_miss_rate: 0.07515777395295467, l1d_miss_rate: 0.09152542372881356, l2_miss_rate: 0.63125, bpred_miss_rate: 0.17914438502673796 }),
    ]
}

#[test]
fn sim_results_match_pre_optimization_golden_values() {
    let mut rng = Xoshiro256::seed_from(SEED);
    let configs = sample_legal(&mut rng, 4);
    let opts = SimOptions::with_warmup(WARMUP);

    for (name, ci, expected) in golden() {
        let profile = suites::all_benchmarks()
            .into_iter()
            .find(|p| p.name == name)
            .unwrap_or_else(|| panic!("profile {name} missing"));
        let trace = TraceGenerator::new(&profile).generate(TRACE_LEN);
        let (got, _) = simulate_detailed(&configs[ci], &trace, opts);
        assert_eq!(
            got.instructions, expected.instructions,
            "{name} × config[{ci}]: instructions drifted"
        );
        assert_eq!(
            got.cycles, expected.cycles,
            "{name} × config[{ci}]: cycles drifted"
        );
        for (field, g, e) in [
            ("energy_nj", got.energy_nj, expected.energy_nj),
            ("ipc", got.ipc, expected.ipc),
            ("l1i_miss_rate", got.l1i_miss_rate, expected.l1i_miss_rate),
            ("l1d_miss_rate", got.l1d_miss_rate, expected.l1d_miss_rate),
            ("l2_miss_rate", got.l2_miss_rate, expected.l2_miss_rate),
            (
                "bpred_miss_rate",
                got.bpred_miss_rate,
                expected.bpred_miss_rate,
            ),
        ] {
            assert_eq!(
                g.to_bits(),
                e.to_bits(),
                "{name} × config[{ci}]: {field} drifted: got {g:?}, want {e:?}"
            );
        }
    }
}

/// The lockstep batched path (`ARCHDSE_BATCH>1` semantics) must produce
/// the same golden values: each profile's four sampled configs run as one
/// width-4 batch over a single shared trace, and every golden lane is
/// compared bit-for-bit against the pre-rewrite snapshot.
#[test]
fn batched_lanes_match_golden_values() {
    let mut rng = Xoshiro256::seed_from(SEED);
    let configs = sample_legal(&mut rng, 4);
    let opts = SimOptions::with_warmup(WARMUP);

    for name in ["gzip", "gcc", "art", "sha"] {
        let profile = suites::all_benchmarks()
            .into_iter()
            .find(|p| p.name == name)
            .unwrap_or_else(|| panic!("profile {name} missing"));
        let trace = TraceGenerator::new(&profile).generate(TRACE_LEN);
        let records =
            try_simulate_batch_records(&configs, &ConstantParams::standard(), &trace, opts);
        assert_eq!(records.len(), configs.len(), "{name}: lane count drifted");
        for (gname, ci, expected) in golden() {
            if gname != name {
                continue;
            }
            let got = records[ci]
                .as_ref()
                .unwrap_or_else(|e| panic!("{name} × config[{ci}]: batched lane failed: {e}"))
                .result;
            assert_eq!(
                got.instructions, expected.instructions,
                "{name} × config[{ci}]: instructions drifted under batching"
            );
            assert_eq!(
                got.cycles, expected.cycles,
                "{name} × config[{ci}]: cycles drifted under batching"
            );
            for (field, g, e) in [
                ("energy_nj", got.energy_nj, expected.energy_nj),
                ("ipc", got.ipc, expected.ipc),
                ("l1i_miss_rate", got.l1i_miss_rate, expected.l1i_miss_rate),
                ("l1d_miss_rate", got.l1d_miss_rate, expected.l1d_miss_rate),
                ("l2_miss_rate", got.l2_miss_rate, expected.l2_miss_rate),
                (
                    "bpred_miss_rate",
                    got.bpred_miss_rate,
                    expected.bpred_miss_rate,
                ),
            ] {
                assert_eq!(
                    g.to_bits(),
                    e.to_bits(),
                    "{name} × config[{ci}]: {field} drifted under batching: got {g:?}, want {e:?}"
                );
            }
        }
    }
}

/// The observed (stall-attributed) run must be bit-identical to the
/// golden values: instrumentation only reads pipeline state, never
/// steers it. Also checks the attribution's internal invariants — the
/// commit-outcome buckets partition the stepped cycles and, together
/// with the idle-skipped cycles, account for every cycle of the run.
#[test]
fn profiled_runs_are_bit_identical_and_attribution_sums() {
    let mut rng = Xoshiro256::seed_from(SEED);
    let configs = sample_legal(&mut rng, 4);
    let opts = SimOptions::with_warmup(WARMUP);

    for (name, ci, expected) in golden() {
        let profile = suites::all_benchmarks()
            .into_iter()
            .find(|p| p.name == name)
            .unwrap_or_else(|| panic!("profile {name} missing"));
        let trace = TraceGenerator::new(&profile).generate(TRACE_LEN);
        let (_, report) = simulate_profiled(&configs[ci], &trace, opts);
        let got = report.record.result;
        assert_eq!(
            got.instructions, expected.instructions,
            "{name} × config[{ci}]: instructions drifted under obs"
        );
        assert_eq!(
            got.cycles, expected.cycles,
            "{name} × config[{ci}]: cycles drifted under obs"
        );
        for (field, g, e) in [
            ("energy_nj", got.energy_nj, expected.energy_nj),
            ("ipc", got.ipc, expected.ipc),
            ("l1i_miss_rate", got.l1i_miss_rate, expected.l1i_miss_rate),
            ("l1d_miss_rate", got.l1d_miss_rate, expected.l1d_miss_rate),
            ("l2_miss_rate", got.l2_miss_rate, expected.l2_miss_rate),
            (
                "bpred_miss_rate",
                got.bpred_miss_rate,
                expected.bpred_miss_rate,
            ),
        ] {
            assert_eq!(
                g.to_bits(),
                e.to_bits(),
                "{name} × config[{ci}]: {field} drifted under obs: got {g:?}, want {e:?}"
            );
        }

        let p = &report.profile;
        assert_eq!(
            p.instructions, TRACE_LEN as u64,
            "{name} × config[{ci}]: attribution lost instructions"
        );
        assert_eq!(
            p.cycles_stepped,
            p.cycles_with_commit + p.commit_stall_rob_empty + p.commit_stall_head_wait,
            "{name} × config[{ci}]: commit buckets must partition stepped cycles"
        );
        assert!(
            p.total_cycles() >= got.cycles,
            "{name} × config[{ci}]: full-run cycles must cover the measured phase"
        );
        assert!(p.hw_rob > 0 && p.hw_fetch_q > 0);
    }
}

// ----------------------------------------------------------------------
// Issue-stage corners, captured from the pull-probing issue scan before
// the scheduler moved to push-based operand wakeup. They pin the queue
// sizes and operand shapes where a scheduler rewrite is most likely to
// drift: the narrowest machine (IQ 8, every scan full of stalls), the
// widest one (IQ 80, 16 read ports), and instructions whose two
// operands name the same producer.
// ----------------------------------------------------------------------

/// The narrow, stall-heavy machine of `bench_sim`'s tiny-config row.
fn tiny_config() -> Config {
    Config {
        width: 2,
        rob: 32,
        iq: 8,
        lsq: 8,
        rf: 40,
        rf_read: 2,
        rf_write: 1,
        bpred_k: 1,
        btb_k: 1,
        max_branches: 8,
        icache_kb: 8,
        dcache_kb: 8,
        l2_kb: 256,
    }
}

/// The widest core the design space allows.
fn widest_config() -> Config {
    Config {
        width: 8,
        rob: 160,
        iq: 80,
        lsq: 80,
        rf: 160,
        rf_read: 16,
        rf_write: 8,
        ..Config::baseline()
    }
}

fn corner_config(name: &str) -> Config {
    match name {
        "tiny" => tiny_config(),
        "widest" => widest_config(),
        "baseline" => Config::baseline(),
        other => panic!("unknown corner config {other}"),
    }
}

fn program_trace(name: &str, len: usize) -> Trace {
    let profile = suites::all_benchmarks()
        .into_iter()
        .find(|p| p.name == name)
        .unwrap_or_else(|| panic!("profile {name} missing"));
    TraceGenerator::new(&profile).generate(len)
}

/// `trace` with every dependent instruction's two operands pointed at
/// the same producer (the farther of its two original sources).
fn same_producer(trace: &Trace) -> Trace {
    Trace::new(
        "same-producer",
        trace.iter().map(|mut ins| {
            let d = ins.src1.max(ins.src2);
            ins.src1 = d;
            ins.src2 = d;
            ins
        }),
    )
}

fn assert_bit_identical(case: &str, got: &SimResult, want: &SimResult) {
    assert_eq!(
        got.instructions, want.instructions,
        "{case}: instructions drifted"
    );
    assert_eq!(got.cycles, want.cycles, "{case}: cycles drifted");
    for (field, g, w) in [
        ("energy_nj", got.energy_nj, want.energy_nj),
        ("ipc", got.ipc, want.ipc),
        ("l1i_miss_rate", got.l1i_miss_rate, want.l1i_miss_rate),
        ("l1d_miss_rate", got.l1d_miss_rate, want.l1d_miss_rate),
        ("l2_miss_rate", got.l2_miss_rate, want.l2_miss_rate),
        ("bpred_miss_rate", got.bpred_miss_rate, want.bpred_miss_rate),
    ] {
        assert_eq!(
            g.to_bits(),
            w.to_bits(),
            "{case}: {field} drifted: got {g:?}, want {w:?}"
        );
    }
}

/// (program, config, same-producer operands?, expected result).
#[rustfmt::skip]
fn corner_golden() -> Vec<(&'static str, &'static str, bool, SimResult)> {
    vec![
        ("gzip", "tiny", false, SimResult { instructions: 10000, cycles: 104235, energy_nj: 21260.073862156773, ipc: 0.09593706528517293, l1i_miss_rate: 0.0463009562154001, l1d_miss_rate: 0.2948339483394834, l2_miss_rate: 0.7037037037037037, bpred_miss_rate: 0.10778816199376948 }),
        ("gzip", "widest", false, SimResult { instructions: 10000, cycles: 65029, energy_nj: 43558.341782679505, ipc: 0.1537775454028203, l1i_miss_rate: 0.041687849517031014, l1d_miss_rate: 0.2605449794699515, l2_miss_rate: 0.791025641025641, bpred_miss_rate: 0.10768261964735516 }),
        ("art", "tiny", false, SimResult { instructions: 10000, cycles: 242573, energy_nj: 73809.12345495695, ipc: 0.04122470349132014, l1i_miss_rate: 0.05630293971101146, l1d_miss_rate: 0.7394723490613901, l2_miss_rate: 0.9131439894319683, bpred_miss_rate: 0.12224264705882353 }),
        ("art", "widest", false, SimResult { instructions: 10000, cycles: 143173, energy_nj: 119612.60175514754, ipc: 0.06984557144154276, l1i_miss_rate: 0.05759429153924567, l1d_miss_rate: 0.737220652453121, l2_miss_rate: 0.9151860543077439, bpred_miss_rate: 0.13064361191162344 }),
        ("sha", "tiny", false, SimResult { instructions: 10000, cycles: 42405, energy_nj: 8595.652876558383, ipc: 0.23582124749439926, l1i_miss_rate: 0.07502863688430698, l1d_miss_rate: 0.09297820823244551, l2_miss_rate: 0.6253869969040248, bpred_miss_rate: 0.172 }),
        ("sha", "widest", false, SimResult { instructions: 10000, cycles: 29816, energy_nj: 20491.16988308415, ipc: 0.33539039441910384, l1i_miss_rate: 0.07515777395295467, l1d_miss_rate: 0.09156976744186046, l2_miss_rate: 0.63125, bpred_miss_rate: 0.17647058823529413 }),
        ("gzip", "baseline", true, SimResult { instructions: 10000, cycles: 49007, energy_nj: 27301.25978811137, ipc: 0.20405248229844716, l1i_miss_rate: 0.04263959390862944, l1d_miss_rate: 0.2606105733432614, l2_miss_rate: 0.7908163265306123, bpred_miss_rate: 0.10817610062893082 }),
        ("gzip", "tiny", true, SimResult { instructions: 10000, cycles: 99185, energy_nj: 20968.45752645402, ipc: 0.10082169682915763, l1i_miss_rate: 0.04627766599597585, l1d_miss_rate: 0.2948339483394834, l2_miss_rate: 0.7037037037037037, bpred_miss_rate: 0.10778816199376948 }),
        ("gzip", "widest", true, SimResult { instructions: 10000, cycles: 41503, energy_nj: 34153.97364550327, ipc: 0.24094643760691997, l1i_miss_rate: 0.041687849517031014, l1d_miss_rate: 0.26101568334578046, l2_miss_rate: 0.7900128040973111, bpred_miss_rate: 0.10768261964735516 }),
    ]
}

#[test]
fn issue_stage_corners_match_golden_values() {
    let opts = SimOptions::with_warmup(WARMUP);
    for (name, cfg, same, expected) in corner_golden() {
        let mut trace = program_trace(name, TRACE_LEN);
        if same {
            trace = same_producer(&trace);
        }
        let (got, _) = simulate_detailed(&corner_config(cfg), &trace, opts);
        let case = format!("{name} × {cfg} (same producer: {same})");
        assert_bit_identical(&case, &got, &expected);
    }
}

const DIGEST_TRACE_LEN: usize = 2_000;
const DIGEST_WARMUP: usize = 500;
/// FNV-1a over every field of every run, in program-then-config order.
const GOLDEN_DIGEST: u64 = 0xc551_4e9b_987b_ea86;

/// Every built-in program on a small legal sample plus the two corner
/// machines, folded into one digest. Short traces keep the debug-build
/// run fast; any drift anywhere changes the digest.
#[test]
fn every_program_matches_golden_digest() {
    let mut rng = Xoshiro256::seed_from(SEED ^ 0xD1_6E57);
    let mut configs = sample_legal(&mut rng, 3);
    configs.extend([tiny_config(), widest_config()]);
    let opts = SimOptions::with_warmup(DIGEST_WARMUP);
    let mut digest = 0xcbf2_9ce4_8422_2325u64;
    for profile in suites::all_benchmarks() {
        let trace = TraceGenerator::new(&profile).generate(DIGEST_TRACE_LEN);
        for cfg in &configs {
            let (r, _) = simulate_detailed(cfg, &trace, opts);
            for word in [
                r.instructions,
                r.cycles,
                r.energy_nj.to_bits(),
                r.ipc.to_bits(),
                r.l1i_miss_rate.to_bits(),
                r.l1d_miss_rate.to_bits(),
                r.l2_miss_rate.to_bits(),
                r.bpred_miss_rate.to_bits(),
            ] {
                digest = (digest ^ word).wrapping_mul(0x0100_0000_01b3);
            }
        }
    }
    assert_eq!(
        digest, GOLDEN_DIGEST,
        "digest over every program drifted: got {digest:#018x}"
    );
}

/// A store-miss memory backlog on a deep window (ROB and LSQ 1024, off
/// the design-space grid but legal): dependants of the backlogged loads
/// become ready thousands of cycles ahead, beyond the wakeup wheel's
/// horizon, so the overflow path carries them. Captured from the
/// pull-probing issue scan.
#[test]
fn beyond_horizon_wakeups_match_golden_values() {
    let instrs = (0..6000u32).map(|i| {
        let pc = 0x40_0000 + (i % 64) * 4;
        let (kind, src1, addr) = match i % 8 {
            7 => (InstrKind::IntAlu, 1, 0),
            6 => (InstrKind::Load, 0, 0x2000_0000 + i as u64 * 4096),
            _ => (InstrKind::Store, 0, 0x1000_0000 + i as u64 * 4096),
        };
        Instr {
            kind,
            src1,
            src2: 0,
            pc,
            addr,
            taken: false,
            target: 0,
        }
    });
    let trace = Trace::new("backlog", instrs);
    let cfg = Config {
        rob: 1024,
        iq: 160,
        lsq: 1024,
        rf: 1024,
        ..widest_config()
    };
    let (got, _) = simulate_detailed(&cfg, &trace, SimOptions::with_warmup(1_000));
    #[rustfmt::skip]
    let want = SimResult { instructions: 5000, cycles: 70000, energy_nj: 103255.42397083442, ipc: 0.07142857142857142, l1i_miss_rate: 0.0, l1d_miss_rate: 1.0, l2_miss_rate: 1.0, bpred_miss_rate: 0.0 };
    assert_bit_identical("store-miss backlog × deep window", &got, &want);
}
