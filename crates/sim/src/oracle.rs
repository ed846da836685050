//! In-order reference oracle for differential testing.
//!
//! An independent, deliberately simple model of the same machine: a
//! single-issue, in-order core with perfect branch prediction, analysed in
//! one pass over the trace. It cannot reproduce the out-of-order
//! simulator's exact cycle count, but it brackets it from both sides and
//! predicts many of its event counts *exactly*, because those counts are
//! properties of the trace, not of scheduling:
//!
//! * **Exact event counts** — fetch, rename, dispatch, issue and commit
//!   each touch every trace instruction exactly once, so `fetched`,
//!   `renamed`, `iq_inserts`, `iq_wakeups` and `rob_reads` all equal the
//!   trace length; `rf_reads` is the number of register source operands
//!   (sources that name a position before the trace start excluded);
//!   `rf_writes` the number of result-producing instructions;
//!   `dcache_accesses`/`lsq_searches` the number of memory operations;
//!   `bpred_accesses`/`btb_accesses` the number of branches; and `fu_ops`
//!   the instruction-kind histogram. The differential test asserts strict
//!   equality on all of these.
//! * **Cycle lower bound** — the best the out-of-order machine can do is
//!   limited by (a) fetch/commit bandwidth, `⌈N / width⌉` cycles, and
//!   (b) the dataflow critical path under the most optimistic latencies
//!   (every load an L1 hit, no structural hazards): results forward the
//!   cycle they complete, so `finish[i] = max(finish[deps]) + lat(i)`.
//! * **Cycle upper bound** — a machine that fully serialises every
//!   instruction and always takes the worst-case path (every fetch an
//!   I-cache miss to DRAM, every memory operation missing both cache
//!   levels, every branch paying a full front-end refill) is slower than
//!   any schedule the pipeline can produce; the bound sums those
//!   per-instruction worst cases plus a fill/drain allowance.
//! * **Energy bounds** — every per-event energy is non-negative, so the
//!   total is monotone in the counts: pricing the exact counts plus the
//!   minimum (maximum) possible timing-dependent counts and the cycle
//!   lower (upper) bound brackets the simulator's energy.

use crate::energy::{EnergyCounters, EnergyModel};
use crate::timing::{MemorySpec, SramSpec};
use dse_space::{Config, ConstantParams};
use dse_workload::{InstrKind, Trace};

/// Event counts that are properties of the trace alone (independent of
/// scheduling and cache state), which the out-of-order simulator must
/// reproduce exactly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExactCounts {
    /// Instructions fetched, renamed, issued and committed: trace length.
    pub instructions: u64,
    /// Register source operands read across the trace.
    pub rf_reads: u64,
    /// Result-producing instructions (register-file writes).
    pub rf_writes: u64,
    /// Memory operations (D-cache accesses and LSQ searches).
    pub mem_ops: u64,
    /// Branches (predictor and BTB lookups).
    pub branches: u64,
    /// Functional-unit operations by class (int ALU/branch/mem, int
    /// mul-div, FP ALU, FP mul-div) — the instruction-kind histogram.
    pub fu_ops: [u64; 4],
}

/// The oracle's verdict on one (config, trace) pair.
#[derive(Debug, Clone, PartialEq)]
pub struct OracleReport {
    /// Scheduling-independent event counts (must match exactly).
    pub counts: ExactCounts,
    /// No schedule can finish in fewer cycles than this.
    pub cycles_lo: u64,
    /// No schedule can take more cycles than this.
    pub cycles_hi: u64,
    /// Lower bound on total energy in nanojoules.
    pub energy_lo_nj: f64,
    /// Upper bound on total energy in nanojoules.
    pub energy_hi_nj: f64,
}

impl OracleReport {
    /// Checks the simulator's measured counters against the exact counts,
    /// returning the first mismatch as `(name, observed, expected)`.
    pub fn count_mismatch(&self, c: &EnergyCounters) -> Option<(&'static str, u64, u64)> {
        let n = self.counts.instructions;
        let pairs = [
            ("fetched", c.fetched, n),
            ("renamed", c.renamed, n),
            ("iq_inserts", c.iq_inserts, n),
            ("iq_wakeups", c.iq_wakeups, n),
            ("rob_reads", c.rob_reads, n),
            ("rob_writes", c.rob_writes, n + self.counts.rf_writes),
            ("rf_reads", c.rf_reads, self.counts.rf_reads),
            ("rf_writes", c.rf_writes, self.counts.rf_writes),
            ("dcache_accesses", c.dcache_accesses, self.counts.mem_ops),
            ("lsq_searches", c.lsq_searches, self.counts.mem_ops),
            ("bpred_accesses", c.bpred_accesses, self.counts.branches),
            ("btb_accesses", c.btb_accesses, self.counts.branches),
            ("fu_int", c.fu_ops[0], self.counts.fu_ops[0]),
            ("fu_int_muldiv", c.fu_ops[1], self.counts.fu_ops[1]),
            ("fu_fp_alu", c.fu_ops[2], self.counts.fu_ops[2]),
            ("fu_fp_muldiv", c.fu_ops[3], self.counts.fu_ops[3]),
        ];
        pairs
            .into_iter()
            .find(|&(_, obs, exp)| obs != exp)
            .map(|(name, obs, exp)| (name, obs, exp))
    }
}

/// Optimistic (all-hit, no-hazard) result latency of one instruction.
fn min_latency(kind: InstrKind, cons: &ConstantParams, l1d_lat: u64) -> u64 {
    match kind {
        InstrKind::IntAlu | InstrKind::Branch | InstrKind::Store => cons.int_alu_latency as u64,
        InstrKind::IntMul => cons.int_mul_latency as u64,
        InstrKind::IntDiv => cons.int_div_latency as u64,
        InstrKind::FpAlu => cons.fp_alu_latency as u64,
        InstrKind::FpMul => cons.fp_mul_latency as u64,
        InstrKind::FpDiv => cons.fp_div_latency as u64,
        InstrKind::Load => l1d_lat,
    }
}

/// Analyses `trace` under `cfg`, producing exact event counts and
/// cycle/energy bounds for any run of the out-of-order simulator with
/// **zero warm-up** (so the measured portion is the whole trace).
pub fn analyze(cfg: &Config, cons: &ConstantParams, trace: &Trace) -> OracleReport {
    let n = trace.len();
    let l1d_lat = SramSpec::ram(cfg.dcache_kb as u64 * 1024).latency_cycles() as u64;
    let l2_lat = SramSpec::ram(cfg.l2_kb as u64 * 1024).latency_cycles() as u64;
    let mem = MemorySpec::standard();

    let mut counts = ExactCounts {
        instructions: n as u64,
        rf_reads: 0,
        rf_writes: 0,
        mem_ops: 0,
        branches: 0,
        fu_ops: [0; 4],
    };

    // Dataflow critical path under optimistic latencies. `finish[i]` is
    // the earliest cycle instruction i's result can exist; dependents of
    // instruction i - d read `finish[i - d]` directly.
    let mut finish: Vec<u64> = vec![0; n];
    let mut critical_path = 0u64;

    // Minimum I-cache accesses: the pipeline accesses once per fetched
    // line *transition*, and only ever re-accesses (never skips) a line
    // after redirects — so counting transitions bounds it from below.
    let mut icache_lo = 0u64;
    let mut last_line = u64::MAX;
    let line_bytes = cons.l1_line_bytes as u64;

    for (i, ins) in trace.iter().enumerate() {
        // A source naming a position before the trace start has no
        // producer and is no operand (the pipeline drops it the same way).
        let operand = |d: u32| (d > 0 && d as usize <= i) as u64;
        counts.rf_reads += operand(ins.src1) + operand(ins.src2);
        counts.rf_writes += ins.kind.has_dest() as u64;
        counts.mem_ops += ins.kind.is_mem() as u64;
        counts.branches += (ins.kind == InstrKind::Branch) as u64;
        counts.fu_ops[ins.kind.fu_class()] += 1;

        let dep = |d: u32| {
            if d == 0 || (d as usize) > i {
                0
            } else {
                finish[i - d as usize]
            }
        };
        let start = dep(ins.src1).max(dep(ins.src2));
        finish[i] = start + min_latency(ins.kind, cons, l1d_lat);
        critical_path = critical_path.max(finish[i]);

        let line = ins.pc as u64 / line_bytes;
        if line != last_line {
            icache_lo += 1;
            last_line = line;
        }
    }

    // Lower bound: bandwidth (`width` commits per cycle) or the dataflow
    // critical path, whichever binds.
    let bandwidth = (n as u64).div_ceil(cfg.width as u64);
    let cycles_lo = bandwidth.max(critical_path);

    // Upper bound: fully serialised execution with every access taking its
    // worst-case path. Per instruction: an I-cache miss serviced by DRAM
    // (L2 latency + L2 occupancy + memory latency + bus occupancy), the
    // front-end depth, the worst execute latency (for memory operations an
    // L1 miss + L2 miss to DRAM), one commit cycle — and for branches a
    // full refill after resolution. No schedule the pipeline produces is
    // slower than this instruction-at-a-time machine.
    let worst_fetch = l2_lat + 2 + mem.latency as u64 + mem.occupancy as u64;
    let worst_mem = l1d_lat + worst_fetch;
    let frontend = cons.frontend_depth as u64;
    let mut cycles_hi = 64u64; // fill/drain allowance
    for &kind in trace.kinds() {
        let exec = match kind {
            InstrKind::Load | InstrKind::Store => worst_mem,
            k => min_latency(k, cons, l1d_lat),
        };
        cycles_hi += worst_fetch + frontend + exec + 1;
        if kind == InstrKind::Branch {
            cycles_hi += frontend; // mispredict refill
        }
    }

    // Energy bounds: price the exact counts plus the extreme values of
    // every timing-dependent count. All per-event energies are
    // non-negative, so the total is monotone in each count.
    let model = EnergyModel::new(cfg, cons);
    let base = EnergyCounters {
        fetched: counts.instructions,
        renamed: counts.instructions,
        iq_inserts: counts.instructions,
        iq_wakeups: counts.instructions,
        rob_reads: counts.instructions,
        rob_writes: counts.instructions + counts.rf_writes,
        rf_reads: counts.rf_reads,
        rf_writes: counts.rf_writes,
        dcache_accesses: counts.mem_ops,
        lsq_searches: counts.mem_ops,
        bpred_accesses: counts.branches,
        btb_accesses: counts.branches,
        fu_ops: counts.fu_ops,
        icache_accesses: 0,
        l2_accesses: 0,
        memory_accesses: 0,
        cycles: 0,
    };
    let lo = EnergyCounters {
        icache_accesses: icache_lo,
        cycles: cycles_lo,
        ..base
    };
    // Worst case: every instruction is its own fetch line, every L1 access
    // (I and D) misses into the L2, and every L2 access misses to memory.
    let l2_hi = counts.instructions + counts.mem_ops;
    let hi = EnergyCounters {
        icache_accesses: counts.instructions,
        l2_accesses: l2_hi,
        memory_accesses: l2_hi,
        cycles: cycles_hi,
        ..base
    };

    OracleReport {
        counts,
        cycles_lo,
        cycles_hi,
        energy_lo_nj: lo.total_nj(&model),
        energy_hi_nj: hi.total_nj(&model),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dse_workload::{Instr, Profile, Suite, TraceGenerator};

    fn demo_trace(len: usize, seed: u64) -> Trace {
        let p = Profile::template("oracle", Suite::SpecCpu2000, seed);
        TraceGenerator::new(&p).generate(len)
    }

    #[test]
    fn bounds_are_ordered_and_positive() {
        let t = demo_trace(3_000, 1);
        let r = analyze(&Config::baseline(), &ConstantParams::standard(), &t);
        assert!(r.cycles_lo >= 1);
        assert!(r.cycles_lo < r.cycles_hi);
        assert!(r.energy_lo_nj > 0.0);
        assert!(r.energy_lo_nj < r.energy_hi_nj);
    }

    #[test]
    fn counts_partition_the_trace() {
        let t = demo_trace(5_000, 2);
        let r = analyze(&Config::baseline(), &ConstantParams::standard(), &t);
        assert_eq!(r.counts.instructions, 5_000);
        assert_eq!(r.counts.fu_ops.iter().sum::<u64>(), 5_000);
        assert!(r.counts.branches > 0 && r.counts.mem_ops > 0);
    }

    #[test]
    fn serial_chain_drives_the_lower_bound() {
        // A 100-long chain of dependent ALU ops has a critical path of
        // 100 × 1 cycle, far above the bandwidth bound of 100/4.
        let instrs: Vec<Instr> = (0..100)
            .map(|i| Instr {
                kind: InstrKind::IntAlu,
                src1: if i == 0 { 0 } else { 1 },
                src2: 0,
                pc: 0x40_0000 + i * 4,
                addr: 0,
                taken: false,
                target: 0,
            })
            .collect();
        let t = Trace::new("chain", instrs);
        let r = analyze(&Config::baseline(), &ConstantParams::standard(), &t);
        assert_eq!(r.cycles_lo, 100);
    }

    #[test]
    fn independent_ops_are_bandwidth_bound() {
        let instrs: Vec<Instr> = (0..100)
            .map(|i| Instr {
                kind: InstrKind::IntAlu,
                src1: 0,
                src2: 0,
                pc: 0x40_0000 + i * 4,
                addr: 0,
                taken: false,
                target: 0,
            })
            .collect();
        let t = Trace::new("par", instrs);
        let cfg = Config {
            width: 8,
            rf_read: 16,
            rf_write: 8,
            ..Config::baseline()
        };
        let r = analyze(&cfg, &ConstantParams::standard(), &t);
        // 100 independent 1-cycle ops on an 8-wide machine: ⌈100/8⌉ = 13,
        // but the critical path (1 cycle) never binds.
        assert_eq!(r.cycles_lo, 13);
    }
}
