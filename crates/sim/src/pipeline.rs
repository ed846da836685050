//! Cycle-level out-of-order superscalar pipeline.
//!
//! Trace-driven: the simulator executes the committed (correct-path)
//! instruction stream and models wrong-path work as front-end bubbles —
//! a mispredicted branch blocks fetch until it resolves and then pays the
//! front-end refill depth, the standard trace-driven approximation used by
//! SimpleScalar's `sim-outorder` in trace mode.
//!
//! Modelled resources, each tied to a design-space parameter:
//!
//! * fetch of `width` instructions per cycle, stopping at taken branches,
//!   I-cache misses and the in-flight branch limit;
//! * rename/dispatch gated by ROB, IQ, LSQ and physical-register
//!   availability (32 architectural registers are reserved out of `rf`);
//! * oldest-first issue gated by operand readiness, issue width,
//!   functional units (width-scaled per Table 2b, divides non-pipelined),
//!   register-file read ports, and cache ports for memory operations;
//! * writeback gated by register-file write ports;
//! * in-order commit of `width` instructions per cycle;
//! * a two-level cache hierarchy with latencies from the Cacti-like model
//!   and bandwidth-limited L2/memory (overlapping misses serialise).
//!
//! # Hot-loop memory layout
//!
//! The steady-state cycle loop performs **zero heap allocation**; every
//! structure is a fixed-capacity buffer sized from the [`Config`] at
//! construction:
//!
//! * the trace is borrowed as structure-of-arrays columns (shared by all
//!   sweep simulations of a benchmark), including a precomputed decode
//!   byte per instruction ([`dse_workload::meta`]);
//! * the ROB and fetch queue hold *consecutive* trace positions by
//!   construction (fetch, dispatch and commit are all in program order),
//!   so both are plain counters: ROB = `[committed, dispatched)`,
//!   fetch queue = `[dispatched, next_fetch)`;
//! * per-position scheduler state lives in one power-of-two ring of
//!   [`Slot`]s indexed by trace position and sized to cover the
//!   in-flight window; positions below the commit watermark are complete
//!   by definition;
//! * operand wakeup is pushed, never probed: dispatch links each entry
//!   onto the intrusive dependant list of every unissued producer, an
//!   issuing producer pushes its exact completion cycle to its
//!   dependants, and an entry whose last producer has issued waits on
//!   the wakeup wheel (slot `t & (WAKE_WHEEL-1)`: tag `t` + list head)
//!   until its operand-ready cycle;
//! * the issue queue is a ready bitmap over ring slots, walked
//!   oldest-first from the commit slot, so selection touches only
//!   entries that can issue.
//!
//! The cycle loop also fast-forwards over provably idle cycles
//! ([`Pipeline::idle_skip`]): with the ready set empty, issue can act
//! only on a wheel event. Skipping moves only *when* work is examined,
//! never what it computes, so metrics are bit-identical to stepping
//! every cycle (pinned by `tests/golden_sim.rs`).

use crate::batch::PlanLane;
use crate::branch::{Btb, Gshare};
use crate::cache::{Cache, CacheOutcome};
use crate::check::{self, Bounds, CheckError, InvariantChecker, Occupancy};
use crate::energy::{EnergyCounters, EnergyModel};
use crate::obs::{CycleObs, NoObs, SimObs};
use crate::timing::{MemorySpec, SramSpec};
use dse_space::{Config, ConstantParams};
use dse_workload::{meta, InstrKind, Trace};
/// Architectural registers reserved out of the physical register file.
const ARCH_REGS: u32 = 32;
/// Fetch-queue capacity in multiples of the width.
const FETCH_QUEUE_WIDTHS: usize = 4;
/// Size of the writeback-port reservation ring. Must exceed the span of
/// *live* (still-future) reservations: every reservation lies within
/// `(cycle, cycle + max completion latency]`, where the worst case is a
/// memory access behind an LSQ-bounded L2 bandwidth queue — a few
/// thousand cycles, comfortably below this. Stale (past) slot values can
/// never equal a future probe cycle, so they need no clearing. Kept small
/// on purpose: the ring is probed at random offsets per issued result,
/// and at 8 Ki entries it stays resident in the host cache.
const WB_RING: usize = 1 << 13;
/// Size of the wakeup wheel. It need not cover the worst-case
/// operand-ready horizon: each slot stores its exact target cycle, so
/// beyond-horizon wakeups spill to `wheel_overflow` and migrate in
/// lazily. 4 Ki slots of (tag, list head) are 64 KiB, zero-initialised
/// and host-cache resident.
const WAKE_WHEEL: usize = 1 << 12;
/// Largest per-class functional-unit pool (`int_alu` = width ≤ 8).
const MAX_FU: usize = 8;
/// Upper bound on one idle fast-forward step ([`Pipeline::idle_skip`]):
/// small enough that lazily-migrated beyond-horizon wakeups are never
/// overrun and a fruitless wheel scan stays cheap, large enough to clear
/// any realistic memory-stall gap in one step (longer stalls take a few
/// steps — skipped cycles mutate nothing, so the split is invisible).
/// Must not exceed [`WAKE_WHEEL`]: one idle scan then never wraps the
/// wheel, which is what lets it clear summary bits for slots it proves
/// empty.
const MAX_IDLE_SKIP: u64 = 4096;
const _: () = assert!(MAX_IDLE_SKIP as usize <= WAKE_WHEEL);

/// Scheduler state of one in-flight trace position (one ring slot);
/// all-zero is the empty state. List links are node ids, `0` = end of
/// list: a dependant-list node is `(slot << 1 | operand) + 1`, so an
/// entry can sit on two producers' lists; a wakeup-list node is
/// `slot + 1`, linked through `next[0]` — an entry is woken only after
/// every dependant list holding it has been drained.
#[derive(Debug, Clone, Copy, Default)]
struct Slot {
    /// Completion cycle; `u64::MAX` from fetch until issue.
    complete: u64,
    /// Latest completion among the producers issued so far.
    ready: u64,
    /// Head of the list of dependants waiting for this one to issue.
    deps: u32,
    /// Per-operand dependant-list links (`next[0]` doubles as the
    /// wakeup-list link).
    next: [u32; 2],
    /// Producers not yet issued (0–2).
    waiting: u8,
    /// Register source operands, i.e. read ports needed at issue (0–2).
    nsrc: u8,
}

/// Options controlling a simulation run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SimOptions {
    /// Instructions at the head of the trace used to warm caches and
    /// predictors; they are simulated but excluded from the reported
    /// metrics (the paper warms for 10 M instructions before each
    /// SimPoint interval).
    pub warmup: usize,
    /// Force the invariant sanitizer on for this run, regardless of build
    /// type. When `false` the process-wide default applies
    /// ([`check::sanitize_default`]: `ARCHDSE_SANITIZE=1`/`=0` override,
    /// otherwise on in debug builds and off in release builds).
    pub sanitize: bool,
}

impl SimOptions {
    /// Options with the given warm-up and the default sanitizer policy.
    pub const fn with_warmup(warmup: usize) -> Self {
        Self {
            warmup,
            sanitize: false,
        }
    }
}

impl Default for SimOptions {
    fn default() -> Self {
        Self::with_warmup(5_000)
    }
}

/// Raw outcome of simulating a trace on a configuration (measured portion
/// only, i.e. after warm-up).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimResult {
    /// Measured (post-warm-up) instructions.
    pub instructions: u64,
    /// Cycles taken by the measured instructions.
    pub cycles: u64,
    /// Energy in nanojoules consumed by the measured instructions.
    pub energy_nj: f64,
    /// Instructions per cycle.
    pub ipc: f64,
    /// L1 I-cache miss rate over the measured portion.
    pub l1i_miss_rate: f64,
    /// L1 D-cache miss rate.
    pub l1d_miss_rate: f64,
    /// L2 miss rate (of L2 accesses).
    pub l2_miss_rate: f64,
    /// Branch direction misprediction rate.
    pub bpred_miss_rate: f64,
}

/// A [`SimResult`] together with the measured event counters and the
/// energy model that priced them — everything a differential test needs to
/// reconcile the run against an independent reference.
#[derive(Debug, Clone)]
pub struct RunRecord {
    /// The measured-phase result.
    pub result: SimResult,
    /// Event counters for the measured (post-warm-up) portion.
    pub counters: EnergyCounters,
    /// The per-event energy model used to price the counters.
    pub model: EnergyModel,
}

#[derive(Debug, Clone, Copy)]
struct MissRateSnapshot {
    l1i: (u64, u64),
    l1d: (u64, u64),
    l2: (u64, u64),
    bp: (u64, u64),
}

/// A co-runner's L1-filtered L2 address stream, injected one access per
/// own L2 access (round-robin arbitration with wrap-around) to model a
/// second program sharing this lane's L2. Intruder accesses pollute the
/// shared L2 contents and occupy L2/memory slots, but are tracked
/// separately so the lane's own counters, miss rates, and energy stay
/// own-only (see [`Pipeline::set_intruder`]).
#[derive(Debug)]
struct IntruderLane {
    addrs: Vec<u64>,
    pos: usize,
    accesses: u64,
    misses: u64,
}

/// Source of front-end outcomes: I-cache hit/miss, branch direction, and
/// BTB target correctness.
///
/// Both variants produce bit-identical outcome *sequences*, because the
/// front end is timing-independent: branches are predicted in program
/// order no matter when fetch reaches them (stalls replay the same
/// position without re-accessing), and fetch touches the I-cache exactly
/// when the line changes, with the line register reset only after a
/// correctly-predicted taken branch — a deterministic automaton over the
/// trace and the flow-correct bits. `Live` owns the structures and
/// computes outcomes as it goes (the scalar path); `Planned` replays
/// per-geometry outcome bitsets precomputed once per batch by
/// [`crate::batch::FrontendPlans`], so B lockstep lanes pay for each
/// distinct predictor/BTB/I-cache geometry once instead of B times.
/// Equality of the two paths is pinned by `tests/golden_sim.rs` and
/// `tests/batch_sim.rs`.
#[derive(Debug)]
enum Frontend<'p> {
    Live {
        icache: Cache,
        gshare: Gshare,
        btb: Btb,
    },
    Planned(PlanLane<'p>),
}

impl Frontend<'_> {
    /// One I-cache access for the line holding `pc`.
    #[inline]
    fn icache_access(&mut self, pc: u64) -> CacheOutcome {
        match self {
            Frontend::Live { icache, .. } => icache.access(pc),
            Frontend::Planned(lane) => lane.next_icache(),
        }
    }

    /// Predict + train on the branch at `pc`; returns whether the fetch
    /// flow was correct (direction right, and for taken branches the BTB
    /// also supplied the right target).
    #[inline]
    fn branch_access(&mut self, pc: u64, taken: bool, target: u32) -> bool {
        match self {
            Frontend::Live { gshare, btb, .. } => {
                let pred_taken = gshare.predict(pc);
                let btb_target = btb.lookup(pc);
                // A taken prediction is only useful with a correct target.
                let correct = if taken {
                    pred_taken && btb_target == Some(target)
                } else {
                    !pred_taken
                };
                gshare.update(pc, taken);
                if taken {
                    btb.update(pc, target);
                }
                correct
            }
            Frontend::Planned(lane) => lane.next_branch(taken),
        }
    }

    /// (predictions, direction mispredictions) so far.
    fn bpred_stats(&self) -> (u64, u64) {
        match self {
            Frontend::Live { gshare, .. } => (gshare.predictions(), gshare.mispredictions()),
            Frontend::Planned(lane) => lane.bpred_stats(),
        }
    }

    /// (accesses, misses) of the I-cache so far.
    fn icache_stats(&self) -> (u64, u64) {
        match self {
            Frontend::Live { icache, .. } => (icache.accesses(), icache.misses()),
            Frontend::Planned(lane) => lane.icache_stats(),
        }
    }

    /// End-of-run structure checks. A planned lane validates the shared
    /// plan structures and that it consumed the plan exactly — the
    /// sanitizer stays fully armed per lane under batching.
    fn check_invariants(&self) -> Result<(), CheckError> {
        match self {
            Frontend::Live {
                icache,
                gshare,
                btb,
            } => {
                icache.check_invariants("l1i")?;
                gshare.check_invariants()?;
                btb.check_invariants()
            }
            Frontend::Planned(lane) => lane.check_final(),
        }
    }
}

/// The machine state for one run. Construct via [`Pipeline::new`] and call
/// [`Pipeline::run`].
#[derive(Debug)]
pub struct Pipeline<'t> {
    cfg: Config,
    cons: ConstantParams,
    options: SimOptions,

    // Borrowed structure-of-arrays trace columns.
    kinds: &'t [InstrKind],
    src1: &'t [u32],
    src2: &'t [u32],
    pcs: &'t [u32],
    addrs: &'t [u64],
    takens: &'t [bool],
    targets: &'t [u32],
    metas: &'t [u8],

    /// Front-end outcome source: live structures (scalar path) or a
    /// precomputed per-batch plan replay (lockstep path). The D-cache and
    /// L2 stay live per lane — their access order is issue order, which is
    /// timing- (hence config-) dependent.
    frontend: Frontend<'t>,
    dcache: Cache,
    l2: Cache,
    energy_model: EnergyModel,
    counters: EnergyCounters,

    l1d_lat: u64,
    l2_lat: u64,
    mem: MemorySpec,
    /// `log2(l1_line_bytes)`: fetch derives the I-cache line by shift.
    l1_line_shift: u32,

    cycle: u64,
    /// Scheduler state per in-flight trace position, a power-of-two ring
    /// indexed by `idx & cmask`. Positions below `committed` are complete
    /// by definition (commit requires completion), so the window
    /// `[committed, next_fetch)` — which the ring is sized to cover — is
    /// the only range ever consulted.
    slots: Box<[Slot]>,
    cmask: usize,

    /// In-order stage cursors over trace positions. The ROB is
    /// `[committed, dispatched)` and the fetch queue `[dispatched,
    /// next_fetch)`; both hold consecutive positions by construction, so
    /// the counters replace the queues outright.
    committed: usize,
    dispatched: usize,
    next_fetch: usize,

    /// Issue-queue entries whose operands are ready, one bit per ring
    /// slot; all lie in `[committed, dispatched)`, so a circular walk
    /// from the commit slot visits them oldest first.
    ready_bits: Box<[u64]>,
    /// Set bits in `ready_bits`.
    ready_len: u32,
    /// Live issue-queue entries (dispatched, not yet issued).
    iq_len: usize,
    lsq_occ: u32,
    phys_used: u32,
    rename_regs: u32,

    fetch_stall_until: u64,
    fetch_blocked_on: Option<usize>,
    last_fetch_line: u64,
    /// In-flight (unresolved) branch positions; fixed capacity
    /// `cfg.max_branches`.
    unresolved: Box<[u32]>,
    unresolved_len: usize,

    /// Per-FU-class `busy_until` times: int ALU, int mul/div, FP ALU,
    /// FP mul/div. Fixed arrays; `fu_len` holds the pool sizes.
    fu_busy: [[u64; MAX_FU]; 4],
    fu_len: [u8; 4],

    /// Writeback-port reservations, a ring indexed by cycle: a slot is
    /// live while `wb_tag` holds its cycle (0 = free: reservations are
    /// strictly positive cycles), with `wb_used` ports taken. Zeroed
    /// arrays keep construction on the allocator's zero-page fast path.
    wb_tag: Box<[u64]>,
    /// Ports taken per live `wb_tag` slot; `rf_write <= width <= 8` fits
    /// a byte, keeping the ring's random probes to a quarter the lines.
    wb_used: Box<[u8]>,

    l2_free_at: u64,
    mem_free_at: u64,

    /// When `Some`, every L2-reaching address (the L1-filtered stream)
    /// is recorded in issue order — the co-run driver's capture pass.
    /// `None` (the default) leaves the hot path untouched.
    l2_capture: Option<Vec<u64>>,
    /// When `Some`, a co-runner's address stream is interleaved into the
    /// L2 round-robin (one intruder access per own access). `None` (the
    /// default) is bit-identical to a solo run.
    intruder: Option<IntruderLane>,
    /// True when either `l2_capture` or `intruder` is armed; the one
    /// flag the solo L2 hot path checks before taking the hooked route.
    corun_hooks: bool,

    /// Stage-timing scratch: ticks spent in writeback-port reservation
    /// this cycle. Written only under `SimObs::STAGE_TIMING` (the issue
    /// stage accumulates, `step_until` drains); dead otherwise.
    wb_ticks: u64,

    /// Wakeup wheel: slot `t & (WAKE_WHEEL-1)` holds `[t, head]` while
    /// entries are due to become ready at cycle `t`, with `head` the
    /// first wakeup-list node. Stale tags are simply never equal to the
    /// probing cycle, so no clearing pass is needed.
    wheel: Box<[[u64; 2]]>,
    /// One bit per wheel slot, set when the slot *may* hold a live future
    /// wakeup (a pure cache over `wheel`: bits go stale when a tag is
    /// overwritten or expires, and are lazily cleared by the idle scan).
    /// Lets [`Pipeline::idle_skip`] sweep 64 slots per word read.
    wheel_bits: Box<[u64]>,
    /// `(cycle, slot)` wakeups scheduled beyond the wheel horizon (rare:
    /// a producer behind a deep memory backlog), migrated in lazily.
    wheel_overflow: Vec<(u64, u32)>,
    /// Scan frontier for [`Pipeline::idle_skip`]: no wheel slot holds a
    /// value `v` with `cycle < v < wake_floor`. Lowered whenever a wake is
    /// scheduled below it, raised as idle scans prove ranges empty — so
    /// consecutive skips never re-read slots already known to be clear.
    wake_floor: u64,

    /// Invariant sanitizer; `None` when disabled, so the per-hook cost of
    /// a non-sanitized run is one skipped `Option` branch.
    checker: Option<InvariantChecker>,
    /// First invariant violation raised from a hook that cannot return a
    /// `Result` directly; drained once per cycle by the run loop.
    check_fail: Option<CheckError>,

    // Resumable-run state ([`Pipeline::step_until`] suspends and resumes
    // mid-run, so what were locals of the run loop live here).
    /// Counter snapshot at the end of warm-up (`None` until taken).
    warm_counters: Option<EnergyCounters>,
    /// Cycle at which the warm-up snapshot was taken.
    warm_cycle: u64,
    /// Cache/predictor statistics at the end of warm-up.
    warm_rates: Option<MissRateSnapshot>,
    /// Last cycle that committed anything (deadlock watchdog).
    last_commit_cycle: u64,
}

impl<'t> Pipeline<'t> {
    /// Builds a pipeline for `trace` under `cfg` with live front-end
    /// structures (the scalar path).
    ///
    /// # Panics
    ///
    /// Panics if the trace is empty or shorter than the warm-up, or the
    /// configuration is illegal.
    pub fn new(cfg: &Config, cons: &ConstantParams, trace: &'t Trace, options: SimOptions) -> Self {
        let frontend = Frontend::Live {
            icache: Cache::new(
                cfg.icache_kb as u64 * 1024,
                cons.l1_line_bytes,
                cons.l1i_assoc,
            ),
            gshare: Gshare::new(cfg.bpred_k as u64 * 1024),
            btb: Btb::new(cfg.btb_k as u64 * 1024),
        };
        Self::with_frontend(cfg, cons, trace, options, frontend)
    }

    /// Builds a lockstep-batch lane replaying a precomputed front-end
    /// plan. The plan must have been built for this exact (trace, config)
    /// pair; `lane.check_final()` re-validates consumption at the end of
    /// the run when the sanitizer is armed.
    pub(crate) fn new_planned(
        cfg: &Config,
        cons: &ConstantParams,
        trace: &'t Trace,
        options: SimOptions,
        lane: PlanLane<'t>,
    ) -> Self {
        Self::with_frontend(cfg, cons, trace, options, Frontend::Planned(lane))
    }

    fn with_frontend(
        cfg: &Config,
        cons: &ConstantParams,
        trace: &'t Trace,
        options: SimOptions,
        frontend: Frontend<'t>,
    ) -> Self {
        assert!(cfg.is_legal(), "configuration fails the legality filter");
        assert!(!trace.is_empty(), "trace must not be empty");
        assert!(
            trace.len() > options.warmup,
            "trace ({}) must be longer than the warm-up ({})",
            trace.len(),
            options.warmup
        );
        assert!(trace.len() < u32::MAX as usize, "trace positions fit u32");
        let fu_cfg = cfg.functional_units();
        let fu_len = [
            fu_cfg.int_alu as u8,
            fu_cfg.int_mul as u8,
            fu_cfg.fp_alu as u8,
            fu_cfg.fp_mul as u8,
        ];
        assert!(
            fu_len.iter().all(|&c| c as usize <= MAX_FU),
            "functional-unit pool exceeds MAX_FU"
        );
        assert!(
            cons.l1_line_bytes.is_power_of_two(),
            "l1 line bytes must be a power of two"
        );
        let l1d_spec = SramSpec::ram(cfg.dcache_kb as u64 * 1024);
        let l2_spec = SramSpec::ram(cfg.l2_kb as u64 * 1024);
        let sanitize = options.sanitize || check::sanitize_default();
        // Validate the derived timing/energy specs up front; a failure is
        // reported from the first simulated cycle.
        let check_fail = if sanitize {
            [
                ("l1d", l1d_spec.validate()),
                ("l2", l2_spec.validate()),
                ("memory", MemorySpec::standard().validate()),
            ]
            .into_iter()
            .find_map(|(name, r)| {
                r.err()
                    .map(|m| CheckError::new(0, "timing-spec", format!("{name}: {m}")))
            })
        } else {
            None
        };
        let fetch_cap = FETCH_QUEUE_WIDTHS * cfg.width as usize;
        // The completion ring must cover every position in
        // `[committed, next_fetch)` plus slack for same-cycle transitions.
        let window = cfg.rob as usize + fetch_cap + 2 * cfg.width as usize;
        let csize = window.next_power_of_two();
        Self {
            cfg: *cfg,
            cons: *cons,
            options,
            kinds: trace.kinds(),
            src1: trace.src1s(),
            src2: trace.src2s(),
            pcs: trace.pcs(),
            addrs: trace.addrs(),
            takens: trace.takens(),
            targets: trace.targets(),
            metas: trace.metas(),
            frontend,
            dcache: Cache::new(
                cfg.dcache_kb as u64 * 1024,
                cons.l1_line_bytes,
                cons.l1d_assoc,
            ),
            l2: Cache::new(cfg.l2_kb as u64 * 1024, cons.l2_line_bytes, cons.l2_assoc),
            energy_model: EnergyModel::new(cfg, cons),
            counters: EnergyCounters::default(),
            l1d_lat: l1d_spec.latency_cycles() as u64,
            l2_lat: l2_spec.latency_cycles() as u64,
            mem: MemorySpec::standard(),
            l1_line_shift: cons.l1_line_bytes.trailing_zeros(),
            cycle: 0,
            slots: vec![Slot::default(); csize].into_boxed_slice(),
            cmask: csize - 1,
            committed: 0,
            dispatched: 0,
            next_fetch: 0,
            ready_bits: vec![0; csize.div_ceil(64)].into_boxed_slice(),
            ready_len: 0,
            iq_len: 0,
            lsq_occ: 0,
            phys_used: 0,
            rename_regs: cfg.rf.saturating_sub(ARCH_REGS).max(4),
            fetch_stall_until: 0,
            fetch_blocked_on: None,
            last_fetch_line: u64::MAX,
            unresolved: vec![0; cfg.max_branches as usize].into_boxed_slice(),
            unresolved_len: 0,
            fu_busy: [[0; MAX_FU]; 4],
            fu_len,
            wb_tag: vec![0; WB_RING].into_boxed_slice(),
            wb_used: vec![0; WB_RING].into_boxed_slice(),
            l2_free_at: 0,
            mem_free_at: 0,
            l2_capture: None,
            intruder: None,
            corun_hooks: false,
            wb_ticks: 0,
            wheel: vec![[0; 2]; WAKE_WHEEL].into_boxed_slice(),
            wheel_bits: vec![0; WAKE_WHEEL / 64].into_boxed_slice(),
            wake_floor: 1,
            wheel_overflow: Vec::with_capacity(16),
            checker: sanitize.then(InvariantChecker::new),
            check_fail,
            warm_counters: None,
            warm_cycle: 0,
            warm_rates: None,
            last_commit_cycle: 0,
        }
    }

    /// Capacity bounds the occupancy checks enforce.
    fn bounds(&self) -> Bounds {
        Bounds {
            rob: self.cfg.rob as usize,
            iq: self.cfg.iq as usize,
            lsq: self.cfg.lsq,
            phys: self.rename_regs,
            fetch_q: FETCH_QUEUE_WIDTHS * self.cfg.width as usize,
            branches: self.cfg.max_branches as usize,
        }
    }

    /// Current occupancy snapshot for the sanitizer.
    fn occupancy(&self) -> Occupancy {
        Occupancy {
            rob: self.dispatched - self.committed,
            iq: self.iq_len,
            lsq: self.lsq_occ,
            phys: self.phys_used,
            fetch_q: self.next_fetch - self.dispatched,
            branches: self.unresolved_len,
            fetched: self.next_fetch,
            committed: self.committed,
        }
    }

    /// Completion cycle of in-flight position `idx` (ring lookup).
    #[inline]
    fn completion(&self, idx: usize) -> u64 {
        self.slots[idx & self.cmask].complete
    }

    /// Producer distances of `idx`'s register operands, with a source
    /// that names a position before the trace start dropped: it has no
    /// producer in the trace, so — as in the reference oracle — it is no
    /// operand at all.
    #[inline]
    fn operands(&self, idx: usize) -> [u32; 2] {
        [self.src1[idx], self.src2[idx]].map(|d| if d as usize > idx { 0 } else { d })
    }

    /// Puts the entry in ring slot `s` into the ready set.
    #[inline]
    fn set_ready(&mut self, s: usize) {
        self.ready_bits[s >> 6] |= 1 << (s & 63);
        self.ready_len += 1;
    }

    /// Makes the entry in ring slot `s`, whose producers have all issued,
    /// ready at cycle `t`: now if `t` has passed, otherwise by a wakeup —
    /// on the wheel (tag + list + summary bit + floor; a tag other than
    /// `t` is stale, its list drained when its cycle passed) or, beyond
    /// the wheel's horizon, in `wheel_overflow`.
    #[inline]
    fn wake_at(&mut self, t: u64, s: usize) {
        if t <= self.cycle {
            self.set_ready(s);
        } else if t - self.cycle < WAKE_WHEEL as u64 {
            let w = (t as usize) & (WAKE_WHEEL - 1);
            let [tag, head] = self.wheel[w];
            self.slots[s].next[0] = if tag == t { head as u32 } else { 0 };
            self.wheel[w] = [t, s as u64 + 1];
            self.wheel_bits[w >> 6] |= 1 << (w & 63);
            self.wake_floor = self.wake_floor.min(t);
        } else {
            self.wheel_overflow.push((t, s as u32));
        }
    }

    /// Runs the trace to completion and returns the measured-phase result.
    ///
    /// # Panics
    ///
    /// Panics if the machine stops making progress (a simulator bug, not a
    /// reachable state for legal configurations), or — when the sanitizer
    /// is enabled — if an invariant is violated. Use [`Pipeline::try_run`]
    /// to handle violations as errors instead.
    pub fn run(self) -> SimResult {
        match self.try_run() {
            Ok(r) => r,
            Err(e) => panic!("{e}"),
        }
    }

    /// Runs the trace to completion, returning the first invariant
    /// violation as an error instead of panicking.
    ///
    /// # Panics
    ///
    /// Still panics on deadlock (no forward progress for 2 M cycles).
    pub fn try_run(self) -> Result<SimResult, CheckError> {
        self.try_run_full().map(|rec| rec.result)
    }

    /// Like [`Pipeline::try_run`], but additionally returns the measured
    /// event counters and the energy model so callers can reconcile the
    /// run against an independent reference (see [`crate::oracle`]).
    pub fn try_run_full(self) -> Result<RunRecord, CheckError> {
        self.try_run_full_obs(&mut NoObs)
    }

    /// Like [`Pipeline::try_run_full`], with an observer receiving
    /// per-cycle stage activity (see [`crate::obs`]).
    ///
    /// The hooks are gated on the monomorphised constant
    /// [`SimObs::ENABLED`]: with [`NoObs`] this compiles to exactly the
    /// un-instrumented loop, so results are bit-identical whether or not
    /// a run is observed (pinned by `tests/golden_sim.rs`).
    pub fn try_run_full_obs<O: SimObs>(mut self, obs: &mut O) -> Result<RunRecord, CheckError> {
        self.step_until(obs, usize::MAX)?;
        self.into_record()
    }

    /// Arms L2 stream capture: the run records every L2-reaching address
    /// (the L1-filtered stream, in issue order). Capture changes no
    /// timing or accounting — the run stays bit-identical to an unarmed
    /// one. Retrieve the stream with [`Pipeline::try_run_full_captured`].
    pub fn capture_l2_stream(&mut self) {
        self.l2_capture = Some(Vec::new());
        self.corun_hooks = true;
    }

    /// Injects `addrs` as a co-running intruder sharing this lane's L2:
    /// after each own L2 access, the next intruder address (round-robin
    /// over `addrs`, wrapping) takes an L2 slot — and, when it misses, a
    /// memory slot — so the own lane queues behind it, and the shared L2
    /// contents reflect both programs. Intruder events are accounted
    /// separately: the lane's counters, miss rates and energy remain
    /// own-only. An empty stream is ignored (no co-runner).
    pub fn set_intruder(&mut self, addrs: Vec<u64>) {
        if !addrs.is_empty() {
            self.intruder = Some(IntruderLane {
                addrs,
                pos: 0,
                accesses: 0,
                misses: 0,
            });
            self.corun_hooks = true;
        }
    }

    /// Like [`Pipeline::try_run_full`], additionally returning the L2
    /// address stream recorded by [`Pipeline::capture_l2_stream`]
    /// (empty if capture was never armed).
    pub fn try_run_full_captured(mut self) -> Result<(RunRecord, Vec<u64>), CheckError> {
        self.step_until(&mut NoObs, usize::MAX)?;
        let stream = self.l2_capture.take().unwrap_or_default();
        let record = self.into_record()?;
        Ok((record, stream))
    }

    /// Whether the whole trace has committed.
    pub(crate) fn finished(&self) -> bool {
        self.committed >= self.kinds.len()
    }

    /// Instructions committed so far (the lockstep driver's progress
    /// cursor).
    pub(crate) fn progress(&self) -> usize {
        self.committed
    }

    /// Advances the machine until at least `target` instructions have
    /// committed (or the trace ends). The loop body never reads `target`
    /// beyond the continuation condition, and all loop-carried state lives
    /// in fields, so chunked stepping is bit-identical to one
    /// uninterrupted run — the property the lockstep batch driver relies
    /// on (pinned by `tests/batch_sim.rs`).
    pub(crate) fn step_until<O: SimObs>(
        &mut self,
        obs: &mut O,
        target: usize,
    ) -> Result<(), CheckError> {
        let warmup = self.options.warmup;
        let n = self.kinds.len();
        let target = target.min(n);

        while self.committed < target {
            self.cycle += 1;
            self.counters.cycles += 1;

            // Stage-entry facts the observer needs but later stages
            // overwrite; `O::ENABLED` is a monomorphised constant, so the
            // whole block vanishes for the default `NoObs` run.
            let pre = if O::ENABLED {
                Some((
                    self.committed >= self.dispatched,
                    self.dispatched >= self.next_fetch,
                    self.counters,
                ))
            } else {
                None
            };

            // Stage brackets: one clock read per stage boundary, gated
            // on the monomorphised `STAGE_TIMING` constant so the
            // default (and stall-profiled) loops compile unchanged.
            let clock = || {
                if O::STAGE_TIMING {
                    crate::obs::stage_clock()
                } else {
                    0
                }
            };
            let t0 = clock();
            let committed_now = self.commit();
            let t1 = clock();
            if committed_now > 0 {
                self.last_commit_cycle = self.cycle;
            }
            assert!(
                self.cycle - self.last_commit_cycle < 2_000_000,
                "pipeline deadlock at cycle {} (committed {}/{}, cfg {})",
                self.cycle,
                self.committed,
                n,
                self.cfg
            );

            self.issue::<O>();
            let t2 = clock();
            self.dispatch();
            let t3 = clock();
            self.fetch();
            let t4 = clock();

            if O::ENABLED {
                let (rob_was_empty, fetch_q_was_empty, prev) =
                    pre.expect("pre-stage snapshot is taken whenever O::ENABLED");
                obs.on_cycle(&CycleObs {
                    committed: committed_now,
                    issued: (self.counters.iq_wakeups - prev.iq_wakeups) as u32,
                    dispatched: (self.counters.renamed - prev.renamed) as u32,
                    fetched: (self.counters.fetched - prev.fetched) as u32,
                    rob_was_empty,
                    fetch_q_was_empty,
                    fetch_blocked_mispredict: self.fetch_blocked_on.is_some(),
                    fetch_icache_stall: self.cycle < self.fetch_stall_until,
                    trace_exhausted: self.next_fetch >= n,
                    occ: self.occupancy(),
                    bounds: self.bounds(),
                });
            }

            if self.checker.is_some() {
                if let Some(e) = self.check_fail.take() {
                    return Err(e);
                }
                if let Some(chk) = self.checker.as_ref() {
                    chk.on_cycle(&self.occupancy(), &self.bounds(), self.cycle)?;
                }
            }

            if self.warm_counters.is_none() && self.committed >= warmup {
                self.warm_counters = Some(self.counters);
                self.warm_cycle = self.cycle;
                self.warm_rates = Some(self.rates_snapshot());
            }

            // Event-driven fast-forward: jump the clock over cycles in
            // which no stage can act. Skipped cycles mutate no state, so
            // results are bit-identical to stepping through them.
            let t5 = clock();
            if self.committed < n {
                let skip = self.idle_skip();
                if (O::ENABLED || O::STAGE_TIMING) && skip > 0 {
                    obs.on_idle(skip);
                }
                self.cycle += skip;
                self.counters.cycles += skip;
            }

            if O::STAGE_TIMING {
                let wb = std::mem::take(&mut self.wb_ticks);
                obs.on_stage_times(&crate::obs::StageTimes {
                    commit: t1.wrapping_sub(t0),
                    issue: t2.wrapping_sub(t1).saturating_sub(wb),
                    writeback: wb,
                    dispatch: t3.wrapping_sub(t2),
                    fetch: t4.wrapping_sub(t3),
                    idle_skip: clock().wrapping_sub(t5),
                });
            }
        }
        Ok(())
    }

    /// Final checks and measured-phase result assembly, after the trace
    /// has fully committed.
    pub(crate) fn into_record(mut self) -> Result<RunRecord, CheckError> {
        debug_assert!(self.finished());
        let warmup = self.options.warmup;
        let n = self.kinds.len();

        if let Some(chk) = self.checker.take() {
            self.final_checks(&chk)?;
        }

        let warm_counters = self.warm_counters.unwrap_or_default();
        let measured = self.counters.since(&warm_counters);
        let instructions = (n - warmup.min(n)) as u64;
        let cycles = self.cycle - self.warm_cycle;
        let energy_nj = measured.total_nj(&self.energy_model);
        let zero = MissRateSnapshot {
            l1i: (0, 0),
            l1d: (0, 0),
            l2: (0, 0),
            bp: (0, 0),
        };
        let w = self.warm_rates.unwrap_or(zero);
        let rate = |acc: u64, miss: u64, w_acc: u64, w_miss: u64| {
            let a = acc - w_acc;
            if a == 0 {
                0.0
            } else {
                (miss - w_miss) as f64 / a as f64
            }
        };
        let (ic_acc, ic_miss) = self.frontend.icache_stats();
        let (bp_pred, bp_miss) = self.frontend.bpred_stats();
        let result = SimResult {
            instructions,
            cycles,
            energy_nj,
            ipc: instructions as f64 / cycles.max(1) as f64,
            l1i_miss_rate: rate(ic_acc, ic_miss, w.l1i.0, w.l1i.1),
            l1d_miss_rate: rate(
                self.dcache.accesses(),
                self.dcache.misses(),
                w.l1d.0,
                w.l1d.1,
            ),
            l2_miss_rate: {
                let (own_acc, own_miss) = self.own_l2_stats();
                rate(own_acc, own_miss, w.l2.0, w.l2.1)
            },
            bpred_miss_rate: rate(bp_pred, bp_miss, w.bp.0, w.bp.1),
        };
        Ok(RunRecord {
            result,
            counters: measured,
            model: self.energy_model,
        })
    }

    /// End-of-run reconciliation: the pipeline's event counters, the
    /// caches'/predictor's own statistics, and the energy breakdown must
    /// all agree. Uses the *full-run* counters, before any warm-up
    /// subtraction, so the comparison is exact.
    fn final_checks(&self, chk: &InvariantChecker) -> Result<(), CheckError> {
        let n = self.kinds.len() as u64;
        chk.on_finish(self.kinds.len())?;
        let ready = self.ready_bits.iter().map(|w| w.count_ones()).sum::<u32>() + self.ready_len;
        let undrained = self.slots.iter().filter(|e| e.deps != 0).count();
        chk.on_scheduler_drained(self.iq_len, ready as usize, undrained)?;

        // Per-structure self-consistency (a planned front end validates
        // the shared plan structures plus exact plan consumption).
        self.frontend.check_invariants()?;
        self.dcache.check_invariants("l1d")?;
        self.l2.check_invariants("l2")?;

        // Pipeline event counters vs the structures' own statistics.
        let c = &self.counters;
        let (ic_acc, ic_miss) = self.frontend.icache_stats();
        let (bp_pred, _) = self.frontend.bpred_stats();
        check::reconcile("icache-accesses", c.icache_accesses, ic_acc)?;
        check::reconcile("dcache-accesses", c.dcache_accesses, self.dcache.accesses())?;
        // The L2 totals include any co-running intruder's accesses; the
        // lane's own counters must match the own share exactly.
        let (own_l2_acc, own_l2_miss) = self.own_l2_stats();
        check::reconcile("l2-accesses", c.l2_accesses, own_l2_acc)?;
        check::reconcile(
            "l1-misses-feed-l2",
            own_l2_acc,
            ic_miss + self.dcache.misses(),
        )?;
        check::reconcile("l2-misses-feed-memory", c.memory_accesses, own_l2_miss)?;
        check::reconcile("bpred-accesses", c.bpred_accesses, bp_pred)?;

        // Every trace instruction flows through each stage exactly once.
        check::reconcile("fetched-count", c.fetched, n)?;
        check::reconcile("renamed-count", c.renamed, n)?;
        check::reconcile("issued-count", c.iq_wakeups, n)?;
        check::reconcile("iq-insert-count", c.iq_inserts, n)?;
        check::reconcile("commit-count", c.rob_reads, n)?;
        check::reconcile("fu-op-count", c.fu_ops.iter().sum(), n)?;
        // ROB is written at dispatch and again at writeback of every
        // result-producing instruction.
        check::reconcile("rob-writes", c.rob_writes, c.renamed + c.rf_writes)?;

        // Energy: the per-structure breakdown must sum to the total and
        // every component must be finite and non-negative.
        check::check_energy(c, &self.energy_model)?;
        Ok(())
    }

    fn rates_snapshot(&self) -> MissRateSnapshot {
        MissRateSnapshot {
            l1i: self.frontend.icache_stats(),
            l1d: (self.dcache.accesses(), self.dcache.misses()),
            l2: self.own_l2_stats(),
            bp: self.frontend.bpred_stats(),
        }
    }

    /// Length of an exact idle fast-forward from the current end-of-cycle
    /// state: how many upcoming cycles provably pass with *no* stage able
    /// to act, so the run loop may advance the clock over them in one
    /// step. Returns 0 whenever any stage might act next cycle.
    ///
    /// The per-stage obligations are local:
    ///
    /// * issue acts only while the ready set is non-empty (which includes
    ///   every structural or width-limited retry) or on a wakeup-wheel
    ///   event, which is the only way an entry joins the ready set later;
    /// * commit acts only when the ROB head's completion cycle arrives —
    ///   known from the ring once the head has issued, and otherwise
    ///   behind an issue, hence behind a wheel event;
    /// * dispatch acts only when the fetch queue is non-empty and its head
    ///   clears the ROB/IQ/LSQ/register caps, all of which change only
    ///   via commit, issue or fetch;
    /// * fetch acts only when unblocked (an issued mispredict resolves at
    ///   its known completion, an unissued one behind an issue),
    ///   unstalled (`fetch_stall_until` is known), the queue has
    ///   room (dispatch-gated) and trace instructions remain. Deferring
    ///   its per-cycle resolved-branch retire is invisible: the retained
    ///   set at the landing cycle is the same either way, and no fetch
    ///   (hence no ring reuse) happens in between.
    ///
    /// Skipped cycles therefore mutate no state — every counter, cache,
    /// predictor and queue is bit-identical to stepping one by one; only
    /// the clock advances, by the same amount either way. (The method is
    /// `&mut self` solely to advance the `wake_floor` scan frontier, a
    /// pure cache over the wheel's contents.)
    fn idle_skip(&mut self) -> u64 {
        if self.ready_len > 0 {
            return 0;
        }
        // Dispatch must be unable to act on the current head.
        if self.dispatched < self.next_fetch {
            let m = self.metas[self.dispatched];
            let blocked = self.dispatched - self.committed >= self.cfg.rob as usize
                || self.iq_len >= self.cfg.iq as usize
                || (m & meta::IS_MEM != 0 && self.lsq_occ >= self.cfg.lsq)
                || (m & meta::HAS_DEST != 0 && self.phys_used >= self.rename_regs);
            if !blocked {
                return 0;
            }
        }
        // Fetch must be inert.
        let mut bound = self.cycle + MAX_IDLE_SKIP;
        if let Some(b) = self.fetch_blocked_on {
            let done = self.completion(b);
            if done <= self.cycle {
                return 0; // resolves on the next fetch call
            }
            // An issued mispredict resolves at its exact completion,
            // which is no wheel event, so bound the skip here. (Unissued:
            // it resolves only after a wake-driven issue.)
            if done != u64::MAX {
                bound = bound.min(done);
            }
        } else if self.cycle < self.fetch_stall_until {
            bound = bound.min(self.fetch_stall_until);
        } else if self.next_fetch < self.kinds.len()
            && self.next_fetch - self.dispatched < FETCH_QUEUE_WIDTHS * self.cfg.width as usize
        {
            // Fetch can act (conservatively includes branch-limit waits).
            return 0;
        }
        // The ROB head's completion bounds the skip; an unissued head
        // commits only after a wake-driven issue. A width-limited commit
        // can leave the head already complete (`done <= cycle`), in which
        // case commit acts next cycle and the skip collapses to zero.
        if self.committed < self.dispatched {
            let done = self.completion(self.committed);
            if done != u64::MAX {
                if done <= self.cycle {
                    return 0;
                }
                bound = bound.min(done);
            }
        }
        // Beyond-horizon wakeups migrate lazily in issue(); never skip
        // past one (the list is almost always empty).
        for &(t, _) in &self.wheel_overflow {
            bound = bound.min(t);
        }
        // The earliest scheduled wakeup bounds everything else: scan the
        // wheel across the candidate gap using the per-slot summary
        // bitmap — 64 slots per word read, so a long empty gap costs a
        // handful of loads — with the `wake_floor` frontier making it
        // incremental: slots a previous scan already proved empty are
        // never re-read. (The scan range is < MAX_IDLE_SKIP ≤
        // WAKE_WHEEL, and any tag in a scanned slot that differs from
        // the probe cycle is provably stale — an equal-slot *future*
        // cycle would have been beyond the wheel horizon at scheduling
        // time — so clearing its summary bit is safe.)
        let mut target = bound;
        let mut t = (self.cycle + 1).max(self.wake_floor);
        while t < target {
            let slot = (t as usize) & (WAKE_WHEEL - 1);
            let word = slot >> 6;
            let off = slot & 63;
            let rem = self.wheel_bits[word] >> off;
            if rem & 1 == 0 {
                t += if rem == 0 {
                    64 - off as u64
                } else {
                    rem.trailing_zeros() as u64
                };
                continue;
            }
            if self.wheel[slot][0] == t {
                target = t;
                break;
            }
            self.wheel_bits[word] &= !(1u64 << off);
            t += 1;
        }
        self.wake_floor = target;
        target - (self.cycle + 1)
    }

    // ------------------------------------------------------------------
    // Commit
    // ------------------------------------------------------------------
    fn commit(&mut self) -> u32 {
        let mut n = 0;
        while n < self.cfg.width {
            if self.committed >= self.dispatched {
                break; // ROB empty
            }
            let idx = self.committed;
            let done = self.completion(idx);
            if done > self.cycle {
                break;
            }
            if self.checker.is_some() {
                let cycle = self.cycle;
                if let Some(chk) = self.checker.as_mut() {
                    if let Err(e) = chk.on_commit(idx, done, cycle) {
                        self.check_fail.get_or_insert(e);
                    }
                }
            }
            let m = self.metas[idx];
            if m & meta::IS_MEM != 0 {
                self.lsq_occ -= 1;
            }
            if m & meta::HAS_DEST != 0 {
                self.phys_used -= 1;
            }
            self.counters.rob_reads += 1;
            self.committed += 1;
            n += 1;
        }
        n
    }

    // ------------------------------------------------------------------
    // Issue
    // ------------------------------------------------------------------
    fn issue<O: SimObs>(&mut self) {
        // Wakeups due this cycle join the ready set.
        let cycle = self.cycle;
        let w = (cycle as usize) & (WAKE_WHEEL - 1);
        if self.wheel[w][0] == cycle {
            let mut node = std::mem::take(&mut self.wheel[w][1]) as usize;
            while node != 0 {
                let s = node - 1;
                node = self.slots[s].next[0] as usize;
                self.set_ready(s);
            }
        }
        if !self.wheel_overflow.is_empty() {
            self.migrate_overflow();
        }
        if self.ready_len == 0 {
            return;
        }

        // Oldest-first selection: walk the ready bitmap circularly from
        // the commit slot (`words` is a power of two). Issuing only
        // clears bits — an issued producer's dependants become ready
        // strictly later — so one read per word suffices. Entries that
        // fail a port, unit or width check stay set and retry next cycle.
        let mut issued = 0u32;
        let mut reads_used = 0u32;
        let mut mem_ports_used = 0u32;
        let words = self.ready_bits.len();
        let start = self.committed & self.cmask;
        let (w0, b0) = (start >> 6, start & 63);
        'select: for k in 0..=words {
            let w = (w0 + k) & (words - 1);
            let mut bits = self.ready_bits[w];
            if k == 0 {
                bits &= u64::MAX << b0;
            } else if k == words {
                bits &= (1u64 << b0) - 1;
            }
            while bits != 0 {
                let s = (w << 6) | bits.trailing_zeros() as usize;
                bits &= bits - 1;
                let idx = self.committed + (s.wrapping_sub(start) & self.cmask);

                // Register-file read ports.
                let nsrc = self.slots[s].nsrc as u32;
                if reads_used + nsrc > self.cfg.rf_read {
                    continue;
                }

                // Cache ports for memory operations.
                let m = self.metas[idx];
                if m & meta::IS_MEM != 0 && mem_ports_used >= self.cons.mem_ports {
                    continue;
                }

                // Functional unit.
                let class = (m & meta::FU_MASK) as usize;
                let pool = self.fu_len[class] as usize;
                let Some(unit) = self.fu_busy[class][..pool].iter().position(|&b| b <= cycle)
                else {
                    continue;
                };

                // --- the instruction issues ---
                if self.checker.is_some() {
                    self.check_operands_ready(idx);
                }
                let (exec_done, unit_busy_until) = self.execute_latency(self.kinds[idx], idx);
                self.fu_busy[class][unit] = unit_busy_until;
                reads_used += nsrc;
                self.counters.rf_reads += nsrc as u64;
                self.counters.iq_wakeups += 1;
                self.counters.fu_ops[class] += 1;
                if m & meta::IS_MEM != 0 {
                    mem_ports_used += 1;
                    self.counters.lsq_searches += 1;
                }

                // Writeback port reservation for result-producing instructions.
                let done = if m & meta::HAS_DEST != 0 {
                    let slot = if O::STAGE_TIMING {
                        let w0 = crate::obs::stage_clock();
                        let slot = self.reserve_wb(exec_done);
                        self.wb_ticks += crate::obs::stage_clock().wrapping_sub(w0);
                        slot
                    } else {
                        self.reserve_wb(exec_done)
                    };
                    self.counters.rf_writes += 1;
                    self.counters.rob_writes += 1;
                    slot
                } else {
                    exec_done
                };
                self.ready_bits[w] &= !(1u64 << (s & 63));
                self.ready_len -= 1;
                self.iq_len -= 1;
                self.complete_at(s, done);
                issued += 1;
                if issued == self.cfg.width {
                    break 'select;
                }
            }
        }

        if let Some(chk) = self.checker.as_ref() {
            if let Err(e) = chk.on_issue(
                reads_used,
                self.cfg.rf_read,
                mem_ports_used,
                self.cons.mem_ports,
                self.cycle,
            ) {
                self.check_fail.get_or_insert(e);
            }
        }
    }

    /// Records the completion cycle of the instruction in ring slot `s`
    /// and pushes it to the instruction's dependants: each takes the
    /// later of its operand-ready cycles, and one whose last outstanding
    /// producer this was is woken at that cycle.
    #[inline]
    fn complete_at(&mut self, s: usize, done: u64) {
        self.slots[s].complete = done;
        let mut node = std::mem::take(&mut self.slots[s].deps) as usize;
        while node != 0 {
            let (c, op) = ((node - 1) >> 1, (node - 1) & 1);
            let e = &mut self.slots[c];
            node = e.next[op] as usize;
            e.ready = e.ready.max(done);
            e.waiting -= 1;
            if e.waiting == 0 {
                let t = e.ready;
                self.wake_at(t, c);
            }
        }
    }

    /// Moves beyond-horizon wakeups that have come within the wheel's
    /// horizon (or are due) onto the wheel (or into the ready set).
    #[cold]
    fn migrate_overflow(&mut self) {
        let cycle = self.cycle;
        let mut i = 0;
        while i < self.wheel_overflow.len() {
            let (t, s) = self.wheel_overflow[i];
            if t < cycle + WAKE_WHEEL as u64 {
                self.wheel_overflow.swap_remove(i);
                self.wake_at(t, s as usize);
            } else {
                i += 1;
            }
        }
    }

    /// Sanitizer probe at issue, the only ring probe push wakeup keeps:
    /// every in-flight producer of `idx` must have completed by now.
    fn check_operands_ready(&mut self, idx: usize) {
        let latest = self
            .operands(idx)
            .into_iter()
            .filter(|&d| d > 0 && idx - d as usize >= self.committed)
            .map(|d| self.completion(idx - d as usize))
            .max()
            .unwrap_or(0);
        if let Some(chk) = self.checker.as_ref() {
            if let Err(e) = chk.on_operands_issue(idx, latest, self.cycle) {
                self.check_fail.get_or_insert(e);
            }
        }
    }

    /// Returns `(result_ready_cycle, fu_busy_until)` for the instruction
    /// at trace position `idx` issuing this cycle.
    fn execute_latency(&mut self, kind: InstrKind, idx: usize) -> (u64, u64) {
        let c = self.cycle;
        match kind {
            InstrKind::IntAlu | InstrKind::Branch => (c + self.cons.int_alu_latency as u64, c + 1),
            InstrKind::IntMul => (c + self.cons.int_mul_latency as u64, c + 1),
            InstrKind::IntDiv => {
                let l = self.cons.int_div_latency as u64;
                (c + l, c + l) // non-pipelined
            }
            InstrKind::FpAlu => (c + self.cons.fp_alu_latency as u64, c + 1),
            InstrKind::FpMul => (c + self.cons.fp_mul_latency as u64, c + 1),
            InstrKind::FpDiv => {
                let l = self.cons.fp_div_latency as u64;
                (c + l, c + l) // non-pipelined
            }
            InstrKind::Load => {
                let ready = self.data_access(self.addrs[idx], c);
                (ready, c + 1)
            }
            InstrKind::Store => {
                // The store writes its buffer entry in one cycle; the cache
                // update (and any miss traffic) happens off the critical
                // path but still consumes hierarchy bandwidth and energy.
                let _ = self.data_access(self.addrs[idx], c);
                (c + 1, c + 1)
            }
        }
    }

    /// Performs a data access through D-L1 → L2 → memory, returning the
    /// absolute cycle the data is available. Bandwidth contention is
    /// modelled by single-server queues on L2 and the memory bus.
    fn data_access(&mut self, addr: u64, at: u64) -> u64 {
        self.counters.dcache_accesses += 1;
        let l1_done = at + self.l1d_lat;
        if self.dcache.access(addr) == CacheOutcome::Hit {
            return l1_done;
        }
        self.l2_access(addr, l1_done)
    }

    /// L2 access (shared by I- and D-side), returning data-ready cycle.
    fn l2_access(&mut self, addr: u64, at: u64) -> u64 {
        // Capture/co-run hooks live in the outlined variant so the solo
        // hot path pays exactly one always-false predictable branch.
        if self.corun_hooks {
            return self.l2_access_hooked(addr, at);
        }
        self.counters.l2_accesses += 1;
        let start = at.max(self.l2_free_at);
        self.l2_free_at = start + 2; // L2 accepts a new access every 2 cycles
        let l2_done = start + self.l2_lat;
        if self.l2.access(addr) == CacheOutcome::Hit {
            return l2_done;
        }
        self.counters.memory_accesses += 1;
        let mstart = l2_done.max(self.mem_free_at);
        self.mem_free_at = mstart + self.mem.occupancy as u64;
        mstart + self.mem.latency as u64
    }

    /// [`Pipeline::l2_access`] with the stream-capture and intruder
    /// hooks live — only reached when one of them is armed.
    #[cold]
    #[inline(never)]
    fn l2_access_hooked(&mut self, addr: u64, at: u64) -> u64 {
        self.counters.l2_accesses += 1;
        if let Some(cap) = self.l2_capture.as_mut() {
            cap.push(addr);
        }
        let start = at.max(self.l2_free_at);
        self.l2_free_at = start + 2; // L2 accepts a new access every 2 cycles
        let l2_done = start + self.l2_lat;
        let hit = self.l2.access(addr) == CacheOutcome::Hit;
        // Round-robin co-runner: one intruder access follows each own
        // access, taking the next L2 slot and — on a miss — a memory
        // slot ahead of any own miss below, so the own lane feels both
        // port and bus contention as well as capacity pollution.
        if let Some(intr) = self.intruder.as_mut() {
            let ia = intr.addrs[intr.pos];
            intr.pos += 1;
            if intr.pos == intr.addrs.len() {
                intr.pos = 0;
            }
            intr.accesses += 1;
            self.l2_free_at += 2;
            if self.l2.access(ia) != CacheOutcome::Hit {
                intr.misses += 1;
                self.mem_free_at = self.mem_free_at.max(l2_done) + self.mem.occupancy as u64;
            }
        }
        if hit {
            return l2_done;
        }
        self.counters.memory_accesses += 1;
        let mstart = l2_done.max(self.mem_free_at);
        self.mem_free_at = mstart + self.mem.occupancy as u64;
        mstart + self.mem.latency as u64
    }

    /// The lane's own L2 statistics — total minus intruder, so co-run
    /// miss rates and reconciliations describe only this program.
    fn own_l2_stats(&self) -> (u64, u64) {
        match &self.intruder {
            Some(i) => (self.l2.accesses() - i.accesses, self.l2.misses() - i.misses),
            None => (self.l2.accesses(), self.l2.misses()),
        }
    }

    /// Reserves a register-file write port at or after `at`.
    fn reserve_wb(&mut self, at: u64) -> u64 {
        let ports = self.cfg.rf_write;
        let mut t = at;
        loop {
            let slot = (t as usize) & (WB_RING - 1);
            if self.wb_tag[slot] != t {
                self.wb_tag[slot] = t;
                self.wb_used[slot] = 1;
                return t;
            }
            if (self.wb_used[slot] as u32) < ports {
                self.wb_used[slot] += 1;
                if let Some(chk) = self.checker.as_ref() {
                    if let Err(e) = chk.on_writeback_grant(self.wb_used[slot] as u32, ports, t) {
                        self.check_fail.get_or_insert(e);
                    }
                }
                return t;
            }
            t += 1;
            // The ring is vastly larger than any realistic backlog; give up
            // gracefully rather than wrapping onto live reservations.
            if t - at >= (WB_RING as u64) / 2 {
                return t;
            }
        }
    }

    // ------------------------------------------------------------------
    // Dispatch (rename)
    // ------------------------------------------------------------------
    fn dispatch(&mut self) {
        let rob_cap = self.cfg.rob as usize;
        let iq_cap = self.cfg.iq as usize;
        let mut n = 0;
        while n < self.cfg.width {
            if self.dispatched >= self.next_fetch {
                break; // fetch queue empty
            }
            let idx = self.dispatched;
            let m = self.metas[idx];
            let is_mem = m & meta::IS_MEM != 0;
            let has_dest = m & meta::HAS_DEST != 0;
            if self.dispatched - self.committed >= rob_cap
                || self.iq_len >= iq_cap
                || (is_mem && self.lsq_occ >= self.cfg.lsq)
                || (has_dest && self.phys_used >= self.rename_regs)
            {
                break;
            }
            self.dispatched += 1;
            self.iq_len += 1;
            self.link_operands(idx);
            if is_mem {
                self.lsq_occ += 1;
            }
            if has_dest {
                self.phys_used += 1;
            }
            self.counters.renamed += 1;
            self.counters.rob_writes += 1;
            self.counters.iq_inserts += 1;
            n += 1;
        }
    }

    /// Enters dispatched position `idx` into the scheduler. An operand
    /// whose producer has issued (or committed) contributes its known
    /// completion to the ready cycle; an unissued producer gets the entry
    /// on its dependant list instead. With no producer outstanding the
    /// entry is woken at once.
    fn link_operands(&mut self, idx: usize) {
        let s = idx & self.cmask;
        let [d1, d2] = self.operands(idx);
        let mut ready = 0;
        let mut waiting = 0;
        // Two operands naming one producer need only one wakeup.
        for (op, d) in [(0, d1), (1, if d2 == d1 { 0 } else { d2 })] {
            if d == 0 || idx - (d as usize) < self.committed {
                continue;
            }
            let p = (idx - d as usize) & self.cmask;
            let done = self.slots[p].complete;
            if done != u64::MAX {
                ready = ready.max(done);
                continue;
            }
            self.slots[s].next[op] = self.slots[p].deps;
            self.slots[p].deps = (((s << 1) | op) + 1) as u32;
            waiting += 1;
        }
        let e = &mut self.slots[s];
        e.ready = ready;
        e.waiting = waiting;
        e.nsrc = (d1 > 0) as u8 + (d2 > 0) as u8;
        if waiting == 0 {
            self.wake_at(ready, s);
        }
    }

    // ------------------------------------------------------------------
    // Fetch
    // ------------------------------------------------------------------
    fn fetch(&mut self) {
        // A mispredicted branch blocks fetch until it resolves, then the
        // front end refills.
        if let Some(b) = self.fetch_blocked_on {
            let done = self.completion(b);
            if done != u64::MAX && done <= self.cycle {
                self.fetch_stall_until = done + self.cons.frontend_depth as u64;
                self.fetch_blocked_on = None;
            } else {
                return;
            }
        }
        if self.cycle < self.fetch_stall_until {
            return;
        }
        // Retire resolved branches from the in-flight set (in place, in
        // order). Entries may already be committed; their ring slots are
        // still intact because no fetch has happened since they resolved.
        {
            let mut w = 0usize;
            for r in 0..self.unresolved_len {
                let b = self.unresolved[r];
                if self.completion(b as usize) > self.cycle {
                    self.unresolved[w] = b;
                    w += 1;
                }
            }
            self.unresolved_len = w;
        }

        let cap = FETCH_QUEUE_WIDTHS * self.cfg.width as usize;
        let n = self.kinds.len();
        let mut fetched = 0;
        while fetched < self.cfg.width
            && self.next_fetch - self.dispatched < cap
            && self.next_fetch < n
        {
            let idx = self.next_fetch;
            let pc = self.pcs[idx] as u64;

            // I-cache: one access per new line.
            let line = pc >> self.l1_line_shift;
            if line != self.last_fetch_line {
                self.counters.icache_accesses += 1;
                let outcome = self.frontend.icache_access(pc);
                self.last_fetch_line = line;
                if outcome == CacheOutcome::Miss {
                    let ready = self.l2_access(pc, self.cycle);
                    self.fetch_stall_until = ready;
                    return;
                }
            }

            if self.metas[idx] & meta::IS_BRANCH != 0 {
                if self.unresolved_len >= self.cfg.max_branches as usize {
                    return; // in-flight branch limit
                }
                self.counters.bpred_accesses += 1;
                self.counters.btb_accesses += 1;
                let taken = self.takens[idx];
                let target = self.targets[idx];
                let correct = self.frontend.branch_access(pc, taken, target);
                self.unresolved[self.unresolved_len] = idx as u32;
                self.unresolved_len += 1;
                self.slots[idx & self.cmask].complete = u64::MAX;
                self.counters.fetched += 1;
                self.next_fetch += 1;
                fetched += 1;
                if !correct {
                    self.fetch_blocked_on = Some(idx);
                    return;
                }
                if taken {
                    // Redirect: correctly-predicted taken branches end the
                    // fetch group.
                    self.last_fetch_line = u64::MAX;
                    return;
                }
            } else {
                self.slots[idx & self.cmask].complete = u64::MAX;
                self.counters.fetched += 1;
                self.next_fetch += 1;
                fetched += 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dse_workload::{Instr, Trace};

    fn mk_trace(instrs: Vec<Instr>) -> Trace {
        Trace::new("unit", instrs)
    }

    fn alu(pc: u32) -> Instr {
        Instr {
            kind: InstrKind::IntAlu,
            src1: 0,
            src2: 0,
            pc,
            addr: 0,
            taken: false,
            target: 0,
        }
    }

    /// Runs with a quarter of the trace as warm-up so cold-start cache
    /// misses do not dominate these steady-state microbenchmarks.
    fn run(cfg: &Config, trace: &Trace) -> SimResult {
        Pipeline::new(
            cfg,
            &ConstantParams::standard(),
            trace,
            SimOptions::with_warmup(trace.len() / 4),
        )
        .run()
    }

    #[test]
    fn independent_alu_ops_reach_high_ipc() {
        let trace = mk_trace((0..4000).map(|i| alu(0x40_0000 + (i % 512) * 4)).collect());
        let cfg = Config {
            width: 8,
            rf_read: 16,
            rf_write: 8,
            ..Config::baseline()
        };
        let r = run(&cfg, &trace);
        assert!(r.ipc > 4.0, "ipc {}", r.ipc);
    }

    #[test]
    fn serial_dependency_chain_limits_ipc_to_one() {
        let mut instrs: Vec<Instr> = (0..4000).map(|i| alu(0x40_0000 + (i % 512) * 4)).collect();
        for ins in instrs.iter_mut().skip(1) {
            ins.src1 = 1; // each depends on its predecessor
        }
        let r = run(&Config::baseline(), &mk_trace(instrs));
        assert!(r.ipc <= 1.05, "ipc {}", r.ipc);
        assert!(r.ipc > 0.5, "ipc {}", r.ipc);
    }

    #[test]
    fn wider_machine_is_faster_on_parallel_code() {
        let trace = mk_trace((0..6000).map(|i| alu(0x40_0000 + (i % 512) * 4)).collect());
        let narrow = run(
            &Config {
                width: 2,
                rf_read: 4,
                rf_write: 2,
                ..Config::baseline()
            },
            &trace,
        );
        let wide = run(
            &Config {
                width: 8,
                rf_read: 16,
                rf_write: 8,
                ..Config::baseline()
            },
            &trace,
        );
        assert!(
            wide.cycles * 2 < narrow.cycles,
            "wide {} narrow {}",
            wide.cycles,
            narrow.cycles
        );
    }

    #[test]
    fn write_ports_throttle_completion() {
        let trace = mk_trace((0..4000).map(|i| alu(0x40_0000 + (i % 256) * 4)).collect());
        let few = run(
            &Config {
                width: 8,
                rf_read: 16,
                rf_write: 1,
                ..Config::baseline()
            },
            &trace,
        );
        let many = run(
            &Config {
                width: 8,
                rf_read: 16,
                rf_write: 8,
                ..Config::baseline()
            },
            &trace,
        );
        assert!(
            few.cycles > many.cycles * 3,
            "few {} many {}",
            few.cycles,
            many.cycles
        );
    }

    #[test]
    fn source_before_trace_start_is_no_dependency() {
        // The first instructions name a producer five back, before the
        // trace start: the run must equal the one with those sources
        // zeroed (not deadlock, not underflow).
        let mk = |d: u32| {
            let instrs = (0..4000u32).map(|i| Instr {
                src1: if i < 3 { d } else { (i % 3 == 0) as u32 },
                src2: if i == 1 { d } else { 0 },
                ..alu(0x40_0000 + (i % 512) * 4)
            });
            mk_trace(instrs.collect())
        };
        let run = |t: &Trace| {
            let opts = SimOptions::with_warmup(0);
            let p = Pipeline::new(&Config::baseline(), &ConstantParams::standard(), t, opts);
            p.try_run_full().unwrap()
        };
        let (dangling, zeroed) = (run(&mk(5)), run(&mk(0)));
        assert_eq!(dangling.result, zeroed.result);
        assert_eq!(dangling.counters.rf_reads, zeroed.counters.rf_reads);
    }

    #[test]
    fn load_misses_cost_memory_latency() {
        // Strided loads over 16 MB: miss in every level.
        let instrs: Vec<Instr> = (0..2000)
            .map(|i| Instr {
                kind: InstrKind::Load,
                src1: 0,
                src2: 0,
                pc: 0x40_0000 + (i % 64) * 4,
                addr: 0x1000_0000 + i as u64 * 4096,
                taken: false,
                target: 0,
            })
            .collect();
        let r = run(&Config::baseline(), &mk_trace(instrs));
        assert!(r.l1d_miss_rate > 0.95, "l1d miss {}", r.l1d_miss_rate);
        assert!(r.l2_miss_rate > 0.95, "l2 miss {}", r.l2_miss_rate);
        // Bandwidth-bound: at least the bus occupancy per measured load.
        assert!(
            r.cycles > r.instructions * 15,
            "cycles {} too low for memory-bound",
            r.cycles
        );
    }

    #[test]
    fn cache_hits_are_fast() {
        let instrs: Vec<Instr> = (0..4000)
            .map(|i| Instr {
                kind: InstrKind::Load,
                src1: 0,
                src2: 0,
                pc: 0x40_0000 + (i % 64) * 4,
                addr: 0x1000_0000 + (i as u64 % 64) * 8,
                taken: false,
                target: 0,
            })
            .collect();
        let r = run(&Config::baseline(), &mk_trace(instrs));
        assert!(r.l1d_miss_rate < 0.01, "l1d miss {}", r.l1d_miss_rate);
        assert!(r.ipc > 1.0, "ipc {}", r.ipc);
    }

    #[test]
    fn mispredicted_branches_cost_bubbles() {
        // Alternating taken/not-taken is learnable; random is not. Compare
        // a predictable stream against a data-random one.
        let mk = |random: bool| {
            let mut rng = dse_rng::Xoshiro256::seed_from(7);
            let instrs: Vec<Instr> = (0..6000u32)
                .map(|i| {
                    if i % 4 == 3 {
                        let taken = if random { rng.next_bool(0.5) } else { true };
                        Instr {
                            kind: InstrKind::Branch,
                            src1: 1,
                            src2: 0,
                            pc: 0x40_0000 + (i % 256) * 4,
                            addr: 0,
                            taken,
                            target: 0x40_0000 + ((i + 1) % 256) * 4,
                        }
                    } else {
                        alu(0x40_0000 + (i % 256) * 4)
                    }
                })
                .collect();
            mk_trace(instrs)
        };
        let predictable = run(&Config::baseline(), &mk(false));
        let random = run(&Config::baseline(), &mk(true));
        assert!(
            random.cycles as f64 > predictable.cycles as f64 * 1.5,
            "random {} predictable {}",
            random.cycles,
            predictable.cycles
        );
        assert!(random.bpred_miss_rate > 0.3);
        assert!(predictable.bpred_miss_rate < 0.1);
    }

    #[test]
    fn energy_is_positive_and_scales_with_work() {
        // Same warm-up on both runs, so the measured (steady-state) energy
        // must scale with the measured instruction count.
        let mk = |n: u32| mk_trace((0..n).map(|i| alu(0x40_0000 + (i % 128) * 4)).collect());
        let opts = SimOptions::with_warmup(500);
        let cons = ConstantParams::standard();
        let short = Pipeline::new(&Config::baseline(), &cons, &mk(1500), opts).run();
        let long = Pipeline::new(&Config::baseline(), &cons, &mk(4000), opts).run();
        assert!(short.energy_nj > 0.0);
        let per_instr_short = short.energy_nj / short.instructions as f64;
        let per_instr_long = long.energy_nj / long.instructions as f64;
        let ratio = per_instr_long / per_instr_short;
        assert!(
            (0.8..1.2).contains(&ratio),
            "per-instruction energy not stable: {ratio}"
        );
    }

    #[test]
    fn warmup_is_excluded_from_measured_instructions() {
        let trace = mk_trace((0..3000).map(|i| alu(0x40_0000 + (i % 128) * 4)).collect());
        let r = Pipeline::new(
            &Config::baseline(),
            &ConstantParams::standard(),
            &trace,
            SimOptions::with_warmup(1000),
        )
        .run();
        assert_eq!(r.instructions, 2000);
    }

    #[test]
    #[should_panic(expected = "longer than the warm-up")]
    fn warmup_longer_than_trace_panics() {
        let trace = mk_trace(vec![alu(0x40_0000)]);
        let _ = Pipeline::new(
            &Config::baseline(),
            &ConstantParams::standard(),
            &trace,
            SimOptions::with_warmup(10),
        );
    }

    #[test]
    fn simulation_is_deterministic() {
        let p = dse_workload::Profile::template("d", dse_workload::Suite::SpecCpu2000, 5);
        let trace = dse_workload::TraceGenerator::new(&p).generate(8_000);
        let a = run(&Config::baseline(), &trace);
        let b = run(&Config::baseline(), &trace);
        assert_eq!(a, b);
    }

    #[test]
    fn small_rf_strangles_a_wide_machine() {
        let p = dse_workload::Profile::template("rf", dse_workload::Suite::SpecCpu2000, 6);
        let trace = dse_workload::TraceGenerator::new(&p).generate(8_000);
        let small = run(
            &Config {
                rf: 40,
                ..Config::baseline()
            },
            &trace,
        );
        let large = run(
            &Config {
                rf: 160,
                ..Config::baseline()
            },
            &trace,
        );
        assert!(
            small.cycles > large.cycles * 11 / 10,
            "small {} large {}",
            small.cycles,
            large.cycles
        );
    }
}
