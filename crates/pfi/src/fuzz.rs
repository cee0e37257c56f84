//! The per-cell crash-fuzz loop.
//!
//! A *cell* is one (structure × model) pair. [`CellPlan::new`] records the
//! target's workload once; injections then run against that recording
//! through a pooled delta [`Replayer`] — O(touched lines) per crash image
//! instead of a base-image clone plus full fragment replay. Even injection
//! indices sweep crash points systematically, odd ones draw them (and the
//! survivor sets) from a small deterministic RNG. Every injection seeds
//! its *own* RNG stream from `(seed, structure, model, injection)`, so a
//! cell can be sharded across workers at any boundary — see
//! [`CellPlan::run_shard`] and [`CellPlan::merge`] — and the merged report
//! is byte-identical for any worker count or shard split. [`run_cell`]
//! is the single-shard convenience wrapper.
//!
//! A shard visits its injections in crash-point order, not index order: a
//! counting sort over the recording's crash points, index order within a
//! point. The replayer keeps one point's durable lines between loads, so
//! all injections at a point after the first only swap the survivors and
//! recovery writes. Failure and leg counts are sums and do not see the
//! order. The first failure in a cell (lowest injection index across
//! shards) is shrunk once, after the shard's sweep, to the earliest crash
//! point and smallest dropped set that still fail; later failures are
//! only counted.
//!
//! When the target's recovery writes (the undo log), its recovery script
//! is replayed through a fresh shadow and a *second* crash is injected
//! into it (multi-crash), checking that recovery is itself
//! crash-consistent. Scripts whose writes are byte-level no-ops on the
//! crash image are skipped — a second crash over no-op writes cannot
//! change the image, so the leg is redundant (see [`script_mutates`]).

use crate::inject::{CrashCase, FragmentSet};
use crate::replay::Replayer;
use crate::shadow::{Recording, ShadowEvent, ShadowPmem};
use crate::targets::{CwlTarget, FuzzTarget, KvTarget, TwoLockTarget, TxnTarget};
use mem_trace::rng::SmallRng;
use obsv::{series, tracefmt};
use persist_mem::{AtomicPersistSize, MemoryImage};
use persistency::Model;
use pstruct::txn::RecoveryStep;

/// Crash-fuzz parameters, shared by every cell of a run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FuzzConfig {
    /// Logical operations in the recorded workload.
    pub ops: u64,
    /// Crashes injected per cell.
    pub injections: u64,
    /// Base seed; mixed with the cell identity per cell.
    pub seed: u64,
    /// Inject a second crash into write-ful recovery scripts.
    pub multi_crash: bool,
    /// Allow torn (sub-fragment) persists at drop boundaries.
    pub torn: bool,
}

impl Default for FuzzConfig {
    fn default() -> Self {
        FuzzConfig { ops: 24, injections: 1000, seed: 0, multi_crash: true, torn: false }
    }
}

/// The structures the fuzzer knows how to drive.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Structure {
    /// Copy While Locked, full barriers.
    Cwl,
    /// Copy While Locked with the entry-persist fence elided — the
    /// known-buggy specimen the injector must catch.
    CwlElided,
    /// Two-Lock Concurrent.
    TwoLock,
    /// Persistent KV table.
    Kv,
    /// Undo-log transactions (write-ful recovery: the multi-crash target).
    Txn,
}

impl Structure {
    /// Every structure, stock ones first.
    pub const ALL: [Structure; 5] =
        [Structure::Cwl, Structure::TwoLock, Structure::Kv, Structure::Txn, Structure::CwlElided];

    /// The structures expected to survive fuzzing.
    pub const STOCK: [Structure; 4] =
        [Structure::Cwl, Structure::TwoLock, Structure::Kv, Structure::Txn];

    /// Report name.
    pub fn name(self) -> &'static str {
        match self {
            Structure::Cwl => "cwl",
            Structure::CwlElided => "cwl-elided",
            Structure::TwoLock => "2lc",
            Structure::Kv => "kv",
            Structure::Txn => "txn",
        }
    }

    /// Parses a report name back into a structure.
    pub fn from_name(name: &str) -> Option<Structure> {
        Structure::ALL.into_iter().find(|s| s.name() == name)
    }

    /// Builds the target driving this structure.
    pub fn target(self) -> Box<dyn FuzzTarget> {
        match self {
            Structure::Cwl => Box::new(CwlTarget::new()),
            Structure::CwlElided => Box::new(CwlTarget::elided()),
            Structure::TwoLock => Box::new(TwoLockTarget::new()),
            Structure::Kv => Box::new(KvTarget::new()),
            Structure::Txn => Box::new(TxnTarget::new()),
        }
    }
}

/// One (structure × model) fuzz cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FuzzCell {
    /// The structure under test.
    pub structure: Structure,
    /// The persistency model governing what crashes may drop.
    pub model: Model,
}

/// The first failure of a cell, shrunk.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FailureReport {
    /// Injection index that first failed.
    pub injection: u64,
    /// Crash point (events executed) after shrinking.
    pub crash_point: usize,
    /// For multi-crash failures: the crash point within recovery.
    pub second_crash_point: Option<usize>,
    /// Whether the failure needed a crash during recovery.
    pub during_recovery: bool,
    /// Cache lines dropped or torn by the (shrunk) failing crash.
    pub dropped_lines: Vec<u64>,
    /// What the recovery or the checker rejected.
    pub message: String,
}

/// Outcome of one fuzz cell.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CellReport {
    /// Structure name.
    pub structure: &'static str,
    /// Model name.
    pub model: &'static str,
    /// Events in the recorded workload.
    pub events: usize,
    /// Crashes injected.
    pub injections: u64,
    /// Crashes additionally injected into recovery (multi-crash).
    pub recovery_crashes: u64,
    /// Injections whose recovery or check failed.
    pub failures: u64,
    /// The first failure, shrunk to a minimal reproducer.
    pub first_failure: Option<FailureReport>,
}

impl CellReport {
    /// `true` if the cell survived every injection.
    pub fn passed(&self) -> bool {
        self.failures == 0
    }
}

/// Mixes the base seed with the cell identity (FNV-1a over the names), so
/// each cell owns an independent, worker-count-independent stream.
fn cell_seed(seed: u64, cell: FuzzCell) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in cell.structure.name().bytes().chain([0u8]).chain(cell.model.name().bytes()) {
        h = (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
    }
    h ^ seed.wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// Derives injection `i`'s private RNG seed from the cell seed (a
/// splitmix64-style finalizer). Giving every injection its own stream is
/// what makes shard boundaries invisible in the results.
fn injection_seed(cell_seed: u64, i: u64) -> u64 {
    let mut z = cell_seed ^ i.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Expands a recovery script into the event stream a second crash can be
/// injected into — exactly what replaying it through a [`ShadowPmem`]
/// rebased over the crash image would record (store + flush per write,
/// fence per barrier), computed without the shadow: the recovery script
/// never loads, so the stream is a pure function of the script and the
/// two full-image clones a shadow rebase pays per leg are dead weight.
/// `out` is reused across calls.
fn recovery_events(script: &[RecoveryStep], out: &mut Vec<ShadowEvent>) {
    out.clear();
    for step in script {
        match step {
            RecoveryStep::Write { addr, value } => {
                out.push(ShadowEvent::Store { addr: *addr, data: value.to_le_bytes().to_vec() });
                out.push(ShadowEvent::Flush { addr: *addr, len: 8 });
            }
            RecoveryStep::Barrier => out.push(ShadowEvent::Fence),
        }
    }
}

/// Does applying the script change the image? A script whose writes all
/// restore bytes the image already holds is a no-op: a second crash at any
/// point of it leaves the image byte-identical, re-recovery computes the
/// same script, and the check re-evaluates the already-passing state — so
/// the multi-crash leg is provably redundant and can be skipped. This is
/// what makes the undo-log target delta-replay-aware: the common case (a
/// crash image whose durable log header is already idle) stops paying the
/// per-injection image clone, recovery re-record, and fragment rebuild.
fn script_mutates(image: &MemoryImage, script: &[RecoveryStep]) -> bool {
    script.iter().any(|step| match step {
        RecoveryStep::Write { addr, value } => image.read_u64(*addr).ok() != Some(*value),
        RecoveryStep::Barrier => false,
    })
}

/// Runs first-crash recovery + checks through the delta replayer. On
/// success returns the recovery script; when `scratch` is provided and the
/// script actually mutates the image, the pre-recovery image (the inputs a
/// second crash needs) is copied into it — allocation-free after the first
/// use — and the returned flag is set. The replayer keeps the injection's
/// image until its next load.
fn eval_first(
    target: &dyn FuzzTarget,
    replayer: &mut Replayer<'_>,
    case: &CrashCase,
    scratch: Option<&mut MemoryImage>,
) -> Result<(bool, Vec<RecoveryStep>), String> {
    replayer.load(case);
    let script = target
        .recovery_script(replayer.image())
        .map_err(|e| format!("recovery rejected the image: {e}"))?;
    let mut took_image = false;
    if let Some(scratch) = scratch {
        if script_mutates(replayer.image(), &script) {
            scratch.clone_from(replayer.image());
            took_image = true;
        }
    }
    let (completed, begun) = replayer.ops_at(case.point);
    replayer.apply_recovery(&script);
    target.check(replayer.image(), completed, begun)?;
    Ok((took_image, script))
}

/// Runs the second-crash leg: materialize the mid-recovery image (into the
/// caller's reusable scratch), run recovery *again* on it, check against
/// the original op history.
#[allow(clippy::too_many_arguments)]
fn eval_second(
    target: &dyn FuzzTarget,
    frags2: &FragmentSet,
    base: &MemoryImage,
    img2: &mut MemoryImage,
    model: Model,
    case2: &CrashCase,
    completed: u64,
    begun: u64,
) -> Result<(), String> {
    frags2.materialize_into(img2, base, model, case2);
    let script2 = target
        .recovery_script(img2)
        .map_err(|e| format!("re-recovery rejected the image: {e}"))?;
    for step in &script2 {
        if let RecoveryStep::Write { addr, value } = step {
            img2.write_u64(*addr, *value).expect("recovery write in range");
        }
    }
    target.check(img2, completed, begun)
}

/// The outcome of one contiguous injection range of a cell. Shards are
/// pure functions of `(plan, range)`, so merging them reproduces the
/// serial report exactly whatever the partition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardReport {
    /// Injections this shard ran.
    pub injections: u64,
    /// Crashes additionally injected into recovery (multi-crash).
    pub recovery_crashes: u64,
    /// Injections whose recovery or check failed.
    pub failures: u64,
    /// The shard's failure with the lowest injection index, shrunk.
    pub first_failure: Option<FailureReport>,
}

/// How one injection ended. The failing variants carry what shrinking the
/// failure needs.
enum Injected {
    /// Recovery and the check passed; no second crash was injected.
    Passed,
    /// Recovery wrote, and a second crash injected into it passed.
    Leg,
    /// The first crash's recovery or check failed.
    Failed(CrashCase),
    /// The second crash, `case2` in the recovery stream `frags2`, failed.
    LegFailed { case: CrashCase, frags2: FragmentSet, case2: CrashCase },
}

/// A shard's reusable injection state: the delta replayer plus the
/// multi-crash leg's scratch (`clone_from` keeps the allocations) — the
/// pre-recovery image, the recovery event stream and the second-crash
/// materialization target.
struct ShardState<'p> {
    replayer: Replayer<'p>,
    scratch: MemoryImage,
    leg_events: Vec<ShadowEvent>,
    leg_image: MemoryImage,
}

/// Timeline track group (`pid`) for the crash-fuzz matrix; one lane per
/// (structure × model) cell.
const PFI_PID: u64 = 20;

/// Most injections a shard sorts by crash point at once: bounds the sort's
/// memory (4 bytes of offset and 4 of point per injection) for any shard
/// length, while holding far more injections than a recording has crash
/// points.
const ORDER_WINDOW: u64 = 1 << 20;

/// Injections accumulated per series point: the injections/sec series
/// needs window-level resolution, not per-injection points, so the
/// clock read and registry touch happen once per batch.
const INJ_BATCH: u64 = 64;

/// Per-shard time-resolved sink for one fuzz cell: a wall-clock
/// injections/sec series per model, plus shrink instants on the cell's
/// timeline lane. This layer runs on the wall clock — unlike the
/// deterministic `pfi.*` counters in [`CellPlan::run_shard`] — so it is
/// only armed by explicit `--series-ns` / `--timeline` requests and
/// carries no worker-count determinism claim.
struct CellTelemetry {
    /// `pfi.win.injections.{model}`, when series recording is active.
    inj_series: Option<String>,
    /// `(pid, tid)` of the cell's timeline lane, when recording.
    track: Option<(u64, u64)>,
    /// Injections accumulated since the last series point.
    pending: u64,
}

impl CellTelemetry {
    fn new(cell: FuzzCell) -> Self {
        let track = tracefmt::recording().then(|| {
            let si =
                Structure::ALL.iter().position(|&s| s == cell.structure).unwrap_or(0) as u64;
            let tid = si * (Model::ALL.len() as u64 + 1) + cell.model.index() as u64 + 1;
            tracefmt::name_process(PFI_PID, "crash-fuzz");
            tracefmt::name_thread(
                PFI_PID,
                tid,
                &format!("{}/{}", cell.structure.name(), cell.model.name()),
            );
            (PFI_PID, tid)
        });
        CellTelemetry {
            inj_series: series::active()
                .then(|| format!("pfi.win.injections.{}", cell.model.name())),
            track,
            pending: 0,
        }
    }

    /// Accounts one completed injection; spills a series point per batch.
    fn injected(&mut self) {
        if self.inj_series.is_none() {
            return;
        }
        self.pending += 1;
        if self.pending >= INJ_BATCH {
            self.spill();
        }
    }

    /// Writes the pending injection count as a series point, dated now.
    fn spill(&mut self) {
        if self.pending > 0 {
            if let Some(name) = &self.inj_series {
                series::add(name, tracefmt::now_ns() as u64, self.pending);
            }
            self.pending = 0;
        }
    }

    /// Marks a shrunk failure on the timeline and the shrink series.
    fn shrunk(&self, f: &FailureReport) {
        let t = tracefmt::now_ns();
        if let Some((pid, tid)) = self.track {
            tracefmt::instant(
                pid,
                tid,
                "shrink",
                t,
                &[
                    ("injection", f.injection.to_string()),
                    ("crash_point", f.crash_point.to_string()),
                    ("during_recovery", f.during_recovery.to_string()),
                ],
            );
        }
        series::add("pfi.win.shrinks", t as u64, 1);
    }
}

/// A fuzz cell prepared for (possibly parallel) injection: the recorded
/// workload, its fragments, and the target. Shareable across worker
/// threads; each [`CellPlan::run_shard`] call builds its own delta
/// [`Replayer`] over the shared recording.
pub struct CellPlan {
    cfg: FuzzConfig,
    cell: FuzzCell,
    target: Box<dyn FuzzTarget>,
    rec: Recording,
    frags: FragmentSet,
    seed: u64,
}

impl std::fmt::Debug for CellPlan {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CellPlan")
            .field("cell", &self.cell)
            .field("events", &self.rec.events.len())
            .finish_non_exhaustive()
    }
}

impl CellPlan {
    /// Records the cell's workload and prepares injection state.
    pub fn new(cfg: &FuzzConfig, cell: FuzzCell) -> Self {
        let target = cell.structure.target();
        let mut shadow = ShadowPmem::new();
        target.run(&mut shadow, cfg.ops);
        let rec = shadow.into_recording();
        let frags = FragmentSet::build(&rec, AtomicPersistSize::default());
        CellPlan { cfg: *cfg, cell, target, rec, frags, seed: cell_seed(cfg.seed, cell) }
    }

    /// Total injections the plan's config asks for.
    pub fn injections(&self) -> u64 {
        self.cfg.injections
    }

    /// The cell this plan fuzzes.
    pub fn cell(&self) -> FuzzCell {
        self.cell
    }

    /// Runs injections `lo..hi`. Deterministic for a fixed plan and range,
    /// independent of how the full range is partitioned. (The optional
    /// time-resolved layer — injections/sec series and shrink instants —
    /// runs on the wall clock and is exempt from that determinism.)
    ///
    /// Injections are visited in crash-point order (index order within a
    /// point), so consecutive loads at one point reuse the replayer's
    /// durable lines; each still draws from its own RNG stream. Tallies
    /// are sums and do not depend on the order. The first failure is the
    /// lowest failing index, shrunk once after the sweep by re-running it.
    pub fn run_shard(&self, lo: u64, hi: u64) -> ShardReport {
        let hi = hi.min(self.cfg.injections);
        let lo = lo.min(hi);
        let points = self.rec.events.len() as u64 + 1;
        let mut tel = CellTelemetry::new(self.cell);
        let mut st = ShardState {
            replayer: Replayer::new(&self.frags, &self.rec, self.cell.model),
            scratch: MemoryImage::new(),
            leg_events: Vec::new(),
            leg_image: MemoryImage::new(),
        };

        let mut failures = 0u64;
        let mut recovery_crashes = 0u64;
        let mut lowest_failure: Option<u64> = None;
        let mut order = Vec::new();
        for wlo in (lo..hi).step_by(ORDER_WINDOW as usize) {
            let whi = hi.min(wlo + ORDER_WINDOW);
            self.point_order(wlo, whi, points, &mut order);
            for &k in &order {
                let i = wlo + u64::from(k);
                let injected = self.inject(i, points, &mut st);
                if matches!(injected, Injected::Leg | Injected::LegFailed { .. }) {
                    recovery_crashes += 1;
                }
                if matches!(injected, Injected::Failed(_) | Injected::LegFailed { .. }) {
                    failures += 1;
                    lowest_failure = Some(lowest_failure.map_or(i, |j| j.min(i)));
                }
                tel.injected();
            }
        }
        tel.spill();
        let first_failure = lowest_failure.map(|i| {
            let f = self.shrink(i, points, &mut st);
            tel.shrunk(&f);
            f
        });

        if obsv::enabled() {
            // Shard totals sum to the same cell totals for any sharding, so
            // these counters are worker-count independent; per-shard
            // distributions would not be, and are deliberately not recorded.
            obsv::counter_add("pfi.injections", hi - lo);
            obsv::counter_add("pfi.failures", failures);
            obsv::counter_add("pfi.recovery_crashes", recovery_crashes);
        }
        ShardReport { injections: hi - lo, recovery_crashes, failures, first_failure }
    }

    /// Injection `i`'s crash point, and its private RNG positioned for the
    /// survivor draw. Even injections sweep crash points systematically;
    /// odd ones are random, as are all survivor draws.
    fn crash_point(&self, i: u64, points: u64) -> (usize, SmallRng) {
        let mut rng = SmallRng::seed_from_u64(injection_seed(self.seed, i));
        let point = if i.is_multiple_of(2) { (i / 2) % points } else { rng.gen_below(points) };
        (point as usize, rng)
    }

    /// Fills `order` with the offsets from `lo` of injections `lo..hi`,
    /// sorted by crash point and by index within a point: a stable
    /// counting sort over `0..points`.
    fn point_order(&self, lo: u64, hi: u64, points: u64, order: &mut Vec<u32>) {
        let at: Vec<u32> = (lo..hi).map(|i| self.crash_point(i, points).0 as u32).collect();
        let mut next = vec![0u32; points as usize + 1];
        for &p in &at {
            next[p as usize + 1] += 1;
        }
        for p in 1..next.len() {
            next[p] += next[p - 1];
        }
        order.clear();
        order.resize(at.len(), 0);
        for (k, &p) in at.iter().enumerate() {
            order[next[p as usize] as usize] = k as u32;
            next[p as usize] += 1;
        }
    }

    /// Runs injection `i`: the first crash, its recovery and check, and
    /// for a write-ful recovery a second crash injected into it.
    fn inject(&self, i: u64, points: u64, st: &mut ShardState<'_>) -> Injected {
        let target = self.target.as_ref();
        let model = self.cell.model;
        let torn = self.cfg.torn;
        let (point, mut rng) = self.crash_point(i, points);
        let case = self.frags.draw(model, point, &mut rng, torn);
        let scratch_for = self.cfg.multi_crash.then_some(&mut st.scratch);
        match eval_first(target, &mut st.replayer, &case, scratch_for) {
            Err(_) => Injected::Failed(case),
            Ok((false, _)) => Injected::Passed,
            Ok((true, script)) => {
                recovery_events(&script, &mut st.leg_events);
                let frags2 = FragmentSet::from_events(&st.leg_events, AtomicPersistSize::default());
                let (completed, begun) = st.replayer.ops_at(case.point);
                let p2 = rng.gen_below(st.leg_events.len() as u64 + 1) as usize;
                let case2 = frags2.draw(model, p2, &mut rng, torn);
                let (img, img2) = (&st.scratch, &mut st.leg_image);
                match eval_second(target, &frags2, img, img2, model, &case2, completed, begun) {
                    Ok(()) => Injected::Leg,
                    Err(_) => Injected::LegFailed { case, frags2, case2 },
                }
            }
        }
    }

    /// Re-runs failing injection `i` and shrinks its failure: a first-crash
    /// failure to the earliest crash point and smallest dropped set that
    /// still fail, a recovery-crash failure likewise with the first crash
    /// fixed.
    fn shrink(&self, i: u64, points: u64, st: &mut ShardState<'_>) -> FailureReport {
        let target = self.target.as_ref();
        let model = self.cell.model;
        match self.inject(i, points, st) {
            Injected::Failed(case) => {
                let replayer = &mut st.replayer;
                let shrunk = self
                    .frags
                    .shrink(model, &case, |c| eval_first(target, replayer, c, None).is_err());
                let message = eval_first(target, replayer, &shrunk, None)
                    .expect_err("shrunk case still fails");
                FailureReport {
                    injection: i,
                    crash_point: shrunk.point,
                    second_crash_point: None,
                    during_recovery: false,
                    dropped_lines: self.frags.dropped_lines(model, &shrunk),
                    message,
                }
            }
            Injected::LegFailed { case, frags2, case2 } => {
                let (completed, begun) = st.replayer.ops_at(case.point);
                let (img, img2) = (&st.scratch, &mut st.leg_image);
                let shrunk2 = frags2.shrink(model, &case2, |c2| {
                    eval_second(target, &frags2, img, img2, model, c2, completed, begun).is_err()
                });
                let message =
                    eval_second(target, &frags2, img, img2, model, &shrunk2, completed, begun)
                        .expect_err("shrunk recovery crash still fails");
                FailureReport {
                    injection: i,
                    crash_point: case.point,
                    second_crash_point: Some(shrunk2.point),
                    during_recovery: true,
                    dropped_lines: frags2.dropped_lines(model, &shrunk2),
                    message,
                }
            }
            Injected::Passed | Injected::Leg => {
                unreachable!("injection {i} failed in the sweep and passed when re-run")
            }
        }
    }

    /// Merges shard results covering the full `0..injections` range into
    /// the cell report. The first failure is the one with the lowest
    /// injection index, matching a serial run.
    pub fn merge(&self, shards: &[ShardReport]) -> CellReport {
        let mut recovery_crashes = 0u64;
        let mut failures = 0u64;
        let mut first_failure: Option<FailureReport> = None;
        for s in shards {
            recovery_crashes += s.recovery_crashes;
            failures += s.failures;
            if let Some(f) = &s.first_failure {
                if first_failure.as_ref().is_none_or(|g| f.injection < g.injection) {
                    first_failure = Some(f.clone());
                }
            }
        }
        CellReport {
            structure: self.cell.structure.name(),
            model: self.cell.model.name(),
            events: self.rec.events.len(),
            injections: self.cfg.injections,
            recovery_crashes,
            failures,
            first_failure,
        }
    }
}

/// Splits `0..total` into `shards` contiguous ranges (the last may be
/// shorter; empty ranges are omitted).
pub fn shard_ranges(total: u64, shards: u64) -> Vec<(u64, u64)> {
    let shards = shards.max(1);
    let per = total.div_ceil(shards).max(1);
    (0..shards)
        .map(|s| (s * per, ((s + 1) * per).min(total)))
        .filter(|(lo, hi)| lo < hi)
        .collect()
}

/// Fuzzes one cell serially. Deterministic for a fixed `cfg` and `cell`,
/// and identical to any sharded run of the same plan.
pub fn run_cell(cfg: &FuzzConfig, cell: FuzzCell) -> CellReport {
    let plan = CellPlan::new(cfg, cell);
    let shard = plan.run_shard(0, plan.injections());
    plan.merge(&[shard])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick(cfg_ops: u64, injections: u64, structure: Structure, model: Model) -> CellReport {
        let cfg = FuzzConfig { ops: cfg_ops, injections, ..FuzzConfig::default() };
        run_cell(&cfg, FuzzCell { structure, model })
    }

    #[test]
    fn stock_cwl_survives_epoch_smoke() {
        let r = quick(8, 120, Structure::Cwl, Model::Epoch);
        assert!(r.passed(), "{:?}", r.first_failure);
        assert_eq!(r.recovery_crashes, 0, "queue recovery is read-only");
    }

    #[test]
    fn elided_cwl_is_caught_under_epoch_and_survives_strict() {
        let r = quick(8, 120, Structure::CwlElided, Model::Epoch);
        assert!(!r.passed(), "elided barrier must be caught");
        let f = r.first_failure.expect("failure is reported");
        assert!(!f.dropped_lines.is_empty());
        let r = quick(8, 120, Structure::CwlElided, Model::Strict);
        assert!(r.passed(), "global store order protects the elided queue: {:?}", r.first_failure);
    }

    #[test]
    fn txn_exercises_multi_crash() {
        let r = quick(6, 120, Structure::Txn, Model::Epoch);
        assert!(r.passed(), "{:?}", r.first_failure);
        assert!(r.recovery_crashes > 0, "rollback scripts must be re-crashed");
        // The delta-aware skip must drop the no-op legs (crash images whose
        // durable log header is already idle) without losing the write-ful
        // ones.
        assert!(
            r.recovery_crashes < r.injections,
            "no-op recovery scripts must not be re-crashed ({} of {})",
            r.recovery_crashes,
            r.injections
        );
    }

    #[test]
    fn cells_are_deterministic() {
        let a = quick(8, 60, Structure::Kv, Model::Strand);
        let b = quick(8, 60, Structure::Kv, Model::Strand);
        assert_eq!(a, b);
    }

    #[test]
    fn sharded_runs_match_serial() {
        let cfg = FuzzConfig { ops: 8, injections: 90, torn: true, ..FuzzConfig::default() };
        // A passing and a failing cell, so merge covers both paths.
        for structure in [Structure::Txn, Structure::CwlElided] {
            for model in Model::ALL {
                let plan = CellPlan::new(&cfg, FuzzCell { structure, model });
                let serial = plan.merge(&[plan.run_shard(0, plan.injections())]);
                for shards in [2u64, 3, 7] {
                    let parts: Vec<ShardReport> = shard_ranges(plan.injections(), shards)
                        .into_iter()
                        .map(|(lo, hi)| plan.run_shard(lo, hi))
                        .collect();
                    assert_eq!(plan.merge(&parts), serial, "{structure:?} {model} x{shards}");
                }
            }
        }
    }

    #[test]
    fn first_failure_is_the_lowest_failing_index() {
        // A shard visits injections in crash-point order; its reported
        // failure must still be the lowest failing index, as in a serial
        // index-order run.
        let cfg = FuzzConfig { ops: 8, injections: 160, torn: true, ..FuzzConfig::default() };
        for model in [Model::StrictRmo, Model::Epoch, Model::Bpfs, Model::Strand] {
            let plan = CellPlan::new(&cfg, FuzzCell { structure: Structure::CwlElided, model });
            let lowest = (0..plan.injections())
                .find(|&i| plan.run_shard(i, i + 1).failures > 0)
                .unwrap_or_else(|| panic!("cwl-elided under {model} must fail"));
            let first = plan.run_shard(0, plan.injections()).first_failure.expect("failure");
            assert_eq!(first.injection, lowest, "{model}");
        }
    }

    #[test]
    fn shard_ranges_partition_the_range() {
        assert_eq!(shard_ranges(10, 3), vec![(0, 4), (4, 8), (8, 10)]);
        assert_eq!(shard_ranges(2, 5), vec![(0, 1), (1, 2)]);
        assert_eq!(shard_ranges(0, 4), vec![]);
    }
}
