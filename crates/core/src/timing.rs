//! Persist ordering constraint critical path (§7–§8).
//!
//! The paper evaluates persistency models implementation-independently: it
//! assumes infinite NVRAM bandwidth and banks, so persist throughput is
//! limited only by the longest chain (critical path) of persist ordering
//! constraints. This module computes that critical path by propagating
//! scalar *levels* (DAG depth) through the engine.
//!
//! Coalescing legality is checked against timestamps (levels), mirroring
//! the paper's methodology ("persist times are tracked per address … every
//! persist attempts to coalesce with the last persist to that address").
//! The scalar check may admit a coalesce between level-equal but unordered
//! persists that the exact reachability check of [`crate::dag`] would
//! refuse; the DAG engine is therefore an upper bound on the critical path
//! and is the one used for recovery-correctness analyses.
//!
//! Several configs that differ only in their model run as lanes of one
//! engine walk ([`ModelLanes`]); lane *k* equals the one-model analysis of
//! config *k*.

use crate::domain::{Domain, EventRef, Mask, WriteRec};
use crate::engine::{self, EngineStats};
use crate::rules::Rules;
use crate::{AnalysisConfig, Model};
use mem_trace::{EventSource, Trace};
use std::io;

/// Scalar level domain: a dependence is summarized by the maximum level of
/// any persist that must happen before.
#[derive(Debug, Default)]
pub(crate) struct LevelDomain {
    max_level: u64,
    nodes: u64,
}

impl Domain for LevelDomain {
    /// Maximum level ordered before.
    type Dep = u64;
    /// A persist is identified by its level (identity beyond the level is
    /// irrelevant for timing).
    type PRef = u64;
    type Mask = bool;

    fn bottom(&self) -> u64 {
        0
    }

    fn join(&mut self, into: &mut u64, from: &u64) {
        *into = (*into).max(*from);
    }

    fn new_persist(&mut self, input: &u64, _w: WriteRec, _ev: EventRef) -> u64 {
        let level = input + 1;
        self.max_level = self.max_level.max(level);
        self.nodes += 1;
        level
    }

    fn can_coalesce(&self, input: &u64, target: u64) -> bool {
        // Coalescing folds the persist into `target`: legal iff no incoming
        // dependence is newer than the target persist.
        *input <= target
    }

    fn coalesce(&mut self, _target: u64, _w: WriteRec, _ev: EventRef) {}

    fn dep_of(&self, p: u64) -> u64 {
        p
    }
}

/// Most model lanes one walk carries: one per model.
pub(crate) const MODEL_LANES: usize = Model::ALL.len();

/// Per-lane values of the [`ModelLanes`] domain.
type Levels = [u64; MODEL_LANES];

/// The lanes of a [`ModelLanes`] walk a rule applies to: all ones in a
/// lane that it applies to, zero elsewhere, so masking a level is one
/// `and` (bottom is 0).
#[derive(Debug, Clone, Copy)]
pub(crate) struct LaneMask(Levels);

impl Mask for LaneMask {
    /// Lanes past `lanes.len()` are in no mask.
    fn of(lanes: &[Rules], f: impl Fn(Rules) -> bool) -> Self {
        assert!(lanes.len() <= MODEL_LANES, "{} model lanes, at most {MODEL_LANES}", lanes.len());
        let mut m = [0; MODEL_LANES];
        for (m, &r) in m.iter_mut().zip(lanes) {
            *m = if f(r) { u64::MAX } else { 0 };
        }
        LaneMask(m)
    }

    fn any(self) -> bool {
        self.0.iter().any(|&m| m != 0)
    }
}

/// The level domain of [`LevelDomain`], one level per model lane: lane
/// *k* is the analysis of `configs[k]`. Levels are `u64` like the scalar
/// domain's, so a lane overflows only where the scalar analysis would.
#[derive(Debug)]
pub(crate) struct ModelLanes {
    configs: Vec<AnalysisConfig>,
    /// Per-lane critical path so far.
    max_level: Levels,
    /// Per-lane persists that coalesced.
    coalesced: Levels,
}

impl ModelLanes {
    fn new(configs: &[AnalysisConfig]) -> Self {
        ModelLanes {
            configs: configs.to_vec(),
            max_level: [0; MODEL_LANES],
            coalesced: [0; MODEL_LANES],
        }
    }

    #[inline]
    fn note(&mut self, p: &Levels) {
        for (m, &l) in self.max_level.iter_mut().zip(p) {
            *m = (*m).max(l);
        }
    }
}

impl Domain for ModelLanes {
    /// Per-lane maximum level ordered before.
    type Dep = Levels;
    /// Per-lane level of the persist.
    type PRef = Levels;
    type Mask = LaneMask;

    fn bottom(&self) -> Levels {
        [0; MODEL_LANES]
    }

    #[inline]
    fn join(&mut self, into: &mut Levels, from: &Levels) {
        for (i, &f) in into.iter_mut().zip(from) {
            *i = (*i).max(f);
        }
    }

    #[inline]
    fn new_persist(&mut self, input: &Levels, _w: WriteRec, _ev: EventRef) -> Levels {
        let p = input.map(|l| l + 1);
        self.note(&p);
        p
    }

    fn can_coalesce(&self, input: &Levels, target: Levels) -> bool {
        input.iter().zip(&target).all(|(i, t)| i <= t)
    }

    fn coalesce(&mut self, _target: Levels, _w: WriteRec, _ev: EventRef) {}

    fn dep_of(&self, p: Levels) -> Levels {
        p
    }

    /// Each lane coalesces or not on its own levels, and counts its own
    /// coalesced persists. The run's shared count is of persists that
    /// coalesced in every lane.
    #[inline]
    fn persist_onto(
        &mut self,
        input: &Levels,
        target: Levels,
        _w: WriteRec,
        _ev: EventRef,
    ) -> (Levels, bool) {
        let mut p = [0; MODEL_LANES];
        let mut all = true;
        for k in 0..MODEL_LANES {
            let merge = input[k] <= target[k];
            p[k] = if merge { target[k] } else { input[k] + 1 };
            self.coalesced[k] += merge as u64;
            all &= merge;
        }
        self.note(&p);
        (p, all)
    }

    #[inline]
    fn join_where(&mut self, into: &mut Levels, from: &Levels, m: LaneMask) {
        for k in 0..MODEL_LANES {
            into[k] = into[k].max(from[k] & m.0[k]);
        }
    }

    #[inline]
    fn assign_where(&mut self, into: &mut Levels, from: &Levels, m: LaneMask) {
        for k in 0..MODEL_LANES {
            into[k] = (from[k] & m.0[k]) | (into[k] & !m.0[k]);
        }
    }

    #[inline]
    fn assign_pref_where(&mut self, into: &mut Levels, p: Levels, m: LaneMask) {
        self.assign_where(into, &p, m);
    }

    #[inline]
    fn reset_where(&self, dep: &mut Levels, m: LaneMask) {
        for (d, &m) in dep.iter_mut().zip(&m.0) {
            *d &= !m;
        }
    }

    #[inline]
    fn fold_where(&mut self, prev: &mut Levels, cur: &mut Levels, _index: usize, m: LaneMask) {
        self.join_where(prev, cur, m);
        self.reset_where(cur, m);
    }
}

/// Result of a critical-path analysis.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TimingReport {
    /// Configuration the analysis ran under.
    pub config: AnalysisConfig,
    /// Length of the longest persist ordering constraint chain.
    pub critical_path: u64,
    /// Distinct persists after coalescing (nodes in the constraint DAG).
    pub persist_nodes: u64,
    /// Raw engine statistics.
    pub stats: EngineStats,
}

impl TimingReport {
    /// Critical path per completed work item — the paper's per-insert
    /// metric (Figures 4 and 5). Returns the whole critical path if the
    /// trace has no work markers.
    pub fn critical_path_per_work(&self) -> f64 {
        if self.stats.work_items == 0 {
            self.critical_path as f64
        } else {
            self.critical_path as f64 / self.stats.work_items as f64
        }
    }

    /// Fraction of persist operations that coalesced away.
    pub fn coalesce_rate(&self) -> f64 {
        if self.stats.persist_ops == 0 {
            0.0
        } else {
            self.stats.coalesced as f64 / self.stats.persist_ops as f64
        }
    }
}

/// Computes the persist ordering constraint critical path of `trace` under
/// `config`.
///
/// # Example
///
/// ```rust
/// use mem_trace::{TracedMem, FreeRunScheduler};
/// use persistency::{timing, AnalysisConfig, Model};
///
/// let mem = TracedMem::new(FreeRunScheduler);
/// let trace = mem.run(1, |ctx| {
///     let a = ctx.palloc(256, 64).unwrap();
///     for i in 0..8 {
///         ctx.store_u64(a.add(8 * i), i); // one epoch: all concurrent
///     }
/// });
/// let r = timing::analyze(&trace, &AnalysisConfig::new(Model::Epoch));
/// assert_eq!(r.critical_path, 1);
/// let r = timing::analyze(&trace, &AnalysisConfig::new(Model::Strict));
/// assert_eq!(r.critical_path, 8); // program order serializes
/// ```
pub fn analyze(trace: &Trace, config: &AnalysisConfig) -> TimingReport {
    Analyzer::new().analyze(trace, config)
}

/// Reusable timing analyzer.
///
/// Keeps the engine's working state (paged block tables, per-thread
/// dependence values) alive between runs so sweep loops that analyze many
/// (trace, config) cells back to back skip the per-run allocation of
/// those tables. One-shot callers can keep using [`analyze`].
pub struct Analyzer {
    scratch: engine::Scratch<LevelDomain>,
}

impl Analyzer {
    /// Creates an analyzer with empty scratch state.
    pub fn new() -> Self {
        Analyzer { scratch: engine::Scratch::new(&LevelDomain::default()) }
    }

    /// Computes the critical path of `trace` under `config`, reusing
    /// scratch capacity from previous calls.
    ///
    /// # Panics
    ///
    /// Panics if an event names a thread outside `trace.thread_count()`.
    pub fn analyze(&mut self, trace: &Trace, config: &AnalysisConfig) -> TimingReport {
        let _span = obsv::span("timing.analyze");
        let mut run = self.begin(config, trace.thread_count());
        run.push_events(trace.events()).expect("a trace's events name only its own threads");
        run.report()
    }

    /// Streaming variant of [`Analyzer::analyze`]: one forward pass over
    /// `source` (e.g. a [`MappedTrace`](mem_trace::mmapio::MappedTrace)
    /// source), constant memory beyond the engine's block tables.
    ///
    /// # Errors
    ///
    /// Propagates the source's decode/I/O errors.
    pub fn analyze_source<E: EventSource>(
        &mut self,
        mut source: E,
        config: &AnalysisConfig,
    ) -> io::Result<TimingReport> {
        let _span = obsv::span("timing.analyze");
        let mut run = self.begin(config, source.thread_count());
        mem_trace::for_each_slab(&mut source, |slab| run.push_events(slab))?;
        Ok(run.report())
    }

    /// Begins an incremental analysis: the caller pushes event blocks
    /// through [`engine::Run::push_events`] in stream order and takes the
    /// [`report`](TimingRun::report). Equivalent to
    /// [`analyze_source`](Analyzer::analyze_source) over the concatenated
    /// blocks.
    pub(crate) fn begin(&mut self, config: &AnalysisConfig, nthreads: u32) -> TimingRun<'_> {
        engine::Run::begin(config, nthreads, LevelDomain::default(), &mut self.scratch)
    }
}

/// An in-progress incremental critical-path analysis (see
/// [`Analyzer::begin`]).
pub(crate) type TimingRun<'s> = engine::Run<'s, LevelDomain>;

impl TimingRun<'_> {
    /// Completes the run.
    pub(crate) fn report(self) -> TimingReport {
        let config = self.config;
        let (dom, stats) = self.finish();
        if obsv::enabled() {
            obsv::counter_add("timing.analyses", 1);
            obsv::observe("timing.critical_path", dom.max_level);
        }
        TimingReport { config, critical_path: dom.max_level, persist_nodes: dom.nodes, stats }
    }
}

/// Reusable working state for analyses run as model lanes of one walk
/// (see [`ModelLanes`]).
pub(crate) struct LaneAnalyzer {
    scratch: engine::Scratch<ModelLanes>,
}

impl LaneAnalyzer {
    pub(crate) fn new() -> Self {
        LaneAnalyzer { scratch: engine::Scratch::new(&ModelLanes::new(&[])) }
    }

    /// Begins one walk whose lane *k* analyzes `configs[k]`.
    ///
    /// # Panics
    ///
    /// Panics if `configs` is empty, holds more than [`MODEL_LANES`]
    /// configs, or holds two that differ in anything but the model.
    pub(crate) fn begin(&mut self, configs: &[AnalysisConfig], nthreads: u32) -> LaneRun<'_> {
        engine::Run::begin_lanes(configs, nthreads, ModelLanes::new(configs), &mut self.scratch)
    }
}

/// An in-progress model-lane analysis (see [`LaneAnalyzer::begin`]).
pub(crate) type LaneRun<'s> = engine::Run<'s, ModelLanes>;

impl LaneRun<'_> {
    /// Completes the walk: one report per lane, in lane order, each equal
    /// to [`Analyzer::analyze_source`]'s for its config. Only the critical
    /// path and the coalescing counts differ between lanes; every other
    /// statistic is a property of the trace.
    pub(crate) fn reports(self) -> Vec<TimingReport> {
        let (dom, stats) = self.finish();
        dom.configs
            .iter()
            .enumerate()
            .map(|(k, &config)| {
                let coalesced = dom.coalesced[k];
                if obsv::enabled() {
                    obsv::counter_add("timing.analyses", 1);
                    obsv::observe("timing.critical_path", dom.max_level[k]);
                }
                TimingReport {
                    config,
                    critical_path: dom.max_level[k],
                    persist_nodes: stats.persist_ops - coalesced,
                    stats: EngineStats { coalesced, ..stats },
                }
            })
            .collect()
    }
}

impl Default for Analyzer {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for Analyzer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Analyzer").finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Model;
    use mem_trace::{FreeRunScheduler, ThreadCtx, TracedMem};
    use persist_mem::{AtomicPersistSize, MemAddr, TrackingGranularity};

    fn cfg(model: Model) -> AnalysisConfig {
        AnalysisConfig::new(model)
    }

    fn run1(f: impl Fn(&ThreadCtx<'_, FreeRunScheduler>) + Sync) -> Trace {
        TracedMem::new(FreeRunScheduler).run(1, f)
    }

    #[test]
    fn strict_serializes_program_order() {
        let t = run1(|ctx| {
            let a = ctx.palloc(256, 64).unwrap();
            for i in 0..10 {
                ctx.store_u64(a.add(8 * i), i);
            }
        });
        assert_eq!(analyze(&t, &cfg(Model::Strict)).critical_path, 10);
    }

    #[test]
    fn epoch_allows_concurrency_within_epoch() {
        let t = run1(|ctx| {
            let a = ctx.palloc(256, 64).unwrap();
            for i in 0..5 {
                ctx.store_u64(a.add(8 * i), i);
            }
            ctx.persist_barrier();
            for i in 5..10 {
                ctx.store_u64(a.add(8 * i), i);
            }
        });
        let r = analyze(&t, &cfg(Model::Epoch));
        assert_eq!(r.critical_path, 2);
        assert_eq!(r.persist_nodes, 10);
        assert_eq!(r.stats.persist_ops, 10);
    }

    #[test]
    fn volatile_stores_are_not_persists() {
        let t = run1(|ctx| {
            for i in 0..10 {
                ctx.store_u64(MemAddr::volatile(8 * i), i);
            }
        });
        let r = analyze(&t, &cfg(Model::Strict));
        assert_eq!(r.critical_path, 0);
        assert_eq!(r.stats.persist_ops, 0);
    }

    #[test]
    fn strong_persist_atomicity_orders_same_address() {
        // Two persists to the same word, no barrier: same epoch, but SPA
        // serializes (or coalesces) them. With distinct values they try to
        // coalesce — which is allowed here (no intervening dependence).
        let t = run1(|ctx| {
            let a = ctx.palloc(64, 8).unwrap();
            ctx.store_u64(a, 1);
            ctx.store_u64(a, 2);
        });
        let r = analyze(&t, &cfg(Model::Epoch));
        assert_eq!(r.critical_path, 1); // coalesced
        assert_eq!(r.stats.coalesced, 1);
    }

    #[test]
    fn coalescing_blocked_by_intervening_dependence() {
        // persist A; barrier; persist B (elsewhere); barrier; persist A
        // again. The second A-persist depends on B (level 2) which is newer
        // than the first A-persist (level 1), so it cannot coalesce.
        let t = run1(|ctx| {
            let a = ctx.palloc(64, 8).unwrap();
            let b = ctx.palloc(64, 8).unwrap();
            ctx.store_u64(a, 1);
            ctx.persist_barrier();
            ctx.store_u64(b, 1);
            ctx.persist_barrier();
            ctx.store_u64(a, 2);
        });
        let r = analyze(&t, &cfg(Model::Epoch));
        assert_eq!(r.critical_path, 3);
        assert_eq!(r.stats.coalesced, 0);
    }

    #[test]
    fn coalescing_allowed_across_barrier_to_same_address() {
        // persist A; barrier; persist A: merging them persists atomically,
        // which cannot violate the barrier (the paper's head-pointer
        // coalescing relies on this).
        let t = run1(|ctx| {
            let a = ctx.palloc(64, 8).unwrap();
            ctx.store_u64(a, 1);
            ctx.persist_barrier();
            ctx.store_u64(a, 2);
        });
        let r = analyze(&t, &cfg(Model::Epoch));
        assert_eq!(r.critical_path, 1);
        assert_eq!(r.stats.coalesced, 1);
    }

    #[test]
    fn large_atomic_persists_coalesce_under_strict() {
        // Figure 4's effect: sequential stores to one 64-byte block
        // coalesce into a single persist under strict persistency when the
        // atomic persist granularity covers the block.
        let t = run1(|ctx| {
            let a = ctx.palloc(64, 64).unwrap();
            for i in 0..8 {
                ctx.store_u64(a.add(8 * i), i);
            }
        });
        let small = analyze(&t, &cfg(Model::Strict));
        assert_eq!(small.critical_path, 8);
        let big = analyze(
            &t,
            &cfg(Model::Strict).with_atomic_persist(AtomicPersistSize::new(64).unwrap()),
        );
        assert_eq!(big.critical_path, 1);
        assert_eq!(big.stats.coalesced, 7);
    }

    #[test]
    fn coarse_tracking_reintroduces_constraints_for_epoch() {
        // Figure 5's effect: with 64-byte tracking, persists to adjacent
        // words in one epoch conflict (false sharing) and serialize.
        let t = run1(|ctx| {
            let a = ctx.palloc(64, 64).unwrap();
            for i in 0..8 {
                ctx.store_u64(a.add(8 * i), i);
            }
        });
        let fine = analyze(&t, &cfg(Model::Epoch));
        assert_eq!(fine.critical_path, 1);
        let coarse = analyze(
            &t,
            &cfg(Model::Epoch).with_tracking(TrackingGranularity::new(64).unwrap()),
        );
        assert_eq!(coarse.critical_path, 8);
    }

    #[test]
    fn strand_clears_dependences() {
        let t = run1(|ctx| {
            let a = ctx.palloc(256, 64).unwrap();
            ctx.store_u64(a, 1);
            ctx.persist_barrier();
            ctx.store_u64(a.add(8), 2); // ordered after the first
            ctx.new_strand();
            ctx.store_u64(a.add(16), 3); // fresh strand: concurrent
        });
        let strand = analyze(&t, &cfg(Model::Strand));
        assert_eq!(strand.critical_path, 2);
        // Epoch ignores NewStrand: the third persist is still ordered.
        let epoch = analyze(&t, &cfg(Model::Epoch));
        assert_eq!(epoch.critical_path, 2); // third is in second epoch too
        let strict = analyze(&t, &cfg(Model::Strict));
        assert_eq!(strict.critical_path, 3);
    }

    #[test]
    fn strand_spa_still_orders_same_address() {
        let t = run1(|ctx| {
            let a = ctx.palloc(64, 8).unwrap();
            ctx.store_u64(a, 1);
            ctx.persist_barrier();
            ctx.store_u64(a.add(8), 2);
            ctx.new_strand();
            // Same address as the level-2 persist: SPA orders (here:
            // coalesces, since the strand has no other dependence).
            ctx.store_u64(a.add(8), 3);
        });
        let r = analyze(&t, &cfg(Model::Strand));
        assert_eq!(r.critical_path, 2);
        assert_eq!(r.stats.coalesced, 1);
    }

    #[test]
    fn strand_read_then_barrier_orders_new_persists() {
        // §5.3: "a persist strand begins by reading persisted memory
        // locations after which new persists must be ordered", enforced
        // with a subsequent persist barrier.
        let t = run1(|ctx| {
            let a = ctx.palloc(64, 8).unwrap();
            let b = ctx.palloc(64, 8).unwrap();
            ctx.store_u64(a, 1); // level 1
            ctx.new_strand();
            ctx.load_u64(a); // adopt a's persist
            ctx.persist_barrier();
            ctx.store_u64(b, 2); // must be level 2
        });
        let r = analyze(&t, &cfg(Model::Strand));
        assert_eq!(r.critical_path, 2);
    }

    #[test]
    fn strand_read_without_barrier_leaves_persist_concurrent() {
        let t = run1(|ctx| {
            let a = ctx.palloc(64, 8).unwrap();
            let b = ctx.palloc(64, 8).unwrap();
            ctx.store_u64(a, 1);
            ctx.new_strand();
            ctx.load_u64(a); // read lands in `cur`…
            ctx.store_u64(b, 2); // …but no barrier: still concurrent
        });
        let r = analyze(&t, &cfg(Model::Strand));
        assert_eq!(r.critical_path, 1);
    }

    #[test]
    fn bpfs_misses_load_before_store_race() {
        // Thread 0: persist A, barrier, then read flag F (volatile).
        // Thread 1: write F, barrier, then persist B.
        // Under SC conflict detection (epoch model), B is ordered after A:
        // t0's read of F carries A (barrier-separated), and t1's write of F
        // conflicts-after that read (a load-before-store race). BPFS's
        // write-record-only detection on the persistent space misses this.
        use mem_trace::TraceBuilder;
        let a = MemAddr::persistent(64);
        let b = MemAddr::persistent(128);
        let f = MemAddr::volatile(0);
        let mut tb = TraceBuilder::new(2);
        tb.store(0, a, 1);
        tb.persist_barrier(0);
        tb.load(0, f, 0);
        tb.store(1, f, 1);
        tb.persist_barrier(1);
        tb.store(1, b, 1);
        let t = tb.build();
        t.validate_sc().unwrap();
        assert_eq!(analyze(&t, &cfg(Model::Epoch)).critical_path, 2);
        assert_eq!(analyze(&t, &cfg(Model::Bpfs)).critical_path, 1);
    }

    #[test]
    fn bpfs_misses_persistent_load_before_store() {
        // Same race entirely inside the persistent address space: the first
        // access to X is a load, the second a store. BPFS records only the
        // last *persist* per line, so the R→W conflict goes undetected —
        // exactly the §5.2 observation that BPFS detects conflicts per TSO
        // rather than SC.
        use mem_trace::TraceBuilder;
        let a = MemAddr::persistent(64);
        let x = MemAddr::persistent(128);
        let mut tb = TraceBuilder::new(2);
        tb.store(0, a, 1);
        tb.persist_barrier(0);
        tb.load(0, x, 0); // reads X before t1 writes it
        tb.store(1, x, 7);
        let t = tb.build();
        t.validate_sc().unwrap();
        // Epoch: t1's persist of X is ordered after t0's read, hence after
        // A; a new level is required.
        assert_eq!(analyze(&t, &cfg(Model::Epoch)).critical_path, 2);
        // BPFS: no record of the read; X's persist is unordered w.r.t. A.
        assert_eq!(analyze(&t, &cfg(Model::Bpfs)).critical_path, 1);
    }

    #[test]
    fn epoch_same_epoch_accesses_are_unordered() {
        // Within one epoch a persist and a later load are unordered in
        // persistent memory order, so a cross-thread race on the loaded
        // flag inherits nothing (§5.2: epochs are not serializable).
        use mem_trace::TraceBuilder;
        let a = MemAddr::persistent(64);
        let b = MemAddr::persistent(128);
        let f = MemAddr::volatile(0);
        let mut tb = TraceBuilder::new(2);
        tb.store(0, a, 1);
        tb.load(0, f, 0); // same epoch as the persist: unordered
        tb.store(1, f, 1);
        tb.persist_barrier(1);
        tb.store(1, b, 1);
        let t = tb.build();
        t.validate_sc().unwrap();
        assert_eq!(analyze(&t, &cfg(Model::Epoch)).critical_path, 1);
        // Strict orders everything through program order.
        assert_eq!(analyze(&t, &cfg(Model::Strict)).critical_path, 2);
    }

    #[test]
    fn cross_thread_inheritance_through_volatile_flag() {
        // Message passing: t0 persists A then sets a volatile flag; t1
        // observes the flag, barriers, persists B. Epoch orders B after A.
        use mem_trace::TraceBuilder;
        let a = MemAddr::persistent(64);
        let b = MemAddr::persistent(128);
        let f = MemAddr::volatile(0);
        let mut tb = TraceBuilder::new(2);
        tb.store(0, a, 1);
        tb.persist_barrier(0);
        tb.store(0, f, 1); // flag write carries A's constraint
        tb.load(1, f, 1); // t1 observes
        tb.persist_barrier(1);
        tb.store(1, b, 1);
        let t = tb.build();
        t.validate_sc().unwrap();
        assert_eq!(analyze(&t, &cfg(Model::Epoch)).critical_path, 2);
        // Strand ignores volatile conflicts entirely.
        assert_eq!(analyze(&t, &cfg(Model::Strand)).critical_path, 1);
    }

    #[test]
    fn strict_rmo_orders_only_across_memory_barriers() {
        let t = run1(|ctx| {
            let a = ctx.palloc(256, 64).unwrap();
            ctx.store_u64(a, 1);
            ctx.store_u64(a.add(8), 2); // no barrier: concurrent under RMO
            ctx.mem_barrier();
            ctx.store_u64(a.add(16), 3); // ordered after both
        });
        let rmo = analyze(&t, &cfg(Model::StrictRmo));
        assert_eq!(rmo.critical_path, 2);
        // SC-strict orders everything by program order.
        assert_eq!(analyze(&t, &cfg(Model::Strict)).critical_path, 3);
    }

    #[test]
    fn strict_rmo_ignores_persist_barriers() {
        // §5.1: strict persistency has no persist barriers — ordering comes
        // from the consistency model's own barriers.
        let t = run1(|ctx| {
            let a = ctx.palloc(256, 64).unwrap();
            ctx.store_u64(a, 1);
            ctx.persist_barrier(); // meaningless under strict-rmo
            ctx.store_u64(a.add(8), 2);
        });
        assert_eq!(analyze(&t, &cfg(Model::StrictRmo)).critical_path, 1);
        assert_eq!(analyze(&t, &cfg(Model::Epoch)).critical_path, 2);
    }

    #[test]
    fn mem_barriers_do_not_constrain_relaxed_persistency() {
        // §4.2: store visibility and persist order are enforced separately;
        // persists may reorder across store barriers.
        let t = run1(|ctx| {
            let a = ctx.palloc(256, 64).unwrap();
            ctx.store_u64(a, 1);
            ctx.mem_barrier();
            ctx.store_u64(a.add(8), 2);
        });
        assert_eq!(analyze(&t, &cfg(Model::Epoch)).critical_path, 1);
        assert_eq!(analyze(&t, &cfg(Model::Strand)).critical_path, 1);
        assert_eq!(analyze(&t, &cfg(Model::StrictRmo)).critical_path, 2);
    }

    #[test]
    fn persist_sync_orders_under_every_model() {
        let t = run1(|ctx| {
            let a = ctx.palloc(256, 64).unwrap();
            ctx.store_u64(a, 1);
            ctx.persist_sync();
            ctx.store_u64(a.add(8), 2);
        });
        for model in Model::ALL {
            assert_eq!(analyze(&t, &cfg(model)).critical_path, 2, "model {model}");
        }
    }

    #[test]
    fn per_work_accounting() {
        let t = run1(|ctx| {
            let a = ctx.palloc(1024, 64).unwrap();
            for w in 0..4u64 {
                ctx.work_begin(w);
                ctx.store_u64(a.add(64 * w), w);
                ctx.persist_barrier();
                ctx.work_end(w);
            }
        });
        let r = analyze(&t, &cfg(Model::Strict));
        assert_eq!(r.stats.work_items, 4);
        assert_eq!(r.critical_path_per_work(), 1.0);
    }

    #[test]
    fn lanes_report_an_out_of_range_thread_like_the_scalar_engine() {
        let mut events = run1(|ctx| {
            let a = ctx.palloc(64, 8).unwrap();
            ctx.store_u64(a, 1);
            ctx.persist_barrier();
            ctx.store_u64(a, 2);
        })
        .events()
        .to_vec();
        events[2].thread = mem_trace::ThreadId(4);
        let trace = Trace::from_events(1, events);
        let configs = Model::ALL.map(cfg);
        for lanes in [&configs[..1], &configs[..]] {
            let scalar = Analyzer::new().analyze_source(trace.source(), &lanes[0]).unwrap_err();
            let mut analyzer = LaneAnalyzer::new();
            let mut run = analyzer.begin(lanes, trace.thread_count());
            let err = run.push_events(trace.events()).unwrap_err();
            assert_eq!(err.kind(), scalar.kind());
            assert_eq!(err.to_string(), scalar.to_string());
        }
    }

    #[test]
    fn models_are_monotonically_relaxed_on_random_single_thread() {
        // strict ≥ epoch ≥ strand on any single-threaded trace.
        use mem_trace::rng::SmallRng;
        let mut rng = SmallRng::seed_from_u64(11);
        let ops: Vec<(u8, u64)> =
            (0..300).map(|_| (rng.gen_index(4) as u8, rng.gen_index(16) as u64)).collect();
        let t = run1(move |ctx| {
            let a = ctx.palloc(256, 64).unwrap();
            for &(kind, slot) in &ops {
                match kind {
                    0 => ctx.store_u64(a.add(8 * slot), slot),
                    1 => {
                        ctx.load_u64(a.add(8 * slot));
                    }
                    2 => ctx.persist_barrier(),
                    _ => ctx.new_strand(),
                }
            }
        });
        let strict = analyze(&t, &cfg(Model::Strict)).critical_path;
        let epoch = analyze(&t, &cfg(Model::Epoch)).critical_path;
        let strand = analyze(&t, &cfg(Model::Strand)).critical_path;
        assert!(strict >= epoch, "strict {strict} < epoch {epoch}");
        assert!(epoch >= strand, "epoch {epoch} < strand {strand}");
    }
}
