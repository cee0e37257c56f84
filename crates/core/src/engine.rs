//! Generic persist-order constraint propagation over a trace.
//!
//! Implements the persistency models' [`Rules`] against any [`Domain`]. A
//! run carries one model per domain lane: the persist DAG runs one, and
//! the timing engine's level domain ([`crate::timing`]'s `Lanes`) runs one
//! to eight — every model of a `psim analyze`, or a profiler's barrier
//! what-ifs — in one walk. Each rule below is a [`Mask`] of the lanes it
//! applies to, derived once per run from each lane's [`Rules`]:
//!
//! - **Thread state**: `prev` holds constraints that order all *future*
//!   persists of the thread; `cur` accumulates constraints observed since
//!   the last barrier. The rules' `folds()` says which barriers fold `cur`
//!   into `prev`, their `order` whether accesses skip `cur`, and
//!   `strands()` whether `NewStrand` clears both.
//! - **Memory state**: each tracking-granularity block records the
//!   constraint carried by its last writer and by readers since that write.
//!   Accesses inherit these per the rules' `conflicts`, in the address
//!   spaces it `tracks`.
//! - **Coalescing**: every persist attempts to coalesce with the last
//!   persist to its atomic-persist block; it may iff none of its incoming
//!   dependences is newer than that persist. Lanes decide this on their
//!   own through [`Domain::persist_onto`], and the run's `coalesced`
//!   count sums them.
//! - **Persist count**: a run holds at most the domain's
//!   [`Domain::MAX_PERSISTS`] persists and returns an error at the next.
//!
//! Every lane of a run shares the trace, the atomic-persist and tracking
//! granularities and the coalescing switch, so block lookups, persist
//! detection and the last-persist table are shared too.

use crate::block_table::BlockTable;
use crate::domain::{Domain, EventRef, Mask, WriteRec};
use crate::rules::{BarrierOp, Conflicts, Order, Rules};
use crate::AnalysisConfig;
use mem_trace::{Event, Op};
use persist_mem::Space;
use std::io;

struct ThreadState<D: Domain> {
    /// Constraints ordering all future persists of this thread.
    prev: D::Dep,
    /// Constraints observed since the last barrier (fold into `prev` at the
    /// next barrier).
    cur: D::Dep,
    /// Currently open work item.
    work: Option<u64>,
}

struct BlockState<D: Domain> {
    /// Constraint carried by the last write to this block.
    writer: D::Dep,
    /// Join of constraints carried by reads since the last write.
    readers: D::Dep,
}

impl<D: Domain> BlockState<D> {
    /// The state of a block no access has touched.
    fn bottom(dom: &D) -> Self {
        BlockState { writer: dom.bottom(), readers: dom.bottom() }
    }
}

/// A run's rules as lane masks: lane *k* follows its model's [`Rules`].
#[derive(Debug, Clone, Copy)]
struct LaneRules<M> {
    /// Accesses order the thread's later persists at once (`prev`).
    every_access: M,
    /// Accesses order them from the next fold on (`cur`).
    epochs: M,
    /// `PersistBarrier` folds the epoch.
    persist_barrier: M,
    /// `PersistSync` folds the epoch.
    persist_sync: M,
    /// `MemBarrier` folds the epoch.
    mem_barrier: M,
    /// `NewStrand` clears the thread's ordering state.
    strands: M,
    /// Conflict rules in the volatile address space.
    volatile: SpaceRules<M>,
    /// Conflict rules in the persistent address space.
    persistent: SpaceRules<M>,
}

/// The conflict rules of one address space.
#[derive(Debug, Clone, Copy)]
struct SpaceRules<M> {
    /// Some lane tracks this space: its blocks are looked up at all.
    tracked: bool,
    /// A write records its constraint as the block's last write.
    writes: M,
    /// Reads since the last write are recorded, and order later writes.
    readers: M,
    /// A persist records itself as the block's last write.
    last_persist: M,
}

impl<M: Mask> LaneRules<M> {
    fn new(lanes: &[Rules]) -> Self {
        let of = |f: &dyn Fn(Rules) -> bool| M::of(lanes, f);
        let space = |space: Space| {
            let conflicts = |f: fn(Conflicts) -> bool| of(&|r| r.tracks(space) && f(r.conflicts));
            SpaceRules {
                tracked: lanes.iter().any(|r| r.tracks(space)),
                writes: conflicts(|c| c != Conflicts::LastPersist),
                readers: conflicts(|c| c == Conflicts::Sc),
                last_persist: conflicts(|c| c == Conflicts::LastPersist),
            }
        };
        LaneRules {
            every_access: of(&|r| r.order == Order::EveryAccess),
            epochs: of(&|r| r.order != Order::EveryAccess),
            persist_barrier: of(&|r| r.folds(BarrierOp::PersistBarrier)),
            persist_sync: of(&|r| r.folds(BarrierOp::PersistSync)),
            mem_barrier: of(&|r| r.folds(BarrierOp::MemBarrier)),
            strands: of(&|r| r.strands()),
            volatile: space(Space::Volatile),
            persistent: space(Space::Persistent),
        }
    }

    #[inline]
    fn space(&self, space: Space) -> &SpaceRules<M> {
        match space {
            Space::Volatile => &self.volatile,
            Space::Persistent => &self.persistent,
        }
    }
}

/// Aggregate statistics from an engine run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Number of persist operations (stores/RMWs to persistent space).
    pub persist_ops: u64,
    /// Persist operations that coalesced into an earlier persist, summed
    /// over the run's lanes.
    pub coalesced: u64,
    /// Completed work items (`WorkEnd` markers).
    pub work_items: u64,
    /// Total events processed.
    pub events: u64,
    /// Persist barriers seen.
    pub barriers: u64,
    /// Strand barriers seen.
    pub strands: u64,
}

/// Reusable engine working state.
///
/// The block tables and per-thread dependence values dominate the engine's
/// allocation profile; keeping a `Scratch` alive across runs (the block
/// tables' pages, dependence buffers) lets sweep loops analyze thousands
/// of traces without re-growing them each time.
pub(crate) struct Scratch<D: Domain> {
    threads: Vec<ThreadState<D>>,
    /// Conflict state per tracking-granularity block.
    blocks: BlockTable<BlockState<D>>,
    /// The last persist to each atomic-persist block, while it may still
    /// be coalesced into.
    last_persist: BlockTable<Option<D::PRef>>,
    /// Per-event incoming-constraint accumulator.
    input: D::Dep,
    /// Per-event outgoing-constraint accumulator.
    out: D::Dep,
}

impl<D: Domain> Scratch<D> {
    pub(crate) fn new(dom: &D) -> Self {
        Scratch {
            threads: Vec::new(),
            blocks: BlockTable::new(),
            last_persist: BlockTable::new(),
            input: dom.bottom(),
            out: dom.bottom(),
        }
    }

    /// Clears analysis state while keeping allocated capacity for the next
    /// run.
    pub(crate) fn reset(&mut self, dom: &D, thread_count: usize) {
        self.blocks.reset(|| BlockState::bottom(dom));
        self.last_persist.reset(|| None);
        self.threads.clear();
        self.threads.resize_with(thread_count, || ThreadState {
            prev: dom.bottom(),
            cur: dom.bottom(),
            work: None,
        });
    }
}

/// Mutable per-run bookkeeping of a [`Run`].
#[derive(Debug, Default)]
struct RunState {
    stats: EngineStats,
    next_index: usize,
}

/// One engine pass: [`Run::begin`] resets the scratch for the trace's
/// threads, event blocks are pushed in stream order, and [`Run::finish`]
/// hands back the domain and statistics. However the stream is cut into
/// blocks, the result is the same. Every consumer — in-memory traces,
/// streaming sources, the partition driver — feeds the engine this way.
pub(crate) struct Run<'s, D: Domain> {
    /// The configuration of lane 0; every lane shares its non-model
    /// fields.
    config: AnalysisConfig,
    rules: LaneRules<D::Mask>,
    nthreads: usize,
    dom: D,
    scratch: &'s mut Scratch<D>,
    state: RunState,
}

impl<'s, D: Domain> Run<'s, D> {
    /// Begins a run whose lane *k* analyzes `lanes[k]`.
    ///
    /// # Panics
    ///
    /// Panics if `lanes` is empty, if two lanes differ in anything but
    /// their model, or if the domain's mask cannot hold `lanes.len()`
    /// models.
    pub(crate) fn begin(
        lanes: &[AnalysisConfig],
        nthreads: u32,
        dom: D,
        scratch: &'s mut Scratch<D>,
    ) -> Self {
        let config = lanes[0];
        assert!(
            lanes.iter().all(|c| AnalysisConfig { model: c.model, ..config } == *c),
            "model lanes share every configuration field but the model"
        );
        let rules: Vec<Rules> = lanes.iter().map(|c| c.model.rules()).collect();
        scratch.reset(&dom, nthreads as usize);
        Run {
            config,
            rules: LaneRules::new(&rules),
            nthreads: nthreads as usize,
            dom,
            scratch,
            state: RunState::default(),
        }
    }

    /// Propagates one event block, in stream order.
    ///
    /// # Errors
    ///
    /// Returns `InvalidData` if an event names a thread outside the run's
    /// thread count, or at the persist that would pass the domain's
    /// [`Domain::MAX_PERSISTS`].
    pub(crate) fn push_events(&mut self, events: &[Event]) -> io::Result<()> {
        push_events(
            &self.config,
            &self.rules,
            self.nthreads,
            &mut self.dom,
            self.scratch,
            &mut self.state,
            events,
        )
    }

    /// Ends the run, emitting the end-of-run observability counters
    /// (aggregate-only: totals are a function of the trace and config,
    /// never of scheduling, so the merged snapshot stays deterministic).
    /// A run counts once however many lanes it carries. `block_pages`
    /// and `block_spill` are the pages and spilled blocks both block
    /// tables hold at the end: the run's table memory.
    pub(crate) fn finish(self) -> (D, EngineStats) {
        let stats = self.state.stats;
        if obsv::enabled() {
            let Scratch { blocks, last_persist, .. } = &*self.scratch;
            let pages = blocks.pages() + last_persist.pages();
            let spill = blocks.spilled() + last_persist.spilled();
            obsv::counter_add("engine.runs", 1);
            obsv::counter_add("engine.events", stats.events);
            obsv::counter_add("engine.persists", stats.persist_ops);
            obsv::counter_add("engine.coalesced", stats.coalesced);
            obsv::counter_add("engine.barriers", stats.barriers);
            obsv::counter_add("engine.block_pages", pages as u64);
            obsv::counter_add("engine.block_spill", spill as u64);
            obsv::observe("engine.events_per_run", stats.events);
        }
        (self.dom, stats)
    }
}

/// Propagates one decoded event block through the engine — the single
/// monomorphized hot loop every [`Run`] funnels through. Separate `&mut`
/// arguments tell the optimizer the engine state and the counters never
/// alias. `scratch` must have been [`Scratch::reset`] for this run.
///
/// # Errors
///
/// Returns `InvalidData` if an event names a thread `>= nthreads`, or at
/// the persist that would pass [`Domain::MAX_PERSISTS`].
fn push_events<D: Domain>(
    config: &AnalysisConfig,
    rules: &LaneRules<D::Mask>,
    nthreads: usize,
    dom: &mut D,
    scratch: &mut Scratch<D>,
    state: &mut RunState,
    events: &[Event],
) -> io::Result<()> {
    let tracking = config.tracking;
    let atomic = config.atomic_persist;

    let Scratch { threads, blocks, last_persist, input, out } = scratch;
    let stats = &mut state.stats;

    for &e in events {
        let index = state.next_index;
        state.next_index += 1;
        stats.events += 1;
        let t = e.thread.index();
        if t >= nthreads {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("event {index} names thread {t}, but the trace has {nthreads} threads"),
            ));
        }
        match e.op {
            Op::Load { addr, len, .. } | Op::Store { addr, len, .. } | Op::Rmw { addr, len, .. } => {
                let is_write = e.op.is_write();
                let is_persist = e.op.is_persist();

                // 1. Incoming constraint: thread program-order component
                //    plus conflict inheritance from the touched blocks.
                //
                //    Accesses almost always fit one tracked block; that
                //    path resolves the block's slot ONCE and holds it
                //    across the persist step. Spanning accesses take the
                //    general two-pass walk, whose first pass creates no
                //    block.
                input.clone_from(&threads[t].prev);
                let single = tracking.contains_access(addr, len as u64);
                let mut fast: Option<(&mut BlockState<D>, &SpaceRules<D::Mask>)> = None;
                if single {
                    let blk = tracking.block_of(addr);
                    let space = rules.space(blk.space);
                    if space.tracked {
                        let bs = blocks.slot(blk.to_bits(), || BlockState::bottom(dom));
                        inherit(dom, space, input, bs, is_write);
                        fast = Some((bs, space));
                    }
                } else {
                    for blk in tracking.blocks_of(addr, len as u64) {
                        let space = rules.space(blk.space);
                        if !space.tracked {
                            continue;
                        }
                        if let Some(bs) = blocks.get(blk.to_bits()) {
                            inherit(dom, space, input, bs, is_write);
                        }
                    }
                }

                // 2. The persist itself: coalesce or create. A non-persist
                //    access leaves the constraint unchanged, so `out` is
                //    only materialized (copied) on the persist path; other
                //    events use `input` directly.
                let mut persist_ref: Option<D::PRef> = None;
                if is_persist {
                    if stats.persist_ops == D::MAX_PERSISTS {
                        let max = D::MAX_PERSISTS;
                        let msg = format!("event {index} exceeds the analysis's limit of {max} persists");
                        return Err(io::Error::new(io::ErrorKind::InvalidData, msg));
                    }
                    out.clone_from(input);
                    stats.persist_ops += 1;
                    let w = WriteRec {
                        addr,
                        len,
                        value: e.op.written_value().expect("persist writes a value"),
                    };
                    let ev = EventRef { index, thread: e.thread, work: threads[t].work };
                    let p = if atomic.contains_access(addr, len as u64) {
                        let last = last_persist.slot(atomic.block_of(addr).to_bits(), || None);
                        let p = match *last {
                            Some(target) if config.coalescing => {
                                let (p, coalesced) = dom.persist_onto(input, target, w, ev);
                                stats.coalesced += coalesced;
                                p
                            }
                            _ => dom.new_persist(input, w, ev),
                        };
                        *last = Some(p);
                        p
                    } else {
                        // A persist spanning atomic blocks is not atomic
                        // with respect to failure: it never coalesces, and
                        // nothing may coalesce with it.
                        let p = dom.new_persist(input, w, ev);
                        for ab in atomic.blocks_of(addr, len as u64) {
                            if let Some(last) = last_persist.get_mut(ab.to_bits()) {
                                *last = None;
                            }
                        }
                        p
                    };
                    dom.join_pref(out, p);
                    persist_ref = Some(p);
                }
                let out: &D::Dep = if is_persist { out } else { input };

                // 3. Update block state.
                if single {
                    if let Some((bs, space)) = fast {
                        update(dom, space, out, bs, is_write, persist_ref);
                    }
                } else {
                    for blk in tracking.blocks_of(addr, len as u64) {
                        let space = rules.space(blk.space);
                        if !space.tracked {
                            continue;
                        }
                        let bs = blocks.slot(blk.to_bits(), || BlockState::bottom(dom));
                        update(dom, space, out, bs, is_write, persist_ref);
                    }
                }

                // 4. Update thread state: the access orders the thread's
                //    later persists now, or at the next barrier.
                let ThreadState { prev, cur, .. } = &mut threads[t];
                dom.join_where(prev, out, rules.every_access);
                dom.join_where(cur, out, rules.epochs);
            }
            Op::PersistBarrier => {
                stats.barriers += 1;
                // Persistency coupled to relaxed consistency has no persist
                // barriers of its own.
                let ThreadState { prev, cur, .. } = &mut threads[t];
                dom.fold_where(prev, cur, index, rules.persist_barrier);
            }
            Op::PersistSync => {
                // A sync stalls execution until persists drain, which
                // orders every earlier persist before every later one
                // under any model that has an epoch to fold.
                stats.barriers += 1;
                let ThreadState { prev, cur, .. } = &mut threads[t];
                dom.fold_where(prev, cur, index, rules.persist_sync);
            }
            Op::MemBarrier => {
                // A consistency barrier orders store visibility, which is
                // persist order only where persistency is coupled to it
                // (§4.2).
                let ThreadState { prev, cur, .. } = &mut threads[t];
                dom.fold_where(prev, cur, index, rules.mem_barrier);
            }
            Op::NewStrand => {
                stats.strands += 1;
                let ThreadState { prev, cur, .. } = &mut threads[t];
                dom.reset_where(prev, rules.strands);
                dom.reset_where(cur, rules.strands);
            }
            Op::WorkBegin { id } => threads[t].work = Some(id),
            Op::WorkEnd { .. } => {
                stats.work_items += 1;
                threads[t].work = None;
            }
            Op::PAlloc { .. } | Op::PFree { .. } => {}
        }
    }
    Ok(())
}

/// Folds the conflict constraints a block's state imposes on an incoming
/// access into `input`: every access is ordered after the block's last
/// write record, and under SC conflicts a write also after every read
/// since (load-before-store).
///
/// The last-write join needs no mask: a lane that does not track this
/// space never records into the block, so its part of `writer` stays
/// bottom.
#[inline]
fn inherit<D: Domain>(
    dom: &mut D,
    space: &SpaceRules<D::Mask>,
    input: &mut D::Dep,
    bs: &BlockState<D>,
    is_write: bool,
) {
    dom.join(input, &bs.writer);
    if is_write {
        dom.join_where(input, &bs.readers, space.readers);
    }
}

/// Records an access's outgoing constraint in a block's state, per lane
/// by its conflict rule:
///
/// - SC conflicts keep the last write and the reads since;
/// - persistent writes keep the last write only: reads leave no record,
///   the R→W race BPFS's per-line epoch tags miss;
/// - last persist keeps only the persist itself: reads inherit the last
///   persist (the §5.3 "read then barrier then persist" idiom), but
///   non-persist context never flows through memory.
#[inline]
fn update<D: Domain>(
    dom: &mut D,
    space: &SpaceRules<D::Mask>,
    out: &D::Dep,
    bs: &mut BlockState<D>,
    is_write: bool,
    persist_ref: Option<D::PRef>,
) {
    if is_write {
        dom.assign_where(&mut bs.writer, out, space.writes);
        // The write's constraint dominates prior readers (they fed its
        // input).
        dom.reset_where(&mut bs.readers, space.readers);
    } else {
        dom.join_where(&mut bs.readers, out, space.readers);
    }
    if let Some(p) = persist_ref {
        dom.assign_pref_where(&mut bs.writer, p, space.last_persist);
    }
}

#[cfg(test)]
mod tests {
    use crate::block_table::{DENSE_BLOCKS, PAGE_BLOCKS};
    use crate::dag::PersistDag;
    use crate::partition::{self, TraceChunks};
    use crate::timing::{self, Lanes, TimingReport};
    use crate::{profile, AnalysisConfig, Model};
    use mem_trace::{Op, Trace, TraceBuilder};
    use persist_mem::{MemAddr, TrackingGranularity};
    use std::io;

    /// Largest granularity the tests use: translating by a multiple of
    /// `PAGE_BLOCKS` of these keeps every block on the same page slot.
    const GRAN: u64 = 8;

    /// A two-thread trace around byte 512 — block 63|64 at the default
    /// 8-byte granularities, a block-table page boundary — with every
    /// address `shift` bytes up.
    ///
    /// `A1` and `A2` persist into atomic blocks 63 and 64; the 8-byte
    /// store `S` spans both, so neither may be coalesced into afterwards.
    /// With 4-byte tracking `S` conflicts with neither, so `P1` and `P2`
    /// coalesce into `A1` and `A2` exactly when `S` is left out or fails
    /// to clear a block. Loads and stores spanning fresh pages take the
    /// engine's two-pass path.
    fn boundary_trace(shift: u64, spanning: bool) -> Trace {
        let p = |off: u64| MemAddr::persistent(shift + off);
        let v = |off: u64| MemAddr::volatile(shift + off);
        let store = |addr, len, value| Op::Store { addr, len, value };
        let load = |addr, len| Op::Load { addr, len, value: 0 };
        let mut b = TraceBuilder::new(2);
        b.op(0, store(p(504), 4, 1)); // A1
        b.op(0, store(p(516), 4, 2)); // A2
        b.op(1, load(p(1020), 8));
        b.op(1, Op::Rmw { addr: v(508), len: 8, old: 0, new: 1 });
        if spanning {
            b.op(1, store(p(508), 8, 3)); // S
        }
        b.op(0, store(p(504), 4, 4)); // P1
        b.op(0, store(p(516), 4, 5)); // P2
        b.persist_barrier(0);
        b.op(0, load(v(508), 8));
        b.op(0, load(p(508), 8));
        b.op(0, store(p(1020), 8, 6));
        b.op(1, store(p(512), 4, 7));
        b.persist_barrier(1).new_strand(1);
        b.op(1, store(p(1016), 8, 8));
        b.build()
    }

    fn configs(tracking: u64) -> Vec<AnalysisConfig> {
        let tracking = TrackingGranularity::new(tracking).unwrap();
        Model::ALL.iter().map(|&m| AnalysisConfig { tracking, ..AnalysisConfig::new(m) }).collect()
    }

    fn unshift(addr: MemAddr, shift: u64) -> MemAddr {
        MemAddr::new(addr.space(), addr.offset() - shift)
    }

    /// Everything the engine's consumers report for `trace` under
    /// `configs`, with addresses moved `shift` bytes back down.
    fn outputs(trace: &Trace, configs: &[AnalysisConfig], shift: u64) -> Vec<String> {
        let mut out = Vec::new();
        let scalar: Vec<TimingReport> = configs.iter().map(|c| timing::analyze(trace, c)).collect();
        let (_, lanes) =
            partition::analyze_full(&TraceChunks::new(trace, 5), configs, 1).expect("analyze");
        assert_eq!(lanes, scalar, "lane walk equals the scalar walks");
        out.push(format!("{scalar:?}"));
        for c in configs {
            let dag = PersistDag::build(trace, c).expect("dag");
            let nodes: Vec<_> = (0..dag.len() as u32)
                .zip(dag.nodes())
                .map(|(id, n)| {
                    let writes: Vec<_> =
                        n.writes.iter().map(|w| (unshift(w.addr, shift), w.len, w.value)).collect();
                    (dag.deps(id).to_vec(), writes, n.events.to_vec(), n.thread)
                })
                .collect();
            out.push(format!("{nodes:?} {:?} {}", dag.stats(), dag.critical_path()));
            let mut report = profile::profile(trace, c, 64).expect("profile");
            for step in &mut report.path {
                step.addr = unshift(step.addr, shift);
            }
            out.push(format!("{report:?}"));
        }
        out
    }

    /// Moving the trace by whole pages, to the last dense page (block 63
    /// dense, block 64 spilled) and past the dense cap changes no
    /// output, under every model at both tracking granularities.
    #[test]
    fn page_translation_changes_no_output() {
        let span = PAGE_BLOCKS * GRAN;
        for tracking in [8, 4] {
            let configs = configs(tracking);
            let base = outputs(&boundary_trace(0, true), &configs, 0);
            for shift in [3 * span, DENSE_BLOCKS * GRAN - span, 2 * DENSE_BLOCKS * GRAN] {
                let moved = outputs(&boundary_trace(shift, true), &configs, shift);
                for (b, m) in base.iter().zip(&moved) {
                    assert_eq!(b, m, "tracking {tracking}, shift {shift:#x}");
                }
            }
        }
    }

    /// The spanning persist clears the last persist of both atomic blocks,
    /// on both sides of the page boundary, at every translation. Under
    /// epoch persistency with 4-byte tracking, `P1` and `P2` coalesce into
    /// `A1` and `A2` only without it; the later store to byte 512
    /// coalesces into whatever block 64 last holds either way.
    #[test]
    fn spanning_persist_clears_both_pages() {
        let epoch = AnalysisConfig {
            tracking: TrackingGranularity::new(4).unwrap(),
            ..AnalysisConfig::new(Model::Epoch)
        };
        let span = PAGE_BLOCKS * GRAN;
        for shift in [0, 3 * span, DENSE_BLOCKS * GRAN - span, 2 * DENSE_BLOCKS * GRAN] {
            let with = timing::analyze(&boundary_trace(shift, true), &epoch);
            let without = timing::analyze(&boundary_trace(shift, false), &epoch);
            assert_eq!((with.stats.coalesced, without.stats.coalesced), (1, 3), "shift {shift:#x}");
            let dag = PersistDag::build(&boundary_trace(shift, true), &epoch).unwrap();
            assert_eq!(dag.stats().coalesced, 0, "shift {shift:#x}");
        }
    }

    /// A level run holds `u32::MAX` persists, so its 32-bit levels never
    /// wrap: the persist that would be one more is an error, whatever the
    /// width, and the run stops there.
    #[test]
    fn level_runs_hold_u32_max_persists() {
        let mut b = TraceBuilder::new(1);
        b.store(0, MemAddr::persistent(0), 1).store(0, MemAddr::persistent(64), 2);
        let trace = b.build();
        let configs = [AnalysisConfig::new(Model::Strict); 5];
        fn check<const N: usize>(trace: &Trace, configs: &[AnalysisConfig]) {
            let mut scratch = Lanes::<N>::scratch();
            let mut run = Lanes::begin(configs, &[], 1, &mut scratch);
            run.state.stats.persist_ops = u64::from(u32::MAX) - 1;
            run.push_events(&trace.events()[..1]).expect("persist u32::MAX fits");
            let err = run.push_events(&trace.events()[1..]).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData);
            assert_eq!(
                err.to_string(),
                "event 1 exceeds the analysis's limit of 4294967295 persists"
            );
            let reports = run.reports();
            assert_eq!(reports.len(), configs.len());
            for r in reports {
                assert_eq!((r.stats.persist_ops, r.critical_path), (u64::from(u32::MAX), 1));
            }
        }
        check::<1>(&trace, &configs[..1]);
        check::<5>(&trace, &configs);
        check::<8>(&trace, &configs[..3]);
    }
}
