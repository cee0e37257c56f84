//! Generic persist-order constraint propagation over a trace.
//!
//! Implements a model's [`Rules`](crate::rules::Rules) against any
//! [`Domain`](crate::domain::Domain):
//!
//! - **Thread state**: `prev` holds constraints that order all *future*
//!   persists of the thread; `cur` accumulates constraints observed since
//!   the last barrier. The rules' `order` says which event folds `cur` into
//!   `prev`, and `strands()` whether `NewStrand` clears both.
//! - **Memory state**: each tracking-granularity block records the
//!   constraint carried by its last writer and by readers since that write.
//!   Accesses inherit these per the rules' `conflicts`, in the address
//!   spaces it `tracks`.
//! - **Coalescing**: every persist attempts to coalesce with the last
//!   persist to its atomic-persist block; it may iff none of its incoming
//!   dependences is newer than that persist.

use crate::domain::{Domain, EventRef, WriteRec};
use crate::rules::{Conflicts, Order};
use crate::AnalysisConfig;
use mem_trace::{Event, Op};
use persist_mem::FxHashMap;
use std::collections::hash_map::Entry;
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

/// Aggregate statistics from an engine run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Number of persist operations (stores/RMWs to persistent space).
    pub persist_ops: u64,
    /// Persist operations that coalesced into an earlier persist.
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
/// allocation profile; keeping a `Scratch` alive across runs (hash-table
/// capacity, dependence buffers) lets sweep loops analyze thousands of
/// traces without re-growing them each time.
pub(crate) struct Scratch<D: Domain> {
    threads: Vec<ThreadState<D>>,
    blocks: FxHashMap<u64, BlockState<D>>,
    last_persist: FxHashMap<u64, D::PRef>,
    /// Per-event incoming-constraint accumulator.
    input: D::Dep,
    /// Per-event outgoing-constraint accumulator.
    out: D::Dep,
}

impl<D: Domain> Scratch<D> {
    pub(crate) fn new(dom: &D) -> Self {
        Scratch {
            threads: Vec::new(),
            blocks: FxHashMap::default(),
            last_persist: FxHashMap::default(),
            input: dom.bottom(),
            out: dom.bottom(),
        }
    }

    /// Clears analysis state while keeping allocated capacity for the next
    /// run.
    pub(crate) fn reset(&mut self, dom: &D, thread_count: usize) {
        self.blocks.clear();
        self.last_persist.clear();
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
    pub(crate) config: AnalysisConfig,
    nthreads: usize,
    dom: D,
    scratch: &'s mut Scratch<D>,
    state: RunState,
}

impl<'s, D: Domain> Run<'s, D> {
    pub(crate) fn begin(
        config: &AnalysisConfig,
        nthreads: u32,
        dom: D,
        scratch: &'s mut Scratch<D>,
    ) -> Self {
        scratch.reset(&dom, nthreads as usize);
        Run { config: *config, nthreads: nthreads as usize, dom, scratch, state: RunState::default() }
    }

    /// Propagates one event block, in stream order.
    ///
    /// # Errors
    ///
    /// Returns `InvalidData` if an event names a thread outside the run's
    /// thread count.
    pub(crate) fn push_events(&mut self, events: &[Event]) -> io::Result<()> {
        push_events(&self.config, self.nthreads, &mut self.dom, self.scratch, &mut self.state, events)
    }

    /// Ends the run, emitting the end-of-run observability counters
    /// (aggregate-only: totals are a function of the trace and config,
    /// never of scheduling, so the merged snapshot stays deterministic).
    pub(crate) fn finish(self) -> (D, EngineStats) {
        let stats = self.state.stats;
        if obsv::enabled() {
            obsv::counter_add("engine.runs", 1);
            obsv::counter_add("engine.events", stats.events);
            obsv::counter_add("engine.persists", stats.persist_ops);
            obsv::counter_add("engine.coalesced", stats.coalesced);
            obsv::counter_add("engine.barriers", stats.barriers);
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
/// Returns `InvalidData` if an event names a thread `>= nthreads`.
fn push_events<D: Domain>(
    config: &AnalysisConfig,
    nthreads: usize,
    dom: &mut D,
    scratch: &mut Scratch<D>,
    state: &mut RunState,
    events: &[Event],
) -> io::Result<()> {
    let rules = config.model.rules();
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
                //    path resolves the block entry ONCE and holds it across
                //    the persist step, halving the hash traffic of the hot
                //    loop. Spanning accesses take the general two-pass walk.
                input.clone_from(&threads[t].prev);
                let single = tracking.contains_access(addr, len as u64);
                let mut fast: Option<&mut BlockState<D>> = None;
                if single {
                    let blk = tracking.block_of(addr);
                    if rules.tracks(blk.space) {
                        let bs =
                            blocks.entry(blk.to_bits()).or_insert_with(|| BlockState {
                                writer: dom.bottom(),
                                readers: dom.bottom(),
                            });
                        inherit(dom, rules.conflicts, input, bs, is_write);
                        fast = Some(bs);
                    }
                } else {
                    for blk in
                        tracking.blocks_of(addr, len as u64).filter(|b| rules.tracks(b.space))
                    {
                        if let Some(bs) = blocks.get(&blk.to_bits()) {
                            inherit(dom, rules.conflicts, input, bs, is_write);
                        }
                    }
                }

                // 2. The persist itself: coalesce or create. A non-persist
                //    access leaves the constraint unchanged, so `out` is
                //    only materialized (copied) on the persist path; other
                //    events use `input` directly.
                let mut persist_ref: Option<D::PRef> = None;
                if is_persist {
                    out.clone_from(input);
                    stats.persist_ops += 1;
                    let w = WriteRec {
                        addr,
                        len,
                        value: e.op.written_value().expect("persist writes a value"),
                    };
                    let ev = EventRef { index, thread: e.thread, work: threads[t].work };
                    let p = if atomic.contains_access(addr, len as u64) {
                        let ab = atomic.block_of(addr).to_bits();
                        match last_persist.entry(ab) {
                            Entry::Occupied(mut o) => {
                                let (p, coalesced) = if config.coalescing {
                                    dom.persist_onto(input, *o.get(), w, ev)
                                } else {
                                    (dom.new_persist(input, w, ev), false)
                                };
                                stats.coalesced += coalesced as u64;
                                o.insert(p);
                                p
                            }
                            Entry::Vacant(v) => {
                                let p = dom.new_persist(input, w, ev);
                                v.insert(p);
                                p
                            }
                        }
                    } else {
                        // A persist spanning atomic blocks is not atomic
                        // with respect to failure: it never coalesces, and
                        // nothing may coalesce with it.
                        let p = dom.new_persist(input, w, ev);
                        for ab in atomic.blocks_of(addr, len as u64) {
                            last_persist.remove(&ab.to_bits());
                        }
                        p
                    };
                    dom.join_pref(out, p);
                    persist_ref = Some(p);
                }
                let out: &D::Dep = if is_persist { out } else { input };

                // 3. Update block state.
                if single {
                    if let Some(bs) = fast {
                        update(dom, rules.conflicts, out, bs, is_write, persist_ref);
                    }
                } else {
                    for blk in
                        tracking.blocks_of(addr, len as u64).filter(|b| rules.tracks(b.space))
                    {
                        let bs = blocks.entry(blk.to_bits()).or_insert_with(|| BlockState {
                            writer: dom.bottom(),
                            readers: dom.bottom(),
                        });
                        update(dom, rules.conflicts, out, bs, is_write, persist_ref);
                    }
                }

                // 4. Update thread state: the access orders the thread's
                //    later persists now, or at the next barrier.
                let ThreadState { prev, cur, .. } = &mut threads[t];
                dom.join(if rules.order == Order::EveryAccess { prev } else { cur }, out);
            }
            Op::PersistBarrier => {
                stats.barriers += 1;
                // Persistency coupled to relaxed consistency has no persist
                // barriers of its own.
                if rules.order != Order::MemBarrier {
                    fold_epoch(dom, &mut threads[t], index);
                }
            }
            Op::PersistSync => {
                // A sync stalls execution until persists drain, which
                // orders every earlier persist before every later one
                // under any model.
                stats.barriers += 1;
                fold_epoch(dom, &mut threads[t], index);
            }
            Op::MemBarrier => {
                // A consistency barrier orders store visibility, which is
                // persist order only where persistency is coupled to it
                // (§4.2).
                if rules.order == Order::MemBarrier {
                    fold_epoch(dom, &mut threads[t], index);
                }
            }
            Op::NewStrand => {
                stats.strands += 1;
                if rules.strands() {
                    let st = &mut threads[t];
                    dom.reset_dep(&mut st.prev);
                    dom.reset_dep(&mut st.cur);
                }
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

/// Folds a thread's epoch-local constraint into its per-thread prefix at
/// the barrier at trace index `index`, keeping the epoch buffer's storage
/// for the next epoch.
#[inline]
fn fold_epoch<D: Domain>(dom: &mut D, st: &mut ThreadState<D>, index: usize) {
    let ThreadState { prev, cur, .. } = st;
    dom.fold(prev, cur, index);
}

/// Folds the conflict constraints a block's state imposes on an incoming
/// access into `input`: every access is ordered after the block's last
/// write record, and under SC conflicts a write also after every read
/// since (load-before-store).
#[inline]
fn inherit<D: Domain>(
    dom: &mut D,
    conflicts: Conflicts,
    input: &mut D::Dep,
    bs: &BlockState<D>,
    is_write: bool,
) {
    dom.join(input, &bs.writer);
    if is_write && conflicts == Conflicts::Sc {
        dom.join(input, &bs.readers);
    }
}

/// Records an access's outgoing constraint in a block's state.
#[inline]
fn update<D: Domain>(
    dom: &mut D,
    conflicts: Conflicts,
    out: &D::Dep,
    bs: &mut BlockState<D>,
    is_write: bool,
    persist_ref: Option<D::PRef>,
) {
    match conflicts {
        Conflicts::Sc => {
            if is_write {
                bs.writer.clone_from(out);
                // The write's constraint dominates prior readers (they fed
                // its input).
                dom.reset_dep(&mut bs.readers);
            } else {
                dom.join(&mut bs.readers, out);
            }
        }
        Conflicts::PersistentWrites => {
            if is_write {
                bs.writer.clone_from(out);
            }
            // Reads leave no record: the R→W race is the conflict BPFS's
            // per-line epoch tags miss.
        }
        Conflicts::LastPersist => {
            // Only the persist itself is remembered: reads inherit the last
            // persist (the §5.3 "read then barrier then persist" idiom), but
            // non-persist context never flows through memory.
            if let Some(p) = persist_ref {
                dom.assign_pref(&mut bs.writer, p);
            }
        }
    }
}
