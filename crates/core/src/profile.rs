//! Critical-path attribution: *why* is the persist critical path as long
//! as it is?
//!
//! [`crate::timing`] answers "how long" and [`crate::dag`] answers "which
//! persists constrain which"; this module walks one concrete longest path
//! through the persist DAG and attributes every hop back to its source —
//! the thread and persist epoch that issued the persist, the work item and
//! address it wrote, and the *kind* of ordering constraint that chained it
//! to its predecessor (program order, an epoch barrier, a conflicting
//! access, or cross-thread synchronization). Ranking the path's (thread,
//! epoch) groups yields the top constraint sources: the program points
//! where relaxing persist ordering (or removing a barrier) would actually
//! shorten recovery-visible serialization, in the spirit of the paper's
//! §7–§8 analysis.
//!
//! The module also scores individual ordering barriers for redundancy:
//! a barrier whose removal leaves the critical path unchanged contributed
//! no persist-ordering serialization on this trace (it may of course still
//! be needed for correctness on other interleavings — the verdict is a
//! profiling hint, not a proof). A barrier the model never folds on
//! ([`Rules::folds`]) is decided without a walk; the others never copy the
//! trace: up to [`LANES`] of them run as the lanes of one timing-engine
//! pass (see [`score_barriers`]).
//!
//! Everything here is deterministic for a fixed trace and configuration:
//! ties on the path walk are broken by smallest node id, so the rendered
//! profile is byte-identical however the surrounding harness schedules the
//! work.

use crate::dag::{DagError, PersistDag};
use crate::rules::Rules;
use crate::timing::{self, Lanes};
use crate::AnalysisConfig;
use mem_trace::{Op, ThreadId, Trace};
use persist_mem::MemAddr;

/// Barrier what-ifs scored by one timing-engine pass.
///
/// Every lane widens the engine's per-thread and per-block dependence
/// values by one 32-bit level, so peak memory, not time, sets the width:
/// an 8-lane pass costs about 1.7 one-lane passes of the same level
/// domain (15 ms against 9 ms, medians of 15, on the 248k-event
/// profile-queue trace of `mpbench` at seed 42, 2-core host), while 16 or
/// 32 lanes grow the block tables until they outweigh the persist DAG the
/// profile builds first, for no further speedup.
pub const LANES: usize = 8;

/// The kind of ordering constraint linking consecutive critical-path
/// nodes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EdgeKind {
    /// First node on the path (no incoming constraint).
    Root,
    /// Same thread, same persist epoch: plain program order.
    ProgramOrder,
    /// Same thread, across a persist barrier/sync: the barrier serialized
    /// the two persists.
    EpochBarrier,
    /// Different threads, writes touching a common tracked or atomic
    /// block: conflict-induced (or persist-atomicity) ordering.
    Conflict,
    /// Different threads, no common block: ordering inherited through
    /// volatile synchronization (locks, flags).
    CrossThread,
}

impl EdgeKind {
    /// Short lowercase name used in reports.
    pub fn name(self) -> &'static str {
        match self {
            EdgeKind::Root => "root",
            EdgeKind::ProgramOrder => "program-order",
            EdgeKind::EpochBarrier => "epoch-barrier",
            EdgeKind::Conflict => "conflict",
            EdgeKind::CrossThread => "cross-thread",
        }
    }

    /// All kinds, in report order.
    pub const ALL: [EdgeKind; 5] = [
        EdgeKind::Root,
        EdgeKind::ProgramOrder,
        EdgeKind::EpochBarrier,
        EdgeKind::Conflict,
        EdgeKind::CrossThread,
    ];
}

/// One hop of the critical path, attributed to its origin.
#[derive(Debug, Clone, Copy)]
pub struct PathStep {
    /// DAG node id.
    pub node: u32,
    /// Topological level (1-based; the last step's level is the critical
    /// path length).
    pub level: u32,
    /// Thread that issued the persist.
    pub thread: ThreadId,
    /// Persist epoch of the issuing thread at the persist (number of
    /// persist barriers/syncs the thread had executed before it).
    pub epoch: u64,
    /// Enclosing work item, if the workload marked one.
    pub work: Option<u64>,
    /// Address of the persist's first store.
    pub addr: MemAddr,
    /// Width of the persist's first store.
    pub len: u8,
    /// Trace index of the persist's first store.
    pub trace_index: usize,
    /// Constraint kind linking this step to the previous one.
    pub edge: EdgeKind,
}

/// A ranked constraint source: one (thread, epoch) group of critical-path
/// steps.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SourceBucket {
    /// Issuing thread.
    pub thread: ThreadId,
    /// Persist epoch within the thread.
    pub epoch: u64,
    /// Critical-path steps attributed to this source.
    pub steps: u64,
    /// Smallest path level in the group (where on the path it first
    /// appears).
    pub first_level: u32,
}

pub use crate::rules::BarrierOp;

/// Redundancy verdict for one ordering barrier.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BarrierCheck {
    /// Trace index of the barrier event.
    pub trace_index: usize,
    /// Thread that issued the barrier.
    pub thread: ThreadId,
    /// Barrier kind.
    pub op: BarrierOp,
    /// Timing-engine critical path of the trace with this one event
    /// removed.
    pub critical_path_without: u64,
    /// `true` if removal leaves the timing critical path unchanged.
    pub redundant: bool,
}

/// The attribution profile of one (trace, config) cell.
#[derive(Debug, Clone)]
pub struct ProfileReport {
    /// Configuration profiled under.
    pub config: AnalysisConfig,
    /// Critical path length (equals [`PersistDag::critical_path`] for the
    /// same inputs; bounds the timing engine's value from above under
    /// coalescing — see the `divergence` test suite).
    pub critical_path: u64,
    /// The timing engine's critical path for the same inputs. Barrier
    /// redundancy verdicts compare against this value, because the
    /// what-ifs run the (level-based, cheap) timing analysis.
    pub timing_critical_path: u64,
    /// Persist nodes in the DAG.
    pub persist_nodes: usize,
    /// One concrete longest path, root first (length == `critical_path`).
    pub path: Vec<PathStep>,
    /// Constraint sources, ranked by step count (desc), then thread, then
    /// epoch. Covers the whole path; callers truncate for top-K display.
    pub sources: Vec<SourceBucket>,
    /// Barrier redundancy verdicts, in trace order (bounded by the
    /// `max_barriers` argument of [`profile`]).
    pub barriers: Vec<BarrierCheck>,
    /// Ordering barriers in the trace eligible for scoring (before the
    /// `max_barriers` cap).
    pub barrier_candidates: usize,
    /// Timing-engine passes the barrier what-ifs took: one per lane group
    /// of walked candidates. Candidates the rules decide take none.
    pub lane_walks: usize,
}

impl ProfileReport {
    /// Steps per edge kind, in [`EdgeKind::ALL`] order.
    pub fn edge_counts(&self) -> [(EdgeKind, u64); 5] {
        let mut out = EdgeKind::ALL.map(|k| (k, 0u64));
        for s in &self.path {
            let slot = out
                .iter_mut()
                .find(|(k, _)| *k == s.edge)
                .expect("every edge kind is in ALL");
            slot.1 += 1;
        }
        out
    }

    /// Judges the scored barriers at `scored` against the timing baseline
    /// `baseline`, in order. A candidate the model's rules decide (see
    /// [`walked_barriers`]) keeps the baseline; each walked one takes the
    /// next of `walked`, which holds their critical paths in order from
    /// `lane_walks` timing passes. Sets `timing_critical_path`, `barriers`
    /// and `lane_walks`.
    ///
    /// # Panics
    ///
    /// Panics if a candidate is not an ordering barrier, or if `walked`
    /// does not hold exactly one path per walked candidate.
    pub fn judge_barriers(
        &mut self,
        trace: &Trace,
        baseline: u64,
        scored: &[usize],
        walked: &[u64],
        lane_walks: usize,
    ) {
        let rules = self.config.model.rules();
        let mut walked = walked.iter();
        self.barriers = scored
            .iter()
            .map(|&i| {
                let cp = if walks(trace, rules, i) {
                    *walked.next().expect("a critical path for every walked candidate")
                } else {
                    baseline
                };
                barrier_check(trace, i, cp, baseline)
            })
            .collect();
        assert!(walked.next().is_none(), "more walked paths than walked candidates");
        self.timing_critical_path = baseline;
        self.lane_walks = lane_walks;
    }

    /// Records this profile's `profile.*` counters and critical-path
    /// histogram. No-op while obsv is disabled.
    pub fn record_metrics(&self) {
        if !obsv::enabled() {
            return;
        }
        let rules = self.config.model.rules();
        let decided = self.barriers.iter().filter(|b| !rules.folds(b.op)).count();
        obsv::counter_add("profile.runs", 1);
        obsv::counter_add("profile.barriers_scored", self.barriers.len() as u64);
        obsv::counter_add("profile.barriers_decided", decided as u64);
        obsv::counter_add("profile.lane_walks", self.lane_walks as u64);
        obsv::observe("profile.critical_path", self.critical_path);
    }
}

/// Trace indices of the ordering barriers eligible for redundancy scoring,
/// in trace order: every persist barrier, persist sync and memory barrier,
/// whatever the model. Which of them a model folds on, and so which need a
/// walk, is [`walked_barriers`]' question.
pub fn barrier_candidates(trace: &Trace) -> Vec<usize> {
    trace
        .events()
        .iter()
        .enumerate()
        .filter(|(_, e)| BarrierOp::of(e.op).is_some())
        .map(|(i, _)| i)
        .collect()
}

/// The barrier at trace index `i`.
fn barrier_op(trace: &Trace, i: usize) -> BarrierOp {
    let op = trace.events()[i].op;
    BarrierOp::of(op).unwrap_or_else(|| panic!("not an ordering barrier at {i}: {op:?}"))
}

/// Whether the what-if of the barrier at `i` needs a walk under `rules`.
fn walks(trace: &Trace, rules: Rules, i: usize) -> bool {
    rules.folds(barrier_op(trace, i))
}

/// The candidates among `scored` whose what-if needs a walk, in order.
/// The model's rules decide the rest: a barrier the model never folds on
/// ([`Rules::folds`]) changes no engine state, so the trace without it has
/// the baseline's critical path.
///
/// # Panics
///
/// Panics if a candidate is not an ordering barrier.
pub fn walked_barriers(trace: &Trace, config: &AnalysisConfig, scored: &[usize]) -> Vec<usize> {
    let rules = config.model.rules();
    scored.iter().copied().filter(|&i| walks(trace, rules, i)).collect()
}

/// Per-thread persist-epoch index: `epoch_at(thread, index)` counts the
/// epoch boundaries (persist barriers and syncs) the thread executed
/// before trace index `index`.
#[derive(Debug)]
struct EpochIndex {
    boundaries: Vec<Vec<usize>>,
}

impl EpochIndex {
    fn build(trace: &Trace) -> Self {
        let mut boundaries = vec![Vec::new(); trace.thread_count() as usize];
        for (i, e) in trace.events().iter().enumerate() {
            if matches!(e.op, Op::PersistBarrier | Op::PersistSync) {
                boundaries[e.thread.index()].push(i);
            }
        }
        EpochIndex { boundaries }
    }

    fn epoch_at(&self, thread: ThreadId, index: usize) -> u64 {
        self.boundaries[thread.index()].partition_point(|&b| b < index) as u64
    }
}

/// Classifies the constraint between consecutive path nodes `prev` and
/// `cur` (see [`EdgeKind`]).
fn classify_edge(
    dag: &PersistDag,
    config: &AnalysisConfig,
    epochs: &EpochIndex,
    prev: u32,
    cur: u32,
) -> EdgeKind {
    let (p, c) = (&dag.nodes()[prev as usize], &dag.nodes()[cur as usize]);
    if p.thread == c.thread {
        let pe = epochs.epoch_at(p.thread, p.first_index());
        let ce = epochs.epoch_at(c.thread, c.first_index());
        return if pe == ce { EdgeKind::ProgramOrder } else { EdgeKind::EpochBarrier };
    }
    // Cross-thread: conflict if any pair of writes shares a tracked block
    // (dependence inheritance) or an atomic-persist block (strong persist
    // atomicity serialization).
    for pw in p.writes.iter() {
        for cw in c.writes.iter() {
            let tracked = config.tracking.block_of(pw.addr).to_bits()
                == config.tracking.block_of(cw.addr).to_bits();
            let atomic = config.atomic_persist.block_of(pw.addr).to_bits()
                == config.atomic_persist.block_of(cw.addr).to_bits();
            if tracked || atomic {
                return EdgeKind::Conflict;
            }
        }
    }
    EdgeKind::CrossThread
}

/// Extracts one concrete longest path through `dag`, root first.
///
/// Deterministic: the tip is the smallest-id node of maximal level, and
/// each hop backwards picks the smallest-id dependence one level down.
/// Levels are exact longest-path depths, so such a dependence always
/// exists.
fn longest_path(dag: &PersistDag) -> Vec<u32> {
    let n = dag.len();
    if n == 0 {
        return Vec::new();
    }
    let tip = (0..n as u32)
        .max_by_key(|&id| (dag.level(id), std::cmp::Reverse(id)))
        .expect("non-empty DAG has a tip");
    let mut rev = vec![tip];
    let mut cur = tip;
    while dag.level(cur) > 1 {
        let want = dag.level(cur) - 1;
        let next = dag
            .deps(cur)
            .iter()
            .copied()
            .filter(|&d| dag.level(d) == want)
            .min()
            .expect("a node of level L > 1 has a dependence of level L-1");
        rev.push(next);
        cur = next;
    }
    rev.reverse();
    rev
}

/// Attributes `dag`'s critical path: walks one longest path, classifies
/// its edges and ranks its constraint sources. The returned report counts
/// the trace's barrier candidates but judges none, and its
/// `timing_critical_path` is 0: the barrier what-ifs and their timing
/// baseline need no DAG, so callers run them beside it and hand them to
/// [`ProfileReport::judge_barriers`].
pub fn attribute(trace: &Trace, dag: &PersistDag) -> ProfileReport {
    let config = *dag.config();
    let epochs = EpochIndex::build(trace);
    let ids = longest_path(dag);

    let mut path = Vec::with_capacity(ids.len());
    for (i, &id) in ids.iter().enumerate() {
        let n = &dag.nodes()[id as usize];
        let first = n.events.first().expect("persist nodes have provenance");
        let w = n.writes.first().expect("persist nodes have a write");
        let edge = if i == 0 {
            EdgeKind::Root
        } else {
            classify_edge(dag, &config, &epochs, ids[i - 1], id)
        };
        path.push(PathStep {
            node: id,
            level: dag.level(id),
            thread: n.thread,
            epoch: epochs.epoch_at(n.thread, first.index),
            work: n.work(),
            addr: w.addr,
            len: w.len,
            trace_index: first.index,
            edge,
        });
    }

    let sources = rank_sources(&path);
    ProfileReport {
        config,
        critical_path: dag.critical_path(),
        timing_critical_path: 0,
        persist_nodes: dag.len(),
        path,
        sources,
        barriers: Vec::new(),
        barrier_candidates: barrier_candidates(trace).len(),
        lane_walks: 0,
    }
}

/// Profiles an already-built DAG. Use [`profile`] unless you have a DAG
/// at hand. `max_barriers` caps the redundancy scoring (every [`LANES`]
/// walked barriers cost one timing pass); pass 0 to skip it.
pub fn profile_dag(
    trace: &Trace,
    dag: &PersistDag,
    max_barriers: usize,
) -> ProfileReport {
    let config = *dag.config();
    let mut report = attribute(trace, dag);
    // Barrier what-ifs run the timing level analysis, so redundancy is
    // judged against the timing engine's own baseline (under coalescing
    // it can sit below the DAG's exact critical path).
    let baseline = timing::analyze(trace, &config).critical_path;
    let candidates = barrier_candidates(trace);
    let scored = &candidates[..max_barriers.min(candidates.len())];
    let walked = walked_barriers(trace, &config, scored);
    let paths = critical_paths_without(trace, &config, &walked);
    report.judge_barriers(trace, baseline, scored, &paths, walked.len().div_ceil(LANES));
    report
}

/// Scores one barrier candidate (see [`BarrierCheck`]): a one-lane
/// [`score_barriers`].
pub fn score_barrier(
    trace: &Trace,
    config: &AnalysisConfig,
    baseline: u64,
    trace_index: usize,
) -> BarrierCheck {
    score_barriers(trace, config, baseline, &[trace_index])
        .pop()
        .expect("one check per candidate")
}

/// Scores barrier candidates (see [`BarrierCheck`]) against the timing
/// critical path `baseline`, in the order given, walking every one of
/// them: the oracle for [`ProfileReport::judge_barriers`], which walks
/// only what the rules leave open. Each group of up to [`LANES`]
/// candidates costs one timing-engine pass over `trace`, one lane per
/// candidate; the trace is never copied.
///
/// # Panics
///
/// Panics if a candidate is not an ordering barrier, or if the trace holds
/// more than `u32::MAX` persists (lane levels are 32-bit).
pub fn score_barriers(
    trace: &Trace,
    config: &AnalysisConfig,
    baseline: u64,
    trace_indices: &[usize],
) -> Vec<BarrierCheck> {
    let paths = critical_paths_without(trace, config, trace_indices);
    trace_indices
        .iter()
        .zip(paths)
        .map(|(&i, cp)| barrier_check(trace, i, cp, baseline))
        .collect()
}

/// The verdict on the barrier at trace index `i`, whose removal gives
/// timing critical path `cp`.
fn barrier_check(trace: &Trace, i: usize, cp: u64, baseline: u64) -> BarrierCheck {
    BarrierCheck {
        trace_index: i,
        thread: trace.events()[i].thread,
        op: barrier_op(trace, i),
        critical_path_without: cp,
        redundant: cp == baseline,
    }
}

/// The timing critical path of `trace` without each event of
/// `trace_indices`, in order, as the lanes of one engine pass per group of
/// [`LANES`]. Pure — the bench harness fans lane groups out across sweep
/// workers.
///
/// # Panics
///
/// Panics if the trace holds more than `u32::MAX` persists (lane levels
/// are 32-bit).
pub fn critical_paths_without(
    trace: &Trace,
    config: &AnalysisConfig,
    trace_indices: &[usize],
) -> Vec<u64> {
    let mut paths = Vec::with_capacity(trace_indices.len());
    let mut scratch = Lanes::<LANES>::scratch();
    let configs = [*config; LANES];
    for group in trace_indices.chunks(LANES) {
        let lanes = &configs[..group.len()];
        let mut run = Lanes::begin(lanes, group, trace.thread_count(), &mut scratch);
        run.push_events(trace.events())
            .expect("in-memory traces name only their own threads, at most u32::MAX of them persists");
        let (dom, _) = run.finish();
        paths.extend((0..group.len()).map(|k| dom.critical_path(k)));
    }
    paths
}

/// Groups path steps by (thread, epoch) and ranks by contribution.
fn rank_sources(path: &[PathStep]) -> Vec<SourceBucket> {
    use std::collections::BTreeMap;
    let mut groups: BTreeMap<(u32, u64), SourceBucket> = BTreeMap::new();
    for s in path {
        let e = groups.entry((s.thread.0, s.epoch)).or_insert(SourceBucket {
            thread: s.thread,
            epoch: s.epoch,
            steps: 0,
            first_level: s.level,
        });
        e.steps += 1;
        e.first_level = e.first_level.min(s.level);
    }
    let mut out: Vec<_> = groups.into_values().collect();
    out.sort_by_key(|b| (std::cmp::Reverse(b.steps), b.thread.0, b.epoch));
    out
}

/// Profiles `trace` under `config`: builds the persist DAG, extracts and
/// attributes the critical path, ranks constraint sources, and scores up
/// to `max_barriers` ordering barriers for redundancy.
///
/// # Errors
///
/// Returns [`DagError::TooManyPersists`] if the trace exceeds the DAG
/// node cap.
pub fn profile(
    trace: &Trace,
    config: &AnalysisConfig,
    max_barriers: usize,
) -> Result<ProfileReport, DagError> {
    let _span = obsv::span("profile.analyze");
    let dag = PersistDag::build(trace, config)?;
    let report = profile_dag(trace, &dag, max_barriers);
    report.record_metrics();
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Model;
    use mem_trace::{FreeRunScheduler, TracedMem};

    fn cfg(model: Model) -> AnalysisConfig {
        AnalysisConfig::new(model)
    }

    #[test]
    fn path_length_matches_timing_and_dag() {
        let mem = TracedMem::new(FreeRunScheduler);
        let trace = mem.run(2, |ctx| {
            let a = ctx.palloc(512, 64).unwrap();
            for i in 0..6 {
                ctx.store_u64(a.add(8 * (ctx.thread_id().index() as u64 * 8 + i)), i);
                ctx.persist_barrier();
            }
        });
        for model in Model::ALL {
            let c = cfg(model);
            let r = profile(&trace, &c, 0).unwrap();
            let t = timing::analyze(&trace, &c);
            assert_eq!(r.critical_path, t.critical_path, "{model}");
            assert_eq!(r.path.len() as u64, r.critical_path, "{model}");
            // Path levels are 1..=cp in order.
            for (i, s) in r.path.iter().enumerate() {
                assert_eq!(s.level as usize, i + 1);
            }
            assert!(r.path.first().map_or(true, |s| s.edge == EdgeKind::Root));
        }
    }

    #[test]
    fn epoch_attribution_counts_barriers() {
        let mem = TracedMem::new(FreeRunScheduler);
        let trace = mem.run(1, |ctx| {
            let a = ctx.palloc(256, 64).unwrap();
            ctx.store_u64(a, 1); // epoch 0
            ctx.persist_barrier();
            ctx.store_u64(a.add(8), 2); // epoch 1
            ctx.persist_barrier();
            ctx.store_u64(a.add(16), 3); // epoch 2
        });
        let r = profile(&trace, &cfg(Model::Epoch), 0).unwrap();
        assert_eq!(r.critical_path, 3);
        let epochs: Vec<u64> = r.path.iter().map(|s| s.epoch).collect();
        assert_eq!(epochs, vec![0, 1, 2]);
        assert!(r.path[1].edge == EdgeKind::EpochBarrier);
        assert!(r.path[2].edge == EdgeKind::EpochBarrier);
    }

    #[test]
    fn strict_program_order_edges() {
        let mem = TracedMem::new(FreeRunScheduler);
        let trace = mem.run(1, |ctx| {
            let a = ctx.palloc(256, 64).unwrap();
            for i in 0..4 {
                ctx.store_u64(a.add(8 * i), i);
            }
        });
        let r = profile(&trace, &cfg(Model::Strict), 0).unwrap();
        assert_eq!(r.critical_path, 4);
        assert!(r.path[1..].iter().all(|s| s.edge == EdgeKind::ProgramOrder));
        // One source bucket: thread 0, epoch 0, all four steps.
        assert_eq!(r.sources.len(), 1);
        assert_eq!(r.sources[0].steps, 4);
    }

    #[test]
    fn redundant_barrier_is_flagged() {
        let mem = TracedMem::new(FreeRunScheduler);
        let trace = mem.run(1, |ctx| {
            let a = ctx.palloc(256, 64).unwrap();
            ctx.store_u64(a, 1);
            ctx.persist_barrier(); // separates the two persists
            ctx.persist_barrier(); // back-to-back: contributes nothing
            ctx.store_u64(a.add(8), 2);
        });
        let r = profile(&trace, &cfg(Model::Epoch), 16).unwrap();
        assert_eq!(r.critical_path, 2);
        assert_eq!(r.barrier_candidates, 2);
        assert_eq!(r.barriers.len(), 2);
        // Removing either one of a back-to-back pair keeps cp == 2, so
        // both score as individually redundant.
        assert!(r.barriers.iter().all(|b| b.redundant));
        // A genuinely load-bearing barrier is not flagged.
        let mem = TracedMem::new(FreeRunScheduler);
        let t2 = mem.run(1, |ctx| {
            let a = ctx.palloc(256, 64).unwrap();
            ctx.store_u64(a, 1);
            ctx.persist_barrier();
            ctx.store_u64(a.add(8), 2);
        });
        let r2 = profile(&t2, &cfg(Model::Epoch), 16).unwrap();
        assert_eq!(r2.critical_path, 2);
        assert_eq!(r2.barriers.len(), 1);
        assert!(!r2.barriers[0].redundant);
        assert_eq!(r2.barriers[0].critical_path_without, 1);
    }

    #[test]
    fn empty_trace_profiles_empty() {
        let mem = TracedMem::new(FreeRunScheduler);
        let trace = mem.run(1, |_ctx| {});
        let r = profile(&trace, &cfg(Model::Strict), 8).unwrap();
        assert_eq!(r.critical_path, 0);
        assert!(r.path.is_empty());
        assert!(r.sources.is_empty());
        assert!(r.barriers.is_empty());
    }
}
