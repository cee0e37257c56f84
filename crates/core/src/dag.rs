//! Explicit persist-order constraint DAG.
//!
//! Where [`crate::timing`] summarizes dependences as scalar levels, this
//! module materializes the full DAG of persists and constraints under a
//! persistency model. The DAG is what the paper's *recovery observer*
//! needs: any down-closed set of persists (a consistent cut) is a state the
//! observer may witness at failure.
//!
//! Exact reachability is answered by a chain-decomposition index
//! ([`ReachIndex`]): nodes are greedily assigned to chains that are
//! totally ordered by reachability, and each node stores, per chain, the
//! deepest position it reaches. That makes `depends_on` O(1) for indexed
//! nodes; the few nodes the bounded index cannot place fall back to a
//! depth-first search over the dependence edges, pruned by topological
//! level (a node's ancestors all have strictly smaller level) and by
//! creation order (dependences always point backwards). The DFS reuses a
//! pooled stamp-marked visited arena, so construction does no per-node
//! quadratic work and queries allocate nothing — the old implementation
//! kept a full reachability bitset per node, which made construction
//! O(n²) in both time and memory and capped traces at 100k persists.

use crate::domain::{Domain, EventRef, WriteRec};
use crate::engine::{self, EngineStats};
use crate::smallvec::SmallVec;
use crate::AnalysisConfig;
use core::fmt;
use mem_trace::{ThreadId, Trace};
use std::cell::RefCell;

/// Hard cap on DAG nodes. With on-demand reachability the limit is only
/// node storage (deps + writes), not quadratic bitsets; the cap exists to
/// catch runaway traces, not to protect the algorithm.
pub const MAX_DAG_NODES: usize = 4_000_000;

/// One persist operation (possibly several coalesced stores) in the DAG.
///
/// The per-node lists are [`SmallVec`]s: dependences, writes and
/// provenance are nearly always one or two entries, and inline storage
/// keeps node creation allocation-free on that common path. All three
/// fields deref to slices, so they read exactly like `Vec`s.
#[derive(Debug, Clone)]
pub struct DagNode {
    /// Direct predecessors (maximal elements of the incoming constraint).
    pub deps: SmallVec<u32, 4>,
    /// The stores folded into this persist, in trace order.
    pub writes: SmallVec<WriteRec, 1>,
    /// Provenance of each store in `writes`.
    pub events: SmallVec<EventRef, 1>,
    /// Thread that created the persist.
    pub thread: ThreadId,
}

impl DagNode {
    /// Work item of the creating store, if any.
    pub fn work(&self) -> Option<u64> {
        self.events.first().and_then(|e| e.work)
    }

    /// Trace index of the creating store.
    pub fn first_index(&self) -> usize {
        self.events.first().map(|e| e.index).unwrap_or(0)
    }
}

/// Pooled, stamp-marked DFS working set for reachability queries.
///
/// `visited[i] == stamp` marks node `i` as seen by the current query;
/// bumping `stamp` clears the whole arena in O(1). The stack is reused
/// across queries, so a query allocates only when the DAG outgrows the
/// arena — mirroring how [`crate::engine::Scratch`] keeps analysis state
/// alive across runs.
#[derive(Debug, Clone, Default)]
struct QueryArena {
    visited: Vec<u32>,
    stamp: u32,
    stack: Vec<u32>,
}

impl QueryArena {
    /// Starts a query over `n` nodes: sizes the arena and returns a fresh
    /// stamp.
    fn begin(&mut self, n: usize) -> u32 {
        if self.visited.len() < n {
            self.visited.resize(n, 0);
        }
        self.stamp = self.stamp.wrapping_add(1);
        if self.stamp == 0 {
            self.visited.fill(0);
            self.stamp = 1;
        }
        self.stack.clear();
        self.stamp
    }
}

thread_local! {
    /// Arena for post-build [`PersistDag::depends_on`] queries, so the
    /// public API stays `&self` (and `PersistDag` stays `Sync`) without
    /// allocating per call.
    static DEPENDS_ARENA: RefCell<QueryArena> = RefCell::new(QueryArena::default());

    /// Pooled engine working state for [`PersistDag::build`], mirroring
    /// [`crate::timing::Analyzer`]'s scratch reuse.
    static BUILD_SCRATCH: RefCell<engine::Scratch<DagDomain>> =
        RefCell::new(engine::Scratch::new(&DagDomain::default()));
}

/// Chains tracked by the constant-time reachability index. Structured
/// traces (queues, logs, transactions) decompose into a handful of chains;
/// the cap bounds the index to O(nodes · MAX_CHAINS) in the worst case,
/// and nodes past the cap fall back to the level-pruned DFS.
const MAX_CHAINS: usize = 32;

/// Constant-time reachability via greedy chain decomposition.
///
/// Every node is appended to a *chain* — a path in the DAG — when one of
/// its direct dependences is currently the tip of one (else it opens a new
/// chain, up to [`MAX_CHAINS`]). Each node stores a pooled row holding, per
/// chain, the highest chain position among its ancestors. Because a chain
/// is a path, reaching position `p` of a chain means reaching every earlier
/// position, so `by` reaches `x` iff `row(by)[chain(x)] >= pos(x)`.
///
/// Rows are the elementwise max of the dependences' rows (computed once at
/// node creation, like the incremental `levels`), packed into one pooled
/// buffer — construction is O(deps · chains) per node with no per-node
/// allocation, queries are O(1).
#[derive(Debug, Clone, Default)]
pub struct ReachIndex {
    /// Chain of each node (`u16::MAX` = none; query falls back to DFS).
    chain: Vec<u16>,
    /// 1-based position of each node within its chain (0 = no chain).
    pos: Vec<u32>,
    /// Current tip node of each chain.
    tips: Vec<u32>,
    /// Position of each chain's tip (== the chain's length).
    tip_pos: Vec<u32>,
    /// Start of each node's row in `pool`.
    off: Vec<u32>,
    /// Row width of each node (number of chains existing at creation).
    width: Vec<u16>,
    /// Packed rows: `pool[off[v]..off[v] + width[v]]`.
    pool: Vec<u32>,
}

impl ReachIndex {
    /// Registers the next node (id = current length) with direct
    /// dependences `deps`.
    fn add_node(&mut self, deps: &[u32]) {
        let id = self.chain.len() as u32;
        let w = self.tips.len();
        let off = self.pool.len();
        self.off.push(off as u32);
        // Row = elementwise max over dependences' rows; one spare slot in
        // case this node opens a new chain. Dependences' rows all live
        // strictly before `off` in the pool, so the borrow splits cleanly.
        self.pool.resize(off + w + 1, 0);
        let (done, row) = self.pool.split_at_mut(off);
        for &d in deps {
            let doff = self.off[d as usize] as usize;
            let dw = self.width[d as usize] as usize;
            for (r, &v) in row[..dw].iter_mut().zip(&done[doff..doff + dw]) {
                if v > *r {
                    *r = v;
                }
            }
        }
        // A chain may be extended by ANY node that reaches its current tip
        // (not just a direct successor): the row already answers that —
        // the tip holds the chain's maximal position, so reaching it means
        // `row[c] == tip_pos[c]`. This keeps the number of chains near the
        // DAG's antichain width instead of growing with every fan-out.
        let mut chain = u16::MAX;
        let mut pos = 0u32;
        for c in 0..w {
            if row[c] == self.tip_pos[c] && row[c] > 0 {
                chain = c as u16;
                pos = row[c] + 1;
                self.tips[c] = id;
                self.tip_pos[c] = pos;
                row[c] = pos;
                break;
            }
        }
        if chain == u16::MAX && w < MAX_CHAINS {
            chain = w as u16;
            pos = 1;
            self.tips.push(id);
            self.tip_pos.push(1);
            row[w] = 1;
            self.width.push((w + 1) as u16);
        } else {
            self.width.push(w as u16);
            self.pool.truncate(off + w);
        }
        self.chain.push(chain);
        self.pos.push(pos);
    }

    /// Number of chains (diagnostics).
    #[doc(hidden)]
    pub fn chains(&self) -> usize { self.tips.len() }

    /// `Some(answer)` if the index can decide whether `by` reaches `x`
    /// (both ids already validated, `x < by`); `None` if `x` is off-chain
    /// and the caller must fall back to the DFS.
    #[inline]
    fn query(&self, by: u32, x: u32) -> Option<bool> {
        let cx = self.chain[x as usize];
        if cx == u16::MAX {
            return None;
        }
        if cx >= self.width[by as usize] {
            // Chain `cx` did not exist when `by` was created, so every
            // member of it is newer than `by`.
            return Some(false);
        }
        let row = self.off[by as usize] as usize + cx as usize;
        Some(self.pool[row] >= self.pos[x as usize])
    }
}

/// `true` if `x` is an ancestor of `by` (or `x == by`), searching the
/// dependence edges depth-first.
///
/// Pruning: dependences always point to earlier-created nodes, so any
/// node `< x` is skipped; topological levels strictly decrease along
/// dependence edges, so any node at or below `level[x]` (other than `x`
/// itself) cannot have `x` in its ancestry.
/// `true` if every element of sorted `a` occurs in sorted `b`.
#[inline]
fn sorted_subset(a: &[u32], b: &[u32]) -> bool {
    if a.len() > b.len() {
        return false;
    }
    let mut it = b.iter();
    'outer: for &x in a {
        for &y in it.by_ref() {
            match y.cmp(&x) {
                core::cmp::Ordering::Less => continue,
                core::cmp::Ordering::Equal => continue 'outer,
                core::cmp::Ordering::Greater => return false,
            }
        }
        return false;
    }
    true
}

#[inline]
fn reaches(
    nodes: &[DagNode],
    levels: &[u32],
    reach: &ReachIndex,
    arena: &RefCell<QueryArena>,
    by: u32,
    x: u32,
) -> bool {
    if x == by {
        return true;
    }
    if x > by {
        return false;
    }
    let lx = levels[x as usize];
    if levels[by as usize] <= lx {
        return false;
    }
    if let Some(hit) = reach.query(by, x) {
        return hit;
    }
    reaches_dfs(nodes, levels, &mut arena.borrow_mut(), by, x, lx)
}

/// The non-trivial tail of [`reaches`], outlined so the inline fast path
/// stays small.
#[inline(never)]
fn reaches_dfs(
    nodes: &[DagNode],
    levels: &[u32],
    arena: &mut QueryArena,
    by: u32,
    x: u32,
    lx: u32,
) -> bool {
    let stamp = arena.begin(nodes.len());
    arena.visited[by as usize] = stamp;
    arena.stack.push(by);
    while let Some(u) = arena.stack.pop() {
        for &d in &nodes[u as usize].deps {
            if d == x {
                return true;
            }
            if d < x || levels[d as usize] <= lx {
                continue;
            }
            if arena.visited[d as usize] != stamp {
                arena.visited[d as usize] = stamp;
                arena.stack.push(d);
            }
        }
    }
    false
}

/// DAG construction failure.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum DagError {
    /// The trace contains more persists than [`MAX_DAG_NODES`].
    TooManyPersists {
        /// Number of persists encountered when the cap was hit.
        count: usize,
    },
    /// The streaming event source failed (decode or I/O error).
    Io {
        /// Kind of the underlying I/O error.
        kind: std::io::ErrorKind,
        /// Rendered error message.
        message: String,
    },
}

impl fmt::Display for DagError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DagError::TooManyPersists { count } => write!(
                f,
                "trace has over {count} persists; use the timing engine for large traces"
            ),
            DagError::Io { message, .. } => write!(f, "trace stream failed: {message}"),
        }
    }
}

impl std::error::Error for DagError {}

/// An in-progress DAG construction (see [`PersistDag::build_with`]).
pub(crate) type DagRun<'s> = engine::Run<'s, DagDomain>;

/// Set domain: a dependence is the antichain of persists that must happen
/// before; on-demand level-pruned DFS makes joins and coalescing checks
/// exact without materializing reachability.
#[derive(Debug, Default)]
pub(crate) struct DagDomain {
    nodes: Vec<DagNode>,
    /// levels[i] = critical-path depth of node i (1 + max over deps).
    levels: Vec<u32>,
    /// Constant-time chain-decomposition reachability.
    reach: ReachIndex,
    /// Pooled DFS working set for off-chain dominance queries ([`Domain`]
    /// exposes `can_coalesce` through `&self`, hence the `RefCell`).
    arena: RefCell<QueryArena>,
    overflow: bool,
}

impl DagDomain {
    fn dominated(&self, x: u32, by: u32) -> bool {
        reaches(&self.nodes, &self.levels, &self.reach, &self.arena, by, x)
    }
}

impl Domain for DagDomain {
    type Dep = Vec<u32>;
    type PRef = u32;
    type Mask = bool;

    fn bottom(&self) -> Vec<u32> {
        Vec::new()
    }

    fn join(&mut self, into: &mut Vec<u32>, from: &Vec<u32>) {
        if from.is_empty() {
            return;
        }
        if into.is_empty() {
            // `from` is itself a sorted antichain (every dep is built from
            // `bottom` through `join`), so it can be adopted wholesale.
            into.clone_from(from);
            return;
        }
        // Steady-state fast path: in the engine's hot loop the incoming
        // constraint is very often a subset of the accumulated one (block
        // and thread state both carry recent `out` values). Both sides are
        // sorted, so subset runs in O(|into| + |from|) with no reachability
        // queries at all.
        if sorted_subset(from, into) {
            return;
        }
        // Incremental maximal-antichain insertion: deps are only ever built
        // through `join` from `bottom` and singleton `dep_of` values, so
        // `into` is always an antichain already. Inserting each element of
        // `from` while dropping dominated elements preserves the invariant
        // without snapshotting (the old implementation cloned `into` per
        // join, which dominated the DAG engine's allocation profile).
        let mut changed = false;
        'insert: for &x in from {
            let mut i = 0;
            while i < into.len() {
                let y = into[i];
                if y == x || self.dominated(x, y) {
                    continue 'insert; // x already covered by the frontier
                }
                if self.dominated(y, x) {
                    into.swap_remove(i); // x supersedes y
                    changed = true;
                } else {
                    i += 1;
                }
            }
            into.push(x);
            changed = true;
        }
        if changed {
            into.sort_unstable();
        }
    }

    fn new_persist(&mut self, input: &Vec<u32>, w: WriteRec, ev: EventRef) -> u32 {
        if self.nodes.len() >= MAX_DAG_NODES {
            self.overflow = true;
            // Keep returning the last node; build() reports the error.
            return (self.nodes.len() - 1) as u32;
        }
        let id = self.nodes.len() as u32;
        let level = 1 + input.iter().map(|&d| self.levels[d as usize]).max().unwrap_or(0);
        self.levels.push(level);
        self.reach.add_node(input);
        self.nodes.push(DagNode {
            deps: SmallVec::from_slice(input),
            writes: SmallVec::one(w),
            events: SmallVec::one(ev),
            thread: ev.thread,
        });
        id
    }

    fn can_coalesce(&self, input: &Vec<u32>, target: u32) -> bool {
        input.iter().all(|&x| self.dominated(x, target))
    }

    fn coalesce(&mut self, target: u32, w: WriteRec, ev: EventRef) {
        let n = &mut self.nodes[target as usize];
        n.writes.push(w);
        n.events.push(ev);
    }

    fn dep_of(&self, p: u32) -> Vec<u32> {
        vec![p]
    }

    fn join_pref(&mut self, into: &mut Vec<u32>, p: u32) {
        // Singleton insertion without materializing `vec![p]`. In the
        // engine's per-persist path `p` is almost always the newest node,
        // so the frontier scan usually drops dominated entries and appends.
        if into.binary_search(&p).is_ok() {
            return;
        }
        let mut i = 0;
        while i < into.len() {
            let y = into[i];
            if self.dominated(p, y) {
                return; // p already covered by the frontier
            }
            if self.dominated(y, p) {
                into.remove(i); // p supersedes y (keep the sort order)
            } else {
                i += 1;
            }
        }
        let pos = into.partition_point(|&y| y < p);
        into.insert(pos, p);
    }

    fn assign_pref(&mut self, into: &mut Vec<u32>, p: u32) {
        into.clear();
        into.push(p);
    }

    fn reset_dep(&self, dep: &mut Vec<u32>) {
        dep.clear();
    }
}

/// The persist-order constraint DAG of a trace under a persistency model.
#[derive(Debug, Clone)]
pub struct PersistDag {
    config: AnalysisConfig,
    nodes: Vec<DagNode>,
    levels: Vec<u32>,
    reach: ReachIndex,
    stats: EngineStats,
}

impl PersistDag {
    /// Builds the DAG of `trace` under `config`.
    ///
    /// # Errors
    ///
    /// Returns [`DagError::TooManyPersists`] if the trace exceeds
    /// [`MAX_DAG_NODES`] distinct persists, and [`DagError::Io`] if an
    /// event names a thread outside `trace.thread_count()`. To build from
    /// a serialized trace without materializing it, use
    /// [`crate::partition::build_dag`].
    pub fn build(trace: &Trace, config: &AnalysisConfig) -> Result<Self, DagError> {
        Self::build_with(config, trace.thread_count(), |run| run.push_events(trace.events()))
    }

    /// Builds the DAG from the event blocks `feed` pushes into the run, in
    /// stream order, for a trace of `nthreads` threads.
    pub(crate) fn build_with(
        config: &AnalysisConfig,
        nthreads: u32,
        feed: impl FnOnce(&mut DagRun<'_>) -> std::io::Result<()>,
    ) -> Result<Self, DagError> {
        // Reuse the engine's working state (block tables, dependence
        // buffers) across builds on this thread, exactly as the timing
        // engine's `Analyzer` does — repeated DAG construction (observer
        // sampling, crash fuzzing, sweeps) skips the map re-growth.
        let (dom, stats) = BUILD_SCRATCH
            .with(|s| {
                let mut scratch = s.borrow_mut();
                let mut run =
                    engine::Run::begin(config, nthreads, DagDomain::default(), &mut scratch);
                feed(&mut run)?;
                Ok(run.finish())
            })
            .map_err(|e: std::io::Error| DagError::Io { kind: e.kind(), message: e.to_string() })?;
        if dom.overflow {
            return Err(DagError::TooManyPersists { count: dom.nodes.len() });
        }
        if obsv::enabled() {
            obsv::counter_add("dag.builds", 1);
            obsv::counter_add("dag.nodes", dom.nodes.len() as u64);
            obsv::observe(
                "dag.critical_path",
                dom.levels.iter().copied().max().unwrap_or(0) as u64,
            );
        }
        Ok(PersistDag {
            config: *config,
            nodes: dom.nodes,
            levels: dom.levels,
            reach: dom.reach,
            stats,
        })
    }

    /// The analysis configuration the DAG was built under.
    pub fn config(&self) -> &AnalysisConfig {
        &self.config
    }

    /// The persist nodes, in creation (trace) order.
    pub fn nodes(&self) -> &[DagNode] {
        &self.nodes
    }

    /// Number of persist nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// `true` if the trace contained no persists.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Engine statistics from construction.
    pub fn stats(&self) -> &EngineStats {
        &self.stats
    }

    /// `true` if node `b` transitively depends on node `a` (or `a == b`).
    ///
    /// # Panics
    ///
    /// Panics if either id is out of range.
    pub fn depends_on(&self, b: u32, a: u32) -> bool {
        assert!((b as usize) < self.nodes.len() && (a as usize) < self.nodes.len());
        DEPENDS_ARENA.with(|arena| reaches(&self.nodes, &self.levels, &self.reach, arena, b, a))
    }

    /// Chain count in the reachability index (diagnostics).
    #[doc(hidden)]
    pub fn reach_chains(&self) -> usize { self.reach.chains() }

    /// Topological level (critical-path depth, 1-based) of node `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn level(&self, id: u32) -> u32 {
        self.levels[id as usize]
    }

    /// All constraint edges `(from, to)` with `from` a direct predecessor
    /// of `to`.
    pub fn edges(&self) -> impl Iterator<Item = (u32, u32)> + '_ {
        self.nodes
            .iter()
            .enumerate()
            .flat_map(|(to, n)| n.deps.iter().map(move |&from| (from, to as u32)))
    }

    /// Longest path through the DAG in nodes — must agree with the timing
    /// engine's critical path for the same trace and configuration.
    ///
    /// Levels are maintained incrementally during construction, so this is
    /// a scan, not a recomputation.
    pub fn critical_path(&self) -> u64 {
        self.levels.iter().copied().max().unwrap_or(0) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{timing, Model};
    use mem_trace::{FreeRunScheduler, SeededScheduler, TracedMem};

    fn cfg(model: Model) -> AnalysisConfig {
        AnalysisConfig::new(model)
    }

    #[test]
    fn simple_chain() {
        let mem = TracedMem::new(FreeRunScheduler);
        let t = mem.run(1, |ctx| {
            let a = ctx.palloc(64, 8).unwrap();
            ctx.store_u64(a, 1);
            ctx.persist_barrier();
            ctx.store_u64(a.add(8), 2);
        });
        let dag = PersistDag::build(&t, &cfg(Model::Epoch)).unwrap();
        assert_eq!(dag.len(), 2);
        assert_eq!(dag.nodes()[1].deps, vec![0]);
        assert!(dag.depends_on(1, 0));
        assert!(!dag.depends_on(0, 1));
        assert_eq!(dag.critical_path(), 2);
    }

    #[test]
    fn fan_out_within_epoch() {
        let mem = TracedMem::new(FreeRunScheduler);
        let t = mem.run(1, |ctx| {
            let a = ctx.palloc(256, 64).unwrap();
            ctx.store_u64(a, 1);
            ctx.persist_barrier();
            for i in 1..5 {
                ctx.store_u64(a.add(8 * i), i);
            }
            ctx.persist_barrier();
            ctx.store_u64(a.add(48), 9);
        });
        let dag = PersistDag::build(&t, &cfg(Model::Epoch)).unwrap();
        assert_eq!(dag.len(), 6);
        // Middle four all depend directly on node 0, and the last on all
        // four (maximal frontier).
        for i in 1..5 {
            assert_eq!(dag.nodes()[i].deps, vec![0]);
        }
        assert_eq!(dag.nodes()[5].deps, vec![1, 2, 3, 4]);
        assert_eq!(dag.critical_path(), 3);
    }

    #[test]
    fn coalesced_writes_share_a_node() {
        let mem = TracedMem::new(FreeRunScheduler);
        let t = mem.run(1, |ctx| {
            let a = ctx.palloc(64, 8).unwrap();
            ctx.store_u64(a, 1);
            ctx.store_u64(a, 2);
            ctx.store_u64(a, 3);
        });
        let dag = PersistDag::build(&t, &cfg(Model::Epoch)).unwrap();
        assert_eq!(dag.len(), 1);
        assert_eq!(dag.nodes()[0].writes.len(), 3);
        assert_eq!(dag.stats().coalesced, 2);
    }

    #[test]
    fn dominance_pruning_keeps_frontier_small() {
        // A long strict chain: every node's frontier is exactly its
        // predecessor.
        let mem = TracedMem::new(FreeRunScheduler);
        let t = mem.run(1, |ctx| {
            let a = ctx.palloc(2048, 64).unwrap();
            for i in 0..100 {
                ctx.store_u64(a.add(8 * i), i);
            }
        });
        let dag = PersistDag::build(&t, &cfg(Model::Strict)).unwrap();
        assert_eq!(dag.len(), 100);
        for (i, n) in dag.nodes().iter().enumerate().skip(1) {
            assert_eq!(n.deps, vec![i as u32 - 1]);
        }
    }

    #[test]
    fn critical_path_matches_timing_engine_strict_single_thread() {
        // Under strict persistency a single thread's persists are totally
        // ordered, so the timing engine's timestamp-based coalescing check
        // and the DAG engine's exact dominance check coincide and the two
        // critical paths must be identical.
        let mem = TracedMem::new(FreeRunScheduler);
        let t = mem.run(1, |ctx| {
            let a = ctx.palloc(256, 64).unwrap();
            for i in 0..50 {
                ctx.store_u64(a.add(8 * (i % 8)), i);
                if i % 3 == 0 {
                    ctx.persist_barrier();
                }
            }
        });
        let dag = PersistDag::build(&t, &cfg(Model::Strict)).unwrap();
        let rep = timing::analyze(&t, &cfg(Model::Strict));
        assert_eq!(dag.critical_path(), rep.critical_path);
        assert_eq!(dag.len() as u64, rep.persist_nodes);
    }

    #[test]
    fn dag_is_at_least_as_constrained_as_timing() {
        // Multithreaded, the DAG's exact dominance check may refuse a
        // coalesce the paper's timestamp check would allow, so the DAG's
        // critical path bounds the timing engine's from above.
        for model in Model::ALL {
            let mem = TracedMem::new(SeededScheduler::new(5));
            let t = mem.run(3, |ctx| {
                let base = 4096 * (1 + ctx.thread_id().as_u64());
                let a = persist_mem::MemAddr::persistent(base);
                for i in 0..30 {
                    ctx.store_u64(a.add(8 * (i % 8)), i);
                    if i % 3 == 0 {
                        ctx.persist_barrier();
                    }
                    if i % 7 == 0 {
                        ctx.new_strand();
                    }
                }
            });
            let dag = PersistDag::build(&t, &cfg(model)).unwrap();
            let rep = timing::analyze(&t, &cfg(model));
            assert!(dag.critical_path() >= rep.critical_path, "model {model}");
            assert!(dag.len() as u64 >= rep.persist_nodes, "model {model}");
        }
    }

    #[test]
    fn edges_iterate_all_deps() {
        let mem = TracedMem::new(FreeRunScheduler);
        let t = mem.run(1, |ctx| {
            let a = ctx.palloc(64, 8).unwrap();
            ctx.store_u64(a, 1);
            ctx.persist_barrier();
            ctx.store_u64(a.add(8), 2);
        });
        let dag = PersistDag::build(&t, &cfg(Model::Epoch)).unwrap();
        assert_eq!(dag.edges().collect::<Vec<_>>(), vec![(0, 1)]);
    }
}
