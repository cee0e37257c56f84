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
//! pooled stamp-marked visited arena, so queries allocate nothing.
//!
//! Construction propagates *chain-clock frontiers* (`Frontier`): every
//! dependence value is the sorted maximal antichain of its down-set plus
//! that down-set's per-chain watermarks, the same vector a node's index
//! row holds. A join is a no-op exactly when one clock is below the other
//! (and the few off-chain members are covered); otherwise one merge pass
//! keeps each member the other side's clock does not cover. Coalescing
//! compares the input's clock with the target's row, and a new node's row
//! is a copy of its input's clock. Only members off the index take the
//! DFS, so a join costs O(chains + members) instead of one reachability
//! query per pair of members.

use crate::domain::{Domain, EventRef, LaneMask, WriteRec};
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
/// Every node is appended to a *chain* — a path in the DAG — when it
/// reaches the current tip of one (else it opens a new chain, up to
/// [`MAX_CHAINS`]). Each node stores a pooled *row* holding, per chain, the
/// highest chain position in its down-set (the node and its ancestors).
/// Because a chain is a path, reaching position `p` of a chain means
/// reaching every earlier position, so `by` reaches `x` iff
/// `row(by)[chain(x)] >= pos(x)`.
///
/// A node's row is the chain clock of its incoming constraint (see
/// `Frontier`) plus its own position, trimmed of trailing zeros and
/// packed into one pooled buffer — construction copies one clock per node
/// with no per-node allocation, queries are O(1).
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
    /// Row length of each node (rows are trimmed of trailing zeros).
    width: Vec<u16>,
    /// Packed rows: `pool[off[v]..off[v] + width[v]]`.
    pool: Vec<u32>,
}

impl ReachIndex {
    /// Registers the next node (id = current length), whose incoming
    /// constraint has members `deps` and stored clock `clock` (see
    /// `Frontier`). Returns `false` if no chain could take the node:
    /// queries for it fall back to the DFS.
    fn add_node(&mut self, deps: &[u32], clock: &[u32]) -> bool {
        let id = self.chain.len() as u32;
        let off = self.pool.len();
        self.off.push(off as u32);
        match *deps {
            [p] => self.pool.extend_from_within(self.span(p)),
            _ => self.pool.extend_from_slice(clock),
        }
        // A chain may be extended by ANY node that reaches its current tip
        // (not just a direct successor): the clock already answers that —
        // the tip holds the chain's maximal position, so reaching it means
        // `clock[c] == tip_pos[c]`. This keeps the number of chains near
        // the DAG's antichain width instead of growing with every fan-out.
        let clock = &self.pool[off..];
        let tip = (0..clock.len()).find(|&c| clock[c] > 0 && clock[c] == self.tip_pos[c]);
        let (chain, pos) = match tip {
            Some(c) => {
                let pos = clock[c] + 1;
                self.tips[c] = id;
                self.tip_pos[c] = pos;
                self.pool[off + c] = pos;
                (c as u16, pos)
            }
            None if self.tips.len() < MAX_CHAINS => {
                // The clock is no longer than the chains that exist.
                let c = self.tips.len();
                self.tips.push(id);
                self.tip_pos.push(1);
                self.pool.resize(off + c, 0);
                self.pool.push(1);
                (c as u16, 1)
            }
            None => (u16::MAX, 0),
        };
        self.width.push((self.pool.len() - off) as u16);
        self.chain.push(chain);
        self.pos.push(pos);
        chain != u16::MAX
    }

    /// Number of chains (diagnostics).
    #[doc(hidden)]
    pub fn chains(&self) -> usize { self.tips.len() }

    /// Where node `v`'s row lies in `pool`.
    #[inline]
    fn span(&self, v: u32) -> std::ops::Range<usize> {
        let off = self.off[v as usize] as usize;
        off..off + self.width[v as usize] as usize
    }

    /// The chain clock of node `v`'s down-set.
    #[inline]
    fn row(&self, v: u32) -> &[u32] {
        &self.pool[self.span(v)]
    }

    /// Chain and position of node `x`, or `None` if it is off-chain.
    #[inline]
    fn place(&self, x: u32) -> Option<(usize, u32)> {
        let c = self.chain[x as usize];
        (c != u16::MAX).then(|| (c as usize, self.pos[x as usize]))
    }

    /// `Some(answer)` if the index can decide whether `by` reaches `x`
    /// (both ids already validated, `x < by`); `None` if `x` is off-chain
    /// and the caller must fall back to the DFS.
    #[inline]
    fn query(&self, by: u32, x: u32) -> Option<bool> {
        let (c, pos) = self.place(x)?;
        Some(clock_at(self.row(by), c) >= pos)
    }
}

/// Entry `c` of a trimmed chain clock (0 past its end).
#[inline]
fn clock_at(clock: &[u32], c: usize) -> u32 {
    clock.get(c).copied().unwrap_or(0)
}

/// `a ≤ b` elementwise, for chain clocks trimmed of trailing zeros.
#[inline]
fn clock_le(a: &[u32], b: &[u32]) -> bool {
    a.len() <= b.len() && a.iter().zip(b).all(|(x, y)| x <= y)
}

/// `into = max(into, from)` elementwise; trimmed inputs give a trimmed
/// result.
#[inline]
fn clock_max(into: &mut Vec<u32>, from: &[u32]) {
    if from.len() > into.len() {
        into.resize(from.len(), 0);
    }
    for (a, &b) in into.iter_mut().zip(from) {
        if b > *a {
            *a = b;
        }
    }
}

/// `true` if `x` is an ancestor of `by` (or `x == by`): by the chain index
/// when `x` is on a chain, else searching the dependence edges
/// depth-first.
///
/// Pruning: dependences always point to earlier-created nodes, so any
/// node `< x` is skipped; topological levels strictly decrease along
/// dependence edges, so any node at or below `level[x]` (other than `x`
/// itself) cannot have `x` in its ancestry.
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

/// A dependence value of [`DagDomain`]: the persists that must happen
/// before, as the maximal antichain of their down-set plus the down-set's
/// chain clock.
///
/// The clock holds, per [`ReachIndex`] chain, the highest position in the
/// down-set (0 = none), trimmed of trailing zeros: the elementwise max of
/// the members' rows. An on-chain node `x` is in the down-set iff
/// `clock[chain(x)] >= pos(x)`. A frontier of one member does not store
/// its clock, which is that member's row ([`DagDomain::clock`]): block
/// and thread state mostly hold the one persist that wrote last.
///
/// Both lists share one buffer, `[n, ids.., clock..]` (empty = bottom), so
/// a frontier is as small as a plain id list and the engine's per-event
/// `clone_from` copies one slice.
#[derive(Debug, Default)]
pub(crate) struct Frontier {
    buf: Vec<u32>,
}

impl Frontier {
    /// The down-set's maximal elements, sorted ascending.
    #[inline]
    fn ids(&self) -> &[u32] {
        match self.buf.first() {
            Some(&n) => &self.buf[1..=n as usize],
            None => &[],
        }
    }

    /// The stored clock: empty unless there are two or more members.
    #[inline]
    fn stored_clock(&self) -> &[u32] {
        match self.buf.first() {
            Some(&n) => &self.buf[n as usize + 1..],
            None => &[],
        }
    }

    /// Sets the frontier to members `ids` (sorted) with chain clock
    /// `clock`, which is dropped if there is one member.
    #[inline]
    fn set(&mut self, ids: &[u32], clock: &[u32]) {
        self.buf.clear();
        self.buf.push(ids.len() as u32);
        self.buf.extend_from_slice(ids);
        if ids.len() > 1 {
            self.buf.extend_from_slice(clock);
        }
    }
}

impl Clone for Frontier {
    fn clone(&self) -> Self {
        Frontier { buf: self.buf.clone() }
    }

    /// Reuses the buffer: the engine clones a thread's constraint into its
    /// per-event accumulator on every access.
    fn clone_from(&mut self, src: &Self) {
        self.buf.clone_from(&src.buf);
    }
}

/// Set domain: a dependence is the antichain of persists that must happen
/// before, with its chain clock. Joins and coalescing checks compare
/// clocks; only members the chain index could not place take the
/// level-pruned DFS.
#[derive(Debug, Default)]
pub(crate) struct DagDomain {
    nodes: Vec<DagNode>,
    /// levels[i] = critical-path depth of node i (1 + max over deps).
    levels: Vec<u32>,
    /// Constant-time chain-decomposition reachability.
    reach: ReachIndex,
    /// Pooled DFS working set for off-chain dominance queries (they run
    /// from `&self` helpers, hence the `RefCell`).
    arena: RefCell<QueryArena>,
    /// Nodes the chain index could not place.
    offchain: u64,
    /// Members and clock of a join's result, before they are stored.
    ids: Vec<u32>,
    clock: Vec<u32>,
    /// `join_pref`'s one-member operand.
    one: Frontier,
    overflow: bool,
}

impl DagDomain {
    /// The chain clock of `f`.
    #[inline]
    fn clock<'a>(&'a self, f: &'a Frontier) -> &'a [u32] {
        match f.ids() {
            &[p] => self.reach.row(p),
            _ => f.stored_clock(),
        }
    }

    /// `true` if some member of `ids` reaches `x` (or is `x`).
    fn reached(&self, ids: &[u32], x: u32) -> bool {
        ids.iter().any(|&m| reaches(&self.nodes, &self.levels, &self.reach, &self.arena, m, x))
    }

    /// `true` if `x` lies in the down-set with maximal elements `ids` and
    /// chain clock `clock`: by the clock if `x` is on a chain, else by a
    /// search from the members.
    #[inline]
    fn covers(&self, ids: &[u32], clock: &[u32], x: u32) -> bool {
        match self.reach.place(x) {
            Some((c, pos)) => clock_at(clock, c) >= pos,
            None => self.reached(ids, x),
        }
    }

    /// `true` if every off-chain node of `xs` lies in the down-set with
    /// maximal elements `ids`.
    #[inline]
    fn covers_offchain(&self, ids: &[u32], xs: &[u32]) -> bool {
        self.offchain == 0
            || xs.iter().all(|&x| self.reach.place(x).is_some() || self.reached(ids, x))
    }

    /// Writes the maximal antichain of `a ∪ b` to `out`, unless `b`'s
    /// down-set lies in `a`'s; returns whether it did.
    fn merge(&self, a: &Frontier, b: &Frontier, out: &mut Vec<u32>) -> bool {
        let (a_ids, b_ids) = (a.ids(), b.ids());
        let (a_clock, b_clock) = (self.clock(a), self.clock(b));
        // A no-op exactly when the on-chain part of `b`'s down-set is
        // below `a`'s clock and its off-chain members are covered.
        if clock_le(b_clock, a_clock) && self.covers_offchain(a_ids, b_ids) {
            return false;
        }
        // One pass over both sorted lists keeps each member the other
        // side's down-set does not cover. Node ids stay below
        // `MAX_DAG_NODES`, so `u32::MAX` marks an exhausted list.
        out.clear();
        let (mut i, mut j) = (0, 0);
        loop {
            let x = a_ids.get(i).copied().unwrap_or(u32::MAX);
            let y = b_ids.get(j).copied().unwrap_or(u32::MAX);
            if x == y {
                if x == u32::MAX {
                    return true;
                }
                out.push(x);
                i += 1;
                j += 1;
            } else if x < y {
                if !self.covers(b_ids, b_clock, x) {
                    out.push(x);
                }
                i += 1;
            } else {
                if !self.covers(a_ids, a_clock, y) {
                    out.push(y);
                }
                j += 1;
            }
        }
    }
}

impl Domain for DagDomain {
    type Dep = Frontier;
    type PRef = u32;
    type Mask = LaneMask<1>;

    fn bottom(&self) -> Frontier {
        Frontier::default()
    }

    fn join(&mut self, into: &mut Frontier, from: &Frontier) {
        if from.buf.is_empty() {
            return;
        }
        if into.buf.is_empty() {
            into.clone_from(from);
            return;
        }
        let (mut ids, mut clock) = (std::mem::take(&mut self.ids), std::mem::take(&mut self.clock));
        if self.merge(into, from, &mut ids) {
            // A one-member result stores no clock. In the engine's
            // per-persist `join_pref` the new persist covers the whole
            // frontier, so that is the common case.
            if ids.len() > 1 {
                clock.clear();
                clock.extend_from_slice(self.clock(into));
                clock_max(&mut clock, self.clock(from));
            }
            into.set(&ids, &clock);
        }
        (self.ids, self.clock) = (ids, clock);
    }

    fn new_persist(&mut self, input: &Frontier, w: WriteRec, ev: EventRef) -> u32 {
        if self.nodes.len() >= MAX_DAG_NODES {
            self.overflow = true;
            // Keep returning the last node; build() reports the error.
            return (self.nodes.len() - 1) as u32;
        }
        let id = self.nodes.len() as u32;
        let deps = input.ids();
        let level = 1 + deps.iter().map(|&d| self.levels[d as usize]).max().unwrap_or(0);
        self.levels.push(level);
        if !self.reach.add_node(deps, input.stored_clock()) {
            self.offchain += 1;
        }
        self.nodes.push(DagNode {
            deps: SmallVec::from_slice(deps),
            writes: SmallVec::one(w),
            events: SmallVec::one(ev),
            thread: ev.thread,
        });
        id
    }

    fn persist_onto(&mut self, input: &Frontier, target: u32, w: WriteRec, ev: EventRef) -> (u32, u64) {
        let row = self.reach.row(target);
        if clock_le(self.clock(input), row) && self.covers_offchain(&[target], input.ids()) {
            let n = &mut self.nodes[target as usize];
            n.writes.push(w);
            n.events.push(ev);
            (target, 1)
        } else {
            (self.new_persist(input, w, ev), 0)
        }
    }

    fn dep_of(&self, p: u32) -> Frontier {
        Frontier { buf: vec![1, p] }
    }

    fn join_pref(&mut self, into: &mut Frontier, p: u32) {
        let mut one = std::mem::take(&mut self.one);
        one.set(&[p], &[]);
        self.join(into, &one);
        self.one = one;
    }

    fn assign_pref(&mut self, into: &mut Frontier, p: u32) {
        into.set(&[p], &[]);
    }

    fn reset_dep(&self, dep: &mut Frontier) {
        dep.buf.clear();
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
                let lanes = std::slice::from_ref(config);
                let mut run = engine::Run::begin(lanes, nthreads, DagDomain::default(), &mut scratch);
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
            obsv::counter_add("dag.offchain_nodes", dom.offchain);
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

    /// Reference domain for [`dag_domain_matches_closure_oracle`]: a
    /// dependence is its whole down-set as a sorted set. Join is union,
    /// coalescing is a subset test, and a node's deps are the maximal
    /// elements of its input, found by brute force. No chains, no
    /// antichains.
    #[derive(Default)]
    struct ClosureDomain {
        nodes: Vec<DagNode>,
        /// Down-set of each node, itself included, sorted.
        closure: Vec<Vec<u32>>,
    }

    fn union(a: &[u32], b: &[u32]) -> Vec<u32> {
        let mut u: Vec<u32> = a.iter().chain(b).copied().collect();
        u.sort_unstable();
        u.dedup();
        u
    }

    impl Domain for ClosureDomain {
        type Dep = Vec<u32>;
        type PRef = u32;
        type Mask = LaneMask<1>;

        fn bottom(&self) -> Vec<u32> {
            Vec::new()
        }

        fn join(&mut self, into: &mut Vec<u32>, from: &Vec<u32>) {
            *into = union(into, from);
        }

        fn new_persist(&mut self, input: &Vec<u32>, w: WriteRec, ev: EventRef) -> u32 {
            let id = self.nodes.len() as u32;
            let mut below = vec![false; self.nodes.len()];
            for &y in input {
                for &z in &self.closure[y as usize] {
                    below[z as usize] |= z != y;
                }
            }
            let deps: Vec<u32> = input.iter().copied().filter(|&x| !below[x as usize]).collect();
            self.closure.push(union(input, &[id]));
            self.nodes.push(DagNode {
                deps: SmallVec::from_slice(&deps),
                writes: SmallVec::one(w),
                events: SmallVec::one(ev),
                thread: ev.thread,
            });
            id
        }

        fn persist_onto(
            &mut self,
            input: &Vec<u32>,
            target: u32,
            w: WriteRec,
            ev: EventRef,
        ) -> (u32, u64) {
            let down = &self.closure[target as usize];
            if input.iter().all(|x| down.binary_search(x).is_ok()) {
                let n = &mut self.nodes[target as usize];
                n.writes.push(w);
                n.events.push(ev);
                (target, 1)
            } else {
                (self.new_persist(input, w, ev), 0)
            }
        }

        fn dep_of(&self, p: u32) -> Vec<u32> {
            self.closure[p as usize].clone()
        }
    }

    fn run_domain<D: Domain>(trace: &Trace, config: &AnalysisConfig, dom: D) -> (D, EngineStats) {
        let mut scratch = engine::Scratch::new(&dom);
        let lanes = std::slice::from_ref(config);
        let mut run = engine::Run::begin(lanes, trace.thread_count(), dom, &mut scratch);
        run.push_events(trace.events()).unwrap();
        run.finish()
    }

    /// A random workload over `lines` 8-byte persistent words: stores
    /// (some 4-byte, some spanning two words), loads, an RMW, volatile
    /// traffic, every kind of barrier, and a strand start in one op of
    /// `strand_every`.
    fn random_trace(seed: u64, threads: u32, ops: u32, lines: u64, strand_every: u64) -> Trace {
        use mem_trace::rng::SmallRng;
        use persist_mem::MemAddr;
        TracedMem::new(SeededScheduler::new(seed)).run(threads, |ctx| {
            let mut rng = SmallRng::seed_from_u64(seed ^ (ctx.thread_id().as_u64() << 32) ^ 0xC10C);
            for _ in 0..ops {
                let addr = MemAddr::persistent(rng.gen_below(lines) * 8);
                if rng.gen_below(strand_every) == 0 {
                    ctx.new_strand();
                    continue;
                }
                match rng.gen_below(20) {
                    0..=8 => ctx.store_u64(addr, rng.next_u64()),
                    9 => ctx.store_n(addr, 4, rng.next_u64()),
                    10 => ctx.store_n(addr.add(4), 8, rng.next_u64()),
                    11 | 12 => {
                        ctx.load_u64(addr);
                    }
                    13 => {
                        ctx.fetch_add_u64(addr, 1);
                    }
                    14 => ctx.store_u64(MemAddr::volatile(addr.offset() % 64), 1),
                    15 => {
                        ctx.load_u64(MemAddr::volatile(addr.offset() % 64));
                    }
                    16 | 17 => ctx.persist_barrier(),
                    18 => ctx.mem_barrier(),
                    _ => ctx.persist_sync(),
                }
            }
        })
    }

    #[test]
    fn dag_domain_matches_closure_oracle() {
        // (seed, threads, ops per thread, lines, one strand per N ops):
        // narrow traces that stay on the chain index, and wide ones (many
        // lines, frequent strands, few conflicts) that run past
        // `MAX_CHAINS` and take the DFS fallback.
        let cases = [
            (1, 2, 120, 12, 12),
            (2, 3, 90, 24, 9),
            (3, 1, 200, 8, 1000),
            (4, 4, 80, 96, 4),
            (5, 2, 160, 128, 3),
            (6, 4, 100, 256, 1000),
            (7, 3, 140, 64, 6),
            (8, 4, 120, 512, 2),
            (9, 2, 200, 512, 1000),
        ];
        let mut offchain = [0u64; Model::ALL.len()];
        for (seed, threads, ops, lines, strand_every) in cases {
            let trace = random_trace(seed, threads, ops, lines, strand_every);
            for (k, model) in Model::ALL.into_iter().enumerate() {
                for config in [cfg(model), cfg(model).without_coalescing()] {
                    let (dag, dag_stats) = run_domain(&trace, &config, DagDomain::default());
                    let (oracle, oracle_stats) =
                        run_domain(&trace, &config, ClosureDomain::default());
                    let at = format!("seed {seed}, {model}, coalescing {}", config.coalescing);
                    assert_eq!(dag_stats, oracle_stats, "{at}");
                    assert_eq!(dag.nodes.len(), oracle.nodes.len(), "{at}");
                    for (id, (a, b)) in dag.nodes.iter().zip(&oracle.nodes).enumerate() {
                        assert_eq!(a.deps[..], b.deps[..], "deps of node {id}, {at}");
                        assert_eq!(a.writes[..], b.writes[..], "writes of node {id}, {at}");
                        assert_eq!(a.events[..], b.events[..], "events of node {id}, {at}");
                        assert_eq!(a.thread, b.thread, "thread of node {id}, {at}");
                    }
                    offchain[k] += dag.offchain;
                }
            }
        }
        for (k, model) in Model::ALL.into_iter().enumerate() {
            if matches!(model, Model::Epoch | Model::Strand) {
                assert!(offchain[k] > 0, "no {model} case ran past MAX_CHAINS");
            }
        }
    }
}
