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
//! row holds, and a flag saying whether any member is off the index. A
//! join is a no-op exactly when one clock is below the other (and the
//! off-chain members, if the flag says there are any, are covered);
//! otherwise one merge pass keeps each member the other side's clock does
//! not cover. Coalescing compares the input's clock with the target's row,
//! and folding a new persist `p` into its own input is decided by `p`'s
//! row alone. Only members off the index take the DFS, so a join costs
//! O(chains + members) instead of one reachability query per pair of
//! members. Dependence lists live in one pool (`DepRuns`), where
//! consecutive persists with the same incoming frontier — an epoch's
//! persists — share one run.

use crate::domain::{Domain, EventRef, LaneMask, WriteRec};
use crate::engine::{self, EngineStats};
use crate::smallvec::SmallVec;
use crate::AnalysisConfig;
use core::fmt;
use mem_trace::{ThreadId, Trace};
use std::cell::{Cell, RefCell};

/// Hard cap on DAG nodes. With on-demand reachability the limit is only
/// node storage (deps + writes), not quadratic bitsets; the cap exists to
/// catch runaway traces, not to protect the algorithm.
pub const MAX_DAG_NODES: usize = 4_000_000;

/// One persist operation (possibly several coalesced stores) in the DAG.
///
/// Its direct predecessors live in the DAG's dependence pool and are read
/// through [`PersistDag::deps`]. The writes and provenance are
/// [`SmallVec`]s: they are nearly always one entry, and inline storage
/// keeps node creation allocation-free on that common path. Both deref to
/// slices, so they read exactly like `Vec`s.
#[derive(Debug, Clone)]
pub struct DagNode {
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

/// The dependence lists of all nodes, packed into one pool: node `v`'s
/// list is `pool[start..start + len]` for `spans[v] = (start, len)`, or,
/// if it has one entry, `start` itself, which keeps a chain's DFS out of
/// the pool. A node whose list equals the previous node's shares that
/// node's run, so the persists of one epoch, which all follow the same
/// frontier, store their list once.
#[derive(Debug, Clone, Default)]
struct DepRuns {
    pool: Vec<u32>,
    spans: Vec<(u32, u32)>,
    /// Entries stored: the pool's and the one-entry lists'.
    stored: u64,
}

impl DepRuns {
    /// The dependence list of node `v`.
    #[inline]
    fn get(&self, v: u32) -> &[u32] {
        self.run(&self.spans[v as usize])
    }

    #[inline]
    fn run<'a>(&'a self, (start, len): &'a (u32, u32)) -> &'a [u32] {
        match len {
            1 => std::slice::from_ref(start),
            _ => &self.pool[*start as usize..][..*len as usize],
        }
    }

    /// Appends the next node's list; returns whether it shares the
    /// previous node's run, or `None` if the pool is full (its offsets
    /// are 32-bit).
    #[inline]
    fn push(&mut self, deps: &[u32]) -> Option<bool> {
        if let Some(last) = self.spans.last() {
            let run = self.run(last);
            if run.last() == deps.last() && run == deps {
                self.spans.push(*last);
                return Some(true);
            }
        }
        self.stored += deps.len() as u64;
        let span = match *deps {
            [d] => (d, 1),
            _ => {
                let start = u32::try_from(self.pool.len()).ok()?;
                u32::try_from(self.pool.len() + deps.len()).ok()?;
                self.pool.extend_from_slice(deps);
                (start, deps.len() as u32)
            }
        };
        self.spans.push(span);
        Some(false)
    }

    /// Dependence edges: the summed length of every node's list.
    fn refs(&self) -> u64 {
        self.spans.iter().map(|&(_, len)| len as u64).sum()
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
/// [`MAX_CHAINS`]). Each node has a *row* holding, per chain, the highest
/// chain position in its down-set (the node and its ancestors). Because a
/// chain is a path, reaching position `p` of a chain means reaching every
/// earlier position, so `by` reaches `x` iff `row(by)[chain(x)] >= pos(x)`.
///
/// A node's row is the chain clock of its incoming constraint (see
/// `Frontier`), its *base*, with its own chain's entry raised to its own
/// position. Bases are trimmed of trailing zeros and packed into one
/// pooled buffer, and consecutive nodes with the same incoming frontier
/// share one, so an epoch's persists store a single clock. Queries are
/// O(1).
#[derive(Debug, Clone, Default)]
pub struct ReachIndex {
    /// Each node's place and base.
    slots: Vec<Slot>,
    /// Current tip node of each chain.
    tips: Vec<u32>,
    /// Position of each chain's tip (== the chain's length).
    tip_pos: Vec<u32>,
    /// Packed base clocks.
    pool: Vec<u32>,
}

/// A node of the [`ReachIndex`]: its base `pool[off..off + len]` and its
/// place, so one lookup yields its row.
#[derive(Debug, Clone, Copy)]
struct Slot {
    off: u32,
    /// At most [`MAX_CHAINS`].
    len: u16,
    /// `u16::MAX` = none; queries fall back to the DFS.
    chain: u16,
    /// 1-based position within the chain (0 = no chain).
    pos: u32,
}

impl ReachIndex {
    /// Registers the next node (id = current length), whose incoming
    /// constraint has members `deps` and stored clock `clock` (see
    /// `Frontier`); `shared` says that the previous node had the same
    /// members. Returns `false` if no chain could take the node: queries
    /// for it fall back to the DFS.
    fn add_node(&mut self, deps: &[u32], clock: &[u32], shared: bool) -> bool {
        let id = self.slots.len() as u32;
        let (off, len) = match *deps {
            // Equal members, equal down-set: the previous node's base.
            _ if shared => {
                let prev = self.slots[id as usize - 1];
                (prev.off as usize, prev.len as usize)
            }
            // One member: its row, materialized.
            [p] => {
                let s = self.slots[p as usize];
                let off = self.pool.len();
                self.pool.extend_from_within(s.off as usize..s.off as usize + s.len as usize);
                if s.chain != u16::MAX {
                    let c = s.chain as usize;
                    if c >= s.len as usize {
                        self.pool.resize(off + c + 1, 0);
                    }
                    self.pool[off + c] = s.pos;
                }
                (off, self.pool.len() - off)
            }
            _ => {
                let off = self.pool.len();
                self.pool.extend_from_slice(clock);
                (off, clock.len())
            }
        };
        // A chain may be extended by ANY node that reaches its current tip
        // (not just a direct successor): the clock already answers that —
        // the tip holds the chain's maximal position, so reaching it means
        // `clock[c] == tip_pos[c]`. This keeps the number of chains near
        // the DAG's antichain width instead of growing with every fan-out.
        let clock = &self.pool[off..off + len];
        let tip = (0..clock.len()).find(|&c| clock[c] > 0 && clock[c] == self.tip_pos[c]);
        let (chain, pos) = match tip {
            Some(c) => {
                let pos = clock[c] + 1;
                self.tips[c] = id;
                self.tip_pos[c] = pos;
                (c as u16, pos)
            }
            None if self.tips.len() < MAX_CHAINS => {
                self.tips.push(id);
                self.tip_pos.push(1);
                ((self.tips.len() - 1) as u16, 1)
            }
            None => (u16::MAX, 0),
        };
        self.slots.push(Slot { off: off as u32, len: len as u16, chain, pos });
        chain != u16::MAX
    }

    /// Number of chains (diagnostics).
    #[doc(hidden)]
    pub fn chains(&self) -> usize { self.tips.len() }

    /// The chain clock of node `v`'s down-set.
    #[inline]
    fn row(&self, v: u32) -> Clock<'_> {
        let s = self.slots[v as usize];
        let base = &self.pool[s.off as usize..][..s.len as usize];
        Clock { base, top: (s.chain as usize, s.pos) }
    }

    /// Chain and position of node `x`, or `None` if it is off-chain.
    #[inline]
    fn place(&self, x: u32) -> Option<(usize, u32)> {
        let s = self.slots[x as usize];
        (s.chain != u16::MAX).then_some((s.chain as usize, s.pos))
    }

    /// `Some(answer)` if the index can decide whether `by` reaches `x`
    /// (both ids already validated, `x < by`); `None` if `x` is off-chain
    /// and the caller must fall back to the DFS.
    #[inline]
    fn query(&self, by: u32, x: u32) -> Option<bool> {
        let (c, pos) = self.place(x)?;
        Some(self.row(by).at(c) >= pos)
    }
}

/// A chain clock: `base`, trimmed of trailing zeros, with entry `top.0`
/// raised to `top.1`. A node's row raises its own chain's entry over its
/// shared base; an off-chain node's row and a frontier's stored clock
/// raise nothing (`top.1 == 0`).
#[derive(Debug, Clone, Copy)]
struct Clock<'a> {
    base: &'a [u32],
    top: (usize, u32),
}

impl<'a> Clock<'a> {
    /// The clock `base`, with nothing raised.
    #[inline]
    fn stored(base: &'a [u32]) -> Self {
        Clock { base, top: (0, 0) }
    }

    /// Entry `c` (0 past the end).
    #[inline]
    fn at(self, c: usize) -> u32 {
        let b = self.base.get(c).copied().unwrap_or(0);
        if c == self.top.0 {
            b.max(self.top.1)
        } else {
            b
        }
    }

    /// `self ≤ other` elementwise.
    #[inline]
    fn le(self, other: Clock<'_>) -> bool {
        if self.top.1 > other.at(self.top.0) {
            return false;
        }
        // Bases in order decide it, as raising `other` only relaxes the
        // bound; else `other`'s raised entry may be the one that holds.
        let n = self.base.len();
        if n <= other.base.len() && slice_le(self.base, &other.base[..n]) {
            return true;
        }
        self.base.iter().enumerate().all(|(c, &x)| x <= other.at(c))
    }

    /// `into = self`.
    #[inline]
    fn copy_into(self, into: &mut Vec<u32>) {
        into.clear();
        into.extend_from_slice(self.base);
        self.raise(into);
    }

    /// `into = max(into, self)` elementwise; trimmed inputs give a trimmed
    /// result.
    #[inline]
    fn max_into(self, into: &mut Vec<u32>) {
        let from = self.base;
        if from.len() > into.len() {
            into.resize(from.len(), 0);
        }
        for (a, &b) in into.iter_mut().zip(from) {
            *a = (*a).max(b);
        }
        self.raise(into);
    }

    /// `into[top.0] = max(into[top.0], top.1)`, growing `into` if needed.
    #[inline]
    fn raise(self, into: &mut Vec<u32>) {
        let (c, pos) = self.top;
        if pos > 0 {
            if c >= into.len() {
                into.resize(c + 1, 0);
            }
            into[c] = into[c].max(pos);
        }
    }
}

/// `a ≤ b` elementwise, for slices of equal length; branch-free, so it
/// vectorizes.
#[inline]
fn slice_le(a: &[u32], b: &[u32]) -> bool {
    a.iter().zip(b).fold(true, |ok, (x, y)| ok & (x <= y))
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
    deps: &DepRuns,
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
    reaches_dfs(deps, levels, arena, by, x, lx)
}

/// The non-trivial tail of [`reaches`], outlined so the inline fast path
/// stays small.
#[inline(never)]
fn reaches_dfs(
    deps: &DepRuns,
    levels: &[u32],
    arena: &RefCell<QueryArena>,
    by: u32,
    x: u32,
    lx: u32,
) -> bool {
    // `by`'s own dependences decide most searches: `x` is one of them, or
    // none lies above it.
    let mut open = false;
    for &d in deps.get(by) {
        if d == x {
            return true;
        }
        open |= d > x && levels[d as usize] > lx;
    }
    if !open {
        return false;
    }
    let arena = &mut *arena.borrow_mut();
    let stamp = arena.begin(levels.len());
    arena.visited[by as usize] = stamp;
    arena.stack.push(by);
    while let Some(u) = arena.stack.pop() {
        for &d in deps.get(u) {
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

/// Header bit of a [`Frontier`] some member of which is off the chain
/// index. Node ids stay below [`MAX_DAG_NODES`], so a member count never
/// reaches it.
const OFFCHAIN: u32 = 1 << 31;

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
/// Both lists share one buffer, `[n | flag, ids.., clock..]` (empty =
/// bottom), so a frontier is as small as a plain id list and the engine's
/// per-event `clone_from` copies one slice. `flag` is [`OFFCHAIN`] iff
/// some member is off the index; without it, the clock alone decides
/// whether another down-set covers this one.
#[derive(Debug, Default)]
pub(crate) struct Frontier {
    buf: Vec<u32>,
}

impl Frontier {
    /// The down-set's maximal elements, sorted ascending.
    #[inline]
    fn ids(&self) -> &[u32] {
        match self.buf.first() {
            Some(&h) => &self.buf[1..=(h & !OFFCHAIN) as usize],
            None => &[],
        }
    }

    /// The stored clock: empty unless there are two or more members.
    #[inline]
    fn stored_clock(&self) -> &[u32] {
        match self.buf.first() {
            Some(&h) => &self.buf[(h & !OFFCHAIN) as usize + 1..],
            None => &[],
        }
    }

    /// `true` if some member is off the chain index.
    #[inline]
    fn offchain(&self) -> bool {
        self.buf.first().is_some_and(|&h| h & OFFCHAIN != 0)
    }

    /// Sets the frontier to members `ids` (sorted) with chain clock
    /// `clock`, which is dropped if there is one member; `offchain` says
    /// whether some member is off the index.
    #[inline]
    fn set(&mut self, ids: &[u32], clock: &[u32], offchain: bool) {
        self.buf.clear();
        self.buf.push(ids.len() as u32 | if offchain { OFFCHAIN } else { 0 });
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

/// How often each construction shortcut decided a step, reported as the
/// `dag.*` counters. A function of the trace and configuration alone.
#[derive(Debug, Default)]
struct Tally {
    /// Joins of two equal frontiers, skipped whole.
    equal_joins: u64,
    /// `join_pref`s decided by the persist's row alone.
    pref_shortcuts: u64,
    /// Cover checks the clock decided alone, with off-chain nodes in the
    /// DAG but none among the frontier's members.
    clock_covers: Cell<u64>,
    /// Nodes that share the previous node's dependence run.
    shared_runs: u64,
}

/// Set domain: a dependence is the antichain of persists that must happen
/// before, with its chain clock. Joins and coalescing checks compare
/// clocks; only members the chain index could not place take the
/// level-pruned DFS.
#[derive(Debug, Default)]
pub(crate) struct DagDomain {
    nodes: Vec<DagNode>,
    deps: DepRuns,
    /// levels[i] = critical-path depth of node i (1 + max over deps).
    levels: Vec<u32>,
    /// Constant-time chain-decomposition reachability.
    reach: ReachIndex,
    /// Pooled DFS working set for off-chain dominance queries (they run
    /// from `&self` helpers, hence the `RefCell`).
    arena: RefCell<QueryArena>,
    /// Nodes the chain index could not place.
    offchain: u64,
    tally: Tally,
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
    fn clock<'a>(&'a self, f: &'a Frontier) -> Clock<'a> {
        match f.ids() {
            &[p] => self.reach.row(p),
            _ => Clock::stored(f.stored_clock()),
        }
    }

    /// `true` if some member of `ids` (sorted) reaches `x` or is `x`.
    fn reached(&self, ids: &[u32], x: u32) -> bool {
        let (deps, levels, arena) = (&self.deps, &self.levels, &self.arena);
        ids.binary_search(&x).is_ok()
            || ids.iter().any(|&m| reaches(deps, levels, &self.reach, arena, m, x))
    }

    /// `true` if `x` lies in the down-set with maximal elements `ids` and
    /// chain clock `clock`: by the clock if `x` is on a chain, else by a
    /// search from the members.
    #[inline]
    fn covers(&self, ids: &[u32], clock: Clock<'_>, x: u32) -> bool {
        match self.reach.place(x) {
            Some((c, pos)) => clock.at(c) >= pos,
            None => self.reached(ids, x),
        }
    }

    /// `true` if every off-chain member of `f` lies in the down-set with
    /// maximal elements `ids`: with `f`'s flag clear there are none.
    #[inline]
    fn covers_offchain(&self, ids: &[u32], f: &Frontier) -> bool {
        if !f.offchain() {
            if self.offchain > 0 {
                self.tally.clock_covers.set(self.tally.clock_covers.get() + 1);
            }
            return true;
        }
        f.ids().iter().all(|&x| self.reach.place(x).is_some() || self.reached(ids, x))
    }

    /// The [`OFFCHAIN`] flag of a frontier with members `ids`, given
    /// whether any operand it came from had it.
    #[inline]
    fn offchain_among(&self, maybe: bool, ids: &[u32]) -> bool {
        maybe && ids.iter().any(|&x| self.reach.place(x).is_none())
    }

    /// Writes the maximal antichain of `a ∪ b` to `out`, unless `b`'s
    /// down-set lies in `a`'s; returns whether it did.
    fn merge(&self, a: &Frontier, b: &Frontier, out: &mut Vec<u32>) -> bool {
        let (a_ids, b_ids) = (a.ids(), b.ids());
        let (a_clock, b_clock) = (self.clock(a), self.clock(b));
        // A no-op exactly when the on-chain part of `b`'s down-set is
        // below `a`'s clock and its off-chain members are covered.
        if b_clock.le(a_clock) && self.covers_offchain(a_ids, b) {
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
        // A thread's program-order constraint and the block state it
        // wrote often hold the same frontier; equal members, equal clock.
        // Unequal frontiers mostly differ in their newest member.
        let (a, b) = (into.ids(), from.ids());
        if a.last() == b.last() && a == b {
            self.tally.equal_joins += 1;
            return;
        }
        let (mut ids, mut clock) = (std::mem::take(&mut self.ids), std::mem::take(&mut self.clock));
        if self.merge(into, from, &mut ids) {
            if ids.len() > 1 {
                self.clock(into).copy_into(&mut clock);
                self.clock(from).max_into(&mut clock);
            }
            let offchain = self.offchain_among(into.offchain() || from.offchain(), &ids);
            into.set(&ids, &clock, offchain);
        }
        (self.ids, self.clock) = (ids, clock);
    }

    fn new_persist(&mut self, input: &Frontier, w: WriteRec, ev: EventRef) -> u32 {
        let id = self.nodes.len() as u32;
        let deps = input.ids();
        let shared = if self.nodes.len() < MAX_DAG_NODES { self.deps.push(deps) } else { None };
        let Some(shared) = shared else {
            self.overflow = true;
            // Keep returning the last node; build() reports the error.
            return id.saturating_sub(1);
        };
        // A shared run is the previous node's list, so its level too.
        let level = if shared {
            self.tally.shared_runs += 1;
            self.levels[id as usize - 1]
        } else {
            1 + deps.iter().map(|&d| self.levels[d as usize]).max().unwrap_or(0)
        };
        self.levels.push(level);
        if !self.reach.add_node(deps, input.stored_clock(), shared) {
            self.offchain += 1;
        }
        self.nodes.push(DagNode {
            writes: SmallVec::one(w),
            events: SmallVec::one(ev),
            thread: ev.thread,
        });
        id
    }

    fn persist_onto(&mut self, input: &Frontier, target: u32, w: WriteRec, ev: EventRef) -> (u32, u64) {
        if self.clock(input).le(self.reach.row(target)) && self.covers_offchain(&[target], input) {
            let n = &mut self.nodes[target as usize];
            n.writes.push(w);
            n.events.push(ev);
            (target, 1)
        } else {
            (self.new_persist(input, w, ev), 0)
        }
    }

    fn dep_of(&self, p: u32) -> Frontier {
        let mut f = Frontier::default();
        f.set(&[p], &[], self.reach.place(p).is_none());
        f
    }

    fn join_pref(&mut self, into: &mut Frontier, p: u32) {
        if into.buf.is_empty() {
            self.assign_pref(into, p);
            return;
        }
        // The engine folds each persist into its own input, which the
        // persist's row covers: then `{p}` is the whole join, with no
        // merge pass. The cover is checked, not assumed.
        if self.clock(into).le(self.reach.row(p)) && self.covers_offchain(&[p], into) {
            self.tally.pref_shortcuts += 1;
            self.assign_pref(into, p);
            return;
        }
        let mut one = std::mem::take(&mut self.one);
        self.assign_pref(&mut one, p);
        self.join(into, &one);
        self.one = one;
    }

    fn assign_pref(&mut self, into: &mut Frontier, p: u32) {
        into.set(&[p], &[], self.reach.place(p).is_none());
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
    deps: DepRuns,
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
            let tally = &dom.tally;
            obsv::counter_add("dag.builds", 1);
            obsv::counter_add("dag.nodes", dom.nodes.len() as u64);
            obsv::counter_add("dag.offchain_nodes", dom.offchain);
            obsv::counter_add("dag.dep_refs", dom.deps.refs());
            obsv::counter_add("dag.dep_entries", dom.deps.stored);
            obsv::counter_add("dag.shared_runs", tally.shared_runs);
            obsv::counter_add("dag.equal_joins", tally.equal_joins);
            obsv::counter_add("dag.pref_shortcuts", tally.pref_shortcuts);
            obsv::counter_add("dag.clock_covers", tally.clock_covers.get());
            obsv::observe(
                "dag.critical_path",
                dom.levels.iter().copied().max().unwrap_or(0) as u64,
            );
        }
        Ok(PersistDag {
            config: *config,
            nodes: dom.nodes,
            deps: dom.deps,
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

    /// Direct predecessors of node `id`: the maximal elements of its
    /// incoming constraint, ascending.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn deps(&self, id: u32) -> &[u32] {
        self.deps.get(id)
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
        DEPENDS_ARENA.with(|arena| reaches(&self.deps, &self.levels, &self.reach, arena, b, a))
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
        (0..self.len() as u32).flat_map(move |to| self.deps(to).iter().map(move |&from| (from, to)))
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
        assert_eq!(dag.deps(1), vec![0]);
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
            assert_eq!(dag.deps(i), vec![0]);
        }
        assert_eq!(dag.deps(5), vec![1, 2, 3, 4]);
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
        for i in 1..dag.len() as u32 {
            assert_eq!(dag.deps(i), vec![i - 1]);
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
        deps: Vec<Vec<u32>>,
        /// Down-set of each node, itself included, sorted.
        closure: Vec<Vec<u32>>,
    }

    impl ClosureDomain {
        /// The maximal elements of the down-set `set`.
        fn maximal(&self, set: &[u32]) -> Vec<u32> {
            let mut below = vec![false; self.nodes.len()];
            for &y in set {
                for &z in &self.closure[y as usize] {
                    below[z as usize] |= z != y;
                }
            }
            set.iter().copied().filter(|&x| !below[x as usize]).collect()
        }
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
            self.deps.push(self.maximal(input));
            self.closure.push(union(input, &[id]));
            self.nodes.push(DagNode {
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

    /// The shape of a queue capture under a wide epoch: two threads that
    /// each persist `width` (more than [`MAX_CHAINS`]) words of their own
    /// per epoch, read and write a few shared words in between, and end
    /// every epoch with a persist barrier.
    fn wide_epoch_trace(seed: u64, epochs: u32, width: u64) -> Trace {
        use mem_trace::rng::SmallRng;
        use persist_mem::MemAddr;
        TracedMem::new(SeededScheduler::new(seed)).run(2, |ctx| {
            let t = ctx.thread_id().as_u64();
            let mut rng = SmallRng::seed_from_u64(seed ^ (t << 32) ^ 0xE90C);
            let own = MemAddr::persistent(4096 * (1 + t));
            let shared = |rng: &mut SmallRng| MemAddr::persistent(8 * rng.gen_below(4));
            for _ in 0..epochs {
                for i in 0..width {
                    match rng.gen_below(10) {
                        0 => {
                            ctx.load_u64(shared(&mut rng));
                        }
                        1 => ctx.store_u64(shared(&mut rng), rng.next_u64()),
                        _ => ctx.store_u64(own.add(8 * i), rng.next_u64()),
                    }
                }
                ctx.persist_barrier();
            }
        })
    }

    /// Asserts that `f` is the frontier of the down-set `set`: its members
    /// are `set`'s maximal elements, its stored clock the elementwise max
    /// of their rows, and its flag set iff a member is off the index.
    fn check_frontier(
        dag: &DagDomain,
        oracle: &ClosureDomain,
        f: &Frontier,
        set: &[u32],
        at: &str,
    ) {
        let ids = oracle.maximal(set);
        assert_eq!(f.ids(), &ids[..], "members, {at}");
        if ids.len() > 1 {
            let mut clock = Vec::new();
            for &m in &ids {
                dag.reach.row(m).max_into(&mut clock);
            }
            assert_eq!(f.stored_clock(), &clock[..], "clock, {at}");
        }
        let offchain = ids.iter().any(|&m| dag.reach.place(m).is_none());
        assert_eq!(f.offchain(), offchain, "off-chain flag, {at}");
    }

    /// Holds `join` and `join_pref` to the closure domain on operands the
    /// engine never builds: random sets of the DAG's nodes, and persists
    /// that need not cover the frontier they are joined into.
    fn check_random_joins(dag: &mut DagDomain, oracle: &mut ClosureDomain, seed: u64, at: &str) {
        use mem_trace::rng::SmallRng;
        let n = dag.nodes.len() as u64;
        if n == 0 {
            return;
        }
        let mut rng = SmallRng::seed_from_u64(seed);
        for round in 0..64 {
            let (mut f, mut set) = (dag.bottom(), oracle.bottom());
            for _ in 0..1 + rng.gen_below(6) {
                let x = rng.gen_below(n) as u32;
                if rng.gen_below(2) == 0 {
                    dag.join_pref(&mut f, x);
                    oracle.join_pref(&mut set, x);
                } else {
                    let mut g = dag.dep_of(x);
                    let y = rng.gen_below(n) as u32;
                    dag.join_pref(&mut g, y);
                    dag.join(&mut f, &g);
                    let down = union(&oracle.closure[x as usize], &oracle.closure[y as usize]);
                    oracle.join(&mut set, &down);
                }
                check_frontier(dag, oracle, &f, &set, &format!("round {round}, {at}"));
            }
            let copy = f.clone();
            dag.join(&mut f, &copy);
            check_frontier(dag, oracle, &f, &set, &format!("self-join, round {round}, {at}"));
        }
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
        let traces = cases
            .iter()
            .map(|&(seed, threads, ops, lines, strand_every)| {
                (seed, false, random_trace(seed, threads, ops, lines, strand_every))
            })
            // Wide epochs on two threads: multi-member frontiers hold
            // off-chain members, and an epoch's persists share a run.
            .chain([
                (10, true, wide_epoch_trace(10, 6, 40)),
                (11, true, wide_epoch_trace(11, 4, 48)),
            ]);
        let mut offchain = [0u64; Model::ALL.len()];
        let mut tally = Tally::default();
        for (seed, wide, trace) in traces {
            for (k, model) in Model::ALL.into_iter().enumerate() {
                for config in [cfg(model), cfg(model).without_coalescing()] {
                    let (mut dag, dag_stats) = run_domain(&trace, &config, DagDomain::default());
                    let (mut oracle, oracle_stats) =
                        run_domain(&trace, &config, ClosureDomain::default());
                    let at = format!("seed {seed}, {model}, coalescing {}", config.coalescing);
                    assert_eq!(dag_stats, oracle_stats, "{at}");
                    assert_eq!(dag.nodes.len(), oracle.nodes.len(), "{at}");
                    for (id, (a, b)) in dag.nodes.iter().zip(&oracle.nodes).enumerate() {
                        let deps = dag.deps.get(id as u32);
                        assert_eq!(deps, &oracle.deps[id][..], "deps of node {id}, {at}");
                        assert_eq!(a.writes[..], b.writes[..], "writes of node {id}, {at}");
                        assert_eq!(a.events[..], b.events[..], "events of node {id}, {at}");
                        assert_eq!(a.thread, b.thread, "thread of node {id}, {at}");
                    }
                    offchain[k] += dag.offchain;
                    let t = &dag.tally;
                    if wide && model == Model::Epoch {
                        assert!(dag.offchain > 0 && t.shared_runs > 0, "{at}: {t:?}");
                    }
                    tally.equal_joins += t.equal_joins;
                    tally.pref_shortcuts += t.pref_shortcuts;
                    tally.clock_covers.set(tally.clock_covers.get() + t.clock_covers.get());
                    tally.shared_runs += t.shared_runs;
                    check_random_joins(&mut dag, &mut oracle, seed, &at);
                }
            }
        }
        for (k, model) in Model::ALL.into_iter().enumerate() {
            if matches!(model, Model::Epoch | Model::Strand) {
                assert!(offchain[k] > 0, "no {model} case ran past MAX_CHAINS");
            }
        }
        // Every shortcut of the construction decided some step.
        assert!(tally.equal_joins > 0, "{tally:?}");
        assert!(tally.pref_shortcuts > 0, "{tally:?}");
        assert!(tally.clock_covers.get() > 0, "{tally:?}");
        assert!(tally.shared_runs > 0, "{tally:?}");
    }
}
