//! The dependence domain abstraction shared by the timing and DAG engines.
//!
//! The persistency-model propagation rules (how persist-order constraints
//! flow through thread and memory state, §7 "Persist Timing Simulation")
//! are identical whether the analysis tracks scalar critical-path *levels*
//! (fast, for the figures) or explicit *node sets* (exact, for the recovery
//! observer). [`Domain`] abstracts over the representation; the engine in
//! [`crate::engine`] is written once against it.

use crate::rules::Rules;
use mem_trace::ThreadId;
use persist_mem::MemAddr;

/// A single write performed by a persist, for later replay by the recovery
/// observer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WriteRec {
    /// First byte written.
    pub addr: MemAddr,
    /// Width in bytes (1..=8).
    pub len: u8,
    /// Value written (little-endian, low `len` bytes).
    pub value: u64,
}

/// Provenance of a persist: where in the trace it came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EventRef {
    /// Index of the store in the trace's visibility order.
    pub index: usize,
    /// Issuing thread.
    pub thread: ThreadId,
    /// Enclosing work item (from `WorkBegin` markers), if any.
    pub work: Option<u64>,
}

/// The set of a run's model lanes one rule applies to. A domain that
/// analyzes one model uses `bool`; a domain that carries several models at
/// once (lane *k* follows model *k*) uses a per-lane mask.
pub(crate) trait Mask: Copy {
    /// The mask holding lane *k* iff `f(lanes[k])`.
    fn of(lanes: &[Rules], f: impl Fn(Rules) -> bool) -> Self;

    /// Whether any lane is in the mask.
    fn any(self) -> bool;
}

impl Mask for bool {
    #[inline]
    fn of(lanes: &[Rules], f: impl Fn(Rules) -> bool) -> bool {
        assert_eq!(lanes.len(), 1, "a one-model domain runs one model lane");
        f(lanes[0])
    }

    #[inline]
    fn any(self) -> bool {
        self
    }
}

/// Representation of persist-order dependences.
///
/// `Dep` is a join-semilattice element summarizing "the persists that must
/// happen before"; `PRef` identifies an existing persist operation as a
/// coalescing target.
///
/// The `*_where` operations apply to the lanes of a [`Mask`]. Their
/// defaults treat the mask as all or nothing, which is exact for `bool`
/// masks; a domain with several model lanes overrides them.
pub(crate) trait Domain {
    /// Accumulated dependence constraint.
    type Dep: Clone;
    /// Handle to a created persist (coalescing target).
    type PRef: Copy;
    /// The model lanes a rule applies to.
    type Mask: Mask;

    /// The empty constraint.
    fn bottom(&self) -> Self::Dep;

    /// `into ⊔= from`.
    fn join(&mut self, into: &mut Self::Dep, from: &Self::Dep);

    /// Creates a new persist ordered after `input`.
    fn new_persist(&mut self, input: &Self::Dep, w: WriteRec, ev: EventRef) -> Self::PRef;

    /// `true` if a persist with incoming constraint `input` may coalesce
    /// into `target` — i.e. every dependence in `input` is already ordered
    /// at or before `target` (§7: coalescing must not violate any persist
    /// order constraint).
    fn can_coalesce(&self, input: &Self::Dep, target: Self::PRef) -> bool;

    /// Merges a persist into `target` (must only be called after
    /// [`Domain::can_coalesce`] returned `true`).
    fn coalesce(&mut self, target: Self::PRef, w: WriteRec, ev: EventRef);

    /// A persist with incoming constraint `input` to an atomic-persist
    /// block whose last persist is `target`, under coalescing: merges into
    /// `target` when legal, else creates a new persist. Returns the persist
    /// the write ended up in and whether it coalesced. Domains that carry
    /// several analyses at once override this to decide per analysis.
    #[inline]
    fn persist_onto(
        &mut self,
        input: &Self::Dep,
        target: Self::PRef,
        w: WriteRec,
        ev: EventRef,
    ) -> (Self::PRef, bool) {
        if self.can_coalesce(input, target) {
            self.coalesce(target, w, ev);
            (target, true)
        } else {
            (self.new_persist(input, w, ev), false)
        }
    }

    /// Folds a thread's epoch-local constraint `cur` into its prefix
    /// `prev` at the ordering barrier at trace index `index`, leaving `cur`
    /// empty for the next epoch.
    #[inline]
    fn fold(&mut self, prev: &mut Self::Dep, cur: &mut Self::Dep, _index: usize) {
        self.join(prev, cur);
        self.reset_dep(cur);
    }

    /// The constraint "ordered after persist `p`".
    fn dep_of(&self, p: Self::PRef) -> Self::Dep;

    /// `into ⊔= dep_of(p)`, without materializing the intermediate
    /// constraint. Domains with allocating `Dep` representations override
    /// this to keep the engine's per-persist path allocation-free.
    fn join_pref(&mut self, into: &mut Self::Dep, p: Self::PRef) {
        let dep = self.dep_of(p);
        self.join(into, &dep);
    }

    /// `*into = dep_of(p)`, reusing `into`'s storage where possible.
    fn assign_pref(&mut self, into: &mut Self::Dep, p: Self::PRef) {
        *into = self.dep_of(p);
    }

    /// `*dep = bottom()`, reusing `dep`'s storage where possible (the
    /// engine clears block reader sets on every write).
    fn reset_dep(&self, dep: &mut Self::Dep) {
        *dep = self.bottom();
    }

    /// [`join`](Domain::join) in the lanes of `m`.
    #[inline]
    fn join_where(&mut self, into: &mut Self::Dep, from: &Self::Dep, m: Self::Mask) {
        if m.any() {
            self.join(into, from);
        }
    }

    /// `*into = from.clone()` in the lanes of `m`.
    #[inline]
    fn assign_where(&mut self, into: &mut Self::Dep, from: &Self::Dep, m: Self::Mask) {
        if m.any() {
            into.clone_from(from);
        }
    }

    /// [`assign_pref`](Domain::assign_pref) in the lanes of `m`.
    #[inline]
    fn assign_pref_where(&mut self, into: &mut Self::Dep, p: Self::PRef, m: Self::Mask) {
        if m.any() {
            self.assign_pref(into, p);
        }
    }

    /// [`reset_dep`](Domain::reset_dep) in the lanes of `m`.
    #[inline]
    fn reset_where(&self, dep: &mut Self::Dep, m: Self::Mask) {
        if m.any() {
            self.reset_dep(dep);
        }
    }

    /// [`fold`](Domain::fold) in the lanes of `m`.
    #[inline]
    fn fold_where(&mut self, prev: &mut Self::Dep, cur: &mut Self::Dep, index: usize, m: Self::Mask) {
        if m.any() {
            self.fold(prev, cur, index);
        }
    }
}
