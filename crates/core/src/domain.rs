//! The dependence domain abstraction shared by the timing and DAG engines.
//!
//! The persistency-model propagation rules (how persist-order constraints
//! flow through thread and memory state, §7 "Persist Timing Simulation")
//! are identical whether the analysis tracks critical-path *levels* (fast,
//! for the figures and the profiler's what-ifs) or explicit *node sets*
//! (exact, for the recovery observer). [`Domain`] abstracts over the
//! representation; the engine in [`crate::engine`] is written once
//! against it.

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

/// The set of a run's lanes one rule applies to: a domain that carries
/// `N` analyses at once (lane *k* follows model *k*) uses a
/// [`LaneMask<N>`].
pub(crate) trait Mask: Copy {
    /// The mask holding lane *k* iff `f(lanes[k])`.
    fn of(lanes: &[Rules], f: impl Fn(Rules) -> bool) -> Self;

    /// Whether any lane is in the mask.
    fn any(self) -> bool;
}

/// The lanes of an `N`-lane run a rule applies to: all ones in a lane
/// that it applies to, zero elsewhere, so masking a 32-bit level is one
/// `and` (bottom is 0).
#[derive(Debug, Clone, Copy)]
pub(crate) struct LaneMask<const N: usize> {
    pub(crate) lanes: [u32; N],
    /// Some lane is in the mask: a rule no lane follows costs no work.
    pub(crate) any: bool,
}

impl<const N: usize> Mask for LaneMask<N> {
    /// Lanes past `lanes.len()` are in no mask.
    fn of(lanes: &[Rules], f: impl Fn(Rules) -> bool) -> Self {
        assert!(lanes.len() <= N, "{} lanes, at most {N}", lanes.len());
        let mut m = [0; N];
        for (m, &r) in m.iter_mut().zip(lanes) {
            *m = if f(r) { u32::MAX } else { 0 };
        }
        LaneMask { lanes: m, any: m.contains(&u32::MAX) }
    }

    #[inline]
    fn any(self) -> bool {
        self.any
    }
}

/// Representation of persist-order dependences.
///
/// `Dep` is a join-semilattice element summarizing "the persists that must
/// happen before"; `PRef` identifies an existing persist operation as a
/// coalescing target.
///
/// The `*_where` operations apply to the lanes of a [`Mask`]. Their
/// defaults treat the mask as all or nothing, which is exact for one
/// lane; a domain with several lanes overrides them.
pub(crate) trait Domain {
    /// Accumulated dependence constraint.
    type Dep: Clone;
    /// Handle to a created persist (coalescing target).
    type PRef: Copy;
    /// The lanes a rule applies to.
    type Mask: Mask;

    /// Most persist operations one run may hold. The engine returns an
    /// error at the persist that would pass it.
    const MAX_PERSISTS: u64 = u64::MAX;

    /// The empty constraint.
    fn bottom(&self) -> Self::Dep;

    /// `into ⊔= from`.
    fn join(&mut self, into: &mut Self::Dep, from: &Self::Dep);

    /// Creates a new persist ordered after `input`.
    fn new_persist(&mut self, input: &Self::Dep, w: WriteRec, ev: EventRef) -> Self::PRef;

    /// A persist with incoming constraint `input` to an atomic-persist
    /// block whose last persist is `target`, under coalescing: merges into
    /// `target` if every dependence in `input` is already ordered at or
    /// before `target` (§7: coalescing must not violate any persist order
    /// constraint), else creates a new persist. Returns the persist the
    /// write ended up in and the number of analyses in which it coalesced.
    fn persist_onto(
        &mut self,
        input: &Self::Dep,
        target: Self::PRef,
        w: WriteRec,
        ev: EventRef,
    ) -> (Self::PRef, u64);

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

    /// Folds a thread's epoch-local constraint `cur` into its prefix
    /// `prev` in the lanes of `m`, at the ordering barrier at trace index
    /// `index`, leaving `cur` empty there for the next epoch.
    #[inline]
    fn fold_where(&mut self, prev: &mut Self::Dep, cur: &mut Self::Dep, _index: usize, m: Self::Mask) {
        if m.any() {
            self.join(prev, cur);
            self.reset_dep(cur);
        }
    }
}
