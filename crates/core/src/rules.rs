//! The persistency models' ordering rules, as one table.
//!
//! The paper defines each model (§5) by which orderings it keeps. [`Rules`]
//! writes that definition down once, and every layer that depends on a
//! model reads it: the timing and DAG engines, `pfi`'s crash injector and
//! `serve`'s device model. [`Model::rules`] is the only place a model is
//! mapped to rules, so a new [`Model`] variant is a compile error there and
//! nowhere else.
//!
//! Two answers are stored per model; every other answer is derived from
//! them.
//!
//! | question | strict | strict-rmo | epoch | bpfs | strand |
//! |---|---|---|---|---|---|
//! | what orders a thread's persists ([`Rules::order`]) | every access | `MemBarrier` | `PersistBarrier` | `PersistBarrier` | `PersistBarrier` |
//! | which conflicts order persists ([`Rules::conflicts`]) | SC: last writer, readers since | SC | SC | last write | last persist |
//! | in which address spaces ([`Rules::tracks`]) | all | all | all | persistent | persistent |
//! | `NewStrand` resets ordering ([`Rules::strands`]) | no | no | no | no | yes |
//! | which barriers fold an epoch ([`Rules::folds`]) | none | mem barrier, sync | persist barrier, sync | persist barrier, sync | persist barrier, sync |
//! | a line is durable after ([`Rules::needs_flush`]) | a fence | a fence | flush, fence | flush, fence | flush, same-strand fence |
//! | front end waits for durability | yes | yes | no | no | no |
//! | pending persists that may survive ([`Rules::survivors`]) | global prefix | prefix per line | epochs | prefix per line | epochs per strand |
//! | device orders writes by ([`Rules::device`]) | one chain | fences | fences | line | fences |
//!
//! The last four rows are operational: `pfi` replays stores, flushes and
//! fences, where the paper's engine sees only persist and memory barriers.
//! Strict-rmo shows why they are separate questions: a crash may keep any
//! per-line prefix of the persists since the last fence, while the device
//! orders them by fences alone and leaves same-line order to its banks.

use crate::Model;
use mem_trace::Op;
use persist_mem::Space;

/// The ordering rules of one persistency model. See the [module
/// table](self).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Rules {
    /// What orders one thread's persists with its later ones.
    pub order: Order,
    /// Which earlier accesses to the same location a persist is ordered
    /// after.
    pub conflicts: Conflicts,
}

/// What orders a thread's persists with its later ones.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Order {
    /// Every access: persistent memory order is program order.
    EveryAccess,
    /// Memory barriers: persistency coupled to a relaxed consistency
    /// model, with no persist barriers of its own.
    MemBarrier,
    /// Persist barriers, which split a thread into epochs whose persists
    /// are mutually concurrent.
    PersistBarrier,
}

/// Which earlier accesses to a tracking block a new access inherits order
/// from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Conflicts {
    /// SC conflicts in every address space: a read after the last write, a
    /// write after the last write and every read since.
    Sc,
    /// The last write to the persistent space only; the read-before-write
    /// race goes undetected (BPFS, §5.2).
    PersistentWrites,
    /// The last persist only: strong persist atomicity is the sole order
    /// memory carries (strand persistency, §5.3).
    LastPersist,
}

/// An ordering barrier: one of the three ops a model may fold a thread's
/// epoch on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BarrierOp {
    /// `Op::PersistBarrier`.
    PersistBarrier,
    /// `Op::PersistSync`.
    PersistSync,
    /// `Op::MemBarrier`.
    MemBarrier,
}

impl BarrierOp {
    /// The barrier `op` is, if it is one.
    pub fn of(op: Op) -> Option<BarrierOp> {
        match op {
            Op::PersistBarrier => Some(BarrierOp::PersistBarrier),
            Op::PersistSync => Some(BarrierOp::PersistSync),
            Op::MemBarrier => Some(BarrierOp::MemBarrier),
            _ => None,
        }
    }

    /// Short lowercase name used in reports.
    pub fn name(self) -> &'static str {
        match self {
            BarrierOp::PersistBarrier => "persist-barrier",
            BarrierOp::PersistSync => "persist-sync",
            BarrierOp::MemBarrier => "mem-barrier",
        }
    }
}

/// Which subsets of the pending persists a crash may keep.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Survivors {
    /// A prefix of all of them, in store order.
    Prefix,
    /// An independent prefix of each cache line's.
    LinePrefix,
    /// Every epoch below a boundary epoch, any subset of the boundary
    /// epoch, nothing above it; per strand when [`Rules::strands`].
    Epochs,
}

/// What a device write waits for before it may start, besides its bank.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeviceOrder {
    /// The previous write: one global chain.
    Chain,
    /// Every write issued before the last fence.
    Fences,
    /// The previous write to the same cache line.
    Lines,
}

impl Model {
    /// This model's ordering rules.
    pub const fn rules(self) -> Rules {
        let (order, conflicts) = match self {
            Model::Strict => (Order::EveryAccess, Conflicts::Sc),
            Model::StrictRmo => (Order::MemBarrier, Conflicts::Sc),
            Model::Epoch => (Order::PersistBarrier, Conflicts::Sc),
            Model::Bpfs => (Order::PersistBarrier, Conflicts::PersistentWrites),
            Model::Strand => (Order::PersistBarrier, Conflicts::LastPersist),
        };
        Rules { order, conflicts }
    }

    /// This model's position in [`Model::ALL`].
    pub const fn index(self) -> usize {
        self as usize
    }
}

impl Rules {
    /// Whether accesses to `space` take part in conflict ordering. Only SC
    /// conflicts pass order through volatile memory (§4).
    pub fn tracks(self, space: Space) -> bool {
        self.conflicts == Conflicts::Sc || space == Space::Persistent
    }

    /// Whether `NewStrand` clears a thread's ordering state. Strands are
    /// what leave strong persist atomicity as the only order memory
    /// carries; the other models ignore strand barriers, as a machine
    /// without strands would.
    pub fn strands(self) -> bool {
        self.conflicts == Conflicts::LastPersist
    }

    /// Whether `barrier` can change a thread's ordering state: fold the
    /// constraints the thread gathered since its last fold into those of
    /// all its later persists. A barrier that cannot leaves every analysis
    /// as if it were absent.
    ///
    /// A memory barrier orders persists only where persistency is coupled
    /// to consistency, and a persist barrier only where the model has
    /// them (§4.2). A sync stalls until persists drain, which orders them
    /// under any model, but strict persistency orders each access before
    /// the thread's later persists at once and leaves nothing to fold.
    pub fn folds(self, barrier: BarrierOp) -> bool {
        match barrier {
            BarrierOp::MemBarrier => self.order == Order::MemBarrier,
            BarrierOp::PersistBarrier => self.order == Order::PersistBarrier,
            BarrierOp::PersistSync => self.order != Order::EveryAccess,
        }
    }

    /// Whether a store needs a flush of its line before a fence makes it
    /// durable. Models with persist barriers buffer persists: a store
    /// reaches NVRAM when its line is flushed, and the front end runs ahead
    /// of durability (§4.2). The strict models persist each store as it
    /// becomes visible, so a fence alone is their sync point and the front
    /// end waits for it. Under strands the fence must be on the flush's
    /// strand.
    pub fn needs_flush(self) -> bool {
        self.order == Order::PersistBarrier
    }

    /// Which pending persists a crash may keep.
    pub fn survivors(self) -> Survivors {
        match (self.order, self.conflicts) {
            (Order::EveryAccess, _) => Survivors::Prefix,
            // Fences make every earlier store durable, so the pending
            // persists share one memory-barrier epoch where only strong
            // persist atomicity orders them, per line. BPFS orders epochs
            // through the lines its writes touch.
            (Order::MemBarrier, _) | (_, Conflicts::PersistentWrites) => Survivors::LinePrefix,
            (Order::PersistBarrier, _) => Survivors::Epochs,
        }
    }

    /// What a device write waits for.
    pub fn device(self) -> DeviceOrder {
        match (self.order, self.conflicts) {
            (Order::EveryAccess, _) => DeviceOrder::Chain,
            (_, Conflicts::PersistentWrites) => DeviceOrder::Lines,
            _ => DeviceOrder::Fences,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn index_is_position_in_all() {
        for (i, m) in Model::ALL.into_iter().enumerate() {
            assert_eq!(m.index(), i, "{m}");
        }
    }

    #[test]
    fn table_rows() {
        let row = |m: Model| {
            let r = m.rules();
            (r.tracks(Space::Volatile), r.strands(), r.needs_flush(), r.survivors(), r.device())
        };
        use DeviceOrder::*;
        use Survivors::*;
        assert_eq!(row(Model::Strict), (true, false, false, Prefix, Chain));
        assert_eq!(row(Model::StrictRmo), (true, false, false, LinePrefix, Fences));
        assert_eq!(row(Model::Epoch), (true, false, true, Epochs, Fences));
        assert_eq!(row(Model::Bpfs), (false, false, true, LinePrefix, Lines));
        assert_eq!(row(Model::Strand), (false, true, true, Epochs, Fences));
    }

    #[test]
    fn folds_row() {
        use BarrierOp::*;
        let row = |m: Model| [PersistBarrier, PersistSync, MemBarrier].map(|b| m.rules().folds(b));
        assert_eq!(row(Model::Strict), [false, false, false]);
        assert_eq!(row(Model::StrictRmo), [false, true, true]);
        assert_eq!(row(Model::Epoch), [true, true, false]);
        assert_eq!(row(Model::Bpfs), [true, true, false]);
        assert_eq!(row(Model::Strand), [true, true, false]);
    }
}
