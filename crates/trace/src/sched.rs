//! Interleaving control for trace capture.

use crate::rng::SmallRng;
use crate::ThreadId;
use std::cell::Cell;
use std::collections::BTreeSet;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock};
use std::thread::Thread;

/// Decides when each simulated thread may perform its next traced
/// operation.
///
/// Implementations must call `f` exactly once per [`Scheduler::with_turn`]
/// call; the traced operation (including its sequence stamp) happens inside
/// `f`, so holding the turn across `f` makes the interleaving exactly the
/// grant order.
pub trait Scheduler: Send + Sync {
    /// Announces that `tid` will issue operations. For deterministic
    /// schedules, all threads must be registered before any takes a turn
    /// (the capture executor registers every thread before spawning any).
    fn register(&self, tid: ThreadId);
    /// Announces that `tid` will issue no further operations. Deterministic
    /// schedulers treat this as a scheduled event: it waits for `tid`'s
    /// turn, so the runnable set only changes at deterministic points.
    fn unregister(&self, tid: ThreadId);
    /// Runs one traced operation for `tid` when the schedule permits.
    fn with_turn(&self, tid: ThreadId, f: &mut dyn FnMut());
}

/// No scheduling: real threads race and the shard locks plus the global
/// sequence counter record whatever interleaving the machine produced —
/// the same discipline as the paper's PIN runs.
#[derive(Debug, Clone, Copy, Default)]
pub struct FreeRunScheduler;

impl Scheduler for FreeRunScheduler {
    fn register(&self, _tid: ThreadId) {}
    fn unregister(&self, _tid: ThreadId) {}
    #[inline]
    fn with_turn(&self, _tid: ThreadId, f: &mut dyn FnMut()) {
        f();
    }
}

/// `granted` while no thread holds the turn.
const NO_TURN: u32 = u32::MAX;

/// Polls of `granted` a waiter makes before it parks, when every runnable
/// thread can have a core of its own.
const SPIN: u32 = 1024;

struct SeededState {
    runnable: BTreeSet<u32>,
    rng: SmallRng,
    /// Wake-up slots of the registered threads, indexed by tid; moved into
    /// [`SeededScheduler::slots`] at the first hand-off or wait.
    slots: Vec<Slot>,
}

impl SeededState {
    /// Draws the next turn holder from the runnable set.
    fn pick_next(&mut self) -> u32 {
        if self.runnable.is_empty() {
            NO_TURN
        } else {
            let n = self.rng.gen_index(self.runnable.len());
            self.runnable.iter().nth(n).copied().expect("index below the set's length")
        }
    }
}

/// Wake-up slot of one thread.
#[derive(Default)]
struct Slot {
    registered: bool,
    /// Set by the thread before it parks; swapped back by whoever grants it
    /// the turn, who then unparks it.
    parked: AtomicBool,
    /// The thread's handle, recorded before it first parks.
    thread: OnceLock<Thread>,
}

/// One capture thread's scheduler tallies, added to the `capture.*`
/// counters when it unregisters.
#[derive(Clone, Copy, Default)]
struct Tally {
    turns: u64,
    handoffs: u64,
    parks: u64,
}

thread_local! {
    static TALLY: Cell<Tally> = const { Cell::new(Tally { turns: 0, handoffs: 0, parks: 0 }) };
}

fn tally(f: impl FnOnce(&mut Tally)) {
    TALLY.with(|c| {
        let mut t = c.get();
        f(&mut t);
        c.set(t);
    });
}

/// Cores this process may run on (the cgroup quota counts).
fn cores() -> usize {
    static CORES: OnceLock<usize> = OnceLock::new();
    *CORES.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

/// Deterministic seeded interleaving: exactly one thread holds the turn at
/// a time, and the next holder is drawn from a seeded RNG over the
/// currently runnable threads.
///
/// Given the same seed and per-thread-deterministic workloads, the captured
/// trace is identical across runs — the property the test suite and the
/// figure harnesses rely on.
///
/// The turn is one atomic, `granted`. Only its holder draws the next
/// holder, so the lock over the runnable set and the RNG is uncontended,
/// and a hand-off wakes only the thread it grants. A waiter first spins
/// on `granted` for a bounded while if every runnable thread can have a
/// core, and parks otherwise: with more threads than cores, a spinner
/// would hold the very core the holder needs.
pub struct SeededScheduler {
    granted: AtomicU32,
    state: Mutex<SeededState>,
    /// Size of the runnable set, read by the spin gate.
    live: AtomicUsize,
    slots: OnceLock<Box<[Slot]>>,
}

impl std::fmt::Debug for SeededScheduler {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SeededScheduler").finish_non_exhaustive()
    }
}

impl SeededScheduler {
    /// Creates a scheduler with the given RNG seed.
    pub fn new(seed: u64) -> Self {
        SeededScheduler {
            granted: AtomicU32::new(NO_TURN),
            state: Mutex::new(SeededState {
                runnable: BTreeSet::new(),
                rng: SmallRng::seed_from_u64(seed),
                slots: Vec::new(),
            }),
            live: AtomicUsize::new(0),
            slots: OnceLock::new(),
        }
    }

    fn state(&self) -> MutexGuard<'_, SeededState> {
        self.state.lock().expect("a capture thread panicked while drawing the next turn")
    }

    /// The wake-up slot of `tid`. The first call freezes the slot table.
    ///
    /// # Panics
    ///
    /// Panics if `tid` was never registered.
    fn slot(&self, tid: u32) -> &Slot {
        let slots = self
            .slots
            .get_or_init(|| std::mem::take(&mut self.state().slots).into_boxed_slice());
        match slots.get(tid as usize) {
            Some(slot) if slot.registered => slot,
            _ => panic!("SeededScheduler: thread {tid} takes a turn but was never registered"),
        }
    }

    /// Returns once `tid` holds the turn.
    fn wait_turn(&self, tid: u32) {
        if self.granted.load(Ordering::Acquire) == tid {
            return;
        }
        let slot = self.slot(tid);
        if self.live.load(Ordering::Relaxed) <= cores() {
            for _ in 0..SPIN {
                std::hint::spin_loop();
                if self.granted.load(Ordering::Acquire) == tid {
                    return;
                }
            }
        }
        slot.thread.get_or_init(std::thread::current);
        loop {
            // Flag, then re-check: a granter stores `granted` before it
            // swaps the flag, so either this load sees the grant or the
            // granter sees the flag and unparks (SeqCst on both sides).
            slot.parked.store(true, Ordering::SeqCst);
            if self.granted.load(Ordering::SeqCst) == tid {
                // Only spares the granter an unpark; a stale flag costs one
                // spurious wake-up, which the loop absorbs.
                slot.parked.store(false, Ordering::Relaxed);
                return;
            }
            tally(|t| t.parks += 1);
            std::thread::park();
            if self.granted.load(Ordering::Acquire) == tid {
                return;
            }
        }
    }

    /// Passes the turn from its holder `from` to `next`, waking `next` if
    /// it parked.
    fn grant(&self, from: u32, next: u32) {
        self.granted.store(next, Ordering::SeqCst);
        if next == from || next == NO_TURN {
            return;
        }
        tally(|t| t.handoffs += 1);
        let slot = self.slot(next);
        if slot.parked.swap(false, Ordering::SeqCst) {
            slot.thread.get().expect("a thread records its handle before it parks").unpark();
        }
    }
}

impl Scheduler for SeededScheduler {
    fn register(&self, tid: ThreadId) {
        assert!(
            self.slots.get().is_none(),
            "SeededScheduler: thread {} registered after the first turn",
            tid.0
        );
        let mut s = self.state();
        s.runnable.insert(tid.0);
        let t = tid.0 as usize;
        if s.slots.len() <= t {
            s.slots.resize_with(t + 1, Slot::default);
        }
        s.slots[t].registered = true;
        self.live.store(s.runnable.len(), Ordering::Relaxed);
        if self.granted.load(Ordering::Relaxed) == NO_TURN {
            let next = s.pick_next();
            self.granted.store(next, Ordering::SeqCst);
        }
    }

    fn unregister(&self, tid: ThreadId) {
        // Leaving is itself a scheduled event: wait for this thread's turn
        // so the runnable set shrinks at a deterministic point.
        self.wait_turn(tid.0);
        let next = {
            let mut s = self.state();
            s.runnable.remove(&tid.0);
            self.live.store(s.runnable.len(), Ordering::Relaxed);
            s.pick_next()
        };
        self.grant(tid.0, next);
        let t = TALLY.take();
        if obsv::enabled() {
            obsv::counter_add("capture.turns", t.turns);
            obsv::counter_add("capture.handoffs", t.handoffs);
            obsv::counter_add("capture.parks", t.parks);
        }
    }

    fn with_turn(&self, tid: ThreadId, f: &mut dyn FnMut()) {
        self.wait_turn(tid.0);
        // Perform the operation while holding the turn: no other thread
        // runs an operation until this one passes the turn on, so the
        // operation order is exactly the grant order.
        f();
        tally(|t| t.turns += 1);
        let next = self.state().pick_next();
        self.grant(tid.0, next);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    /// Runs `ops[t]` turns on thread `t` of a seeded capture and returns
    /// the thread of every turn, in grant order.
    fn observed(seed: u64, ops: &[usize]) -> Vec<u32> {
        let sched = Arc::new(SeededScheduler::new(seed));
        let order = Arc::new(Mutex::new(Vec::new()));
        // Register everyone before any thread runs (the executor does the
        // same) so the runnable set at the first grant is deterministic.
        for t in 0..ops.len() as u32 {
            sched.register(ThreadId(t));
        }
        std::thread::scope(|scope| {
            for (t, &n) in ops.iter().enumerate() {
                let sched = Arc::clone(&sched);
                let order = Arc::clone(&order);
                scope.spawn(move || {
                    let tid = ThreadId(t as u32);
                    for _ in 0..n {
                        sched.with_turn(tid, &mut || order.lock().unwrap().push(tid.0));
                    }
                    sched.unregister(tid);
                });
            }
        });
        Arc::try_unwrap(order).unwrap().into_inner().unwrap()
    }

    /// The grant order a seeded schedule must produce, replayed with no
    /// threads: every grant draws `gen_index` over the runnable set, and a
    /// thread with no operations left spends its grant unregistering.
    fn reference(seed: u64, ops: &[usize]) -> Vec<u32> {
        fn draw(rng: &mut SmallRng, runnable: &BTreeSet<u32>) -> Option<u32> {
            (!runnable.is_empty()).then(|| *runnable.iter().nth(rng.gen_index(runnable.len())).unwrap())
        }
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut runnable = BTreeSet::new();
        let mut granted = None;
        for t in 0..ops.len() as u32 {
            runnable.insert(t);
            if granted.is_none() {
                granted = draw(&mut rng, &runnable);
            }
        }
        let mut left = ops.to_vec();
        let mut order = Vec::new();
        while let Some(t) = granted {
            if left[t as usize] > 0 {
                left[t as usize] -= 1;
                order.push(t);
            } else {
                runnable.remove(&t);
            }
            granted = draw(&mut rng, &runnable);
        }
        order
    }

    #[test]
    fn grant_order_matches_the_reference_model() {
        // Unequal op counts, so threads leave the runnable set early (one
        // before its first operation).
        for ops in [&[5usize, 40][..], &[30, 0, 7, 52, 19, 3]] {
            for seed in [1, 42, 7] {
                let order = observed(seed, ops);
                assert_eq!(order, reference(seed, ops), "{} threads, seed {seed}", ops.len());
                assert_eq!(order.len(), ops.iter().sum::<usize>());
            }
        }
    }

    #[test]
    fn seeded_schedule_is_deterministic() {
        let a = observed(42, &[16; 4]);
        let b = observed(42, &[16; 4]);
        assert_eq!(a, b);
        assert_eq!(a.len(), 64);
    }

    #[test]
    fn different_seeds_differ() {
        // With 64 slots over 4 threads, two seeds agreeing everywhere is
        // astronomically unlikely.
        assert_ne!(observed(1, &[16; 4]), observed(2, &[16; 4]));
    }

    #[test]
    fn all_threads_progress() {
        let order = observed(7, &[16; 4]);
        for t in 0..4u32 {
            assert_eq!(order.iter().filter(|&&x| x == t).count(), 16);
        }
    }

    #[test]
    #[should_panic(expected = "thread 1 takes a turn but was never registered")]
    fn unregistered_turn_panics() {
        let sched = SeededScheduler::new(1);
        sched.register(ThreadId(0));
        sched.register(ThreadId(2));
        sched.with_turn(ThreadId(1), &mut || {});
    }

    #[test]
    fn free_run_executes_inline() {
        let mut hit = false;
        FreeRunScheduler.with_turn(ThreadId(0), &mut || hit = true);
        assert!(hit);
    }
}
