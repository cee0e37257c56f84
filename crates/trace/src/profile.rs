//! Trace profiling: composition and annotation statistics.
//!
//! Summarizes what a captured trace contains — operation mix, persist
//! density, per-thread balance, and epoch structure (persists per persist
//! epoch, the quantity epoch persistency's concurrency comes from).

use crate::{EventSource, Op, Trace};
use std::io;

/// Aggregate statistics of one trace.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TraceProfile {
    /// Total events.
    pub events: u64,
    /// Loads (including the read half of RMWs).
    pub loads: u64,
    /// Stores (including the write half of RMWs).
    pub stores: u64,
    /// Atomic read-modify-writes.
    pub rmws: u64,
    /// Writes to the persistent space.
    pub persists: u64,
    /// Persist barriers.
    pub persist_barriers: u64,
    /// Memory consistency barriers.
    pub mem_barriers: u64,
    /// Strand barriers.
    pub strands: u64,
    /// Persist syncs.
    pub syncs: u64,
    /// Completed work items.
    pub work_items: u64,
    /// Persists in each completed persist epoch (per thread, barriers
    /// delimit), for the epoch-size distribution.
    pub epoch_sizes: Vec<u64>,
}

impl TraceProfile {
    /// Profiles a trace.
    pub fn of(trace: &Trace) -> Self {
        Self::of_source(trace.source()).expect("in-memory trace sources cannot fail")
    }

    /// Profiles a streaming event source (one forward pass, constant
    /// memory) — e.g. an [`io::TraceReader`](crate::io::TraceReader) over
    /// a serialized trace file.
    ///
    /// # Errors
    ///
    /// Propagates the source's decode/I/O errors, and returns
    /// `InvalidData` if an event names a thread outside
    /// `source.thread_count()`.
    pub fn of_source<E: EventSource>(mut source: E) -> io::Result<Self> {
        let mut run = Self::begin(source.thread_count());
        crate::for_each_slab(&mut source, |slab| run.push(slab))?;
        Ok(run.finish())
    }

    /// Begins an incremental profile: push event blocks in stream order
    /// through [`ProfileRun::push`], then [`ProfileRun::finish`]. However
    /// the stream is cut into blocks, the result equals
    /// [`of_source`](TraceProfile::of_source) over the whole stream.
    pub fn begin(nthreads: u32) -> ProfileRun {
        ProfileRun { p: TraceProfile::default(), open_epoch: vec![0; nthreads as usize] }
    }

    /// Fraction of data accesses that are persists.
    pub fn persist_density(&self) -> f64 {
        let accesses = self.loads + self.stores;
        if accesses == 0 {
            0.0
        } else {
            self.persists as f64 / accesses as f64
        }
    }

    /// Mean persists per persist epoch (including empty epochs) — the
    /// intra-thread concurrency epoch persistency can expose.
    pub fn mean_epoch_size(&self) -> f64 {
        if self.epoch_sizes.is_empty() {
            0.0
        } else {
            self.epoch_sizes.iter().sum::<u64>() as f64 / self.epoch_sizes.len() as f64
        }
    }

    /// Largest persist epoch.
    pub fn max_epoch_size(&self) -> u64 {
        self.epoch_sizes.iter().copied().max().unwrap_or(0)
    }
}

/// An in-progress incremental profile (see [`TraceProfile::begin`]).
#[derive(Debug, Clone)]
pub struct ProfileRun {
    p: TraceProfile,
    /// Persists in each thread's still-open epoch.
    open_epoch: Vec<u64>,
}

impl ProfileRun {
    /// Accumulates one block of events, in stream order.
    ///
    /// # Errors
    ///
    /// Returns `InvalidData` if an event names a thread outside the run's
    /// thread count.
    pub fn push(&mut self, events: &[crate::Event]) -> io::Result<()> {
        let ProfileRun { p, open_epoch } = self;
        let open_epoch = open_epoch.as_mut_slice();
        for e in events {
            p.events += 1;
            let t = e.thread.index();
            if t >= open_epoch.len() {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    "event names a thread outside the trace's thread count",
                ));
            }
            match e.op {
                Op::Load { .. } => p.loads += 1,
                Op::Store { .. } => p.stores += 1,
                Op::Rmw { .. } => {
                    p.rmws += 1;
                    p.loads += 1;
                    p.stores += 1;
                }
                Op::PersistBarrier => {
                    p.persist_barriers += 1;
                    p.epoch_sizes.push(open_epoch[t]);
                    open_epoch[t] = 0;
                }
                Op::MemBarrier => p.mem_barriers += 1,
                Op::NewStrand => p.strands += 1,
                Op::PersistSync => {
                    p.syncs += 1;
                    p.epoch_sizes.push(open_epoch[t]);
                    open_epoch[t] = 0;
                }
                Op::WorkEnd { .. } => p.work_items += 1,
                Op::PAlloc { .. } | Op::PFree { .. } | Op::WorkBegin { .. } => {}
            }
            if e.op.is_persist() {
                p.persists += 1;
                open_epoch[t] += 1;
            }
        }
        Ok(())
    }

    /// Completes the profile, closing each thread's trailing epoch.
    pub fn finish(self) -> TraceProfile {
        let mut p = self.p;
        p.epoch_sizes.extend(self.open_epoch.into_iter().filter(|&open| open > 0));
        p
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{FreeRunScheduler, TracedMem};
    use persist_mem::MemAddr;

    #[test]
    fn counts_basic_composition() {
        let mem = TracedMem::new(FreeRunScheduler);
        let t = mem.run(1, |ctx| {
            let a = ctx.palloc(64, 8).unwrap();
            ctx.work_begin(0);
            ctx.store_u64(a, 1); // persist
            ctx.store_u64(MemAddr::volatile(0), 2); // volatile store
            ctx.load_u64(a);
            ctx.cas_u64(MemAddr::volatile(8), 0, 1); // rmw
            ctx.persist_barrier();
            ctx.mem_barrier();
            ctx.new_strand();
            ctx.persist_sync();
            ctx.work_end(0);
        });
        let p = TraceProfile::of(&t);
        assert_eq!(p.stores, 3); // two stores + rmw write half
        assert_eq!(p.loads, 2); // one load + rmw read half
        assert_eq!(p.rmws, 1);
        assert_eq!(p.persists, 1);
        assert_eq!(p.persist_barriers, 1);
        assert_eq!(p.mem_barriers, 1);
        assert_eq!(p.strands, 1);
        assert_eq!(p.syncs, 1);
        assert_eq!(p.work_items, 1);
        assert!((p.persist_density() - 0.2).abs() < 1e-9);
    }

    #[test]
    fn epoch_sizes_reflect_barrier_placement() {
        let mem = TracedMem::new(FreeRunScheduler);
        let t = mem.run(1, |ctx| {
            let a = ctx.palloc(256, 64).unwrap();
            for i in 0..3 {
                ctx.store_u64(a.add(8 * i), i);
            }
            ctx.persist_barrier();
            ctx.store_u64(a.add(64), 9);
            ctx.persist_barrier();
            // trailing epoch with 2 persists, no closing barrier
            ctx.store_u64(a.add(128), 1);
            ctx.store_u64(a.add(136), 2);
        });
        let mut sizes = TraceProfile::of(&t).epoch_sizes.clone();
        sizes.sort_unstable();
        assert_eq!(sizes, vec![1, 2, 3]);
        assert_eq!(TraceProfile::of(&t).max_epoch_size(), 3);
        assert_eq!(TraceProfile::of(&t).mean_epoch_size(), 2.0);
    }

    #[test]
    fn per_thread_epochs_do_not_mix() {
        let mem = TracedMem::new(FreeRunScheduler);
        let t = mem.run(2, |ctx| {
            let a = MemAddr::persistent(4096 * (1 + ctx.thread_id().as_u64()));
            ctx.store_u64(a, 1);
            ctx.persist_barrier();
        });
        let p = TraceProfile::of(&t);
        assert_eq!(p.epoch_sizes, vec![1, 1]);
    }

    #[test]
    fn empty_trace_profile_is_zeroed() {
        let t = crate::Trace::from_events(1, vec![]);
        let p = TraceProfile::of(&t);
        assert_eq!(p, TraceProfile::default());
        assert_eq!(p.persist_density(), 0.0);
        assert_eq!(p.mean_epoch_size(), 0.0);
    }
}
