//! Slab event delivery.
//!
//! Analyses that make one forward pass over a trace (the persistency
//! engines, profiling, the DAG build) take events in blocks, in stream
//! order. [`EventSource`] is the pull side of that contract: a source
//! appends the next slab of events on each [`fill_slab`](EventSource::fill_slab)
//! call. An in-memory [`Trace`] adapts via [`Trace::source`]; an
//! MPTRACE2 file decodes through
//! [`MappedTrace::source`](crate::mmapio::MappedTrace::source) without
//! materializing the event vector.

use crate::{Event, Trace};
use std::io;

/// Default slab size for [`EventSource::fill_slab`] consumers: big enough
/// to amortize per-slab dispatch to nothing, small enough that a slab of
/// 24-byte events stays L2-resident.
pub const SLAB_EVENTS: usize = 16 * 1024;

/// A fallible stream of trace events in visibility order, delivered in
/// slabs. Sources backed by files surface decode failures as errors;
/// in-memory sources never fail.
pub trait EventSource {
    /// Number of threads that produced the stream (thread ids are
    /// `0..thread_count`).
    fn thread_count(&self) -> u32;

    /// Appends up to `max` events to `out`, returning how many were
    /// appended; `Ok(0)` means the stream is exhausted.
    ///
    /// # Errors
    ///
    /// Returns decode or I/O errors from the underlying stream. Events
    /// decoded before the error may already be appended; the stream is
    /// unusable afterwards.
    fn fill_slab(&mut self, out: &mut Vec<Event>, max: usize) -> io::Result<usize>;

    /// Remaining events, if the source knows.
    fn size_hint(&self) -> Option<u64> {
        None
    }
}

/// Borrowing [`EventSource`] over an in-memory [`Trace`]. Never fails.
#[derive(Debug)]
pub struct TraceSource<'a> {
    nthreads: u32,
    events: &'a [Event],
}

impl EventSource for TraceSource<'_> {
    fn thread_count(&self) -> u32 {
        self.nthreads
    }

    fn fill_slab(&mut self, out: &mut Vec<Event>, max: usize) -> io::Result<usize> {
        let n = self.events.len().min(max);
        let (head, rest) = self.events.split_at(n);
        out.extend_from_slice(head);
        self.events = rest;
        Ok(n)
    }

    fn size_hint(&self) -> Option<u64> {
        Some(self.events.len() as u64)
    }
}

impl Trace {
    /// An [`EventSource`] view of this trace (no cloning).
    pub fn source(&self) -> TraceSource<'_> {
        TraceSource { nthreads: self.thread_count(), events: self.events() }
    }
}

/// Pulls `source` dry one [`SLAB_EVENTS`] slab at a time, handing each slab
/// to `f` in stream order — the loop every one-pass analysis runs over a
/// source.
///
/// # Errors
///
/// Propagates the source's decode/I/O errors and the first error `f`
/// returns.
pub fn for_each_slab<E: EventSource + ?Sized>(
    source: &mut E,
    mut f: impl FnMut(&[Event]) -> io::Result<()>,
) -> io::Result<()> {
    let mut slab = Vec::new();
    loop {
        slab.clear();
        if source.fill_slab(&mut slab, SLAB_EVENTS)? == 0 {
            return Ok(());
        }
        f(&slab)?;
    }
}

/// Drains a source into a materialized [`Trace`].
///
/// # Errors
///
/// Propagates the source's decode/I/O errors.
pub fn collect_trace<E: EventSource>(mut src: E) -> io::Result<Trace> {
    let nthreads = src.thread_count();
    // Trust the hint for pre-sizing only up to a sane bound, so a corrupt
    // header cannot trigger a huge allocation before decoding fails.
    let cap = src.size_hint().unwrap_or(0).min(1 << 20) as usize;
    let mut events = Vec::with_capacity(cap);
    while src.fill_slab(&mut events, SLAB_EVENTS)? > 0 {}
    Ok(Trace::from_events(nthreads, events))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{FreeRunScheduler, TracedMem};
    use persist_mem::MemAddr;

    #[test]
    fn trace_source_streams_all_events() {
        let mem = TracedMem::new(FreeRunScheduler);
        let t = mem.run(2, |ctx| {
            ctx.store_u64(MemAddr::persistent(64 * ctx.thread_id().as_u64()), 1);
            ctx.persist_barrier();
        });
        let mut src = t.source();
        assert_eq!(src.thread_count(), 2);
        assert_eq!(src.size_hint(), Some(4));
        let mut out = Vec::new();
        assert_eq!(src.fill_slab(&mut out, 3).unwrap(), 3);
        assert_eq!(src.size_hint(), Some(1));
        assert_eq!(src.fill_slab(&mut out, 3).unwrap(), 1);
        assert_eq!(out.as_slice(), t.events());
        assert_eq!(src.size_hint(), Some(0));
        assert_eq!(src.fill_slab(&mut out, 3).unwrap(), 0);
    }

    #[test]
    fn collect_trace_roundtrips() {
        let mem = TracedMem::new(FreeRunScheduler);
        let t = mem.run(3, |ctx| {
            ctx.cas_u64(MemAddr::volatile(0), 0, ctx.thread_id().as_u64());
        });
        let back = collect_trace(t.source()).unwrap();
        assert_eq!(back, t);
    }
}
