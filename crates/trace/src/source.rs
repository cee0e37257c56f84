//! Streaming event ingestion.
//!
//! Analyses that make one forward pass over a trace (the persistency
//! engines, profiling, insert-distance statistics) do not need the whole
//! event vector in memory. [`EventSource`] is the pull-based iterator they
//! consume instead: an in-memory [`Trace`] adapts via [`Trace::source`],
//! and [`io::TraceReader`](crate::io::TraceReader) streams events straight
//! off a serialized trace file without materializing it.

use crate::{Event, Trace};
use std::io;

/// Default slab size for [`EventSource::fill_slab`] consumers: big enough
/// to amortize per-slab dispatch to nothing, small enough that a slab of
/// 24-byte events stays L2-resident.
pub const SLAB_EVENTS: usize = 16 * 1024;

/// A fallible stream of trace events in visibility order.
///
/// `next_event` returns `Ok(None)` at end of stream. Sources backed by
/// files surface decode/I/O failures as errors; in-memory sources never
/// fail.
pub trait EventSource {
    /// Number of threads that produced the stream (thread ids are
    /// `0..thread_count`).
    fn thread_count(&self) -> u32;

    /// Pulls the next event, or `Ok(None)` when the stream is exhausted.
    ///
    /// # Errors
    ///
    /// Returns decode or I/O errors from the underlying stream.
    fn next_event(&mut self) -> io::Result<Option<Event>>;

    /// Appends up to `max` events to `out`, returning how many were
    /// appended; `Ok(0)` means the stream is exhausted. Consumers that
    /// iterate slabs instead of single events skip the per-event
    /// `io::Result` plumbing entirely; decoding sources override this
    /// with a batched fast path.
    ///
    /// # Errors
    ///
    /// Returns decode or I/O errors from the underlying stream. Events
    /// decoded before the error are *not* appended by the default
    /// implementation's contract: a failing call leaves `out` in an
    /// unspecified (but valid) state and the stream unusable.
    fn fill_slab(&mut self, out: &mut Vec<Event>, max: usize) -> io::Result<usize> {
        let mut n = 0;
        while n < max {
            match self.next_event()? {
                Some(e) => {
                    out.push(e);
                    n += 1;
                }
                None => break,
            }
        }
        Ok(n)
    }

    /// Remaining events, if the source knows.
    fn size_hint(&self) -> Option<u64> {
        None
    }
}

impl<E: EventSource + ?Sized> EventSource for &mut E {
    fn thread_count(&self) -> u32 {
        (**self).thread_count()
    }

    fn next_event(&mut self) -> io::Result<Option<Event>> {
        (**self).next_event()
    }

    fn fill_slab(&mut self, out: &mut Vec<Event>, max: usize) -> io::Result<usize> {
        (**self).fill_slab(out, max)
    }

    fn size_hint(&self) -> Option<u64> {
        (**self).size_hint()
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

    #[inline]
    fn next_event(&mut self) -> io::Result<Option<Event>> {
        match self.events.split_first() {
            Some((e, rest)) => {
                self.events = rest;
                Ok(Some(*e))
            }
            None => Ok(None),
        }
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
        let mut n = 0;
        while let Some(e) = src.next_event().unwrap() {
            assert_eq!(e, t.events()[n]);
            n += 1;
        }
        assert_eq!(n, 4);
        assert_eq!(src.size_hint(), Some(0));
        assert!(src.next_event().unwrap().is_none());
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

    #[test]
    fn mut_ref_is_a_source() {
        let t = Trace::from_events(1, vec![]);
        let mut src = t.source();
        let by_ref: &mut TraceSource<'_> = &mut src;
        assert_eq!(EventSource::thread_count(&by_ref), 1);
        assert!(collect_trace(by_ref).unwrap().events().is_empty());
    }
}
