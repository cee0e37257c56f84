//! Chunked-parallel analysis over segment-indexed traces.
//!
//! Billion-event captures make the `psim analyze` pipeline — one streaming
//! profile pass plus the timing analysis of every persistency model —
//! worth decoding once, on several cores. Here every analysis is a
//! *sink*: an incremental pass that takes event blocks in stream order (a
//! [`TraceProfile`] run, a timing engine run, a [`PersistDag`] build). One
//! driver decodes each chunk of a [`ChunkFeed`] once and pushes it into
//! every sink, keeping every result **bit-identical to the sequential
//! engines for any worker count**. [`analyze_full`] drives the profile
//! plus one timing walk per group of configs that differ only in their
//! model — each model a lane of the walk, so the default five models make
//! two sinks; [`build_dag`] drives a single DAG build.
//!
//! - The calling thread is the one consumer. It walks the chunks in
//!   order and pushes each into every sink in sink order, so every sink
//!   sees the *exact* sequential event sequence and needs no stitching
//!   argument.
//! - With one worker or one chunk (an unindexed file, say) the caller
//!   also decodes each chunk itself; no thread is spawned.
//! - Otherwise the trace's segment index (see `docs/mptrace2.md`) lets
//!   independent decoders start mid-file: decode workers claim chunks in
//!   order but decode them *out of order* into a bounded pool of recycled
//!   event slabs, and the caller hands each slab back once every sink has
//!   it. A slow chunk never stalls the workers behind it: back-pressure
//!   comes only from the pool.
//!
//! No sink is split across chunks: the timing engine's level recurrence
//! does not compose across cuts (coalescing legality compares absolute
//! levels), see DESIGN.md §2b. Errors do not depend on the worker count
//! either: one in-order consumer meets them as a sequential pass does — a
//! decode error at its chunk, sink errors within a chunk in sink order.

use crate::dag::{DagError, PersistDag};
use crate::domain::Domain;
use crate::engine;
use crate::timing::{Lanes, TimingReport, MODEL_LANES};
use crate::AnalysisConfig;
use mem_trace::mmapio::MappedTrace;
use mem_trace::profile::{ProfileRun, TraceProfile};
use mem_trace::{Event, EventSource, Trace};
use obsv::{series, tracefmt};
use std::collections::BTreeMap;
use std::io;
use std::sync::{Condvar, Mutex, PoisonError};

/// Timeline track group (`pid`) for the analysis driver: decode workers
/// and sink lanes. Distinct from the serve harness's per-model pids (1..=5).
const ANALYZE_PID: u64 = 10;

/// `tracefmt::now_ns` only when some time-resolved sink is live, else
/// 0.0 (avoids the clock read on untraced hot paths).
fn trace_now() -> f64 {
    if tracefmt::recording() || series::active() {
        tracefmt::now_ns()
    } else {
        0.0
    }
}

/// A trace that can be decoded as independent, concatenable chunks.
///
/// Chunk `i` must yield exactly the events `[start_i, start_{i+1})` of the
/// underlying sequential stream; concatenating chunks `0..chunk_count()`
/// in order reproduces it exactly.
pub trait ChunkFeed: Sync {
    /// Number of threads in the trace.
    fn thread_count(&self) -> u32;

    /// Number of chunks (0 only for empty in-memory feeds).
    fn chunk_count(&self) -> usize;

    /// Appends chunk `i`'s events to `out`.
    ///
    /// # Errors
    ///
    /// Returns decode/I-O errors from the underlying bytes.
    fn decode_chunk(&self, i: usize, out: &mut Vec<Event>) -> io::Result<()>;
}

impl ChunkFeed for MappedTrace {
    fn thread_count(&self) -> u32 {
        MappedTrace::thread_count(self)
    }

    fn chunk_count(&self) -> usize {
        self.segment_count()
    }

    fn decode_chunk(&self, i: usize, out: &mut Vec<Event>) -> io::Result<()> {
        // One batched fill: the slab decoder reserves the exact segment
        // length and decodes it in a single tight loop.
        self.segment_source(i).fill_slab(out, usize::MAX).map(|_| ())
    }
}

/// [`ChunkFeed`] over an in-memory [`Trace`], cut every `chunk_events`
/// events — the differential-test harness for the chunked pipeline, and
/// the fallback when a capture was never serialized.
#[derive(Debug, Clone, Copy)]
pub struct TraceChunks<'a> {
    trace: &'a Trace,
    chunk_events: usize,
}

impl<'a> TraceChunks<'a> {
    /// Chunks `trace` every `chunk_events` events.
    ///
    /// # Panics
    ///
    /// Panics if `chunk_events == 0`.
    pub fn new(trace: &'a Trace, chunk_events: usize) -> Self {
        assert!(chunk_events > 0, "chunk_events must be positive");
        TraceChunks { trace, chunk_events }
    }
}

impl ChunkFeed for TraceChunks<'_> {
    fn thread_count(&self) -> u32 {
        self.trace.thread_count()
    }

    fn chunk_count(&self) -> usize {
        self.trace.events().len().div_ceil(self.chunk_events)
    }

    fn decode_chunk(&self, i: usize, out: &mut Vec<Event>) -> io::Result<()> {
        let events = self.trace.events();
        let start = i * self.chunk_events;
        let end = (start + self.chunk_events).min(events.len());
        out.extend_from_slice(&events[start..end]);
        Ok(())
    }
}

/// An incremental pass over the event stream. Blocks arrive in stream
/// order; however the stream is cut into blocks, the result is the same.
pub(crate) trait ChunkSink {
    /// Consumes the next block of events.
    fn push(&mut self, events: &[Event]) -> io::Result<()>;
}

impl ChunkSink for ProfileRun {
    fn push(&mut self, events: &[Event]) -> io::Result<()> {
        ProfileRun::push(self, events)
    }
}

impl<D: Domain> ChunkSink for engine::Run<'_, D> {
    fn push(&mut self, events: &[Event]) -> io::Result<()> {
        self.push_events(events)
    }
}

/// A sink as [`drive`] takes it.
type Sink<'a> = &'a mut dyn ChunkSink;

/// One shared-decode pass producing the trace profile and one
/// [`TimingReport`] per config — everything `psim analyze` computes.
///
/// Chunks are decoded once, by up to `workers` threads, and pushed into
/// the profile and into one engine walk per group of configs that differ
/// only in their model: each config is a lane of its group's walk, with
/// as many lanes to a walk as there are models ([`analyze_sinks`] counts
/// the sinks). Results are bit-identical to running
/// [`TraceProfile::of_source`] and
/// [`Analyzer::analyze_source`](crate::timing::Analyzer::analyze_source)
/// sequentially, for any `workers`, and come back in `configs` order.
///
/// # Errors
///
/// Propagates decode/analysis errors: the one at the earliest chunk,
/// within a chunk the profile's before the engines' — the same error for
/// any `workers`.
pub fn analyze_full<F>(
    feed: &F,
    configs: &[AnalysisConfig],
    workers: usize,
) -> io::Result<(TraceProfile, Vec<TimingReport>)>
where
    F: ChunkFeed + ?Sized,
{
    let nthreads = feed.thread_count();
    let groups = lane_groups(configs);
    let mut profile = TraceProfile::begin(nthreads);
    let mut scratches: Vec<_> = groups.iter().map(|_| Lanes::<MODEL_LANES>::scratch()).collect();
    let mut runs: Vec<_> = scratches
        .iter_mut()
        .zip(&groups)
        .map(|(scratch, group)| {
            let lanes: Vec<AnalysisConfig> = group.iter().map(|&i| configs[i]).collect();
            Lanes::begin(&lanes, &[], nthreads, scratch)
        })
        .collect();
    let mut sinks: Vec<Sink<'_>> = std::iter::once(&mut profile as Sink<'_>)
        .chain(runs.iter_mut().map(|run| run as Sink<'_>))
        .collect();
    drive(feed, workers, &mut sinks)?;
    let mut reports = vec![None; configs.len()];
    for (run, group) in runs.into_iter().zip(&groups) {
        for (report, &i) in run.reports().into_iter().zip(group) {
            reports[i] = Some(report);
        }
    }
    Ok((profile.finish(), reports.into_iter().map(|r| r.expect("every config has a lane")).collect()))
}

/// The number of sinks [`analyze_full`] drives for `configs`: the profile
/// plus one engine walk per lane group.
pub fn analyze_sinks(configs: &[AnalysisConfig]) -> usize {
    1 + lane_groups(configs).len()
}

/// Splits `configs` into the lane groups of [`analyze_full`]: indices of
/// configs equal in every field but the model, at most [`MODEL_LANES`] to
/// a group, groups in order of their first config.
fn lane_groups(configs: &[AnalysisConfig]) -> Vec<Vec<usize>> {
    let mut groups: Vec<Vec<usize>> = Vec::new();
    for (i, c) in configs.iter().enumerate() {
        let joins = |g: &&mut Vec<usize>| {
            g.len() < MODEL_LANES && AnalysisConfig { model: c.model, ..configs[g[0]] } == *c
        };
        match groups.iter_mut().find(joins) {
            Some(group) => group.push(i),
            None => groups.push(vec![i]),
        }
    }
    groups
}

/// Builds the persist DAG of the feed's event stream under `config`,
/// decoding on up to `workers` threads ahead of the build. The DAG is
/// identical to [`PersistDag::build`]'s over the same events, for any
/// `workers`.
///
/// # Errors
///
/// Returns [`DagError::TooManyPersists`] past the node cap and
/// [`DagError::Io`] on decode failures.
pub fn build_dag<F>(
    feed: &F,
    config: &AnalysisConfig,
    workers: usize,
) -> Result<PersistDag, DagError>
where
    F: ChunkFeed + ?Sized,
{
    PersistDag::build_with(config, feed.thread_count(), |run| {
        drive(feed, workers, &mut [run as Sink<'_>])
    })
}

/// The decode threads [`drive`] runs for `feed` at `workers`: one per
/// worker, at most one per chunk, or 1 — the caller itself — when it
/// decodes inline (one worker or one chunk).
pub fn decode_threads<F>(feed: &F, workers: usize) -> usize
where
    F: ChunkFeed + ?Sized,
{
    workers.min(feed.chunk_count()).max(1)
}

/// Decodes each chunk of `feed` once and pushes it, in stream order, into
/// every sink in turn, with [`decode_threads`] decoders.
///
/// The caller is the one consumer, so the first failure it meets — a
/// decode error at its chunk, else the first sink failing there — is the
/// sequential pass's, whatever `workers` is.
fn drive<F>(feed: &F, workers: usize, sinks: &mut [Sink<'_>]) -> io::Result<()>
where
    F: ChunkFeed + ?Sized,
{
    let decoders = decode_threads(feed, workers);
    if tracefmt::recording() {
        tracefmt::name_process(ANALYZE_PID, "analyze");
        for w in 0..decoders {
            tracefmt::name_thread(ANALYZE_PID, w as u64 + 1, &format!("decode {w}"));
        }
        // Sink lanes sit above the decode lanes so Perfetto groups them
        // visibly apart.
        for k in 0..sinks.len() {
            tracefmt::name_thread(ANALYZE_PID, 100 + k as u64, &format!("sink {k}"));
        }
    }
    let pool = Pool::new(feed, decoders);
    std::thread::scope(|s| {
        if decoders > 1 {
            for w in 0..decoders {
                let pool = &pool;
                obsv::spawn_flushed(s, move || pool.decode_loop(w));
            }
        }
        // However the loop below leaves — done, failed or panicking — the
        // decode workers stop, so the scope can join them.
        let _stop = StopOnDrop(&pool);
        for i in 0..feed.chunk_count() {
            let events = pool.take(i)?;
            for (k, sink) in sinks.iter_mut().enumerate() {
                let t0 = trace_now();
                sink.push(&events)?;
                if tracefmt::recording() {
                    let args = [("chunk", i.to_string()), ("events", events.len().to_string())];
                    let tid = 100 + k as u64;
                    tracefmt::span(ANALYZE_PID, tid, "push", t0, trace_now() - t0, &args);
                }
            }
            pool.recycle(events);
        }
        Ok(())
    })
}

/// Extra slab slots beyond the structural minimum (one per decode worker
/// in flight plus the one the consumer holds). Bounds resident decoded
/// memory to `(workers + 1 + WINDOW_SLACK) · chunk_events` events.
const WINDOW_SLACK: usize = 2;

/// The pool's lock is never held across a decode or a push, so no panic
/// can poison it.
const POISONED: &str = "slab pool lock poisoned";

#[derive(Default)]
struct PoolState {
    /// Next chunk index no decode worker has claimed.
    next_claim: usize,
    /// Set once the consumer is done: workers claim nothing more.
    stop: bool,
    /// Decoded chunks (or their decode errors) the consumer has not taken.
    ready: BTreeMap<usize, io::Result<Vec<Event>>>,
    /// Recycled event slabs awaiting reuse.
    free: Vec<Vec<Event>>,
    /// Slabs claimed from the pool and not yet back in `free`: in flight,
    /// ready, or held by the consumer.
    outstanding: usize,
}

/// The slab pool between out-of-order decode workers and the one
/// in-order consumer.
///
/// Workers claim chunk indices in order but decode and publish them in
/// whatever order they finish; the only back-pressure is the pool
/// (`cap`), so a slow chunk never stalls the workers behind it.
/// Deadlock-freedom: while the consumer waits for chunk `f` it holds no
/// slab, and every chunk below `f` has been taken and recycled. If `f`
/// is claimed it is in flight and will be published; if not, then —
/// claims being in order — no later chunk is claimed either, nothing is
/// outstanding, and `cap > 0` leaves a slab for `f`.
struct Pool<'a, F: ?Sized> {
    feed: &'a F,
    /// Decode threads; 1 means the consumer decodes inline.
    decoders: usize,
    cap: usize,
    state: Mutex<PoolState>,
    cond: Condvar,
}

impl<'a, F: ChunkFeed + ?Sized> Pool<'a, F> {
    fn new(feed: &'a F, decoders: usize) -> Self {
        Pool {
            feed,
            decoders,
            cap: decoders + 1 + WINDOW_SLACK,
            state: Mutex::new(PoolState::default()),
            cond: Condvar::new(),
        }
    }

    /// Decodes chunk `i` into `buf` as decoder `w` and records it on the
    /// timeline and the `analyze.win.*` series (wall clock: the pipeline
    /// has no virtual clock).
    fn decode(&self, w: usize, i: usize, buf: &mut Vec<Event>) -> io::Result<()> {
        buf.clear();
        let t0 = trace_now();
        self.feed.decode_chunk(i, buf)?;
        let t1 = trace_now();
        if tracefmt::recording() {
            let args = [("chunk", i.to_string()), ("events", buf.len().to_string())];
            tracefmt::span(ANALYZE_PID, w as u64 + 1, "decode", t0, t1 - t0, &args);
        }
        if series::active() {
            series::add("analyze.win.chunks", t1 as u64, 1);
            series::add("analyze.win.events", t1 as u64, buf.len() as u64);
        }
        Ok(())
    }

    /// Decode-worker loop: claim the next chunk and a recycled slab,
    /// decode, publish. Exits once every chunk is claimed or the consumer
    /// is done.
    fn decode_loop(&self, w: usize) {
        loop {
            let (i, mut buf) = {
                let mut st = self.state.lock().expect(POISONED);
                loop {
                    if st.stop || st.next_claim == self.feed.chunk_count() {
                        return;
                    }
                    if st.outstanding < self.cap {
                        st.next_claim += 1;
                        st.outstanding += 1;
                        break (st.next_claim - 1, st.free.pop().unwrap_or_default());
                    }
                    st = self.cond.wait(st).expect(POISONED);
                }
            };
            let chunk = self.decode(w, i, &mut buf).map(|()| buf);
            self.state.lock().expect(POISONED).ready.insert(i, chunk);
            self.cond.notify_all();
        }
    }

    /// Chunk `i`'s events: decoded inline with one decoder, else waited
    /// for from the workers. A decode failure comes back at its chunk.
    fn take(&self, i: usize) -> io::Result<Vec<Event>> {
        let mut st = self.state.lock().expect(POISONED);
        if self.decoders == 1 {
            st.outstanding += 1;
            let mut buf = st.free.pop().unwrap_or_default();
            drop(st);
            self.decode(0, i, &mut buf)?;
            return Ok(buf);
        }
        loop {
            if let Some(chunk) = st.ready.remove(&i) {
                return chunk;
            }
            st = self.cond.wait(st).expect(POISONED);
        }
    }

    /// Returns a consumed slab to the pool, unblocking decode workers.
    fn recycle(&self, buf: Vec<Event>) {
        let mut st = self.state.lock().expect(POISONED);
        st.outstanding -= 1;
        st.free.push(buf);
        drop(st);
        self.cond.notify_all();
    }
}

/// Stops a [`Pool`]'s decode workers when dropped.
struct StopOnDrop<'p, 'a, F: ?Sized>(&'p Pool<'a, F>);

impl<F: ?Sized> Drop for StopOnDrop<'_, '_, F> {
    fn drop(&mut self) {
        // Setting the flag is valid on any state, and a drop must not panic.
        self.0.state.lock().unwrap_or_else(PoisonError::into_inner).stop = true;
        self.0.cond.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Model;
    use mem_trace::{FreeRunScheduler, TracedMem};
    use std::sync::mpsc;
    use std::time::Duration;

    const WORKERS: [usize; 3] = [1, 2, 8];

    fn capture(threads: u32) -> Trace {
        let mem = TracedMem::new(FreeRunScheduler);
        mem.run(threads, |ctx| {
            let a = ctx.palloc(512, 64).unwrap();
            for i in 0..50u64 {
                ctx.work_begin(i);
                ctx.store_u64(a.add(8 * (i % 16)), i);
                if i % 3 == 0 {
                    ctx.persist_barrier();
                }
                if i % 11 == 0 {
                    ctx.persist_sync();
                }
                ctx.work_end(i);
            }
        })
    }

    /// Records every event pushed into it.
    #[derive(Default)]
    struct Collect(Vec<Event>);

    impl ChunkSink for Collect {
        fn push(&mut self, events: &[Event]) -> io::Result<()> {
            self.0.extend_from_slice(events);
            Ok(())
        }
    }

    /// Fails on its push of chunk `at`, naming itself in the error.
    struct FailAt {
        name: &'static str,
        at: usize,
        seen: usize,
    }

    impl ChunkSink for FailAt {
        fn push(&mut self, _: &[Event]) -> io::Result<()> {
            if self.seen == self.at {
                return Err(io::Error::other(format!("{} failed at chunk {}", self.name, self.at)));
            }
            self.seen += 1;
            Ok(())
        }
    }

    /// [`TraceChunks`] whose chunk `bad` fails to decode.
    struct FailingFeed<'a> {
        inner: TraceChunks<'a>,
        bad: usize,
    }

    impl ChunkFeed for FailingFeed<'_> {
        fn thread_count(&self) -> u32 {
            self.inner.thread_count()
        }

        fn chunk_count(&self) -> usize {
            self.inner.chunk_count()
        }

        fn decode_chunk(&self, i: usize, out: &mut Vec<Event>) -> io::Result<()> {
            if i == self.bad {
                return Err(io::Error::new(io::ErrorKind::InvalidData, format!("chunk {i} is corrupt")));
            }
            self.inner.decode_chunk(i, out)
        }
    }

    /// Runs `f` on a helper thread, so a driver that deadlocks fails the
    /// test instead of hanging it.
    fn within_deadline<T: Send + 'static>(f: impl FnOnce() -> T + Send + 'static) -> T {
        let (tx, rx) = mpsc::channel();
        std::thread::spawn(move || {
            let _ = tx.send(f());
        });
        rx.recv_timeout(Duration::from_secs(60)).expect("drive hung or panicked")
    }

    #[test]
    fn chunked_profile_matches_sequential_any_chunking() {
        let t = capture(3);
        let reference = TraceProfile::of(&t);
        for chunk in [1usize, 3, 7, 64, 10_000] {
            for workers in WORKERS {
                let feed = TraceChunks::new(&t, chunk);
                let (got, _) = analyze_full(&feed, &[], workers).unwrap();
                assert_eq!(got, reference, "chunk={chunk} workers={workers}");
            }
        }
    }

    #[test]
    fn drive_reassembles_exact_stream() {
        let t = capture(2);
        for chunk in [1usize, 5, 1000] {
            let feed = TraceChunks::new(&t, chunk);
            for workers in WORKERS {
                let mut collected: Vec<Collect> = (0..3).map(|_| Collect::default()).collect();
                let mut sinks: Vec<Sink<'_>> =
                    collected.iter_mut().map(|c| c as Sink<'_>).collect();
                drive(&feed, workers, &mut sinks).unwrap();
                for c in &collected {
                    assert_eq!(c.0, t.events(), "chunk={chunk} workers={workers}");
                }
            }
        }
    }

    #[test]
    fn analyze_full_matches_sequential_engines() {
        let t = capture(3);
        let configs: Vec<AnalysisConfig> =
            Model::ALL.iter().map(|&m| AnalysisConfig::new(m)).collect();
        let ref_profile = TraceProfile::of(&t);
        let ref_reports: Vec<TimingReport> =
            configs.iter().map(|c| crate::timing::analyze(&t, c)).collect();
        for workers in WORKERS {
            let feed = TraceChunks::new(&t, 9);
            let (profile, reports) = analyze_full(&feed, &configs, workers).unwrap();
            assert_eq!(profile, ref_profile, "workers={workers}");
            assert_eq!(reports, ref_reports, "workers={workers}");
        }
    }

    #[test]
    fn decode_failure_is_returned_for_any_sink_and_worker_count() {
        for n_sinks in [1usize, 6] {
            for workers in WORKERS {
                let err = within_deadline(move || {
                    let t = capture(2);
                    let feed = FailingFeed { inner: TraceChunks::new(&t, 7), bad: 4 };
                    let mut collected: Vec<Collect> =
                        (0..n_sinks).map(|_| Collect::default()).collect();
                    let mut sinks: Vec<Sink<'_>> =
                        collected.iter_mut().map(|c| c as Sink<'_>).collect();
                    drive(&feed, workers, &mut sinks).unwrap_err().to_string()
                });
                assert_eq!(err, "chunk 4 is corrupt", "sinks={n_sinks} workers={workers}");
            }
        }
    }

    #[test]
    fn early_sink_failure_leaves_no_thread_blocked() {
        // One sink fails at chunk 1 while five others would read all ~100
        // chunks: the driver must still return, through a pool far smaller
        // than the trace.
        for position in [0usize, 3, 5] {
            for workers in WORKERS {
                let err = within_deadline(move || {
                    let t = capture(2);
                    let feed = TraceChunks::new(&t, 3);
                    let mut failing = FailAt { name: "sink", at: 1, seen: 0 };
                    let mut collected: Vec<Collect> = (0..5).map(|_| Collect::default()).collect();
                    let mut sinks: Vec<Sink<'_>> =
                        collected.iter_mut().map(|c| c as Sink<'_>).collect();
                    sinks.insert(position, &mut failing);
                    drive(&feed, workers, &mut sinks).unwrap_err().to_string()
                });
                assert_eq!(err, "sink failed at chunk 1", "position={position} workers={workers}");
            }
        }
    }

    #[test]
    fn failures_resolve_by_chunk_then_sink() {
        let t = capture(2);
        // (early's chunk, late-index's chunk, corrupt chunk, winner): the
        // lowest chunk wins, then the lower sink index; decode failures
        // rank by their chunk like sink failures.
        let cases: [(usize, usize, usize, &str); 4] = [
            (3, 1, 9, "late-index"),
            (2, 2, 9, "early"),
            (2, 2, 1, "chunk 1 is corrupt"),
            (1, 5, 4, "early"),
        ];
        for (early_at, late_at, bad, want) in cases {
            for workers in WORKERS {
                let feed = FailingFeed { inner: TraceChunks::new(&t, 3), bad };
                let mut early = FailAt { name: "early", at: early_at, seen: 0 };
                let mut late = FailAt { name: "late-index", at: late_at, seen: 0 };
                let mut ok = Collect::default();
                let mut sinks: [Sink<'_>; 3] = [&mut ok, &mut early, &mut late];
                let err = drive(&feed, workers, &mut sinks).unwrap_err().to_string();
                assert!(err.starts_with(want), "{want} vs {err}: workers={workers}");
            }
        }
    }

    /// Panics on its push of chunk `at`.
    struct PanicAt {
        at: usize,
        seen: usize,
    }

    impl ChunkSink for PanicAt {
        fn push(&mut self, _: &[Event]) -> io::Result<()> {
            assert_ne!(self.seen, self.at, "sink panicked at chunk {}", self.at);
            self.seen += 1;
            Ok(())
        }
    }

    #[test]
    fn sink_panic_propagates_and_stops_decoders() {
        // The drop guard stops the decode workers, so the scope joins them
        // and the panic reaches the caller instead of a hang.
        for workers in WORKERS {
            let panicked = within_deadline(move || {
                let t = capture(2);
                let feed = TraceChunks::new(&t, 3);
                let mut ok = Collect::default();
                let mut panicking = PanicAt { at: 1, seen: 0 };
                let mut sinks: [Sink<'_>; 2] = [&mut ok, &mut panicking];
                let run = std::panic::AssertUnwindSafe(|| drive(&feed, workers, &mut sinks));
                std::panic::catch_unwind(run).is_err()
            });
            assert!(panicked, "workers={workers}");
        }
    }

    /// [`TraceChunks`] that counts the chunks it is asked to decode.
    struct CountingFeed<'a> {
        inner: TraceChunks<'a>,
        decoded: std::sync::atomic::AtomicUsize,
    }

    impl ChunkFeed for CountingFeed<'_> {
        fn thread_count(&self) -> u32 {
            self.inner.thread_count()
        }

        fn chunk_count(&self) -> usize {
            self.inner.chunk_count()
        }

        fn decode_chunk(&self, i: usize, out: &mut Vec<Event>) -> io::Result<()> {
            self.decoded.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            self.inner.decode_chunk(i, out)
        }
    }

    #[test]
    fn early_sink_failure_stops_decoding_within_the_pool() {
        for workers in WORKERS {
            let (chunks, cap, decoded) = within_deadline(move || {
                let t = capture(2);
                let feed =
                    CountingFeed { inner: TraceChunks::new(&t, 3), decoded: Default::default() };
                let mut failing = FailAt { name: "sink", at: 1, seen: 0 };
                drive(&feed, workers, &mut [&mut failing as Sink<'_>]).unwrap_err();
                let cap = decode_threads(&feed, workers) + 1 + WINDOW_SLACK;
                (feed.chunk_count(), cap, feed.decoded.into_inner())
            });
            assert!(chunks >= 90, "{chunks} chunks");
            // Chunks 0 and 1, plus at most a full pool decoded ahead.
            assert!(decoded <= 2 + cap, "decoded {decoded} of {chunks} chunks, workers={workers}");
        }
    }

    #[test]
    fn empty_feed_yields_empty_results() {
        let t = Trace::from_events(2, vec![]);
        let feed = TraceChunks::new(&t, 8);
        assert_eq!(feed.chunk_count(), 0);
        let (profile, reports) =
            analyze_full(&feed, &[AnalysisConfig::new(Model::Epoch)], 4).unwrap();
        assert_eq!(profile, TraceProfile::default());
        assert_eq!(reports.len(), 1);
        assert_eq!(reports[0].critical_path, 0);
        let dag = build_dag(&feed, &AnalysisConfig::new(Model::Epoch), 4).unwrap();
        assert!(dag.is_empty());
    }
}
