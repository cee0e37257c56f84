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
//! - With one worker or one chunk (an unindexed file, say) the calling
//!   thread decodes each chunk and pushes it into every sink in turn; no
//!   threads are spawned.
//! - Otherwise the trace's segment index (see `docs/mptrace2.md`) lets
//!   independent decoders start mid-file: workers claim chunks in order
//!   but decode them *out of order* into a bounded pool of recycled,
//!   reference-counted event slabs. The first sink runs on the caller and
//!   every other sink on its own thread, each walking the reassembled
//!   in-order stream — the *exact* sequential event sequence — so the
//!   sinks need no change and no stitching argument. A slow chunk never
//!   stalls the workers behind it: back-pressure comes only from the pool.
//!
//! No sink is split across chunks: the timing engine's level recurrence
//! does not compose across cuts (coalescing legality compares absolute
//! levels), see DESIGN.md §2b. Errors do not depend on the worker count
//! either: the driver reports the failure at the lowest chunk, ties going
//! to the earlier sink — the one a sequential pass meets first.

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
use std::sync::{Arc, Condvar, Mutex};

/// Timeline track group (`pid`) for the analysis driver: decode workers
/// and sink lanes. Distinct from the serve harness's per-model pids (1..=5).
const ANALYZE_PID: u64 = 10;

/// Records one decoded chunk on the analysis timeline/series (wall
/// clock — the pipeline has no virtual clock). `t0`/`t1` bracket the
/// decode; `tid` is the worker's timeline lane.
fn trace_chunk(tid: u64, name: &str, t0: f64, t1: f64, chunk: usize, events: usize) {
    if tracefmt::recording() {
        tracefmt::span(
            ANALYZE_PID,
            tid,
            name,
            t0,
            t1 - t0,
            &[("chunk", chunk.to_string()), ("events", events.to_string())],
        );
    }
    if series::active() {
        series::add("analyze.win.chunks", t1 as u64, 1);
        series::add("analyze.win.events", t1 as u64, events as u64);
    }
}

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

/// A sink as [`drive`] takes it: every sink but the first may run on a
/// thread of its own.
type Sink<'a> = &'a mut (dyn ChunkSink + Send);

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

/// Decodes each chunk of `feed` once and pushes it, in stream order, into
/// every sink, with up to `workers` decode threads.
///
/// Of several failures it returns the one at the lowest chunk, ties going
/// to the lower sink index: the error the sequential branch meets first,
/// whatever `workers` is.
fn drive<F>(feed: &F, workers: usize, sinks: &mut [Sink<'_>]) -> io::Result<()>
where
    F: ChunkFeed + ?Sized,
{
    let n_chunks = feed.chunk_count();
    if workers <= 1 || n_chunks <= 1 {
        if tracefmt::recording() {
            tracefmt::name_process(ANALYZE_PID, "analyze");
            tracefmt::name_thread(ANALYZE_PID, 0, "sequential");
        }
        let mut buf = Vec::new();
        for i in 0..n_chunks {
            buf.clear();
            let t0 = trace_now();
            feed.decode_chunk(i, &mut buf)?;
            for sink in sinks.iter_mut() {
                sink.push(&buf)?;
            }
            // One span per chunk covering the decode and every sink.
            trace_chunk(0, "chunk", t0, trace_now(), i, buf.len());
        }
        return Ok(());
    }
    let fd = Feed::new(feed, sinks.len(), workers);
    let (first, rest) = sinks.split_first_mut().expect("drive needs at least one sink");
    let results = std::thread::scope(|s| {
        let fd = &fd;
        for w in 0..workers.min(n_chunks) {
            obsv::spawn_flushed(s, move || fd.decode_loop(w));
        }
        let others: Vec<_> = rest
            .iter_mut()
            .enumerate()
            .map(|(k, sink)| obsv::spawn_flushed(s, move || fd.consume(k + 1, &mut **sink)))
            .collect();
        let mut results = vec![fd.consume(0, &mut **first)];
        results.extend(others.into_iter().map(|h| h.join().expect("sink thread panicked")));
        results
    });
    results
        .into_iter()
        .enumerate()
        .filter_map(|(k, r)| r.err().map(|(chunk, e)| ((chunk, k), e)))
        .min_by_key(|(at, _)| *at)
        .map_or(Ok(()), |(_, e)| Err(e))
}

/// Extra slab slots beyond the structural minimum (one per decode worker
/// in flight plus one held per consumer). Bounds resident decoded memory
/// to `(workers + consumers + WINDOW_SLACK) · chunk_events` events
/// however unbalanced the consumers are.
const WINDOW_SLACK: usize = 2;

/// One decoded chunk awaiting consumption.
struct Slot {
    data: Arc<Vec<Event>>,
    /// Active consumers that have not taken this chunk yet.
    remaining: usize,
}

struct FeedState {
    /// Next chunk index no decode worker has claimed.
    next_claim: usize,
    /// One past the last chunk any consumer still needs: the chunk count,
    /// lowered to just past the first failure. No later failure can be
    /// the one [`drive`] reports, so nothing past it is decoded or taken.
    end: usize,
    /// Lowest-index decode failure `(chunk, kind, message)`, returned to
    /// every consumer that reaches that chunk.
    decode_error: Option<(usize, io::ErrorKind, String)>,
    /// Decoded chunks not yet consumed by every active consumer.
    ready: BTreeMap<usize, Slot>,
    /// Next chunk each consumer needs (`usize::MAX` = finished).
    consumer_pos: Vec<usize>,
    /// Consumers not yet finished.
    active: usize,
    /// Recycled event slabs awaiting reuse by a decode worker.
    free: Vec<Vec<Event>>,
    /// Slabs in flight, ready, or held by consumers — everything claimed
    /// from the pool and not yet back in `free`.
    outstanding: usize,
}

/// Shared decode pool between out-of-order decode workers and in-order
/// consumers.
///
/// Workers claim chunk indices sequentially but decode and publish them
/// in whatever order they finish; the only back-pressure is the slab pool
/// (`pool_cap`), not the consumers' positions. Deadlock-freedom: claims
/// are sequential, so whenever the slowest consumer needs chunk `f`,
/// every ready chunk below `f` has already been taken by all active
/// consumers (they advanced past it) and recycled — hence at most
/// `consumers` held slabs and `workers` in-flight slabs are outstanding,
/// and `pool_cap > workers + consumers` leaves a slab free to claim `f`.
/// Chunks stranded at or past a lowered `end` were claimed after every
/// chunk below it, so they never hold back a chunk still needed.
struct Feed<'a, F: ?Sized> {
    feed: &'a F,
    pool_cap: usize,
    state: Mutex<FeedState>,
    cond: Condvar,
}

impl<'a, F: ChunkFeed + ?Sized> Feed<'a, F> {
    fn new(feed: &'a F, consumers: usize, workers: usize) -> Self {
        Feed {
            feed,
            pool_cap: workers + consumers + WINDOW_SLACK,
            state: Mutex::new(FeedState {
                next_claim: 0,
                end: feed.chunk_count(),
                decode_error: None,
                ready: BTreeMap::new(),
                consumer_pos: vec![0; consumers],
                active: consumers,
                free: Vec::new(),
                outstanding: 0,
            }),
            cond: Condvar::new(),
        }
    }

    /// Decode-worker loop: claim the next chunk and a recycled slab,
    /// decode out-of-order, publish. Exits when no consumer needs a later
    /// chunk or every consumer finished. `worker` only labels this loop's
    /// timeline lane.
    fn decode_loop(&self, worker: usize) {
        let tid = worker as u64 + 1;
        if tracefmt::recording() {
            tracefmt::name_process(ANALYZE_PID, "analyze");
            tracefmt::name_thread(ANALYZE_PID, tid, &format!("decode {worker}"));
        }
        loop {
            let (i, mut buf) = {
                let mut st = self.state.lock().unwrap();
                loop {
                    if st.next_claim >= st.end || st.active == 0 {
                        return;
                    }
                    if st.outstanding < self.pool_cap {
                        let i = st.next_claim;
                        st.next_claim += 1;
                        st.outstanding += 1;
                        let buf = st.free.pop().unwrap_or_default();
                        break (i, buf);
                    }
                    st = self.cond.wait(st).unwrap();
                }
            };
            buf.clear();
            let t0 = trace_now();
            let res = self.feed.decode_chunk(i, &mut buf);
            if res.is_ok() {
                trace_chunk(tid, "decode", t0, trace_now(), i, buf.len());
            }
            let mut st = self.state.lock().unwrap();
            match res {
                Ok(()) if st.active > 0 && i < st.end => {
                    let remaining = st.active;
                    st.ready.insert(i, Slot { data: Arc::new(buf), remaining });
                }
                Ok(()) => {
                    // No consumer will take this chunk any more; recycle.
                    st.outstanding -= 1;
                    st.free.push(buf);
                }
                Err(e) => {
                    if i < st.end {
                        st.end = i + 1;
                        st.decode_error = Some((i, e.kind(), e.to_string()));
                    }
                    st.outstanding -= 1;
                }
            }
            drop(st);
            self.cond.notify_all();
        }
    }
}

/// Consumer-side operations need no decoding, so they stay available on
/// cursors whose `Drop` cannot name the [`ChunkFeed`] bound.
impl<F: ?Sized> Feed<'_, F> {
    /// Sink-thread loop: pushes every chunk, in order, into `sink` as
    /// consumer `me`. A failure comes back with the chunk it happened at.
    fn consume(&self, me: usize, sink: &mut dyn ChunkSink) -> Result<(), (usize, io::Error)> {
        // Sink lanes sit above the decode lanes (tid 100+) so Perfetto
        // groups them visibly apart.
        let tid = 100 + me as u64;
        if tracefmt::recording() {
            tracefmt::name_thread(ANALYZE_PID, tid, &format!("sink {me}"));
        }
        let mut cursor = Cursor::new(self, me);
        loop {
            let i = cursor.next_chunk;
            let events = match cursor.next_chunk_ref() {
                Ok(Some(events)) => events,
                Ok(None) => return Ok(()),
                Err(e) => return Err((i, e)),
            };
            let t0 = trace_now();
            if let Err(e) = sink.push(events) {
                self.stop_after(i);
                return Err((i, e));
            }
            if tracefmt::recording() {
                tracefmt::span(
                    ANALYZE_PID,
                    tid,
                    "push",
                    t0,
                    trace_now() - t0,
                    &[("chunk", i.to_string()), ("events", events.len().to_string())],
                );
            }
        }
    }

    /// Records a sink failure at chunk `i`: consumers still need chunk `i`
    /// (an earlier sink failing there wins the tie) but nothing after it.
    fn stop_after(&self, i: usize) {
        let mut st = self.state.lock().unwrap();
        st.end = st.end.min(i + 1);
        drop(st);
        self.cond.notify_all();
    }

    /// Blocks until chunk `i` is decoded and takes consumer `me`'s
    /// reference to it, or returns `None` once no consumer needs chunk
    /// `i`. The last taker receives the slot's own `Arc`, so the final
    /// [`release`](Feed::release) can reclaim the slab.
    fn take(&self, me: usize, i: usize) -> io::Result<Option<Arc<Vec<Event>>>> {
        let mut st = self.state.lock().unwrap();
        loop {
            if i >= st.end {
                return Ok(None);
            }
            if let Some(slot) = st.ready.get_mut(&i) {
                slot.remaining -= 1;
                let data = if slot.remaining == 0 {
                    st.ready.remove(&i).expect("slot present").data
                } else {
                    Arc::clone(&slot.data)
                };
                st.consumer_pos[me] = i + 1;
                drop(st);
                self.cond.notify_all();
                return Ok(Some(data));
            }
            if let Some((at, kind, msg)) = &st.decode_error {
                if *at == i {
                    return Err(io::Error::new(*kind, msg.clone()));
                }
            }
            st = self.cond.wait(st).unwrap();
        }
    }

    /// Returns a consumer's chunk reference. The last holder recycles the
    /// slab into the free pool, unblocking decode workers.
    ///
    /// The `try_unwrap` runs under the state lock: concurrent releases of
    /// the same chunk are serialized, so exactly one of them observes a
    /// unique `Arc` and performs the recycle.
    fn release(&self, data: Arc<Vec<Event>>) {
        let mut st = self.state.lock().unwrap();
        if let Ok(buf) = Arc::try_unwrap(data) {
            st.outstanding -= 1;
            st.free.push(buf);
            drop(st);
            self.cond.notify_all();
        }
    }

    /// Marks consumer `me` finished, releasing its claim on every chunk it
    /// has not consumed so the pool keeps draining for the others.
    fn finish(&self, me: usize) {
        let mut st = self.state.lock().unwrap();
        let pos = st.consumer_pos[me];
        if pos == usize::MAX {
            return;
        }
        st.consumer_pos[me] = usize::MAX;
        st.active -= 1;
        let stale: Vec<usize> =
            st.ready.range(pos..).map(|(&i, _)| i).collect();
        for i in stale {
            let slot = st.ready.get_mut(&i).unwrap();
            slot.remaining -= 1;
            if slot.remaining == 0 {
                let slot = st.ready.remove(&i).expect("slot present");
                if let Ok(buf) = Arc::try_unwrap(slot.data) {
                    st.outstanding -= 1;
                    st.free.push(buf);
                }
            }
        }
        drop(st);
        self.cond.notify_all();
    }
}

/// In-order consumer cursor over a [`Feed`]; holds at most one chunk at a
/// time, recycling it into the slab pool before taking the next, and
/// unregisters itself on drop so early exits (errors) cannot stall the
/// other consumers.
struct Cursor<'a, 'f, F: ?Sized> {
    fd: &'a Feed<'f, F>,
    me: usize,
    next_chunk: usize,
    cur: Option<Arc<Vec<Event>>>,
}

impl<'a, 'f, F: ?Sized> Cursor<'a, 'f, F> {
    fn new(fd: &'a Feed<'f, F>, me: usize) -> Self {
        Cursor { fd, me, next_chunk: 0, cur: None }
    }

    /// Returns the held chunk (if any) to the slab pool.
    fn release_cur(&mut self) {
        if let Some(data) = self.cur.take() {
            self.fd.release(data);
        }
    }

    /// Releases the held chunk and takes the next one as a borrowed slice,
    /// or `None` past the last chunk any consumer needs.
    fn next_chunk_ref(&mut self) -> io::Result<Option<&[Event]>> {
        self.release_cur();
        let Some(data) = self.fd.take(self.me, self.next_chunk)? else {
            self.fd.finish(self.me);
            return Ok(None);
        };
        self.next_chunk += 1;
        Ok(Some(self.cur.insert(data).as_slice()))
    }
}

impl<F: ?Sized> Drop for Cursor<'_, '_, F> {
    fn drop(&mut self) {
        self.release_cur();
        self.fd.finish(self.me);
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
