//! Differential tests: the chunked-parallel analysis pipeline must be
//! bit-identical to the sequential engines for any chunking and any
//! worker count.
//!
//! Randomized multi-thread traces are run through both paths — the
//! in-memory [`TraceChunks`] feed at adversarial chunk sizes and a real
//! serialized MPTRACE2 image with a small segment index, mmap-decoded —
//! under every persistency model at 1, 2 and 8 workers. Covered engines:
//! the timing (critical-path) engine, the trace profiler, and the exact
//! persist DAG fed through the decode-parallel stream. Zero-barrier
//! traces exercise the single-chunk / no-epoch degenerate paths, and bad
//! inputs must fail with the same error at every worker count.

use mem_trace::mmapio::MappedTrace;
use mem_trace::profile::TraceProfile;
use mem_trace::rng::SmallRng;
use mem_trace::{io as trace_io, Event, Op, SeededScheduler, ThreadId, Trace, TracedMem};
use persist_mem::MemAddr;
use persistency::dag::PersistDag;
use persistency::partition::{self, ChunkFeed, TraceChunks};
use std::io;
use persistency::{timing, AnalysisConfig, Model};

const WORKERS: [usize; 3] = [1, 2, 8];

/// A randomized multi-thread capture mixing stores, conflicting shared
/// accesses, barriers, syncs, strands and work markers — every op kind
/// the engines treat specially.
fn random_trace(seed: u64, with_barriers: bool) -> Trace {
    let mut rng = SmallRng::seed_from_u64(seed.wrapping_mul(0x9E37_79B9).wrapping_add(1));
    let threads = 2 + (seed % 3) as u32;
    let scripts: Vec<Vec<(u8, u64)>> = (0..threads)
        .map(|_| (0..60).map(|_| (rng.gen_index(8) as u8, rng.gen_index(8) as u64)).collect())
        .collect();
    let mem = TracedMem::new(SeededScheduler::new(seed));
    mem.run(threads, |ctx| {
        let tid = ctx.thread_id().as_u64();
        let shared = MemAddr::persistent(0);
        let own = MemAddr::persistent(4096 * (1 + tid));
        for (i, &(kind, slot)) in scripts[tid as usize].iter().enumerate() {
            match kind {
                0 | 1 => ctx.store_u64(own.add(8 * slot), slot),
                2 => ctx.store_u64(shared.add(8 * (slot % 4)), slot),
                3 => {
                    ctx.load_u64(shared.add(8 * (slot % 4)));
                }
                4 if with_barriers => ctx.persist_barrier(),
                5 if with_barriers && slot == 0 => ctx.persist_sync(),
                6 if slot < 2 => ctx.new_strand(),
                _ => {
                    ctx.work_begin(i as u64);
                    ctx.store_u64(own.add(8 * (slot % 8)), slot);
                    ctx.work_end(i as u64);
                }
            }
        }
    })
}

/// Serializes to MPTRACE2 with a deliberately tiny segment index so even
/// small test traces decode as many independent chunks.
fn mapped_with_segments(trace: &Trace, segment_events: u64) -> MappedTrace {
    let mut bytes = Vec::new();
    trace_io::write_trace2_segmented(trace, &mut bytes, segment_events).unwrap();
    MappedTrace::from_bytes(bytes).unwrap()
}

/// Compares two DAGs structurally: same nodes, deps, stats and answer.
fn assert_dag_eq(a: &PersistDag, b: &PersistDag, ctx: &str) {
    assert_eq!(a.len(), b.len(), "{ctx}: node count");
    assert_eq!(a.critical_path(), b.critical_path(), "{ctx}: critical path");
    assert_eq!(a.stats().coalesced, b.stats().coalesced, "{ctx}: coalesced");
    for (i, (na, nb)) in a.nodes().iter().zip(b.nodes()).enumerate() {
        assert_eq!(a.deps(i as u32), b.deps(i as u32), "{ctx}: node {i} deps");
        assert_eq!(na.writes, nb.writes, "{ctx}: node {i} writes");
        assert_eq!(na.events, nb.events, "{ctx}: node {i} events");
        assert_eq!(na.thread, nb.thread, "{ctx}: node {i} thread");
    }
}

#[test]
fn chunked_timing_matches_sequential_all_models() {
    for seed in 0..6u64 {
        let t = random_trace(seed, true);
        let configs: Vec<AnalysisConfig> =
            Model::ALL.iter().map(|&m| AnalysisConfig::new(m)).collect();
        let ref_profile = TraceProfile::of(&t);
        let ref_reports: Vec<_> = configs.iter().map(|c| timing::analyze(&t, c)).collect();
        for chunk in [7usize, 64] {
            let feed = TraceChunks::new(&t, chunk);
            for workers in WORKERS {
                let (profile, reports) =
                    partition::analyze_full(&feed, &configs, workers).unwrap();
                assert_eq!(profile, ref_profile, "seed {seed} chunk {chunk} workers {workers}");
                assert_eq!(reports, ref_reports, "seed {seed} chunk {chunk} workers {workers}");
            }
        }
    }
}

#[test]
fn chunked_timing_matches_on_mmap_segmented_image() {
    for seed in 0..4u64 {
        let t = random_trace(seed, true);
        let map = mapped_with_segments(&t, 32);
        assert!(map.segment_count() > 1, "seed {seed}: want a multi-segment image");
        let configs: Vec<AnalysisConfig> =
            Model::ALL.iter().map(|&m| AnalysisConfig::new(m)).collect();
        let ref_profile = TraceProfile::of(&t);
        let ref_reports: Vec<_> = configs.iter().map(|c| timing::analyze(&t, c)).collect();
        for workers in WORKERS {
            let (profile, reports) = partition::analyze_full(&map, &configs, workers).unwrap();
            assert_eq!(profile, ref_profile, "seed {seed} workers {workers}");
            assert_eq!(reports, ref_reports, "seed {seed} workers {workers}");
        }
    }
}

#[test]
fn chunked_dag_matches_sequential_all_models() {
    for seed in 0..4u64 {
        let t = random_trace(seed, true);
        let map = mapped_with_segments(&t, 32);
        for model in Model::ALL {
            let cfg = AnalysisConfig::new(model);
            let reference = PersistDag::build(&t, &cfg).unwrap();
            for workers in WORKERS {
                let dag = partition::build_dag(&map, &cfg, workers).unwrap();
                assert_dag_eq(&reference, &dag, &format!("seed {seed} {model} w{workers}"));
            }
        }
    }
}

#[test]
fn zero_barrier_traces_take_single_epoch_paths() {
    // No persist barriers at all: the whole trace is one open epoch, the
    // profile closes only trailing epochs, and every model still agrees
    // with its sequential self.
    for seed in 0..4u64 {
        let t = random_trace(seed, false);
        assert_eq!(TraceProfile::of(&t).persist_barriers, 0);
        let configs: Vec<AnalysisConfig> =
            Model::ALL.iter().map(|&m| AnalysisConfig::new(m)).collect();
        let ref_profile = TraceProfile::of(&t);
        let ref_reports: Vec<_> = configs.iter().map(|c| timing::analyze(&t, c)).collect();
        // Single chunk (the fallback: no threads) and many chunks.
        for chunk in [usize::MAX >> 1, 16] {
            let feed = TraceChunks::new(&t, chunk);
            for workers in WORKERS {
                let (profile, reports) =
                    partition::analyze_full(&feed, &configs, workers).unwrap();
                assert_eq!(profile, ref_profile, "seed {seed} workers {workers}");
                assert_eq!(reports, ref_reports, "seed {seed} workers {workers}");
            }
        }
        let map = mapped_with_segments(&t, 32);
        for model in Model::ALL {
            let cfg = AnalysisConfig::new(model);
            let reference = PersistDag::build(&t, &cfg).unwrap();
            let dag = partition::build_dag(&map, &cfg, 8).unwrap();
            assert_dag_eq(&reference, &dag, &format!("seed {seed} {model} zero-barrier"));
        }
    }
}

#[test]
fn unindexed_image_still_analyzes_identically() {
    // A footer-less MPTRACE2 file degrades to one chunk; the parallel
    // entry points must transparently fall back to sequential streaming.
    let t = random_trace(1, true);
    let mut bytes = Vec::new();
    trace_io::write_trace2_segmented(&t, &mut bytes, 0).unwrap();
    let map = MappedTrace::from_bytes(bytes).unwrap();
    assert!(!map.is_indexed());
    assert_eq!(map.segment_count(), 1);
    let configs = [AnalysisConfig::new(Model::Epoch)];
    let (profile, reports) = partition::analyze_full(&map, &configs, 8).unwrap();
    assert_eq!(profile, TraceProfile::of(&t));
    assert_eq!(reports[0], timing::analyze(&t, &configs[0]));
}

/// A one-thread trace of `n` persists whose events from index `good` on
/// name thread 2. MPTRACE2 decode checks thread ids only against
/// `MAX_THREADS`, so a crafted file reaches the analyses like this.
fn bad_thread_trace(n: usize, good: usize) -> Trace {
    let events = (0..n)
        .map(|i| Event {
            thread: ThreadId(if i < good { 0 } else { 2 }),
            po: i as u32,
            op: Op::Store { addr: MemAddr::persistent(64 * i as u64), len: 8, value: i as u64 },
        })
        .collect();
    Trace::from_events(1, events)
}

/// [`TraceChunks`] whose chunk `bad` fails to decode.
struct FailingChunks<'a> {
    inner: TraceChunks<'a>,
    bad: usize,
}

impl ChunkFeed for FailingChunks<'_> {
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

#[test]
fn analysis_errors_do_not_depend_on_worker_count() {
    // Every event of a bad chunk fails the profile and the engine walk
    // alike; the profile is the first sink, so its error is the one a
    // sequential pass meets and the one every worker count must return.
    let profile_error = "event names a thread outside the trace's thread count";
    let configs: Vec<AnalysisConfig> =
        Model::ALL.iter().map(|&m| AnalysisConfig::new(m)).collect();
    let all_bad = bad_thread_trace(10, 0);
    // Chunk 1 names thread 2; chunk 4 cannot be decoded at all.
    let bad_from_chunk_1 = bad_thread_trace(20, 3);
    for workers in WORKERS {
        let err = partition::analyze_full(&TraceChunks::new(&all_bad, 3), &configs, workers)
            .unwrap_err();
        assert_eq!(err.to_string(), profile_error, "bad threads, workers {workers}");
        let feed = FailingChunks { inner: TraceChunks::new(&bad_from_chunk_1, 3), bad: 4 };
        let err = partition::analyze_full(&feed, &configs, workers).unwrap_err();
        assert_eq!(err.to_string(), profile_error, "decode failure after, workers {workers}");
    }
}
