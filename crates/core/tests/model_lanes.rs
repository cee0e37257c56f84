//! Model lanes against the one-model engine.
//!
//! `partition::analyze_full` runs every config that differs from another
//! only in its model as a lane of one engine walk. Lane *k*'s report must
//! equal `timing::analyze` under config *k*: on every litmus test, on the
//! randomized traces of `profile_differential.rs`, and on raw event
//! streams with volatile flags, read-modify-writes and accesses that span
//! tracking and atomic-persist blocks; at 8- and 64-byte granularities,
//! with coalescing on and off, for lists of one, two and five models, a
//! list that repeats a model and lists that need several walks.

use mem_trace::rng::SmallRng;
use mem_trace::{Event, Op, SeededScheduler, ThreadId, Trace, TracedMem};
use persist_mem::{AtomicPersistSize, MemAddr, TrackingGranularity};
use persistency::partition::{self, TraceChunks};
use persistency::timing::{self, TimingReport};
use persistency::{litmus, AnalysisConfig, Model};

/// The randomized multithread workload of `profile_differential.rs`.
fn random_trace(seed: u64) -> Trace {
    let mut rng = SmallRng::seed_from_u64(seed * 13 + 5);
    let threads = 2 + (seed % 3) as u32;
    let scripts: Vec<Vec<(u8, u64)>> = (0..threads)
        .map(|_| (0..40).map(|_| (rng.gen_index(7) as u8, rng.gen_index(8) as u64)).collect())
        .collect();
    let mem = TracedMem::new(SeededScheduler::new(seed));
    mem.run(threads, |ctx| {
        let tid = ctx.thread_id().as_u64();
        let shared = MemAddr::persistent(0);
        let own = MemAddr::persistent(4096 * (1 + tid));
        for &(kind, slot) in &scripts[tid as usize] {
            match kind {
                0 => ctx.store_u64(own.add(8 * slot), slot),
                1 => ctx.store_u64(shared.add(8 * (slot % 4)), slot),
                2 => {
                    ctx.load_u64(shared.add(8 * (slot % 4)));
                }
                3 => ctx.persist_barrier(),
                4 => ctx.mem_barrier(),
                5 => ctx.persist_sync(),
                _ => ctx.new_strand(),
            }
        }
    })
}

/// A raw event stream over a few shared lines in both address spaces:
/// loads, stores and RMWs of 1 to 8 bytes at any offset (so some span two
/// 8-byte blocks, and some span two 64-byte blocks), every barrier kind,
/// strands and work markers. The engine does not need SC values.
fn raw_trace(seed: u64) -> Trace {
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x5eed);
    let threads = 2 + (seed % 3) as u32;
    let events = (0..400u32)
        .map(|po| {
            let thread = rng.gen_index(threads as usize) as u32;
            let offset = rng.gen_index(192) as u64;
            let addr = if rng.gen_index(3) == 0 {
                MemAddr::volatile(offset)
            } else {
                MemAddr::persistent(offset)
            };
            let len = 1 + rng.gen_index(8) as u8;
            let op = match rng.gen_index(11) {
                0..=2 => Op::Store { addr, len, value: u64::from(po) },
                3 | 4 => Op::Load { addr, len, value: 0 },
                5 => Op::Rmw { addr, len, old: 0, new: u64::from(po) },
                6 => Op::PersistBarrier,
                7 => Op::MemBarrier,
                8 => Op::PersistSync,
                9 => Op::NewStrand,
                _ if po % 2 == 0 => Op::WorkBegin { id: u64::from(po) },
                _ => Op::WorkEnd { id: u64::from(po) },
            };
            Event { thread: ThreadId(thread), po, op }
        })
        .collect();
    Trace::from_events(threads, events)
}

fn traces() -> Vec<(String, Trace)> {
    let mut out: Vec<(String, Trace)> =
        litmus::suite().into_iter().map(|t| (format!("litmus {}", t.name), t.trace)).collect();
    out.extend((0..10).map(|seed| (format!("random {seed}"), random_trace(seed))));
    out.extend((0..10).map(|seed| (format!("raw {seed}"), raw_trace(seed))));
    out
}

/// Every combination of 8- and 64-byte tracking and atomic persists, with
/// coalescing on and off, as a config of `model`.
fn granularities() -> Vec<Box<dyn Fn(Model) -> AnalysisConfig>> {
    let mut out: Vec<Box<dyn Fn(Model) -> AnalysisConfig>> = Vec::new();
    for tracking in [8, 64] {
        for atomic in [8, 64] {
            for coalescing in [true, false] {
                out.push(Box::new(move |m| {
                    let c = AnalysisConfig::new(m)
                        .with_tracking(TrackingGranularity::new(tracking).unwrap())
                        .with_atomic_persist(AtomicPersistSize::new(atomic).unwrap());
                    if coalescing {
                        c
                    } else {
                        c.without_coalescing()
                    }
                }));
            }
        }
    }
    out
}

fn model_lists() -> Vec<Vec<Model>> {
    use Model::*;
    let mut out: Vec<Vec<Model>> = Model::ALL.iter().map(|&m| vec![m]).collect();
    out.push(vec![Bpfs, Strand]);
    out.push(vec![StrictRmo, Epoch]);
    out.push(Model::ALL.to_vec());
    out.push(vec![Strand, Epoch, Strand, Strict]);
    out
}

/// `analyze_full` over `configs`, at one worker and at three, against
/// the one-model engine per config.
fn check(name: &str, trace: &Trace, configs: &[AnalysisConfig]) {
    let want: Vec<TimingReport> = configs.iter().map(|c| timing::analyze(trace, c)).collect();
    for workers in [1, 3] {
        let feed = TraceChunks::new(trace, 64);
        let (_, got) = partition::analyze_full(&feed, configs, workers).unwrap();
        assert_eq!(got.len(), want.len(), "{name} workers={workers}");
        for (k, (g, w)) in got.iter().zip(&want).enumerate() {
            assert_eq!(g, w, "{name}: lane {k} ({:?}) workers={workers}", configs[k]);
        }
    }
}

#[test]
fn every_lane_equals_its_scalar_analysis() {
    for (name, trace) in traces() {
        for (g, granularity) in granularities().iter().enumerate() {
            for models in model_lists() {
                let configs: Vec<AnalysisConfig> = models.iter().map(|&m| granularity(m)).collect();
                check(&format!("{name} granularity {g} {models:?}"), &trace, &configs);
            }
        }
    }
}

#[test]
fn mixed_granularities_split_into_walks_and_keep_input_order() {
    let grans = granularities();
    // Six configs of one group (more lanes than models) interleaved with
    // configs of three other groups.
    let mut configs = Vec::new();
    for (i, &m) in Model::ALL.iter().chain(&[Model::Epoch]).enumerate() {
        configs.push(grans[0](m));
        configs.push(grans[1 + i % 3](Model::ALL[(i + 2) % 5]));
    }
    assert_eq!(partition::analyze_sinks(&configs), 1 + 2 + 3);
    for (name, trace) in traces().into_iter().step_by(3) {
        check(&name, &trace, &configs);
    }
}

#[test]
fn the_default_five_models_take_two_sinks() {
    let configs: Vec<AnalysisConfig> = Model::ALL.iter().map(|&m| AnalysisConfig::new(m)).collect();
    assert_eq!(partition::analyze_sinks(&configs), 2);
    assert_eq!(partition::analyze_sinks(&configs[..1]), 2);
    assert_eq!(partition::analyze_sinks(&[]), 1);
}

#[test]
fn an_out_of_range_thread_gives_the_same_error_for_any_lane_count() {
    let mut events = random_trace(1).events().to_vec();
    let at = events.len() / 2;
    events[at].thread = ThreadId(7);
    let trace = Trace::from_events(3, events);
    for models in [vec![Model::Strand], vec![Model::Bpfs, Model::Epoch], Model::ALL.to_vec()] {
        let configs: Vec<AnalysisConfig> = models.iter().map(|&m| AnalysisConfig::new(m)).collect();
        for workers in [1, 3] {
            let err = partition::analyze_full(&TraceChunks::new(&trace, 16), &configs, workers)
                .unwrap_err();
            assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
            assert_eq!(
                err.to_string(),
                "event names a thread outside the trace's thread count",
                "{models:?} workers={workers}"
            );
        }
    }
}
