//! Observability counters of a model-lane walk keep their per-config
//! meaning: `analyze_full` over five configs is one engine run over the
//! trace, and five timing analyses, and its coalesced count is the five
//! analyses' sum, as five one-model runs would count it. The run's
//! block-table counters are a function of the trace alone, whatever the
//! worker count. Alone in its test binary because the obsv registry is
//! process-global.

use mem_trace::{FreeRunScheduler, TraceBuilder, TracedMem};
use persist_mem::MemAddr;
use persistency::partition::{self, TraceChunks};
use persistency::{AnalysisConfig, Model};

#[test]
fn five_configs_record_five_analyses_and_one_engine_run() {
    let trace = TracedMem::new(FreeRunScheduler).run(2, |ctx| {
        let a = ctx.palloc(512, 64).unwrap();
        for i in 0..40u64 {
            ctx.store_u64(a.add(8 * (i % 16)), i);
            if i % 3 == 0 {
                ctx.persist_barrier();
            }
        }
    });
    let configs: Vec<AnalysisConfig> = Model::ALL.iter().map(|&m| AnalysisConfig::new(m)).collect();
    obsv::set_enabled(true);
    obsv::reset();
    let (_, reports) = partition::analyze_full(&TraceChunks::new(&trace, 32), &configs, 1).unwrap();
    let snap = obsv::snapshot();
    assert_eq!(snap.counters.get("timing.analyses"), Some(&5));
    assert_eq!(snap.counters.get("engine.runs"), Some(&1));
    assert_eq!(snap.counters.get("engine.events"), Some(&(trace.events().len() as u64)));
    let paths = &snap.histograms["timing.critical_path"];
    assert_eq!(paths.count, 5);
    assert_eq!(paths.sum, reports.iter().map(|r| r.critical_path).sum::<u64>());

    // Coalescing is counted per lane in use: lanes past the configs of a
    // walk count nothing.
    for configs in [&configs[..], &configs[1..3]] {
        obsv::reset();
        let (_, reports) =
            partition::analyze_full(&TraceChunks::new(&trace, 32), configs, 1).unwrap();
        let coalesced: u64 = reports.iter().map(|r| r.stats.coalesced).sum();
        assert!(coalesced > 0, "{configs:?} coalesce somewhere");
        let snap = obsv::snapshot();
        assert_eq!(snap.counters.get("engine.coalesced"), Some(&coalesced), "{configs:?}");
    }

    // The block tables: persistent blocks 0..70 fill two 64-block pages
    // in each table, the volatile store one page of conflict state, and
    // the two persists far past the dense range one spill entry per table
    // each.
    let mut b = TraceBuilder::new(2);
    for i in 0..70u64 {
        b.store(0, MemAddr::persistent(8 * i), i);
    }
    b.store(1, MemAddr::volatile(0), 1).persist_barrier(1);
    for far in [1u64 << 40, (1 << 40) + 8] {
        b.store(1, MemAddr::persistent(far), far);
    }
    let trace = b.build();
    for workers in [1, 3] {
        obsv::reset();
        partition::analyze_full(&TraceChunks::new(&trace, 16), &configs, workers).unwrap();
        let snap = obsv::snapshot();
        let counter = |name: &str| snap.counters.get(name).copied().unwrap_or(0);
        assert_eq!(counter("engine.runs"), 1, "{workers} workers");
        assert_eq!(counter("engine.block_pages"), 5, "{workers} workers");
        assert_eq!(counter("engine.block_spill"), 4, "{workers} workers");
    }
    obsv::set_enabled(false);
}
