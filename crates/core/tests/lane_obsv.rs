//! Observability counters of a model-lane walk keep their per-config
//! meaning: `analyze_full` over five configs is one engine run over the
//! trace, and five timing analyses. Alone in its test binary because the
//! obsv registry is process-global.

use mem_trace::{FreeRunScheduler, TracedMem};
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
    obsv::set_enabled(false);
    assert_eq!(snap.counters.get("timing.analyses"), Some(&5));
    assert_eq!(snap.counters.get("engine.runs"), Some(&1));
    assert_eq!(snap.counters.get("engine.events"), Some(&(trace.events().len() as u64)));
    let paths = &snap.histograms["timing.critical_path"];
    assert_eq!(paths.count, 5);
    assert_eq!(paths.sum, reports.iter().map(|r| r.critical_path).sum::<u64>());
}
