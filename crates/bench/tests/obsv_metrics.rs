//! Metric-merge determinism through the real sweep pipeline: a
//! `SweepRunner` fan-out that records counters and histograms from its
//! worker threads must yield a byte-identical deterministic snapshot for
//! any worker count, because thread-local buffers merge by commutative
//! addition.

use bench::profile::run_profile;
use bench::SweepRunner;
use mem_trace::{FreeRunScheduler, TracedMem};
use persistency::{AnalysisConfig, Model};
use std::sync::Mutex;

/// The obsv registry and enable flag are process-global; tests that touch
/// them serialize here.
static OBSV_LOCK: Mutex<()> = Mutex::new(());

fn record_cell(i: usize, inserts: &u64) {
    obsv::counter_add("bsw.cells", 1);
    obsv::counter_add("bsw.inserts", *inserts);
    obsv::observe("bsw.cell_inserts", *inserts);
    obsv::observe("bsw.cell_index_sq", (i as u64) * (i as u64));
}

#[test]
fn sweep_metrics_snapshot_is_identical_for_1_2_8_workers() {
    let _g = OBSV_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    obsv::set_enabled(true);
    let items: Vec<u64> = (0..160).map(|i| 10 + i % 23).collect();

    let mut reference: Option<String> = None;
    for workers in [1usize, 2, 8] {
        obsv::reset();
        SweepRunner::new(workers).run(&items, |i, inserts| record_cell(i, inserts));
        let json = obsv::snapshot().filter_prefix("bsw.").to_json();
        match &reference {
            None => reference = Some(json),
            Some(r) => assert_eq!(&json, r, "snapshot diverged at {workers} workers"),
        }
    }
    let r = reference.unwrap();
    assert!(r.contains("\"bsw.cells\": 160"), "missing cells counter: {r}");
    let total: u64 = items.iter().sum();
    assert!(r.contains(&format!("\"bsw.inserts\": {total}")), "missing inserts sum: {r}");
}

/// `run_profile` records its `profile.*` counters once its sweep joins,
/// and the `engine.*` counters of its DAG build, baseline and lane walks
/// from whichever worker ran each: neither may depend on the worker count.
#[test]
fn profile_metrics_snapshot_is_identical_for_1_2_8_workers() {
    let _g = OBSV_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    obsv::set_enabled(true);
    let trace = TracedMem::new(FreeRunScheduler).run(2, |ctx| {
        let a = ctx.palloc(1024, 64).unwrap();
        let base = ctx.thread_id().index() as u64 * 512;
        for i in 0..12 {
            ctx.store_u64(a.add(base + 8 * i), i);
            if i % 2 == 0 {
                ctx.persist_barrier();
            } else {
                ctx.mem_barrier();
            }
        }
    });
    let cfg = AnalysisConfig::new(Model::Epoch);

    let mut reference: Option<String> = None;
    for workers in [1usize, 2, 8] {
        obsv::reset();
        run_profile(&trace, &cfg, 64, &SweepRunner::new(workers)).unwrap();
        let snap = obsv::snapshot();
        let json = snap.filter_prefix("profile.").to_json() + &snap.filter_prefix("engine.").to_json();
        match &reference {
            None => reference = Some(json),
            Some(r) => assert_eq!(&json, r, "snapshot diverged at {workers} workers"),
        }
    }
    // All 24 candidates: 12 memory barriers decided, 12 persist barriers
    // walked in two lane groups.
    let r = reference.unwrap();
    for want in [
        "\"profile.runs\": 1",
        "\"profile.barriers_scored\": 24",
        "\"profile.barriers_decided\": 12",
        "\"profile.lane_walks\": 2",
        "\"engine.runs\": 4",
    ] {
        assert!(r.contains(want), "missing {want}: {r}");
    }
}

#[test]
fn disabled_metrics_record_nothing_through_the_sweep() {
    let _g = OBSV_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    obsv::set_enabled(false);
    obsv::reset();
    let items: Vec<u64> = (0..32).collect();
    SweepRunner::new(4).run(&items, |i, inserts| record_cell(i, inserts));
    obsv::set_enabled(true); // snapshot() flushes; flag only gates recording
    let snap = obsv::snapshot().filter_prefix("bsw.");
    assert!(snap.counters.is_empty(), "disabled run recorded counters: {:?}", snap.counters);
    assert!(snap.histograms.is_empty());
}
