//! Merge-determinism: the deterministic snapshot sections must be
//! byte-identical however the recording work is sharded across threads,
//! mirroring the repo's `SweepRunner` determinism discipline.

use std::sync::Mutex;

/// Both tests reset the process-global registry, so they serialize.
static TEST_LOCK: Mutex<()> = Mutex::new(());

fn record_cell(i: usize) {
    // Deterministic per-item payload: what gets recorded depends only on
    // the item, never on the thread that claimed it.
    obsv::counter_add("det.cells", 1);
    obsv::counter_add("det.events", (i as u64 + 1) * 17);
    obsv::observe("det.cell_events", (i as u64 % 11) * 100);
    obsv::observe("det.critical_path", i as u64 * i as u64);
}

#[test]
fn snapshot_json_is_identical_for_1_2_8_workers() {
    let _g = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    obsv::set_enabled(true);
    const ITEMS: usize = 200;

    let mut reference: Option<String> = None;
    for workers in [1usize, 2, 8] {
        obsv::reset();
        // No flush in the closure: par_map's workers flush on their own.
        obsv::par_map(ITEMS, workers, record_cell);
        let json = obsv::snapshot().filter_prefix("det.").to_json();
        match &reference {
            None => reference = Some(json),
            Some(r) => assert_eq!(&json, r, "snapshot diverged at {workers} workers"),
        }
    }

    let r = reference.unwrap();
    assert!(r.contains("\"det.cells\": 200"));
    // Sum of (i+1)*17 for i in 0..200.
    assert!(r.contains(&format!("\"det.events\": {}", 17 * (200 * 201) / 2)));
}

#[test]
fn timings_are_excluded_from_deterministic_json() {
    let _g = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    obsv::set_enabled(true);
    obsv::reset();
    {
        let _s = obsv::span("det2.section");
        obsv::counter_add("det2.c", 1);
    }
    let snap = obsv::snapshot().filter_prefix("det2.");
    assert!(!snap.to_json().contains("timings"));
    assert!(snap.to_json_full().contains("\"det2.section\""));
    assert_eq!(snap.timings["det2.section"].count, 1);
}

#[test]
fn par_map_returns_results_in_input_order() {
    for workers in [1usize, 2, 8] {
        let out = obsv::par_map(200, workers, |i| {
            // Skew item costs so workers finish out of order.
            if i % 7 == 0 {
                std::thread::yield_now();
            }
            i * 3
        });
        assert_eq!(out, (0..200).map(|i| i * 3).collect::<Vec<_>>(), "{workers} workers");
        assert!(obsv::par_map(0, workers, |i| i).is_empty());
    }
}
