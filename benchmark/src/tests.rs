//! Tier-1 checks of the benchmark itself, on tiny inputs.

use crate::golden::Golden;
use crate::json::{self, Value};
use crate::metrics::{self, END_TO_END};
use crate::run::{run, Opts, Outcome};
use crate::workloads::{Scale, NAMES};
use std::path::PathBuf;
use std::sync::OnceLock;

const DECLARED: &str = include_str!("../../BENCHMARK.json");
const SEED: u64 = 3;

/// Scratch space next to the test executable, inside the build directory.
fn workdir() -> PathBuf {
    let exe = std::env::current_exe().expect("test executable path");
    exe.parent()
        .expect("executable has a directory")
        .join("mpbench-test-work")
}

fn tiny(workload: &str, trace: bool, golden: &Golden) -> Outcome {
    let opts = Opts {
        workload: workload.to_string(),
        seed: SEED,
        seconds: 0.0,
        trace,
    };
    run(&opts, Scale::tiny(), &workdir(), golden).unwrap_or_else(|e| panic!("{workload}: {e}"))
}

/// One untraced and one traced tiny run of every workload, shared by the
/// tests below.
fn runs() -> &'static [(&'static str, bool, Outcome)] {
    static RUNS: OnceLock<Vec<(&'static str, bool, Outcome)>> = OnceLock::new();
    RUNS.get_or_init(|| {
        NAMES
            .iter()
            .flat_map(|&w| [false, true].map(|t| (w, t, tiny(w, t, &Golden::default()))))
            .collect()
    })
}

fn declared() -> Value {
    json::parse(DECLARED).expect("BENCHMARK.json parses")
}

fn names_of(v: &Value, section: &str) -> Vec<(String, String)> {
    v.get(section)
        .expect("section present")
        .as_array()
        .iter()
        .map(|m| {
            let name = m
                .get("name")
                .and_then(Value::as_str)
                .expect("name")
                .to_string();
            let unit = m
                .get("unit")
                .and_then(Value::as_str)
                .unwrap_or("")
                .to_string();
            (name, unit)
        })
        .collect()
}

fn valid_name(s: &str) -> bool {
    !s.is_empty()
        && s.len() <= 64
        && s.bytes()
            .all(|b| b.is_ascii_alphanumeric() || b"_.-".contains(&b))
}

#[test]
fn every_emitted_name_is_valid() {
    for (w, _, out) in runs() {
        assert!(valid_name(w), "{w}");
        for m in out.metrics.iter().chain(&out.detail) {
            assert!(valid_name(&m.name), "{w}: {}", m.name);
        }
        for k in out.semantic.keys() {
            assert!(valid_name(k), "{w}: {k}");
        }
    }
}

#[test]
fn benchmark_json_declares_exactly_what_runs_emit() {
    let v = declared();
    let workloads: Vec<String> = names_of(&v, "workloads")
        .into_iter()
        .map(|(n, _)| n)
        .collect();
    assert_eq!(workloads, NAMES);
    let e2e = names_of(&v, "end_to_end");
    let want: Vec<(String, String)> = END_TO_END
        .iter()
        .map(|(n, u)| (n.to_string(), u.to_string()))
        .collect();
    assert_eq!(e2e, want);
    let layers = names_of(&v, "per_layer");
    let want: Vec<(String, String)> = metrics::per_layer_names()
        .into_iter()
        .map(|(n, u)| (n, u.to_string()))
        .collect();
    assert_eq!(layers, want);
    for (w, trace, out) in runs() {
        let emitted: Vec<(String, String)> = out
            .metrics
            .iter()
            .map(|m| (m.name.clone(), m.unit.to_string()))
            .collect();
        let expect = if *trace { &layers } else { &e2e };
        assert_eq!(&emitted, expect, "{w} trace={trace}");
        for m in &out.metrics {
            assert!(m.value.is_finite(), "{w}: {} = {}", m.name, m.value);
        }
    }
}

#[test]
fn tiny_runs_pass_their_invariants() {
    for (w, trace, out) in runs() {
        assert!(out.correct(), "{w} trace={trace}: {:?}", out.errors);
        assert!(out.attempted > 0, "{w}");
        if !trace {
            for m in &out.metrics {
                assert!(m.value > 0.0, "{w}: {} must be positive", m.name);
            }
        }
    }
}

#[test]
fn traced_layers_and_unattributed_sum_to_the_traced_time() {
    for (w, _, out) in runs().iter().filter(|(_, t, _)| *t) {
        let shares: f64 = out
            .metrics
            .iter()
            .filter(|m| m.name.ends_with(".pct"))
            .map(|m| m.value)
            .sum();
        assert!((shares - 100.0).abs() < 1e-6, "{w}: shares sum to {shares}");
        let table = out.table.as_deref().expect("traced runs print a table");
        assert!(table.contains("bench.unattributed"), "{w}");
        assert!(
            out.metrics
                .iter()
                .any(|m| m.name == "bench.trace_overhead" && m.value > 0.0),
            "{w}"
        );
    }
}

#[test]
fn a_changed_golden_value_fails_the_operations() {
    let first = runs()
        .iter()
        .find(|(w, t, _)| *w == "analyze-queue" && !t)
        .map(|(_, _, o)| o)
        .unwrap();
    let mut golden = Golden::default();
    golden.set("analyze-queue", SEED, first.semantic.clone());
    let good = tiny("analyze-queue", false, &golden);
    assert!(good.correct() && good.has_golden, "{:?}", good.errors);
    let entry = golden.entry_mut("analyze-queue", SEED).unwrap();
    *entry.get_mut("epoch.critical_path").unwrap() += 1;
    let bad = tiny("analyze-queue", false, &golden);
    assert!(!bad.correct());
    assert_eq!(bad.failed, bad.attempted);
    assert!(
        bad.errors.iter().any(|e| e.contains("epoch.critical_path")),
        "{:?}",
        bad.errors
    );
}

#[test]
fn every_timing_layer_is_declared() {
    for (i, m) in persistency::Model::ALL.iter().enumerate() {
        assert_eq!(
            crate::workloads::TIMING_LAYERS[i],
            format!("core.timing.{}", m.name())
        );
        assert!(metrics::LAYERS.contains(&crate::workloads::TIMING_LAYERS[i]));
    }
}
