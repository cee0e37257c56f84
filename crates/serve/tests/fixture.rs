//! Pins the virtual-time report to checked-in bytes.
//!
//! The worker-count tests only prove that every sharding of the run
//! agrees with every other; a change applied to every shard alike (say,
//! to how a shard learns its arrivals) passes them unnoticed. These
//! fixtures are `psim serve --smoke --json --series-ns N` output with the
//! meta line removed, so the same files are what CI diffs the binary
//! against:
//!
//! ```text
//! psim serve --smoke --structure kv --shards 8 --keys 20000 --ops 20000 \
//!     --rate 2000000 --seed 42 --batch 1 --series-ns 1000000 --json
//! psim serve --smoke --structure kv --shards 8 --keys 20000 --ops 20000 \
//!     --rate 8000000 --seed 42 --batch 32 --series-ns 200000 --json
//! ```
//!
//! The series layer is process-global, so this file is its own test
//! binary and runs both fixtures from one test.

use obsv::series;
use persistency::Model;
use serve::harness::{render_json, run_models, Mode, ServeConfig};
use serve::StoreKind;

/// The report `psim serve --smoke --json --series-ns window_ns` prints
/// for `cfg`, minus its meta line.
fn smoke_report(cfg: &ServeConfig, window_ns: u64, workers: usize) -> String {
    obsv::set_enabled(true);
    series::set_window_ns(window_ns);
    obsv::reset();
    let reports = run_models(cfg, &Model::ALL, Mode::Virtual, workers).unwrap();
    let json = render_json(cfg, Mode::Virtual, &reports, "{}");
    let block = series::snapshot().filter_prefix("serve.").to_json("  ");
    let pos = json.rfind('}').expect("report closes");
    let spliced = format!("{},\n  \"series\": {block}\n{}", json[..pos].trim_end(), &json[pos..]);
    spliced.lines().filter(|l| !l.starts_with("  \"meta\"")).map(|l| format!("{l}\n")).collect()
}

fn config(rate: f64, batch: usize) -> ServeConfig {
    ServeConfig {
        shards: 8,
        keys: 20_000,
        ops: 20_000,
        rate_ops_per_sec: rate,
        batch,
        seed: 42,
        ..ServeConfig::new(StoreKind::Kv)
    }
}

#[test]
fn virtual_reports_match_checked_in_fixtures() {
    let cases = [
        (config(2e6, 1), 1_000_000, include_str!("fixtures/serve_smoke_b1.json")),
        (config(8e6, 32), 200_000, include_str!("fixtures/serve_smoke_b32.json")),
    ];
    for (cfg, window_ns, fixture) in cases {
        for workers in [1, 3] {
            let got = smoke_report(&cfg, window_ns, workers);
            assert!(
                got == fixture,
                "batch {} on {workers} workers drifted from its fixture:\n{got}",
                cfg.batch
            );
        }
    }
}
