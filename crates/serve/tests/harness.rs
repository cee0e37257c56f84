//! End-to-end harness properties: worker-count determinism, the
//! per-model tail ordering the paper predicts, and admission accounting.

use persistency::Model;
use serve::harness::{render_json, render_table, run_model, run_models, Mode, ServeConfig};
use serve::StoreKind;

fn smoke() -> ServeConfig {
    ServeConfig {
        keys: 20_000,
        ops: 30_000,
        rate_ops_per_sec: 2_000_000.0,
        shards: 8,
        ..ServeConfig::new(StoreKind::Kv)
    }
}

#[test]
fn virtual_report_is_byte_identical_across_worker_counts() {
    let cfg = smoke();
    let mut renders = Vec::new();
    for workers in [1usize, 2, 8] {
        let reports = run_models(&cfg, &Model::ALL, Mode::Virtual, workers).unwrap();
        renders.push(render_json(&cfg, Mode::Virtual, &reports, "{}"));
    }
    assert_eq!(renders[0], renders[1], "1 vs 2 workers diverged");
    assert_eq!(renders[0], renders[2], "1 vs 8 workers diverged");
    assert!(renders[0].contains("\"schema\": \"psim_serve_v1\""));
}

#[test]
fn relaxed_models_beat_strict_on_tail_latency() {
    let cfg = smoke();
    let reports = run_models(&cfg, &Model::ALL, Mode::Virtual, 4).unwrap();
    let p99 = |m: Model| {
        reports
            .iter()
            .find(|r| r.model == m)
            .unwrap()
            .latency
            .quantile(0.99)
    };
    let strict = p99(Model::Strict);
    for m in [Model::Epoch, Model::Bpfs, Model::Strand] {
        assert!(
            p99(m) < strict,
            "{m} p99 {} should beat strict {strict}",
            p99(m)
        );
    }
    assert!(
        p99(Model::StrictRmo) <= strict,
        "strict-rmo can't be worse than strict"
    );
    // The relaxed models' persist stalls are buffered off the response
    // path entirely at this load.
    let strict_stall = reports
        .iter()
        .find(|r| r.model == Model::Strict)
        .unwrap()
        .stall
        .quantile(0.99);
    assert!(strict_stall > 0.0, "strict must pay persist stalls");
}

#[test]
fn admission_accounting_balances() {
    // Overdrive a single shard so shedding actually happens.
    let cfg = ServeConfig {
        shards: 1,
        keys: 5_000,
        ops: 20_000,
        rate_ops_per_sec: 50_000_000.0,
        qdepth: 8,
        ..ServeConfig::new(StoreKind::Kv)
    };
    let r = run_model(&cfg, Model::Strict, Mode::Virtual, 1).unwrap();
    assert_eq!(r.offered, cfg.ops, "every generated op reaches admission");
    assert_eq!(r.offered, r.completed + r.shed, "no op vanishes");
    assert!(r.shed > 0, "an overdriven strict shard must shed");
    assert_eq!(r.latency.count, r.completed, "one latency sample per completion");
    // A relaxed model under the same overload sheds less: its queue
    // drains at CPU speed instead of device speed.
    let relaxed = run_model(&cfg, Model::Strand, Mode::Virtual, 1).unwrap();
    assert!(
        relaxed.shed < r.shed,
        "strand shed {} should be below strict shed {}",
        relaxed.shed,
        r.shed
    );
}

#[test]
fn every_structure_validates_under_every_model() {
    for kind in [StoreKind::Kv, StoreKind::Queue, StoreKind::Txn] {
        let cfg = ServeConfig {
            keys: 2_000,
            ops: 4_000,
            rate_ops_per_sec: 1_000_000.0,
            shards: 4,
            ..ServeConfig::new(kind)
        };
        for model in Model::ALL {
            let r = run_model(&cfg, model, Mode::Virtual, 2)
                .unwrap_or_else(|e| panic!("{kind:?}/{model}: {e}"));
            assert_eq!(r.offered, cfg.ops);
            assert!(r.completed > 0);
            assert!(r.device.device_writes > 0, "{kind:?}/{model} persisted nothing");
        }
    }
}

#[test]
fn wall_mode_completes_and_accounts() {
    for batch in [1usize, 32] {
        let cfg = ServeConfig {
            keys: 2_000,
            ops: 5_000,
            rate_ops_per_sec: 1_000_000.0,
            shards: 4,
            batch,
            ..ServeConfig::new(StoreKind::Kv)
        };
        for model in Model::ALL {
            let r = run_model(&cfg, model, Mode::Wall, 2)
                .unwrap_or_else(|e| panic!("{model} batch {batch}: {e}"));
            let at = format!("{model} batch {batch}");
            assert_eq!(r.offered, cfg.ops, "{at}: every op reaches admission");
            assert_eq!(r.offered, r.completed + r.shed, "{at}: no op vanishes");
            assert!(r.batches_full <= r.batches, "{at}: {} full of {}", r.batches_full, r.batches);
            assert!(r.batches <= r.completed, "{at}: {} batches for {}", r.batches, r.completed);
            if r.completed > 0 {
                assert!(r.mean_batch_fill() >= 1.0, "{at}: fill {}", r.mean_batch_fill());
            }
            assert!(r.wall_seconds.unwrap() > 0.0, "{at}");
            assert!(r.throughput() > 0.0, "{at}");
        }
    }
}

#[test]
fn zero_shards_is_an_error_in_both_modes() {
    let cfg = ServeConfig { shards: 0, keys: 1_000, ops: 500, ..ServeConfig::new(StoreKind::Kv) };
    for mode in [Mode::Virtual, Mode::Wall] {
        let err = run_model(&cfg, Model::Epoch, mode, 2)
            .expect_err("a run over zero shards must be refused");
        assert!(err.contains("shards"), "{mode:?}: error should name shards: {err}");
    }
}

#[test]
fn renders_cover_every_model() {
    let cfg = ServeConfig {
        keys: 1_000,
        ops: 2_000,
        rate_ops_per_sec: 1_000_000.0,
        shards: 2,
        ..ServeConfig::new(StoreKind::Kv)
    };
    let reports = run_models(&cfg, &Model::ALL, Mode::Virtual, 2).unwrap();
    let table = render_table(&cfg, Mode::Virtual, &reports);
    let json = render_json(&cfg, Mode::Virtual, &reports, "{\"host\": \"test\"}");
    for m in Model::ALL {
        assert!(table.contains(&m.to_string()), "table missing {m}");
        assert!(json.contains(&format!("\"model\": \"{m}\"")), "json missing {m}");
    }
    assert!(json.contains("\"meta\": {\"host\": \"test\"}"));
    // Device accounting distinguishes the models: epoch coalesces hot-key
    // stores that strict writes through one at a time.
    let strict = reports.iter().find(|r| r.model == Model::Strict).unwrap();
    let epoch = reports.iter().find(|r| r.model == Model::Epoch).unwrap();
    assert_eq!(strict.device.absorbed(), 0, "strict absorbs nothing");
    assert!(epoch.device.absorbed() > 0, "epoch must coalesce");
}
