//! The two serve workloads: `serve-virtual` (the deterministic
//! virtual-time simulation) and `serve-wall` (the `psim serve` default,
//! real threads paced on the wall clock).
//!
//! Both serve a Zipfian (θ 0.99) key-value mix, half gets, over 8 shards
//! of the persistent kv table, open loop: requests arrive on a seeded
//! Poisson schedule whatever the service does. In virtual time every shard
//! regenerates the whole arrival stream, so generation dominates; in wall
//! mode the stream is generated once per worker and pacing and spinning
//! dominate instead. The traced decomposition calls the generator, the
//! shard (structure plus device model, which cannot be separated from
//! outside) and shard validation directly; admission, batching and
//! latency accounting live inside `run_model` and are what remains.

use super::{median, pct, Headline, Rep, Scale, Timed, TracedRun, Workload};
use crate::golden::Semantic;
use crate::metrics::Metric;
use crate::spans::Recorder;
use obsv::hist::Histogram;
use obsv::runmeta::RunMeta;
use persistency::Model;
use serve::harness::{render_json, run_model, Mode, ModelReport, ServeConfig};
use serve::{shard_of, Op, OpStream, Shard, StoreKind, Zipfian};

const SHARDS: usize = 8;
const WORKERS: usize = 2;

/// serve-virtual load points: (batch, offered requests/s). Unbatched at
/// 2M/s; batched at 8M/s, where the strict models are overloaded and shed;
/// batched at 20M/s, near the buffered models' knee.
const POINTS: [(usize, f64); 3] = [(1, 2e6), (32, 8e6), (32, 20e6)];

/// serve-wall phase A rate (latency; `psim serve`'s default, well below
/// the strict models' capacity so latency is not dominated by queueing
/// whenever the host slows) and phase B offered rate (capacity).
const WALL_RATE_A: f64 = 5e5;
const WALL_RATE_B: f64 = 50e6;

fn config(seed: u64, keys: u64, ops: u64, batch: usize, rate: f64) -> ServeConfig {
    ServeConfig {
        shards: SHARDS,
        keys,
        ops,
        batch,
        rate_ops_per_sec: rate,
        seed,
        ..ServeConfig::new(StoreKind::Kv)
    }
}

/// Set-up of both serve workloads: one unbatched virtual-time run on one
/// worker, so the allocator and page state are settled before the timed
/// phase. Virtual time and one worker keep its cost independent of pacing
/// and scheduling.
fn warm_up(seed: u64, keys: u64, ops: u64, rec: &mut Recorder) -> Result<Semantic, String> {
    let (batch, rate) = POINTS[0];
    let cfg = config(seed, keys, ops, batch, rate);
    rec.span("serve.warmup", || {
        run_model(&cfg, Model::Strict, Mode::Virtual, 1)
    })?;
    Ok(Semantic::new())
}

/// Invariants every serve run must keep, whatever the seed.
fn check_report(cfg: &ServeConfig, r: &ModelReport) -> Vec<String> {
    let mut v = Vec::new();
    if r.offered != r.completed + r.shed {
        v.push(format!(
            "{}: offered {} != completed {} + shed {}",
            r.model, r.offered, r.completed, r.shed
        ));
    }
    if r.offered != cfg.ops {
        v.push(format!(
            "{}: offered {} of {} generated requests",
            r.model, r.offered, cfg.ops
        ));
    }
    v
}

/// Generation, shard execution and validation of `shards` (those with
/// `owner(shard)`), called layer by layer. Each entry of `streams` drains
/// the whole arrival stream once and keeps its share, as the harness does
/// (once per shard in virtual time, once per worker in wall mode).
/// Returns (requests generated, requests kept, violations).
fn decomposed(
    cfg: &ServeConfig,
    model: Model,
    streams: usize,
    owner: impl Fn(usize) -> usize,
    rec: &mut Recorder,
) -> (u64, u64, Vec<String>) {
    let zipf = rec.span("serve.gen", || Zipfian::new(cfg.keys, cfg.theta));
    let keys_per_shard = (cfg.keys / SHARDS as u64).max(1);
    let puts_per_shard = ((cfg.ops as f64 * (1.0 - cfg.get_ratio)) as u64 / SHARDS as u64).max(1);
    let (mut generated, mut kept) = (0u64, 0u64);
    let mut violations = Vec::new();
    for stream in 0..streams {
        let ops: Vec<Op> = rec.span("serve.gen", || {
            OpStream::new(
                &zipf,
                cfg.seed,
                cfg.rate_ops_per_sec,
                cfg.get_ratio,
                cfg.ops,
            )
            .filter(|op| owner(shard_of(op.key, SHARDS)) == stream)
            .collect()
        });
        generated += cfg.ops;
        kept += ops.len() as u64;
        let shards = rec.span("serve.shard", || {
            let mut shards: Vec<(usize, Shard)> = (0..SHARDS)
                .filter(|&s| owner(s) == stream)
                .map(|s| {
                    (
                        s,
                        Shard::new(
                            cfg.kind,
                            model,
                            cfg.device(),
                            keys_per_shard,
                            puts_per_shard,
                        ),
                    )
                })
                .collect();
            for op in &ops {
                let s = shard_of(op.key, SHARDS);
                let shard = &mut shards
                    .iter_mut()
                    .find(|(id, _)| *id == s)
                    .expect("owned shard")
                    .1;
                let t = op.at_ns as f64;
                shard.dev.begin_op(t);
                shard.execute(op);
                shard.dev.end_op(t + cfg.cpu_ns);
            }
            shards
        });
        for (s, shard) in &shards {
            if let Err(e) = rec.span("serve.validate", || shard.validate()) {
                violations.push(format!("shard {s} failed validation under {model}: {e}"));
            }
        }
        rec.span("serve.shard", move || drop(shards));
    }
    if kept != cfg.ops {
        violations.push(format!("shards received {kept} of {} requests", cfg.ops));
    }
    (generated, kept, violations)
}

pub struct ServeVirtual {
    seed: u64,
    keys: u64,
    ops: u64,
    meta: String,
    /// Last report of each cycle slot (the traced run renders it).
    reports: Vec<Option<ModelReport>>,
    generated: u64,
    offered: u64,
}

impl ServeVirtual {
    pub fn new(seed: u64, scale: Scale) -> Self {
        ServeVirtual {
            seed,
            keys: scale.serve_keys,
            ops: scale.serve_ops,
            meta: RunMeta::collect(WORKERS, WORKERS).to_json_object(),
            reports: vec![None; POINTS.len() * Model::ALL.len()],
            generated: 0,
            offered: 0,
        }
    }

    /// Load point and model of cycle slot `index`.
    fn slot(&self, index: usize) -> (usize, ServeConfig, Model) {
        let p = index / Model::ALL.len() % POINTS.len();
        let (batch, rate) = POINTS[p];
        (
            p,
            config(self.seed, self.keys, self.ops, batch, rate),
            Model::ALL[index % Model::ALL.len()],
        )
    }
}

impl Workload for ServeVirtual {
    fn cycle(&self) -> usize {
        POINTS.len() * Model::ALL.len()
    }

    fn setup(&mut self, rec: &mut Recorder) -> Result<Semantic, String> {
        warm_up(self.seed, self.keys, self.ops, rec)
    }

    fn rep(&mut self, index: usize, workers: usize) -> Result<Rep, String> {
        let (p, cfg, model) = self.slot(index);
        let r = match run_model(&cfg, model, Mode::Virtual, workers) {
            Ok(r) => r,
            Err(e) => {
                return Ok(Rep {
                    work: cfg.ops as f64,
                    ops: cfg.ops,
                    violations: vec![e],
                    ..Rep::default()
                })
            }
        };
        std::hint::black_box(render_json(
            &cfg,
            Mode::Virtual,
            std::slice::from_ref(&r),
            &self.meta,
        ));
        let key = |k: &str| format!("p{p}.{model}.{k}");
        let semantic = Semantic::from([
            (key("offered"), r.offered),
            (key("completed"), r.completed),
            (key("shed"), r.shed),
            (key("p50_ns"), r.latency.quantile(0.50).round() as u64),
            (key("p99_ns"), r.latency.quantile(0.99).round() as u64),
            (key("p999_ns"), r.latency.quantile(0.999).round() as u64),
            (key("absorbed"), r.device.absorbed()),
            (key("batches"), r.batches),
        ]);
        let rep = Rep {
            work: r.offered as f64,
            ops: r.offered,
            semantic,
            violations: check_report(&cfg, &r),
        };
        let slots = self.reports.len();
        self.reports[index % slots] = Some(r);
        Ok(rep)
    }

    fn traced_rep(&mut self, index: usize, rec: &mut Recorder) -> Result<Rep, String> {
        let (_, cfg, model) = self.slot(index);
        let (generated, kept, violations) = decomposed(&cfg, model, SHARDS, |s| s, rec);
        self.generated += generated;
        self.offered += cfg.ops;
        if let Some(r) = &self.reports[index % self.reports.len()] {
            std::hint::black_box(rec.span("report.render", || {
                render_json(&cfg, Mode::Virtual, std::slice::from_ref(r), &self.meta)
            }));
        }
        Ok(Rep {
            work: kept as f64,
            ops: kept,
            violations,
            ..Rep::default()
        })
    }

    fn reference_workers(&self) -> &'static [usize] {
        &[1, 2]
    }

    fn layer_metrics(&self, run: &TracedRun<'_>) -> Vec<(&'static str, f64)> {
        let harness = run.reference_mean(1);
        vec![
            (
                "serve.gen.amplification",
                self.generated as f64 / self.offered as f64,
            ),
            (
                "serve.harness.overhead_pct",
                pct(
                    harness - run.per_rep(&["serve.gen", "serve.shard", "serve.validate"]),
                    harness,
                ),
            ),
            ("serve.parallel.speedup_w2", harness / run.reference_mean(2)),
        ]
    }
}

/// Latency, admission-wait and persist-stall histograms of one model.
#[derive(Default)]
struct WallHists {
    latency: Histogram,
    queue_wait: Histogram,
    stall: Histogram,
}

impl WallHists {
    fn add(&mut self, r: &ModelReport) {
        self.latency.merge(&r.latency);
        self.queue_wait.merge(&r.queue_wait);
        self.stall.merge(&r.stall);
    }
}

/// Phase-A models, in slot order.
const WALL_MODELS: [Model; 2] = [Model::Strict, Model::Epoch];

pub struct ServeWall {
    seed: u64,
    keys: u64,
    ops_a: u64,
    ops_b: u64,
    ops_warm: u64,
    meta: String,
    /// Phase-A histograms of the timed and of the traced repetitions.
    timed: [WallHists; 2],
    traced: [WallHists; 2],
    generated: u64,
    offered: u64,
}

impl ServeWall {
    pub fn new(seed: u64, scale: Scale) -> Self {
        ServeWall {
            seed,
            keys: scale.serve_keys,
            ops_a: scale.wall_ops_a,
            ops_b: scale.wall_ops_b,
            ops_warm: scale.serve_ops,
            meta: RunMeta::collect(WORKERS, WORKERS).to_json_object(),
            timed: Default::default(),
            traced: Default::default(),
            generated: 0,
            offered: 0,
        }
    }

    /// Slots 0 and 1: phase A (latency at 500k/s) under strict and epoch;
    /// slot 2: phase B (epoch offered 50M/s, i.e. as fast as it goes).
    fn slot(&self, index: usize) -> (ServeConfig, Model) {
        match index % 3 {
            s @ (0 | 1) => (
                config(self.seed, self.keys, self.ops_a, 1, WALL_RATE_A),
                WALL_MODELS[s],
            ),
            _ => (
                config(self.seed, self.keys, self.ops_b, 1, WALL_RATE_B),
                Model::Epoch,
            ),
        }
    }
}

impl Workload for ServeWall {
    fn cycle(&self) -> usize {
        3
    }

    fn setup(&mut self, rec: &mut Recorder) -> Result<Semantic, String> {
        warm_up(self.seed, self.keys, self.ops_warm, rec)
    }

    fn rep(&mut self, index: usize, workers: usize) -> Result<Rep, String> {
        let (cfg, model) = self.slot(index);
        let r = match run_model(&cfg, model, Mode::Wall, workers) {
            Ok(r) => r,
            Err(e) => {
                return Ok(Rep {
                    ops: cfg.ops,
                    violations: vec![e],
                    ..Rep::default()
                })
            }
        };
        std::hint::black_box(render_json(
            &cfg,
            Mode::Wall,
            std::slice::from_ref(&r),
            &self.meta,
        ));
        if index % 3 < 2 {
            self.timed[index % 3].add(&r);
        }
        // Shed requests are admission doing its job, not failures; only
        // completed requests count as phase-B capacity.
        Ok(Rep {
            work: r.completed as f64,
            ops: r.offered,
            violations: check_report(&cfg, &r),
            ..Rep::default()
        })
    }

    fn traced_rep(&mut self, index: usize, rec: &mut Recorder) -> Result<Rep, String> {
        let (cfg, model) = self.slot(index);
        let r = rec.span("serve.wall.paced", || {
            run_model(&cfg, model, Mode::Wall, WORKERS)
        })?;
        std::hint::black_box(rec.span("report.render", || {
            render_json(&cfg, Mode::Wall, std::slice::from_ref(&r), &self.meta)
        }));
        let mut violations = check_report(&cfg, &r);
        if index % 3 < 2 {
            self.traced[index % 3].add(&r);
        } else {
            // What the two workers compute, without the pacing: each
            // generates the whole stream and executes its own shards.
            let (generated, _, v) = decomposed(&cfg, model, WORKERS, |s| s % WORKERS, rec);
            self.generated += generated;
            self.offered += cfg.ops;
            violations.extend(v);
        }
        Ok(Rep {
            work: r.completed as f64,
            ops: r.offered,
            violations,
            ..Rep::default()
        })
    }

    fn reference_workers(&self) -> &'static [usize] {
        &[WORKERS]
    }

    fn headline(&self, reps: &[Timed]) -> Headline {
        let b: Vec<&Timed> = reps.iter().filter(|t| t.index % 3 == 2).collect();
        let p50 = |h: &Histogram| h.quantile(0.50);
        let [strict, epoch] = &self.timed;
        let mut detail = Vec::new();
        for (m, h) in WALL_MODELS.iter().zip(&self.timed) {
            detail.extend([
                Metric::new(&format!("wall_p50_ns.{m}"), p50(&h.latency), "ns"),
                Metric::new(
                    &format!("serve.wall.p99_ns.{m}"),
                    h.latency.quantile(0.99),
                    "ns",
                ),
                Metric::new(
                    &format!("wall_samples.{m}"),
                    h.latency.count as f64,
                    "count",
                ),
            ]);
        }
        let b_secs: Vec<f64> = b.iter().map(|t| t.secs).collect();
        detail.push(Metric::new("phase_b_rep_p50_s", median(&b_secs), "s"));
        Headline {
            throughput_per_s: b.iter().map(|t| t.rep.work).sum::<f64>()
                / b_secs.iter().sum::<f64>(),
            // Geometric mean of the two models' medians: neither model's
            // latency dominates, and a change to either moves it.
            latency_p50_ms: (p50(&strict.latency) * p50(&epoch.latency)).sqrt() / 1e6,
            latency_samples: strict.latency.count + epoch.latency.count,
            detail,
        }
    }

    fn layer_metrics(&self, _run: &TracedRun<'_>) -> Vec<(&'static str, f64)> {
        let share =
            |h: &WallHists, part: &Histogram| pct(part.quantile(0.5), h.latency.quantile(0.5));
        let [strict, epoch] = &self.traced;
        vec![
            (
                "serve.gen.amplification",
                self.generated as f64 / self.offered as f64,
            ),
            (
                "serve.wall.queue_wait_share.strict",
                share(strict, &strict.queue_wait),
            ),
            (
                "serve.wall.queue_wait_share.epoch",
                share(epoch, &epoch.queue_wait),
            ),
            (
                "serve.wall.stall_share.strict",
                share(strict, &strict.stall),
            ),
            ("serve.wall.stall_share.epoch", share(epoch, &epoch.stall)),
        ]
    }
}
