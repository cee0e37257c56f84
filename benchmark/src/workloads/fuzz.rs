//! `fuzz-matrix`: the `psim crash-fuzz` path over the four stock
//! structures and all five models (torn persists and multi-crash on).
//!
//! All the time goes to the injector: draw a model-legal crash state,
//! delta-replay it, run the structure's recovery, check it, and for the
//! undo log's write-ful recoveries crash once more inside recovery. No
//! trace file and no serve code are involved. Draws dominate the txn cells
//! and matter little in the cwl and kv cells, so the matrix holds both
//! sides of a draw optimization.

use super::{Rep, Scale, TracedRun, Workload};
use crate::golden::Semantic;
use crate::spans::Recorder;
use bench::SweepRunner;
use mem_trace::rng::SmallRng;
use persist_mem::{AtomicPersistSize, MemoryImage};
use persistency::Model;
use pfi::fuzz::{
    run_cell, shard_ranges, CellPlan, CellReport, FuzzCell, FuzzConfig, ShardReport, Structure,
};
use pfi::{FragmentSet, FuzzTarget, Recording, Replayer, ShadowEvent, ShadowPmem};
use pstruct::txn::RecoveryStep;
use std::time::Instant;

/// Per-structure injection-rate metrics, in [`Structure::STOCK`] order.
const RATE_METRICS: [&str; 4] = [
    "pfi.injections_per_s.cwl",
    "pfi.injections_per_s.2lc",
    "pfi.injections_per_s.kv",
    "pfi.injections_per_s.txn",
];

/// Injection layers timed inside the traced loop, in accumulator order.
const INJECTION_LAYERS: [&str; 5] = [
    "pfi.draw",
    "pfi.replay",
    "pfi.recover",
    "pfi.check",
    "pfi.multi_crash",
];

/// A cell recorded outside `CellPlan`, whose fields are private, so the
/// traced loop can call each injection layer itself.
struct Recorded {
    target: Box<dyn FuzzTarget>,
    rec: Recording,
    frags: FragmentSet,
}

pub struct FuzzMatrix {
    cfg: FuzzConfig,
    cells: Vec<FuzzCell>,
    plans: Vec<CellPlan>,
    recorded: Vec<Recorded>,
    /// Reference (one-worker) time and injections per stock structure.
    struct_secs: [f64; 4],
    struct_injections: [u64; 4],
    /// Multi-crash legs and injections of the traced repetitions.
    legs: u64,
    traced_injections: u64,
}

impl FuzzMatrix {
    pub fn new(seed: u64, scale: Scale) -> Self {
        let cells = Structure::STOCK
            .iter()
            .flat_map(|&structure| {
                Model::ALL
                    .iter()
                    .map(move |&model| FuzzCell { structure, model })
            })
            .collect();
        FuzzMatrix {
            cfg: FuzzConfig {
                ops: scale.fuzz_ops,
                injections: scale.fuzz_injections,
                seed,
                multi_crash: true,
                torn: true,
            },
            cells,
            plans: Vec::new(),
            recorded: Vec::new(),
            struct_secs: [0.0; 4],
            struct_injections: [0; 4],
            legs: 0,
            traced_injections: 0,
        }
    }

    fn outputs(&self, reports: &[CellReport]) -> Rep {
        let mut sem = Semantic::new();
        let mut violations = Vec::new();
        for r in reports {
            let cell = format!("{}.{}", r.structure, r.model);
            sem.insert(format!("{cell}.events"), r.events as u64);
            sem.insert(format!("{cell}.recovery_crashes"), r.recovery_crashes);
            sem.insert(format!("{cell}.failures"), r.failures);
            if let Some(f) = &r.first_failure {
                violations.push(format!("stock cell {cell} failed: {}", f.message));
            }
        }
        std::hint::black_box(pfi::report::render(&self.cfg, reports));
        let injections = self.cfg.injections * reports.len() as u64;
        Rep {
            work: injections as f64,
            ops: injections,
            semantic: sem,
            violations,
        }
    }

    /// Runs one cell's injections layer by layer, reproducing
    /// `CellPlan::run_shard` draw for draw. Returns the cell's tallies and
    /// its first failure, if any.
    fn traced_cell(&mut self, k: usize, rec: &mut Recorder) -> (CellReport, Option<String>) {
        let cell = self.cells[k];
        let Recorded {
            target,
            rec: recording,
            frags,
        } = &self.recorded[k];
        let (model, cfg) = (cell.model, self.cfg);
        let t_cell = Instant::now();
        let mut replayer = Replayer::new(frags, recording, model);
        rec.record("pfi.record", t_cell, Instant::now());
        let points = recording.events.len() as u64 + 1;
        let seed = cell_seed(cfg.seed, cell);
        let mut scratch = MemoryImage::new();
        let mut leg_events: Vec<ShadowEvent> = Vec::new();
        let mut leg_image = MemoryImage::new();
        let mut acc = [0f64; 5];
        let (mut legs, mut failures) = (0u64, 0u64);
        let mut first_failure = None;
        for i in 0..cfg.injections {
            let mut rng = SmallRng::seed_from_u64(injection_seed(seed, i));
            let point = if i % 2 == 0 {
                ((i / 2) % points) as usize
            } else {
                rng.gen_below(points) as usize
            };
            let t0 = Instant::now();
            let case = frags.draw(model, point, &mut rng, cfg.torn);
            let t1 = Instant::now();
            replayer.load(&case);
            let t2 = Instant::now();
            let script = match target.recovery_script(replayer.image()) {
                Ok(s) => s,
                Err(e) => {
                    replayer.reset();
                    acc[2] += t2.elapsed().as_secs_f64();
                    failures += 1;
                    first_failure.get_or_insert(format!("recovery rejected the image: {e}"));
                    continue;
                }
            };
            let leg = cfg.multi_crash && script_mutates(replayer.image(), &script);
            if leg {
                scratch.clone_from(replayer.image());
            }
            let (completed, begun) = replayer.ops_at(case.point);
            replayer.apply_recovery(&script);
            let t3 = Instant::now();
            let checked = target.check(replayer.image(), completed, begun);
            let t4 = Instant::now();
            replayer.reset();
            let t5 = Instant::now();
            if let Err(e) = checked {
                failures += 1;
                first_failure.get_or_insert(e);
            } else if leg {
                legs += 1;
                recovery_events(&script, &mut leg_events);
                let frags2 = FragmentSet::from_events(&leg_events, AtomicPersistSize::default());
                let p2 = rng.gen_below(leg_events.len() as u64 + 1) as usize;
                let case2 = frags2.draw(model, p2, &mut rng, cfg.torn);
                frags2.materialize_into(&mut leg_image, &scratch, model, &case2);
                let second = target.recovery_script(&leg_image).and_then(|script2| {
                    for step in &script2 {
                        if let RecoveryStep::Write { addr, value } = step {
                            leg_image
                                .write_u64(*addr, *value)
                                .map_err(|e| e.to_string())?;
                        }
                    }
                    target.check(&leg_image, completed, begun)
                });
                if let Err(e) = second {
                    failures += 1;
                    first_failure.get_or_insert(e);
                }
            }
            let t6 = Instant::now();
            acc[0] += (t1 - t0).as_secs_f64();
            acc[1] += (t2 - t1).as_secs_f64() + (t5 - t4).as_secs_f64();
            acc[2] += (t3 - t2).as_secs_f64();
            acc[3] += (t4 - t3).as_secs_f64();
            acc[4] += (t6 - t5).as_secs_f64();
        }
        for (layer, secs) in INJECTION_LAYERS.iter().zip(acc) {
            rec.add_busy(layer, secs, cfg.injections);
        }
        let args = INJECTION_LAYERS
            .iter()
            .zip(acc)
            .map(|(l, s)| (format!("{l}_ms"), format!("{:.3}", s * 1e3)))
            .collect();
        rec.group(
            format!("{}/{}", cell.structure.name(), model.name()),
            t_cell,
            Instant::now(),
            args,
        );
        let events = recording.events.len();
        self.legs += legs;
        self.traced_injections += cfg.injections;
        let report = CellReport {
            structure: cell.structure.name(),
            model: model.name(),
            events,
            injections: cfg.injections,
            recovery_crashes: legs,
            failures,
            first_failure: None,
        };
        let failure = first_failure.map(|m| {
            format!(
                "stock cell {}.{} failed: {m}",
                report.structure, report.model
            )
        });
        (report, failure)
    }
}

impl Workload for FuzzMatrix {
    fn setup(&mut self, rec: &mut Recorder) -> Result<Semantic, String> {
        let cfg = self.cfg;
        self.plans = self
            .cells
            .iter()
            .map(|&c| rec.span("pfi.record", || CellPlan::new(&cfg, c)))
            .collect();
        if rec.is_on() {
            self.recorded = self
                .cells
                .iter()
                .map(|c| {
                    rec.span("pfi.record", || {
                        let target = c.structure.target();
                        let mut shadow = ShadowPmem::new();
                        target.run(&mut shadow, cfg.ops);
                        let recording = shadow.into_recording();
                        let frags = FragmentSet::build(&recording, AtomicPersistSize::default());
                        Recorded {
                            target,
                            rec: recording,
                            frags,
                        }
                    })
                })
                .collect();
        }
        Ok(Semantic::new())
    }

    fn rep(&mut self, _index: usize, workers: usize) -> Result<Rep, String> {
        let n = self.cfg.injections;
        let reports: Vec<CellReport> = if workers == 1 {
            // Cell by cell, so each structure's injection rate is known.
            let mut out = Vec::with_capacity(self.plans.len());
            for plan in &self.plans {
                let t0 = Instant::now();
                out.push(plan.merge(&[plan.run_shard(0, n)]));
                let s = Structure::STOCK
                    .iter()
                    .position(|&s| s == plan.cell().structure)
                    .expect("stock structure");
                self.struct_secs[s] += t0.elapsed().as_secs_f64();
                self.struct_injections[s] += n;
            }
            out
        } else {
            // `psim crash-fuzz`: every cell split into one shard per worker,
            // all shards fanned out together, merged per cell.
            let items: Vec<(usize, u64, u64)> = (0..self.plans.len())
                .flat_map(|ci| {
                    shard_ranges(n, workers as u64)
                        .into_iter()
                        .map(move |(lo, hi)| (ci, lo, hi))
                })
                .collect();
            let plans = &self.plans;
            let shards = SweepRunner::new(workers)
                .run(&items, |_, &(ci, lo, hi)| plans[ci].run_shard(lo, hi));
            let mut grouped: Vec<Vec<ShardReport>> = plans.iter().map(|_| Vec::new()).collect();
            for (&(ci, _, _), r) in items.iter().zip(shards) {
                grouped[ci].push(r);
            }
            plans
                .iter()
                .zip(&grouped)
                .map(|(p, s)| p.merge(s))
                .collect()
        };
        Ok(self.outputs(&reports))
    }

    fn traced_rep(&mut self, _index: usize, rec: &mut Recorder) -> Result<Rep, String> {
        let (reports, failures): (Vec<CellReport>, Vec<Option<String>>) = (0..self.cells.len())
            .map(|k| self.traced_cell(k, rec))
            .unzip();
        let mut out = rec.span("report.render", || self.outputs(&reports));
        out.violations.extend(failures.into_iter().flatten());
        Ok(out)
    }

    fn layer_metrics(&self, _run: &TracedRun<'_>) -> Vec<(&'static str, f64)> {
        let mut out = vec![(
            "pfi.multi_crash.leg_ratio",
            self.legs as f64 / self.traced_injections as f64,
        )];
        for (k, name) in RATE_METRICS.iter().enumerate() {
            out.push((name, self.struct_injections[k] as f64 / self.struct_secs[k]));
        }
        out
    }

    fn final_checks(&mut self) -> Vec<String> {
        // The barrier-elided CWL queue must still be caught under epoch
        // persistency: a relaxed model's known-bad mutant.
        let cfg = FuzzConfig {
            ops: 8,
            injections: 2_000,
            ..self.cfg
        };
        let r = run_cell(
            &cfg,
            FuzzCell {
                structure: Structure::CwlElided,
                model: Model::Epoch,
            },
        );
        if r.passed() {
            vec!["cwl-elided under epoch survived 2000 injections; the injector no longer catches it".into()]
        } else {
            Vec::new()
        }
    }
}

// The next four functions repeat private helpers of `pfi::fuzz` so the
// traced loop draws exactly the crashes `CellPlan::run_shard` draws, and
// its outputs can be checked against the same golden values.

/// Per-cell seed: FNV-1a over the cell's names mixed with the base seed.
fn cell_seed(seed: u64, cell: FuzzCell) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in cell
        .structure
        .name()
        .bytes()
        .chain([0u8])
        .chain(cell.model.name().bytes())
    {
        h = (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
    }
    h ^ seed.wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// Injection `i`'s private RNG seed (splitmix64 finalizer).
fn injection_seed(cell_seed: u64, i: u64) -> u64 {
    let mut z = cell_seed ^ i.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The event stream a second crash is injected into.
fn recovery_events(script: &[RecoveryStep], out: &mut Vec<ShadowEvent>) {
    out.clear();
    for step in script {
        match step {
            RecoveryStep::Write { addr, value } => {
                out.push(ShadowEvent::Store {
                    addr: *addr,
                    data: value.to_le_bytes().to_vec(),
                });
                out.push(ShadowEvent::Flush {
                    addr: *addr,
                    len: 8,
                });
            }
            RecoveryStep::Barrier => out.push(ShadowEvent::Fence),
        }
    }
}

/// Whether the script changes the image (only then is a second crash run).
fn script_mutates(image: &MemoryImage, script: &[RecoveryStep]) -> bool {
    script.iter().any(|step| match step {
        RecoveryStep::Write { addr, value } => image.read_u64(*addr).ok() != Some(*value),
        RecoveryStep::Barrier => false,
    })
}
