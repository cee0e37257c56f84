//! `profile-queue`: `psim profile` over a Two-Lock Concurrent capture.
//!
//! The same timing engine as analyze-queue, used differently: one persist
//! DAG build and path extraction, then many short what-if re-analyses of
//! copied `Trace`s (one per scored barrier, fanned out over two workers).
//! A change that speeds up streaming analysis but slows the `Trace` entry
//! points shows here, not in analyze-queue.

use super::analyze::{capacity, capture_to_file, decode_mb_per_s, CAPTURE_THREADS};
use super::{pct, Rep, Scale, TracedRun, Workload};
use crate::golden::Semantic;
use crate::spans::Recorder;
use bench::profile::{render_json, run_profile};
use bench::SweepRunner;
use mem_trace::mmapio::MappedTrace;
use mem_trace::{SeededScheduler, Trace, TracedMem};
use obsv::runmeta::RunMeta;
use persistency::dag::PersistDag;
use persistency::profile::{
    barrier_candidates, profile_dag, score_barrier, EdgeKind, ProfileReport,
};
use persistency::{timing, AnalysisConfig, Model};
use pqueue::traced::{run_2lc_workload, QueueParams};
use std::path::{Path, PathBuf};

/// Constraint sources listed in the rendered report (`psim profile`'s
/// default `--top`).
const TOP: usize = 10;

pub struct ProfileQueue {
    seed: u64,
    inserts: u64,
    barriers: usize,
    path: PathBuf,
    file_bytes: u64,
    events: u64,
    config: AnalysisConfig,
    meta: RunMeta,
    /// Persist nodes and what-ifs of the last traced repetition.
    dag_nodes: u64,
    whatifs: u64,
}

impl ProfileQueue {
    pub fn new(seed: u64, scale: Scale, workdir: &Path) -> Self {
        ProfileQueue {
            seed,
            inserts: scale.profile_inserts,
            barriers: scale.profile_barriers,
            path: workdir.join(format!("profile-queue-{seed}.mptrace2")),
            file_bytes: 0,
            events: 0,
            config: AnalysisConfig::new(Model::Epoch),
            meta: RunMeta::collect(2, 2),
            dag_nodes: 0,
            whatifs: 0,
        }
    }

    fn load(&self) -> Result<MappedTrace, String> {
        MappedTrace::open(&self.path).map_err(|e| format!("map trace: {e}"))
    }
}

fn outputs(trace: &Trace, r: &ProfileReport) -> Rep {
    let mut sem = Semantic::from([
        ("critical_path".to_string(), r.critical_path),
        ("timing_critical_path".to_string(), r.timing_critical_path),
        ("persist_nodes".to_string(), r.persist_nodes as u64),
        (
            "barrier_candidates".to_string(),
            r.barrier_candidates as u64,
        ),
        ("barriers_scored".to_string(), r.barriers.len() as u64),
        (
            "barriers_redundant".to_string(),
            r.barriers.iter().filter(|b| b.redundant).count() as u64,
        ),
    ]);
    for (kind, count) in r.edge_counts() {
        if kind != EdgeKind::Root {
            sem.insert(format!("edges.{}", kind.name()), count);
        }
    }
    Rep {
        work: trace.events().len() as f64,
        ops: 1,
        semantic: sem,
        violations: Vec::new(),
    }
}

impl Workload for ProfileQueue {
    fn setup(&mut self, rec: &mut Recorder) -> Result<Semantic, String> {
        let (seed, inserts) = (self.seed, self.inserts);
        let (sem, bytes) = capture_to_file(rec, &self.path, || {
            run_2lc_workload(
                TracedMem::new(SeededScheduler::new(seed)),
                QueueParams::new(capacity(inserts)),
                CAPTURE_THREADS,
                inserts,
            )
            .0
        })?;
        self.file_bytes = bytes;
        self.events = sem["capture.events"];
        Ok(sem)
    }

    fn rep(&mut self, _index: usize, workers: usize) -> Result<Rep, String> {
        let trace = self.load()?.collect().map_err(|e| format!("decode: {e}"))?;
        let report = run_profile(
            &trace,
            &self.config,
            self.barriers,
            &SweepRunner::new(workers),
        )
        .map_err(|e| e.to_string())?;
        std::hint::black_box(render_json(&report, &self.meta, TOP));
        Ok(outputs(&trace, &report))
    }

    fn traced_rep(&mut self, _index: usize, rec: &mut Recorder) -> Result<Rep, String> {
        let map = rec.span("trace.mmap", || self.load())?;
        let trace = rec
            .span("trace.decode", || map.collect())
            .map_err(|e| format!("decode: {e}"))?;
        let config = self.config;
        let dag = rec
            .span("core.dag", || PersistDag::build(&trace, &config))
            .map_err(|e| e.to_string())?;
        // Path extraction and attribution; `profile_dag` also runs one
        // timing pass for its baseline, which cannot be split off from
        // outside, so this layer carries it.
        let (mut report, candidates) = rec.span("core.profile.path", || {
            let report = profile_dag(&trace, &dag, 0);
            let candidates: Vec<usize> = barrier_candidates(&trace)
                .into_iter()
                .take(self.barriers)
                .collect();
            (report, candidates)
        });
        self.dag_nodes = dag.len() as u64;
        rec.span("core.dag", move || drop(dag));
        // One plain timing pass, the unit each what-if repeats.
        let full = rec.span("core.timing.full_pass", || timing::analyze(&trace, &config));
        let baseline = report.timing_critical_path;
        let mut violations = Vec::new();
        if full.critical_path != baseline {
            violations.push(format!(
                "timing pass gives {} but the profile baseline is {baseline}",
                full.critical_path
            ));
        }
        report.barriers = candidates
            .iter()
            .map(|&i| {
                rec.span("core.profile.whatif", || {
                    score_barrier(&trace, &config, baseline, i)
                })
            })
            .collect();
        self.whatifs = report.barriers.len() as u64;
        std::hint::black_box(rec.span("report.render", || render_json(&report, &self.meta, TOP)));
        let mut out = outputs(&trace, &report);
        out.violations = violations;
        rec.span("trace.decode", move || drop(trace));
        rec.span("trace.mmap", move || drop(map));
        Ok(out)
    }

    fn reference_workers(&self) -> &'static [usize] {
        &[1, 2]
    }

    fn layer_metrics(&self, run: &TracedRun<'_>) -> Vec<(&'static str, f64)> {
        let whatif = run.rec.busy("core.profile.whatif");
        let full_pass = run.rec.busy("core.timing.full_pass") / run.traced_secs.len() as f64;
        let whatifs_run = self.whatifs as f64 * run.traced_secs.len() as f64;
        vec![
            ("core.dag.nodes", self.dag_nodes as f64),
            ("core.profile.whatifs", self.whatifs as f64),
            // The what-if time beyond its timing passes: building each
            // reduced copy of the trace.
            (
                "core.profile.reduce_pct",
                pct(whatif - whatifs_run * full_pass, whatif),
            ),
            (
                "bench.sweep.speedup_w2",
                run.reference_mean(1) / run.reference_mean(2),
            ),
            (
                "trace.encode.bytes_per_event",
                self.file_bytes as f64 / self.events as f64,
            ),
            (
                "trace.decode.mb_per_s",
                decode_mb_per_s(run, self.file_bytes),
            ),
        ]
    }
}

impl Drop for ProfileQueue {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.path);
    }
}
