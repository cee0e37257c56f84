//! `analyze-queue`: the paper's §7 measurement, as `psim analyze` runs it.
//!
//! Setup is `psim capture`: a racing-epoch Copy While Locked capture under
//! a seeded scheduler, checked for sequential consistency and written as
//! MPTRACE2. A repetition maps the file and runs `analyze_full` over all
//! five models with one worker (at two or more, `analyze_full` spawns the
//! decode workers plus one engine thread per model, which on two cores
//! would measure the scheduler), then renders the report.

use super::{pct, timing_layer, Rep, Scale, TracedRun, Workload};
use crate::golden::{fnv64, Semantic};
use crate::spans::Recorder;
use mem_trace::io::write_trace2;
use mem_trace::mmapio::MappedTrace;
use mem_trace::profile::TraceProfile;
use mem_trace::{SeededScheduler, Trace, TracedMem};
use obsv::runmeta::RunMeta;
use persistency::timing::{Analyzer, TimingReport};
use persistency::{partition, AnalysisConfig, Model};
use pqueue::traced::{run_cwl_workload, BarrierMode, QueueParams};
use std::path::{Path, PathBuf};

/// Capture threads (both workloads that capture).
pub const CAPTURE_THREADS: u32 = 2;

/// Layers of one decomposed analysis repetition.
const REP_LAYERS: [&str; 8] = [
    "trace.mmap",
    "trace.decode",
    "trace.profile",
    "core.timing.strict",
    "core.timing.strict-rmo",
    "core.timing.epoch",
    "core.timing.bpfs",
    "core.timing.strand",
];

/// Validates and writes a fresh capture, the way `psim capture` does.
/// Returns the capture fingerprint and the file size.
pub fn capture_to_file(
    rec: &mut Recorder,
    path: &Path,
    capture: impl FnOnce() -> Trace,
) -> Result<(Semantic, u64), String> {
    let trace = rec.span("trace.capture", capture);
    rec.span("trace.validate", || trace.validate_sc())
        .map_err(|e| format!("capture produced a non-SC trace: {e}"))?;
    let bytes = rec
        .span("trace.encode", || -> std::io::Result<Vec<u8>> {
            let mut buf = Vec::new();
            write_trace2(&trace, &mut buf)?;
            std::fs::write(path, &buf)?;
            Ok(buf)
        })
        .map_err(|e| format!("write {}: {e}", path.display()))?;
    let events = trace.events().len() as u64;
    rec.span("trace.capture", move || drop(trace));
    let sem = Semantic::from([
        ("capture.events".to_string(), events),
        ("capture.fnv64".to_string(), fnv64(&bytes)),
    ]);
    Ok((sem, bytes.len() as u64))
}

/// Queue capacity `psim capture` picks for this many inserts.
pub fn capacity(inserts_per_thread: u64) -> u64 {
    (CAPTURE_THREADS as u64 * inserts_per_thread)
        .next_power_of_two()
        .max(64)
}

pub struct AnalyzeQueue {
    seed: u64,
    inserts: u64,
    path: PathBuf,
    file_bytes: u64,
    events: u64,
    configs: Vec<AnalysisConfig>,
    meta: String,
}

impl AnalyzeQueue {
    pub fn new(seed: u64, scale: Scale, workdir: &Path) -> Self {
        AnalyzeQueue {
            seed,
            inserts: scale.analyze_inserts,
            path: workdir.join(format!("analyze-queue-{seed}.mptrace2")),
            file_bytes: 0,
            events: 0,
            configs: Model::ALL.iter().map(|&m| AnalysisConfig::new(m)).collect(),
            meta: RunMeta::collect(1, 1).to_json_object(),
        }
    }
}

/// The `psim analyze --json` report body.
fn render(profile: &TraceProfile, reports: &[TimingReport], meta: &str) -> String {
    let rows: Vec<String> = reports
        .iter()
        .map(|r| {
            format!(
                "    {{\"model\": \"{}\", \"critical_path\": {}, \"critical_path_per_insert\": {:.3}, \"persists\": {}, \"coalesced\": {}, \"barriers\": {}}}",
                r.config.model,
                r.critical_path,
                r.critical_path_per_work(),
                r.stats.persist_ops,
                r.stats.coalesced,
                r.stats.barriers
            )
        })
        .collect();
    format!(
        "{{\n  \"schema\": \"psim_analyze_v1\",\n  \"meta\": {},\n  \"trace\": {{\"events\": {}, \"persists\": {}, \"persist_barriers\": {}, \"work_items\": {}}},\n  \"models\": [\n{}\n  ]\n}}",
        meta,
        profile.events,
        profile.persists,
        profile.persist_barriers,
        profile.work_items,
        rows.join(",\n")
    )
}

fn outputs(profile: &TraceProfile, reports: &[TimingReport]) -> Rep {
    let mut sem = Semantic::from([
        ("trace.events".to_string(), profile.events),
        ("trace.persists".to_string(), profile.persists),
        (
            "trace.persist_barriers".to_string(),
            profile.persist_barriers,
        ),
        ("trace.work_items".to_string(), profile.work_items),
    ]);
    for r in reports {
        let m = r.config.model.name();
        sem.insert(format!("{m}.critical_path"), r.critical_path);
        sem.insert(format!("{m}.persists"), r.stats.persist_ops);
        sem.insert(format!("{m}.coalesced"), r.stats.coalesced);
        sem.insert(format!("{m}.barriers"), r.stats.barriers);
    }
    Rep {
        work: profile.events as f64,
        ops: 1,
        semantic: sem,
        violations: Vec::new(),
    }
}

impl Workload for AnalyzeQueue {
    fn workers(&self) -> usize {
        1
    }

    fn setup(&mut self, rec: &mut Recorder) -> Result<Semantic, String> {
        let (seed, inserts) = (self.seed, self.inserts);
        let (sem, bytes) = capture_to_file(rec, &self.path, || {
            run_cwl_workload(
                TracedMem::new(SeededScheduler::new(seed)),
                QueueParams::new(capacity(inserts)),
                BarrierMode::Racing,
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
        let map = MappedTrace::open(&self.path).map_err(|e| format!("map trace: {e}"))?;
        let (profile, reports) = partition::analyze_full(&map, &self.configs, workers)
            .map_err(|e| format!("analyze: {e}"))?;
        std::hint::black_box(render(&profile, &reports, &self.meta));
        Ok(outputs(&profile, &reports))
    }

    fn traced_rep(&mut self, _index: usize, rec: &mut Recorder) -> Result<Rep, String> {
        let map = rec
            .span("trace.mmap", || MappedTrace::open(&self.path))
            .map_err(|e| format!("map trace: {e}"))?;
        let trace = rec
            .span("trace.decode", || map.collect())
            .map_err(|e| format!("decode: {e}"))?;
        let profile = rec
            .span("trace.profile", || TraceProfile::of_source(trace.source()))
            .map_err(|e| format!("profile: {e}"))?;
        let mut reports = Vec::with_capacity(self.configs.len());
        for cfg in &self.configs {
            let r = rec
                .span(timing_layer(cfg.model), || {
                    Analyzer::new().analyze_source(trace.source(), cfg)
                })
                .map_err(|e| format!("analyze: {e}"))?;
            reports.push(r);
        }
        std::hint::black_box(rec.span("report.render", || render(&profile, &reports, &self.meta)));
        rec.span("trace.decode", move || drop(trace));
        rec.span("trace.mmap", move || drop(map));
        Ok(outputs(&profile, &reports))
    }

    fn reference_workers(&self) -> &'static [usize] {
        &[1, 2]
    }

    fn layer_metrics(&self, run: &TracedRun<'_>) -> Vec<(&'static str, f64)> {
        let fused = run.reference_mean(1);
        vec![
            // What the fused single-pass `analyze_full` saves (negative) or costs
            // over calling each layer separately.
            (
                "core.partition.overhead_pct",
                pct(fused - run.per_rep(&REP_LAYERS), fused),
            ),
            ("core.partition.speedup_w2", fused / run.reference_mean(2)),
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

/// Decode bandwidth of the traced repetitions over a file of `bytes`.
pub fn decode_mb_per_s(run: &TracedRun<'_>, bytes: u64) -> f64 {
    bytes as f64 / 1e6 * run.traced_secs.len() as f64 / run.rec.busy("trace.decode")
}

impl Drop for AnalyzeQueue {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.path);
    }
}
