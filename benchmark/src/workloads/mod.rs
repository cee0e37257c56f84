//! The five workloads and the interface the run loop drives them through.
//!
//! Each workload drives the program only through public library
//! functions, the same ones `psim` calls. An untraced repetition runs the
//! production path (`analyze_full`, `run_profile`, `CellPlan::run_shard`,
//! `run_model`); a traced repetition runs the same work decomposed into
//! one call per layer, each inside a [`Recorder`] span.

pub mod analyze;
pub mod fuzz;
pub mod profile;
pub mod serve;

use crate::golden::Semantic;
use crate::metrics::Metric;
use crate::spans::Recorder;
use persistency::Model;

/// Workload names, in `BENCHMARK.json` order.
pub const NAMES: [&str; 5] = [
    "analyze-queue",
    "profile-queue",
    "fuzz-matrix",
    "serve-virtual",
    "serve-wall",
];

/// Input sizes. [`Scale::full`] is the benchmark; [`Scale::tiny`] keeps the
/// same shapes small enough for unit tests.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    /// CWL inserts per capture thread (analyze-queue).
    pub analyze_inserts: u64,
    /// 2LC inserts per capture thread (profile-queue).
    pub profile_inserts: u64,
    /// Ordering barriers scored by what-if removal (profile-queue).
    pub profile_barriers: usize,
    /// Logical operations recorded per fuzz cell.
    pub fuzz_ops: u64,
    /// Crash injections per fuzz cell and repetition.
    pub fuzz_injections: u64,
    /// Keyspace of the serve workloads.
    pub serve_keys: u64,
    /// Requests per virtual-time `run_model`.
    pub serve_ops: u64,
    /// Requests per wall-clock run at 500k/s (serve-wall phase A).
    pub wall_ops_a: u64,
    /// Requests per wall-clock run at 50M/s offered (serve-wall phase B).
    pub wall_ops_b: u64,
}

impl Scale {
    pub const fn full() -> Self {
        Scale {
            analyze_inserts: 8_000,
            profile_inserts: 2_500,
            profile_barriers: 64,
            fuzz_ops: 128,
            fuzz_injections: 50_000,
            serve_keys: 200_000,
            serve_ops: 400_000,
            wall_ops_a: 500_000,
            wall_ops_b: 3_000_000,
        }
    }

    #[cfg(test)]
    pub const fn tiny() -> Self {
        Scale {
            analyze_inserts: 150,
            profile_inserts: 60,
            profile_barriers: 8,
            fuzz_ops: 16,
            fuzz_injections: 300,
            serve_keys: 2_000,
            serve_ops: 4_000,
            wall_ops_a: 4_000,
            wall_ops_b: 20_000,
        }
    }
}

/// Outcome of one repetition.
#[derive(Debug, Default)]
pub struct Rep {
    /// Work units the throughput metric counts.
    pub work: f64,
    /// Operations attempted (what `attempted` / `failed` count).
    pub ops: u64,
    /// Deterministic outputs, checked against the golden file.
    pub semantic: Semantic,
    /// Broken invariants; any one fails the repetition's operations.
    pub violations: Vec<String>,
}

/// A timed repetition, as the run loop recorded it.
#[derive(Debug)]
pub struct Timed {
    pub index: usize,
    pub secs: f64,
    pub rep: Rep,
}

/// End-to-end results a workload derives from its timed repetitions.
#[derive(Debug)]
pub struct Headline {
    pub throughput_per_s: f64,
    pub latency_p50_ms: f64,
    /// Samples behind `latency_p50_ms`.
    pub latency_samples: u64,
    /// Further named values for the result file.
    pub detail: Vec<Metric>,
}

/// What a traced run measured, for the workload-specific layer metrics.
pub struct TracedRun<'a> {
    pub rec: &'a Recorder,
    /// Wall time of each traced repetition.
    pub traced_secs: Vec<f64>,
    /// Untraced reference repetitions: `(workers, wall time of each)`.
    pub reference: Vec<(usize, Vec<f64>)>,
}

impl TracedRun<'_> {
    /// Mean reference repetition time at `workers`.
    pub fn reference_mean(&self, workers: usize) -> f64 {
        self.reference
            .iter()
            .find(|(w, _)| *w == workers)
            .map_or(f64::NAN, |(_, s)| mean(s))
    }

    pub fn traced_mean(&self) -> f64 {
        mean(&self.traced_secs)
    }

    /// Summed busy time of `layers` per traced repetition.
    pub fn per_rep(&self, layers: &[&str]) -> f64 {
        layers.iter().map(|l| self.rec.busy(l)).sum::<f64>() / self.traced_secs.len().max(1) as f64
    }
}

/// One benchmark workload.
pub trait Workload {
    /// Worker count of the timed repetitions.
    fn workers(&self) -> usize {
        2
    }

    /// Repetitions in one full cycle of the workload's input mix; a run
    /// always completes whole cycles.
    fn cycle(&self) -> usize {
        1
    }

    /// Builds the inputs. Returns deterministic outputs of the setup (the
    /// capture fingerprint) for the golden check.
    fn setup(&mut self, rec: &mut Recorder) -> Result<Semantic, String>;

    /// One untraced repetition (`index` selects the slot of the cycle).
    fn rep(&mut self, index: usize, workers: usize) -> Result<Rep, String>;

    /// The same work decomposed into one span per layer call.
    fn traced_rep(&mut self, index: usize, rec: &mut Recorder) -> Result<Rep, String>;

    /// Worker counts of the untraced reference repetitions a traced run
    /// measures; the first is the one the traced time is compared with.
    fn reference_workers(&self) -> &'static [usize] {
        &[1]
    }

    /// End-to-end results. The default: work per second of repetition
    /// time, and the median repetition as the latency.
    fn headline(&self, reps: &[Timed]) -> Headline {
        let secs: Vec<f64> = reps.iter().map(|t| t.secs).collect();
        let work: f64 = reps.iter().map(|t| t.rep.work).sum();
        Headline {
            throughput_per_s: work / secs.iter().sum::<f64>(),
            latency_p50_ms: median(&secs) * 1e3,
            latency_samples: secs.len() as u64,
            detail: Vec::new(),
        }
    }

    /// Workload-specific layer metrics (ratios, counts, rates).
    fn layer_metrics(&self, run: &TracedRun<'_>) -> Vec<(&'static str, f64)>;

    /// Checks that hold for every seed, run outside the timed phase.
    fn final_checks(&mut self) -> Vec<String> {
        Vec::new()
    }
}

/// Builds workload `name` for `seed`. `workdir` holds trace files.
pub fn build(
    name: &str,
    seed: u64,
    scale: Scale,
    workdir: &std::path::Path,
) -> Result<Box<dyn Workload>, String> {
    Ok(match name {
        "analyze-queue" => Box::new(analyze::AnalyzeQueue::new(seed, scale, workdir)),
        "profile-queue" => Box::new(profile::ProfileQueue::new(seed, scale, workdir)),
        "fuzz-matrix" => Box::new(fuzz::FuzzMatrix::new(seed, scale)),
        "serve-virtual" => Box::new(serve::ServeVirtual::new(seed, scale)),
        "serve-wall" => Box::new(serve::ServeWall::new(seed, scale)),
        other => {
            return Err(format!(
                "unknown workload {other}; use one of {}",
                NAMES.join(", ")
            ))
        }
    })
}

/// Span name of each model's timing engine, in [`Model::ALL`] order.
pub const TIMING_LAYERS: [&str; 5] = [
    "core.timing.strict",
    "core.timing.strict-rmo",
    "core.timing.epoch",
    "core.timing.bpfs",
    "core.timing.strand",
];

pub fn timing_layer(model: Model) -> &'static str {
    TIMING_LAYERS[Model::ALL
        .iter()
        .position(|&m| m == model)
        .expect("model is in Model::ALL")]
}

pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

pub fn mean(xs: &[f64]) -> f64 {
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// `a / b` as a percentage, 0 when `b` is not positive.
pub fn pct(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        100.0 * a / b
    } else {
        0.0
    }
}
