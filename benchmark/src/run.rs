//! The run loop: set up, repeat until the time is up, check every
//! repetition's outputs, and derive the metrics.
//!
//! An untraced run sets up at least [`MIN_SETUPS`] times and for at least
//! a tenth of `seconds` (the median is `setup_s`; a set-up of a few
//! milliseconds is repeated until its median no longer hangs on a handful
//! of samples), then repeats whole cycles of the workload until `seconds`
//! have passed.
//! A traced run sets up once inside the span recorder, spends half the
//! time on untraced reference repetitions and half on traced ones.

use crate::golden::{Checker, Golden, Semantic};
use crate::metrics::{self, Metric};
use crate::spans::Recorder;
use crate::workloads::{self, median, Rep, Scale, Timed, TracedRun, Workload};
use std::path::Path;
use std::time::Instant;

/// Setups per untraced run, at least; `setup_s` is their median.
const MIN_SETUPS: usize = 3;

/// Errors kept in the result (the count of failed operations is exact).
const MAX_ERRORS: usize = 8;

#[derive(Debug, Clone)]
pub struct Opts {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// Everything one run measured and checked.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
    pub metrics: Vec<Metric>,
    /// Further values for the result file, not part of the contract.
    pub detail: Vec<Metric>,
    /// Raw timings: `(name, samples in seconds)`.
    pub timings: Vec<(&'static str, Vec<f64>)>,
    /// Deterministic outputs observed (what `--bless` records).
    pub semantic: Semantic,
    pub has_golden: bool,
    /// Traced runs: the layer table and the Chrome trace-event timeline.
    pub table: Option<String>,
    pub timeline: Option<String>,
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.errors.is_empty()
    }

    fn note(&mut self, errors: impl IntoIterator<Item = String>) {
        for e in errors {
            if self.errors.len() < MAX_ERRORS {
                self.errors.push(e);
            }
        }
    }

    /// Counts a repetition, failing its operations if its outputs or the
    /// setup's disagreed with what was expected.
    fn count(&mut self, rep: &Rep, checker: &mut Checker, setup_ok: bool) {
        let ok = checker.check(&rep.semantic) && rep.violations.is_empty() && setup_ok;
        self.attempted += rep.ops;
        if !ok {
            self.failed += rep.ops;
        }
        self.note(rep.violations.iter().cloned());
    }

    /// Checks that are not tied to one repetition fail every operation.
    fn finish(&mut self, w: &mut dyn Workload, checker: &Checker) {
        let mut errors = w.final_checks();
        errors.extend(
            checker
                .missing()
                .into_iter()
                .map(|k| format!("{k}: golden value never produced")),
        );
        if !errors.is_empty() {
            self.failed = self.attempted;
        }
        self.note(errors);
        // Mismatches already failed their own repetitions.
        self.note(checker.mismatches.iter().cloned());
        self.semantic = checker.observed().clone();
        self.has_golden = checker.has_golden();
    }
}

/// Whether a loop that has run `i` repetitions of `cycle`-long cycles
/// since `start` should stop: only at a cycle boundary, after at least one
/// cycle, once `secs` have passed.
fn done(i: usize, cycle: usize, start: Instant, secs: f64) -> bool {
    i > 0 && i.is_multiple_of(cycle) && start.elapsed().as_secs_f64() >= secs
}

/// Runs one workload as `opts` asks. `Err` means the run could not be
/// carried out at all (no result is printed); a run that completed but
/// produced wrong outputs returns an `Outcome` that is not `correct`.
pub fn run(opts: &Opts, scale: Scale, workdir: &Path, golden: &Golden) -> Result<Outcome, String> {
    std::fs::create_dir_all(workdir).map_err(|e| format!("create {}: {e}", workdir.display()))?;
    let mut w = workloads::build(&opts.workload, opts.seed, scale, workdir)?;
    let mut checker = Checker::new(golden.expected(&opts.workload, opts.seed));
    let mut out = if opts.trace {
        traced(w.as_mut(), opts, &mut checker)?
    } else {
        timed(w.as_mut(), opts, &mut checker)?
    };
    out.finish(w.as_mut(), &checker);
    Ok(out)
}

fn timed(w: &mut dyn Workload, opts: &Opts, checker: &mut Checker) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let mut setup_s = Vec::new();
    let mut setup_ok = true;
    let start = Instant::now();
    while setup_s.len() < MIN_SETUPS || start.elapsed().as_secs_f64() < opts.seconds / 10.0 {
        let t0 = Instant::now();
        let sem = w.setup(&mut Recorder::off())?;
        setup_s.push(t0.elapsed().as_secs_f64());
        setup_ok &= checker.check(&sem);
    }
    let mut reps: Vec<Timed> = Vec::new();
    let start = Instant::now();
    let mut i = 0;
    while !done(i, w.cycle(), start, opts.seconds) {
        let t0 = Instant::now();
        let rep = w.rep(i, w.workers())?;
        let secs = t0.elapsed().as_secs_f64();
        out.count(&rep, checker, setup_ok);
        reps.push(Timed {
            index: i,
            secs,
            rep,
        });
        i += 1;
    }
    let h = w.headline(&reps);
    let values = [
        h.throughput_per_s,
        h.latency_p50_ms,
        median(&setup_s),
        metrics::peak_rss_mb()?,
    ];
    out.metrics = metrics::END_TO_END
        .iter()
        .zip(values)
        .map(|(&(n, u), v)| Metric::new(n, v, u))
        .collect();
    out.detail = h.detail;
    out.detail.push(Metric::new(
        "latency_samples",
        h.latency_samples as f64,
        "count",
    ));
    out.timings = vec![
        ("setup_s", setup_s),
        ("rep_s", reps.iter().map(|t| t.secs).collect()),
    ];
    Ok(out)
}

fn traced(w: &mut dyn Workload, opts: &Opts, checker: &mut Checker) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let mut rec = Recorder::on();
    let sem = w.setup(&mut rec)?;
    let setup_ok = checker.check(&sem);
    rec.pause();

    let half = opts.seconds / 2.0;
    let mut reference: Vec<(usize, Vec<f64>)> = w
        .reference_workers()
        .iter()
        .map(|&n| (n, Vec::new()))
        .collect();
    let start = Instant::now();
    let mut i = 0;
    while !done(i, w.cycle(), start, half) {
        for (workers, secs) in reference.iter_mut() {
            let t0 = Instant::now();
            let rep = w.rep(i, *workers)?;
            secs.push(t0.elapsed().as_secs_f64());
            out.count(&rep, checker, setup_ok);
        }
        i += 1;
    }

    rec.resume();
    let mut traced_secs = Vec::new();
    let start = Instant::now();
    let mut i = 0;
    while !done(i, w.cycle(), start, half) {
        let t0 = Instant::now();
        let rep = w.traced_rep(i, &mut rec)?;
        traced_secs.push(t0.elapsed().as_secs_f64());
        out.count(&rep, checker, setup_ok);
        i += 1;
    }
    rec.pause();

    if let Some(l) = rec
        .layers()
        .iter()
        .find(|l| !metrics::LAYERS.contains(&l.name))
    {
        return Err(format!("layer {} is not declared", l.name));
    }
    let run = TracedRun {
        rec: &rec,
        traced_secs,
        reference,
    };
    let own = w.layer_metrics(&run);
    let overhead = run.traced_mean() / run.reference_mean(w.reference_workers()[0]);
    out.metrics = metrics::per_layer(&rec, overhead, &own);
    out.timings = vec![
        ("traced_s", vec![rec.traced_secs()]),
        ("traced_rep_s", run.traced_secs.clone()),
    ];
    for (workers, secs) in &run.reference {
        out.detail.push(Metric::new(
            &format!("reference_rep_mean_s.w{workers}"),
            workloads::mean(secs),
            "s",
        ));
    }
    out.detail
        .push(Metric::new("unattributed_s", rec.unattributed_secs(), "s"));
    out.table = Some(rec.table());
    out.timeline = Some(rec.chrome_json(&format!(
        "{{\"workload\": \"{}\", \"seed\": {}}}",
        opts.workload, opts.seed
    )));
    Ok(out)
}
