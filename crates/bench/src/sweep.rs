//! Parallel sweep execution for the experiment binaries.
//!
//! Every figure/table binary evaluates a grid of independent
//! (queue, model, latency, threads, granularity) configurations. The
//! [`SweepRunner`] fans those cells out across a std-thread worker pool
//! while keeping result order deterministic: `run` always returns results
//! in input order, whatever interleaving the workers produce, so report
//! output is byte-identical between serial and parallel execution.
//!
//! Workers claim cells from a shared atomic counter (work stealing by
//! index), which keeps the pool balanced when cell costs are skewed — the
//! 8-thread trace captures cost far more than the 1-thread ones.

use std::io::Write as _;
use std::time::{Duration, Instant};

/// A deterministic-order parallel map over sweep cells.
#[derive(Debug, Clone)]
pub struct SweepRunner {
    workers: usize,
}

impl SweepRunner {
    /// A runner with an explicit worker count (clamped to at least 1).
    pub fn new(workers: usize) -> Self {
        SweepRunner { workers: workers.max(1) }
    }

    /// A serial runner (one worker, no threads spawned).
    pub fn serial() -> Self {
        SweepRunner::new(1)
    }

    /// Worker count from the environment and command line:
    ///
    /// - `--serial` anywhere in `args` forces one worker;
    /// - otherwise `SWEEP_THREADS=N` if set and valid;
    /// - otherwise [`std::thread::available_parallelism`].
    pub fn from_env() -> Self {
        if std::env::args().any(|a| a == "--serial") {
            return SweepRunner::serial();
        }
        if let Ok(v) = std::env::var("SWEEP_THREADS") {
            if let Ok(n) = v.trim().parse::<usize>() {
                return SweepRunner::new(n);
            }
        }
        let n = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
        SweepRunner::new(n)
    }

    /// Number of workers this runner uses.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Workers that can actually be used for `cells` work items (the pool
    /// never spawns more threads than there are cells).
    pub fn effective_workers(&self, cells: usize) -> usize {
        self.workers.min(cells.max(1))
    }

    /// Applies `f` to every item, returning results in input order.
    ///
    /// `f` receives the item's index and the item. With one worker (or one
    /// item) everything runs on the calling thread; otherwise cells are
    /// claimed dynamically by [`obsv::par_map`]'s scoped worker pool.
    pub fn run<T, R, F>(&self, items: &[T], f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(usize, &T) -> R + Sync,
    {
        if obsv::enabled() {
            obsv::counter_add("sweep.cells", items.len() as u64);
        }
        obsv::par_map(items.len(), self.workers, |i| f(i, &items[i]))
    }
}

impl Default for SweepRunner {
    fn default() -> Self {
        SweepRunner::from_env()
    }
}

/// Self-timing for a sweep binary, recorded through the `obsv` layer.
///
/// The span/counter data lands in the `obsv` registry (when enabled via
/// `OBSV=1`); the classic `[timing] ...` stderr line is kept as the
/// human-rendered view of that same measurement. Reports go to **stderr**
/// so experiment stdout stays byte-identical across worker counts (the
/// determinism tests diff stdout).
#[derive(Debug)]
pub struct SelfTimer {
    label: String,
    workers: usize,
    start: Instant,
}

impl SelfTimer {
    /// Starts timing an experiment. Also gives `obsv` its chance to
    /// initialize from the environment, so every sweep binary honors
    /// `OBSV=1` without further wiring.
    pub fn start(label: &str, runner: &SweepRunner) -> Self {
        obsv::init_from_env();
        SelfTimer { label: label.to_string(), workers: runner.workers(), start: Instant::now() }
    }

    /// Elapsed time so far.
    pub fn elapsed(&self) -> Duration {
        self.start.elapsed()
    }

    /// Stops the timer: records the section's duration and event count in
    /// the `obsv` registry, then writes the rendered view `[timing] label:
    /// N events in S (R events/s, W workers)` to stderr. `events` is the
    /// number of trace events the experiment pushed through the analysis
    /// engines.
    pub fn finish(self, events: u64) {
        self.finish_counting(events, "events");
    }

    /// [`SelfTimer::finish`] for work counted in another `unit` (say,
    /// `injections`): the counter is `sweep.{label}.{unit}` and the line
    /// reads `N unit in S s (R unit/s, W workers)`.
    pub fn finish_counting(self, count: u64, unit: &str) {
        let dur = self.start.elapsed();
        if obsv::enabled() {
            obsv::record_duration(&format!("sweep.{}", self.label), dur);
            obsv::counter_add(&format!("sweep.{}.{unit}", self.label), count);
        }
        let secs = dur.as_secs_f64();
        let rate = if secs > 0.0 { count as f64 / secs } else { f64::INFINITY };
        let _ = writeln!(
            std::io::stderr(),
            "[timing] {}: {} {unit} in {:.3} s ({:.0} {unit}/s, {} workers)",
            self.label,
            count,
            secs,
            rate,
            self.workers
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_are_in_input_order() {
        let runner = SweepRunner::new(4);
        let items: Vec<u64> = (0..100).collect();
        let out = runner.run(&items, |i, &x| {
            // Skew cell costs so workers finish out of order.
            if i % 7 == 0 {
                std::thread::yield_now();
            }
            x * 2
        });
        assert_eq!(out, items.iter().map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn serial_and_parallel_agree() {
        let items: Vec<u64> = (0..37).collect();
        let f = |_i: usize, x: &u64| x * x + 1;
        assert_eq!(SweepRunner::serial().run(&items, f), SweepRunner::new(8).run(&items, f));
    }

    #[test]
    fn empty_and_singleton_inputs() {
        let runner = SweepRunner::new(4);
        let empty: Vec<u32> = vec![];
        assert!(runner.run(&empty, |_, &x| x).is_empty());
        assert_eq!(runner.run(&[9u32], |_, &x| x + 1), vec![10]);
    }

    #[test]
    fn worker_count_is_clamped() {
        assert_eq!(SweepRunner::new(0).workers(), 1);
        assert_eq!(SweepRunner::serial().workers(), 1);
    }
}
