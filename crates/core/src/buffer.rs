//! Finite persist buffering and persist sync (§3, §4.1).
//!
//! The critical-path analysis in [`crate::timing`] assumes unbounded
//! buffering: volatile execution never waits for persists, so throughput
//! is `min(instruction rate, critical-path drain rate)`. Real
//! implementations buffer persists in finite store queues or memory-side
//! buffers; §3: "with finite buffering, performance is ultimately limited
//! by the slower of the average rate that persists are generated … and
//! the rate persists complete."
//!
//! This module simulates that regime for single-threaded traces: volatile
//! execution advances one instruction per event, persists occupy a buffer
//! slot from issue until their model-ordered completion, execution stalls
//! when the buffer is full, and `PersistSync` (§4.1's synchronization of
//! execution with persistent state) drains the buffer entirely.
//!
//! Persist ordering constraints come from the exact persist DAG, so the
//! same trace + model that produced a Figure-3 point also drives the
//! buffered simulation.

use crate::dag::{DagError, PersistDag};
use crate::AnalysisConfig;
use core::fmt;
use mem_trace::{Op, Trace};
use std::collections::BinaryHeap;
use std::collections::HashMap;

/// Parameters of the buffered execution simulation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BufferConfig {
    /// Volatile cost of one traced event, in nanoseconds.
    pub instr_ns: f64,
    /// NVRAM persist latency, in nanoseconds.
    pub persist_ns: f64,
    /// Buffer slots; `None` models unbounded buffering.
    pub capacity: Option<usize>,
}

impl BufferConfig {
    /// Creates a configuration.
    ///
    /// # Panics
    ///
    /// Panics if a latency is not positive, or `capacity` is `Some(0)`.
    pub fn new(instr_ns: f64, persist_ns: f64, capacity: Option<usize>) -> Self {
        assert!(instr_ns.is_finite() && instr_ns > 0.0, "instruction time must be positive");
        assert!(persist_ns.is_finite() && persist_ns > 0.0, "persist latency must be positive");
        assert!(capacity != Some(0), "a zero-slot buffer cannot make progress");
        BufferConfig { instr_ns, persist_ns, capacity }
    }
}

/// Outcome of a buffered execution simulation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BufferReport {
    /// Time at which volatile execution retires its last event.
    pub exec_ns: f64,
    /// Time at which the last persist drains (durability point).
    pub drain_ns: f64,
    /// Execution time lost stalling on a full buffer.
    pub stall_full_ns: f64,
    /// Execution time lost draining at `PersistSync` instructions.
    pub stall_sync_ns: f64,
    /// Persist operations issued to the buffer (post-coalescing nodes).
    pub persists: u64,
    /// Largest number of simultaneously buffered persists.
    pub peak_occupancy: usize,
}

impl BufferReport {
    /// Fraction of execution time spent stalled.
    pub fn stall_fraction(&self) -> f64 {
        if self.exec_ns == 0.0 {
            0.0
        } else {
            (self.stall_full_ns + self.stall_sync_ns) / self.exec_ns
        }
    }

    /// Work-item completion rate given the trace's work count (items per
    /// second, judged at volatile execution completion).
    pub fn rate(&self, work_items: u64) -> f64 {
        if self.exec_ns == 0.0 {
            f64::INFINITY
        } else {
            work_items as f64 * 1e9 / self.exec_ns
        }
    }
}

/// Simulation failure.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum BufferError {
    /// The trace has more than one thread; buffered simulation models a
    /// single volatile execution timeline.
    MultiThreaded {
        /// Thread count found.
        threads: u32,
    },
    /// DAG construction failed.
    Dag(DagError),
}

impl fmt::Display for BufferError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BufferError::MultiThreaded { threads } => {
                write!(f, "buffered simulation supports one thread, trace has {threads}")
            }
            BufferError::Dag(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for BufferError {}

impl From<DagError> for BufferError {
    fn from(e: DagError) -> Self {
        BufferError::Dag(e)
    }
}

/// Min-heap entry ordering completions by time.
#[derive(PartialEq)]
struct Completion(f64, u32);

impl Eq for Completion {}

impl PartialOrd for Completion {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Completion {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Reverse for a min-heap; completion times are always finite.
        other.0.partial_cmp(&self.0).expect("finite times").then(other.1.cmp(&self.1))
    }
}

/// Simulates buffered execution of a single-threaded `trace` under
/// `model` with the given buffer parameters.
///
/// # Errors
///
/// Returns [`BufferError::MultiThreaded`] for multi-threaded traces and
/// propagates DAG construction failures.
///
/// # Example
///
/// ```rust
/// use mem_trace::{TracedMem, FreeRunScheduler};
/// use persistency::buffer::{simulate, BufferConfig};
/// use persistency::{AnalysisConfig, Model};
///
/// let mem = TracedMem::new(FreeRunScheduler);
/// let trace = mem.run(1, |ctx| {
///     let a = ctx.palloc(256, 64).unwrap();
///     for i in 0..8 {
///         ctx.store_u64(a.add(8 * i), i);
///         ctx.persist_barrier();
///     }
/// });
/// let cfg = AnalysisConfig::new(Model::Epoch);
/// // One slot: every persist stalls behind its predecessor.
/// let tight = simulate(&trace, &cfg, &BufferConfig::new(1.0, 500.0, Some(1))).unwrap();
/// // Unbounded: execution never stalls.
/// let wide = simulate(&trace, &cfg, &BufferConfig::new(1.0, 500.0, None)).unwrap();
/// assert!(tight.exec_ns > wide.exec_ns);
/// assert_eq!(wide.stall_full_ns, 0.0);
/// ```
pub fn simulate(
    trace: &Trace,
    analysis: &AnalysisConfig,
    config: &BufferConfig,
) -> Result<BufferReport, BufferError> {
    if trace.thread_count() != 1 {
        return Err(BufferError::MultiThreaded { threads: trace.thread_count() });
    }
    let dag = PersistDag::build(trace, analysis)?;
    // Event index of each node's creating store → node id.
    let issue_at: HashMap<usize, u32> = dag
        .nodes()
        .iter()
        .enumerate()
        .map(|(id, n)| (n.first_index(), id as u32))
        .collect();

    let mut clock = 0.0f64;
    let mut completion = vec![0.0f64; dag.len()];
    let mut in_flight: BinaryHeap<Completion> = BinaryHeap::new();
    let mut stall_full = 0.0f64;
    let mut stall_sync = 0.0f64;
    let mut drain_end = 0.0f64;
    let mut peak = 0usize;

    for (index, e) in trace.events().iter().enumerate() {
        clock += config.instr_ns;
        // Retire completed persists.
        while let Some(c) = in_flight.peek() {
            if c.0 <= clock {
                in_flight.pop();
            } else {
                break;
            }
        }
        match e.op {
            Op::PersistSync => {
                // Buffered strict persistency's sync (§4.1): execution may
                // not pass until persistent state catches up.
                if let Some(c) = in_flight.iter().map(|c| c.0).fold(None, |m: Option<f64>, x| {
                    Some(m.map_or(x, |m| m.max(x)))
                }) {
                    if c > clock {
                        stall_sync += c - clock;
                        clock = c;
                    }
                }
                in_flight.clear();
            }
            _ => {
                if let Some(&node) = issue_at.get(&index) {
                    // Stall while the buffer is full.
                    if let Some(cap) = config.capacity {
                        while in_flight.len() >= cap {
                            let c = in_flight.pop().expect("buffer is non-empty");
                            if c.0 > clock {
                                stall_full += c.0 - clock;
                                clock = c.0;
                            }
                        }
                    }
                    // The persist starts once issued and once its ordering
                    // predecessors have persisted.
                    let deps_done = dag
                        .deps(node)
                        .iter()
                        .map(|&d| completion[d as usize])
                        .fold(0.0f64, f64::max);
                    let done = clock.max(deps_done) + config.persist_ns;
                    completion[node as usize] = done;
                    drain_end = drain_end.max(done);
                    in_flight.push(Completion(done, node));
                    peak = peak.max(in_flight.len());
                }
            }
        }
    }
    Ok(BufferReport {
        exec_ns: clock,
        drain_ns: drain_end.max(clock),
        stall_full_ns: stall_full,
        stall_sync_ns: stall_sync,
        persists: dag.len() as u64,
        peak_occupancy: peak,
    })
}

/// The unbounded-buffer throughput the paper's analytical model predicts
/// for the same inputs: `min(instruction rate, persist-bound rate)`.
pub fn analytic_rate(trace: &Trace, analysis: &AnalysisConfig, config: &BufferConfig) -> f64 {
    let report = crate::timing::analyze(trace, analysis);
    let work = report.stats.work_items.max(1);
    let events_per_work = trace.events().len() as f64 / work as f64;
    let instr_rate = 1e9 / (config.instr_ns * events_per_work);
    let pb = crate::throughput::persist_bound_rate(
        report.critical_path_per_work(),
        crate::throughput::PersistLatency::from_ns(config.persist_ns),
    );
    instr_rate.min(pb)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Model;
    use mem_trace::{FreeRunScheduler, TracedMem};

    fn chain_trace(n: u64, sync_every: Option<u64>) -> Trace {
        let mem = TracedMem::new(FreeRunScheduler);
        mem.run(1, move |ctx| {
            let a = ctx.palloc(8 * n, 64).unwrap();
            for i in 0..n {
                ctx.work_begin(i);
                ctx.store_u64(a.add(8 * i), i);
                ctx.persist_barrier();
                if let Some(k) = sync_every {
                    if (i + 1) % k == 0 {
                        ctx.persist_sync();
                    }
                }
                ctx.work_end(i);
            }
        })
    }

    #[test]
    fn unbounded_buffer_never_stalls() {
        let t = chain_trace(50, None);
        let cfg = AnalysisConfig::new(Model::Epoch);
        let r = simulate(&t, &cfg, &BufferConfig::new(1.0, 500.0, None)).unwrap();
        assert_eq!(r.stall_full_ns, 0.0);
        assert_eq!(r.stall_sync_ns, 0.0);
        // Execution finishes at instruction speed; durability lags.
        assert!(r.drain_ns > r.exec_ns);
        assert_eq!(r.persists, 50);
    }

    #[test]
    fn single_slot_buffer_serializes_chained_persists() {
        let t = chain_trace(20, None);
        let cfg = AnalysisConfig::new(Model::Epoch);
        let r = simulate(&t, &cfg, &BufferConfig::new(1.0, 500.0, Some(1))).unwrap();
        // Every persist after the first must wait out its predecessor:
        // ≈ 19 × 500 ns of stalling.
        assert!(r.stall_full_ns > 18.0 * 500.0, "stall {}", r.stall_full_ns);
        assert_eq!(r.peak_occupancy, 1);
    }

    #[test]
    fn deeper_buffers_monotonically_help() {
        let t = chain_trace(60, None);
        let cfg = AnalysisConfig::new(Model::Epoch);
        let mut prev = f64::INFINITY;
        for cap in [1usize, 2, 4, 16, 256] {
            let r = simulate(&t, &cfg, &BufferConfig::new(1.0, 500.0, Some(cap))).unwrap();
            assert!(r.exec_ns <= prev + 1e-9, "cap {cap} regressed: {} > {prev}", r.exec_ns);
            prev = r.exec_ns;
        }
        let unbounded = simulate(&t, &cfg, &BufferConfig::new(1.0, 500.0, None)).unwrap();
        assert!(unbounded.exec_ns <= prev + 1e-9);
    }

    #[test]
    fn chained_persists_drain_serially_regardless_of_depth() {
        // A dependency chain drains at one persist per latency; buffer
        // depth changes where execution waits, not when durability
        // arrives.
        let t = chain_trace(60, None);
        let cfg = AnalysisConfig::new(Model::Epoch);
        let deep = simulate(&t, &cfg, &BufferConfig::new(1.0, 500.0, Some(4))).unwrap();
        let deeper = simulate(&t, &cfg, &BufferConfig::new(1.0, 500.0, Some(64))).unwrap();
        // The shallow buffer stalls execution…
        assert!(deep.stall_full_ns > 0.0);
        assert_eq!(deeper.stall_full_ns, 0.0); // 64 slots ≥ 60 persists
        // …but the durability point is the serial chain either way.
        assert!(deep.drain_ns >= 60.0 * 500.0);
        assert!((deep.drain_ns - deeper.drain_ns).abs() / deep.drain_ns < 0.05);
    }

    #[test]
    fn persist_sync_drains_everything() {
        let t = chain_trace(20, Some(1));
        let cfg = AnalysisConfig::new(Model::Epoch);
        let r = simulate(&t, &cfg, &BufferConfig::new(1.0, 500.0, None)).unwrap();
        // With a sync after every insert, execution pays every persist.
        assert!(r.stall_sync_ns > 19.0 * 400.0, "sync stall {}", r.stall_sync_ns);
        // And durability never lags at the end.
        assert!(r.drain_ns - r.exec_ns < 500.0 + 1e-9);
    }

    #[test]
    fn concurrent_persists_overlap_in_wide_buffers() {
        // No barriers: all persists concurrent under epoch; a wide buffer
        // overlaps them all and execution never stalls.
        let mem = TracedMem::new(FreeRunScheduler);
        let t = mem.run(1, |ctx| {
            let a = ctx.palloc(512, 64).unwrap();
            for i in 0..32 {
                ctx.store_u64(a.add(8 * i), i);
            }
        });
        let cfg = AnalysisConfig::new(Model::Epoch);
        let r = simulate(&t, &cfg, &BufferConfig::new(1.0, 500.0, Some(32))).unwrap();
        assert_eq!(r.stall_full_ns, 0.0);
        assert_eq!(r.peak_occupancy, 32);
        // All 32 persists complete within ~one latency of each other.
        assert!(r.drain_ns < 33.0 + 500.0 + 2.0);
    }

    #[test]
    fn multithreaded_traces_are_rejected() {
        let mem = TracedMem::new(FreeRunScheduler);
        let t = mem.run(2, |ctx| {
            ctx.store_u64(persist_mem::MemAddr::persistent(64 * ctx.thread_id().as_u64()), 1);
        });
        let cfg = AnalysisConfig::new(Model::Epoch);
        let err = simulate(&t, &cfg, &BufferConfig::new(1.0, 500.0, None)).unwrap_err();
        assert!(matches!(err, BufferError::MultiThreaded { threads: 2 }));
        assert!(err.to_string().contains("one thread"));
    }

    #[test]
    fn converges_to_analytic_model_with_unbounded_buffer() {
        let t = chain_trace(200, None);
        let cfg = AnalysisConfig::new(Model::Epoch);
        let bc = BufferConfig::new(10.0, 500.0, None);
        let r = simulate(&t, &cfg, &bc).unwrap();
        let simulated_rate = r.rate(200);
        let analytic = analytic_rate(&t, &cfg, &bc);
        // Unbounded buffering = the paper's analytical regime; but note
        // execution (not drain) is the completion criterion, so the
        // simulated rate equals the instruction rate here.
        assert!(
            simulated_rate >= analytic * 0.95,
            "simulated {simulated_rate} vs analytic {analytic}"
        );
    }

    #[test]
    #[should_panic(expected = "zero-slot")]
    fn zero_capacity_rejected() {
        let _ = BufferConfig::new(1.0, 500.0, Some(0));
    }
}
