//! Discrete-event NVRAM device timing model.
//!
//! The paper's evaluation deliberately measures an *implementation-
//! independent* upper bound on persist concurrency: the persist ordering
//! constraint critical path, assuming infinite bandwidth and banks (§7:
//! "at worst, constraints within the memory system limit persist rate,
//! such as bank conflicts or bandwidth limitations"). This crate models
//! those at-worst effects that the paper leaves to future work: it replays
//! a persist-order DAG through a banked NVRAM device and reports where the
//! device — rather than the persistency model — becomes the bottleneck.
//!
//! # Model
//!
//! - Persists become *ready* when all their ordering predecessors have
//!   completed (the persistency model's constraints).
//! - Each persist is serviced by the bank its address interleaves to; a
//!   bank services one persist at a time, each taking the device's write
//!   latency.
//! - Banks service their queues first-come-first-served in trace order.
//!
//! With unlimited banks the makespan converges to
//! `critical_path × latency`, the paper's analytical bound.
//!
//! # Example
//!
//! ```rust
//! use mem_trace::{TracedMem, FreeRunScheduler};
//! use persistency::{dag::PersistDag, AnalysisConfig, Model};
//! use nvram::{DeviceConfig, replay};
//!
//! let mem = TracedMem::new(FreeRunScheduler);
//! let trace = mem.run(1, |ctx| {
//!     let a = ctx.palloc(2048, 256).unwrap();
//!     for i in 0..8 {
//!         ctx.store_u64(a.add(256 * i), i); // all concurrent under epoch,
//!                                           // one per 256-byte bank region
//!     }
//! });
//! let dag = PersistDag::build(&trace, &AnalysisConfig::new(Model::Epoch)).unwrap();
//!
//! let wide = replay(&dag, &DeviceConfig::new(1024, 500.0));
//! let narrow = replay(&dag, &DeviceConfig::new(1, 500.0));
//! assert!(narrow.makespan_ns > wide.makespan_ns); // bank conflicts bind
//! assert_eq!(wide.makespan_ns, wide.ideal_ns);    // ∞ banks ⇒ critical path
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod wear;

use persistency::dag::PersistDag;

/// NVRAM device parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DeviceConfig {
    /// Number of independently serviceable banks.
    pub banks: usize,
    /// Write (persist) latency per operation, in nanoseconds. NVRAM cell
    /// writes take up to 1 µs depending on technology and MLC use (§2.1).
    pub write_latency_ns: f64,
    /// Address-interleave granularity in bytes: consecutive
    /// `interleave_bytes` regions map to consecutive banks.
    pub interleave_bytes: u64,
}

impl DeviceConfig {
    /// Creates a config with the default 256-byte bank interleave.
    ///
    /// # Panics
    ///
    /// Panics if `banks` is zero or the latency is not positive.
    pub fn new(banks: usize, write_latency_ns: f64) -> Self {
        assert!(banks > 0, "device needs at least one bank");
        assert!(
            write_latency_ns.is_finite() && write_latency_ns > 0.0,
            "write latency must be positive"
        );
        DeviceConfig { banks, write_latency_ns, interleave_bytes: 256 }
    }

    /// Sets the interleave granularity.
    ///
    /// # Panics
    ///
    /// Panics unless `bytes` is a positive power of two.
    #[must_use]
    pub fn with_interleave(mut self, bytes: u64) -> Self {
        assert!(bytes.is_power_of_two(), "interleave must be a power of two");
        self.interleave_bytes = bytes;
        self
    }

    /// Bank servicing `addr`: consecutive `interleave_bytes` regions of the
    /// persistent offset space map to consecutive banks, wrapping. Public so
    /// other device consumers (the `serve` harness schedules live persists
    /// through the same bank map) agree with [`replay`] on placement.
    pub fn bank_of(&self, addr: persist_mem::MemAddr) -> usize {
        ((addr.offset() / self.interleave_bytes) % self.banks as u64) as usize
    }

    /// Bank servicing cache line `line` (line index = persistent offset /
    /// [`persist_mem::CACHE_LINE_BYTES`]). Line-indexed consumers (the
    /// `serve` group-persist scheduler keys its dirty set and wear map by
    /// line) get the same placement as [`DeviceConfig::bank_of`] without
    /// round-tripping through an address.
    pub fn bank_of_line(&self, line: u64) -> usize {
        ((line * persist_mem::CACHE_LINE_BYTES / self.interleave_bytes) % self.banks as u64)
            as usize
    }
}

/// Outcome of replaying a persist DAG through a device.
#[derive(Debug, Clone, PartialEq)]
pub struct ReplayReport {
    /// Time at which the last persist completed.
    pub makespan_ns: f64,
    /// The paper's analytical bound: critical path × write latency.
    pub ideal_ns: f64,
    /// Number of persists that waited on a busy bank after being ready.
    pub bank_conflicts: u64,
    /// Total time persists spent waiting on busy banks.
    pub stall_ns: f64,
    /// Persists serviced.
    pub persists: u64,
    /// Busy fraction of the busiest bank over the makespan.
    pub peak_bank_utilization: f64,
}

impl ReplayReport {
    /// How much worse the device makespan is than the analytical bound
    /// (1.0 = device adds nothing).
    pub fn slowdown(&self) -> f64 {
        if self.ideal_ns == 0.0 {
            1.0
        } else {
            self.makespan_ns / self.ideal_ns
        }
    }
}

/// Replays `dag` through the device, first-come-first-served per bank in
/// node-creation (trace) order.
pub fn replay(dag: &PersistDag, cfg: &DeviceConfig) -> ReplayReport {
    let lat = cfg.write_latency_ns;
    let n = dag.len();
    let mut complete = vec![0.0f64; n];
    let mut bank_free = vec![0.0f64; cfg.banks];
    let mut bank_busy = vec![0.0f64; cfg.banks];
    let mut conflicts = 0u64;
    let mut stall = 0.0f64;
    let mut makespan = 0.0f64;
    for (i, node) in dag.nodes().iter().enumerate() {
        let ready = dag
            .deps(i as u32)
            .iter()
            .map(|&d| complete[d as usize])
            .fold(0.0f64, f64::max);
        // A coalesced node still writes one atomic block; service it on the
        // bank of its first write.
        let bank = cfg.bank_of(node.writes[0].addr);
        let start = ready.max(bank_free[bank]);
        if start > ready {
            conflicts += 1;
            stall += start - ready;
        }
        let done = start + lat;
        complete[i] = done;
        bank_free[bank] = done;
        bank_busy[bank] += lat;
        makespan = makespan.max(done);
    }
    let peak = if makespan > 0.0 {
        bank_busy.iter().cloned().fold(0.0f64, f64::max) / makespan
    } else {
        0.0
    };
    ReplayReport {
        makespan_ns: makespan,
        ideal_ns: dag.critical_path() as f64 * lat,
        bank_conflicts: conflicts,
        stall_ns: stall,
        persists: n as u64,
        peak_bank_utilization: peak,
    }
}

/// Sweeps bank counts and returns `(banks, makespan_ns)` pairs — the
/// bank-sensitivity ablation.
pub fn bank_sweep(dag: &PersistDag, latency_ns: f64, banks: &[usize]) -> Vec<(usize, f64)> {
    banks
        .iter()
        .map(|&b| (b, replay(dag, &DeviceConfig::new(b, latency_ns)).makespan_ns))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use mem_trace::{FreeRunScheduler, TracedMem};
    use persistency::{AnalysisConfig, Model};

    fn antichain_dag(n: u64) -> PersistDag {
        let mem = TracedMem::new(FreeRunScheduler);
        let t = mem.run(1, move |ctx| {
            // One persist per 256-byte interleave region, so each lands on
            // its own bank when banks are plentiful.
            let a = ctx.palloc(256 * n, 256).unwrap();
            for i in 0..n {
                ctx.store_u64(a.add(256 * i), i);
            }
        });
        PersistDag::build(&t, &AnalysisConfig::new(Model::Epoch)).unwrap()
    }

    fn chain_dag(n: u64) -> PersistDag {
        let mem = TracedMem::new(FreeRunScheduler);
        let t = mem.run(1, move |ctx| {
            let a = ctx.palloc(64 * n, 64).unwrap();
            for i in 0..n {
                ctx.store_u64(a.add(64 * i), i);
                ctx.persist_barrier();
            }
        });
        PersistDag::build(&t, &AnalysisConfig::new(Model::Epoch)).unwrap()
    }

    #[test]
    fn infinite_banks_match_critical_path() {
        let dag = antichain_dag(16);
        let r = replay(&dag, &DeviceConfig::new(4096, 500.0));
        assert_eq!(r.makespan_ns, 500.0);
        assert_eq!(r.slowdown(), 1.0);
        assert_eq!(r.bank_conflicts, 0);
    }

    #[test]
    fn single_bank_serializes_everything() {
        let dag = antichain_dag(16);
        let r = replay(&dag, &DeviceConfig::new(1, 500.0));
        assert_eq!(r.makespan_ns, 16.0 * 500.0);
        assert_eq!(r.bank_conflicts, 15);
        assert!(r.stall_ns > 0.0);
        assert!((r.peak_bank_utilization - 1.0).abs() < 1e-9);
    }

    #[test]
    fn chains_are_insensitive_to_banks() {
        let dag = chain_dag(8);
        let wide = replay(&dag, &DeviceConfig::new(64, 100.0));
        let narrow = replay(&dag, &DeviceConfig::new(1, 100.0));
        // All persists map to distinct... chains serialize regardless.
        assert_eq!(wide.makespan_ns, 800.0);
        assert_eq!(narrow.makespan_ns, 800.0);
    }

    #[test]
    fn bank_sweep_is_monotone() {
        let dag = antichain_dag(32);
        let sweep = bank_sweep(&dag, 500.0, &[1, 2, 4, 8, 1024]);
        for w in sweep.windows(2) {
            assert!(w[0].1 >= w[1].1, "more banks should never slow down: {sweep:?}");
        }
        assert_eq!(sweep.last().unwrap().1, 500.0);
    }

    #[test]
    fn interleave_controls_conflicts() {
        // 8 concurrent persists within one 512-byte span: a 512-byte
        // interleave sends them all to one bank; a 64-byte interleave
        // spreads them over 8 banks.
        let mem = TracedMem::new(FreeRunScheduler);
        let t = mem.run(1, |ctx| {
            let a = ctx.palloc(512, 512).unwrap();
            for i in 0..8 {
                ctx.store_u64(a.add(64 * i), i);
            }
        });
        let dag = PersistDag::build(&t, &AnalysisConfig::new(Model::Epoch)).unwrap();
        let coarse = replay(&dag, &DeviceConfig::new(8, 100.0).with_interleave(512));
        let fine = replay(&dag, &DeviceConfig::new(8, 100.0).with_interleave(64));
        assert_eq!(coarse.makespan_ns, 800.0);
        assert_eq!(fine.makespan_ns, 100.0);
    }

    #[test]
    fn empty_dag_is_benign() {
        let mem = TracedMem::new(FreeRunScheduler);
        let t = mem.run(1, |ctx| {
            ctx.store_u64(persist_mem::MemAddr::volatile(0), 1);
        });
        let dag = PersistDag::build(&t, &AnalysisConfig::new(Model::Epoch)).unwrap();
        let r = replay(&dag, &DeviceConfig::new(4, 500.0));
        assert_eq!(r.makespan_ns, 0.0);
        assert_eq!(r.persists, 0);
        assert_eq!(r.slowdown(), 1.0);
    }

    #[test]
    #[should_panic(expected = "at least one bank")]
    fn zero_banks_rejected() {
        let _ = DeviceConfig::new(0, 500.0);
    }
}
