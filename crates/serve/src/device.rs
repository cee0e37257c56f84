//! Live per-shard NVRAM device scheduling.
//!
//! `nvram::replay` services a *finished* persist DAG; a service harness
//! needs the dual view: persists arrive one at a time, while the store is
//! executing requests, and the persistency model decides how much ordering
//! each new persist inherits from the ones already in flight. This module
//! keeps exactly the state that decision needs — per-bank free times, a
//! model-dependent dependence horizon, per-line completion times for BPFS
//! — and answers one question per operation: *when is this request
//! durable?*
//!
//! The model's [`Rules`] decide the schedule. Where a store needs no
//! flush, it is its own device write and the front end is *unbuffered*
//! (the thread stalls until durability); otherwise stores mark lines
//! dirty, a flush turns each dirty line into one device write (same-line
//! stores coalesce), and the front end is *buffered*. A write waits for
//! its predecessor under [`DeviceOrder`]: the previous write (one chain),
//! every write before the last fence, or the previous write to its line.
//! A strand barrier discards the dependence horizon where the rules have
//! strands.
//!
//! Times are `f64` nanoseconds. Everything here is deterministic given the
//! call sequence, which is what makes the virtual-time smoke mode
//! byte-identical across worker counts.

use nvram::DeviceConfig;
use persist_mem::{DirectPmem, FxHashMap, MemAddr, PmemBackend, CACHE_LINE_BYTES};
use persistency::rules::{DeviceOrder, Rules};
use persistency::Model;

/// Aggregate device-side accounting for one shard.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DeviceStats {
    /// Persistent-space stores issued by the protocols (pre-coalescing).
    pub stores: u64,
    /// Writes the device actually serviced.
    pub device_writes: u64,
    /// Persists that found their bank busy after becoming ready.
    pub bank_conflicts: u64,
    /// Total time persists spent queued on busy banks.
    pub bank_wait_ns: f64,
    /// Completion time of the last persist serviced.
    pub last_done_ns: f64,
    /// Distinct wear blocks (cache lines) written.
    pub wear_blocks: u64,
    /// Writes to the most-written wear block.
    pub wear_max_block: u64,
}

impl DeviceStats {
    /// Stores absorbed by write coalescing (zero under the strict models,
    /// which persist store-granular).
    pub fn absorbed(&self) -> u64 {
        self.stores.saturating_sub(self.device_writes)
    }

    /// Folds another shard's accounting in (field-wise; `wear_max_block`
    /// takes the max since shards are disjoint physical regions).
    pub fn merge(&mut self, other: &DeviceStats) {
        self.stores += other.stores;
        self.device_writes += other.device_writes;
        self.bank_conflicts += other.bank_conflicts;
        self.bank_wait_ns += other.bank_wait_ns;
        self.last_done_ns = self.last_done_ns.max(other.last_done_ns);
        self.wear_blocks += other.wear_blocks;
        self.wear_max_block = self.wear_max_block.max(other.wear_max_block);
    }
}

/// The per-shard device scheduler. One instance per shard: shards are
/// independent recovery units with independent bank arrays, so persists
/// never contend across shards.
#[derive(Debug, Clone)]
pub struct ShardDevice {
    cfg: DeviceConfig,
    rules: Rules,
    now_ns: f64,
    /// When each bank next becomes free.
    bank_free: Vec<f64>,
    /// Everything a new persist must wait for: the previous write under a
    /// chain, every write before the last fence under fences.
    dep_horizon: f64,
    /// Max completion among persists issued since the last fence.
    epoch_max_done: f64,
    /// Max completion among persists issued by the current operation.
    op_max_done: f64,
    /// Completion time of the last persist per line (per-line ordering).
    line_last_done: FxHashMap<u64, f64>,
    /// Lines stored since their last flush (coalescing under the buffered
    /// models); tiny per operation, scanned linearly.
    dirty: Vec<u64>,
    /// Writes per wear block (one block per cache line).
    wear: FxHashMap<u64, u64>,
    /// Inside a group-persist window ([`ShardDevice::begin_group`]): the
    /// buffered models defer flushes and fences to the closing barrier.
    in_group: bool,
    /// Max completion among persists serviced since `begin_group`.
    group_max_done: f64,
    /// When set, every serviced line is appended (test instrumentation for
    /// schedule-differential properties).
    schedule_log: Option<Vec<u64>>,
    /// Timeline lane `(pid, tid, sample)` for bank-stall and
    /// group-persist instants; `None` unless the harness armed the
    /// timeline for this shard's run.
    track: Option<(u64, u64, u64)>,
    stats: DeviceStats,
}

impl ShardDevice {
    /// A fresh device for one shard.
    pub fn new(cfg: DeviceConfig, model: Model) -> Self {
        ShardDevice {
            bank_free: vec![0.0; cfg.banks],
            cfg,
            rules: model.rules(),
            now_ns: 0.0,
            dep_horizon: 0.0,
            epoch_max_done: 0.0,
            op_max_done: 0.0,
            line_last_done: FxHashMap::default(),
            dirty: Vec::new(),
            wear: FxHashMap::default(),
            in_group: false,
            group_max_done: 0.0,
            schedule_log: None,
            track: None,
            stats: DeviceStats::default(),
        }
    }

    /// Attaches the device to timeline lane `(pid, tid)`: bank-conflict
    /// stalls emit keep-1-in-`sample` instants and every group-persist
    /// close emits one, all on the shard's virtual (or wall) clock.
    pub fn set_track(&mut self, pid: u64, tid: u64, sample: u64) {
        self.track = Some((pid, tid, sample.max(1)));
    }

    /// Starts an operation dispatched at `now_ns`. Subsequent persists are
    /// issued no earlier than this instant.
    pub fn begin_op(&mut self, now_ns: f64) {
        self.now_ns = now_ns;
        self.op_max_done = now_ns;
    }

    /// Ends the operation: given when its CPU work finished, returns when
    /// the *request* is durable (CPU done and every persist it issued
    /// complete).
    pub fn end_op(&mut self, cpu_done_ns: f64) -> f64 {
        cpu_done_ns.max(self.op_max_done)
    }

    /// Opens a group-persist window at `now_ns`. Operations inside the
    /// window still run their own [`ShardDevice::begin_op`] /
    /// [`ShardDevice::end_op`] brackets, but the *buffered* models defer
    /// every flush and fence to the closing barrier ([`ShardDevice::
    /// end_group`]), so the whole batch coalesces dirty lines batch-wide
    /// and pays one epoch barrier instead of one per request. The strict
    /// models are untouched — their persists stay store-granular and keep
    /// exactly the dependence chain an unbatched run would build, which is
    /// what makes group mode schedule-transparent under strict (see the
    /// differential tests).
    pub fn begin_group(&mut self, now_ns: f64) {
        self.now_ns = now_ns;
        self.group_max_done = now_ns;
        self.in_group = true;
    }

    /// Closes the group: flushes every line still dirty (the batch-wide
    /// coalescing point), issues the single closing fence, and returns
    /// when the whole group is durable (never earlier than `cpu_done_ns`,
    /// the batch's last CPU completion).
    pub fn end_group(&mut self, cpu_done_ns: f64) -> f64 {
        self.in_group = false;
        let mut flushed = 0usize;
        if self.rules.needs_flush() {
            // The closing barrier is issued once the batch's CPU work has
            // drained; each deferred line becomes one device write here no
            // matter how many requests stored to it.
            self.now_ns = self.now_ns.max(cpu_done_ns);
            for i in 0..self.dirty.len() {
                self.schedule(self.dirty[i]);
            }
            flushed = self.dirty.len();
            self.dirty.clear();
            self.fence();
        }
        let done = cpu_done_ns.max(self.group_max_done);
        if let Some((pid, tid, _)) = self.track {
            obsv::tracefmt::instant(
                pid,
                tid,
                "group-persist",
                done,
                &[("writes", flushed.to_string())],
            );
        }
        done
    }

    /// Accounting snapshot, with the wear map folded in.
    pub fn stats(&self) -> DeviceStats {
        let mut s = self.stats.clone();
        s.wear_blocks = self.wear.len() as u64;
        s.wear_max_block = self.wear.values().copied().max().unwrap_or(0);
        s
    }

    fn line_of(addr: MemAddr) -> u64 {
        addr.offset() / CACHE_LINE_BYTES
    }

    /// Services one cache-line write: waits for the model's ordering
    /// predecessor and the line's bank, then occupies the bank for one
    /// write latency.
    fn schedule(&mut self, line: u64) {
        let bank = self.cfg.bank_of_line(line);
        let order = self.rules.device();
        let ready = match order {
            DeviceOrder::Lines => {
                self.now_ns.max(self.line_last_done.get(&line).copied().unwrap_or(0.0))
            }
            DeviceOrder::Chain | DeviceOrder::Fences => self.now_ns.max(self.dep_horizon),
        };
        let start = ready.max(self.bank_free[bank]);
        if start > ready {
            self.stats.bank_conflicts += 1;
            self.stats.bank_wait_ns += start - ready;
            if let Some((pid, tid, sample)) = self.track {
                if (self.stats.bank_conflicts - 1) % sample == 0 {
                    obsv::tracefmt::instant(
                        pid,
                        tid,
                        "bank-stall",
                        ready,
                        &[("bank", bank.to_string()), ("wait_ns", format!("{:.0}", start - ready))],
                    );
                }
            }
        }
        let done = start + self.cfg.write_latency_ns;
        self.bank_free[bank] = done;
        self.epoch_max_done = self.epoch_max_done.max(done);
        self.op_max_done = self.op_max_done.max(done);
        self.stats.last_done_ns = self.stats.last_done_ns.max(done);
        if order == DeviceOrder::Chain {
            self.dep_horizon = done;
        } else if order == DeviceOrder::Lines {
            self.line_last_done.insert(line, done);
        }
        *self.wear.entry(line).or_insert(0) += 1;
        self.stats.device_writes += 1;
        self.group_max_done = self.group_max_done.max(done);
        if let Some(log) = &mut self.schedule_log {
            log.push(line);
        }
    }

    /// Turns schedule recording on or off (clearing any recorded lines).
    /// Test instrumentation: with recording on, [`ShardDevice::
    /// schedule_log`] exposes every serviced line in service order, which
    /// is what the batching differential properties compare.
    pub fn record_schedule(&mut self, on: bool) {
        self.schedule_log = on.then(Vec::new);
    }

    /// Lines serviced so far, in service order (empty unless
    /// [`ShardDevice::record_schedule`] enabled recording).
    pub fn schedule_log(&self) -> &[u64] {
        self.schedule_log.as_deref().unwrap_or(&[])
    }

    /// A store of `len` bytes at `addr` in the persistent space.
    pub fn store(&mut self, addr: MemAddr, len: u64) {
        self.stats.stores += 1;
        let first = Self::line_of(addr);
        let last = Self::line_of(addr.add(len.max(1) - 1));
        for line in first..=last {
            if !self.rules.needs_flush() {
                // Store-granular persists: service immediately.
                self.schedule(line);
            } else if !self.dirty.contains(&line) {
                // Flush-granular: just mark the line dirty.
                self.dirty.push(line);
            }
        }
    }

    /// A cache-line flush over `[addr, addr + len)`: under the buffered
    /// models this is where dirty lines become device writes.
    pub fn flush(&mut self, addr: MemAddr, len: u64) {
        if !self.rules.needs_flush() {
            return; // already serviced at store time
        }
        if self.in_group {
            return; // deferred: lines stay dirty until the closing barrier
        }
        let first = Self::line_of(addr);
        let last = Self::line_of(addr.add(len.max(1) - 1));
        let mut i = 0;
        while i < self.dirty.len() {
            let line = self.dirty[i];
            if line >= first && line <= last {
                self.dirty.swap_remove(i);
                self.schedule(line);
            } else {
                i += 1;
            }
        }
    }

    /// A persist fence: later persists wait for everything fenced here —
    /// unless writes are ordered per line, or by a chain that already
    /// covers it.
    pub fn fence(&mut self) {
        if self.in_group && self.rules.needs_flush() {
            // Group persist: the request opted into group-granular
            // durability, so intra-group epoch boundaries dissolve into the
            // closing barrier — the amortization the batch is for.
            return;
        }
        if self.rules.device() == DeviceOrder::Fences {
            self.dep_horizon = self.dep_horizon.max(self.epoch_max_done);
        }
        self.epoch_max_done = 0.0;
    }

    /// A strand barrier (§5.3): under strand persistency the accumulated
    /// dependences vanish — the next persist only contends for banks.
    pub fn strand(&mut self) {
        if self.rules.strands() {
            self.dep_horizon = 0.0;
            self.epoch_max_done = 0.0;
        }
    }
}

/// A [`PmemBackend`] that stores into a [`DirectPmem`] image (so the
/// structures' contents and recovery work exactly as in the golden runs)
/// while mirroring every persistence event into a [`ShardDevice`] for
/// timing.
#[derive(Debug)]
pub struct DevicePmem<'a> {
    /// Backing image: contents are authoritative for loads and recovery.
    pub mem: &'a mut DirectPmem,
    /// Timing mirror.
    pub dev: &'a mut ShardDevice,
}

impl PmemBackend for DevicePmem<'_> {
    fn load(&mut self, addr: MemAddr, buf: &mut [u8]) {
        self.mem.load(addr, buf);
    }

    fn store(&mut self, addr: MemAddr, data: &[u8]) {
        if addr.is_persistent() {
            self.dev.store(addr, data.len() as u64);
        }
        self.mem.store(addr, data);
    }

    fn flush(&mut self, addr: MemAddr, len: u64) {
        if addr.is_persistent() {
            self.dev.flush(addr, len);
        }
    }

    fn fence(&mut self) {
        self.dev.fence();
    }

    fn strand(&mut self) {
        self.dev.strand();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dev(model: Model, banks: usize) -> ShardDevice {
        ShardDevice::new(DeviceConfig::new(banks, 100.0).with_interleave(64), model)
    }

    fn addr(line: u64) -> MemAddr {
        MemAddr::persistent(line * CACHE_LINE_BYTES)
    }

    #[test]
    fn strict_chains_even_across_banks() {
        let mut d = dev(Model::Strict, 64);
        d.begin_op(0.0);
        d.store(addr(0), 8);
        d.store(addr(1), 8); // different bank, still chained
        let done = d.end_op(0.0);
        assert_eq!(done, 200.0);
        assert_eq!(d.stats().device_writes, 2);
        assert_eq!(d.stats().absorbed(), 0);
    }

    #[test]
    fn strict_rmo_is_parallel_within_an_epoch() {
        let mut d = dev(Model::StrictRmo, 64);
        d.begin_op(0.0);
        d.store(addr(0), 8);
        d.store(addr(1), 8);
        assert_eq!(d.end_op(0.0), 100.0); // concurrent on distinct banks
        d.fence();
        d.begin_op(0.0);
        d.store(addr(2), 8);
        assert_eq!(d.end_op(0.0), 200.0); // ordered after the fenced epoch
    }

    #[test]
    fn epoch_coalesces_same_line_stores() {
        let mut d = dev(Model::Epoch, 8);
        d.begin_op(0.0);
        d.store(addr(0), 8);
        d.store(addr(0).add(8), 8);
        d.store(addr(0).add(16), 8);
        d.flush(addr(0), CACHE_LINE_BYTES);
        d.fence();
        assert_eq!(d.end_op(0.0), 100.0); // one device write
        let s = d.stats();
        assert_eq!(s.stores, 3);
        assert_eq!(s.device_writes, 1);
        assert_eq!(s.absorbed(), 2);
    }

    #[test]
    fn epoch_fence_orders_epochs() {
        let mut d = dev(Model::Epoch, 64);
        d.begin_op(0.0);
        d.store(addr(0), 8);
        d.flush(addr(0), 8);
        d.fence();
        d.store(addr(1), 8);
        d.flush(addr(1), 8);
        assert_eq!(d.end_op(0.0), 200.0); // second epoch after the first
    }

    #[test]
    fn bpfs_orders_only_same_line() {
        let mut d = dev(Model::Bpfs, 64);
        d.begin_op(0.0);
        d.store(addr(0), 8);
        d.flush(addr(0), 8);
        d.fence();
        d.store(addr(1), 8); // different line: unordered
        d.flush(addr(1), 8);
        assert_eq!(d.end_op(0.0), 100.0);
        d.fence();
        d.begin_op(0.0);
        d.store(addr(0), 8); // same line as the first: chained
        d.flush(addr(0), 8);
        assert_eq!(d.end_op(0.0), 200.0);
    }

    #[test]
    fn strand_barrier_clears_dependences() {
        let mut d = dev(Model::Strand, 64);
        d.begin_op(0.0);
        d.store(addr(0), 8);
        d.flush(addr(0), 8);
        d.fence();
        d.strand();
        d.begin_op(0.0);
        d.store(addr(1), 8);
        d.flush(addr(1), 8);
        assert_eq!(d.end_op(0.0), 100.0); // independent of the first strand

        // Without the strand barrier the fence would have ordered it.
        let mut e = dev(Model::Strand, 64);
        e.begin_op(0.0);
        e.store(addr(0), 8);
        e.flush(addr(0), 8);
        e.fence();
        e.begin_op(0.0);
        e.store(addr(1), 8);
        e.flush(addr(1), 8);
        assert_eq!(e.end_op(0.0), 200.0);
    }

    #[test]
    fn bank_conflicts_are_counted_and_waited() {
        // Two concurrent persists on the same bank (same interleave region).
        let mut d = ShardDevice::new(DeviceConfig::new(2, 100.0).with_interleave(256), Model::Epoch);
        d.begin_op(0.0);
        d.store(addr(0), 8);
        d.store(addr(1), 8); // lines 0 and 1 share the 256-byte region
        d.flush(addr(0), 2 * CACHE_LINE_BYTES);
        let done = d.end_op(0.0);
        assert_eq!(done, 200.0);
        let s = d.stats();
        assert_eq!(s.bank_conflicts, 1);
        assert_eq!(s.bank_wait_ns, 100.0);
    }

    #[test]
    fn wear_tracks_hot_lines() {
        let mut d = dev(Model::Strand, 8);
        for i in 0..10 {
            d.begin_op(i as f64 * 1000.0);
            d.strand();
            d.store(addr(0), 8); // hot line
            d.store(addr(1 + i), 8);
            d.flush(addr(0), 8);
            d.flush(addr(1 + i), 8);
            d.fence();
        }
        let s = d.stats();
        assert_eq!(s.wear_max_block, 10);
        assert_eq!(s.wear_blocks, 11);
        assert_eq!(s.device_writes, 20);
    }

    #[test]
    fn multi_line_store_touches_every_line() {
        let mut d = dev(Model::Strict, 8);
        d.begin_op(0.0);
        d.store(addr(0).add(60), 8); // straddles lines 0 and 1
        assert_eq!(d.stats().device_writes, 2);
    }

    #[test]
    fn group_coalesces_across_operations_under_epoch() {
        // Two requests store the same line; each flushes and fences as the
        // protocols do. Ungrouped: two device writes in two epochs.
        let mut d = dev(Model::Epoch, 8);
        for _ in 0..2 {
            d.begin_op(0.0);
            d.store(addr(0), 8);
            d.flush(addr(0), 8);
            d.fence();
        }
        assert_eq!(d.stats().device_writes, 2);

        // Grouped: both requests' stores stay dirty until the closing
        // barrier, where the shared line becomes ONE device write.
        let mut g = dev(Model::Epoch, 8);
        g.begin_group(0.0);
        for _ in 0..2 {
            g.begin_op(0.0);
            g.store(addr(0), 8);
            g.flush(addr(0), 8);
            g.fence();
        }
        let done = g.end_group(0.0);
        assert_eq!(g.stats().device_writes, 1);
        assert_eq!(done, 100.0);
    }

    #[test]
    fn group_is_schedule_transparent_under_strict_family() {
        for model in [Model::Strict, Model::StrictRmo] {
            let run = |grouped: bool| {
                let mut d = dev(model, 8);
                d.record_schedule(true);
                if grouped {
                    d.begin_group(0.0);
                }
                let mut last = 0.0f64;
                for i in 0..4u64 {
                    d.begin_op(last);
                    d.store(addr(i % 2), 8);
                    d.flush(addr(i % 2), 8);
                    d.fence();
                    last = d.end_op(last);
                }
                if grouped {
                    d.end_group(last);
                }
                (d.schedule_log().to_vec(), d.stats())
            };
            let (plain_sched, plain_stats) = run(false);
            let (group_sched, group_stats) = run(true);
            assert_eq!(plain_sched, group_sched, "{model}: strict persists must not reorder");
            assert_eq!(plain_stats, group_stats, "{model}: strict timing must not change");
        }
    }

    #[test]
    fn group_closing_barrier_orders_next_group() {
        let mut d = dev(Model::Epoch, 64);
        d.begin_group(0.0);
        d.begin_op(0.0);
        d.store(addr(0), 8);
        d.flush(addr(0), 8);
        d.fence();
        d.end_op(0.0);
        let first = d.end_group(0.0);
        assert_eq!(first, 100.0);

        // The next group's persists (different line, different bank) must
        // still start after the first group's closing barrier.
        d.begin_group(first);
        d.begin_op(first);
        d.store(addr(1), 8);
        d.flush(addr(1), 8);
        d.fence();
        d.end_op(first);
        assert_eq!(d.end_group(first), 200.0);
    }

    #[test]
    fn strand_barrier_stays_live_inside_groups() {
        // Two strand operations in one group, touching the same bank: the
        // strand barrier between them still clears dependences, so only
        // bank contention orders their closing-barrier persists.
        let mut d = ShardDevice::new(DeviceConfig::new(1, 100.0).with_interleave(64), Model::Strand);
        d.begin_group(0.0);
        for i in 0..2u64 {
            d.strand();
            d.begin_op(0.0);
            d.store(addr(i), 8);
            d.flush(addr(i), 8);
            d.fence();
            d.end_op(0.0);
        }
        let done = d.end_group(0.0);
        // One bank: 2 writes serialize on the bank (100 + 100), not on any
        // inherited dependence horizon.
        assert_eq!(done, 200.0);
        assert_eq!(d.stats().bank_conflicts, 1);
    }
}
