//! The sharded open-loop harness: arrival stream → admission → shard
//! execution → per-model latency attribution.
//!
//! # Determinism (virtual-time mode)
//!
//! Each shard's simulation depends only on `(config, model, shard id)`.
//! The run drains the seeded global arrival stream once, up front, and
//! routes every request into its shard's `ArrivalLog` (about 6 B per
//! request); each shard then replays its own log — exactly its share of
//! the stream, in stream order — and advances its private device clock.
//! No state crosses shards, so shards can be simulated on any number of
//! workers; only `workers` shards (several MB of image and device state
//! each) are live at once, while the logs of all of them cost a few bytes
//! per request. Results are merged in shard order, every histogram merge
//! is commutative elementwise addition, and all derived floats are
//! computed from the merged values in a fixed order — the rendered report
//! is byte-identical for any worker count.
//!
//! # Wall-clock mode
//!
//! One shard engine, two clocks. `ShardRun` holds a shard's whole state
//! machine — admission, shedding, batch deadlines, group-persist dispatch
//! and latency attribution — and reads time only through a `Clock`.
//! Virtual mode's clock advances a cursor through the shard's own work;
//! wall mode's reads a shared `Instant`: a batch starts when it is
//! dispatched, CPU work ends when execution returns, and under the
//! unbuffered strict models the worker spins until the device model says
//! the operation is durable, so persist stalls cost real wall time. What
//! differs is the input path: each wall worker owns a disjoint shard set,
//! regenerates the stream, keeps its own shards' requests and paces each
//! one to its arrival instant before feeding the same engine calls.
//! Reported latency is `durable − arrival` either way.

use crate::device::DeviceStats;
use crate::gen::{route, shard_of, ArrivalLog, Op, OpKind, OpStream, Zipfian};
use crate::shard::{Shard, StoreKind};
use nvram::DeviceConfig;
use obsv::hist::Histogram;
use obsv::{series, tracefmt};
use persistency::Model;
use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap};
use std::time::Instant;

/// Full harness configuration.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Structure every shard runs.
    pub kind: StoreKind,
    /// Number of shards (independent recovery units).
    pub shards: usize,
    /// Distinct keys in the keyspace.
    pub keys: u64,
    /// Total requests generated.
    pub ops: u64,
    /// Open-loop arrival rate, requests per second.
    pub rate_ops_per_sec: f64,
    /// Zipfian skew in `[0, 1)`; 0 = uniform.
    pub theta: f64,
    /// Fraction of requests that are gets.
    pub get_ratio: f64,
    /// Admission bound: in-flight requests a shard holds before shedding.
    pub qdepth: usize,
    /// Group-persist batch bound: admitted requests a shard accumulates
    /// before dispatching them back-to-back as one persist group. 1 =
    /// unbatched (every request is its own group; bit-identical to the
    /// pre-batching harness).
    pub batch: usize,
    /// Batch deadline: a partial batch dispatches once its oldest member
    /// has waited this long, so batching cannot hold a request hostage at
    /// low load.
    pub batch_wait_ns: f64,
    /// CPU cost per request in virtual mode, nanoseconds.
    pub cpu_ns: f64,
    /// NVRAM banks per shard.
    pub banks: usize,
    /// NVRAM write latency, nanoseconds.
    pub write_latency_ns: f64,
    /// Bank interleave granularity, bytes (power of two).
    pub interleave_bytes: u64,
    /// Generator seed.
    pub seed: u64,
}

impl ServeConfig {
    /// The `psim serve` defaults: a million-key Zipfian kv workload.
    pub fn new(kind: StoreKind) -> Self {
        ServeConfig {
            kind,
            shards: 8,
            keys: 1_000_000,
            ops: 1_000_000,
            rate_ops_per_sec: 500_000.0,
            theta: 0.99,
            get_ratio: 0.5,
            qdepth: 64,
            batch: 1,
            batch_wait_ns: 2_000.0,
            cpu_ns: 250.0,
            banks: 8,
            write_latency_ns: 500.0,
            interleave_bytes: 256,
            seed: 42,
        }
    }

    /// A small configuration for tests and CI smoke runs.
    pub fn smoke(kind: StoreKind) -> Self {
        ServeConfig {
            keys: 20_000,
            ops: 60_000,
            rate_ops_per_sec: 2_000_000.0,
            ..ServeConfig::new(kind)
        }
    }

    /// The per-shard device model.
    pub fn device(&self) -> DeviceConfig {
        DeviceConfig::new(self.banks, self.write_latency_ns).with_interleave(self.interleave_bytes)
    }

    fn expected_keys_per_shard(&self) -> u64 {
        (self.keys / self.shards as u64).max(1)
    }

    fn expected_puts_per_shard(&self) -> u64 {
        let puts = (self.ops as f64 * (1.0 - self.get_ratio)) as u64;
        (puts / self.shards as u64).max(1)
    }
}

/// Arrival pacing mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Deterministic discrete-event simulation on virtual time.
    Virtual,
    /// Real threads paced against the wall clock.
    Wall,
}

impl Mode {
    /// Name used in reports.
    pub fn name(self) -> &'static str {
        match self {
            Mode::Virtual => "virtual",
            Mode::Wall => "wall",
        }
    }
}

/// Merged result of one model's run.
#[derive(Debug, Clone)]
pub struct ModelReport {
    /// Model the shards ran under.
    pub model: Model,
    /// Requests generated (all shards).
    pub offered: u64,
    /// Requests admitted and completed.
    pub completed: u64,
    /// Requests shed at admission (queue full).
    pub shed: u64,
    /// Puts executed.
    pub puts: u64,
    /// Gets executed.
    pub gets: u64,
    /// Gets that found a value.
    pub hits: u64,
    /// Request latency (durable − arrival), nanoseconds.
    pub latency: Histogram,
    /// Persist stall (durable − CPU completion), nanoseconds: the persist
    /// backpressure each model leaves on the response path.
    pub stall: Histogram,
    /// Admission wait (dispatch − arrival), nanoseconds.
    pub queue_wait: Histogram,
    /// Device-side accounting summed over shards.
    pub device: DeviceStats,
    /// Persist groups dispatched (== `completed` when `batch` is 1).
    pub batches: u64,
    /// Groups dispatched because they filled to the batch bound (the rest
    /// closed on the batch-wait deadline or at end of stream).
    pub batches_full: u64,
    /// Completion time of the last request, nanoseconds from run start.
    pub makespan_ns: f64,
    /// Wall-clock duration of the slowest worker (wall mode only).
    pub wall_seconds: Option<f64>,
    /// Shard receiving the most requests, with its count.
    pub hottest_shard: (usize, u64),
}

impl ModelReport {
    /// Completed requests per second over the run's makespan (or wall
    /// time, in wall mode).
    pub fn throughput(&self) -> f64 {
        let secs = match self.wall_seconds {
            Some(w) if w > 0.0 => w,
            _ if self.makespan_ns > 0.0 => self.makespan_ns / 1e9,
            _ => return 0.0,
        };
        self.completed as f64 / secs
    }

    /// Mean requests per dispatched persist group (1.0 when unbatched).
    pub fn mean_batch_fill(&self) -> f64 {
        if self.batches == 0 {
            return 0.0;
        }
        self.completed as f64 / self.batches as f64
    }

    /// Shed fraction of offered load.
    pub fn shed_frac(&self) -> f64 {
        if self.offered == 0 {
            return 0.0;
        }
        self.shed as f64 / self.offered as f64
    }
}

/// One shard's simulation outcome (merged in shard order).
#[derive(Default)]
struct ShardOutcome {
    offered: u64,
    completed: u64,
    shed: u64,
    puts: u64,
    gets: u64,
    hits: u64,
    latency: Histogram,
    stall: Histogram,
    queue_wait: Histogram,
    device: DeviceStats,
    batches: u64,
    batches_full: u64,
    makespan_ns: f64,
}

impl ShardOutcome {
    /// Records one completed request's latency attribution.
    fn observe(
        &mut self,
        op: &Op,
        cpu_start: f64,
        cpu_done: f64,
        complete: f64,
        tel: &mut Telemetry,
    ) {
        let arrival = op.at_ns as f64;
        let lat = (complete - arrival).max(0.0).round() as u64;
        let stall = (complete - cpu_done).max(0.0).round() as u64;
        self.latency.observe(lat);
        self.stall.observe(stall);
        self.queue_wait.observe((cpu_start - arrival).max(0.0).round() as u64);
        if tel.obsv_on {
            obsv::observe(&tel.lat_name, lat);
        }
        if let Some(ws) = &mut tel.series {
            let agg = ws.at(complete);
            agg.completed += 1;
            agg.latency.observe(lat);
            agg.stall.observe(stall);
        }
        if let Some((pid, tid)) = tel.track {
            if self.completed % tel.sample == 0 {
                let name = match op.kind {
                    OpKind::Get => "get",
                    OpKind::Put => "put",
                };
                tracefmt::span(
                    pid,
                    tid,
                    name,
                    cpu_start,
                    (complete - cpu_start).max(0.0),
                    &[("lat_ns", lat.to_string())],
                );
            }
        }
        self.completed += 1;
        self.makespan_ns = self.makespan_ns.max(complete);
    }
}

/// The timeline track group (`pid`) for one model's serve run: the
/// model's position in [`Model::ALL`] plus one, stable across worker
/// counts and shared with the knee sweep's probe markers.
pub fn model_track(model: Model) -> u64 {
    model.index() as u64 + 1
}

/// One window's worth of a shard's series data.
#[derive(Default)]
struct WinAgg {
    completed: u64,
    shed: u64,
    latency: Histogram,
    stall: Histogram,
}

impl WinAgg {
    fn is_empty(&self) -> bool {
        self.completed == 0 && self.shed == 0
    }

    fn merge(&mut self, o: &WinAgg) {
        self.completed += o.completed;
        self.shed += o.shed;
        self.latency.merge(&o.latency);
        self.stall.merge(&o.stall);
    }
}

/// One shard's windowed-series accumulator. Requests complete in nearly
/// monotone virtual-time order per shard, so a current-window cache
/// keeps the per-request cost at a couple of integer ops; the registry
/// (string keys, global lock) is touched only once per shard, in
/// [`WinSeries::finish`]. The fold into `obsv::series` is commutative,
/// so the merged series is independent of how shards map to workers.
struct WinSeries {
    window_ns: u64,
    model: &'static str,
    cur_w: u64,
    cur: WinAgg,
    done: BTreeMap<u64, WinAgg>,
}

impl WinSeries {
    fn new(model: Model) -> Option<Self> {
        series::active().then(|| WinSeries {
            window_ns: series::window_ns(),
            model: model.name(),
            cur_w: 0,
            cur: WinAgg::default(),
            done: BTreeMap::new(),
        })
    }

    fn rotate(&mut self) {
        if self.cur.is_empty() {
            return;
        }
        let cur = std::mem::take(&mut self.cur);
        match self.done.get_mut(&self.cur_w) {
            Some(e) => e.merge(&cur),
            None => {
                self.done.insert(self.cur_w, cur);
            }
        }
    }

    /// The window accumulator for timestamp `t_ns`.
    fn at(&mut self, t_ns: f64) -> &mut WinAgg {
        let w = (t_ns.max(0.0) as u64) / self.window_ns;
        if w != self.cur_w {
            self.rotate();
            self.cur_w = w;
        }
        &mut self.cur
    }

    /// Folds every window into the global series registry.
    fn finish(mut self) {
        self.rotate();
        let m = self.model;
        for (w, agg) in &self.done {
            series::add_window(&format!("serve.win.completed.{m}"), *w, agg.completed);
            series::add_window(&format!("serve.win.shed.{m}"), *w, agg.shed);
            series::observe_window_hist(&format!("serve.win.latency_ns.{m}"), *w, &agg.latency);
            series::observe_window_hist(&format!("serve.win.persist_stall_ns.{m}"), *w, &agg.stall);
        }
    }
}

/// Per-shard telemetry sink threaded through the shard engine: the
/// aggregate obsv histogram name (recorded whenever obsv is enabled),
/// plus the optional timeline track and windowed-series accumulator
/// armed by `--timeline` / `--series-ns`.
struct Telemetry {
    obsv_on: bool,
    lat_name: String,
    /// `(pid, tid)` of this shard's timeline lane, when recording.
    track: Option<(u64, u64)>,
    /// Keep-1-in-N factor for per-request spans.
    sample: u64,
    series: Option<WinSeries>,
}

impl Telemetry {
    fn new(model: Model, shard_id: usize) -> Self {
        let track = tracefmt::recording().then(|| {
            let pid = model_track(model);
            let tid = shard_id as u64 + 1;
            tracefmt::name_process(pid, &format!("serve {}", model.name()));
            tracefmt::name_thread(pid, tid, &format!("shard {shard_id}"));
            (pid, tid)
        });
        Telemetry {
            obsv_on: obsv::enabled(),
            lat_name: format!("serve.latency_ns.{}", model.name()),
            track,
            sample: tracefmt::sample(),
            series: WinSeries::new(model),
        }
    }

    /// Records a request shed at admission, dated at its arrival.
    fn shed(&mut self, op: &Op) {
        if let Some(ws) = &mut self.series {
            ws.at(op.at_ns as f64).shed += 1;
        }
    }
}

/// Where a shard's time comes from. The shard engine ([`ShardRun`]) is
/// written once against this trait and monomorphized per mode.
trait Clock {
    /// The current instant, the shard's own work having reached `cursor`:
    /// virtual time is exactly the cursor, wall time reads the clock.
    fn now(&self, cursor: f64) -> f64;
    /// Holds the shard thread until `durable` (the unbuffered models) and
    /// returns the cursor it resumes from.
    fn hold(&self, durable: f64) -> f64;
}

/// Virtual time: only the shard's own work moves its clock.
struct Virtual;

impl Clock for Virtual {
    fn now(&self, cursor: f64) -> f64 {
        cursor
    }

    fn hold(&self, durable: f64) -> f64 {
        durable
    }
}

/// Wall time: nanoseconds since the run's shared start instant.
#[derive(Clone, Copy)]
struct Wall {
    start: Instant,
}

impl Wall {
    fn elapsed_ns(&self) -> u64 {
        self.start.elapsed().as_nanos() as u64
    }

    /// Waits for the arrival instant `at_ns` (sleep for the bulk, spin the
    /// last stretch) and returns the time it got there. A late caller is
    /// never held back: the lag shows up as the request's latency.
    fn pace(&self, at_ns: u64) -> u64 {
        loop {
            let now = self.elapsed_ns();
            if now >= at_ns {
                return now;
            }
            let gap = at_ns - now;
            if gap > 100_000 {
                std::thread::sleep(std::time::Duration::from_nanos(gap - 50_000));
            } else {
                std::hint::spin_loop();
            }
        }
    }
}

impl Clock for Wall {
    fn now(&self, _cursor: f64) -> f64 {
        self.elapsed_ns() as f64
    }

    fn hold(&self, durable: f64) -> f64 {
        while (self.elapsed_ns() as f64) < durable {
            std::hint::spin_loop();
        }
        durable
    }
}

/// One shard's state machine — admission, batching, dispatch and
/// accounting — over a [`Clock`]. Callers feed it arrivals in order:
/// [`ShardRun::expire`] then [`ShardRun::arrive`] for each request, and
/// [`ShardRun::finish`] at end of stream.
struct ShardRun<'a, C: Clock> {
    cfg: &'a ServeConfig,
    clock: C,
    /// Requests respond without waiting for durability: the model's
    /// stores persist at flushes, behind the front end.
    buffered: bool,
    batch_cap: usize,
    shard: Shard,
    tel: Telemetry,
    /// Completion instants (ns, rounded up) of admitted requests.
    inflight: BinaryHeap<Reverse<u64>>,
    /// Admitted requests waiting for their batch to close.
    batch: Vec<Op>,
    /// When the waiting batch's oldest member has waited long enough.
    deadline: f64,
    /// `(op, cpu_start, cpu_done, durable)` of the batch being dispatched.
    slots: Vec<(Op, f64, f64, f64)>,
    /// When the shard thread is next free.
    thread_free: f64,
    out: ShardOutcome,
}

impl<'a, C: Clock> ShardRun<'a, C> {
    fn new(cfg: &'a ServeConfig, model: Model, shard_id: usize, clock: C) -> Self {
        let mut shard = Shard::new(
            cfg.kind,
            model,
            cfg.device(),
            cfg.expected_keys_per_shard(),
            cfg.expected_puts_per_shard(),
        );
        let tel = Telemetry::new(model, shard_id);
        if let Some((pid, tid)) = tel.track {
            shard.dev.set_track(pid, tid, tel.sample);
        }
        let batch_cap = cfg.batch.max(1);
        ShardRun {
            cfg,
            clock,
            buffered: model.rules().needs_flush(),
            batch_cap,
            shard,
            tel,
            inflight: BinaryHeap::new(),
            batch: Vec::with_capacity(batch_cap),
            deadline: 0.0,
            slots: Vec::with_capacity(batch_cap),
            thread_free: 0.0,
            out: ShardOutcome::default(),
        }
    }

    /// Dispatches the waiting batch if its deadline passed before `now`.
    /// Virtual time dates the dispatch back to the deadline (nothing else
    /// happened on the shard in between); the wall clock dispatches now.
    fn expire(&mut self, now: u64) {
        if !self.batch.is_empty() && now as f64 > self.deadline {
            self.dispatch(self.deadline);
        }
    }

    /// Offers `op`, arriving at `now`: retires completed requests, then
    /// sheds `op` if the admission bound is reached or adds it to the
    /// batch, dispatching the batch once it is full.
    fn arrive(&mut self, op: Op, now: u64) {
        self.out.offered += 1;
        while self.inflight.peek().is_some_and(|&Reverse(c)| c <= now) {
            self.inflight.pop();
        }
        // Requests waiting in the batch occupy admission slots too.
        if self.inflight.len() + self.batch.len() >= self.cfg.qdepth {
            self.out.shed += 1;
            self.tel.shed(&op);
            return;
        }
        let t = now as f64;
        if self.batch.is_empty() {
            self.deadline = t + self.cfg.batch_wait_ns;
        }
        self.batch.push(op);
        if self.batch.len() >= self.batch_cap {
            if self.batch_cap > 1 {
                self.out.batches_full += 1;
            }
            self.dispatch(t);
        }
    }

    /// Dispatches the trailing partial batch on its deadline, then
    /// returns the shard's outcome if its recovery validates.
    fn finish(mut self) -> Result<ShardOutcome, String> {
        self.dispatch(self.deadline);
        self.out.puts = self.shard.puts;
        self.out.gets = self.shard.gets;
        self.out.hits = self.shard.hits;
        self.out.device = self.shard.dev.stats();
        // On the shard's worker thread, before that thread's closing flush.
        if let Some(ws) = self.tel.series.take() {
            ws.finish();
        }
        self.shard.validate().map(|()| self.out)
    }

    /// Executes the closed batch back-to-back on the shard, starting once
    /// it has closed (at `at`) and the shard thread is free.
    ///
    /// A singleton batch runs without a device group — bit-identical to
    /// the pre-batching harness, which is what keeps `batch = 1` runs (and
    /// every existing baseline) byte-stable. Larger batches open a device
    /// group-persist window: requests execute back-to-back, the buffered
    /// models coalesce dirty lines batch-wide and become durable together
    /// at the closing barrier, the strict models keep their per-store
    /// chains and per-request durability inside the window.
    fn dispatch(&mut self, at: f64) {
        if self.batch.is_empty() {
            return;
        }
        self.out.batches += 1;
        let grouped = self.batch.len() > 1;
        let dispatch = self.clock.now(at.max(self.thread_free));
        if grouped {
            self.shard.dev.begin_group(dispatch);
        }
        self.slots.clear();
        let mut cpu = dispatch;
        for op in &self.batch {
            let cpu_start = self.clock.now(cpu);
            self.shard.dev.begin_op(cpu_start);
            self.shard.execute(op);
            let cpu_done = self.clock.now(cpu_start + self.cfg.cpu_ns);
            let op_durable = self.shard.dev.end_op(cpu_done);
            // Buffered models release the shard thread at CPU speed; the
            // strict models hold it until each request is durable.
            cpu = if self.buffered { cpu_done } else { self.clock.hold(op_durable) };
            self.slots.push((*op, cpu_start, cpu_done, op_durable));
        }
        let group_done = grouped.then(|| self.shard.dev.end_group(self.clock.now(cpu)));
        if let (Some(group_done), Some((pid, tid))) = (group_done, self.tel.track) {
            // The batch window: open at dispatch, closed when the group's
            // barrier lands (strict models: when the last op is durable).
            tracefmt::span(
                pid,
                tid,
                "batch",
                dispatch,
                (group_done.max(cpu) - dispatch).max(0.0),
                &[("n", self.batch.len().to_string())],
            );
        }
        for &(op, cpu_start, cpu_done, op_durable) in &self.slots {
            // Group durability: buffered requests respond when the group's
            // closing barrier lands; strict requests were already durable
            // at their own chained persists.
            let complete = match group_done {
                Some(g) if self.buffered => g.max(cpu_done),
                _ => op_durable,
            };
            self.out.observe(&op, cpu_start, cpu_done, complete, &mut self.tel);
            self.inflight.push(Reverse(complete.ceil() as u64));
        }
        self.thread_free = cpu;
        self.batch.clear();
    }
}

/// Simulates one shard on virtual time, replaying its arrival log.
fn simulate_shard(
    cfg: &ServeConfig,
    model: Model,
    arrivals: &ArrivalLog,
    shard_id: usize,
) -> Result<ShardOutcome, String> {
    let mut run = ShardRun::new(cfg, model, shard_id, Virtual);
    for op in arrivals.iter() {
        run.expire(op.at_ns);
        run.arrive(op, op.at_ns);
    }
    run.finish()
}

/// Paces one worker's shard set against the wall clock: each request
/// waits for its arrival instant, every owned shard's expired batch
/// dispatches, then the request's shard admits it.
fn wall_worker(
    cfg: &ServeConfig,
    model: Model,
    zipf: &Zipfian,
    my_shards: &[usize],
    clock: Wall,
) -> Vec<(usize, Result<ShardOutcome, String>)> {
    let mut runs: Vec<(usize, ShardRun<'_, Wall>)> =
        my_shards.iter().map(|&id| (id, ShardRun::new(cfg, model, id, clock))).collect();
    for op in OpStream::new(zipf, cfg.seed, cfg.rate_ops_per_sec, cfg.get_ratio, cfg.ops) {
        let owner = shard_of(op.key, cfg.shards);
        let Some(slot) = runs.iter().position(|(id, _)| *id == owner) else { continue };
        let now = clock.pace(op.at_ns);
        for (_, run) in runs.iter_mut() {
            run.expire(now);
        }
        runs[slot].1.arrive(op, now);
    }
    // End of stream: every trailing batch dispatches now, before any
    // shard's validation runs.
    for (_, run) in runs.iter_mut() {
        run.expire(u64::MAX);
    }
    runs.into_iter().map(|(id, run)| (id, run.finish())).collect()
}

/// Merges per-shard outcomes (in shard order) into a model report.
fn merge(
    model: Model,
    outcomes: Vec<Result<ShardOutcome, String>>,
    wall: Option<f64>,
) -> Result<ModelReport, String> {
    let mut r = ModelReport {
        model,
        offered: 0,
        completed: 0,
        shed: 0,
        puts: 0,
        gets: 0,
        hits: 0,
        latency: Histogram::default(),
        stall: Histogram::default(),
        queue_wait: Histogram::default(),
        device: DeviceStats::default(),
        batches: 0,
        batches_full: 0,
        makespan_ns: 0.0,
        wall_seconds: wall,
        hottest_shard: (0, 0),
    };
    for (i, o) in outcomes.into_iter().enumerate() {
        let o = o.map_err(|e| format!("shard {i} failed validation under {model}: {e}"))?;
        r.offered += o.offered;
        r.completed += o.completed;
        r.shed += o.shed;
        r.puts += o.puts;
        r.gets += o.gets;
        r.hits += o.hits;
        r.latency.merge(&o.latency);
        r.stall.merge(&o.stall);
        r.queue_wait.merge(&o.queue_wait);
        r.device.merge(&o.device);
        r.batches += o.batches;
        r.batches_full += o.batches_full;
        r.makespan_ns = r.makespan_ns.max(o.makespan_ns);
        if o.offered > r.hottest_shard.1 {
            r.hottest_shard = (i, o.offered);
        }
    }
    if obsv::enabled() {
        obsv::counter_add("serve.completed", r.completed);
        obsv::counter_add("serve.shed", r.shed);
    }
    Ok(r)
}

/// Runs one model over all shards and merges the result.
///
/// # Errors
///
/// Returns a description if `cfg.shards` is zero or any shard fails
/// post-run recovery validation.
pub fn run_model(
    cfg: &ServeConfig,
    model: Model,
    mode: Mode,
    workers: usize,
) -> Result<ModelReport, String> {
    if cfg.shards == 0 {
        return Err("serve needs at least one shard (shards = 0)".to_string());
    }
    let zipf = Zipfian::new(cfg.keys, cfg.theta);
    match mode {
        Mode::Virtual => {
            let stream =
                OpStream::new(&zipf, cfg.seed, cfg.rate_ops_per_sec, cfg.get_ratio, cfg.ops);
            let logs = route(stream, cfg.shards);
            let outcomes =
                obsv::par_map(cfg.shards, workers, |id| simulate_shard(cfg, model, &logs[id], id));
            merge(model, outcomes, None)
        }
        Mode::Wall => {
            // Each worker paces its own shards, so every one needs a
            // thread of its own rather than a slot in a work-stealing map.
            let workers = workers.clamp(1, cfg.shards);
            let zipf = &zipf;
            let clock = Wall { start: Instant::now() };
            let mut tagged: Vec<_> = std::thread::scope(|s| {
                let handles: Vec<_> = (0..workers)
                    .map(|w| {
                        let mine: Vec<usize> = (w..cfg.shards).step_by(workers).collect();
                        obsv::spawn_flushed(s, move || wall_worker(cfg, model, zipf, &mine, clock))
                    })
                    .collect();
                handles.into_iter().flat_map(|h| h.join().expect("wall worker panicked")).collect()
            });
            let wall = clock.start.elapsed().as_secs_f64();
            tagged.sort_by_key(|(id, _)| *id);
            merge(model, tagged.into_iter().map(|(_, o)| o).collect(), Some(wall))
        }
    }
}

/// Runs every requested model (sequentially — each model's run already
/// fans out over shards).
///
/// # Errors
///
/// As [`run_model`].
pub fn run_models(
    cfg: &ServeConfig,
    models: &[Model],
    mode: Mode,
    workers: usize,
) -> Result<Vec<ModelReport>, String> {
    models.iter().map(|&m| run_model(cfg, m, mode, workers)).collect()
}

/// Renders one latency histogram as a JSON object with interpolated
/// percentiles.
fn hist_json(h: &Histogram) -> String {
    format!(
        "{{\"p50\": {:.0}, \"p99\": {:.0}, \"p999\": {:.0}, \"mean\": {:.1}, \"max\": {}}}",
        h.quantile(0.50),
        h.quantile(0.99),
        h.quantile(0.999),
        h.mean(),
        h.max
    )
}

/// Renders the full `psim_serve_v1` report. `meta` is the caller's
/// single-line `RunMeta` object (kept on its own line so determinism
/// checks can filter it).
pub fn render_json(cfg: &ServeConfig, mode: Mode, reports: &[ModelReport], meta: &str) -> String {
    let mut out = String::new();
    out.push_str("{\n  \"schema\": \"psim_serve_v1\",\n");
    out.push_str(&format!("  \"meta\": {meta},\n"));
    out.push_str(&format!(
        "  \"config\": {{\"structure\": \"{}\", \"mode\": \"{}\", \"shards\": {}, \"keys\": {}, \"ops\": {}, \"rate_ops_per_sec\": {:.0}, \"zipf_theta\": {:.2}, \"get_ratio\": {:.2}, \"qdepth\": {}, \"batch\": {}, \"batch_wait_ns\": {:.0}, \"cpu_ns\": {:.0}, \"banks\": {}, \"write_latency_ns\": {:.0}, \"interleave_bytes\": {}, \"seed\": {}}},\n",
        cfg.kind.name(),
        mode.name(),
        cfg.shards,
        cfg.keys,
        cfg.ops,
        cfg.rate_ops_per_sec,
        cfg.theta,
        cfg.get_ratio,
        cfg.qdepth,
        cfg.batch,
        cfg.batch_wait_ns,
        cfg.cpu_ns,
        cfg.banks,
        cfg.write_latency_ns,
        cfg.interleave_bytes,
        cfg.seed
    ));
    out.push_str("  \"models\": [\n");
    let rows: Vec<String> = reports
        .iter()
        .map(|r| {
            let d = &r.device;
            let hotspot = if d.wear_blocks > 0 && d.device_writes > 0 {
                d.wear_max_block as f64 * d.wear_blocks as f64 / d.device_writes as f64
            } else {
                0.0
            };
            let wall = r
                .wall_seconds
                .map(|w| format!(", \"wall_seconds\": {w:.3}"))
                .unwrap_or_default();
            format!(
                "    {{\"model\": \"{}\", \"offered\": {}, \"completed\": {}, \"shed\": {}, \"puts\": {}, \"gets\": {}, \"hits\": {}, \"throughput_ops_per_sec\": {:.0}, \"makespan_ms\": {:.3}{wall},\n     \"latency_ns\": {},\n     \"persist_stall_ns\": {},\n     \"queue_wait_ns\": {},\n     \"batch\": {{\"dispatched\": {}, \"full\": {}, \"mean_fill\": {:.2}}},\n     \"device\": {{\"stores\": {}, \"device_writes\": {}, \"absorbed\": {}, \"bank_conflicts\": {}, \"bank_wait_ms\": {:.3}, \"wear_blocks\": {}, \"wear_max_block\": {}, \"wear_hotspot\": {:.2}}},\n     \"hottest_shard\": {{\"shard\": {}, \"offered\": {}}}}}",
                r.model,
                r.offered,
                r.completed,
                r.shed,
                r.puts,
                r.gets,
                r.hits,
                r.throughput(),
                r.makespan_ns / 1e6,
                hist_json(&r.latency),
                hist_json(&r.stall),
                hist_json(&r.queue_wait),
                r.batches,
                r.batches_full,
                r.mean_batch_fill(),
                d.stores,
                d.device_writes,
                d.absorbed(),
                d.bank_conflicts,
                d.bank_wait_ns / 1e6,
                d.wear_blocks,
                d.wear_max_block,
                hotspot,
                r.hottest_shard.0,
                r.hottest_shard.1
            )
        })
        .collect();
    out.push_str(&rows.join(",\n"));
    out.push_str("\n  ]\n}\n");
    out
}

/// Renders the human-readable table.
pub fn render_table(cfg: &ServeConfig, mode: Mode, reports: &[ModelReport]) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "serve [{}]: {} over {} shards, {} keys, {} ops @ {:.0} ops/s (zipf {:.2}, get {:.2}), qdepth {}, batch {} ({:.0} ns wait), {} banks x {:.0} ns\n",
        mode.name(),
        cfg.kind.name(),
        cfg.shards,
        cfg.keys,
        cfg.ops,
        cfg.rate_ops_per_sec,
        cfg.theta,
        cfg.get_ratio,
        cfg.qdepth,
        cfg.batch,
        cfg.batch_wait_ns,
        cfg.banks,
        cfg.write_latency_ns
    ));
    out.push_str(&format!(
        "{:<11} {:>9} {:>9} {:>7} {:>10} {:>9} {:>9} {:>9} {:>10} {:>6} {:>9} {:>9}\n",
        "model", "offered", "completed", "shed", "ops/s", "p50-ns", "p99-ns", "p999-ns", "stall-p99", "fill", "writes", "absorbed"
    ));
    for r in reports {
        out.push_str(&format!(
            "{:<11} {:>9} {:>9} {:>7} {:>10.0} {:>9.0} {:>9.0} {:>9.0} {:>10.0} {:>6.2} {:>9} {:>9}\n",
            r.model.to_string(),
            r.offered,
            r.completed,
            r.shed,
            r.throughput(),
            r.latency.quantile(0.50),
            r.latency.quantile(0.99),
            r.latency.quantile(0.999),
            r.stall.quantile(0.99),
            r.mean_batch_fill(),
            r.device.device_writes,
            r.device.absorbed()
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Feeds `ops` through one shard engine on `clock`, stamping each
    /// arrival with `now(op)`; returns the device schedule and the
    /// outcome, which must pass recovery validation.
    fn drive<C: Clock>(
        cfg: &ServeConfig,
        model: Model,
        ops: &[Op],
        clock: C,
        now: impl Fn(&Op) -> u64,
    ) -> (Vec<u64>, ShardOutcome) {
        let mut run = ShardRun::new(cfg, model, 0, clock);
        run.shard.dev.record_schedule(true);
        for op in ops {
            let t = now(op);
            run.expire(t);
            run.arrive(*op, t);
        }
        run.expire(u64::MAX);
        let schedule = run.shard.dev.schedule_log().to_vec();
        (schedule, run.finish().unwrap_or_else(|e| panic!("{model}: {e}")))
    }

    /// Service order and coalescing depend on the call sequence, not on
    /// time: with shedding impossible, a wall-paced shard issues exactly
    /// the device writes its virtual twin does.
    #[test]
    fn wall_and_virtual_clocks_drive_the_same_device_schedule() {
        let cfg = ServeConfig {
            shards: 1,
            keys: 500,
            ops: 400,
            rate_ops_per_sec: 1_000_000.0,
            qdepth: 400,
            batch: 1,
            ..ServeConfig::new(StoreKind::Kv)
        };
        let zipf = Zipfian::new(cfg.keys, cfg.theta);
        let ops: Vec<Op> =
            OpStream::new(&zipf, cfg.seed, cfg.rate_ops_per_sec, cfg.get_ratio, cfg.ops).collect();
        for model in Model::ALL {
            let (vlog, v) =
                drive(&cfg, model, &ops, Virtual, |op| op.at_ns);
            let wall = Wall { start: Instant::now() };
            let (wlog, w) = drive(&cfg, model, &ops, wall, |op| wall.pace(op.at_ns));
            assert!(!vlog.is_empty(), "{model}: nothing serviced");
            assert_eq!(vlog, wlog, "{model}: device schedules diverged");
            let key = |d: &DeviceStats| (d.stores, d.device_writes, d.wear_blocks, d.wear_max_block);
            assert_eq!(key(&v.device), key(&w.device), "{model}: device stats diverged");
            let counts = |o: &ShardOutcome| (o.offered, o.completed, o.puts, o.gets, o.hits);
            assert_eq!(counts(&v), counts(&w), "{model}: request accounting diverged");
            assert_eq!(v.offered, cfg.ops, "{model}");
            assert_eq!(v.shed + w.shed, 0, "{model}: qdepth >= ops must not shed");
        }
    }
}
