//! Open-loop workload generation: Zipfian keys, Poisson arrivals.
//!
//! The generator is *open loop*: arrival times come from the configured
//! rate alone, never from the store's progress, so persist backpressure
//! shows up as latency (and eventually shedding) instead of silently
//! slowing the workload down — the coordinated-omission trap a closed
//! loop falls into.
//!
//! Everything is driven by the vendored splitmix64 [`SmallRng`]: the
//! stream for a given `(seed, keys, theta, rate, get_ratio, ops)` is a
//! pure function of its parameters.
//!
//! The virtual-time mode drains that stream **once** per run and routes
//! every request into the `ArrivalLog` of the shard that owns its key. A
//! log is a compact byte string — per request, LEB128 varints of the
//! `seq` delta, the `at_ns` delta and `key << 1 | is_put`, about 6 B at
//! the default shapes against the 32 B of an [`Op`] — so the logs of all
//! shards together cost a few bytes per request while the shards
//! themselves (several MB of image and device state each) are simulated
//! only a worker's worth at a time. Each shard replays exactly its share
//! of the stream, in stream order, so the result is the same as if every
//! shard had generated the whole stream and filtered out its own keys.

use mem_trace::rng::SmallRng;

/// Uniform draw in `(0, 1]` (never zero, so `ln` is safe).
#[inline]
fn unit(rng: &mut SmallRng) -> f64 {
    ((rng.next_u64() >> 11) as f64 + 1.0) * (1.0 / 9_007_199_254_740_992.0)
}

/// YCSB-style Zipfian rank distribution over `[0, n)` with skew `theta`
/// (0 = uniform, 0.99 = the YCSB default; must be below 1). Rank 0 is the
/// hottest key. Construction is O(n) — the zeta sum — and sampling is
/// O(1), so one instance is shared across every shard and model.
#[derive(Debug, Clone)]
pub struct Zipfian {
    n: u64,
    alpha: f64,
    zetan: f64,
    eta: f64,
    /// `1 + 0.5^theta`: the `uz` bound below which rank 1 is drawn.
    rank1_bound: f64,
}

impl Zipfian {
    /// Precomputes the distribution for `n` ranks.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero or `theta` is outside `[0, 1)`.
    pub fn new(n: u64, theta: f64) -> Self {
        assert!(n > 0, "zipfian needs at least one rank");
        assert!((0.0..1.0).contains(&theta), "theta must be in [0, 1), got {theta}");
        let zetan = zeta(n, theta);
        let alpha = 1.0 / (1.0 - theta);
        let eta = if n >= 2 {
            (1.0 - (2.0 / n as f64).powf(1.0 - theta)) / (1.0 - zeta(2, theta) / zetan)
        } else {
            0.0
        };
        Zipfian { n, alpha, zetan, eta, rank1_bound: 1.0 + 0.5f64.powf(theta) }
    }

    /// Number of ranks.
    pub fn ranks(&self) -> u64 {
        self.n
    }

    /// Draws a rank in `[0, n)`; rank 0 is the most popular.
    pub fn sample(&self, rng: &mut SmallRng) -> u64 {
        let u = unit(rng);
        let uz = u * self.zetan;
        if uz < 1.0 {
            return 0;
        }
        if self.n >= 2 && uz < self.rank1_bound {
            return 1;
        }
        let rank = (self.n as f64 * (self.eta * u - self.eta + 1.0).powf(self.alpha)) as u64;
        rank.min(self.n - 1)
    }
}

/// Incomplete zeta sum `Σ 1/i^theta, i = 1..=n`.
fn zeta(n: u64, theta: f64) -> f64 {
    (1..=n).map(|i| 1.0 / (i as f64).powf(theta)).sum()
}

/// What a request does to the store.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpKind {
    /// Read one key (no persists).
    Get,
    /// Write one key (runs the structure's full persist protocol).
    Put,
}

/// One generated request.
#[derive(Debug, Clone, Copy)]
pub struct Op {
    /// Position in the global arrival order.
    pub seq: u64,
    /// Arrival time, in virtual nanoseconds from run start.
    pub at_ns: u64,
    /// Key (nonzero — the kv store reserves zero).
    pub key: u64,
    /// Request kind.
    pub kind: OpKind,
}

/// The seeded arrival stream: exponential inter-arrival gaps at the
/// configured rate, Zipfian keys, Bernoulli get/put mix. Iterate to drain.
#[derive(Debug, Clone)]
pub struct OpStream<'z> {
    zipf: &'z Zipfian,
    rng: SmallRng,
    clock_ns: f64,
    mean_gap_ns: f64,
    get_ratio: f64,
    remaining: u64,
    seq: u64,
}

impl<'z> OpStream<'z> {
    /// A stream of `ops` requests at `rate_ops_per_sec`, keyed by `zipf`.
    ///
    /// # Panics
    ///
    /// Panics unless the rate is positive and `get_ratio` is in `[0, 1]`.
    pub fn new(
        zipf: &'z Zipfian,
        seed: u64,
        rate_ops_per_sec: f64,
        get_ratio: f64,
        ops: u64,
    ) -> Self {
        assert!(rate_ops_per_sec > 0.0, "arrival rate must be positive");
        assert!((0.0..=1.0).contains(&get_ratio), "get ratio must be in [0, 1]");
        OpStream {
            zipf,
            rng: SmallRng::seed_from_u64(seed),
            clock_ns: 0.0,
            mean_gap_ns: 1e9 / rate_ops_per_sec,
            get_ratio,
            remaining: ops,
            seq: 0,
        }
    }
}

impl Iterator for OpStream<'_> {
    type Item = Op;

    fn next(&mut self) -> Option<Op> {
        if self.remaining == 0 {
            return None;
        }
        self.remaining -= 1;
        // Fixed draw order (gap, key, kind) — part of the determinism
        // contract; reordering these changes every seeded stream.
        self.clock_ns += -unit(&mut self.rng).ln() * self.mean_gap_ns;
        let key = 1 + self.zipf.sample(&mut self.rng);
        let kind = if unit(&mut self.rng) <= self.get_ratio { OpKind::Get } else { OpKind::Put };
        let op = Op { seq: self.seq, at_ns: self.clock_ns as u64, key, kind };
        self.seq += 1;
        Some(op)
    }
}

/// Shard owning `key`. An avalanche mix decorrelates the assignment from
/// both the Zipfian rank order and the kv table's probe mixing, so hot
/// keys land on "random" shards (skewed per-shard load, uniform key
/// spread — the realistic hot-shard situation).
pub fn shard_of(key: u64, shards: usize) -> usize {
    let mut x = key;
    x ^= x >> 33;
    x = x.wrapping_mul(0xFF51_AFD7_ED55_8CCD);
    x ^= x >> 33;
    x = x.wrapping_mul(0xC4CE_B9FE_1A85_EC53);
    x ^= x >> 33;
    (x % shards as u64) as usize
}

/// Largest key an [`ArrivalLog`] holds: the request kind rides in the
/// low bit of the encoded key.
const MAX_LOG_KEY: u64 = u64::MAX >> 1;

/// One shard's arrivals, in stream order, as a delta + LEB128 varint
/// byte string (see the module docs). Push in order, replay with
/// [`ArrivalLog::iter`]; deltas wrap, so any `Op` sequence round-trips
/// exactly, but in-order arrivals are what keep the deltas short.
#[derive(Debug, Clone, Default)]
pub(crate) struct ArrivalLog {
    bytes: Vec<u8>,
    last_seq: u64,
    last_at: u64,
}

impl ArrivalLog {
    /// Appends one request.
    ///
    /// # Panics
    ///
    /// Panics if `op.key` exceeds [`MAX_LOG_KEY`].
    pub(crate) fn push(&mut self, op: &Op) {
        assert!(op.key <= MAX_LOG_KEY, "arrival log keys are limited to 63 bits, got {}", op.key);
        put_varint(&mut self.bytes, op.seq.wrapping_sub(self.last_seq));
        put_varint(&mut self.bytes, op.at_ns.wrapping_sub(self.last_at));
        put_varint(&mut self.bytes, op.key << 1 | (op.kind == OpKind::Put) as u64);
        self.last_seq = op.seq;
        self.last_at = op.at_ns;
    }

    /// Replays the log from the start.
    pub(crate) fn iter(&self) -> ArrivalIter<'_> {
        ArrivalIter { bytes: &self.bytes, pos: 0, seq: 0, at_ns: 0 }
    }
}

fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        out.push(v as u8 | 0x80);
        v >>= 7;
    }
    out.push(v as u8);
}

/// Decoding cursor over an [`ArrivalLog`].
pub(crate) struct ArrivalIter<'a> {
    bytes: &'a [u8],
    pos: usize,
    seq: u64,
    at_ns: u64,
}

impl ArrivalIter<'_> {
    /// Reads one varint. The log was written by [`put_varint`], so every
    /// varint is complete and at most ten bytes long.
    #[inline]
    fn varint(&mut self) -> u64 {
        let mut v = 0u64;
        let mut shift = 0;
        loop {
            let b = self.bytes[self.pos];
            self.pos += 1;
            v |= u64::from(b & 0x7f) << shift;
            if b < 0x80 {
                return v;
            }
            shift += 7;
        }
    }
}

impl Iterator for ArrivalIter<'_> {
    type Item = Op;

    #[inline]
    fn next(&mut self) -> Option<Op> {
        if self.pos == self.bytes.len() {
            return None;
        }
        self.seq = self.seq.wrapping_add(self.varint());
        self.at_ns = self.at_ns.wrapping_add(self.varint());
        let word = self.varint();
        let kind = if word & 1 == 1 { OpKind::Put } else { OpKind::Get };
        Some(Op { seq: self.seq, at_ns: self.at_ns, key: word >> 1, kind })
    }
}

/// Drains `ops` once, appending each request to the log of the shard
/// [`shard_of`] assigns its key to. Returns one log per shard.
pub(crate) fn route(ops: impl IntoIterator<Item = Op>, shards: usize) -> Vec<ArrivalLog> {
    let shards = shards.max(1);
    let mut logs = vec![ArrivalLog::default(); shards];
    for op in ops {
        logs[shard_of(op.key, shards)].push(&op);
    }
    logs
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zipf_ranks_stay_in_range_and_skew() {
        let z = Zipfian::new(1000, 0.99);
        let mut rng = SmallRng::seed_from_u64(1);
        let mut counts = vec![0u64; 1000];
        for _ in 0..200_000 {
            let r = z.sample(&mut rng);
            assert!(r < 1000);
            counts[r as usize] += 1;
        }
        // The head dominates: rank 0 well above rank 100, which is above
        // the tail median.
        assert!(counts[0] > 10 * counts[100].max(1));
        assert!(counts[0] > 20_000);
    }

    #[test]
    fn zipf_theta_zero_is_roughly_uniform() {
        let z = Zipfian::new(100, 0.0);
        let mut rng = SmallRng::seed_from_u64(2);
        let mut counts = vec![0u64; 100];
        for _ in 0..100_000 {
            counts[z.sample(&mut rng) as usize] += 1;
        }
        let (lo, hi) = (counts.iter().min().unwrap(), counts.iter().max().unwrap());
        assert!(*lo > 700 && *hi < 1300, "uniform-ish spread, got {lo}..{hi}");
    }

    #[test]
    fn stream_is_deterministic_and_monotone() {
        let z = Zipfian::new(5000, 0.9);
        let a: Vec<_> = OpStream::new(&z, 7, 1e6, 0.5, 1000).collect();
        let b: Vec<_> = OpStream::new(&z, 7, 1e6, 0.5, 1000).collect();
        assert_eq!(a.len(), 1000);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!((x.seq, x.at_ns, x.key), (y.seq, y.at_ns, y.key));
            assert_eq!(x.kind, y.kind);
        }
        for w in a.windows(2) {
            assert!(w[0].at_ns <= w[1].at_ns, "arrivals are time ordered");
        }
        assert!(a.iter().all(|op| op.key >= 1 && op.key <= 5000));
        // Mean gap tracks the rate within sampling noise.
        let span = a.last().unwrap().at_ns as f64;
        let mean_gap = span / 999.0;
        assert!((500.0..2000.0).contains(&mean_gap), "mean gap {mean_gap} off 1000ns");
    }

    #[test]
    fn shards_partition_every_key() {
        for shards in [1usize, 2, 7, 16] {
            let mut per = vec![0u64; shards];
            for key in 1..=10_000u64 {
                per[shard_of(key, shards)] += 1;
            }
            assert_eq!(per.iter().sum::<u64>(), 10_000);
            let lo = per.iter().min().unwrap();
            assert!(*lo as f64 > 0.7 * 10_000.0 / shards as f64, "balanced: {per:?}");
        }
    }

    fn same_op(a: &Op, b: &Op) -> bool {
        (a.seq, a.at_ns, a.key, a.kind) == (b.seq, b.at_ns, b.key, b.kind)
    }

    #[test]
    fn log_round_trips_extreme_fields() {
        // Out-of-order and wrapping deltas, ten-byte varints, both kinds.
        let ops = [
            Op { seq: 0, at_ns: 0, key: 0, kind: OpKind::Get },
            Op { seq: u64::MAX, at_ns: u64::MAX, key: MAX_LOG_KEY, kind: OpKind::Put },
            Op { seq: 3, at_ns: 1 << 63, key: 1, kind: OpKind::Put },
            Op { seq: 2, at_ns: 5, key: MAX_LOG_KEY - 1, kind: OpKind::Get },
            Op { seq: 2, at_ns: 5, key: 127, kind: OpKind::Put },
        ];
        let mut log = ArrivalLog::default();
        for op in &ops {
            log.push(op);
        }
        let back: Vec<Op> = log.iter().collect();
        assert_eq!(back.len(), ops.len());
        for (a, b) in ops.iter().zip(&back) {
            assert!(same_op(a, b), "{a:?} decoded as {b:?}");
        }
        assert!(ArrivalLog::default().iter().next().is_none());
    }

    #[test]
    #[should_panic(expected = "limited to 63 bits")]
    fn log_rejects_keys_past_63_bits() {
        let op = Op { seq: 0, at_ns: 0, key: MAX_LOG_KEY + 1, kind: OpKind::Get };
        ArrivalLog::default().push(&op);
    }

    /// Over random configurations, the shard logs together hold exactly
    /// the generated stream — every field of every request, each request
    /// in the shard `shard_of` names, each log in stream order.
    #[test]
    fn routed_logs_decode_to_the_stream() {
        let mut rng = SmallRng::seed_from_u64(0x5eed);
        for case in 0..48 {
            let shards = 1 + (rng.next_u64() % 16) as usize;
            // 1e2..1e9 requests/s: slow rates give multi-second gaps.
            let rate = 10f64.powf(2.0 + 7.0 * unit(&mut rng));
            let keys = 1 + rng.next_u64() % 50_000;
            let theta = [0.0, 0.5, 0.99][case % 3];
            let get_ratio = unit(&mut rng).min(1.0);
            let ops = rng.next_u64() % 3_000;
            let z = Zipfian::new(keys, theta);
            let mut stream: Vec<Op> =
                OpStream::new(&z, rng.next_u64(), rate, get_ratio, ops).collect();
            if case % 2 == 1 {
                // Keys at the top of the encodable range.
                for op in &mut stream {
                    op.key = MAX_LOG_KEY - op.key;
                }
            }
            let logs = route(stream.iter().copied(), shards);
            assert_eq!(logs.len(), shards);
            let mut decoded: Vec<Op> = Vec::new();
            for (s, log) in logs.iter().enumerate() {
                let mine: Vec<Op> = log.iter().collect();
                assert!(mine.windows(2).all(|w| w[0].seq < w[1].seq), "log {s} out of order");
                assert!(mine.iter().all(|op| shard_of(op.key, shards) == s), "misrouted in {s}");
                decoded.extend(mine);
            }
            decoded.sort_by_key(|op| op.seq);
            assert_eq!(decoded.len(), stream.len());
            for (a, b) in stream.iter().zip(&decoded) {
                assert!(same_op(a, b), "case {case}: {a:?} decoded as {b:?}");
            }
        }
    }

    #[test]
    fn logs_stay_within_eight_bytes_per_request() {
        let z = Zipfian::new(200_000, 0.99);
        for rate in [2e6, 8e6, 20e6] {
            let logs = route(OpStream::new(&z, 42, rate, 0.5, 50_000), 8);
            let bytes: usize = logs.iter().map(|log| log.bytes.len()).sum();
            let per = bytes as f64 / 50_000.0;
            assert!(per <= 8.0, "{per:.2} B/request at {rate} requests/s");
        }
    }

    #[test]
    #[should_panic(expected = "theta must be in [0, 1)")]
    fn theta_one_rejected() {
        let _ = Zipfian::new(10, 1.0);
    }
}
