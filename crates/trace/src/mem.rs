//! Traced shared memory and the per-thread access API.

use crate::{Event, Op, PackedEvent, Scheduler, ThreadId, Trace};
use persist_mem::{FxHashMap, MemAddr, MemError, PersistentAllocator};
use std::cell::{Cell, RefCell};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard};
use std::time::Instant;

/// Number of word shards. Each 8-byte word of either address space maps to
/// one shard; a shard's mutex is the paper's "bank of locks" providing
/// analysis-atomicity (§7).
const NSHARDS: usize = 256;
const SHARD_BITS: u32 = NSHARDS.trailing_zeros();

/// Words per page of a shard's paged store (8 KiB pages).
const PAGE_WORDS: usize = 1024;

/// Dense pages per shard per space. Together with `NSHARDS` and
/// `PAGE_WORDS` this covers word indices below 2³¹ (byte offsets below
/// 16 GiB); accesses beyond that fall back to a per-shard spill map.
const MAX_DENSE_PAGES: usize = (1usize << 31) >> (SHARD_BITS + PAGE_WORDS.trailing_zeros());

/// Key of an aligned 8-byte word: `(space bit << 63) | word index`.
#[inline]
fn word_key(addr: MemAddr) -> u64 {
    let space = addr.to_bits() & (1 << 63);
    space | (addr.offset() >> 3)
}

/// Shard of a word key: the word index's low bits, so adjacent words land
/// in different shards (lock spreading) *and* a shard's words are dense
/// under `word index >> SHARD_BITS` (flat paged storage instead of
/// hashing).
#[inline]
fn shard_of(key: u64) -> usize {
    key as usize & (NSHARDS - 1)
}

/// One shard's word store: a page table of flat `[u64; PAGE_WORDS]` blocks
/// per address space, so the hot per-access path is index arithmetic, with
/// a hash-map spill for the rare words beyond the dense range. Absent
/// words read as 0, like the hash-map store they replace.
struct WordStore {
    pages: [Vec<Option<Box<[u64; PAGE_WORDS]>>>; 2],
    spill: FxHashMap<u64, u64>,
}

impl WordStore {
    fn new() -> Self {
        WordStore { pages: [Vec::new(), Vec::new()], spill: FxHashMap::default() }
    }

    #[inline]
    fn get(&self, key: u64) -> u64 {
        let space = (key >> 63) as usize;
        let slot = ((key & !(1u64 << 63)) >> SHARD_BITS) as usize;
        let (pi, wi) = (slot / PAGE_WORDS, slot % PAGE_WORDS);
        if pi < MAX_DENSE_PAGES {
            match self.pages[space].get(pi) {
                Some(Some(page)) => page[wi],
                _ => 0,
            }
        } else {
            self.spill.get(&key).copied().unwrap_or(0)
        }
    }

    #[inline]
    fn set(&mut self, key: u64, value: u64) {
        let space = (key >> 63) as usize;
        let slot = ((key & !(1u64 << 63)) >> SHARD_BITS) as usize;
        let (pi, wi) = (slot / PAGE_WORDS, slot % PAGE_WORDS);
        if pi < MAX_DENSE_PAGES {
            let pages = &mut self.pages[space];
            if pi >= pages.len() {
                pages.resize_with(pi + 1, || None);
            }
            let page = pages[pi].get_or_insert_with(|| {
                let zeroed = vec![0u64; PAGE_WORDS].into_boxed_slice();
                // Length is PAGE_WORDS by construction.
                zeroed.try_into().unwrap_or_else(|_| unreachable!())
            });
            page[wi] = value;
        } else {
            self.spill.insert(key, value);
        }
    }
}

struct Inner<S> {
    shards: Vec<Mutex<WordStore>>,
    seq: AtomicU64,
    alloc: Mutex<PersistentAllocator>,
    sched: S,
}

/// Per-thread capture buffer: parallel arrays of global sequence stamps
/// and packed events — 40 bytes per entry instead of the 48 bytes of a
/// `(u64, Event)` pair, and appended without enum-layout shuffling.
#[derive(Default)]
struct ThreadBuf {
    seqs: Vec<u64>,
    events: Vec<PackedEvent>,
}

impl ThreadBuf {
    #[inline]
    fn push(&mut self, seq: u64, e: PackedEvent) {
        self.seqs.push(seq);
        self.events.push(e);
    }

    fn len(&self) -> usize {
        self.events.len()
    }
}

/// Merges per-thread buffers into visibility order.
///
/// Each thread appends events with strictly ascending sequence stamps, so
/// the buffers are pre-sorted runs and a k-way heap merge is O(n log t) —
/// replacing the flatten + O(n log n) sort of the whole event set.
fn merge_kway(buffers: &[ThreadBuf]) -> Vec<Event> {
    let total = buffers.iter().map(ThreadBuf::len).sum();
    let mut out = Vec::with_capacity(total);
    let mut cursor = vec![0usize; buffers.len()];
    let mut heap: BinaryHeap<Reverse<(u64, usize)>> = buffers
        .iter()
        .enumerate()
        .filter(|(_, b)| !b.seqs.is_empty())
        .map(|(t, b)| Reverse((b.seqs[0], t)))
        .collect();
    let mut last_seq = None;
    while let Some(Reverse((seq, t))) = heap.pop() {
        debug_assert!(last_seq < Some(seq), "duplicate sequence stamps");
        last_seq = Some(seq);
        let i = cursor[t];
        out.push(buffers[t].events[i].unpack());
        cursor[t] = i + 1;
        if let Some(&next) = buffers[t].seqs.get(i + 1) {
            debug_assert!(next > seq, "per-thread stamps must ascend");
            heap.push(Reverse((next, t)));
        }
    }
    out
}

/// The pre-overhaul merge: flatten all buffers and sort by stamp. Kept as
/// the differential-testing oracle for [`merge_kway`].
#[cfg(test)]
fn merge_sorted(buffers: &[ThreadBuf]) -> Vec<Event> {
    let mut merged: Vec<(u64, Event)> = buffers
        .iter()
        .flat_map(|b| b.seqs.iter().copied().zip(b.events.iter().map(PackedEvent::unpack)))
        .collect();
    merged.sort_unstable_by_key(|&(seq, _)| seq);
    merged.into_iter().map(|(_, e)| e).collect()
}

/// Capture statistics returned by [`TracedMem::run_timed`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CaptureStats {
    /// Events in the merged trace.
    pub events: usize,
    /// Wall-clock seconds spent merging the per-thread buffers.
    pub merge_seconds: f64,
}

/// Shared traced memory.
///
/// Workloads run against a `TracedMem` through per-thread [`ThreadCtx`]
/// handles; every access is serialized through per-word shard locks and
/// stamped from a global sequence counter, so the merged trace is an exact
/// sequentially consistent interleaving of the execution.
///
/// See the [crate-level docs](crate) for an end-to-end example.
pub struct TracedMem<S> {
    inner: Inner<S>,
}

impl<S> std::fmt::Debug for TracedMem<S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TracedMem")
            .field("events_issued", &self.inner.seq.load(Ordering::Relaxed))
            .finish_non_exhaustive()
    }
}

impl<S: Scheduler> TracedMem<S> {
    /// Creates an empty traced memory driven by the given scheduler.
    pub fn new(sched: S) -> Self {
        TracedMem {
            inner: Inner {
                shards: (0..NSHARDS).map(|_| Mutex::new(WordStore::new())).collect(),
                seq: AtomicU64::new(0),
                alloc: Mutex::new(PersistentAllocator::new()),
                sched,
            },
        }
    }

    /// Allocates persistent memory *before* the traced run (setup that
    /// should not appear in the trace, e.g. pre-sizing the queue's data
    /// segment is still traced via [`ThreadCtx::palloc`]; use this for
    /// harness-internal scratch space).
    ///
    /// # Errors
    ///
    /// Propagates [`MemError::BadAlloc`] for invalid requests.
    pub fn setup_alloc(&self, size: u64, align: u64) -> Result<MemAddr, MemError> {
        self.inner.alloc.lock().unwrap().alloc(size, align)
    }

    /// Runs the workload threads and returns their raw per-thread buffers.
    fn capture<F>(&self, nthreads: u32, f: F) -> Vec<ThreadBuf>
    where
        F: Fn(&ThreadCtx<'_, S>) + Sync,
    {
        assert!(
            nthreads <= PackedEvent::MAX_THREADS,
            "capture supports at most 2^16 threads"
        );
        let inner = &self.inner;
        // Register every thread before any runs so deterministic schedulers
        // see the full runnable set from the first grant.
        for t in 0..nthreads {
            inner.sched.register(ThreadId(t));
        }
        let mut buffers: Vec<ThreadBuf> = Vec::new();
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..nthreads)
                .map(|t| {
                    let f = &f;
                    // Flushed, so the scheduler's per-thread `capture.*`
                    // tallies are in the registry once the scope returns.
                    obsv::spawn_flushed(scope, move || {
                        let tid = ThreadId(t);
                        let ctx = ThreadCtx {
                            inner,
                            tid,
                            po: Cell::new(0),
                            buf: RefCell::new(ThreadBuf::default()),
                            scratch_shards: RefCell::new(Vec::new()),
                            scratch_chunks: RefCell::new(Vec::new()),
                        };
                        f(&ctx);
                        inner.sched.unregister(tid);
                        ctx.buf.into_inner()
                    })
                })
                .collect();
            for h in handles {
                buffers.push(h.join().expect("traced thread panicked"));
            }
        });
        buffers
    }

    /// Runs `nthreads` copies of `f`, each with its own [`ThreadCtx`], and
    /// returns the merged trace.
    ///
    /// Threads are real OS threads; the scheduler decides interleaving.
    /// Each thread's closure receives a context whose
    /// [`thread_id`](ThreadCtx::thread_id) identifies it.
    pub fn run<F>(self, nthreads: u32, f: F) -> Trace
    where
        F: Fn(&ThreadCtx<'_, S>) + Sync,
    {
        self.run_timed(nthreads, f).0
    }

    /// Like [`TracedMem::run`], but also reports capture statistics
    /// (currently the buffer-merge time, for the capture benchmarks).
    pub fn run_timed<F>(self, nthreads: u32, f: F) -> (Trace, CaptureStats)
    where
        F: Fn(&ThreadCtx<'_, S>) + Sync,
    {
        let buffers = self.capture(nthreads, f);
        let t0 = Instant::now();
        let events = merge_kway(&buffers);
        let merge = t0.elapsed();
        if obsv::enabled() {
            obsv::counter_add("capture.runs", 1);
            obsv::counter_add("capture.events", events.len() as u64);
            obsv::observe("capture.events_per_run", events.len() as u64);
            obsv::record_duration("capture.merge", merge);
        }
        let stats = CaptureStats { events: events.len(), merge_seconds: merge.as_secs_f64() };
        (Trace::from_events(nthreads, events), stats)
    }
}

/// Per-thread handle for issuing traced operations.
///
/// All data accesses are at most 8 bytes wide; [`ThreadCtx::copy_bytes`]
/// splits larger copies into word stores, mirroring how the paper's traced
/// `COPY` decomposes into individual store instructions.
pub struct ThreadCtx<'m, S> {
    inner: &'m Inner<S>,
    tid: ThreadId,
    po: Cell<u32>,
    buf: RefCell<ThreadBuf>,
    /// Reused shard-index list for bulk accesses (no per-call allocation).
    scratch_shards: RefCell<Vec<usize>>,
    /// Reused chunk list for bulk accesses.
    scratch_chunks: RefCell<Vec<(MemAddr, u8, u64)>>,
}

impl<S> std::fmt::Debug for ThreadCtx<'_, S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ThreadCtx").field("tid", &self.tid).finish_non_exhaustive()
    }
}

/// One locked shard: its index and the guard over its word store.
type LockedShard<'g> = (usize, MutexGuard<'g, WordStore>);

/// Word-granular access to some locked subset of the shards.
trait WordAccess {
    fn get(&mut self, key: u64) -> u64;
    fn set(&mut self, key: u64, value: u64);
}

/// Locked view of the (up to two) word shards a single access touches.
struct WordView<'g> {
    guards: [Option<LockedShard<'g>>; 2],
}

impl WordAccess for WordView<'_> {
    fn get(&mut self, key: u64) -> u64 {
        let shard = shard_of(key);
        for g in self.guards.iter_mut().flatten() {
            if g.0 == shard {
                return g.1.get(key);
            }
        }
        unreachable!("word key outside locked shards");
    }

    fn set(&mut self, key: u64, value: u64) {
        let shard = shard_of(key);
        for g in self.guards.iter_mut().flatten() {
            if g.0 == shard {
                g.1.set(key, value);
                return;
            }
        }
        unreachable!("word key outside locked shards");
    }
}

/// Locked view over every distinct shard a bulk access touches, each
/// locked exactly once. Guards are kept sorted by shard index (they were
/// acquired in ascending order to avoid deadlock), so lookups are a
/// binary search.
struct ShardView<'g> {
    guards: Vec<LockedShard<'g>>,
}

impl<'g> ShardView<'g> {
    /// Locks `shards` (ascending, deduplicated) of `pool`.
    fn lock(pool: &'g [Mutex<WordStore>], shards: &[usize]) -> Self {
        debug_assert!(shards.windows(2).all(|w| w[0] < w[1]), "shards must be sorted unique");
        ShardView { guards: shards.iter().map(|&s| (s, pool[s].lock().unwrap())).collect() }
    }
}

impl WordAccess for ShardView<'_> {
    fn get(&mut self, key: u64) -> u64 {
        let shard = shard_of(key);
        let i = self
            .guards
            .binary_search_by_key(&shard, |g| g.0)
            .expect("word key outside locked shards");
        self.guards[i].1.get(key)
    }

    fn set(&mut self, key: u64, value: u64) {
        let shard = shard_of(key);
        let i = self
            .guards
            .binary_search_by_key(&shard, |g| g.0)
            .expect("word key outside locked shards");
        self.guards[i].1.set(key, value);
    }
}

/// Splits `[addr, addr + len)` into the word-aligned chunks the traced
/// `COPY`/`READ` decompose into: 8 bytes where alignment allows, smaller
/// head/tail chunks at unaligned boundaries.
fn bulk_chunks(addr: MemAddr, len: usize) -> impl Iterator<Item = (MemAddr, u8)> {
    let mut off = 0usize;
    std::iter::from_fn(move || {
        if off >= len {
            return None;
        }
        let a = addr.add(off as u64);
        let to_boundary = 8 - (a.offset() % 8) as usize;
        let n = to_boundary.min(len - off).min(8);
        off += n;
        Some((a, n as u8))
    })
}

/// Fills `out` with the distinct word shards `[addr, addr + len)` touches,
/// ascending.
fn bulk_shards(addr: MemAddr, len: usize, out: &mut Vec<usize>) {
    out.clear();
    let first = addr.offset() / 8;
    let last = (addr.offset() + len as u64 - 1) / 8;
    // Consecutive words map to consecutive shards mod NSHARDS, so at most
    // NSHARDS distinct shards regardless of span.
    let n = (last - first + 1).min(NSHARDS as u64);
    out.extend((first..first + n).map(|w| shard_of(word_key(MemAddr::new(addr.space(), w * 8)))));
    out.sort_unstable();
    out.dedup();
}

impl<'m, S: Scheduler> ThreadCtx<'m, S> {
    /// This context's thread id.
    #[inline]
    pub fn thread_id(&self) -> ThreadId {
        self.tid
    }

    fn next_po(&self) -> u32 {
        let po = self.po.get();
        self.po.set(po + 1);
        po
    }

    fn record(&self, seq: u64, op: Op) {
        let e = Event { thread: self.tid, po: self.next_po(), op };
        self.buf.borrow_mut().push(seq, PackedEvent::pack(&e));
    }

    /// Performs `body` atomically with respect to all other accesses that
    /// touch the same words, stamping it with a fresh global sequence
    /// number. Returns `(seq, body result)`.
    fn atomic_access<R>(
        &self,
        addr: MemAddr,
        len: u8,
        body: impl FnOnce(&mut WordView<'_>) -> R,
    ) -> (u64, R) {
        assert!((1..=8).contains(&len), "access length must be 1..=8 bytes");
        let first = word_key(addr);
        let last = word_key(addr.add(len as u64 - 1));
        let mut body = Some(body);
        let mut out = None;
        self.inner.sched.with_turn(self.tid, &mut || {
            let body = body.take().expect("scheduler ran the turn closure twice");
            let s0 = shard_of(first);
            let s1 = shard_of(last);
            let mut view = if first == last || s0 == s1 {
                WordView { guards: [Some((s0, self.inner.shards[s0].lock().unwrap())), None] }
            } else {
                // Lock in ascending shard order to avoid deadlock.
                let (lo, hi) = if s0 < s1 { (s0, s1) } else { (s1, s0) };
                let g_lo = self.inner.shards[lo].lock().unwrap();
                let g_hi = self.inner.shards[hi].lock().unwrap();
                WordView { guards: [Some((lo, g_lo)), Some((hi, g_hi))] }
            };
            let seq = self.inner.seq.fetch_add(1, Ordering::Relaxed);
            out = Some((seq, body(&mut view)));
        });
        out.expect("scheduler must run the turn closure")
    }

    #[inline]
    fn read_raw(view: &mut impl WordAccess, addr: MemAddr, len: u8) -> u64 {
        let sub = addr.offset() % 8;
        if sub + len as u64 <= 8 {
            // The access fits one word (all aligned accesses and every
            // bulk chunk): one view lookup instead of a per-byte loop.
            let w = view.get(word_key(addr)) >> (sub * 8);
            return if len == 8 { w } else { w & ((1u64 << (len as u64 * 8)) - 1) };
        }
        let mut v = 0u64;
        for i in 0..len as u64 {
            let a = addr.add(i);
            let w = view.get(word_key(a));
            let byte = (w >> ((a.offset() % 8) * 8)) & 0xFF;
            v |= byte << (i * 8);
        }
        v
    }

    #[inline]
    fn write_raw(view: &mut impl WordAccess, addr: MemAddr, len: u8, value: u64) {
        let sub = addr.offset() % 8;
        if sub + len as u64 <= 8 {
            let key = word_key(addr);
            if len == 8 {
                view.set(key, value);
                return;
            }
            let shift = sub * 8;
            let mask = ((1u64 << (len as u64 * 8)) - 1) << shift;
            let w = view.get(key);
            view.set(key, (w & !mask) | ((value << shift) & mask));
            return;
        }
        for i in 0..len as u64 {
            let a = addr.add(i);
            let key = word_key(a);
            let shift = (a.offset() % 8) * 8;
            let mut w = view.get(key);
            w = (w & !(0xFFu64 << shift)) | (((value >> (i * 8)) & 0xFF) << shift);
            view.set(key, w);
        }
    }

    /// Loads `len` bytes (1..=8) at `addr`, little-endian.
    ///
    /// # Panics
    ///
    /// Panics if `len` is 0 or greater than 8.
    pub fn load_n(&self, addr: MemAddr, len: u8) -> u64 {
        let (seq, value) = self.atomic_access(addr, len, |v| Self::read_raw(v, addr, len));
        self.record(seq, Op::Load { addr, len, value });
        value
    }

    /// Stores the low `len` bytes (1..=8) of `value` at `addr`.
    ///
    /// A store to the persistent space is a *persist* for the persistency
    /// analyses.
    ///
    /// # Panics
    ///
    /// Panics if `len` is 0 or greater than 8.
    pub fn store_n(&self, addr: MemAddr, len: u8, value: u64) {
        let value = if len == 8 { value } else { value & ((1u64 << (len * 8)) - 1) };
        let (seq, ()) = self.atomic_access(addr, len, |v| Self::write_raw(v, addr, len, value));
        self.record(seq, Op::Store { addr, len, value });
    }

    /// Loads an aligned `u64` at `addr`.
    pub fn load_u64(&self, addr: MemAddr) -> u64 {
        self.load_n(addr, 8)
    }

    /// Stores an aligned `u64` at `addr`.
    pub fn store_u64(&self, addr: MemAddr, value: u64) {
        self.store_n(addr, 8, value)
    }

    /// Reads the aligned 8-byte word containing `addr` *without* recording
    /// a trace event or consuming a sequence stamp.
    ///
    /// The read still takes a scheduler turn and the word's shard lock, so
    /// it is analysis-atomic and keeps deterministic schedules live while a
    /// thread polls. The traced locks use it to spin on contended words
    /// without blowing up the trace.
    pub fn peek_u64(&self, addr: MemAddr) -> u64 {
        let key = word_key(addr);
        let shard = shard_of(key);
        let mut out = 0;
        self.inner.sched.with_turn(self.tid, &mut || {
            out = self.inner.shards[shard].lock().unwrap().get(key);
        });
        out
    }

    /// Atomic compare-and-swap of an 8-byte word; returns the previous
    /// value (success iff it equals `expected`).
    pub fn cas_u64(&self, addr: MemAddr, expected: u64, new: u64) -> u64 {
        let (seq, (old, written)) = self.atomic_access(addr, 8, |v| {
            let old = Self::read_raw(v, addr, 8);
            if old == expected {
                Self::write_raw(v, addr, 8, new);
                (old, new)
            } else {
                (old, old)
            }
        });
        self.record(seq, Op::Rmw { addr, len: 8, old, new: written });
        old
    }

    /// Atomic compare-and-swap that records an `Rmw` event only when it
    /// succeeds; a failed attempt leaves no event in the trace.
    ///
    /// Combined with [`ThreadCtx::peek_u64`], this lets spin loops bound
    /// the number of failed attempts they record (see
    /// [`SpinLock::acquire`](crate::locks::SpinLock::acquire)) while the
    /// successful acquisition still appears with full analysis-atomicity.
    pub fn cas_u64_quiet(&self, addr: MemAddr, expected: u64, new: u64) -> u64 {
        let (seq, old) = self.atomic_access(addr, 8, |v| {
            let old = Self::read_raw(v, addr, 8);
            if old == expected {
                Self::write_raw(v, addr, 8, new);
            }
            old
        });
        if old == expected {
            self.record(seq, Op::Rmw { addr, len: 8, old, new });
        }
        old
    }

    /// Atomic swap of an 8-byte word; returns the previous value.
    pub fn swap_u64(&self, addr: MemAddr, new: u64) -> u64 {
        let (seq, old) = self.atomic_access(addr, 8, |v| {
            let old = Self::read_raw(v, addr, 8);
            Self::write_raw(v, addr, 8, new);
            old
        });
        self.record(seq, Op::Rmw { addr, len: 8, old, new });
        old
    }

    /// Atomic fetch-and-add on an 8-byte word; returns the previous value.
    pub fn fetch_add_u64(&self, addr: MemAddr, delta: u64) -> u64 {
        let (seq, (old, new)) = self.atomic_access(addr, 8, |v| {
            let old = Self::read_raw(v, addr, 8);
            let new = old.wrapping_add(delta);
            Self::write_raw(v, addr, 8, new);
            (old, new)
        });
        self.record(seq, Op::Rmw { addr, len: 8, old, new });
        old
    }

    /// Copies `data` to `dst` as a sequence of word stores — the traced
    /// equivalent of the paper's `COPY(data[head], (length, entry), ...)`.
    /// Chunks are 8 bytes where alignment allows, with smaller head/tail
    /// stores at unaligned boundaries.
    ///
    /// The whole copy runs in one scheduler turn: every distinct word
    /// shard it touches is locked exactly once (in ascending order), the
    /// chunk stores reserve a contiguous block of sequence numbers, and
    /// one `Store` event per chunk is recorded — instead of a turn plus a
    /// lock/unlock round per word. Chunk and shard lists live in reused
    /// per-thread scratch buffers, so steady-state copies allocate nothing
    /// but their trace events.
    pub fn copy_bytes(&self, dst: MemAddr, data: &[u8]) {
        if data.is_empty() {
            return;
        }
        let mut chunks = self.scratch_chunks.borrow_mut();
        chunks.clear();
        chunks.extend(bulk_chunks(dst, data.len()).map(|(a, n)| {
            let off = (a.offset() - dst.offset()) as usize;
            let mut v = 0u64;
            for (i, &b) in data[off..off + n as usize].iter().enumerate() {
                v |= (b as u64) << (i * 8);
            }
            (a, n, v)
        }));
        let mut shards = self.scratch_shards.borrow_mut();
        bulk_shards(dst, data.len(), &mut shards);
        let mut seq0 = 0u64;
        self.inner.sched.with_turn(self.tid, &mut || {
            let mut view = ShardView::lock(&self.inner.shards, &shards);
            seq0 = self.inner.seq.fetch_add(chunks.len() as u64, Ordering::Relaxed);
            for &(a, n, v) in chunks.iter() {
                Self::write_raw(&mut view, a, n, v);
            }
        });
        for (i, &(a, n, v)) in chunks.iter().enumerate() {
            self.record(seq0 + i as u64, Op::Store { addr: a, len: n, value: v });
        }
    }

    /// Reads `out.len()` bytes starting at `addr` as a sequence of word
    /// loads. Like [`ThreadCtx::copy_bytes`], the whole read runs in one
    /// scheduler turn with each touched shard locked once and no per-call
    /// allocation.
    pub fn read_bytes(&self, addr: MemAddr, out: &mut [u8]) {
        if out.is_empty() {
            return;
        }
        let mut chunks = self.scratch_chunks.borrow_mut();
        chunks.clear();
        chunks.extend(bulk_chunks(addr, out.len()).map(|(a, n)| (a, n, 0)));
        let mut shards = self.scratch_shards.borrow_mut();
        bulk_shards(addr, out.len(), &mut shards);
        let mut seq0 = 0u64;
        self.inner.sched.with_turn(self.tid, &mut || {
            let mut view = ShardView::lock(&self.inner.shards, &shards);
            seq0 = self.inner.seq.fetch_add(chunks.len() as u64, Ordering::Relaxed);
            for (a, n, v) in chunks.iter_mut() {
                *v = Self::read_raw(&mut view, *a, *n);
            }
        });
        for (i, &(a, n, v)) in chunks.iter().enumerate() {
            let off = (a.offset() - addr.offset()) as usize;
            for j in 0..n as usize {
                out[off + j] = ((v >> (j * 8)) & 0xFF) as u8;
            }
            self.record(seq0 + i as u64, Op::Load { addr: a, len: n, value: v });
        }
    }

    fn record_plain(&self, op: Op) {
        let mut seq = 0;
        self.inner.sched.with_turn(self.tid, &mut || {
            seq = self.inner.seq.fetch_add(1, Ordering::Relaxed);
        });
        self.record(seq, op);
    }

    /// Issues a persist barrier (epoch and strand persistency annotation).
    pub fn persist_barrier(&self) {
        self.record_plain(Op::PersistBarrier);
    }

    /// Issues a memory consistency barrier (orders store visibility; the
    /// annotation strict persistency relies on under relaxed consistency).
    pub fn mem_barrier(&self) {
        self.record_plain(Op::MemBarrier);
    }

    /// Begins a new persist strand (strand persistency annotation).
    pub fn new_strand(&self) {
        self.record_plain(Op::NewStrand);
    }

    /// Issues a persist sync (buffered strict persistency annotation).
    pub fn persist_sync(&self) {
        self.record_plain(Op::PersistSync);
    }

    /// Allocates persistent memory, recording the allocation in the trace.
    ///
    /// # Errors
    ///
    /// Returns [`MemError::BadAlloc`] for a zero-size or misaligned request.
    pub fn palloc(&self, size: u64, align: u64) -> Result<MemAddr, MemError> {
        let addr = self.inner.alloc.lock().unwrap().alloc(size, align)?;
        self.record_plain(Op::PAlloc { addr, size });
        Ok(addr)
    }

    /// Frees persistent memory, recording the free in the trace.
    ///
    /// # Errors
    ///
    /// Returns [`MemError::BadFree`] if `addr` is not a live allocation.
    pub fn pfree(&self, addr: MemAddr) -> Result<(), MemError> {
        self.inner.alloc.lock().unwrap().free(addr)?;
        self.record_plain(Op::PFree { addr });
        Ok(())
    }

    /// Marks the beginning of a logical work item (e.g. one queue insert).
    pub fn work_begin(&self, id: u64) {
        self.record_plain(Op::WorkBegin { id });
    }

    /// Marks the end of a logical work item.
    pub fn work_end(&self, id: u64) {
        self.record_plain(Op::WorkEnd { id });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{FreeRunScheduler, SeededScheduler};
    use std::collections::HashMap;

    #[test]
    fn single_thread_rw() {
        let mem = TracedMem::new(FreeRunScheduler);
        let trace = mem.run(1, |ctx| {
            let a = MemAddr::persistent(64);
            ctx.store_u64(a, 0xDEAD_BEEF);
            assert_eq!(ctx.load_u64(a), 0xDEAD_BEEF);
            assert_eq!(ctx.load_u64(a.add(8)), 0);
        });
        assert_eq!(trace.events().len(), 3);
        trace.validate_sc().unwrap();
    }

    #[test]
    fn unaligned_and_partial_accesses() {
        let mem = TracedMem::new(FreeRunScheduler);
        let trace = mem.run(1, |ctx| {
            let a = MemAddr::volatile(5);
            ctx.store_n(a, 8, 0x1122_3344_5566_7788); // crosses a word boundary
            assert_eq!(ctx.load_n(a, 8), 0x1122_3344_5566_7788);
            ctx.store_n(a.add(2), 1, 0xFF);
            assert_eq!(ctx.load_n(a, 8), 0x1122_3344_55FF_7788);
        });
        trace.validate_sc().unwrap();
    }

    #[test]
    fn copy_bytes_roundtrip() {
        let mem = TracedMem::new(FreeRunScheduler);
        let data: Vec<u8> = (0..100).collect();
        let mem_trace = mem.run(1, |ctx| {
            let dst = ctx.palloc(128, 64).unwrap();
            ctx.copy_bytes(dst.add(3), &data); // force unaligned head/tail
            let mut out = vec![0u8; 100];
            ctx.read_bytes(dst.add(3), &mut out);
            assert_eq!(out, data);
        });
        mem_trace.validate_sc().unwrap();
    }

    #[test]
    fn copy_bytes_word_count() {
        // 64-byte-aligned 108-byte copy = 13 full words + one 4-byte store.
        let mem = TracedMem::new(FreeRunScheduler);
        let trace = mem.run(1, |ctx| {
            let dst = ctx.palloc(128, 64).unwrap();
            ctx.copy_bytes(dst, &[0u8; 108]);
        });
        let stores = trace.events().iter().filter(|e| e.op.is_write()).count();
        assert_eq!(stores, 14);
    }

    #[test]
    fn bulk_larger_than_shard_span_roundtrips() {
        // A copy spanning more than NSHARDS words must still lock each
        // shard exactly once and read back correctly.
        let len = (NSHARDS + 40) * 8;
        let data: Vec<u8> = (0..len).map(|i| (i * 7) as u8).collect();
        let mem = TracedMem::new(FreeRunScheduler);
        let trace = mem.run(1, |ctx| {
            let dst = MemAddr::persistent(1 << 16);
            ctx.copy_bytes(dst, &data);
            let mut out = vec![0u8; len];
            ctx.read_bytes(dst, &mut out);
            assert_eq!(out, data);
        });
        trace.validate_sc().unwrap();
    }

    #[test]
    fn far_offsets_spill_and_read_back() {
        // Offsets beyond the dense page range take the spill path. Such
        // addresses exceed MemoryImage's 1 GiB replay cap, so the check here
        // is the in-run load/store round-trip, not validate_sc.
        let mem = TracedMem::new(FreeRunScheduler);
        let far = MemAddr::persistent(1 << 40);
        let trace = mem.run(1, |ctx| {
            ctx.store_u64(far, 0xFEED);
            assert_eq!(ctx.load_u64(far), 0xFEED);
            assert_eq!(ctx.load_u64(far.add(8)), 0);
            ctx.store_u64(MemAddr::persistent(64), 7); // dense path coexists
            assert_eq!(ctx.load_u64(MemAddr::persistent(64)), 7);
        });
        assert_eq!(trace.events().len(), 5);
    }

    #[test]
    fn rmw_semantics() {
        let mem = TracedMem::new(FreeRunScheduler);
        mem.run(1, |ctx| {
            let a = MemAddr::volatile(0);
            assert_eq!(ctx.cas_u64(a, 0, 5), 0); // success
            assert_eq!(ctx.cas_u64(a, 0, 9), 5); // failure leaves 5
            assert_eq!(ctx.load_u64(a), 5);
            assert_eq!(ctx.swap_u64(a, 7), 5);
            assert_eq!(ctx.fetch_add_u64(a, 3), 7);
            assert_eq!(ctx.load_u64(a), 10);
        });
    }

    #[test]
    fn failed_cas_records_old_value_as_written() {
        let mem = TracedMem::new(FreeRunScheduler);
        let trace = mem.run(1, |ctx| {
            let a = MemAddr::volatile(0);
            ctx.store_u64(a, 5);
            ctx.cas_u64(a, 0, 9); // fails
        });
        let Op::Rmw { old, new, .. } = trace.events()[1].op else {
            panic!("expected rmw")
        };
        assert_eq!((old, new), (5, 5));
        trace.validate_sc().unwrap();
    }

    #[test]
    fn quiet_cas_records_only_success() {
        let mem = TracedMem::new(FreeRunScheduler);
        let trace = mem.run(1, |ctx| {
            let a = MemAddr::volatile(0);
            ctx.store_u64(a, 5);
            assert_eq!(ctx.cas_u64_quiet(a, 0, 9), 5); // fails: no event
            assert_eq!(ctx.peek_u64(a), 5); // no event either
            assert_eq!(ctx.cas_u64_quiet(a, 5, 9), 5); // succeeds: recorded
            assert_eq!(ctx.load_u64(a), 9);
        });
        assert_eq!(trace.events().len(), 3); // store + successful rmw + load
        assert!(matches!(trace.events()[1].op, Op::Rmw { old: 5, new: 9, .. }));
        trace.validate_sc().unwrap();
    }

    #[test]
    fn multithreaded_counter_is_atomic() {
        let mem = TracedMem::new(FreeRunScheduler);
        let trace = mem.run(8, |ctx| {
            let a = MemAddr::volatile(0);
            for _ in 0..100 {
                ctx.fetch_add_u64(a, 1);
            }
        });
        // Replay: final value must be 800.
        let image = trace.final_image();
        assert_eq!(image.read_u64(MemAddr::volatile(0)).unwrap(), 800);
        trace.validate_sc().unwrap();
    }

    #[test]
    fn seeded_runs_are_reproducible() {
        let run = |seed| {
            let mem = TracedMem::new(SeededScheduler::new(seed));
            mem.run(4, |ctx| {
                let a = MemAddr::volatile(0);
                for _ in 0..50 {
                    ctx.fetch_add_u64(a, 1 + ctx.thread_id().as_u64());
                }
            })
        };
        let t1 = run(99);
        let t2 = run(99);
        assert_eq!(t1.events(), t2.events());
        t1.validate_sc().unwrap();
    }

    #[test]
    fn program_order_is_preserved_per_thread() {
        let mem = TracedMem::new(FreeRunScheduler);
        let trace = mem.run(4, |ctx| {
            for i in 0..20 {
                ctx.store_u64(MemAddr::volatile(ctx.thread_id().as_u64() * 64), i);
            }
        });
        let mut last_po: HashMap<ThreadId, u32> = HashMap::new();
        for e in trace.events() {
            if let Some(&prev) = last_po.get(&e.thread) {
                assert!(e.po > prev, "program order violated in visibility order");
            }
            last_po.insert(e.thread, e.po);
        }
    }

    #[test]
    fn palloc_records_events() {
        let mem = TracedMem::new(FreeRunScheduler);
        let trace = mem.run(1, |ctx| {
            let p = ctx.palloc(64, 8).unwrap();
            ctx.pfree(p).unwrap();
            assert!(ctx.palloc(0, 8).is_err());
        });
        assert!(matches!(trace.events()[0].op, Op::PAlloc { .. }));
        assert!(matches!(trace.events()[1].op, Op::PFree { .. }));
    }

    #[test]
    fn run_timed_reports_event_count() {
        let mem = TracedMem::new(FreeRunScheduler);
        let (trace, stats) = mem.run_timed(2, |ctx| {
            ctx.store_u64(MemAddr::volatile(64 * ctx.thread_id().as_u64()), 1);
        });
        assert_eq!(stats.events, trace.events().len());
        assert!(stats.merge_seconds >= 0.0);
    }

    // ---- differential: k-way merge vs the sort-based oracle ----

    /// Captures a seeded contended workload and checks that the production
    /// k-way merge and the pre-overhaul sort-based merge agree exactly
    /// (events byte-identical, `validate_sc` verdict identical).
    fn assert_merges_agree(seed: u64, nthreads: u32, iters: u64) {
        let mem = TracedMem::new(SeededScheduler::new(seed));
        let buffers = mem.capture(nthreads, |ctx| {
            let shared = MemAddr::volatile(0);
            let mine = MemAddr::persistent(4096 * (1 + ctx.thread_id().as_u64()));
            for i in 0..iters {
                ctx.fetch_add_u64(shared, 1);
                ctx.store_u64(mine.add(8 * (i % 16)), i);
                if i % 3 == 0 {
                    ctx.persist_barrier();
                }
                ctx.copy_bytes(mine.add(256), &[i as u8; 21]);
            }
        });
        let kway = merge_kway(&buffers);
        let oracle = merge_sorted(&buffers);
        assert_eq!(kway, oracle, "merge mismatch (seed {seed}, {nthreads} threads)");
        let t_kway = Trace::from_events(nthreads, kway);
        let t_oracle = Trace::from_events(nthreads, oracle);
        assert_eq!(t_kway, t_oracle);
        assert_eq!(t_kway.validate_sc(), t_oracle.validate_sc());
        t_kway.validate_sc().unwrap();
    }

    #[test]
    fn kway_merge_matches_sort_oracle_across_seeds_and_threads() {
        for (seed, nthreads) in [(1u64, 1u32), (2, 2), (3, 3), (99, 4), (1234, 6), (77, 8)] {
            assert_merges_agree(seed, nthreads, 25);
        }
    }

    #[test]
    fn kway_merge_handles_empty_and_lopsided_buffers() {
        // Thread 0 does everything; thread 2 does nothing.
        let mem = TracedMem::new(SeededScheduler::new(5));
        let buffers = mem.capture(3, |ctx| {
            if ctx.thread_id().index() == 0 {
                for i in 0..40 {
                    ctx.store_u64(MemAddr::volatile(8 * i), i);
                }
            } else if ctx.thread_id().index() == 1 {
                ctx.mem_barrier();
            }
        });
        assert_eq!(merge_kway(&buffers), merge_sorted(&buffers));
        assert!(merge_kway(&[]).is_empty());
    }
}
