//! Zero-dependency observability layer for the memory-persistency
//! pipeline.
//!
//! Three primitive kinds, all collected in **thread-local buffers** and
//! merged into a global registry with commutative, associative operations
//! (addition for counters and histogram buckets, min/max for extrema):
//!
//! - **Counters** ([`counter_add`]) — monotonically increasing totals
//!   (events captured, persists created, injections run).
//! - **Histograms** ([`observe`]) — fixed log2-bucket distributions
//!   ([`hist::Histogram`]) of deterministic quantities (events per run,
//!   DAG critical paths).
//! - **Spans** ([`span`]) and durations ([`record_duration`]) — wall-clock
//!   timings, kept in a separate `timings` section because their values
//!   are inherently nondeterministic.
//!
//! Because every merge operation is order-independent, the **deterministic
//! sections** of a snapshot ([`Snapshot::to_json`]: counters and
//! histograms) are byte-identical however the recording work was sharded
//! across threads — the same discipline the repo's `SweepRunner` output
//! follows. Wall-clock timings are rendered only by
//! [`Snapshot::to_json_full`].
//!
//! The whole layer is a **no-op unless enabled**: every recording call
//! starts with one relaxed atomic load ([`enabled`]). Enable it with
//! `OBSV=1` in the environment or [`set_enabled`] in code. Disabled-mode
//! overhead on the pipeline's hot sections is bounded by the perfbench
//! regression gate.
//!
//! Thread-local buffers flush into the global registry when their thread
//! exits and on explicit [`flush`] / [`snapshot`] calls from the owning
//! thread. Scoped worker threads do not finish exiting before their scope
//! unblocks, so they are spawned through [`par_map`] (a deterministic-order
//! parallel map) or [`spawn_flushed`], the only places a worker flushes.

#![warn(missing_docs)]

pub mod hist;
pub mod runmeta;
pub mod series;
pub mod tracefmt;

pub use hist::Histogram;
pub use runmeta::RunMeta;

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU8, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::thread::{Scope, ScopedJoinHandle};
use std::time::{Duration, Instant};

/// Tri-state enable flag: 0 = not yet initialized (consult `OBSV`),
/// 1 = disabled, 2 = enabled.
static ENABLED: AtomicU8 = AtomicU8::new(0);

/// `true` if metric recording is on. One relaxed atomic load on the fast
/// path; the first call resolves the `OBSV` environment variable.
#[inline]
pub fn enabled() -> bool {
    match ENABLED.load(Ordering::Relaxed) {
        2 => true,
        1 => false,
        _ => init_from_env(),
    }
}

/// Turns recording on or off for the whole process.
pub fn set_enabled(on: bool) {
    ENABLED.store(if on { 2 } else { 1 }, Ordering::Relaxed);
}

/// Resolves the enable flag from the `OBSV` environment variable
/// (`1`/`on`/`true` enable; anything else — including unset — disables)
/// and returns the resulting state. Recording calls do this lazily; call
/// it eagerly from `main` to pin the decision up front.
pub fn init_from_env() -> bool {
    let on = matches!(
        std::env::var("OBSV").as_deref(),
        Ok("1") | Ok("on") | Ok("true") | Ok("yes")
    );
    // Keep an explicit set_enabled() that raced us: only move out of the
    // uninitialized state.
    let _ = ENABLED.compare_exchange(
        0,
        if on { 2 } else { 1 },
        Ordering::Relaxed,
        Ordering::Relaxed,
    );
    ENABLED.load(Ordering::Relaxed) == 2
}

/// Wall-clock total for one span or duration series.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Timing {
    /// Completed spans recorded under this name.
    pub count: u64,
    /// Total wall-clock nanoseconds across those spans.
    pub total_ns: u64,
}

/// One thread's (or the global registry's) metric store.
#[derive(Debug, Default)]
struct Store {
    counters: BTreeMap<String, u64>,
    histograms: BTreeMap<String, Histogram>,
    timings: BTreeMap<String, Timing>,
}

impl Store {
    fn merge_into(&mut self, other: &Store) {
        for (k, v) in &other.counters {
            *self.counters.entry(k.clone()).or_insert(0) += v;
        }
        for (k, h) in &other.histograms {
            self.histograms.entry(k.clone()).or_default().merge(h);
        }
        for (k, t) in &other.timings {
            let e = self.timings.entry(k.clone()).or_default();
            e.count += t.count;
            e.total_ns += t.total_ns;
        }
    }

    fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.histograms.is_empty() && self.timings.is_empty()
    }
}

static GLOBAL: Mutex<Store> = Mutex::new(Store {
    counters: BTreeMap::new(),
    histograms: BTreeMap::new(),
    timings: BTreeMap::new(),
});

/// Thread-local buffer. The wrapper's `Drop` merges whatever the thread
/// recorded into the global registry when the thread exits — a safety
/// net for threads that never flush. Note the destructor runs at OS
/// thread exit, which `std::thread::scope` does NOT wait for (its join
/// counter drops when the closure returns), so pool workers whose
/// results are snapshot right after the scope are spawned through
/// [`spawn_flushed`] (or run under [`par_map`]), which flushes for them.
struct LocalBuf {
    store: RefCell<Store>,
    /// Names of the currently open spans on this thread, outermost first.
    span_stack: RefCell<Vec<String>>,
}

impl Drop for LocalBuf {
    fn drop(&mut self) {
        let store = self.store.borrow();
        if !store.is_empty() {
            GLOBAL.lock().unwrap().merge_into(&store);
        }
    }
}

thread_local! {
    static LOCAL: LocalBuf = LocalBuf {
        store: RefCell::new(Store::default()),
        span_stack: RefCell::new(Vec::new()),
    };
}

/// Adds `delta` to counter `name`. No-op while disabled.
#[inline]
pub fn counter_add(name: &str, delta: u64) {
    if !enabled() || delta == 0 {
        return;
    }
    LOCAL.with(|l| {
        let mut store = l.store.borrow_mut();
        match store.counters.get_mut(name) {
            Some(v) => *v += delta,
            None => {
                store.counters.insert(name.to_string(), delta);
            }
        }
    });
}

/// Records one observation of `value` in histogram `name`. No-op while
/// disabled.
#[inline]
pub fn observe(name: &str, value: u64) {
    if !enabled() {
        return;
    }
    LOCAL.with(|l| {
        let mut store = l.store.borrow_mut();
        match store.histograms.get_mut(name) {
            Some(h) => h.observe(value),
            None => {
                let mut h = Histogram::default();
                h.observe(value);
                store.histograms.insert(name.to_string(), h);
            }
        }
    });
}

/// Adds a completed wall-clock duration to timing series `name`. No-op
/// while disabled.
#[inline]
pub fn record_duration(name: &str, dur: Duration) {
    if !enabled() {
        return;
    }
    LOCAL.with(|l| {
        let mut store = l.store.borrow_mut();
        let t = store.timings.entry(name.to_string()).or_default();
        t.count += 1;
        t.total_ns += dur.as_nanos() as u64;
    });
}

/// An open span. Created by [`span`]; records its wall-clock duration
/// under its nesting path when dropped.
#[derive(Debug)]
pub struct Span {
    /// `None` when the layer was disabled at creation (full no-op).
    path: Option<String>,
    start: Instant,
}

impl Span {
    /// Elapsed time since the span opened.
    pub fn elapsed(&self) -> Duration {
        self.start.elapsed()
    }

    /// The span's full nesting path (`outer/inner`), if recording.
    pub fn path(&self) -> Option<&str> {
        self.path.as_deref()
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        let Some(path) = self.path.take() else { return };
        let dur = self.start.elapsed();
        LOCAL.with(|l| {
            // Close this span and any children left open by an early
            // return or panic between the child's creation and drop.
            let mut stack = l.span_stack.borrow_mut();
            while let Some(top) = stack.pop() {
                if top == path {
                    break;
                }
            }
            let mut store = l.store.borrow_mut();
            let t = store.timings.entry(path).or_default();
            t.count += 1;
            t.total_ns += dur.as_nanos() as u64;
        });
    }
}

/// Opens a span named `name`, nested under any span already open on this
/// thread: a span `b` opened while `a` is open records as `a/b`. Returns
/// a guard that records the duration when dropped. No-op while disabled.
pub fn span(name: &str) -> Span {
    if !enabled() {
        return Span { path: None, start: Instant::now() };
    }
    let path = LOCAL.with(|l| {
        let mut stack = l.span_stack.borrow_mut();
        let path = match stack.last() {
            Some(parent) => format!("{parent}/{name}"),
            None => name.to_string(),
        };
        stack.push(path.clone());
        path
    });
    Span { path: Some(path), start: Instant::now() }
}

/// Merges the calling thread's buffers — aggregate metrics, windowed
/// series, and timeline events — into their global registries. Buffers
/// of exited threads are merged automatically; long-lived threads (e.g.
/// `main`) call this — or [`snapshot`], which flushes first — before
/// reading results. Scoped workers get this call from [`spawn_flushed`]
/// and [`par_map`] (see [`LocalBuf`]'s caveat).
pub fn flush() {
    LOCAL.with(|l| {
        let mut store = l.store.borrow_mut();
        if !store.is_empty() {
            GLOBAL.lock().unwrap().merge_into(&store);
            *store = Store::default();
        }
    });
    series::flush();
    tracefmt::flush();
}

/// Spawns `f` on scope `s` and flushes the thread's buffers (see
/// [`flush`]) once `f` returns, so whatever the thread recorded is in the
/// global registries by the time the scope unblocks.
pub fn spawn_flushed<'scope, T: Send + 'scope>(
    s: &'scope Scope<'scope, '_>,
    f: impl FnOnce() -> T + Send + 'scope,
) -> ScopedJoinHandle<'scope, T> {
    s.spawn(move || {
        let out = f();
        flush();
        out
    })
}

/// Deterministic-order parallel map: applies `f` to `0..n` on up to
/// `workers` scoped threads and returns the results in index order,
/// whatever the scheduling. Workers claim indices from a shared atomic
/// counter (work stealing by index), so skewed item costs stay balanced,
/// and each worker is spawned through [`spawn_flushed`]. With one worker
/// (or at most one item) everything runs on the calling thread.
pub fn par_map<R, F>(n: usize, workers: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    let workers = workers.clamp(1, n.max(1));
    if workers == 1 {
        return (0..n).map(f).collect();
    }
    let next = AtomicUsize::new(0);
    let claim = || {
        let mut done = Vec::new();
        loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            if i >= n {
                return done;
            }
            done.push((i, f(i)));
        }
    };
    let mut tagged: Vec<(usize, R)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..workers).map(|_| spawn_flushed(s, claim)).collect();
        handles.into_iter().flat_map(|h| h.join().expect("par_map worker panicked")).collect()
    });
    tagged.sort_unstable_by_key(|&(i, _)| i);
    tagged.into_iter().map(|(_, r)| r).collect()
}

/// A merged, immutable view of every metric recorded so far.
#[derive(Debug, Clone, Default)]
pub struct Snapshot {
    /// Counter totals, by name.
    pub counters: BTreeMap<String, u64>,
    /// Histograms, by name.
    pub histograms: BTreeMap<String, Histogram>,
    /// Wall-clock timings, by span path / series name.
    pub timings: BTreeMap<String, Timing>,
}

/// Flushes the calling thread and returns a snapshot of the global
/// registry.
pub fn snapshot() -> Snapshot {
    flush();
    let g = GLOBAL.lock().unwrap();
    Snapshot {
        counters: g.counters.clone(),
        histograms: g.histograms.clone(),
        timings: g.timings.clone(),
    }
}

/// Clears the global registries — aggregate metrics, windowed series,
/// and timeline events — and the calling thread's buffers (testing and
/// between-section isolation; other threads' unflushed buffers are
/// untouched).
pub fn reset() {
    LOCAL.with(|l| {
        *l.store.borrow_mut() = Store::default();
        l.span_stack.borrow_mut().clear();
    });
    *GLOBAL.lock().unwrap() = Store::default();
    series::reset();
    tracefmt::reset();
}

fn esc(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

impl Snapshot {
    /// A snapshot restricted to metrics whose name starts with `prefix`
    /// (test isolation: concurrent tests use disjoint prefixes).
    pub fn filter_prefix(&self, prefix: &str) -> Snapshot {
        Snapshot {
            counters: self
                .counters
                .iter()
                .filter(|(k, _)| k.starts_with(prefix))
                .map(|(k, &v)| (k.clone(), v))
                .collect(),
            histograms: self
                .histograms
                .iter()
                .filter(|(k, _)| k.starts_with(prefix))
                .map(|(k, h)| (k.clone(), h.clone()))
                .collect(),
            timings: self
                .timings
                .iter()
                .filter(|(k, _)| k.starts_with(prefix))
                .map(|(k, &v)| (k.clone(), v))
                .collect(),
        }
    }

    /// The deterministic sections (counters + histograms) as pretty JSON.
    /// Byte-identical for any sharding of the same recorded work; wall
    /// clock timings are excluded (see [`Snapshot::to_json_full`]).
    pub fn to_json(&self) -> String {
        self.render(false)
    }

    /// Full snapshot JSON: the deterministic sections plus wall-clock
    /// `timings` (counts and total nanoseconds per span path).
    pub fn to_json_full(&self) -> String {
        self.render(true)
    }

    fn render(&self, include_timings: bool) -> String {
        fn section(out: &mut String, name: &str, rows: Vec<String>, last: bool) {
            out.push_str(&format!("  \"{name}\": {{"));
            if rows.is_empty() {
                out.push('}');
            } else {
                out.push_str(&format!("\n{}\n  }}", rows.join(",\n")));
            }
            out.push_str(if last { "\n" } else { ",\n" });
        }
        let mut out = String::from("{\n");
        section(
            &mut out,
            "counters",
            self.counters.iter().map(|(k, v)| format!("    \"{}\": {v}", esc(k))).collect(),
            false,
        );
        section(
            &mut out,
            "histograms",
            self.histograms
                .iter()
                .map(|(k, h)| format!("    \"{}\": {}", esc(k), h.to_json()))
                .collect(),
            !include_timings,
        );
        if include_timings {
            section(
                &mut out,
                "timings",
                self.timings
                    .iter()
                    .map(|(k, t)| {
                        format!(
                            "    \"{}\": {{\"count\": {}, \"total_ns\": {}}}",
                            esc(k),
                            t.count,
                            t.total_ns
                        )
                    })
                    .collect(),
                true,
            );
        }
        out.push_str("}\n");
        out
    }
}

/// Unit tests across this crate's modules share one process-global
/// registry AND the process-global enable flag, so every test namespaces
/// its metrics, filters snapshots by that prefix, and holds this lock
/// while toggling the flag.
#[cfg(test)]
pub(crate) mod tests_support {
    use std::sync::Mutex;

    static TEST_LOCK: Mutex<()> = Mutex::new(());

    pub(crate) fn locked() -> std::sync::MutexGuard<'static, ()> {
        TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }
}

#[cfg(test)]
mod tests {
    use super::tests_support::locked;
    use super::*;

    #[test]
    fn disabled_layer_records_nothing() {
        let _g = locked();
        set_enabled(false);
        counter_add("ut_off.c", 5);
        observe("ut_off.h", 5);
        drop(span("ut_off.s"));
        let s = snapshot().filter_prefix("ut_off.");
        assert!(s.counters.is_empty() && s.histograms.is_empty() && s.timings.is_empty());
    }

    #[test]
    fn counters_and_histograms_accumulate() {
        let _g = locked();
        set_enabled(true);
        counter_add("ut_acc.c", 2);
        counter_add("ut_acc.c", 3);
        observe("ut_acc.h", 7);
        observe("ut_acc.h", 9);
        set_enabled(false);
        let s = snapshot().filter_prefix("ut_acc.");
        assert_eq!(s.counters["ut_acc.c"], 5);
        assert_eq!(s.histograms["ut_acc.h"].count, 2);
        assert_eq!(s.histograms["ut_acc.h"].sum, 16);
    }

    #[test]
    fn span_nesting_builds_paths() {
        let _g = locked();
        set_enabled(true);
        {
            let _a = span("ut_nest.outer");
            {
                let _b = span("inner");
                let _c = span("leaf");
            }
            let _d = span("inner2");
        }
        set_enabled(false);
        let s = snapshot().filter_prefix("ut_nest.");
        let paths: Vec<&str> = s.timings.keys().map(String::as_str).collect();
        assert_eq!(
            paths,
            vec![
                "ut_nest.outer",
                "ut_nest.outer/inner",
                "ut_nest.outer/inner/leaf",
                "ut_nest.outer/inner2"
            ]
        );
        assert!(s.timings.values().all(|t| t.count == 1));
    }

    #[test]
    fn sibling_spans_reuse_parent_path() {
        let _g = locked();
        set_enabled(true);
        {
            let _a = span("ut_sib.p");
            for _ in 0..3 {
                let _c = span("child");
            }
        }
        set_enabled(false);
        let s = snapshot().filter_prefix("ut_sib.");
        assert_eq!(s.timings["ut_sib.p/child"].count, 3);
        assert_eq!(s.timings["ut_sib.p"].count, 1);
    }

    /// A worker's buffer reaches the registry at thread exit, which
    /// joining a spawned thread waits for, and a scoped worker's through
    /// [`spawn_flushed`] (the scope does not wait for thread exit).
    #[test]
    fn worker_threads_merge_on_exit() {
        let _g = locked();
        set_enabled(true);
        let record = |prefix: &'static str| {
            move || {
                counter_add(&format!("{prefix}c"), 10);
                observe(&format!("{prefix}h"), 64);
            }
        };
        let workers: Vec<_> = (0..4).map(|_| std::thread::spawn(record("ut_thr."))).collect();
        for w in workers {
            w.join().unwrap();
        }
        std::thread::scope(|s| {
            for _ in 0..4 {
                spawn_flushed(s, record("ut_thr_scoped."));
            }
        });
        set_enabled(false);
        for prefix in ["ut_thr.", "ut_thr_scoped."] {
            let s = snapshot().filter_prefix(prefix);
            assert_eq!(s.counters[&format!("{prefix}c")], 40, "{prefix}");
            assert_eq!(s.histograms[&format!("{prefix}h")].count, 4, "{prefix}");
        }
    }

    #[test]
    fn json_shape_is_stable() {
        let mut snap = Snapshot::default();
        snap.counters.insert("b".into(), 2);
        snap.counters.insert("a".into(), 1);
        let mut h = Histogram::default();
        h.observe(3);
        snap.histograms.insert("x".into(), h);
        let json = snap.to_json();
        let a = json.find("\"a\"").unwrap();
        let b = json.find("\"b\"").unwrap();
        assert!(a < b, "counters render in sorted order");
        assert!(json.contains("\"buckets\": [[2, 1]]"));
        let full = snap.to_json_full();
        assert!(full.contains("\"timings\": {}"));
    }
}
