//! Windowed time-series of counters and log2 histograms.
//!
//! The aggregate registry in the crate root answers "how much, in
//! total"; this module answers "how much, *when*". Every point is
//! bucketed into a fixed-width **window** by its timestamp:
//!
//! ```text
//! window index w = t_ns / window_ns
//! ```
//!
//! Timestamps come from whatever clock the caller trusts — the serve
//! harness feeds **virtual** nanoseconds in smoke mode (so the series is
//! deterministic and byte-identical for any worker count) and wall-clock
//! nanoseconds in paced mode. The module never reads a clock itself.
//!
//! Windows merge commutatively: a counter window is a sum, a histogram
//! window is a [`Histogram::merge`], and windows live in `BTreeMap`s so
//! the rendered order is independent of which thread recorded what.
//! Recording goes through thread-local buffers (merged on thread exit or
//! [`flush`], exactly like the crate-root registry) so there is no lock
//! on the hot path.
//!
//! The layer is **off by default twice over**: recording requires both
//! the crate-wide [`enabled`](crate::enabled) gate and a nonzero window
//! width ([`set_window_ns`]). The disabled fast path is the same single
//! relaxed atomic load as the rest of the crate.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use crate::esc;
use crate::hist::Histogram;

/// Window width in nanoseconds; 0 = series recording off.
static WINDOW_NS: AtomicU64 = AtomicU64::new(0);

/// Sets the window width in nanoseconds. `0` disables series recording.
pub fn set_window_ns(ns: u64) {
    WINDOW_NS.store(ns, Ordering::Relaxed);
}

/// The configured window width in nanoseconds (0 when off).
pub fn window_ns() -> u64 {
    WINDOW_NS.load(Ordering::Relaxed)
}

/// `true` when series points would actually be recorded: the crate-wide
/// obsv gate is on AND a window width has been configured. Instrumented
/// code checks this once per region and skips all series work otherwise.
#[inline]
pub fn active() -> bool {
    crate::enabled() && window_ns() != 0
}

/// The windows of one named series: per-window counter sums or
/// per-window histograms, never both under one name.
#[derive(Debug, Clone)]
pub enum SeriesData {
    /// Sum of `add` deltas per window.
    Counter(BTreeMap<u64, u64>),
    /// Merged histogram of `observe` values per window.
    Hist(BTreeMap<u64, Histogram>),
}

impl SeriesData {
    fn merge(&mut self, other: &SeriesData) {
        match (self, other) {
            (SeriesData::Counter(a), SeriesData::Counter(b)) => {
                for (&w, &v) in b {
                    *a.entry(w).or_insert(0) += v;
                }
            }
            (SeriesData::Hist(a), SeriesData::Hist(b)) => {
                for (&w, h) in b {
                    a.entry(w).or_default().merge(h);
                }
            }
            // A name recorded as both kinds is an instrumentation bug;
            // keep the first kind rather than corrupting either.
            (a, b) => debug_assert!(
                std::mem::discriminant(&*a) == std::mem::discriminant(b),
                "series recorded as both counter and histogram"
            ),
        }
    }
}

type SeriesStore = BTreeMap<String, SeriesData>;

static GLOBAL_SERIES: Mutex<SeriesStore> = Mutex::new(BTreeMap::new());

/// Thread-local series buffer; `Drop` merges into the global registry at
/// thread exit (same caveat as the crate root: `std::thread::scope` does
/// not wait for TLS destructors, so pool workers run under
/// [`crate::par_map`] or [`crate::spawn_flushed`], whose
/// [`flush`](crate::flush) covers this buffer too).
struct LocalSeries {
    store: RefCell<SeriesStore>,
}

impl Drop for LocalSeries {
    fn drop(&mut self) {
        let store = self.store.borrow();
        if !store.is_empty() {
            merge_into_global(&store);
        }
    }
}

fn merge_into_global(store: &SeriesStore) {
    let mut g = GLOBAL_SERIES.lock().unwrap();
    for (k, d) in store.iter() {
        match g.get_mut(k) {
            Some(e) => e.merge(d),
            None => {
                g.insert(k.clone(), d.clone());
            }
        }
    }
}

thread_local! {
    static LOCAL_SERIES: LocalSeries = LocalSeries { store: RefCell::new(BTreeMap::new()) };
}

/// Adds `delta` to the counter series `name` in the window containing
/// `t_ns`. No-op unless [`active`].
#[inline]
pub fn add(name: &str, t_ns: u64, delta: u64) {
    if !active() || delta == 0 {
        return;
    }
    let w = t_ns / window_ns();
    add_window(name, w, delta);
}

/// Adds `delta` directly to window index `w` of counter series `name`.
/// Bulk entry point for instrumentation that aggregates per-window
/// locally (e.g. per shard) and folds in once at the end — the fold is
/// commutative, so the result is independent of shard/worker order.
pub fn add_window(name: &str, w: u64, delta: u64) {
    if !crate::enabled() || delta == 0 {
        return;
    }
    LOCAL_SERIES.with(|l| {
        let mut store = l.store.borrow_mut();
        let d = store
            .entry(name.to_string())
            .or_insert_with(|| SeriesData::Counter(BTreeMap::new()));
        if let SeriesData::Counter(m) = d {
            *m.entry(w).or_insert(0) += delta;
        }
    });
}

/// Records one observation of `value` in the histogram series `name`, in
/// the window containing `t_ns`. No-op unless [`active`].
#[inline]
pub fn observe(name: &str, t_ns: u64, value: u64) {
    if !active() {
        return;
    }
    let w = t_ns / window_ns();
    LOCAL_SERIES.with(|l| {
        let mut store = l.store.borrow_mut();
        let d = store
            .entry(name.to_string())
            .or_insert_with(|| SeriesData::Hist(BTreeMap::new()));
        if let SeriesData::Hist(m) = d {
            m.entry(w).or_default().observe(value);
        }
    });
}

/// Merges a pre-aggregated histogram into window index `w` of histogram
/// series `name`. Bulk entry point paired with [`add_window`].
pub fn observe_window_hist(name: &str, w: u64, h: &Histogram) {
    if !crate::enabled() || h.count == 0 {
        return;
    }
    LOCAL_SERIES.with(|l| {
        let mut store = l.store.borrow_mut();
        let d = store
            .entry(name.to_string())
            .or_insert_with(|| SeriesData::Hist(BTreeMap::new()));
        if let SeriesData::Hist(m) = d {
            m.entry(w).or_default().merge(h);
        }
    });
}

/// Merges the calling thread's series buffer into the global registry.
/// [`crate::flush`] calls this, so workers spawned through
/// [`crate::par_map`] / [`crate::spawn_flushed`] cover the series layer
/// for free.
pub fn flush() {
    LOCAL_SERIES.with(|l| {
        let mut store = l.store.borrow_mut();
        if !store.is_empty() {
            merge_into_global(&store);
            store.clear();
        }
    });
}

/// Clears the global series registry and the calling thread's buffer.
/// [`crate::reset`] calls this.
pub fn reset() {
    LOCAL_SERIES.with(|l| l.store.borrow_mut().clear());
    GLOBAL_SERIES.lock().unwrap().clear();
}

/// A merged, immutable view of every series recorded so far.
#[derive(Debug, Clone, Default)]
pub struct SeriesSnapshot {
    /// Window width the points were recorded with.
    pub window_ns: u64,
    /// Series by name.
    pub series: BTreeMap<String, SeriesData>,
}

/// Flushes the calling thread and snapshots the global series registry.
pub fn snapshot() -> SeriesSnapshot {
    flush();
    SeriesSnapshot {
        window_ns: window_ns(),
        series: GLOBAL_SERIES.lock().unwrap().clone(),
    }
}

impl SeriesSnapshot {
    /// A snapshot restricted to series whose name starts with `prefix`.
    pub fn filter_prefix(&self, prefix: &str) -> SeriesSnapshot {
        SeriesSnapshot {
            window_ns: self.window_ns,
            series: self
                .series
                .iter()
                .filter(|(k, _)| k.starts_with(prefix))
                .map(|(k, d)| (k.clone(), d.clone()))
                .collect(),
        }
    }

    /// Renders the snapshot as a versioned `obsv_series_v1` JSON block
    /// for embedding in a report under a key: the opening `{` carries no
    /// indent (it sits after `"series": `) and every subsequent line is
    /// prefixed with `pad`. Counter windows render as `[w, sum]` pairs;
    /// histogram windows as `[w, {count, p50, p99, max}]`. Windows and
    /// names are sorted, so output is byte-identical for any sharding of
    /// the same recorded points.
    pub fn to_json(&self, pad: &str) -> String {
        let mut out = String::from("{\n");
        out.push_str(&format!("{pad}  \"schema\": \"obsv_series_v1\",\n"));
        out.push_str(&format!("{pad}  \"window_ns\": {},\n", self.window_ns));
        out.push_str(&format!("{pad}  \"series\": {{"));
        let rows: Vec<String> = self
            .series
            .iter()
            .map(|(name, data)| {
                let (kind, windows) = match data {
                    SeriesData::Counter(m) => (
                        "counter",
                        m.iter()
                            .map(|(w, v)| format!("[{w}, {v}]"))
                            .collect::<Vec<_>>()
                            .join(", "),
                    ),
                    SeriesData::Hist(m) => (
                        "hist",
                        m.iter()
                            .map(|(w, h)| {
                                format!(
                                    "[{w}, {{\"count\": {}, \"p50\": {:.0}, \"p99\": {:.0}, \"max\": {}}}]",
                                    h.count,
                                    h.quantile(0.5),
                                    h.quantile(0.99),
                                    h.max
                                )
                            })
                            .collect::<Vec<_>>()
                            .join(", "),
                    ),
                };
                format!(
                    "{pad}    \"{}\": {{\"kind\": \"{kind}\", \"windows\": [{windows}]}}",
                    esc(name)
                )
            })
            .collect();
        if rows.is_empty() {
            out.push_str("}\n");
        } else {
            out.push_str(&format!("\n{}\n{pad}  }}\n", rows.join(",\n")));
        }
        out.push_str(&format!("{pad}}}"));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::set_enabled;
    use crate::tests_support::locked;

    #[test]
    fn inactive_without_window_or_gate() {
        let _g = locked();
        set_enabled(true);
        set_window_ns(0);
        assert!(!active());
        add("uts_gate.c", 500, 3);
        set_window_ns(100);
        set_enabled(false);
        assert!(!active());
        add("uts_gate.c", 500, 3);
        set_enabled(true);
        let s = snapshot().filter_prefix("uts_gate.");
        set_enabled(false);
        set_window_ns(0);
        assert!(s.series.is_empty());
    }

    #[test]
    fn points_land_in_their_windows() {
        let _g = locked();
        set_enabled(true);
        set_window_ns(100);
        add("uts_win.c", 0, 1);
        add("uts_win.c", 99, 1);
        add("uts_win.c", 100, 5);
        observe("uts_win.h", 250, 8);
        observe("uts_win.h", 251, 16);
        let s = snapshot().filter_prefix("uts_win.");
        set_enabled(false);
        set_window_ns(0);
        reset();
        let SeriesData::Counter(c) = &s.series["uts_win.c"] else {
            panic!("expected counter")
        };
        assert_eq!(c[&0], 2);
        assert_eq!(c[&1], 5);
        let SeriesData::Hist(h) = &s.series["uts_win.h"] else {
            panic!("expected hist")
        };
        assert_eq!(h[&2].count, 2);
        assert_eq!(h[&2].sum, 24);
    }

    #[test]
    fn sharded_recording_merges_deterministically() {
        let _g = locked();
        set_enabled(true);
        set_window_ns(10);
        // Same logical points recorded under two different shardings.
        let record = |name: &str, shards: usize| {
            std::thread::scope(|s| {
                for sh in 0..shards {
                    let name = name.to_string();
                    s.spawn(move || {
                        for t in (sh as u64..40).step_by(shards) {
                            add(&format!("{name}.c"), t, t + 1);
                            observe(&format!("{name}.h"), t, 1 << (t % 7));
                        }
                        crate::flush();
                    });
                }
            });
        };
        record("uts_shard.a", 1);
        record("uts_shard.b", 4);
        let snap = snapshot();
        set_enabled(false);
        set_window_ns(0);
        reset();
        let a = snap.filter_prefix("uts_shard.a").to_json("");
        let b = snap.filter_prefix("uts_shard.b").to_json("");
        assert_eq!(a.replace("uts_shard.a", "X"), b.replace("uts_shard.b", "X"));
    }

    #[test]
    fn bulk_window_entry_points_match_pointwise() {
        let _g = locked();
        set_enabled(true);
        set_window_ns(100);
        add("uts_bulk.p", 150, 2);
        add("uts_bulk.p", 160, 3);
        observe("uts_bulk.ph", 150, 7);
        observe("uts_bulk.ph", 160, 9);
        add_window("uts_bulk.q", 1, 5);
        let mut h = Histogram::default();
        h.observe(7);
        h.observe(9);
        observe_window_hist("uts_bulk.qh", 1, &h);
        let s = snapshot().filter_prefix("uts_bulk.");
        set_enabled(false);
        set_window_ns(0);
        reset();
        assert_eq!(
            s.filter_prefix("uts_bulk.p").to_json("").replace("uts_bulk.p", "K"),
            s.filter_prefix("uts_bulk.q").to_json("").replace("uts_bulk.q", "K"),
        );
    }

    #[test]
    fn json_block_shape() {
        let mut snap = SeriesSnapshot { window_ns: 100, series: BTreeMap::new() };
        let mut c = BTreeMap::new();
        c.insert(0u64, 3u64);
        c.insert(2, 5);
        snap.series.insert("s.c".into(), SeriesData::Counter(c));
        let mut h = Histogram::default();
        h.observe(64);
        let mut hm = BTreeMap::new();
        hm.insert(1u64, h);
        snap.series.insert("s.h".into(), SeriesData::Hist(hm));
        let json = snap.to_json("  ");
        assert!(json.contains("\"schema\": \"obsv_series_v1\""));
        assert!(json.contains("\"window_ns\": 100"));
        assert!(json.contains("\"windows\": [[0, 3], [2, 5]]"));
        assert!(json.contains("[1, {\"count\": 1, \"p50\": 64, \"p99\": 64, \"max\": 64}]"));
        assert!(json.ends_with("  }"));
    }
}
