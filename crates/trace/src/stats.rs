//! Insert-distance statistics (§7 "Performance Validation").
//!
//! The paper validates that tracing does not unduly perturb thread
//! interleaving by comparing the distribution of *insert distance* — for
//! each completed work item, how many work items from other threads
//! completed since the same thread's previous item — between native and
//! instrumented runs. This module computes that distribution from the
//! `WorkEnd` markers in a trace and provides a distance metric between two
//! distributions.

use crate::{Op, ThreadId, Trace};
use std::collections::HashMap;

/// Discrete distribution of insert distances.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DistanceHistogram {
    counts: HashMap<u64, u64>,
    total: u64,
}

impl DistanceHistogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one observation.
    pub fn add(&mut self, distance: u64) {
        *self.counts.entry(distance).or_insert(0) += 1;
        self.total += 1;
    }

    /// Number of observations.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Probability mass at `distance`.
    pub fn pmf(&self, distance: u64) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        *self.counts.get(&distance).unwrap_or(&0) as f64 / self.total as f64
    }

    /// Mean insert distance.
    pub fn mean(&self) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let sum: u64 = self.counts.iter().map(|(&d, &c)| d * c).sum();
        sum as f64 / self.total as f64
    }

    /// The `q`-quantile (0.0..=1.0) of the distribution.
    ///
    /// # Panics
    ///
    /// Panics if `q` is outside `0.0..=1.0`.
    pub fn quantile(&self, q: f64) -> u64 {
        assert!((0.0..=1.0).contains(&q), "quantile must be in 0..=1");
        if self.total == 0 {
            return 0;
        }
        let mut keys: Vec<u64> = self.counts.keys().copied().collect();
        keys.sort_unstable();
        let target = (q * self.total as f64).ceil().max(1.0) as u64;
        let mut seen = 0;
        for k in keys {
            seen += self.counts[&k];
            if seen >= target {
                return k;
            }
        }
        unreachable!("cumulative counts must reach total")
    }

    /// Total variation distance to another histogram: half the L1 distance
    /// between the two probability mass functions, in `0.0..=1.0`. Two
    /// identical distributions have distance 0.
    pub fn total_variation(&self, other: &DistanceHistogram) -> f64 {
        let mut keys: Vec<u64> =
            self.counts.keys().chain(other.counts.keys()).copied().collect();
        keys.sort_unstable();
        keys.dedup();
        0.5 * keys
            .iter()
            .map(|&k| (self.pmf(k) - other.pmf(k)).abs())
            .sum::<f64>()
    }

    /// Iterates over `(distance, count)` pairs in distance order.
    pub fn iter(&self) -> impl Iterator<Item = (u64, u64)> {
        let mut v: Vec<(u64, u64)> = self.counts.iter().map(|(&d, &c)| (d, c)).collect();
        v.sort_unstable();
        v.into_iter()
    }
}

/// Computes the insert-distance histogram from a trace's `WorkEnd`
/// markers: the distance of a work item is the number of other-thread work
/// completions since the same thread's previous completion.
pub fn insert_distances(trace: &Trace) -> DistanceHistogram {
    let mut hist = DistanceHistogram::new();
    // Global index of each completion, per thread last-seen.
    let mut completed: u64 = 0;
    let mut last_of: HashMap<ThreadId, u64> = HashMap::new();
    for e in trace.events() {
        if let Op::WorkEnd { .. } = e.op {
            if let Some(&prev) = last_of.get(&e.thread) {
                // completions strictly between prev and this one
                hist.add(completed - prev - 1);
            }
            last_of.insert(e.thread, completed);
            completed += 1;
        }
    }
    hist
}

/// Builds an insert-distance histogram from an externally observed sequence
/// of completing thread ids (used for native, untraced runs).
pub fn insert_distances_from_order(order: &[u32]) -> DistanceHistogram {
    let mut hist = DistanceHistogram::new();
    let mut last_of: HashMap<u32, u64> = HashMap::new();
    for (i, &t) in order.iter().enumerate() {
        if let Some(&prev) = last_of.get(&t) {
            hist.add(i as u64 - prev - 1);
        }
        last_of.insert(t, i as u64);
    }
    hist
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TraceBuilder;

    fn trace_of(order: &[u32]) -> Trace {
        let n = order.iter().copied().max().unwrap_or(0) + 1;
        let mut b = TraceBuilder::new(n);
        for (i, &t) in order.iter().enumerate() {
            b.op(t, Op::WorkBegin { id: i as u64 });
            b.op(t, Op::WorkEnd { id: i as u64 });
        }
        b.build()
    }

    #[test]
    fn round_robin_distance_is_constant() {
        let t = trace_of(&[0, 1, 2, 0, 1, 2, 0, 1, 2]);
        let h = insert_distances(&t);
        assert_eq!(h.total(), 6);
        assert_eq!(h.pmf(2), 1.0);
        assert_eq!(h.mean(), 2.0);
    }

    #[test]
    fn single_thread_distance_is_zero() {
        let t = trace_of(&[0, 0, 0, 0]);
        let h = insert_distances(&t);
        assert_eq!(h.total(), 3);
        assert_eq!(h.pmf(0), 1.0);
    }

    #[test]
    fn histogram_matches_order_based() {
        let order = [0, 1, 0, 0, 1, 2, 1, 0];
        let a = insert_distances(&trace_of(&order));
        let b = insert_distances_from_order(&order);
        assert_eq!(a, b);
    }

    #[test]
    fn total_variation_properties() {
        let a = insert_distances_from_order(&[0, 1, 0, 1, 0, 1]);
        let b = insert_distances_from_order(&[0, 1, 0, 1, 0, 1]);
        let c = insert_distances_from_order(&[0, 0, 0, 1, 1, 1]);
        assert_eq!(a.total_variation(&b), 0.0);
        assert!(a.total_variation(&c) > 0.5);
        // Symmetry.
        assert!((a.total_variation(&c) - c.total_variation(&a)).abs() < 1e-12);
    }

    #[test]
    fn quantiles() {
        let mut h = DistanceHistogram::new();
        for d in [0u64, 0, 1, 1, 1, 2, 5, 9] {
            h.add(d);
        }
        assert_eq!(h.quantile(0.5), 1);
        assert_eq!(h.quantile(1.0), 9);
        assert_eq!(h.quantile(0.0), 0);
    }

    #[test]
    fn empty_histogram_is_benign() {
        let h = DistanceHistogram::new();
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.quantile(0.5), 0);
        assert_eq!(h.total_variation(&h), 0.0);
    }
}
