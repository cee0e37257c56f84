//! Persistency model selection and analysis configuration.

use core::fmt;
use persist_mem::{AtomicPersistSize, TrackingGranularity};

/// A memory persistency model (§5 of the paper).
///
/// The models successively relax persist ordering. [`Model::Strict`],
/// [`Model::Epoch`], [`Model::Bpfs`] and [`Model::Strand`] assume
/// sequential consistency, as in the paper's evaluation;
/// [`Model::StrictRmo`] couples strict persistency to a relaxed
/// consistency model. Which orderings each model keeps is the table in
/// [`crate::rules`], read through [`Model::rules`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum Model {
    /// Strict persistency under SC (§5.1).
    Strict,
    /// Strict persistency under a relaxed consistency model (§4.1, §5.1):
    /// same-thread store (and hence persist) order is enforced only across
    /// explicit memory barriers (`MemBarrier`); persist barriers do not
    /// exist (persistency is coupled to consistency). Conflicting accesses
    /// still order persists (cache coherence survives relaxation), as does
    /// strong persist atomicity. The trace's interleaving is reused as one
    /// legal relaxed execution.
    StrictRmo,
    /// Epoch persistency (§5.2).
    Epoch,
    /// The BPFS variant of epoch persistency (§5.2, "subtle differences").
    Bpfs,
    /// Strand persistency (§5.3).
    Strand,
}

impl Model {
    /// All models, in relaxation order.
    pub const ALL: [Model; 5] =
        [Model::Strict, Model::StrictRmo, Model::Epoch, Model::Bpfs, Model::Strand];

    /// Short lowercase name used in reports.
    pub fn name(self) -> &'static str {
        match self {
            Model::Strict => "strict",
            Model::StrictRmo => "strict-rmo",
            Model::Epoch => "epoch",
            Model::Bpfs => "bpfs",
            Model::Strand => "strand",
        }
    }
}

impl fmt::Display for Model {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Configuration of a persist-ordering analysis.
///
/// # Example
///
/// ```rust
/// use persistency::{AnalysisConfig, Model};
/// use persist_mem::AtomicPersistSize;
///
/// let cfg = AnalysisConfig::new(Model::Epoch)
///     .with_atomic_persist(AtomicPersistSize::new(64).unwrap());
/// assert_eq!(cfg.atomic_persist.bytes(), 64);
/// assert_eq!(cfg.tracking.bytes(), 8); // paper default
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AnalysisConfig {
    /// The persistency model to analyze under.
    pub model: Model,
    /// Atomic persist granularity (Figure 4 sweep); default 8 bytes.
    pub atomic_persist: AtomicPersistSize,
    /// Dependence tracking granularity (Figure 5 sweep); default 8 bytes.
    pub tracking: TrackingGranularity,
    /// Whether persists may coalesce (§3); default `true`, matching the
    /// paper's methodology. Disabling coalescing makes several
    /// monotonicity properties of the critical path exact theorems
    /// (relaxing the model or refining tracking can then never lengthen
    /// it); with greedy coalescing those properties can fail — see the
    /// `coalescing_nonmonotonicity` regression test.
    pub coalescing: bool,
}

impl AnalysisConfig {
    /// Creates a configuration with the paper's default granularities
    /// (eight bytes each).
    pub fn new(model: Model) -> Self {
        AnalysisConfig {
            model,
            atomic_persist: AtomicPersistSize::default(),
            tracking: TrackingGranularity::default(),
            coalescing: true,
        }
    }

    /// Disables persist coalescing (see [`AnalysisConfig::coalescing`]).
    #[must_use]
    pub fn without_coalescing(mut self) -> Self {
        self.coalescing = false;
        self
    }

    /// Sets the atomic persist granularity.
    #[must_use]
    pub fn with_atomic_persist(mut self, g: AtomicPersistSize) -> Self {
        self.atomic_persist = g;
        self
    }

    /// Sets the dependence tracking granularity.
    #[must_use]
    pub fn with_tracking(mut self, g: TrackingGranularity) -> Self {
        self.tracking = g;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let c = AnalysisConfig::new(Model::Strict);
        assert_eq!(c.atomic_persist.bytes(), 8);
        assert_eq!(c.tracking.bytes(), 8);
    }

    #[test]
    fn names_are_distinct() {
        let names: std::collections::HashSet<_> = Model::ALL.iter().map(|m| m.name()).collect();
        assert_eq!(names.len(), Model::ALL.len());
        assert_eq!(Model::Strand.to_string(), "strand");
    }

    #[test]
    fn builder_setters() {
        let c = AnalysisConfig::new(Model::Strand)
            .with_atomic_persist(AtomicPersistSize::new(256).unwrap())
            .with_tracking(TrackingGranularity::new(64).unwrap());
        assert_eq!(c.atomic_persist.bytes(), 256);
        assert_eq!(c.tracking.bytes(), 64);
    }
}
