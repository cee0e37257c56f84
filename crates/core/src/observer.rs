//! The recovery observer: enumerating recoverable persistent states.
//!
//! The paper models failure as a *recovery observer* that atomically reads
//! all of persistent memory at the moment of failure (§4). Under a
//! persistency model, the states the observer may witness are exactly the
//! **consistent cuts** of the persist-order constraint DAG: down-closed
//! sets of persist nodes (if a persist is observed, everything ordered
//! before it is observed too), with each node's coalesced writes applied
//! atomically.
//!
//! Two strategies are provided:
//!
//! - [`RecoveryObserver::enumerate_cuts`] — exhaustive enumeration for
//!   small DAGs (bounded state count),
//! - [`RecoveryObserver::sample_cuts`] — prefixes of random linear
//!   extensions; every prefix of a linear extension is a consistent cut,
//!   and repeated sampling explores the cut lattice.

use crate::dag::PersistDag;
use core::fmt;
use mem_trace::Trace;
use persist_mem::MemoryImage;
use mem_trace::rng::SmallRng;
use std::collections::HashSet;

/// A consistent cut: the set of persists the recovery observer witnessed.
///
/// Node ids are sorted; the cut is down-closed in the DAG that produced it.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Cut {
    nodes: Vec<u32>,
}

impl Cut {
    /// The persists in the cut, sorted by node id.
    pub fn nodes(&self) -> &[u32] {
        &self.nodes
    }

    /// Number of persists observed.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// `true` if no persist was observed (failure before any persist).
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// `true` if the cut contains node `id`.
    pub fn contains(&self, id: u32) -> bool {
        self.nodes.binary_search(&id).is_ok()
    }
}

impl fmt::Display for Cut {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "cut[{} persists]", self.nodes.len())
    }
}

/// Error from exhaustive cut enumeration.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum ObserverError {
    /// The DAG admits more cuts than the given bound.
    TooManyCuts {
        /// The bound that was exceeded.
        limit: usize,
    },
}

impl fmt::Display for ObserverError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ObserverError::TooManyCuts { limit } => {
                write!(f, "more than {limit} consistent cuts; use sampling instead")
            }
        }
    }
}

impl std::error::Error for ObserverError {}

/// Enumerates/samples recoverable persistent-memory states of a trace.
#[derive(Debug)]
pub struct RecoveryObserver<'a> {
    dag: &'a PersistDag,
}

impl<'a> RecoveryObserver<'a> {
    /// Creates an observer over a persist DAG.
    pub fn new(dag: &'a PersistDag) -> Self {
        RecoveryObserver { dag }
    }

    /// Exhaustively enumerates every consistent cut, including the empty
    /// and full cuts.
    ///
    /// # Errors
    ///
    /// Returns [`ObserverError::TooManyCuts`] once more than `limit` cuts
    /// have been found (the count can be exponential in DAG width).
    pub fn enumerate_cuts(&self, limit: usize) -> Result<Vec<Cut>, ObserverError> {
        // BFS over the cut lattice: extend each cut by any node all of
        // whose predecessors are in the cut.
        let n = self.dag.len();
        let mut seen: HashSet<Vec<u32>> = HashSet::new();
        let mut queue: Vec<Vec<u32>> = vec![Vec::new()];
        seen.insert(Vec::new());
        let mut out = Vec::new();
        while let Some(cut) = queue.pop() {
            out.push(Cut { nodes: cut.clone() });
            if out.len() > limit {
                return Err(ObserverError::TooManyCuts { limit });
            }
            for id in 0..n as u32 {
                if cut.binary_search(&id).is_ok() {
                    continue;
                }
                let ready = self.dag.deps(id).iter().all(|d| cut.binary_search(d).is_ok());
                if ready {
                    let mut next = cut.clone();
                    let pos = next.binary_search(&id).unwrap_err();
                    next.insert(pos, id);
                    if seen.insert(next.clone()) {
                        queue.push(next);
                    }
                }
            }
        }
        Ok(out)
    }

    /// Samples cuts as prefixes of `extensions` random linear extensions of
    /// the DAG, deduplicated. Always includes the empty and full cuts.
    pub fn sample_cuts(&self, seed: u64, extensions: usize) -> Vec<Cut> {
        let n = self.dag.len();
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut seen: HashSet<Vec<u32>> = HashSet::new();
        let mut out = Vec::new();
        let push = |nodes: Vec<u32>, out: &mut Vec<Cut>, seen: &mut HashSet<Vec<u32>>| {
            if seen.insert(nodes.clone()) {
                out.push(Cut { nodes });
            }
        };
        push(Vec::new(), &mut out, &mut seen);
        for _ in 0..extensions {
            // Random linear extension: repeatedly pick a random ready node.
            let mut indeg: Vec<usize> =
                (0..n as u32).map(|id| self.dag.deps(id).len()).collect();
            let mut succs: Vec<Vec<u32>> = vec![Vec::new(); n];
            for (from, to) in self.dag.edges() {
                succs[from as usize].push(to);
            }
            let mut ready: Vec<u32> =
                (0..n as u32).filter(|&i| indeg[i as usize] == 0).collect();
            let mut cut: Vec<u32> = Vec::with_capacity(n);
            while !ready.is_empty() {
                let k = rng.gen_index(ready.len());
                let id = ready.swap_remove(k);
                let pos = cut.binary_search(&id).unwrap_err();
                cut.insert(pos, id);
                push(cut.clone(), &mut out, &mut seen);
                for &s in &succs[id as usize] {
                    indeg[s as usize] -= 1;
                    if indeg[s as usize] == 0 {
                        ready.push(s);
                    }
                }
            }
            debug_assert_eq!(cut.len(), n, "DAG must be acyclic");
        }
        out
    }

    /// Materializes the persistent memory image the observer would see for
    /// `cut`: the writes of every persist in the cut, applied in trace
    /// order, against a zero-filled persistent space. The volatile space of
    /// the returned image is empty — it did not survive the failure.
    pub fn recover(&self, cut: &Cut) -> MemoryImage {
        let mut writes: Vec<(usize, crate::domain::WriteRec)> = Vec::new();
        for &id in &cut.nodes {
            let node = &self.dag.nodes()[id as usize];
            for (w, e) in node.writes.iter().zip(&node.events) {
                writes.push((e.index, *w));
            }
        }
        writes.sort_unstable_by_key(|&(i, _)| i);
        let mut image = MemoryImage::new();
        for (_, w) in writes {
            image
                .write(w.addr, &w.value.to_le_bytes()[..w.len as usize])
                .expect("persist addresses fit the image");
        }
        image
    }

    /// The image after *all* persists complete — must equal the persistent
    /// part of the trace's final image.
    pub fn full_image(&self) -> MemoryImage {
        let all = Cut { nodes: (0..self.dag.len() as u32).collect() };
        self.recover(&all)
    }

    /// Convenience: checks that the full cut reproduces the persistent
    /// space of `trace`'s final image (a self-consistency property of the
    /// DAG construction).
    pub fn full_image_matches(&self, trace: &Trace) -> bool {
        use persist_mem::{MemAddr, Space};
        let full = self.full_image();
        let final_image = trace.final_image();
        let extent = final_image.extent(Space::Persistent).max(full.extent(Space::Persistent));
        let mut a = vec![0u8; extent as usize];
        let mut b = vec![0u8; extent as usize];
        full.read(MemAddr::persistent(0), &mut a).expect("extent fits");
        final_image.read(MemAddr::persistent(0), &mut b).expect("extent fits");
        a == b
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{AnalysisConfig, Model};
    use mem_trace::{FreeRunScheduler, TracedMem};

    fn chain_dag() -> (Trace, PersistDag) {
        let mem = TracedMem::new(FreeRunScheduler);
        let t = mem.run(1, |ctx| {
            let a = ctx.palloc(64, 8).unwrap();
            ctx.store_u64(a, 1);
            ctx.persist_barrier();
            ctx.store_u64(a.add(8), 2);
            ctx.persist_barrier();
            ctx.store_u64(a.add(16), 3);
        });
        let dag = PersistDag::build(&t, &AnalysisConfig::new(Model::Epoch)).unwrap();
        (t, dag)
    }

    #[test]
    fn chain_has_linear_cuts() {
        let (_, dag) = chain_dag();
        let obs = RecoveryObserver::new(&dag);
        let cuts = obs.enumerate_cuts(100).unwrap();
        // A 3-chain has exactly 4 cuts: {}, {0}, {0,1}, {0,1,2}.
        assert_eq!(cuts.len(), 4);
        assert!(cuts.iter().any(|c| c.is_empty()));
        assert!(cuts.iter().any(|c| c.len() == 3));
        // No cut contains node 2 without node 1.
        for c in &cuts {
            if c.contains(2) {
                assert!(c.contains(1) && c.contains(0));
            }
        }
    }

    #[test]
    fn antichain_has_exponential_cuts() {
        let mem = TracedMem::new(FreeRunScheduler);
        let t = mem.run(1, |ctx| {
            let a = ctx.palloc(256, 64).unwrap();
            for i in 0..4 {
                ctx.store_u64(a.add(8 * i), i); // one epoch: 4-antichain
            }
        });
        let dag = PersistDag::build(&t, &AnalysisConfig::new(Model::Epoch)).unwrap();
        let obs = RecoveryObserver::new(&dag);
        let cuts = obs.enumerate_cuts(100).unwrap();
        assert_eq!(cuts.len(), 16); // 2^4 subsets, all down-closed
    }

    #[test]
    fn enumeration_respects_limit() {
        let mem = TracedMem::new(FreeRunScheduler);
        let t = mem.run(1, |ctx| {
            let a = ctx.palloc(256, 64).unwrap();
            for i in 0..10 {
                ctx.store_u64(a.add(8 * i), i);
            }
        });
        let dag = PersistDag::build(&t, &AnalysisConfig::new(Model::Epoch)).unwrap();
        let obs = RecoveryObserver::new(&dag);
        assert!(matches!(
            obs.enumerate_cuts(100),
            Err(ObserverError::TooManyCuts { limit: 100 })
        ));
    }

    #[test]
    fn sampled_cuts_are_down_closed() {
        let (_, dag) = chain_dag();
        let obs = RecoveryObserver::new(&dag);
        for cut in obs.sample_cuts(3, 20) {
            for &id in cut.nodes() {
                for &d in dag.deps(id) {
                    assert!(cut.contains(d), "cut not down-closed");
                }
            }
        }
    }

    #[test]
    fn sampling_is_deterministic_per_seed() {
        let (_, dag) = chain_dag();
        let obs = RecoveryObserver::new(&dag);
        let a: Vec<_> = obs.sample_cuts(9, 10);
        let b: Vec<_> = obs.sample_cuts(9, 10);
        assert_eq!(a, b);
    }

    #[test]
    fn sampled_cuts_are_a_subset_of_enumerated() {
        // Soundness cross-check: every cut sampling produces must appear
        // in the exhaustive enumeration.
        let mem = TracedMem::new(FreeRunScheduler);
        let t = mem.run(1, |ctx| {
            let a = ctx.palloc(256, 64).unwrap();
            ctx.store_u64(a, 1);
            ctx.store_u64(a.add(8), 2);
            ctx.persist_barrier();
            ctx.store_u64(a.add(16), 3);
            ctx.store_u64(a.add(24), 4);
        });
        let dag = PersistDag::build(&t, &AnalysisConfig::new(Model::Epoch)).unwrap();
        let obs = RecoveryObserver::new(&dag);
        let all: std::collections::HashSet<Vec<u32>> = obs
            .enumerate_cuts(10_000)
            .unwrap()
            .into_iter()
            .map(|c| c.nodes().to_vec())
            .collect();
        for cut in obs.sample_cuts(2, 100) {
            assert!(all.contains(cut.nodes()), "sampled cut not in the lattice: {cut:?}");
        }
    }

    #[test]
    fn recover_materializes_partial_state() {
        let (_, dag) = chain_dag();
        let obs = RecoveryObserver::new(&dag);
        let cuts = obs.enumerate_cuts(100).unwrap();
        let two = cuts.iter().find(|c| c.len() == 2).unwrap();
        let img = obs.recover(two);
        let base = dag.nodes()[0].writes[0].addr;
        assert_eq!(img.read_u64(base).unwrap(), 1);
        assert_eq!(img.read_u64(base.add(8)).unwrap(), 2);
        assert_eq!(img.read_u64(base.add(16)).unwrap(), 0); // not persisted
    }

    #[test]
    fn full_cut_matches_final_image() {
        let (t, dag) = chain_dag();
        let obs = RecoveryObserver::new(&dag);
        assert!(obs.full_image_matches(&t));
    }

    #[test]
    fn coalesced_writes_recover_atomically() {
        // Two coalesced stores to one word: any cut containing the node
        // sees the *last* value (both writes applied in order).
        let mem = TracedMem::new(FreeRunScheduler);
        let t = mem.run(1, |ctx| {
            let a = ctx.palloc(64, 8).unwrap();
            ctx.store_u64(a, 1);
            ctx.store_u64(a, 2);
        });
        let dag = PersistDag::build(&t, &AnalysisConfig::new(Model::Epoch)).unwrap();
        assert_eq!(dag.len(), 1);
        let obs = RecoveryObserver::new(&dag);
        let cuts = obs.enumerate_cuts(10).unwrap();
        assert_eq!(cuts.len(), 2);
        let base = dag.nodes()[0].writes[0].addr;
        for c in &cuts {
            let v = obs.recover(c).read_u64(base).unwrap();
            assert!(v == 0 || v == 2, "intermediate value 1 must be unobservable");
        }
    }
}
