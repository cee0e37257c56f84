//! Pins the known, by-design divergence between the two analysis engines.
//!
//! The timing engine checks coalescing legality against scalar levels
//! (timestamps), mirroring the paper's methodology: a persist may coalesce
//! into a target iff no incoming dependence is *newer* than the target.
//! Two level-equal but unordered persists pass that check even though the
//! exact DAG dominance test refuses them — so the timing engine may merge
//! persists the DAG engine keeps apart, and the DAG critical path bounds
//! the timing critical path from above. These tests pin both the concrete
//! minimal divergence and the ordering invariant on randomized traces.

use mem_trace::rng::SmallRng;
use mem_trace::{SeededScheduler, TraceBuilder, TracedMem};
use persist_mem::MemAddr;
use persistency::dag::PersistDag;
use persistency::{timing, AnalysisConfig, Model};

/// The minimal trace on which the two coalescing checks disagree:
///
/// ```text
///   t0: store A            (persist P1, level 1)
///   t1: store B            (persist P2, level 1)
///   t1: persist_barrier
///   t1: store A            (persist P3: depends on P2 via the barrier)
/// ```
///
/// P3's incoming constraint carries P2 at level 1, equal to target P1's
/// level, so the timing engine's `input <= target` timestamp check admits
/// the coalesce (critical path 1). P2 is not dominated by P1 in the DAG,
/// so the exact check refuses it and P3 becomes a third node with deps
/// {P1, P2} (critical path 2).
fn divergence_trace() -> mem_trace::Trace {
    let a = MemAddr::persistent(0);
    let b = MemAddr::persistent(64);
    let mut tb = TraceBuilder::new(2);
    tb.store(0, a, 1);
    tb.store(1, b, 2);
    tb.persist_barrier(1);
    tb.store(1, a, 3);
    tb.build()
}

#[test]
fn level_check_coalesces_where_exact_dominance_refuses() {
    let trace = divergence_trace();
    trace.validate_sc().expect("legal SC execution");
    let cfg = AnalysisConfig::new(Model::Epoch);

    let rep = timing::analyze(&trace, &cfg);
    assert_eq!(rep.stats.persist_ops, 3);
    assert_eq!(rep.stats.coalesced, 1, "timestamp check admits the level-equal coalesce");
    assert_eq!(rep.persist_nodes, 2);
    assert_eq!(rep.critical_path, 1);

    let dag = PersistDag::build(&trace, &cfg).unwrap();
    assert_eq!(dag.stats().coalesced, 0, "exact dominance check refuses the same coalesce");
    assert_eq!(dag.len(), 3);
    assert_eq!(dag.critical_path(), 2);
    // The refused node depends on both unordered predecessors.
    assert_eq!(dag.deps(2), vec![0, 1]);

    assert!(dag.critical_path() >= rep.critical_path);
}

#[test]
fn divergence_disappears_without_coalescing() {
    // With coalescing disabled the engines walk identical node sets, so
    // the critical paths must agree exactly on the divergence trace.
    let trace = divergence_trace();
    let cfg = AnalysisConfig::new(Model::Epoch).without_coalescing();
    let rep = timing::analyze(&trace, &cfg);
    let dag = PersistDag::build(&trace, &cfg).unwrap();
    assert_eq!(dag.len() as u64, rep.persist_nodes);
    assert_eq!(dag.critical_path(), rep.critical_path);
}

/// On any trace, under every model, the exact DAG critical path bounds the
/// timing (timestamp-coalescing) critical path from above, and the DAG
/// never has fewer nodes.
#[test]
fn dag_bounds_timing_on_randomized_multithread_traces() {
    for seed in 0..12u64 {
        let mut rng = SmallRng::seed_from_u64(seed * 7 + 1);
        let threads = 2 + (seed % 3) as u32; // 2..=4 simulated threads
        // Per-thread random op scripts, decided up front so the seeded
        // scheduler's interleaving is the only source of ordering.
        let scripts: Vec<Vec<(u8, u64)>> = (0..threads)
            .map(|_| (0..40).map(|_| (rng.gen_index(5) as u8, rng.gen_index(8) as u64)).collect())
            .collect();
        let mem = TracedMem::new(SeededScheduler::new(seed));
        let trace = mem.run(threads, |ctx| {
            let tid = ctx.thread_id().as_u64();
            let shared = MemAddr::persistent(0);
            let own = MemAddr::persistent(4096 * (1 + tid));
            for &(kind, slot) in &scripts[tid as usize] {
                match kind {
                    0 => ctx.store_u64(own.add(8 * slot), slot),
                    1 => ctx.store_u64(shared.add(8 * (slot % 4)), slot),
                    2 => {
                        ctx.load_u64(shared.add(8 * (slot % 4)));
                    }
                    3 => ctx.persist_barrier(),
                    _ => ctx.new_strand(),
                }
            }
        });
        for model in Model::ALL {
            let rep = timing::analyze(&trace, &AnalysisConfig::new(model));
            let dag = PersistDag::build(&trace, &AnalysisConfig::new(model)).unwrap();
            assert!(
                dag.critical_path() >= rep.critical_path,
                "seed {seed} model {model}: dag cp {} < timing cp {}",
                dag.critical_path(),
                rep.critical_path
            );
            assert!(
                dag.len() as u64 >= rep.persist_nodes,
                "seed {seed} model {model}: dag nodes {} < timing nodes {}",
                dag.len(),
                rep.persist_nodes
            );
        }
    }
}
