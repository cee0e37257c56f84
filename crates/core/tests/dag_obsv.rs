//! The `dag.*` counters: `dag.offchain_nodes` counts the persists the
//! DAG's chain index could not place, whose reachability queries take the
//! DFS fallback, and the rest count the construction's shortcuts and its
//! shared dependence storage. The obsv registry is process-global, so
//! the tests of this binary take turns through `OBSV`.

use mem_trace::{FreeRunScheduler, Trace, TracedMem};
use persistency::dag::PersistDag;
use persistency::{AnalysisConfig, Model};
use std::collections::BTreeMap;
use std::sync::Mutex;

static OBSV: Mutex<()> = Mutex::new(());

/// One thread storing `words` distinct words, with a persist barrier
/// after every store if `barriers`.
fn stores(words: u64, barriers: bool) -> Trace {
    TracedMem::new(FreeRunScheduler).run(1, |ctx| {
        let a = ctx.palloc(8 * words, 64).unwrap();
        for i in 0..words {
            ctx.store_u64(a.add(8 * i), i);
            if barriers {
                ctx.persist_barrier();
            }
        }
    })
}

/// Builds `trace`'s epoch DAG with the obsv gate open and returns it
/// with the `dag.*` counters of that one build.
fn build(trace: &Trace) -> (PersistDag, BTreeMap<String, u64>) {
    let _turn = OBSV.lock().unwrap_or_else(|e| e.into_inner());
    obsv::reset();
    obsv::set_enabled(true);
    let dag = PersistDag::build(trace, &AnalysisConfig::new(Model::Epoch)).unwrap();
    obsv::set_enabled(false);
    let counters = obsv::snapshot().filter_prefix("dag.").counters.into_iter().collect();
    (dag, counters)
}

#[test]
fn offchain_nodes_count_the_persists_past_the_chain_cap() {
    let offchain = |trace: &Trace| {
        let (dag, c) = build(trace);
        assert_eq!(c.get("dag.builds"), Some(&1));
        assert_eq!(c.get("dag.nodes"), Some(&(dag.len() as u64)));
        c.get("dag.offchain_nodes").copied().unwrap_or(0)
    };
    // A 100-persist chain is one chain of the index.
    let narrow = offchain(&stores(100, true));
    // 40 unordered persists in one epoch: the index's 32 chains take the
    // first 32, and the other 8 are off-chain.
    let wide = offchain(&stores(40, false));
    assert_eq!(narrow, 0);
    assert_eq!(wide, 8);
}

#[test]
fn construction_shortcuts_and_shared_runs_are_counted() {
    // Epoch A is w0..w39, as wide as above. Then: barrier, load w0 (a
    // no-op join the clock decides: {0} has no off-chain member), store
    // w40 and w41 (both follow epoch A, so they share one 40-entry run,
    // and each folds into its own input by its row), barrier, load w41
    // (decided by the clock), store w42 (after {40, 41}: a new run, and
    // its `join_pref` the clock decides), barrier, load w42 (the
    // thread's frontier and w42's last write are both {42}: an equal
    // join).
    let trace = TracedMem::new(FreeRunScheduler).run(1, |ctx| {
        let a = ctx.palloc(8 * 43, 64).unwrap();
        for i in 0..40 {
            ctx.store_u64(a.add(8 * i), i);
        }
        ctx.persist_barrier();
        ctx.load_u64(a);
        ctx.store_u64(a.add(8 * 40), 40);
        ctx.store_u64(a.add(8 * 41), 41);
        ctx.persist_barrier();
        ctx.load_u64(a.add(8 * 41));
        ctx.store_u64(a.add(8 * 42), 42);
        ctx.persist_barrier();
        ctx.load_u64(a.add(8 * 42));
    });
    let (dag, c) = build(&trace);
    let expect = [
        ("dag.builds", 1),
        ("dag.nodes", 43),
        ("dag.offchain_nodes", 8),
        // Runs: [] for epoch A, w0..w39 for w40 and w41, [40, 41] for w42.
        ("dag.dep_entries", 42),
        ("dag.dep_refs", 82),
        ("dag.shared_runs", 40),
        ("dag.pref_shortcuts", 3),
        ("dag.clock_covers", 3),
        ("dag.equal_joins", 1),
    ];
    for (name, value) in expect {
        assert_eq!(c.get(name), Some(&value), "{name}");
    }
    // The storage counters agree with the DAG as its API reads it.
    let n = dag.len() as u32;
    let shared: Vec<bool> = (0..n).map(|i| i > 0 && dag.deps(i) == dag.deps(i - 1)).collect();
    let entries: usize = (0..n).filter(|&i| !shared[i as usize]).map(|i| dag.deps(i).len()).sum();
    assert_eq!(c["dag.dep_refs"], dag.edges().count() as u64);
    assert_eq!(c["dag.dep_entries"], entries as u64);
    assert_eq!(c["dag.shared_runs"], shared.iter().filter(|&&s| s).count() as u64);
}
