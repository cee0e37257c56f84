//! `dag.offchain_nodes` counts the persists the DAG's chain index could
//! not place, whose reachability queries take the DFS fallback. Alone in
//! its test binary because the obsv registry is process-global.

use mem_trace::{FreeRunScheduler, Trace, TracedMem};
use persistency::dag::PersistDag;
use persistency::{AnalysisConfig, Model};

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

#[test]
fn offchain_nodes_count_the_persists_past_the_chain_cap() {
    let build = |trace: &Trace| {
        obsv::reset();
        let dag = PersistDag::build(trace, &AnalysisConfig::new(Model::Epoch)).unwrap();
        let snap = obsv::snapshot();
        assert_eq!(snap.counters.get("dag.builds"), Some(&1));
        assert_eq!(snap.counters.get("dag.nodes"), Some(&(dag.len() as u64)));
        snap.counters.get("dag.offchain_nodes").copied().unwrap_or(0)
    };
    obsv::set_enabled(true);
    // A 100-persist chain is one chain of the index.
    let narrow = build(&stores(100, true));
    // 40 unordered persists in one epoch: the index's 32 chains take the
    // first 32, and the other 8 are off-chain.
    let wide = build(&stores(40, false));
    obsv::set_enabled(false);
    assert_eq!(narrow, 0);
    assert_eq!(wide, 8);
}
