//! Differential test: the DAG's chain-decomposition reachability index
//! (plus its level-pruned DFS fallback) against a straightforward
//! quadratic per-node bitset oracle — the algorithm the old
//! implementation used for every query.
//!
//! Randomized multi-threaded traces are built under every persistency
//! model; for each resulting DAG the oracle closure is computed and
//! *every* `depends_on` pair is compared, along with per-node levels and
//! the critical path.

use mem_trace::rng::SmallRng;
use mem_trace::{SeededScheduler, TracedMem};
use persistency::dag::PersistDag;
use persistency::{AnalysisConfig, Model};

/// Transitive-closure bitsets, one row per node: bit `a` of row `b` set
/// iff `b` transitively depends on `a`. Dependences always point to lower
/// ids, so a single ascending pass is exact.
fn oracle_rows(dag: &PersistDag) -> Vec<Vec<u64>> {
    let n = dag.len();
    let words = n.div_ceil(64);
    let mut rows: Vec<Vec<u64>> = vec![vec![0u64; words]; n];
    for i in 0..n {
        let (done, rest) = rows.split_at_mut(i);
        let row = &mut rest[0];
        for &d in dag.deps(i as u32).iter() {
            let d = d as usize;
            row[d / 64] |= 1 << (d % 64);
            for (w, v) in done[d].iter().enumerate() {
                row[w] |= v;
            }
        }
    }
    rows
}

/// Longest path (in nodes) from the oracle closure's edge structure.
fn oracle_critical_path(dag: &PersistDag) -> u64 {
    let mut len = vec![0u64; dag.len()];
    for i in 0..dag.len() {
        len[i] = 1 + dag.deps(i as u32).iter().map(|&d| len[d as usize]).max().unwrap_or(0);
    }
    len.iter().copied().max().unwrap_or(0)
}

/// A random persistent workload: stores over a small address pool mixed
/// with loads, persist/memory barriers and strand starts.
fn random_trace(seed: u64, threads: u32, ops_per_thread: u32) -> mem_trace::Trace {
    let mem = TracedMem::new(SeededScheduler::new(seed));
    mem.run(threads, |ctx| {
        let mut rng =
            SmallRng::seed_from_u64(seed ^ (u64::from(ctx.thread_id().0) << 32) ^ 0xD1F);
        for _ in 0..ops_per_thread {
            let addr = persist_mem::MemAddr::persistent(rng.gen_below(24) * 8);
            match rng.gen_below(10) {
                0..=4 => ctx.store_u64(addr, rng.next_u64()),
                5 | 6 => {
                    ctx.load_u64(addr);
                }
                7 => ctx.persist_barrier(),
                8 => ctx.mem_barrier(),
                _ => ctx.new_strand(),
            }
        }
    })
}

#[test]
fn depends_on_matches_bitset_oracle_for_all_pairs() {
    for seed in [1u64, 7, 23] {
        let trace = random_trace(seed, 2, 90);
        for model in Model::ALL {
            let dag = PersistDag::build(&trace, &AnalysisConfig::new(model)).unwrap();
            let rows = oracle_rows(&dag);
            let n = dag.len() as u32;
            assert!(n > 10, "trace too small to be interesting (seed {seed})");
            for b in 0..n {
                for a in 0..n {
                    let expect =
                        a == b || rows[b as usize][a as usize / 64] >> (a % 64) & 1 == 1;
                    assert_eq!(
                        dag.depends_on(b, a),
                        expect,
                        "seed {seed} {model}: depends_on({b}, {a})"
                    );
                }
            }
            assert_eq!(
                dag.critical_path(),
                oracle_critical_path(&dag),
                "seed {seed} {model}: critical path"
            );
        }
    }
}

#[test]
fn levels_bound_ancestry() {
    // A node's level must exceed every ancestor's (the DFS prune relies
    // on it), and equal 1 + max over direct dependences.
    let trace = random_trace(11, 2, 80);
    for model in Model::ALL {
        let dag = PersistDag::build(&trace, &AnalysisConfig::new(model)).unwrap();
        for i in 0..dag.len() {
            let expect = 1 + dag.deps(i as u32).iter().map(|&d| dag.level(d)).max().unwrap_or(0);
            assert_eq!(dag.level(i as u32), expect, "{model}: level of {i}");
        }
    }
}
