//! Differential tests: the attribution profiler must agree with the two
//! analysis engines it sits on top of.
//!
//! On any trace and model, the profiled critical path equals the DAG
//! engine's (the profiler walks that DAG), and therefore equals the
//! timing engine's whenever coalescing is disabled (the engines walk
//! identical node sets then; with timestamp coalescing the DAG bounds
//! timing from above — see `divergence.rs`). The extracted path itself
//! must be a real DAG path with levels 1..=cp, and removing an ordering
//! barrier can only relax constraints, so each what-if critical path is
//! bounded by the baseline. Barrier what-ifs, scored as lanes of one
//! timing pass, must equal re-analyzing a copy of the trace with the
//! barrier removed.

mod random_trace;

use mem_trace::{Op, Trace};
use persistency::dag::PersistDag;
use persistency::profile::{barrier_candidates, profile, score_barriers, EdgeKind, LANES};
use persistency::{timing, AnalysisConfig, Model};
use random_trace::random_trace;

#[test]
fn profile_critical_path_matches_analyzers_on_randomized_traces() {
    for seed in 0..10u64 {
        let trace = random_trace(seed);
        for model in Model::ALL {
            // Without coalescing the three agree exactly.
            let cfg = AnalysisConfig::new(model).without_coalescing();
            let r = profile(&trace, &cfg, 0).unwrap();
            let t = timing::analyze(&trace, &cfg);
            let dag = PersistDag::build(&trace, &cfg).unwrap();
            assert_eq!(r.critical_path, dag.critical_path(), "seed {seed} model {model}");
            assert_eq!(r.critical_path, t.critical_path, "seed {seed} model {model}");

            // With coalescing the profiler still equals the DAG engine,
            // which bounds the timing engine from above.
            let cfg = AnalysisConfig::new(model);
            let r = profile(&trace, &cfg, 0).unwrap();
            let t = timing::analyze(&trace, &cfg);
            let dag = PersistDag::build(&trace, &cfg).unwrap();
            assert_eq!(r.critical_path, dag.critical_path(), "seed {seed} model {model}");
            assert!(r.critical_path >= t.critical_path, "seed {seed} model {model}");
        }
    }
}

#[test]
fn extracted_path_is_a_real_dag_path() {
    for seed in 0..6u64 {
        let trace = random_trace(seed);
        for model in [Model::Strict, Model::Epoch, Model::Strand] {
            let cfg = AnalysisConfig::new(model);
            let r = profile(&trace, &cfg, 0).unwrap();
            let dag = PersistDag::build(&trace, &cfg).unwrap();
            assert_eq!(r.path.len() as u64, r.critical_path, "seed {seed} model {model}");
            for (i, s) in r.path.iter().enumerate() {
                assert_eq!(s.level as usize, i + 1, "levels ascend 1..=cp");
                assert_eq!(s.edge == EdgeKind::Root, i == 0, "root edge only at the start");
                if i > 0 {
                    let prev = r.path[i - 1].node;
                    assert!(
                        dag.deps(s.node).contains(&prev),
                        "seed {seed} model {model}: step {i} not a DAG edge"
                    );
                }
            }
            // The sources ranking partitions the path.
            let total: u64 = r.sources.iter().map(|b| b.steps).sum();
            assert_eq!(total, r.critical_path, "seed {seed} model {model}");
        }
    }
}

#[test]
fn barrier_removal_never_lengthens_the_critical_path() {
    // Monotonicity (removing an ordering barrier can only relax
    // constraints) is an exact theorem only without coalescing; greedy
    // coalescing can flip decisions either way (see model.rs).
    for seed in 0..4u64 {
        let trace = random_trace(seed);
        for model in [Model::StrictRmo, Model::Epoch, Model::Bpfs] {
            let cfg = AnalysisConfig::new(model).without_coalescing();
            let r = profile(&trace, &cfg, 32).unwrap();
            assert_eq!(r.timing_critical_path, timing::analyze(&trace, &cfg).critical_path);
            for b in &r.barriers {
                assert!(
                    b.critical_path_without <= r.timing_critical_path,
                    "seed {seed} model {model}: removing barrier at {} lengthened cp {} -> {}",
                    b.trace_index,
                    r.timing_critical_path,
                    b.critical_path_without
                );
                assert_eq!(b.redundant, b.critical_path_without == r.timing_critical_path);
            }
        }
    }
}

/// The what-if oracle: copy the trace without the event at `skip_index`
/// and re-analyze the copy.
fn critical_path_without(trace: &Trace, config: &AnalysisConfig, skip_index: usize) -> u64 {
    let mut events = trace.events().to_vec();
    events.remove(skip_index);
    timing::analyze(&Trace::from_events(trace.thread_count(), events), config).critical_path
}

fn check_lanes(trace: &Trace, cfg: &AnalysisConfig, candidates: &[usize], what: &str) {
    let baseline = timing::analyze(trace, cfg).critical_path;
    let checks = score_barriers(trace, cfg, baseline, candidates);
    assert_eq!(checks.len(), candidates.len(), "{what}");
    for (c, &i) in checks.iter().zip(candidates) {
        let want = critical_path_without(trace, cfg, i);
        assert_eq!(c.trace_index, i, "{what}");
        assert_eq!(c.thread, trace.events()[i].thread, "{what}");
        assert_eq!(c.critical_path_without, want, "{what}: barrier at {i}");
        assert_eq!(c.redundant, want == baseline, "{what}: barrier at {i}");
    }
}

#[test]
fn lane_what_ifs_equal_removing_the_barrier() {
    let (mut syncs, mut mems) = (0, 0);
    for seed in 0..40u64 {
        let trace = random_trace(seed);
        let candidates = barrier_candidates(&trace);
        for &i in &candidates {
            match trace.events()[i].op {
                Op::PersistSync => syncs += 1,
                Op::MemBarrier => mems += 1,
                _ => {}
            }
        }
        for model in Model::ALL {
            for cfg in [AnalysisConfig::new(model), AnalysisConfig::new(model).without_coalescing()]
            {
                let what = format!("seed {seed} model {model} coalescing {}", cfg.coalescing);
                // Every candidate, in groups of LANES with a partial last
                // group whenever the count is not a multiple of LANES.
                check_lanes(&trace, &cfg, &candidates, &what);
            }
        }
        // Partially filled groups of every size, on a window that does
        // not start at a group boundary.
        let cfg = AnalysisConfig::new(Model::Epoch);
        for n in 1..=LANES + 1 {
            let window = &candidates[candidates.len().min(3)..candidates.len().min(3 + n)];
            check_lanes(&trace, &cfg, window, &format!("seed {seed} window of {n}"));
        }
    }
    assert!(syncs > 0 && mems > 0, "traces must exercise persist-sync and mem-barrier candidates");
}

#[test]
fn persist_barrier_lanes_equal_the_baseline_under_strict_rmo() {
    // Strict persistency on relaxed consistency has no persist barriers:
    // leaving one out changes nothing, while a persist sync or memory
    // barrier may still matter.
    for seed in 0..10u64 {
        let trace = random_trace(seed);
        let cfg = AnalysisConfig::new(Model::StrictRmo);
        let baseline = timing::analyze(&trace, &cfg).critical_path;
        let candidates = barrier_candidates(&trace);
        for c in score_barriers(&trace, &cfg, baseline, &candidates) {
            if trace.events()[c.trace_index].op == Op::PersistBarrier {
                assert_eq!(c.critical_path_without, baseline, "seed {seed} at {}", c.trace_index);
                assert!(c.redundant);
            }
        }
    }
}
