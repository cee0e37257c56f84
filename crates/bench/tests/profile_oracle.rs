//! `run_profile` against the walk-everything oracle: whichever barriers
//! the model's rules decide without a walk, and however the DAG build,
//! the baseline and the lane walks are spread over workers, every barrier
//! verdict must equal `score_barriers` walking every candidate.

#[path = "../../core/tests/random_trace/mod.rs"]
mod random_trace;

use bench::profile::run_profile;
use bench::SweepRunner;
use persistency::profile::{barrier_candidates, score_barriers, BarrierOp, LANES};
use persistency::{timing, AnalysisConfig, Model};
use random_trace::random_trace;

#[test]
fn run_profile_equals_walking_every_candidate() {
    let ops = [BarrierOp::PersistBarrier, BarrierOp::PersistSync, BarrierOp::MemBarrier];
    // Per model and barrier kind: candidates whose removal changes the
    // critical path. A rules decision that wrongly skips the walk of a
    // kind the model folds on is caught only through one of these.
    let mut needed = [[0usize; 3]; Model::ALL.len()];
    for seed in 0..40u64 {
        let trace = random_trace(seed);
        let candidates = barrier_candidates(&trace);
        for model in Model::ALL {
            for cfg in [AnalysisConfig::new(model), AnalysisConfig::new(model).without_coalescing()]
            {
                let baseline = timing::analyze(&trace, &cfg).critical_path;
                let want = score_barriers(&trace, &cfg, baseline, &candidates);
                let walked = want.iter().filter(|b| model.rules().folds(b.op)).count();
                for b in want.iter().filter(|b| !b.redundant) {
                    needed[model.index()][ops.iter().position(|&o| o == b.op).unwrap()] += 1;
                }
                for workers in [1, 3] {
                    let what = format!(
                        "seed {seed} model {model} coalescing {} workers {workers}",
                        cfg.coalescing
                    );
                    let got =
                        run_profile(&trace, &cfg, usize::MAX, &SweepRunner::new(workers)).unwrap();
                    assert_eq!(got.timing_critical_path, baseline, "{what}");
                    assert_eq!(got.barriers, want, "{what}");
                    assert_eq!(got.lane_walks, walked.div_ceil(LANES), "{what}");
                }
            }
        }
    }
    for model in Model::ALL {
        for (k, op) in ops.into_iter().enumerate() {
            assert_eq!(
                needed[model.index()][k] > 0,
                model.rules().folds(op),
                "model {model}: load-bearing {} candidates",
                op.name()
            );
        }
    }
}
