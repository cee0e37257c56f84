//! Integration: property-based tests of the persistency-model semantics
//! over randomly generated programs.

use mem_trace::{FreeRunScheduler, ThreadCtx, TracedMem};
use persistency::dag::PersistDag;
use persistency::observer::RecoveryObserver;
use persistency::{timing, AnalysisConfig, Model};
use persist_mem::{AtomicPersistSize, TrackingGranularity};
use proptest::prelude::*;

/// A random single-threaded program over a small persistent region.
#[derive(Debug, Clone)]
enum Step {
    Store(u8),
    Load(u8),
    VolatileStore(u8),
    Barrier,
    Strand,
}

fn step_strategy() -> impl Strategy<Value = Step> {
    prop_oneof![
        4 => (0u8..16).prop_map(Step::Store),
        2 => (0u8..16).prop_map(Step::Load),
        1 => (0u8..16).prop_map(Step::VolatileStore),
        2 => Just(Step::Barrier),
        1 => Just(Step::Strand),
    ]
}

fn run_program(steps: &[Step]) -> mem_trace::Trace {
    let mem = TracedMem::new(FreeRunScheduler);
    let steps = steps.to_vec();
    mem.run(1, move |ctx: &ThreadCtx<'_, FreeRunScheduler>| {
        let base = persist_mem::MemAddr::persistent(64);
        let vbase = persist_mem::MemAddr::volatile(64);
        for (i, s) in steps.iter().enumerate() {
            match *s {
                Step::Store(slot) => ctx.store_u64(base.add(8 * slot as u64), i as u64),
                Step::Load(slot) => {
                    ctx.load_u64(base.add(8 * slot as u64));
                }
                Step::VolatileStore(slot) => ctx.store_u64(vbase.add(8 * slot as u64), i as u64),
                Step::Barrier => ctx.persist_barrier(),
                Step::Strand => ctx.new_strand(),
            }
        }
    })
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    /// Relaxation order: on any single-threaded program, strict admits the
    /// longest critical path, strand the shortest. Exact with coalescing
    /// disabled (constraint sets shrink monotonically under relaxation);
    /// greedy coalescing breaks it — see `coalescing_nonmonotonicity`.
    #[test]
    fn relaxation_is_monotone_without_coalescing(
        steps in prop::collection::vec(step_strategy(), 1..80)
    ) {
        let trace = run_program(&steps);
        let cp = |m: Model| {
            timing::analyze(&trace, &AnalysisConfig::new(m).without_coalescing()).critical_path
        };
        let strict = cp(Model::Strict);
        let epoch = cp(Model::Epoch);
        let bpfs = cp(Model::Bpfs);
        let strand = cp(Model::Strand);
        prop_assert!(strict >= epoch, "strict {strict} < epoch {epoch}");
        prop_assert!(epoch >= strand, "epoch {epoch} < strand {strand}");
        // BPFS sees a subset of epoch's conflicts.
        prop_assert!(epoch >= bpfs, "epoch {epoch} < bpfs {bpfs}");
    }

    /// With coalescing on (the paper's methodology), strict still bounds
    /// epoch from above on single-threaded programs: a strict persist's
    /// input always covers the epoch one's, so every epoch level is
    /// dominated.
    #[test]
    fn strict_bounds_epoch_with_coalescing(
        steps in prop::collection::vec(step_strategy(), 1..80)
    ) {
        let trace = run_program(&steps);
        let cp = |m: Model| timing::analyze(&trace, &AnalysisConfig::new(m)).critical_path;
        prop_assert!(cp(Model::Strict) >= cp(Model::Epoch));
    }

    /// Coarser conflict tracking never shortens the critical path
    /// (persistent false sharing only adds constraints — Figure 5's
    /// direction). Exact without coalescing.
    #[test]
    fn coarser_tracking_never_helps_without_coalescing(
        steps in prop::collection::vec(step_strategy(), 1..60)
    ) {
        let trace = run_program(&steps);
        for model in [Model::Strict, Model::Epoch] {
            let mut prev = 0u64;
            for bytes in [8u64, 32, 128] {
                let cfg = AnalysisConfig::new(model)
                    .without_coalescing()
                    .with_tracking(TrackingGranularity::new(bytes).unwrap());
                let cp = timing::analyze(&trace, &cfg).critical_path;
                prop_assert!(cp >= prev, "{model}: cp {cp} < {prev} at {bytes}B");
                prev = cp;
            }
        }
    }

    /// Larger atomic persists never lengthen the critical path under
    /// strict persistency (Figure 4's direction). Coalescing is the whole
    /// point here, so this one runs with the paper's methodology; strict
    /// persistency's totally ordered single-thread persists make greedy
    /// coalescing safe.
    #[test]
    fn larger_atomic_persists_never_hurt_strict(
        steps in prop::collection::vec(step_strategy(), 1..60)
    ) {
        let trace = run_program(&steps);
        let mut prev = u64::MAX;
        for bytes in [8u64, 32, 128] {
            let cfg = AnalysisConfig::new(Model::Strict)
                .with_atomic_persist(AtomicPersistSize::new(bytes).unwrap());
            let cp = timing::analyze(&trace, &cfg).critical_path;
            prop_assert!(cp <= prev, "cp {cp} > {prev} at {bytes}B");
            prev = cp;
        }
    }

    /// The DAG is acyclic, its sampled cuts are down-closed, and the full
    /// cut reproduces the trace's persistent image.
    #[test]
    fn dag_and_observer_are_sound(steps in prop::collection::vec(step_strategy(), 1..60)) {
        let trace = run_program(&steps);
        for model in [Model::Strict, Model::Epoch, Model::Strand] {
            let dag = PersistDag::build(&trace, &AnalysisConfig::new(model)).unwrap();
            // Acyclic by construction: deps always point to earlier ids.
            for i in 0..dag.len() {
                for &d in dag.deps(i as u32) {
                    prop_assert!((d as usize) < i, "forward edge in DAG");
                }
            }
            let obs = RecoveryObserver::new(&dag);
            prop_assert!(obs.full_image_matches(&trace), "full cut mismatch under {model}");
            for cut in obs.sample_cuts(1, 5) {
                for &id in cut.nodes() {
                    for &d in dag.deps(id) {
                        prop_assert!(cut.contains(d), "cut not down-closed");
                    }
                }
            }
        }
    }

    /// The timing engine and the DAG engine agree on persist-op counts,
    /// and the DAG critical path bounds the timing one from above.
    #[test]
    fn engines_agree_on_counts(steps in prop::collection::vec(step_strategy(), 1..60)) {
        let trace = run_program(&steps);
        for model in Model::ALL {
            let cfg = AnalysisConfig::new(model);
            let rep = timing::analyze(&trace, &cfg);
            let dag = PersistDag::build(&trace, &cfg).unwrap();
            prop_assert_eq!(rep.stats.persist_ops, dag.stats().persist_ops);
            prop_assert!(dag.critical_path() >= rep.critical_path);
        }
    }
}

/// Finding: with greedy timestamp-based coalescing (the paper's
/// methodology), critical path is NOT monotone in model relaxation.
/// Minimal program found by proptest: under strand persistency the first
/// `store C` lands at level 1 (the strand cleared its context), so the
/// *second* persist to C — whose barrier-inherited dependence is level 2 —
/// cannot coalesce with it and opens level 3; under epoch persistency the
/// first `store C` already sits at level 2 and absorbs the second.
/// Greedy coalescing is not optimal, and more relaxation can lengthen the
/// measured critical path.
#[test]
fn coalescing_nonmonotonicity() {
    let trace = run_program(&[
        Step::Store(4),
        Step::Barrier,
        Step::Store(2),
        Step::Strand,
        Step::Store(3),
        Step::Load(2),
        Step::Barrier,
        Step::Store(3),
    ]);
    let cp = |m: Model| timing::analyze(&trace, &AnalysisConfig::new(m)).critical_path;
    let epoch = cp(Model::Epoch);
    let strand = cp(Model::Strand);
    assert_eq!(epoch, 2);
    assert_eq!(strand, 3, "greedy coalescing penalizes the more relaxed model here");
    // Without coalescing the anomaly disappears.
    let nc = |m: Model| {
        timing::analyze(&trace, &AnalysisConfig::new(m).without_coalescing()).critical_path
    };
    assert!(nc(Model::Epoch) >= nc(Model::Strand));
}

/// Multithreaded captures are always legal SC executions, and every model
/// yields an acyclic DAG on them.
#[test]
fn multithreaded_captures_are_sc_and_analyzable() {
    for seed in 0..4u64 {
        let mem = TracedMem::new(mem_trace::SeededScheduler::new(seed));
        let trace = mem.run(3, |ctx| {
            let shared = persist_mem::MemAddr::persistent(0);
            let own = persist_mem::MemAddr::persistent(4096 * (1 + ctx.thread_id().as_u64()));
            for i in 0..25u64 {
                ctx.store_u64(own.add(8 * (i % 4)), i);
                if i % 3 == 0 {
                    ctx.persist_barrier();
                }
                if i % 5 == 0 {
                    ctx.fetch_add_u64(shared, 1);
                }
                if i % 7 == 0 {
                    ctx.new_strand();
                }
            }
        });
        trace.validate_sc().unwrap();
        for model in Model::ALL {
            let dag = PersistDag::build(&trace, &AnalysisConfig::new(model)).unwrap();
            assert!(dag.critical_path() >= 1);
        }
    }
}

/// Work markers never change analysis results, only accounting.
#[test]
fn markers_are_transparent() {
    let mk = |with_markers: bool| {
        let mem = TracedMem::new(FreeRunScheduler);
        mem.run(1, move |ctx| {
            let a = persist_mem::MemAddr::persistent(64);
            for i in 0..10u64 {
                if with_markers {
                    ctx.work_begin(i);
                }
                ctx.store_u64(a.add(8 * i), i);
                ctx.persist_barrier();
                if with_markers {
                    ctx.work_end(i);
                }
            }
        })
    };
    let plain = mk(false);
    let marked = mk(true);
    for model in Model::ALL {
        let cfg = AnalysisConfig::new(model);
        assert_eq!(
            timing::analyze(&plain, &cfg).critical_path,
            timing::analyze(&marked, &cfg).critical_path
        );
    }
    // Marker count check: ops differ, persists do not.
    assert_eq!(plain.persist_count(), marked.persist_count());
    assert_eq!(
        timing::analyze(&marked, &AnalysisConfig::new(Model::Epoch)).stats.work_items,
        10
    );
}
