//! Differential test: the delta replayer's checkpoint-ladder images
//! against the clone-and-replay oracle ([`FragmentSet::materialize`]).
//!
//! For every fuzz structure and every persistency model, crash cases are
//! drawn over the structure's real recorded workload — systematic and
//! random crash points, torn persists enabled — and the replayer's image
//! must equal the oracle's **byte for byte**, extents included. After
//! every injection the replayer must also restore its scratch image to
//! the recording's base exactly.

use mem_trace::rng::SmallRng;
use persist_mem::{AtomicPersistSize, MemAddr, MemoryImage, PmemBackend, Space, CACHE_LINE_BYTES};
use persistency::Model;
use pfi::fuzz::Structure;
use pfi::inject::FragmentSet;
use pfi::replay::Replayer;
use pfi::shadow::ShadowPmem;
use pstruct::txn::RecoveryStep;

#[test]
fn replayer_images_match_oracle_for_every_structure_and_model() {
    for structure in Structure::ALL {
        let target = structure.target();
        let mut shadow = ShadowPmem::new();
        target.run(&mut shadow, 10);
        let rec = shadow.into_recording();
        let frags = FragmentSet::build(&rec, AtomicPersistSize::default());
        let points = rec.events.len() + 1;
        for model in Model::ALL {
            let mut replayer = Replayer::new(&frags, &rec, model);
            let mut rng = SmallRng::seed_from_u64(0x5EED ^ points as u64);
            for i in 0..120u64 {
                // Same point schedule as the fuzz loop: sweep even
                // injections, draw odd ones. Torn persists on.
                let point = if i % 2 == 0 {
                    (i as usize / 2) % points
                } else {
                    rng.gen_below(points as u64) as usize
                };
                let case = frags.draw(model, point, &mut rng, true);
                replayer.load(&case);
                let oracle = frags.materialize(&rec.base, model, &case);
                assert_eq!(
                    replayer.image(),
                    &oracle,
                    "{} {model}: injection {i} at point {point}",
                    structure.name()
                );
                replayer.reset();
                assert_eq!(
                    replayer.image(),
                    &rec.base,
                    "{} {model}: reset after injection {i}",
                    structure.name()
                );
            }
        }
    }
}

#[test]
fn replayer_survives_back_to_back_loads_without_reset() {
    // load() must self-reset a dirty image, so interleaved shrink probes
    // cannot leak state between cases.
    let target = Structure::Kv.target();
    let mut shadow = ShadowPmem::new();
    target.run(&mut shadow, 8);
    let rec = shadow.into_recording();
    let frags = FragmentSet::build(&rec, AtomicPersistSize::default());
    let mut replayer = Replayer::new(&frags, &rec, Model::Epoch);
    let mut rng = SmallRng::seed_from_u64(42);
    let points = rec.events.len() + 1;
    for _ in 0..40 {
        let point = rng.gen_below(points as u64) as usize;
        let case = frags.draw(Model::Epoch, point, &mut rng, true);
        replayer.load(&case); // no reset between iterations
        let oracle = frags.materialize(&rec.base, Model::Epoch, &case);
        assert_eq!(replayer.image(), &oracle);
    }
}

/// A recording over a non-empty base, which no stock structure has: the
/// base's persistent extent ends mid-line, stores straddle lines and run
/// past it, and flushes, fences and strands decide durability.
fn recording_over_base() -> pfi::Recording {
    let mut base = MemoryImage::new();
    let bytes: Vec<u8> = (0..150u32).map(|i| (i as u8) ^ 0xA5).collect();
    base.write(MemAddr::persistent(0), &bytes).unwrap();
    base.write(MemAddr::volatile(0), &[7; 24]).unwrap();
    assert_eq!(base.extent(Space::Persistent) % CACHE_LINE_BYTES, 150 % 64, "ends mid-line");
    let fill =
        |seed: u8, len: usize| (0..len).map(|i| seed.wrapping_add(i as u8)).collect::<Vec<_>>();
    let p = MemAddr::persistent;
    let mut s = ShadowPmem::with_base(base);
    s.op_begin(0);
    s.store(p(52), &fill(1, 24)); // lines 0|1, inside the base extent
    s.persist(p(52), 24);
    s.store(p(120), &fill(40, 16)); // lines 1|2
    s.store(p(140), &fill(80, 40)); // across the base extent's end
    s.flush(p(120), 60);
    s.op_end(0);
    s.strand();
    s.op_begin(1);
    s.store(p(184), &fill(120, 28)); // lines 2|3, past the base extent
    s.store_u64(p(300), 0xDEAD_BEEF);
    s.fence();
    s.store_u64(p(56), 0x0123_4567); // later fragment of line 0
    s.persist(p(56), 8);
    s.strand();
    s.store(p(60), &fill(200, 8)); // same line again, never flushed
    s.store_u64(p(400), 9); // never flushed, far past everything
    s.op_end(1);
    s.fence();
    s.into_recording()
}

#[test]
fn replayer_matches_oracle_over_a_non_empty_base() {
    let rec = recording_over_base();
    let frags = FragmentSet::build(&rec, AtomicPersistSize::default());
    let n = rec.events.len();
    // Repeated and rising points, then falling ones, then drawn ones.
    let mut schedule: Vec<usize> = (0..=n).flat_map(|p| [p, p, p]).collect();
    schedule.extend((0..=n).rev().flat_map(|p| [p, p]));
    let mut rng = SmallRng::seed_from_u64(0xBA5E);
    schedule.extend((0..60).map(|_| rng.gen_below(n as u64 + 1) as usize));
    // Recovery writes inside a durable line, past the base extent and far
    // past the durable extent.
    let script: Vec<RecoveryStep> = [(56, 11), (144, 12), (1000, 13)]
        .into_iter()
        .map(|(a, value)| RecoveryStep::Write { addr: MemAddr::persistent(a), value })
        .collect();
    for model in Model::ALL {
        let mut replayer = Replayer::new(&frags, &rec, model);
        for (k, &point) in schedule.iter().enumerate() {
            let case = frags.draw(model, point, &mut rng, true);
            replayer.load(&case);
            let mut want = frags.materialize(&rec.base, model, &case);
            assert_eq!(replayer.image(), &want, "{model}: load {k} at point {point}");
            if k % 3 == 1 {
                replayer.apply_recovery(&script);
                for step in &script {
                    if let RecoveryStep::Write { addr, value } = step {
                        want.write_u64(*addr, *value).unwrap();
                    }
                }
                assert_eq!(replayer.image(), &want, "{model}: recovery after load {k}");
            }
            if k % 7 == 6 {
                replayer.reset();
                assert_eq!(replayer.image(), &rec.base, "{model}: reset after load {k}");
            }
        }
        replayer.reset();
        assert_eq!(replayer.image(), &rec.base, "{model}: final reset");
    }
}
