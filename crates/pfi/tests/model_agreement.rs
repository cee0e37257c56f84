//! Cross-layer agreement: every crash state `pfi` draws against the
//! engine's persist DAG, under all five models.
//!
//! `pfi` decides durability and drops from a recording of stores, flushes,
//! fences and strand barriers; the engine builds a [`PersistDag`] from a
//! trace of persists and barriers. Both read the same
//! [`Rules`](persistency::rules::Rules). A drawn crash state agrees with the
//! DAG when its image equals the image of the DAG down-closure of what it
//! keeps (durable fragments plus survivors): everything the kept persists
//! are ordered after must be visible too, unless a kept persist overwrote
//! it.
//!
//! Random single-thread programs store to a few words of a few lines (so
//! same-word rewrites and same-line neighbours are common), flush, fence
//! and switch strands. Each program runs on a [`ShadowPmem`] and its
//! recording is translated to a [`Trace`]: a store stays a store, a fence
//! becomes `PersistBarrier` + `MemBarrier`, a strand barrier `NewStrand`,
//! and a flush nothing, since the engine has no flush. The DAG is built
//! without coalescing and draws are untorn, so every store is one DAG node
//! and one fragment.
//!
//! The layers agree on *flush-complete* programs, which flush every dirty
//! line before each fence, and the strict models agree on every program
//! because flushes play no part in their rules. A store fenced without a
//! flush diverges under the models that need a flush: `pfi` follows x86,
//! where the store is not durable, while the DAG orders later persists
//! after it. [`fence_without_flush_diverges`] pins that difference.

use mem_trace::rng::SmallRng;
use mem_trace::{Event, Op, ThreadId, Trace};
use persist_mem::{AtomicPersistSize, MemAddr, MemoryImage, PmemBackend, CACHE_LINE_BYTES};
use persistency::dag::PersistDag;
use persistency::{AnalysisConfig, Model};
use pfi::inject::{CrashCase, FragmentSet};
use pfi::shadow::{Recording, ShadowEvent, ShadowPmem};

const LINES: u64 = 3;
const WORDS_PER_LINE: u64 = 4;
const DRAWS: usize = 4;

/// A random program over `LINES` × `WORDS_PER_LINE` words. When
/// `flush_complete`, every line stored since its last flush is flushed
/// right before each fence.
fn random_program(rng: &mut SmallRng, flush_complete: bool) -> Recording {
    let len = 10 + rng.gen_index(40);
    let mut s = ShadowPmem::new();
    let mut dirty = [false; LINES as usize];
    for value in 1..=len as u64 {
        match rng.gen_below(100) {
            0..=59 => {
                let line = rng.gen_below(LINES);
                let word = rng.gen_below(WORDS_PER_LINE);
                s.store_u64(MemAddr::persistent(line * CACHE_LINE_BYTES + word * 8), value);
                dirty[line as usize] = true;
            }
            60..=74 => {
                let line = rng.gen_below(LINES);
                s.flush(MemAddr::persistent(line * CACHE_LINE_BYTES), CACHE_LINE_BYTES);
                dirty[line as usize] = false;
            }
            75..=91 => {
                if flush_complete {
                    for (line, d) in dirty.iter_mut().enumerate() {
                        if std::mem::take(d) {
                            let addr = MemAddr::persistent(line as u64 * CACHE_LINE_BYTES);
                            s.flush(addr, CACHE_LINE_BYTES);
                        }
                    }
                }
                s.fence();
            }
            _ => s.strand(),
        }
    }
    s.into_recording()
}

/// The recording as a one-thread trace, and the trace index of each
/// recorded event's store (`usize::MAX` for other events).
fn to_trace(events: &[ShadowEvent]) -> (Trace, Vec<usize>) {
    let mut ops = Vec::new();
    let mut at = Vec::with_capacity(events.len());
    for e in events {
        at.push(if matches!(e, ShadowEvent::Store { .. }) { ops.len() } else { usize::MAX });
        match e {
            ShadowEvent::Store { addr, data } => {
                let mut word = [0u8; 8];
                word[..data.len()].copy_from_slice(data);
                let value = u64::from_le_bytes(word);
                ops.push(Op::Store { addr: *addr, len: data.len() as u8, value });
            }
            ShadowEvent::Fence => ops.extend([Op::PersistBarrier, Op::MemBarrier]),
            ShadowEvent::Strand => ops.push(Op::NewStrand),
            ShadowEvent::Flush { .. } | ShadowEvent::OpBegin(_) | ShadowEvent::OpEnd(_) => {}
        }
    }
    let thread = ThreadId(0);
    let events = ops.into_iter().enumerate().map(|(po, op)| Event { thread, po: po as u32, op });
    (Trace::from_events(1, events.collect()), at)
}

/// One recording seen by both layers under one model.
struct Layers<'a> {
    rec: &'a Recording,
    fs: &'a FragmentSet,
    model: Model,
    dag: PersistDag,
    /// DAG node of each fragment.
    node: Vec<usize>,
}

impl<'a> Layers<'a> {
    fn new(rec: &'a Recording, fs: &'a FragmentSet, model: Model) -> Self {
        let (trace, at) = to_trace(&rec.events);
        let config = AnalysisConfig::new(model).without_coalescing();
        let dag = PersistDag::build(&trace, &config).expect("small trace");
        let node = fs
            .fragments()
            .iter()
            .map(|f| {
                let index = at[f.event];
                dag.nodes().iter().position(|n| n.first_index() == index).expect("store has a node")
            })
            .collect();
        Layers { rec, fs, model, dag, node }
    }

    /// The image `pfi` materializes for `case`.
    fn pfi_image(&self, case: &CrashCase) -> MemoryImage {
        self.fs.materialize(&self.rec.base, self.model, case)
    }

    /// The image of the DAG down-closure of what `case` keeps.
    fn dag_image(&self, case: &CrashCase) -> MemoryImage {
        let mut kept = vec![false; self.dag.len()];
        for (i, f) in self.fs.fragments().iter().enumerate() {
            let durable = f.durable_at(self.model).is_some_and(|d| d < case.point);
            if f.event < case.point && durable {
                kept[self.node[i]] = true;
            }
        }
        for s in &case.survivors {
            kept[self.node[s.frag]] = true;
        }
        // Dependences point to earlier nodes, so one backward pass closes.
        for id in (0..kept.len()).rev() {
            if kept[id] {
                for &d in self.dag.deps(id as u32).iter() {
                    kept[d as usize] = true;
                }
            }
        }
        let mut img = self.rec.base.clone();
        for (id, n) in self.dag.nodes().iter().enumerate() {
            if kept[id] {
                for w in n.writes.iter() {
                    img.write(w.addr, &w.value.to_le_bytes()[..w.len as usize]).unwrap();
                }
            }
        }
        img
    }

    /// Draws `DRAWS` cases at every crash point and returns how many
    /// disagree with the DAG.
    fn mismatches(&self, rng: &mut SmallRng) -> usize {
        let mut bad = 0;
        for point in 0..=self.fs.events_len() {
            for _ in 0..DRAWS {
                let case = self.fs.draw(self.model, point, rng, false);
                assert!(self.fs.is_legal(self.model, &case));
                bad += usize::from(!same_image(&self.pfi_image(&case), &self.dag_image(&case)));
            }
        }
        bad
    }
}

fn same_image(a: &MemoryImage, b: &MemoryImage) -> bool {
    (0..LINES * CACHE_LINE_BYTES).step_by(8).all(|off| {
        let addr = MemAddr::persistent(off);
        a.read_u64(addr).unwrap() == b.read_u64(addr).unwrap()
    })
}

/// Runs `programs` random programs under `models` and returns the
/// mismatch count per model.
fn agreement(seed: u64, programs: usize, flush_complete: bool, models: &[Model]) -> Vec<usize> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut bad = vec![0; models.len()];
    for _ in 0..programs {
        let rec = random_program(&mut rng, flush_complete);
        let fs = FragmentSet::build(&rec, AtomicPersistSize::default());
        for (k, &model) in models.iter().enumerate() {
            bad[k] += Layers::new(&rec, &fs, model).mismatches(&mut rng);
        }
    }
    bad
}

#[test]
fn flush_complete_draws_are_dag_cuts() {
    let bad = agreement(0x5eed, 150, true, &Model::ALL);
    assert_eq!(bad, vec![0; Model::ALL.len()], "mismatches per model, in Model::ALL order");
}

#[test]
fn strict_draws_are_dag_cuts_without_flushes() {
    let models = [Model::Strict, Model::StrictRmo];
    assert_eq!(agreement(0xf1a5, 150, false, &models), vec![0, 0]);
}

/// `A; fence; B; flush B; fence`: `pfi` makes B durable and lets A drop,
/// because A was never flushed, while the DAG orders B after A. The strict
/// models make A durable at the first fence.
#[test]
fn fence_without_flush_diverges() {
    let mut s = ShadowPmem::new();
    let (a, b) = (MemAddr::persistent(0), MemAddr::persistent(CACHE_LINE_BYTES));
    s.store_u64(a, 1);
    s.fence();
    s.store_u64(b, 2);
    s.flush(b, 8);
    s.fence();
    let rec = s.into_recording();
    let fs = FragmentSet::build(&rec, AtomicPersistSize::default());
    let end = rec.events.len();
    let drop_all = CrashCase { point: end, survivors: Vec::new() };
    for model in Model::ALL {
        let layers = Layers::new(&rec, &fs, model);
        let diverges = matches!(model, Model::Epoch | Model::Bpfs | Model::Strand);
        assert_eq!(fs.pending(model, end), if diverges { vec![0] } else { vec![] }, "{model}");
        assert!(fs.is_legal(model, &drop_all), "{model}");
        assert_eq!(layers.pfi_image(&drop_all).read_u64(a).unwrap(), u64::from(!diverges));
        assert_eq!(layers.dag_image(&drop_all).read_u64(a).unwrap(), 1, "{model}");
    }
}

/// Fencing without flushing is common enough in random programs that the
/// divergence shows up under every flush model, and only there.
#[test]
fn unflushed_programs_diverge_only_under_flush_models() {
    let bad = agreement(0xd1ff, 60, false, &Model::ALL);
    for (model, bad) in Model::ALL.into_iter().zip(bad) {
        let diverges = matches!(model, Model::Epoch | Model::Bpfs | Model::Strand);
        assert_eq!(bad > 0, diverges, "{model}: {bad} mismatches");
    }
}
