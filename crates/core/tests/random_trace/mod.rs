//! The randomized multithread traces the profiler's differential tests
//! run on, shared by `profile_differential.rs` and the bench crate's
//! `profile_oracle.rs`.

use mem_trace::rng::SmallRng;
use mem_trace::{SeededScheduler, Trace, TracedMem};
use persist_mem::MemAddr;

/// Randomized multithread workload, same shape as the engine-divergence
/// suite: per-thread op scripts fixed up front, seeded scheduler
/// interleaving.
pub fn random_trace(seed: u64) -> Trace {
    let mut rng = SmallRng::seed_from_u64(seed * 13 + 5);
    let threads = 2 + (seed % 3) as u32;
    let scripts: Vec<Vec<(u8, u64)>> = (0..threads)
        .map(|_| (0..40).map(|_| (rng.gen_index(7) as u8, rng.gen_index(8) as u64)).collect())
        .collect();
    let mem = TracedMem::new(SeededScheduler::new(seed));
    mem.run(threads, |ctx| {
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
                4 => ctx.mem_barrier(),
                5 => ctx.persist_sync(),
                _ => ctx.new_strand(),
            }
        }
    })
}
