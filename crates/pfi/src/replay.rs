//! Delta replay: O(pending lines) crash-image materialization.
//!
//! [`FragmentSet::materialize`] builds each post-crash image from scratch:
//! clone the base image, walk *every* fragment, apply the durable and
//! surviving ones. That is O(image bytes + total fragments) per injection,
//! and the fuzz loop runs thousands of injections against one recording.
//!
//! [`Replayer`] replaces that with a checkpoint ladder built once per
//! recording:
//!
//! - the op script's stores are grouped per cache line, and each line
//!   keeps a ladder of cumulative snapshots — the line's bytes after its
//!   first `k` fragments have persisted — plus each fragment's *qualify
//!   point* (the crash point from which the model guarantees it durable);
//! - qualify points are monotone in store order within a line (a later
//!   overlapping store can never be durable before an earlier one — its
//!   flush/fence covers both), so the durable fragments of a line at any
//!   crash point are exactly a prefix of its ladder, and the durable line
//!   content is a single O(line) snapshot copy;
//! - one scratch [`MemoryImage`] (a clone of the recording's base) is
//!   reused across injections in two layers over the base:
//!   - the *durable lines* of one crash point: the ladder snapshot of
//!     every line touched by then. They depend on the point alone, so the
//!     replayer remembers which point they belong to;
//!   - the *overlay*: surviving pending units and recovery writes, each
//!     journaled with the bytes it replaced.
//!
//! [`Replayer::load`] at the point the durable lines already belong to
//! only swaps the overlay: it writes the journaled bytes back, newest
//! first, truncates the image to the extent it had once the durable lines
//! were written, and applies the new survivors. A load at any other point
//! first [`Replayer::reset`]s: every region written since the last reset
//! is restored from the base and the image is truncated to the base
//! extent, so `reset` always leaves `image == base`. The fuzz loop visits
//! a shard's injections in crash-point order (see `fuzz::CellPlan::run_shard`),
//! so nearly every load takes the overlay-only path.
//!
//! The result is byte-identical to clone-and-replay — same bytes *and*
//! same extents, so images compare equal — at O(touched lines) per
//! point change and O(overlay) per load at the same point, instead of
//! O(image + fragments). The differential tests in `tests/delta_replay.rs`
//! check this against the oracle for every model, torn persists included,
//! over back-to-back loads at repeated, rising and falling points.

use crate::inject::{CrashCase, FragmentSet};
use crate::shadow::{Recording, ShadowEvent};
use persist_mem::{FxHashMap, MemAddr, MemoryImage, Space, CACHE_LINE_BYTES};
use persistency::Model;
use pstruct::txn::RecoveryStep;

/// One cache line's checkpoint ladder.
#[derive(Debug, Clone)]
struct LineLadder {
    /// Persistent offset of the line's first byte.
    start: u64,
    /// Qualify point per fragment (crash points `>= q` see it durable);
    /// `u32::MAX` for fragments the model never makes durable.
    /// Nondecreasing — see the module docs.
    q: Vec<u32>,
    /// Cumulative max end offset (line-relative) after the first `k + 1`
    /// fragments; the ladder write covers `[0, span_hi[k])`.
    span_hi: Vec<u32>,
    /// Snapshot `k` at `snap[k * LINE .. (k + 1) * LINE]`: the line after
    /// its first `k + 1` fragments applied over the base.
    snap: Vec<u8>,
}

/// Reusable delta-replay state for one `(recording, model)` pair.
///
/// Build once, then per injection: [`Replayer::load`], read the image,
/// optionally [`Replayer::apply_recovery`]. The next `load` replaces the
/// injection's image; [`Replayer::reset`] returns it to the base.
#[derive(Debug)]
pub struct Replayer<'a> {
    frags: &'a FragmentSet,
    base: &'a MemoryImage,
    lines: Vec<LineLadder>,
    /// `(q of the line's first fragment, index into lines)`, sorted: the
    /// lines durable-touched at point `p` are the prefix with `q <= p`.
    by_first_q: Vec<(u32, u32)>,
    /// `(completed, begun)` operation counts before each event index.
    ops_prefix: Vec<(u64, u64)>,
    image: MemoryImage,
    /// The crash point whose durable lines the image holds; `None` while
    /// the image holds none (after a reset).
    durable_point: Option<u32>,
    /// Regions the durable lines were written to, restored from `base`.
    durable: Vec<(MemAddr, u32)>,
    /// Image extents once the durable lines were written.
    durable_extent: (u64, u64),
    /// Overlay writes (survivors, recovery) since the durable lines, in
    /// write order.
    overlay: Vec<(MemAddr, u32)>,
    /// The bytes each overlay write replaced, concatenated in write order.
    journal: Vec<u8>,
    base_extent: (u64, u64),
}

impl<'a> Replayer<'a> {
    /// Builds the checkpoint ladder for `rec`'s fragments under `model`.
    pub fn new(frags: &'a FragmentSet, rec: &'a Recording, model: Model) -> Self {
        let line_sz = CACHE_LINE_BYTES as usize;
        let mut lines: Vec<LineLadder> = Vec::new();
        let mut index: FxHashMap<u64, u32> = FxHashMap::default();
        for f in frags.fragments() {
            let li = *index.entry(f.line).or_insert_with(|| {
                let start = f.line * CACHE_LINE_BYTES;
                let mut snap = vec![0u8; line_sz];
                rec.base
                    .read(MemAddr::persistent(start), &mut snap)
                    .expect("line in range");
                lines.push(LineLadder { start, q: Vec::new(), span_hi: Vec::new(), snap });
                (lines.len() - 1) as u32
            });
            let lad = &mut lines[li as usize];
            let q = f.durable_at(model).map_or(u32::MAX, |e| e as u32 + 1);
            debug_assert!(
                lad.q.last().is_none_or(|&prev| prev <= q),
                "durability must be monotone in store order within a line"
            );
            // Snapshot k = snapshot k-1 (or the base line) + this fragment.
            let prev = lad.snap.len() - line_sz;
            lad.snap.extend_from_within(prev..);
            let rel = (f.addr.offset() - lad.start) as usize;
            let k = lad.snap.len() - line_sz;
            lad.snap[k + rel..k + rel + f.data.len()].copy_from_slice(&f.data);
            let hi = (rel + f.data.len()) as u32;
            lad.q.push(q);
            lad.span_hi.push(lad.span_hi.last().map_or(hi, |&p| p.max(hi)));
        }
        for lad in &mut lines {
            // Drop the base-line scratch row: snapshot k lives at row k.
            lad.snap.drain(..line_sz);
        }
        let mut by_first_q: Vec<(u32, u32)> =
            lines.iter().enumerate().map(|(i, l)| (l.q[0], i as u32)).collect();
        by_first_q.sort_unstable();

        let mut ops_prefix = Vec::with_capacity(rec.events.len() + 1);
        let (mut completed, mut begun) = (0u64, 0u64);
        ops_prefix.push((completed, begun));
        for e in &rec.events {
            match e {
                ShadowEvent::OpBegin(_) => begun += 1,
                ShadowEvent::OpEnd(_) => completed += 1,
                _ => {}
            }
            ops_prefix.push((completed, begun));
        }

        let base_extent = (rec.base.extent(Space::Volatile), rec.base.extent(Space::Persistent));
        Replayer {
            frags,
            base: &rec.base,
            lines,
            by_first_q,
            ops_prefix,
            image: rec.base.clone(),
            durable_point: None,
            durable: Vec::new(),
            durable_extent: base_extent,
            overlay: Vec::new(),
            journal: Vec::new(),
            base_extent,
        }
    }

    /// Operations `(completed, begun)` before event index `point` — the
    /// precomputed equivalent of [`Recording::ops_at`].
    pub fn ops_at(&self, point: usize) -> (u64, u64) {
        self.ops_prefix[point.min(self.ops_prefix.len() - 1)]
    }

    /// The current materialized image.
    pub fn image(&self) -> &MemoryImage {
        &self.image
    }

    /// Materializes `case` into the scratch image: the durable snapshot of
    /// every touched line plus the surviving units. Byte-identical to
    /// [`FragmentSet::materialize`] over the same base. At the point the
    /// image's durable lines belong to, only the overlay is replaced.
    pub fn load(&mut self, case: &CrashCase) {
        let p = case.point as u32;
        if self.durable_point == Some(p) {
            self.drop_overlay();
        } else {
            self.reset();
            self.load_durable(p);
        }
        // Survivors are sorted by fragment index, and within a line every
        // pending fragment follows every durable one, so applying them
        // after the ladder writes reproduces store order exactly.
        let frags = self.frags;
        let unit_sz = frags.unit();
        let unit = unit_sz as usize;
        for s in &case.survivors {
            let f = &frags.fragments()[s.frag];
            for u in 0..f.units(unit_sz) {
                if s.unit_mask & (1 << u) == 0 {
                    continue;
                }
                let lo = u as usize * unit;
                let hi = (lo + unit).min(f.data.len());
                self.overlay_write(f.addr.add(lo as u64), &f.data[lo..hi]);
            }
        }
    }

    /// Writes the ladder snapshot of every line durable-touched at `p`
    /// over a reset image.
    fn load_durable(&mut self, p: u32) {
        let line_sz = CACHE_LINE_BYTES as usize;
        let n = self.by_first_q.partition_point(|&(q, _)| q <= p);
        for &(_, li) in &self.by_first_q[..n] {
            let lad = &self.lines[li as usize];
            let k = lad.q.partition_point(|&q| q <= p);
            let hi = lad.span_hi[k - 1] as usize;
            let addr = MemAddr::persistent(lad.start);
            self.image
                .write(addr, &lad.snap[(k - 1) * line_sz..(k - 1) * line_sz + hi])
                .expect("ladder line in range");
            self.durable.push((addr, hi as u32));
        }
        self.durable_point = Some(p);
        self.durable_extent =
            (self.image.extent(Space::Volatile), self.image.extent(Space::Persistent));
    }

    /// Writes `data` at `addr` as part of the overlay, journaling the
    /// bytes it replaces.
    fn overlay_write(&mut self, addr: MemAddr, data: &[u8]) {
        let at = self.journal.len();
        self.journal.resize(at + data.len(), 0);
        self.image.read(addr, &mut self.journal[at..]).expect("overlay region in range");
        self.image.write(addr, data).expect("overlay region in range");
        self.overlay.push((addr, data.len() as u32));
    }

    /// Undoes the overlay, newest write first, and truncates the image to
    /// its extent once the durable lines were written: the image then
    /// holds exactly the base plus the durable lines.
    fn drop_overlay(&mut self) {
        for &(addr, len) in self.overlay.iter().rev() {
            let at = self.journal.len() - len as usize;
            self.image.write(addr, &self.journal[at..]).expect("overlay region in range");
            self.journal.truncate(at);
        }
        self.overlay.clear();
        self.image.truncate(Space::Volatile, self.durable_extent.0);
        self.image.truncate(Space::Persistent, self.durable_extent.1);
    }

    /// Applies a recovery script's writes on top of the loaded image
    /// (barriers are ordering-only), as part of the overlay.
    pub fn apply_recovery(&mut self, script: &[RecoveryStep]) {
        for step in script {
            if let RecoveryStep::Write { addr, value } = step {
                self.overlay_write(*addr, &value.to_le_bytes());
            }
        }
    }

    /// Restores the scratch image to the recording's base: every region
    /// written since the last reset is copied back from the base and the
    /// image is truncated to the base extent. O(written regions).
    pub fn reset(&mut self) {
        let mut buf = [0u8; CACHE_LINE_BYTES as usize];
        for &(addr, len) in self.durable.iter().chain(&self.overlay) {
            let b = &mut buf[..len as usize];
            self.base.read(addr, b).expect("written region in range");
            self.image.write(addr, b).expect("written region in range");
        }
        self.durable.clear();
        self.overlay.clear();
        self.journal.clear();
        self.image.truncate(Space::Volatile, self.base_extent.0);
        self.image.truncate(Space::Persistent, self.base_extent.1);
        self.durable_point = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shadow::ShadowPmem;
    use mem_trace::rng::SmallRng;
    use persist_mem::{AtomicPersistSize, PmemBackend};

    fn recording() -> Recording {
        let mut s = ShadowPmem::new();
        s.op_begin(0);
        s.store_u64(MemAddr::persistent(0), 1);
        s.persist(MemAddr::persistent(0), 8);
        s.op_end(0);
        s.op_begin(1);
        s.store_u64(MemAddr::persistent(8), 2); // same line as the first
        s.store_u64(MemAddr::persistent(64), 3);
        s.persist(MemAddr::persistent(64), 8);
        s.into_recording()
    }

    #[test]
    fn matches_oracle_and_resets_clean() {
        let rec = recording();
        let frags = FragmentSet::build(&rec, AtomicPersistSize::default());
        for model in Model::ALL {
            let mut r = Replayer::new(&frags, &rec, model);
            let mut rng = SmallRng::seed_from_u64(9);
            for point in 0..=rec.events.len() {
                for _ in 0..8 {
                    let case = frags.draw(model, point, &mut rng, true);
                    r.load(&case);
                    let oracle = frags.materialize(&rec.base, model, &case);
                    assert_eq!(r.image(), &oracle, "{model} point {point}");
                    r.reset();
                    assert_eq!(r.image(), &rec.base, "{model} reset");
                }
            }
        }
    }

    #[test]
    fn ops_prefix_matches_scan() {
        let rec = recording();
        let frags = FragmentSet::build(&rec, AtomicPersistSize::default());
        let r = Replayer::new(&frags, &rec, Model::Epoch);
        for p in 0..=rec.events.len() + 2 {
            assert_eq!(r.ops_at(p), rec.ops_at(p));
        }
    }

    #[test]
    fn recovery_writes_are_undone() {
        let rec = recording();
        let frags = FragmentSet::build(&rec, AtomicPersistSize::default());
        let mut r = Replayer::new(&frags, &rec, Model::Strict);
        let case = CrashCase { point: rec.events.len(), survivors: vec![] };
        r.load(&case);
        r.apply_recovery(&[
            RecoveryStep::Write { addr: MemAddr::persistent(128), value: 7 },
            RecoveryStep::Barrier,
        ]);
        assert_eq!(r.image().read_u64(MemAddr::persistent(128)).unwrap(), 7);
        r.reset();
        assert_eq!(r.image(), &rec.base);
    }
}
