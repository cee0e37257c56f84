//! Model-aware crash injection over a [`Recording`].
//!
//! A recorded store is split into per-cache-line [`Fragment`]s. At a crash
//! point `p` (an index into the event log: events `0..p` executed), every
//! fragment is in one of three states:
//!
//! - **unwritten** — its store lies at or after `p`;
//! - **durable** — the model's durability rule was satisfied before `p`
//!   (see below); the fragment is guaranteed to survive;
//! - **pending** — written but not guaranteed; the crash may keep or drop
//!   it, subject to the model's ordering constraints.
//!
//! Which rule makes a fragment durable, and which subsets of the pending
//! fragments a crash may keep, are the model's [`Rules`]: a fence after
//! the store, or after a flush covering its line (on the flush's strand,
//! under strands); a global prefix, a prefix per line, or a
//! downward-closed set of epochs (per strand). [`FragmentSet::draw`]
//! samples those subsets and [`FragmentSet::is_legal`] admits them.
//!
//! With torn persists enabled, fragments at the drop boundary (the last
//! survivor under a prefix rule; boundary-epoch members under an epoch
//! rule) may additionally persist only a subset of their
//! [`AtomicPersistSize`] units — the same granularity knob the `nvram`
//! wear model sweeps. Fragments *below* the boundary cannot tear: the
//! fence that ordered them ahead of surviving persists guaranteed all
//! their units.
//!
//! **Pending index.** [`FragmentSet::from_events`] stores, per durability
//! rule (fence; flush then fence; flush then same-strand fence), each
//! fragment's durability point `D[i]` (`u32::MAX` when never durable)
//! and the running maximum of `D` in store order. Fragments are in store
//! order, so at point `p` the written ones are a prefix `..hi` and every
//! fragment before the first running maximum `>= p` is durable: the
//! pending set is the `D[i] >= p` members of one window `lo..hi`, found by
//! two binary searches. A draw costs O(log fragments + window) instead of
//! a scan of every fragment. Grouping needs no rescans either: the
//! per-line rules sort the pending `(line, fragment)` pairs once, and
//! strand ids and epochs never decrease in store order, so strands and
//! epochs are contiguous runs of the pending list. Draws consume the RNG
//! in the same order as a full scan would, so a seed fixes the crash case.

use crate::shadow::{Recording, ShadowEvent};
use mem_trace::rng::SmallRng;
use persist_mem::{AtomicPersistSize, MemAddr, MemoryImage, CACHE_LINE_BYTES};
use persistency::rules::{Rules, Survivors};
use persistency::Model;

/// The durability rules, as indices into per-rule arrays: a fence after
/// the store; a fence after a covering flush; a fence on the covering
/// flush's strand.
const FENCE: usize = 0;
const FLUSH_FENCE: usize = 1;
const STRAND_FENCE: usize = 2;
const RULES: usize = 3;

/// The durability point of a fragment that never becomes durable.
const NEVER: u32 = u32::MAX;

/// The durability rule `rules` select.
fn durability(rules: Rules) -> usize {
    match (rules.needs_flush(), rules.strands()) {
        (false, _) => FENCE,
        (true, false) => FLUSH_FENCE,
        (true, true) => STRAND_FENCE,
    }
}

/// A store restricted to one cache line.
#[derive(Debug, Clone)]
pub struct Fragment {
    /// Index of the originating `Store` event.
    pub event: usize,
    /// Fragment start address.
    pub addr: MemAddr,
    /// Fragment bytes.
    pub data: Vec<u8>,
    /// Cache line (persistent offset / line size).
    pub line: u64,
    /// Global fence count at the store (epoch id).
    pub epoch: u32,
    /// Strand id at the store.
    pub strand: u32,
    /// First event index whose execution makes the fragment durable, per
    /// durability rule; [`NEVER`] if none does.
    durable: [u32; RULES],
}

impl Fragment {
    /// The event index after which this fragment is guaranteed durable
    /// under `model`, if any.
    pub fn durable_at(&self, model: Model) -> Option<usize> {
        let d = self.durable[durability(model.rules())];
        (d != NEVER).then_some(d as usize)
    }

    /// Number of atomic-persist units the fragment spans.
    pub fn units(&self, unit: u64) -> u32 {
        self.data.len().div_ceil(unit as usize) as u32
    }
}

/// A surviving pending fragment, possibly torn to a subset of its units.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Survivor {
    /// Index into [`FragmentSet::fragments`].
    pub frag: usize,
    /// Bit `i` set = unit `i` (fragment-relative) persisted.
    pub unit_mask: u64,
}

/// A concrete injected crash: how far execution got, and which pending
/// fragments the NVRAM kept.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CrashCase {
    /// Events executed before the crash.
    pub point: usize,
    /// Kept pending fragments (everything durable survives implicitly;
    /// every pending fragment absent here is dropped).
    pub survivors: Vec<Survivor>,
}

/// The per-line fragments of a recording, with durability metadata.
#[derive(Debug, Clone)]
pub struct FragmentSet {
    frags: Vec<Fragment>,
    /// Per durability rule, the running maximum of the fragments'
    /// durability points in store order: the pending index.
    durable_max: [Vec<u32>; RULES],
    events_len: usize,
    unit: u64,
}

impl FragmentSet {
    /// Splits every store of `rec` into line fragments and computes the
    /// per-model durability points. `unit` is the atomic persist size for
    /// torn-write modeling.
    pub fn build(rec: &Recording, unit: AtomicPersistSize) -> Self {
        Self::from_events(&rec.events, unit)
    }

    /// [`FragmentSet::build`] over a bare event log — the base and final
    /// images play no part in fragment construction, so callers holding a
    /// live [`crate::shadow::ShadowPmem`] can build without finishing it
    /// into a [`Recording`].
    pub fn from_events(events: &[ShadowEvent], unit: AtomicPersistSize) -> Self {
        let line_sz = CACHE_LINE_BYTES;
        assert!(events.len() < NEVER as usize, "event indices must fit in u32");
        // Tag every event with (epoch, strand).
        let mut tags = Vec::with_capacity(events.len());
        let (mut epoch, mut strand) = (0u32, 0u32);
        for e in events {
            tags.push((epoch, strand));
            match e {
                ShadowEvent::Fence => epoch += 1,
                ShadowEvent::Strand => strand += 1,
                _ => {}
            }
        }

        let mut frags = Vec::new();
        for (idx, e) in events.iter().enumerate() {
            let ShadowEvent::Store { addr, data } = e else { continue };
            let (epoch, strand) = tags[idx];
            let mut off = 0usize;
            while off < data.len() {
                let a = addr.add(off as u64);
                let line = a.offset() / line_sz;
                let line_end = (line + 1) * line_sz;
                let take = ((line_end - a.offset()) as usize).min(data.len() - off);
                frags.push(Fragment {
                    event: idx,
                    addr: a,
                    data: data[off..off + take].to_vec(),
                    line,
                    epoch,
                    strand,
                    durable: [NEVER; RULES],
                });
                off += take;
            }
        }

        // Durability scans (event counts are small; clarity over big-O).
        for f in &mut frags {
            let mut covered: Option<u32> = None; // strand of the last covering flush
            for (i, e) in events.iter().enumerate().skip(f.event + 1) {
                match e {
                    ShadowEvent::Flush { addr, len } => {
                        let lo = addr.offset() / line_sz;
                        let hi = (addr.offset() + (*len).max(1) - 1) / line_sz;
                        if (lo..=hi).contains(&f.line) {
                            covered = Some(tags[i].1);
                        }
                    }
                    ShadowEvent::Fence => {
                        let d = &mut f.durable;
                        d[FENCE] = d[FENCE].min(i as u32);
                        if let Some(fl_strand) = covered {
                            d[FLUSH_FENCE] = d[FLUSH_FENCE].min(i as u32);
                            if tags[i].1 == fl_strand {
                                d[STRAND_FENCE] = d[STRAND_FENCE].min(i as u32);
                            }
                        }
                    }
                    _ => {}
                }
                if f.durable.iter().all(|&d| d != NEVER) {
                    break;
                }
            }
        }

        let durable_max = std::array::from_fn(|r| {
            let running = frags.iter().scan(0, |max, f| {
                *max = f.durable[r].max(*max);
                Some(*max)
            });
            running.collect()
        });
        FragmentSet { frags, durable_max, events_len: events.len(), unit: unit.bytes() }
    }

    /// All fragments, in store (sequence) order.
    pub fn fragments(&self) -> &[Fragment] {
        &self.frags
    }

    /// Number of events in the underlying recording (crash points range
    /// over `0..=events_len`).
    pub fn events_len(&self) -> usize {
        self.events_len
    }

    /// The atomic persist unit used for torn-write masks.
    pub fn unit(&self) -> u64 {
        self.unit
    }

    /// Whether fragment `i` is durable at `point` under durability rule
    /// `r`.
    fn is_durable(&self, r: usize, i: usize, point: usize) -> bool {
        (self.frags[i].durable[r] as usize) < point
    }

    /// The pending fragments at `point` under durability rule `r`, in
    /// store order. Fragments written before `point` are a prefix `..hi`;
    /// those before the first `lo` whose running durability maximum
    /// reaches `point` are all durable. Two binary searches find the
    /// window; a filter on it does the rest.
    fn pending_iter(&self, r: usize, point: usize) -> impl Iterator<Item = usize> + '_ {
        let hi = self.frags.partition_point(|f| f.event < point);
        let lo = self.durable_max[r][..hi].partition_point(|&d| (d as usize) < point);
        (lo..hi).filter(move |&i| !self.is_durable(r, i, point))
    }

    /// Indices of fragments pending (written, not durable) at `point`.
    pub fn pending(&self, model: Model, point: usize) -> Vec<usize> {
        self.pending_iter(durability(model.rules()), point).collect()
    }

    fn full_mask(&self, i: usize) -> u64 {
        let n = self.frags[i].units(self.unit);
        if n >= 64 {
            u64::MAX
        } else {
            (1u64 << n) - 1
        }
    }

    /// `pending` reordered for the per-line prefix rules: ascending line,
    /// store order within a line. Split it with [`FragmentSet::lines`].
    fn line_major(&self, pending: &[usize]) -> Vec<usize> {
        let mut order = pending.to_vec();
        order.sort_unstable_by_key(|&i| (self.frags[i].line, i));
        order
    }

    /// A [`FragmentSet::line_major`] order split into one group per line.
    fn lines<'a>(&'a self, order: &'a [usize]) -> impl Iterator<Item = &'a [usize]> + 'a {
        order.chunk_by(|&a, &b| self.frags[a].line == self.frags[b].line)
    }

    /// `pending` split into groups whose epochs order independently: one
    /// per strand when `strands`, else all of it. Strand ids never
    /// decrease in store order, so each strand is a contiguous run, and
    /// inside one the global fence count orders its epochs.
    fn epoch_groups<'a>(
        &'a self,
        pending: &'a [usize],
        strands: bool,
    ) -> impl Iterator<Item = &'a [usize]> + 'a {
        pending.chunk_by(move |&a, &b| !strands || self.frags[a].strand == self.frags[b].strand)
    }

    /// Samples a crash case at `point`: a legal survivor subset of the
    /// pending fragments under `model`, optionally with torn boundary
    /// fragments.
    pub fn draw(&self, model: Model, point: usize, rng: &mut SmallRng, torn: bool) -> CrashCase {
        let rules = model.rules();
        let pending = self.pending(model, point);
        let mut survivors = Vec::new();
        match rules.survivors() {
            Survivors::Prefix => self.draw_prefix(&pending, rng, &mut survivors, torn),
            Survivors::LinePrefix => {
                for line in self.lines(&self.line_major(&pending)) {
                    self.draw_prefix(line, rng, &mut survivors, torn);
                }
            }
            Survivors::Epochs => {
                for group in self.epoch_groups(&pending, rules.strands()) {
                    self.draw_epochwise(group, rng, &mut survivors, torn);
                }
            }
        }
        survivors.sort_unstable_by_key(|s| s.frag);
        CrashCase { point, survivors }
    }

    /// Prefix draw over `group` (store order): keep a uniformly chosen
    /// prefix, the last kept fragment possibly torn.
    fn draw_prefix(
        &self,
        group: &[usize],
        rng: &mut SmallRng,
        survivors: &mut Vec<Survivor>,
        torn: bool,
    ) {
        let k = rng.gen_below(group.len() as u64 + 1) as usize;
        let Some((&last, whole)) = group[..k].split_last() else { return };
        survivors.extend(whole.iter().map(|&i| Survivor { frag: i, unit_mask: self.full_mask(i) }));
        self.keep_boundary(last, rng, survivors, torn);
    }

    /// Keeps a boundary fragment with a random (possibly partial) mask.
    fn keep_boundary(
        &self,
        i: usize,
        rng: &mut SmallRng,
        survivors: &mut Vec<Survivor>,
        torn: bool,
    ) {
        let full = self.full_mask(i);
        let mask = if torn && rng.gen_below(4) == 0 { rng.next_u64() & full } else { full };
        if mask != 0 {
            survivors.push(Survivor { frag: i, unit_mask: mask });
        }
    }

    /// Epoch-downward-closed draw over `group` (store order, so epochs
    /// never decrease along it): pick a boundary epoch, keep everything
    /// below it, flip a coin (and possibly tear) inside it, drop everything
    /// above.
    fn draw_epochwise(
        &self,
        group: &[usize],
        rng: &mut SmallRng,
        survivors: &mut Vec<Survivor>,
        torn: bool,
    ) {
        if group.is_empty() {
            return;
        }
        let same_epoch = |a: &usize, b: &usize| self.frags[*a].epoch == self.frags[*b].epoch;
        // One past the last = everything pending survives intact.
        let boundary = rng.gen_index(group.chunk_by(same_epoch).count() + 1);
        for (rank, members) in group.chunk_by(same_epoch).enumerate() {
            match rank.cmp(&boundary) {
                std::cmp::Ordering::Less => survivors.extend(
                    members.iter().map(|&i| Survivor { frag: i, unit_mask: self.full_mask(i) }),
                ),
                std::cmp::Ordering::Equal => {
                    for &i in members {
                        if rng.gen_below(2) == 0 {
                            self.keep_boundary(i, rng, survivors, torn);
                        }
                    }
                }
                std::cmp::Ordering::Greater => break,
            }
        }
    }

    /// Whether `case` is a crash the model could actually produce.
    pub fn is_legal(&self, model: Model, case: &CrashCase) -> bool {
        let rules = model.rules();
        if case.point > self.events_len {
            return false;
        }
        let pending = self.pending(model, case.point);
        let mut kept: Vec<(usize, u64)> =
            case.survivors.iter().map(|s| (s.frag, s.unit_mask)).collect();
        kept.sort_unstable();
        if kept.windows(2).any(|w| w[0].0 == w[1].0) {
            return false; // duplicate fragment
        }
        let admissible = |&(i, mask): &(usize, u64)| {
            pending.binary_search(&i).is_ok() && mask != 0 && mask & !self.full_mask(i) == 0
        };
        if !kept.iter().all(admissible) {
            return false;
        }
        let mask_of = |i: usize| kept.binary_search_by_key(&i, |&(f, _)| f).ok().map(|k| kept[k].1);

        // Survivors must be a prefix; only the last kept may be torn.
        let prefix_ok = |group: &[usize]| -> bool {
            let n = group.iter().take_while(|&&i| mask_of(i).is_some()).count();
            group[n..].iter().all(|&i| mask_of(i).is_none())
                && group[..n.saturating_sub(1)]
                    .iter()
                    .all(|&i| mask_of(i) == Some(self.full_mask(i)))
        };
        // Everything below the highest kept epoch is kept whole; the
        // boundary epoch takes any subset and masks, above it is dropped.
        let epoch_ok = |group: &[usize]| -> bool {
            let epoch_of = |i: usize| self.frags[i].epoch;
            let boundary =
                group.iter().filter(|&&i| mask_of(i).is_some()).map(|&i| epoch_of(i)).max();
            let Some(boundary) = boundary else {
                return true; // nothing kept: dropping everything is legal
            };
            group.iter().all(|&i| epoch_of(i) >= boundary || mask_of(i) == Some(self.full_mask(i)))
        };

        match rules.survivors() {
            Survivors::Prefix => prefix_ok(&pending),
            Survivors::LinePrefix => self.lines(&self.line_major(&pending)).all(prefix_ok),
            Survivors::Epochs => self.epoch_groups(&pending, rules.strands()).all(epoch_ok),
        }
    }

    /// Builds the post-crash image for `case`: the base image plus every
    /// durable fragment plus the surviving units, applied in store order.
    pub fn materialize(&self, base: &MemoryImage, model: Model, case: &CrashCase) -> MemoryImage {
        let mut img = MemoryImage::new();
        self.materialize_into(&mut img, base, model, case);
        img
    }

    /// [`FragmentSet::materialize`] into a caller-owned image, reusing its
    /// allocations (`img` is overwritten, not merged into).
    pub fn materialize_into(
        &self,
        img: &mut MemoryImage,
        base: &MemoryImage,
        model: Model,
        case: &CrashCase,
    ) {
        let r = durability(model.rules());
        let kept: std::collections::BTreeMap<usize, u64> =
            case.survivors.iter().map(|s| (s.frag, s.unit_mask)).collect();
        img.clone_from(base);
        for (i, f) in self.frags.iter().enumerate() {
            if f.event >= case.point {
                continue;
            }
            let mask = if self.is_durable(r, i, case.point) {
                self.full_mask(i)
            } else {
                match kept.get(&i) {
                    Some(&m) => m,
                    None => continue,
                }
            };
            let unit = self.unit as usize;
            for u in 0..f.units(self.unit) {
                if mask & (1 << u) == 0 {
                    continue;
                }
                let lo = u as usize * unit;
                let hi = (lo + unit).min(f.data.len());
                img.write(f.addr.add(lo as u64), &f.data[lo..hi])
                    .expect("materialized fragment in range");
            }
        }
    }

    /// Cache lines of pending fragments that `case` drops or tears.
    pub fn dropped_lines(&self, model: Model, case: &CrashCase) -> Vec<u64> {
        let kept_whole = |i: usize| {
            let last = case.survivors.iter().rev().find(|s| s.frag == i);
            last.is_some_and(|s| s.unit_mask == self.full_mask(i))
        };
        let mut lines: Vec<u64> = self
            .pending_iter(durability(model.rules()), case.point)
            .filter(|&i| !kept_whole(i))
            .map(|i| self.frags[i].line)
            .collect();
        lines.sort_unstable();
        lines.dedup();
        lines
    }

    /// Shrinks a failing case: first to the earliest crash point that
    /// still fails, then to the fewest dropped fragments. `still_fails`
    /// is consulted only with cases that [`FragmentSet::is_legal`] admits.
    pub fn shrink(
        &self,
        model: Model,
        case: &CrashCase,
        mut still_fails: impl FnMut(&CrashCase) -> bool,
    ) -> CrashCase {
        let r = durability(model.rules());
        let mut best = case.clone();
        // Phase 1: earliest failing crash point. Re-point the case by
        // keeping, of everything that materialized at the original point,
        // what is still pending at the earlier point.
        for p in 0..best.point {
            let survivors: Vec<Survivor> = self
                .pending_iter(r, p)
                .filter_map(|i| {
                    if self.is_durable(r, i, best.point) {
                        return Some(Survivor { frag: i, unit_mask: self.full_mask(i) });
                    }
                    best.survivors.iter().find(|s| s.frag == i).copied()
                })
                .collect();
            let candidate = CrashCase { point: p, survivors };
            if self.is_legal(model, &candidate) && still_fails(&candidate) {
                best = candidate;
                break;
            }
        }
        // Phase 2: un-drop fragments whose loss the failure does not need.
        let pending = self.pending(model, best.point);
        for &i in &pending {
            let full = self.full_mask(i);
            if best.survivors.iter().any(|s| s.frag == i && s.unit_mask == full) {
                continue;
            }
            let mut candidate = best.clone();
            candidate.survivors.retain(|s| s.frag != i);
            candidate.survivors.push(Survivor { frag: i, unit_mask: full });
            candidate.survivors.sort_unstable_by_key(|s| s.frag);
            if self.is_legal(model, &candidate) && still_fails(&candidate) {
                best = candidate;
            }
        }
        best
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shadow::ShadowPmem;
    use persist_mem::PmemBackend;

    /// store A; flush A; fence; store B (pending at end).
    fn simple_recording() -> Recording {
        let mut s = ShadowPmem::new();
        s.store_u64(MemAddr::persistent(0), 1);
        s.persist(MemAddr::persistent(0), 8);
        s.store_u64(MemAddr::persistent(64), 2);
        s.into_recording()
    }

    #[test]
    fn durability_rules() {
        let rec = simple_recording();
        let fs = FragmentSet::build(&rec, AtomicPersistSize::default());
        assert_eq!(fs.fragments().len(), 2);
        // After all 4 events: A durable under every model, B pending.
        for model in Model::ALL {
            assert_eq!(fs.pending(model, 4), vec![1], "{model}");
        }
        // Before the fence (point 2) nothing is durable.
        assert_eq!(fs.pending(Model::Epoch, 2), vec![0]);
        // Strict's fence-only rule also needs the fence executed.
        assert_eq!(fs.pending(Model::Strict, 2), vec![0]);
    }

    #[test]
    fn strict_draw_is_prefix() {
        let mut s = ShadowPmem::new();
        for i in 0..4u64 {
            s.store_u64(MemAddr::persistent(i * 64), i);
        }
        let rec = s.into_recording();
        let fs = FragmentSet::build(&rec, AtomicPersistSize::default());
        let mut rng = SmallRng::seed_from_u64(1);
        for _ in 0..100 {
            let case = fs.draw(Model::Strict, 4, &mut rng, false);
            assert!(fs.is_legal(Model::Strict, &case));
            // Prefix property: kept indices are contiguous from 0.
            let idx: Vec<usize> = case.survivors.iter().map(|s| s.frag).collect();
            assert_eq!(idx, (0..idx.len()).collect::<Vec<_>>());
        }
    }

    #[test]
    fn epoch_draw_is_downward_closed() {
        let mut s = ShadowPmem::new();
        s.store_u64(MemAddr::persistent(0), 1); // epoch 0
        s.fence();
        s.store_u64(MemAddr::persistent(64), 2); // epoch 1
        s.fence();
        s.store_u64(MemAddr::persistent(128), 3); // epoch 2
        let rec = s.into_recording();
        let fs = FragmentSet::build(&rec, AtomicPersistSize::default());
        let mut rng = SmallRng::seed_from_u64(2);
        // No flushes at all: everything stays pending under epoch rules.
        for _ in 0..200 {
            let case = fs.draw(Model::Epoch, 5, &mut rng, false);
            assert!(fs.is_legal(Model::Epoch, &case));
            let kept: Vec<usize> = case.survivors.iter().map(|s| s.frag).collect();
            if kept.contains(&2) {
                assert!(kept.contains(&1) && kept.contains(&0), "not closed: {kept:?}");
            }
            if kept.contains(&1) {
                assert!(kept.contains(&0), "not closed: {kept:?}");
            }
        }
    }

    #[test]
    fn materialize_applies_durable_and_survivors() {
        let rec = simple_recording();
        let fs = FragmentSet::build(&rec, AtomicPersistSize::default());
        let a = MemAddr::persistent(0);
        let b = MemAddr::persistent(64);
        // Drop the pending store entirely.
        let img = fs.materialize(&rec.base, Model::Epoch, &CrashCase { point: 4, survivors: vec![] });
        assert_eq!(img.read_u64(a).unwrap(), 1);
        assert_eq!(img.read_u64(b).unwrap(), 0);
        // Keep it.
        let case = CrashCase { point: 4, survivors: vec![Survivor { frag: 1, unit_mask: 1 }] };
        let img = fs.materialize(&rec.base, Model::Epoch, &case);
        assert_eq!(img.read_u64(b).unwrap(), 2);
    }

    #[test]
    fn torn_masks_apply_partial_units() {
        let mut s = ShadowPmem::new();
        s.store(MemAddr::persistent(0), &[0xAA; 16]); // 2 units in one line
        let rec = s.into_recording();
        let fs = FragmentSet::build(&rec, AtomicPersistSize::default());
        let case = CrashCase { point: 1, survivors: vec![Survivor { frag: 0, unit_mask: 0b10 }] };
        assert!(fs.is_legal(Model::Strict, &case));
        let img = fs.materialize(&rec.base, Model::Strict, &case);
        assert_eq!(img.read_u64(MemAddr::persistent(0)).unwrap(), 0);
        assert_eq!(img.read_u64(MemAddr::persistent(8)).unwrap(), 0xAAAA_AAAA_AAAA_AAAA);
        assert_eq!(fs.dropped_lines(Model::Strict, &case), vec![0]);
    }

    #[test]
    fn illegal_cases_are_rejected() {
        let mut s = ShadowPmem::new();
        s.store_u64(MemAddr::persistent(0), 1);
        s.store_u64(MemAddr::persistent(64), 2);
        let rec = s.into_recording();
        let fs = FragmentSet::build(&rec, AtomicPersistSize::default());
        // Keeping the later store while dropping the earlier breaks
        // strict's prefix rule but is fine under strict-rmo (two lines).
        let case = CrashCase { point: 2, survivors: vec![Survivor { frag: 1, unit_mask: 1 }] };
        assert!(!fs.is_legal(Model::Strict, &case));
        assert!(fs.is_legal(Model::StrictRmo, &case));
    }

    #[test]
    fn shrink_finds_minimal_point_and_drops() {
        // Failure condition: B's line (line 1) dropped while C's (line 2)
        // survived — needs C kept and B dropped; A is irrelevant.
        let mut s = ShadowPmem::new();
        s.store_u64(MemAddr::persistent(0), 1); // A, line 0
        s.store_u64(MemAddr::persistent(64), 2); // B, line 1
        s.store_u64(MemAddr::persistent(128), 3); // C, line 2
        let rec = s.into_recording();
        let fs = FragmentSet::build(&rec, AtomicPersistSize::default());
        let base = rec.base.clone();
        let fails = |case: &CrashCase| {
            let img = fs.materialize(&base, Model::StrictRmo, case);
            img.read_u64(MemAddr::persistent(128)).unwrap() == 3
                && img.read_u64(MemAddr::persistent(64)).unwrap() == 0
        };
        let all_dropped_but_c = CrashCase {
            point: 3,
            survivors: vec![Survivor { frag: 2, unit_mask: 1 }],
        };
        assert!(fails(&all_dropped_but_c));
        let shrunk = fs.shrink(Model::StrictRmo, &all_dropped_but_c, fails);
        assert_eq!(shrunk.point, 3, "C's store must have executed");
        // A was un-dropped (irrelevant to the failure); B stays dropped.
        assert!(shrunk.survivors.iter().any(|s| s.frag == 0));
        assert!(!shrunk.survivors.iter().any(|s| s.frag == 1));
        assert_eq!(fs.dropped_lines(Model::StrictRmo, &shrunk), vec![1]);
    }
}
