//! Differential test: the indexed crash-state sampler against a full-scan
//! oracle.
//!
//! [`FragmentSet`] finds the pending fragments of a crash point through a
//! per-rule index (two binary searches and a window filter) and groups
//! them without rescans. The oracle below is the straightforward version,
//! rebuilt from the public API only (`fragments()`, `durable_at`,
//! `unit()`, the recording's events): it recomputes every fragment's
//! durability points from the event log, tests every fragment for
//! pendency, and regroups by repeated filtering.
//!
//! Over random [`ShadowPmem`] recordings — line-straddling stores, stores
//! that are never flushed, multi-line flushes, strand switches and
//! fence-free stretches — for every model, torn persists on and off, and
//! every crash point, both sides must agree on:
//!
//! - the pending list;
//! - the drawn [`CrashCase`] from the same seed, *and* the next value of
//!   the RNG afterwards (later draws share the stream);
//! - `is_legal`, on drawn cases and on cases with one survivor flipped,
//!   re-masked, duplicated or replaced by a non-pending fragment;
//! - `dropped_lines` and `shrink`.

use mem_trace::rng::SmallRng;
use persist_mem::{AtomicPersistSize, MemAddr, PmemBackend, CACHE_LINE_BYTES};
use persistency::Model;
use pfi::inject::{CrashCase, FragmentSet, Survivor};
use pfi::shadow::{ShadowEvent, ShadowPmem};
use std::collections::BTreeMap;

/// A random recording over a few cache lines. `flush_pct` and `fence_pct`
/// vary per recording so that some never flush (every store stays
/// pending under the flush rules) and some run long fence-free stretches.
fn random_events(rng: &mut SmallRng) -> Vec<ShadowEvent> {
    let len = 20 + rng.gen_index(50);
    let flush_pct = [0, 10, 25][rng.gen_index(3)];
    let fence_pct = [0, 6, 20][rng.gen_index(3)];
    let strand_pct = [0, 5][rng.gen_index(2)];
    let region = 6 * CACHE_LINE_BYTES;
    let mut s = ShadowPmem::new();
    for _ in 0..len {
        let roll = rng.gen_below(100);
        if roll < flush_pct {
            let addr = rng.gen_below(region);
            // Mostly one line, sometimes several or a zero-length request.
            let len = [0, 1 + rng.gen_below(64), 1 + rng.gen_below(3 * CACHE_LINE_BYTES)]
                [rng.gen_index(3)];
            s.flush(MemAddr::persistent(addr), len);
        } else if roll < flush_pct + fence_pct {
            s.fence();
        } else if roll < flush_pct + fence_pct + strand_pct {
            s.strand();
        } else {
            // Short stores, some straddling a line boundary, and the odd
            // store spanning several lines.
            let n =
                if rng.gen_below(8) == 0 { 65 + rng.gen_index(100) } else { 1 + rng.gen_index(24) };
            let addr = rng.gen_below(region);
            let data: Vec<u8> = (0..n).map(|_| rng.next_u64() as u8 | 1).collect();
            s.store(MemAddr::persistent(addr), &data);
        }
    }
    s.into_recording().events
}

/// The full-scan sampler the index replaced.
struct Oracle<'a> {
    fs: &'a FragmentSet,
}

impl Oracle<'_> {
    fn full_mask(&self, i: usize) -> u64 {
        let n = self.fs.fragments()[i].units(self.fs.unit());
        if n >= 64 {
            u64::MAX
        } else {
            (1u64 << n) - 1
        }
    }

    fn is_durable(&self, i: usize, model: Model, point: usize) -> bool {
        self.fs.fragments()[i].durable_at(model).is_some_and(|e| e < point)
    }

    fn pending(&self, model: Model, point: usize) -> Vec<usize> {
        (0..self.fs.fragments().len())
            .filter(|&i| self.fs.fragments()[i].event < point && !self.is_durable(i, model, point))
            .collect()
    }

    fn groups(&self, model: Model, pending: &[usize]) -> Vec<Vec<usize>> {
        let f = self.fs.fragments();
        let by = |key: &dyn Fn(usize) -> u64| {
            let mut keys: Vec<u64> = pending.iter().map(|&i| key(i)).collect();
            keys.sort_unstable();
            keys.dedup();
            keys.iter()
                .map(|&k| pending.iter().copied().filter(|&i| key(i) == k).collect())
                .collect()
        };
        match model {
            Model::StrictRmo | Model::Bpfs => by(&|i| f[i].line),
            Model::Strand => by(&|i| f[i].strand as u64),
            _ => vec![pending.to_vec()],
        }
    }

    /// The epoch of fragment `i`. Groups are per strand under strand
    /// persistency, and inside one strand the global fence count orders
    /// epochs exactly as a count from the strand's start would.
    fn epoch_of(&self, i: usize) -> u32 {
        self.fs.fragments()[i].epoch
    }

    fn draw(&self, model: Model, point: usize, rng: &mut SmallRng, torn: bool) -> CrashCase {
        let pending = self.pending(model, point);
        let mut survivors = Vec::new();
        let keep_boundary = |survivors: &mut Vec<Survivor>, i: usize, rng: &mut SmallRng| {
            let full = self.full_mask(i);
            let mask = if torn && rng.gen_below(4) == 0 { rng.next_u64() & full } else { full };
            if mask != 0 {
                survivors.push(Survivor { frag: i, unit_mask: mask });
            }
        };
        match model {
            Model::Strict | Model::StrictRmo | Model::Bpfs => {
                // Strict draws once even with nothing pending.
                let groups = if model == Model::Strict {
                    vec![pending]
                } else {
                    self.groups(model, &pending)
                };
                for group in groups {
                    let k = rng.gen_below(group.len() as u64 + 1) as usize;
                    for (n, &i) in group.iter().take(k).enumerate() {
                        if n + 1 == k {
                            keep_boundary(&mut survivors, i, rng);
                        } else {
                            survivors.push(Survivor { frag: i, unit_mask: self.full_mask(i) });
                        }
                    }
                }
            }
            _ => {
                for group in self.groups(model, &pending) {
                    if group.is_empty() {
                        continue;
                    }
                    let mut epochs: Vec<u32> =
                        group.iter().map(|&i| self.epoch_of(i)).collect();
                    epochs.sort_unstable();
                    epochs.dedup();
                    let c = rng.gen_index(epochs.len() + 1);
                    let boundary = epochs.get(c).copied();
                    for &i in &group {
                        let e = self.epoch_of(i);
                        match boundary {
                            Some(b) if e == b => {
                                if rng.gen_below(2) == 0 {
                                    keep_boundary(&mut survivors, i, rng);
                                }
                            }
                            Some(b) if e > b => {}
                            _ => survivors.push(Survivor { frag: i, unit_mask: self.full_mask(i) }),
                        }
                    }
                }
            }
        }
        survivors.sort_unstable_by_key(|s| s.frag);
        CrashCase { point, survivors }
    }

    fn is_legal(&self, model: Model, case: &CrashCase) -> bool {
        if case.point > self.fs.events_len() {
            return false;
        }
        let pending = self.pending(model, case.point);
        let kept: BTreeMap<usize, u64> =
            case.survivors.iter().map(|s| (s.frag, s.unit_mask)).collect();
        if kept.len() != case.survivors.len() {
            return false;
        }
        for s in &case.survivors {
            if !pending.contains(&s.frag)
                || s.unit_mask == 0
                || s.unit_mask & !self.full_mask(s.frag) != 0
            {
                return false;
            }
        }
        self.groups(model, &pending).iter().all(|group| match model {
            Model::Strict | Model::StrictRmo | Model::Bpfs => {
                let mut seen_gap = false;
                let mut last_kept = None;
                for &i in group {
                    match kept.get(&i) {
                        Some(_) if seen_gap => return false,
                        Some(_) => last_kept = Some(i),
                        None => seen_gap = true,
                    }
                }
                group.iter().all(|&i| {
                    kept.get(&i).is_none_or(|&m| m == self.full_mask(i) || Some(i) == last_kept)
                })
            }
            _ => {
                let Some(boundary) = group
                    .iter()
                    .filter(|i| kept.contains_key(i))
                    .map(|&i| self.epoch_of(i))
                    .max()
                else {
                    return true;
                };
                group.iter().all(|&i| match kept.get(&i) {
                    Some(&m) if self.epoch_of(i) < boundary => m == self.full_mask(i),
                    None if self.epoch_of(i) < boundary => false,
                    _ => true,
                })
            }
        })
    }

    fn dropped_lines(&self, model: Model, case: &CrashCase) -> Vec<u64> {
        let kept: BTreeMap<usize, u64> =
            case.survivors.iter().map(|s| (s.frag, s.unit_mask)).collect();
        let mut lines: Vec<u64> = self
            .pending(model, case.point)
            .into_iter()
            .filter(|i| kept.get(i) != Some(&self.full_mask(*i)))
            .map(|i| self.fs.fragments()[i].line)
            .collect();
        lines.sort_unstable();
        lines.dedup();
        lines
    }

    fn shrink(
        &self,
        model: Model,
        case: &CrashCase,
        mut still_fails: impl FnMut(&CrashCase) -> bool,
    ) -> CrashCase {
        let mut best = case.clone();
        for p in 0..best.point {
            let survivors: Vec<Survivor> = self
                .pending(model, p)
                .into_iter()
                .filter_map(|i| {
                    if self.is_durable(i, model, best.point) {
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
        for i in self.pending(model, best.point) {
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

/// Recomputes each fragment's durability points from the event log — a
/// fence after the store; a fence after a covering flush; a fence on the
/// covering flush's strand — and checks `durable_at` against them.
fn check_durability(events: &[ShadowEvent], fs: &FragmentSet) {
    for f in fs.fragments() {
        let (mut fence, mut flush_fence, mut same_strand) = (None, None, None);
        let mut strand = events[..=f.event].iter().filter(|e| **e == ShadowEvent::Strand).count();
        let mut covered_on: Option<usize> = None;
        for (i, e) in events.iter().enumerate().skip(f.event + 1) {
            match e {
                ShadowEvent::Strand => strand += 1,
                ShadowEvent::Flush { addr, len } => {
                    let first = addr.offset() / CACHE_LINE_BYTES;
                    let last = (addr.offset() + (*len).max(1) - 1) / CACHE_LINE_BYTES;
                    if (first..=last).contains(&f.line) {
                        covered_on = Some(strand);
                    }
                }
                ShadowEvent::Fence => {
                    fence = fence.or(Some(i));
                    if let Some(s) = covered_on {
                        flush_fence = flush_fence.or(Some(i));
                        if s == strand {
                            same_strand = same_strand.or(Some(i));
                        }
                    }
                }
                _ => {}
            }
        }
        let want = [
            (Model::Strict, fence),
            (Model::StrictRmo, fence),
            (Model::Epoch, flush_fence),
            (Model::Bpfs, flush_fence),
            (Model::Strand, same_strand),
        ];
        for (model, at) in want {
            assert_eq!(f.durable_at(model), at, "{model}: fragment of event {}", f.event);
        }
    }
}

/// Variants of a drawn case for the legality check: two pending
/// fragments' presence flipped, a kept fragment re-masked, a survivor
/// duplicated, a non-pending or out-of-range fragment added, and a crash
/// point past the end.
fn mutants(
    fs: &FragmentSet,
    oracle: &Oracle,
    model: Model,
    case: &CrashCase,
    rng: &mut SmallRng,
) -> Vec<CrashCase> {
    let pending = oracle.pending(model, case.point);
    let with = |edit: &mut dyn FnMut(&mut Vec<Survivor>)| {
        let mut c = case.clone();
        edit(&mut c.survivors);
        c
    };
    let mut out = Vec::new();
    for _ in 0..2.min(pending.len()) {
        let i = pending[rng.gen_index(pending.len())];
        out.push(with(&mut |s| match s.iter().position(|s| s.frag == i) {
            Some(k) => drop(s.remove(k)),
            None => {
                s.push(Survivor { frag: i, unit_mask: oracle.full_mask(i) });
                s.sort_unstable_by_key(|s| s.frag);
            }
        }));
    }
    if !case.survivors.is_empty() {
        let k = rng.gen_index(case.survivors.len());
        let full = oracle.full_mask(case.survivors[k].frag);
        let mask = [full >> 1, 1, full, full | (full << 1), 0][rng.gen_index(5)];
        out.push(with(&mut |s| s[k].unit_mask = mask));
        out.push(with(&mut |s| s.push(s[k])));
    }
    let outside: Vec<usize> = (0..fs.fragments().len()).filter(|i| !pending.contains(i)).collect();
    if !outside.is_empty() {
        let i = outside[rng.gen_index(outside.len())];
        out.push(with(&mut |s| s.push(Survivor { frag: i, unit_mask: 1 })));
    }
    out.push(with(&mut |s| s.push(Survivor { frag: fs.fragments().len(), unit_mask: 1 })));
    out.push(CrashCase { point: fs.events_len() + 1, survivors: vec![] });
    out
}

#[test]
fn indexed_sampler_matches_full_scan_oracle() {
    let units = [AtomicPersistSize::default(), AtomicPersistSize::new(1).unwrap()];
    let (mut points, mut nonempty) = (0u64, 0u64);
    for seed in 0..24u64 {
        let mut gen = SmallRng::seed_from_u64(0xD2A7 ^ seed);
        let events = random_events(&mut gen);
        let unit = units[seed as usize % units.len()];
        let fs = FragmentSet::from_events(&events, unit);
        check_durability(&events, &fs);
        let oracle = Oracle { fs: &fs };
        for model in Model::ALL {
            for torn in [false, true] {
                for point in 0..=fs.events_len() {
                    let pending = oracle.pending(model, point);
                    assert_eq!(fs.pending(model, point), pending, "seed {seed} {model} @{point}");
                    points += 1;
                    nonempty += !pending.is_empty() as u64;
                    let mut rng = SmallRng::seed_from_u64(seed << 32 ^ point as u64);
                    for draw in 0..3 {
                        let mut want_rng = rng.clone();
                        let case = fs.draw(model, point, &mut rng, torn);
                        let want = oracle.draw(model, point, &mut want_rng, torn);
                        let ctx = format!("seed {seed} {model} torn={torn} @{point}");
                        assert_eq!(case, want, "{ctx}");
                        assert_eq!(rng.clone().next_u64(), want_rng.next_u64(), "{ctx}: rng");

                        assert!(fs.is_legal(model, &case), "{ctx}: drawn {case:?}");
                        assert!(oracle.is_legal(model, &case), "{ctx}: oracle {case:?}");
                        for m in mutants(&fs, &oracle, model, &case, &mut want_rng) {
                            assert_eq!(
                                fs.is_legal(model, &m),
                                oracle.is_legal(model, &m),
                                "{ctx}: is_legal on {m:?}"
                            );
                        }
                        let dropped = oracle.dropped_lines(model, &case);
                        assert_eq!(fs.dropped_lines(model, &case), dropped, "{ctx}");

                        // Shrink against "the first dropped line stays
                        // dropped": both sides must walk the same path.
                        // (Sparser: a shrink probes every earlier point.)
                        if let (0, 0, Some(&line)) = (draw, point % 3, dropped.first()) {
                            let fails =
                                |c: &CrashCase| oracle.dropped_lines(model, c).contains(&line);
                            assert_eq!(
                                fs.shrink(model, &case, fails),
                                oracle.shrink(model, &case, fails),
                                "{ctx}: shrink"
                            );
                        }
                    }
                }
            }
        }
    }
    // The generator must actually exercise non-trivial windows.
    eprintln!("{nonempty} of {points} crash points with something pending");
    assert!(nonempty * 2 > points, "{nonempty} of {points} crash points with something pending");
}
