//! Paged per-block state for the persist engine.
//!
//! Traces touch persistent memory in long runs of consecutive blocks (a
//! log or queue advancing through its region), so the engine keeps its
//! per-block state the way the capture substrate keeps its words: flat
//! pages of consecutive block ids reached by index arithmetic, with a
//! hash-map spill for the rare blocks past a dense range.

use persist_mem::FxHashMap;

/// Blocks per page, as a shift.
const PAGE_BITS: u32 = 6;

/// Blocks per page.
pub(crate) const PAGE_BLOCKS: u64 = 1 << PAGE_BITS;

/// Block indices below this live in pages; the rest spill. Bounds each
/// space's page table to `DENSE_BLOCKS / PAGE_BLOCKS` entries (2 MiB).
pub(crate) const DENSE_BLOCKS: u64 = 1 << 24;

/// The space bit of a [`BlockId::to_bits`](persist_mem::BlockId::to_bits)
/// key.
const SPACE_BIT: u64 = 1 << 63;

type Page<V> = Box<[V; PAGE_BLOCKS as usize]>;

/// A map from block keys ([`BlockId::to_bits`](persist_mem::BlockId::to_bits))
/// to per-block values.
///
/// Each address space, chosen by the key's top bit, has a direct page
/// table indexed by `index >> PAGE_BITS`; a page holds 64 consecutive
/// blocks, created on the first [`slot`](BlockTable::slot) into it with
/// every block at the caller's fill value. Block indices from
/// [`DENSE_BLOCKS`] up live in an `FxHashMap` spill instead.
///
/// **Memory bound.** The worst case is one touched block per page: each
/// page costs `64 × size_of::<V>()` bytes, plus 8 bytes of page table for
/// every page index below the highest one touched. The dense cap bounds
/// each page table to 2 MiB; past it a block costs one spill entry.
///
/// [`reset`](BlockTable::reset) refills only the pages the last run
/// touched and keeps them for the next, so a reused table allocates
/// nothing for a run no larger than its last.
#[derive(Debug)]
pub(crate) struct BlockTable<V> {
    /// Page table per space.
    pages: [Vec<Option<Page<V>>>; 2],
    /// `(space, page)` of every page this run created.
    live: Vec<(usize, usize)>,
    /// Refilled pages of earlier runs.
    pool: Vec<Page<V>>,
    /// Blocks at or past [`DENSE_BLOCKS`].
    spill: FxHashMap<u64, V>,
}

/// The space and block index of `key`.
#[inline]
fn split(key: u64) -> (usize, u64) {
    ((key >> 63) as usize, key & !SPACE_BIT)
}

impl<V> BlockTable<V> {
    pub(crate) fn new() -> Self {
        BlockTable {
            pages: [Vec::new(), Vec::new()],
            live: Vec::new(),
            pool: Vec::new(),
            spill: FxHashMap::default(),
        }
    }

    /// The value of block `key`, creating it (and its page) from `fill`
    /// if the block is new.
    #[inline]
    pub(crate) fn slot(&mut self, key: u64, fill: impl Fn() -> V) -> &mut V {
        let (space, index) = split(key);
        if index >= DENSE_BLOCKS {
            return self.spill.entry(key).or_insert_with(fill);
        }
        let page = (index >> PAGE_BITS) as usize;
        let BlockTable { pages, live, pool, .. } = self;
        let table = &mut pages[space];
        if page >= table.len() {
            table.resize_with(page + 1, || None);
        }
        let p = table[page].get_or_insert_with(|| {
            live.push((space, page));
            pool.pop().unwrap_or_else(|| new_page(&fill))
        });
        &mut p[(index & (PAGE_BLOCKS - 1)) as usize]
    }

    /// The value of block `key`, or `None` if its page (or spill entry)
    /// does not exist. Never allocates: a block of an existing page reads
    /// as its fill value.
    #[inline]
    pub(crate) fn get(&self, key: u64) -> Option<&V> {
        let (space, index) = split(key);
        if index >= DENSE_BLOCKS {
            return self.spill.get(&key);
        }
        let page = self.pages[space].get((index >> PAGE_BITS) as usize)?.as_ref()?;
        Some(&page[(index & (PAGE_BLOCKS - 1)) as usize])
    }

    /// [`get`](BlockTable::get), mutably. Never allocates.
    #[inline]
    pub(crate) fn get_mut(&mut self, key: u64) -> Option<&mut V> {
        let (space, index) = split(key);
        if index >= DENSE_BLOCKS {
            return self.spill.get_mut(&key);
        }
        let page = self.pages[space].get_mut((index >> PAGE_BITS) as usize)?.as_mut()?;
        Some(&mut page[(index & (PAGE_BLOCKS - 1)) as usize])
    }

    /// Empties the table: every page the last run created is refilled
    /// from `fill` and pooled for the next, and the spill is cleared.
    pub(crate) fn reset(&mut self, fill: impl Fn() -> V) {
        for (space, page) in self.live.drain(..) {
            let mut p = self.pages[space][page].take().expect("a live page is in its table");
            p.fill_with(&fill);
            self.pool.push(p);
        }
        self.spill.clear();
    }

    /// Pages created since the last reset.
    pub(crate) fn pages(&self) -> usize {
        self.live.len()
    }

    /// Blocks held in the spill.
    pub(crate) fn spilled(&self) -> usize {
        self.spill.len()
    }
}

/// A fresh page with every block at `fill()`.
#[cold]
fn new_page<V>(fill: &impl Fn() -> V) -> Page<V> {
    let blocks: Box<[V]> = (0..PAGE_BLOCKS).map(|_| fill()).collect();
    blocks.try_into().unwrap_or_else(|_| unreachable!("a page holds PAGE_BLOCKS blocks"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    /// One step against the table and its model.
    #[derive(Debug, Clone, Copy)]
    enum Step {
        /// `*slot(key) = value`.
        Set(u64, u32),
        /// `get(key)` reads the model's value, or bottom.
        Get(u64),
        /// `get_mut(key)`, if the block's page exists, back to bottom.
        Clear(u64),
        /// A new run on the same table.
        Reset,
    }

    const BOTTOM: u32 = 7;

    /// Keys near the interesting places: both sides of the first page
    /// boundaries and of the dense cap, and far past it, in both spaces.
    fn key() -> impl Strategy<Value = u64> {
        let near = |base: u64| (0u64..8).prop_map(move |d| base - 4 + d);
        let index = prop_oneof![
            3 => near(PAGE_BLOCKS),
            2 => near(2 * PAGE_BLOCKS),
            2 => near(DENSE_BLOCKS),
            1 => (0u64..4).prop_map(|d| DENSE_BLOCKS * 1024 + d),
            1 => 0u64..4 * PAGE_BLOCKS,
        ];
        (index, any::<bool>()).prop_map(|(i, p)| if p { i | SPACE_BIT } else { i })
    }

    fn step() -> impl Strategy<Value = Step> {
        prop_oneof![
            4 => (key(), any::<u32>()).prop_map(|(k, v)| Step::Set(k, v)),
            4 => key().prop_map(Step::Get),
            2 => key().prop_map(Step::Clear),
            1 => Just(Step::Reset),
        ]
    }

    /// The page key `key`'s slot lives on, or `None` in the spill.
    fn page_of(key: u64) -> Option<(u64, u64)> {
        let (space, index) = split(key);
        (index < DENSE_BLOCKS).then_some((space as u64, index >> PAGE_BITS))
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

        /// The table reads like a map whose absent blocks are bottom, with
        /// `get` answering `None` exactly where no page or spill entry
        /// exists; recycled pages read as bottom.
        #[test]
        fn block_table_matches_btreemap(steps in prop::collection::vec(step(), 1..200)) {
            let mut table: BlockTable<u32> = BlockTable::new();
            let mut model: BTreeMap<u64, u32> = BTreeMap::new();
            let mut spilled: BTreeMap<u64, ()> = BTreeMap::new();
            let mut pages: BTreeMap<(u64, u64), ()> = BTreeMap::new();
            for s in steps {
                match s {
                    Step::Set(k, v) => {
                        *table.slot(k, || BOTTOM) = v;
                        model.insert(k, v);
                        match page_of(k) {
                            Some(p) => { pages.insert(p, ()); }
                            None => { spilled.insert(k, ()); }
                        }
                    }
                    Step::Get(k) => {
                        let exists = match page_of(k) {
                            Some(p) => pages.contains_key(&p),
                            None => spilled.contains_key(&k),
                        };
                        let want = exists.then(|| model.get(&k).copied().unwrap_or(BOTTOM));
                        prop_assert_eq!(table.get(k).copied(), want, "get {:#x}", k);
                    }
                    Step::Clear(k) => {
                        if let Some(v) = table.get_mut(k) {
                            *v = BOTTOM;
                            model.remove(&k);
                        }
                    }
                    Step::Reset => {
                        table.reset(|| BOTTOM);
                        model.clear();
                        spilled.clear();
                        pages.clear();
                    }
                }
                prop_assert_eq!(table.pages(), pages.len());
                prop_assert_eq!(table.spilled(), spilled.len());
            }
        }
    }

    #[test]
    fn reset_recycles_pages_as_bottom() {
        let mut table: BlockTable<u32> = BlockTable::new();
        for i in 0..3 * PAGE_BLOCKS {
            *table.slot(i, || BOTTOM) = i as u32 + 100;
        }
        assert_eq!(table.pages(), 3);
        table.reset(|| BOTTOM);
        assert_eq!((table.pages(), table.pool.len()), (0, 3));
        assert_eq!(table.get(5), None);
        // A recycled page comes back refilled, in either space.
        assert_eq!(*table.slot(SPACE_BIT | 70, || BOTTOM), BOTTOM);
        assert_eq!(table.get(SPACE_BIT | 64), Some(&BOTTOM));
        assert_eq!((table.pages(), table.pool.len()), (1, 2));
    }
}
