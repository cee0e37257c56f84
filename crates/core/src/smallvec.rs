//! A small-buffer vector for the DAG engine's per-node storage.
//!
//! [`PersistDag`](crate::dag::PersistDag) nodes carry two tiny lists
//! (writes, provenance) that are almost always one element long; storing
//! them as `Vec`s made every node cost two heap allocations. [`SmallVec`]
//! keeps up to `N` elements inline and spills to a `Vec` only beyond that,
//! while dereferencing to `&[T]` so existing slice-style consumers
//! (indexing, `iter`, `len`, equality against `Vec`) keep working
//! unchanged. Dependences are not among them: a node's list is as long as
//! its input's frontier (29 entries on a wide epoch), so every list
//! spilled; they live in one pool the DAG owns, where an epoch's persists
//! share one run ([`PersistDag::deps`](crate::dag::PersistDag::deps)).

use core::fmt;
use core::ops::Deref;

/// A `Copy`-element vector with `N` elements of inline storage.
///
/// The empty state is a non-allocated `Vec`, so `SmallVec::new()` and
/// building from an empty slice are allocation-free too.
#[derive(Clone)]
pub enum SmallVec<T: Copy, const N: usize> {
    /// Up to `N` elements stored inline; slots at `len..` repeat the first
    /// element (they are never read).
    Inline {
        /// Number of live elements in `buf`.
        len: u8,
        /// Inline storage.
        buf: [T; N],
    },
    /// Spilled storage for more than `N` elements (or none).
    Heap(Vec<T>),
}

impl<T: Copy, const N: usize> SmallVec<T, N> {
    /// An empty list. Does not allocate.
    pub fn new() -> Self {
        SmallVec::Heap(Vec::new())
    }

    /// A one-element list, stored inline.
    pub fn one(v: T) -> Self {
        SmallVec::Inline { len: 1, buf: [v; N] }
    }

    /// Builds from a slice; inline iff `1 <= s.len() <= N`.
    pub fn from_slice(s: &[T]) -> Self {
        match s.first() {
            Some(&first) if s.len() <= N => {
                let mut buf = [first; N];
                buf[..s.len()].copy_from_slice(s);
                SmallVec::Inline { len: s.len() as u8, buf }
            }
            Some(_) => SmallVec::Heap(s.to_vec()),
            None => SmallVec::Heap(Vec::new()),
        }
    }

    /// Appends `v`, spilling to the heap when the inline buffer is full.
    pub fn push(&mut self, v: T) {
        match self {
            SmallVec::Inline { len, buf } => {
                if (*len as usize) < N {
                    buf[*len as usize] = v;
                    *len += 1;
                } else {
                    let mut heap = Vec::with_capacity(N + 1);
                    heap.extend_from_slice(&buf[..]);
                    heap.push(v);
                    *self = SmallVec::Heap(heap);
                }
            }
            SmallVec::Heap(heap) => heap.push(v),
        }
    }

    /// The live elements as a slice.
    pub fn as_slice(&self) -> &[T] {
        match self {
            SmallVec::Inline { len, buf } => &buf[..*len as usize],
            SmallVec::Heap(heap) => heap,
        }
    }
}

impl<T: Copy, const N: usize> Default for SmallVec<T, N> {
    fn default() -> Self {
        SmallVec::new()
    }
}

impl<T: Copy, const N: usize> Deref for SmallVec<T, N> {
    type Target = [T];

    fn deref(&self) -> &[T] {
        self.as_slice()
    }
}

impl<'a, T: Copy, const N: usize> IntoIterator for &'a SmallVec<T, N> {
    type Item = &'a T;
    type IntoIter = core::slice::Iter<'a, T>;

    fn into_iter(self) -> Self::IntoIter {
        self.as_slice().iter()
    }
}

impl<T: Copy + fmt::Debug, const N: usize> fmt::Debug for SmallVec<T, N> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.as_slice().fmt(f)
    }
}

impl<T: Copy + PartialEq, const N: usize> PartialEq for SmallVec<T, N> {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl<T: Copy + Eq, const N: usize> Eq for SmallVec<T, N> {}

impl<T: Copy + PartialEq, const N: usize> PartialEq<Vec<T>> for SmallVec<T, N> {
    fn eq(&self, other: &Vec<T>) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl<T: Copy + PartialEq, const N: usize> PartialEq<[T]> for SmallVec<T, N> {
    fn eq(&self, other: &[T]) -> bool {
        self.as_slice() == other
    }
}

impl<T: Copy + PartialEq, const N: usize, const M: usize> PartialEq<[T; M]> for SmallVec<T, N> {
    fn eq(&self, other: &[T; M]) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl<T: Copy, const N: usize> FromIterator<T> for SmallVec<T, N> {
    fn from_iter<I: IntoIterator<Item = T>>(iter: I) -> Self {
        let mut sv = SmallVec::new();
        let mut it = iter.into_iter();
        // Fill inline first without allocating.
        if let Some(first) = it.next() {
            let mut inline = SmallVec::one(first);
            for v in it {
                inline.push(v);
            }
            sv = inline;
        }
        sv
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inline_then_spill() {
        let mut sv: SmallVec<u32, 2> = SmallVec::one(1);
        assert_eq!(sv, vec![1]);
        sv.push(2);
        assert!(matches!(sv, SmallVec::Inline { .. }));
        sv.push(3);
        assert!(matches!(sv, SmallVec::Heap(_)));
        assert_eq!(sv, vec![1, 2, 3]);
        assert_eq!(sv.len(), 3);
        assert_eq!(sv[0], 1);
    }

    #[test]
    fn from_slice_round_trips() {
        for n in 0..6usize {
            let v: Vec<u32> = (0..n as u32).collect();
            let sv: SmallVec<u32, 3> = SmallVec::from_slice(&v);
            assert_eq!(sv, v);
        }
    }

    #[test]
    fn empty_is_heap_without_alloc() {
        let sv: SmallVec<u32, 4> = SmallVec::new();
        assert!(sv.is_empty());
        assert_eq!(sv.iter().count(), 0);
    }
}
