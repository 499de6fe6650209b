//! A copy-on-write vector of fixed-size shared chunks.
//!
//! MVCC snapshot publication (`igc_engine`) shares a view's storage with
//! every pinned version and copies before the next mutation. With a plain
//! `Vec<Vec<_>>` that copy is the whole structure — O(|G|) on a commit whose
//! own work is bounded by |CHANGED|. [`ChunkedVec`] splits the vector into
//! chunks of a small fixed size, each behind its own [`Arc`]: cloning
//! copies one pointer per chunk, and a mutation copies only the chunk it
//! touches, and only while a clone still shares it (`Arc::make_mut`). A
//! version that was never cloned mutates in place.

use std::ops::{Index, IndexMut};
use std::sync::Arc;

/// Elements per chunk. Small enough that a pinned commit copies little
/// beyond what it touches; large enough that the chunk table stays a
/// cache-resident fraction of the data.
const CHUNK: usize = 16;

/// A growable vector whose elements live in shared fixed-size chunks; see
/// the module docs. Slots past `len` in the last chunk hold `T::default()`,
/// so growing never has to rebuild a chunk.
#[derive(Clone)]
pub struct ChunkedVec<T> {
    chunks: Vec<Arc<[T; CHUNK]>>,
    len: usize,
}

impl<T> Default for ChunkedVec<T> {
    fn default() -> Self {
        ChunkedVec {
            chunks: Vec::new(),
            len: 0,
        }
    }
}

impl<T> ChunkedVec<T> {
    /// An empty vector with chunk-table room for `n` elements.
    pub fn with_capacity(n: usize) -> Self {
        ChunkedVec {
            chunks: Vec::with_capacity(n.div_ceil(CHUNK)),
            len: 0,
        }
    }

    /// Number of elements.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when there are no elements.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Iterate the elements in order.
    pub fn iter(&self) -> impl Iterator<Item = &T> + '_ {
        self.chunks.iter().flat_map(|c| c.iter()).take(self.len)
    }
}

impl<T: Clone + Default> ChunkedVec<T> {
    /// `n` copies of `value`.
    pub fn from_elem(value: T, n: usize) -> Self {
        let mut v = Self::with_capacity(n);
        v.resize(n, value);
        v
    }

    /// Append `value`.
    pub fn push(&mut self, value: T) {
        if self.len == self.chunks.len() * CHUNK {
            self.chunks
                .push(Arc::new(std::array::from_fn(|_| T::default())));
        }
        self.len += 1;
        *self.get_mut(self.len - 1).expect("slot just reserved") = value;
    }

    /// Grow to `n` elements, filling with clones of `value`, or shrink to
    /// `n` (like [`Vec::resize`]).
    pub fn resize(&mut self, n: usize, value: T) {
        while self.len > n {
            self.len -= 1;
            if self.len.is_multiple_of(CHUNK) {
                self.chunks.pop();
            } else {
                *self.slot_mut(self.len) = T::default();
            }
        }
        while self.len < n {
            self.push(value.clone());
        }
    }

    /// Unique mutable access to element `i`, first copying its chunk if a
    /// clone still shares it; `None` when `i` is out of bounds.
    #[inline]
    pub fn get_mut(&mut self, i: usize) -> Option<&mut T> {
        (i < self.len).then(|| self.slot_mut(i))
    }

    #[inline]
    fn slot_mut(&mut self, i: usize) -> &mut T {
        &mut Arc::make_mut(&mut self.chunks[i / CHUNK])[i % CHUNK]
    }
}

impl<T> Index<usize> for ChunkedVec<T> {
    type Output = T;

    #[inline]
    fn index(&self, i: usize) -> &T {
        assert!(i < self.len, "index {i} out of bounds (len {})", self.len);
        &self.chunks[i / CHUNK][i % CHUNK]
    }
}

impl<T: Clone + Default> IndexMut<usize> for ChunkedVec<T> {
    #[inline]
    fn index_mut(&mut self, i: usize) -> &mut T {
        let len = self.len;
        self.get_mut(i)
            .unwrap_or_else(|| panic!("index {i} out of bounds (len {len})"))
    }
}

impl<T: std::fmt::Debug> std::fmt::Debug for ChunkedVec<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn numbered(n: usize) -> ChunkedVec<Vec<u32>> {
        let mut v = ChunkedVec::default();
        for i in 0..n {
            v.push(vec![i as u32]);
        }
        v
    }

    #[test]
    fn clone_and_original_are_independent_both_ways() {
        let mut a = numbered(40);
        let mut b = a.clone();
        b[3].push(99);
        assert_eq!(a[3], vec![3], "mutating the clone left the original alone");
        assert_eq!(b[3], vec![3, 99]);
        a[35].clear();
        assert_eq!(
            b[35],
            vec![35],
            "mutating the original left the clone alone"
        );
        assert!(a[35].is_empty());
        b.push(vec![7]);
        assert_eq!((a.len(), b.len()), (40, 41));
    }

    #[test]
    fn one_element_mutation_copies_only_its_chunk() {
        let a = numbered(3 * CHUNK + 5);
        let mut b = a.clone();
        b[CHUNK + 2].push(1);
        let shared: Vec<bool> = a
            .chunks
            .iter()
            .zip(&b.chunks)
            .map(|(x, y)| Arc::ptr_eq(x, y))
            .collect();
        assert_eq!(shared, vec![true, false, true, true]);
        // An unshared chunk mutates in place.
        let before = Arc::as_ptr(&b.chunks[1]);
        b[CHUNK].push(2);
        assert_eq!(Arc::as_ptr(&b.chunks[1]), before);
    }

    #[test]
    fn push_and_resize_cross_chunk_boundaries() {
        let mut v = numbered(CHUNK - 1);
        v.push(vec![100]);
        v.push(vec![101]);
        assert_eq!(v.len(), CHUNK + 1);
        assert_eq!(v[CHUNK - 1], vec![100]);
        assert_eq!(v[CHUNK], vec![101]);
        v.resize(3 * CHUNK + 1, vec![7]);
        assert_eq!(v.len(), 3 * CHUNK + 1);
        assert_eq!(v[3 * CHUNK], vec![7]);
        assert_eq!(v.iter().count(), 3 * CHUNK + 1);
        v.resize(CHUNK - 2, Vec::new());
        assert_eq!(v.len(), CHUNK - 2);
        assert_eq!(v.iter().last(), Some(&vec![CHUNK as u32 - 3]));
        // Slots freed by the shrink come back as fresh values.
        v.push(vec![5]);
        assert_eq!(v[CHUNK - 2], vec![5]);
        let f = ChunkedVec::from_elem(1u8, 2 * CHUNK + 3);
        assert!(f.iter().all(|&x| x == 1));
        assert_eq!(f.iter().count(), 2 * CHUNK + 3);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn index_past_len_panics_inside_a_chunk() {
        let v = numbered(3);
        let _ = &v[5];
    }
}
