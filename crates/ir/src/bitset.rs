//! A dense fixed-capacity bit set used by the dataflow analyses.

use std::fmt;

/// A dense bit set over `0..len`.
///
/// This is the workhorse of liveness and other dataflow analyses; it stores
/// one bit per entity in a `Vec<u64>`.
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct DenseBitSet {
    words: Vec<u64>,
    len: usize,
}

impl DenseBitSet {
    /// Creates an empty set with capacity for `len` elements.
    pub fn new(len: usize) -> Self {
        DenseBitSet {
            words: vec![0; len.div_ceil(64)],
            len,
        }
    }

    /// Returns the capacity (number of addressable elements).
    pub fn capacity(&self) -> usize {
        self.len
    }

    /// Inserts `i`, returning `true` if it was newly inserted.
    ///
    /// # Panics
    ///
    /// Panics if `i >= capacity`.
    pub fn insert(&mut self, i: usize) -> bool {
        assert!(i < self.len, "bit index {i} out of range {}", self.len);
        let (w, b) = (i / 64, i % 64);
        let had = self.words[w] & (1 << b) != 0;
        self.words[w] |= 1 << b;
        !had
    }

    /// Removes `i`, returning `true` if it was present.
    pub fn remove(&mut self, i: usize) -> bool {
        assert!(i < self.len, "bit index {i} out of range {}", self.len);
        let (w, b) = (i / 64, i % 64);
        let had = self.words[w] & (1 << b) != 0;
        self.words[w] &= !(1 << b);
        had
    }

    /// Returns `true` if `i` is in the set.
    pub fn contains(&self, i: usize) -> bool {
        if i >= self.len {
            return false;
        }
        let (w, b) = (i / 64, i % 64);
        self.words[w] & (1 << b) != 0
    }

    /// Removes all elements.
    pub fn clear(&mut self) {
        self.words.fill(0);
    }

    /// Returns the number of elements in the set.
    pub fn count(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Returns `true` if the set is empty.
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// Unions `other` into `self`, returning `true` if `self` changed.
    ///
    /// # Panics
    ///
    /// Panics if the capacities differ.
    pub fn union_with(&mut self, other: &DenseBitSet) -> bool {
        assert_eq!(self.len, other.len, "bitset capacity mismatch");
        let mut changed = false;
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            let next = *a | b;
            changed |= next != *a;
            *a = next;
        }
        changed
    }

    /// Intersects `other` into `self`, returning `true` if `self` changed.
    pub fn intersect_with(&mut self, other: &DenseBitSet) -> bool {
        assert_eq!(self.len, other.len, "bitset capacity mismatch");
        let mut changed = false;
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            let next = *a & b;
            changed |= next != *a;
            *a = next;
        }
        changed
    }

    /// Removes all elements of `other` from `self`, returning `true` if
    /// `self` changed.
    pub fn subtract(&mut self, other: &DenseBitSet) -> bool {
        assert_eq!(self.len, other.len, "bitset capacity mismatch");
        let mut changed = false;
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            let next = *a & !b;
            changed |= next != *a;
            *a = next;
        }
        changed
    }

    /// Returns `true` if `self` and `other` share no elements.
    pub fn is_disjoint(&self, other: &DenseBitSet) -> bool {
        self.words.iter().zip(&other.words).all(|(a, b)| a & b == 0)
    }

    /// Returns `true` if every element of `self` is in `other`.
    pub fn is_subset(&self, other: &DenseBitSet) -> bool {
        assert_eq!(self.len, other.len, "bitset capacity mismatch");
        self.words
            .iter()
            .zip(&other.words)
            .all(|(a, b)| a & !b == 0)
    }

    /// Iterates over the elements in ascending order.
    pub fn iter(&self) -> Iter<'_> {
        Iter {
            set: self,
            word_idx: 0,
            word: self.words.first().copied().unwrap_or(0),
        }
    }

    /// Word-scanning iterator over the set bits, in ascending order.
    ///
    /// Identical to [`DenseBitSet::iter`]; the name makes call sites on
    /// hot paths self-documenting (the iterator skips zero words a word
    /// at a time instead of probing bit by bit).
    pub fn iter_ones(&self) -> Iter<'_> {
        self.iter()
    }

    /// The backing words, least-significant bit first. Bits at and above
    /// `capacity()` are zero.
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Overwrites `self` with the contents of `other` without
    /// reallocating.
    ///
    /// # Panics
    ///
    /// Panics if the capacities differ.
    pub fn copy_from(&mut self, other: &DenseBitSet) {
        assert_eq!(self.len, other.len, "bitset capacity mismatch");
        self.words.copy_from_slice(&other.words);
    }

    /// Overwrites `self` with `words` (a row of a [`BitMatrix`] of the
    /// same width, say) without reallocating.
    ///
    /// # Panics
    ///
    /// Panics if `words` has a different word count than `self`.
    pub fn copy_from_words(&mut self, words: &[u64]) {
        assert_eq!(self.words.len(), words.len(), "bitset width mismatch");
        self.words.copy_from_slice(words);
    }

    /// Sets `self` to `a ∩ b` in one pass, without reallocating.
    ///
    /// # Panics
    ///
    /// Panics if any capacity differs.
    pub fn set_to_intersection(&mut self, a: &DenseBitSet, b: &DenseBitSet) {
        assert_eq!(self.len, a.len, "bitset capacity mismatch");
        assert_eq!(self.len, b.len, "bitset capacity mismatch");
        for ((dst, x), y) in self.words.iter_mut().zip(&a.words).zip(&b.words) {
            *dst = x & y;
        }
    }
}

impl fmt::Debug for DenseBitSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_set().entries(self.iter()).finish()
    }
}

impl FromIterator<usize> for DenseBitSet {
    /// Collects indices into a set sized to fit the largest one.
    fn from_iter<I: IntoIterator<Item = usize>>(iter: I) -> Self {
        let items: Vec<usize> = iter.into_iter().collect();
        let cap = items.iter().max().map_or(0, |m| m + 1);
        let mut set = DenseBitSet::new(cap);
        for i in items {
            set.insert(i);
        }
        set
    }
}

impl Extend<usize> for DenseBitSet {
    fn extend<I: IntoIterator<Item = usize>>(&mut self, iter: I) {
        for i in iter {
            self.insert(i);
        }
    }
}

/// Iterator over the elements of a [`DenseBitSet`], in ascending order.
#[derive(Debug)]
pub struct Iter<'a> {
    set: &'a DenseBitSet,
    word_idx: usize,
    word: u64,
}

impl Iterator for Iter<'_> {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        loop {
            if self.word != 0 {
                let bit = self.word.trailing_zeros() as usize;
                self.word &= self.word - 1;
                return Some(self.word_idx * 64 + bit);
            }
            self.word_idx += 1;
            if self.word_idx >= self.set.words.len() {
                return None;
            }
            self.word = self.set.words[self.word_idx];
        }
    }
}

/// A dense 2-D bit matrix: `rows` rows of `cols` bits each, stored in one
/// contiguous word array (one allocation, row-major).
///
/// The interference graph and the coloring pass index it as adjacency;
/// row operations are word-parallel.
#[derive(Clone, PartialEq, Eq)]
pub struct BitMatrix {
    words: Vec<u64>,
    words_per_row: usize,
    rows: usize,
    cols: usize,
}

impl BitMatrix {
    /// Creates an all-zero matrix.
    pub fn new(rows: usize, cols: usize) -> Self {
        let words_per_row = cols.div_ceil(64);
        BitMatrix {
            words: vec![0; rows * words_per_row],
            words_per_row,
            rows,
            cols,
        }
    }

    /// Number of rows.
    pub fn num_rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn num_cols(&self) -> usize {
        self.cols
    }

    /// Sets bit `(r, c)`.
    pub fn set(&mut self, r: usize, c: usize) {
        debug_assert!(r < self.rows && c < self.cols);
        self.words[r * self.words_per_row + c / 64] |= 1 << (c % 64);
    }

    /// Clears bit `(r, c)`.
    pub fn unset(&mut self, r: usize, c: usize) {
        debug_assert!(r < self.rows && c < self.cols);
        self.words[r * self.words_per_row + c / 64] &= !(1 << (c % 64));
    }

    /// Returns bit `(r, c)`.
    pub fn contains(&self, r: usize, c: usize) -> bool {
        debug_assert!(r < self.rows && c < self.cols);
        self.words[r * self.words_per_row + c / 64] & (1 << (c % 64)) != 0
    }

    /// The words of row `r`.
    pub fn row_words(&self, r: usize) -> &[u64] {
        &self.words[r * self.words_per_row..(r + 1) * self.words_per_row]
    }

    /// ORs `src`'s words into row `r` (lengths must match).
    ///
    /// # Panics
    ///
    /// Panics if `src` has a different word count than a row.
    pub fn row_union_words(&mut self, r: usize, src: &[u64]) {
        let row = &mut self.words[r * self.words_per_row..(r + 1) * self.words_per_row];
        assert_eq!(row.len(), src.len(), "row width mismatch");
        for (a, b) in row.iter_mut().zip(src) {
            *a |= b;
        }
    }

    /// Row `r` as a borrowed, read-only bit set over the columns.
    pub fn row(&self, r: usize) -> BitRow<'_> {
        BitRow {
            words: self.row_words(r),
            len: self.cols,
        }
    }

    /// ORs row `src` of `other` into row `r` of `self`, returning `true`
    /// if row `r` changed.
    ///
    /// # Panics
    ///
    /// Panics if the row widths differ.
    pub fn row_union_row(&mut self, r: usize, other: &BitMatrix, src: usize) -> bool {
        assert_eq!(
            self.words_per_row, other.words_per_row,
            "row width mismatch"
        );
        let s = other.row_words(src);
        let d = &mut self.words[r * self.words_per_row..(r + 1) * self.words_per_row];
        let mut changed = false;
        for (a, b) in d.iter_mut().zip(s) {
            let next = *a | b;
            changed |= next != *a;
            *a = next;
        }
        changed
    }

    /// ORs `a[r] \ b[r]` into row `r` of `self` in one fused pass,
    /// returning `true` if it changed: the transfer function of backward
    /// liveness (`in |= out \ kill`) on one block's rows.
    ///
    /// # Panics
    ///
    /// Panics if the row widths differ.
    pub fn row_union_subtracted(&mut self, r: usize, a: &BitMatrix, b: &BitMatrix) -> bool {
        assert_eq!(self.words_per_row, a.words_per_row, "row width mismatch");
        assert_eq!(self.words_per_row, b.words_per_row, "row width mismatch");
        let d = &mut self.words[r * self.words_per_row..(r + 1) * self.words_per_row];
        let mut changed = false;
        for ((dst, x), y) in d.iter_mut().zip(a.row_words(r)).zip(b.row_words(r)) {
            let next = *dst | (x & !y);
            changed |= next != *dst;
            *dst = next;
        }
        changed
    }

    /// ORs row `src` into row `dst` of the same matrix (no-op when they
    /// are the same row).
    pub fn row_union_row_within(&mut self, dst: usize, src: usize) {
        if dst == src {
            return;
        }
        let wpr = self.words_per_row;
        let (d0, s0) = (dst * wpr, src * wpr);
        if d0 < s0 {
            let (a, b) = self.words.split_at_mut(s0);
            for (x, y) in a[d0..d0 + wpr].iter_mut().zip(&b[..wpr]) {
                *x |= *y;
            }
        } else {
            let (a, b) = self.words.split_at_mut(d0);
            for (x, y) in b[..wpr].iter_mut().zip(&a[s0..s0 + wpr]) {
                *x |= *y;
            }
        }
    }

    /// Number of set bits in row `r`.
    pub fn row_count(&self, r: usize) -> usize {
        self.row_words(r)
            .iter()
            .map(|w| w.count_ones() as usize)
            .sum()
    }

    /// Iterates the set columns of row `r` in ascending order.
    pub fn row_iter(&self, r: usize) -> impl Iterator<Item = usize> + '_ {
        self.row(r).iter()
    }

    /// Clears row `r`.
    pub fn row_clear(&mut self, r: usize) {
        self.words[r * self.words_per_row..(r + 1) * self.words_per_row].fill(0);
    }
}

impl fmt::Debug for BitMatrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut d = f.debug_map();
        for r in 0..self.rows {
            d.entry(&r, &self.row_iter(r).collect::<Vec<_>>());
        }
        d.finish()
    }
}

/// One row of a [`BitMatrix`], borrowed: a read-only bit set over the
/// matrix's columns. Two rows are equal when they hold the same columns.
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct BitRow<'a> {
    words: &'a [u64],
    len: usize,
}

impl<'a> BitRow<'a> {
    /// Returns `true` if column `i` is set (`false` past the row's end).
    pub fn contains(&self, i: usize) -> bool {
        i < self.len && self.words[i / 64] & (1 << (i % 64)) != 0
    }

    /// The row's words, least-significant bit first. Bits at and above
    /// the column count are zero.
    pub fn words(&self) -> &'a [u64] {
        self.words
    }

    /// Iterates the set columns in ascending order.
    pub fn iter(&self) -> impl Iterator<Item = usize> + 'a {
        RowIter {
            words: self.words,
            word_idx: 0,
            word: self.words.first().copied().unwrap_or(0),
        }
    }
}

impl fmt::Debug for BitRow<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_set().entries(self.iter()).finish()
    }
}

/// Iterator over the set columns of one [`BitMatrix`] row.
#[derive(Debug)]
struct RowIter<'a> {
    words: &'a [u64],
    word_idx: usize,
    word: u64,
}

impl Iterator for RowIter<'_> {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        loop {
            if self.word != 0 {
                let bit = self.word.trailing_zeros() as usize;
                self.word &= self.word - 1;
                return Some(self.word_idx * 64 + bit);
            }
            self.word_idx += 1;
            if self.word_idx >= self.words.len() {
                return None;
            }
            self.word = self.words[self.word_idx];
        }
    }
}

/// A union-find (disjoint set) structure over dense indices.
///
/// Used for save/restore web grouping and coalescing.
#[derive(Clone, Debug)]
pub struct UnionFind {
    parent: Vec<u32>,
    rank: Vec<u8>,
}

impl UnionFind {
    /// Creates `n` singleton sets.
    pub fn new(n: usize) -> Self {
        UnionFind {
            parent: (0..n as u32).collect(),
            rank: vec![0; n],
        }
    }

    /// Returns the number of elements.
    pub fn len(&self) -> usize {
        self.parent.len()
    }

    /// Returns `true` if the structure has no elements.
    pub fn is_empty(&self) -> bool {
        self.parent.is_empty()
    }

    /// Finds the representative of `x`'s set (with path compression).
    pub fn find(&mut self, x: usize) -> usize {
        let mut root = x;
        while self.parent[root] as usize != root {
            root = self.parent[root] as usize;
        }
        let mut cur = x;
        while self.parent[cur] as usize != cur {
            let next = self.parent[cur] as usize;
            self.parent[cur] = root as u32;
            cur = next;
        }
        root
    }

    /// Merges the sets of `a` and `b`, returning `true` if they were
    /// previously distinct.
    pub fn union(&mut self, a: usize, b: usize) -> bool {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra == rb {
            return false;
        }
        match self.rank[ra].cmp(&self.rank[rb]) {
            std::cmp::Ordering::Less => self.parent[ra] = rb as u32,
            std::cmp::Ordering::Greater => self.parent[rb] = ra as u32,
            std::cmp::Ordering::Equal => {
                self.parent[rb] = ra as u32;
                self.rank[ra] += 1;
            }
        }
        true
    }

    /// Returns `true` if `a` and `b` are in the same set.
    pub fn same_set(&mut self, a: usize, b: usize) -> bool {
        self.find(a) == self.find(b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_contains_remove() {
        let mut s = DenseBitSet::new(130);
        assert!(s.insert(0));
        assert!(s.insert(64));
        assert!(s.insert(129));
        assert!(!s.insert(64));
        assert!(s.contains(0) && s.contains(64) && s.contains(129));
        assert!(!s.contains(1));
        assert_eq!(s.count(), 3);
        assert!(s.remove(64));
        assert!(!s.remove(64));
        assert_eq!(s.count(), 2);
    }

    #[test]
    fn iter_ascending() {
        let mut s = DenseBitSet::new(200);
        for i in [3, 199, 64, 65, 0] {
            s.insert(i);
        }
        let got: Vec<usize> = s.iter().collect();
        assert_eq!(got, vec![0, 3, 64, 65, 199]);
    }

    #[test]
    fn union_intersect_subtract() {
        let mut a = DenseBitSet::new(100);
        let mut b = DenseBitSet::new(100);
        a.extend([1, 2, 3]);
        b.extend([3, 4]);
        let mut u = a.clone();
        assert!(u.union_with(&b));
        assert_eq!(u.iter().collect::<Vec<_>>(), vec![1, 2, 3, 4]);
        assert!(!u.union_with(&b));

        let mut i = a.clone();
        assert!(i.intersect_with(&b));
        assert_eq!(i.iter().collect::<Vec<_>>(), vec![3]);

        let mut d = a.clone();
        assert!(d.subtract(&b));
        assert_eq!(d.iter().collect::<Vec<_>>(), vec![1, 2]);
        assert!(i.is_subset(&a));
        assert!(!a.is_subset(&i));
    }

    #[test]
    fn disjoint() {
        let mut a = DenseBitSet::new(10);
        let mut b = DenseBitSet::new(10);
        a.insert(1);
        b.insert(2);
        assert!(a.is_disjoint(&b));
        b.insert(1);
        assert!(!a.is_disjoint(&b));
    }

    #[test]
    fn from_iterator() {
        let s: DenseBitSet = [5usize, 9, 2].into_iter().collect();
        assert!(s.contains(5) && s.contains(9) && s.contains(2));
        assert_eq!(s.capacity(), 10);
    }

    #[test]
    fn empty_set_behaviour() {
        let s = DenseBitSet::new(0);
        assert!(s.is_empty());
        assert_eq!(s.iter().count(), 0);
        assert!(!s.contains(3));
    }

    #[test]
    fn word_ops() {
        let mut a = DenseBitSet::new(130);
        a.extend([0, 64, 129]);
        assert_eq!(a.words().len(), 3);
        assert_eq!(a.words()[0], 1);
        assert_eq!(a.words()[1], 1);
        let ones: Vec<usize> = a.iter_ones().collect();
        assert_eq!(ones, vec![0, 64, 129]);

        let mut b = DenseBitSet::new(130);
        b.extend([64, 65]);
        let mut dst = DenseBitSet::new(130);
        dst.set_to_intersection(&a, &b);
        assert_eq!(dst.iter().collect::<Vec<_>>(), vec![64]);
        dst.copy_from(&a);
        assert_eq!(dst, a);
    }

    #[test]
    fn bit_matrix_rows() {
        let mut m = BitMatrix::new(3, 130);
        m.set(0, 0);
        m.set(0, 129);
        m.set(1, 64);
        assert!(m.contains(0, 0) && m.contains(0, 129) && m.contains(1, 64));
        assert!(!m.contains(2, 0));
        assert_eq!(m.row_count(0), 2);
        assert_eq!(m.row_iter(0).collect::<Vec<_>>(), vec![0, 129]);
        assert!(m.row_union_row(2, &m.clone(), 0));
        assert!(!m.row_union_row(2, &m.clone(), 0));
        assert_eq!(m.row_iter(2).collect::<Vec<_>>(), vec![0, 129]);
        assert_eq!(m.row(2), m.row(0));
        assert!(m.row(0).contains(129) && !m.row(0).contains(130));
        assert_eq!(m.row(0).iter().collect::<Vec<_>>(), vec![0, 129]);
        let mut kill = BitMatrix::new(3, 130);
        kill.set(1, 0);
        let mut live = BitMatrix::new(3, 130);
        assert!(live.row_union_subtracted(1, &m, &kill));
        assert!(live.row(1).iter().eq([64]));
        assert!(!live.row_union_subtracted(1, &m, &kill));
        let mut set = DenseBitSet::new(130);
        set.copy_from_words(m.row_words(0));
        assert_eq!(set.words(), m.row(0).words());
        let words: Vec<u64> = m.row_words(1).to_vec();
        m.row_union_words(2, &words);
        assert_eq!(m.row_iter(2).collect::<Vec<_>>(), vec![0, 64, 129]);
        m.unset(2, 64);
        assert!(!m.contains(2, 64));
        m.row_clear(2);
        assert_eq!(m.row_count(2), 0);
        assert_eq!((m.num_rows(), m.num_cols()), (3, 130));
    }

    #[test]
    fn union_find_basics() {
        let mut uf = UnionFind::new(6);
        assert!(uf.union(0, 1));
        assert!(uf.union(2, 3));
        assert!(!uf.union(1, 0));
        assert!(uf.same_set(0, 1));
        assert!(!uf.same_set(1, 2));
        uf.union(1, 3);
        assert!(uf.same_set(0, 2));
        assert!(!uf.same_set(4, 5));
        assert_eq!(uf.len(), 6);
    }
}
