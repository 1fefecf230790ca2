//! Sorted-index sparse vectors.
//!
//! [`SparseVec`] is the feature representation for the hashed-n-gram text
//! models: indices are `u32` (feature-hash buckets), values `f64`. The
//! invariant is *strictly increasing indices* — construction from
//! arbitrary `(index, value)` pairs sorts and merges duplicates by
//! summation (the natural semantics for bag-of-features counts).

/// A sparse `f64` vector with strictly increasing `u32` indices.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct SparseVec {
    idx: Vec<u32>,
    val: Vec<f64>,
}

impl SparseVec {
    /// The empty sparse vector.
    pub fn new() -> Self {
        SparseVec::default()
    }

    /// Build from unsorted `(index, value)` pairs; duplicate indices are
    /// merged by summing their values, and exact zeros are dropped.
    /// A wrapper over [`Self::assign_from_pairs`].
    pub fn from_pairs(mut pairs: Vec<(u32, f64)>) -> Self {
        let mut out = SparseVec {
            idx: Vec::with_capacity(pairs.len()),
            val: Vec::with_capacity(pairs.len()),
        };
        out.assign_from_pairs(&mut pairs);
        out
    }

    /// [`Self::from_pairs`] into `self`, reusing both internal buffers:
    /// the reset-and-reuse form for hot paths that hash features per
    /// request. `pairs` is the caller's scratch (sorted in place); after
    /// the warm-up request neither side touches the allocator.
    pub fn assign_from_pairs(&mut self, pairs: &mut [(u32, f64)]) {
        pairs.sort_unstable_by_key(|&(i, _)| i);
        self.idx.clear();
        self.val.clear();
        for &(i, v) in pairs.iter() {
            if let Some(&last) = self.idx.last() {
                if last == i {
                    *self.val.last_mut().expect("val tracks idx") += v;
                    continue;
                }
            }
            self.idx.push(i);
            self.val.push(v);
        }
        // Compact away entries that merged to exactly zero.
        let mut w = 0usize;
        for r in 0..self.idx.len() {
            if self.val[r] != 0.0 {
                self.idx[w] = self.idx[r];
                self.val[w] = self.val[r];
                w += 1;
            }
        }
        self.idx.truncate(w);
        self.val.truncate(w);
    }

    /// Number of stored (non-zero) entries.
    #[inline]
    pub fn nnz(&self) -> usize {
        self.idx.len()
    }

    /// Heap footprint of the index/value buffers (capacity, not
    /// length). Capacity is monotone under the reuse methods
    /// ([`Self::assign_from_pairs`]), so for a scratch vector this is
    /// its high-water mark — what the serving layer's scratch-bytes
    /// gauges report.
    #[inline]
    pub fn capacity_bytes(&self) -> usize {
        self.idx.capacity() * std::mem::size_of::<u32>()
            + self.val.capacity() * std::mem::size_of::<f64>()
    }

    /// True if no entries are stored.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.idx.is_empty()
    }

    /// Iterate `(index, value)` pairs in increasing index order.
    pub fn iter(&self) -> impl Iterator<Item = (u32, f64)> + '_ {
        self.idx.iter().copied().zip(self.val.iter().copied())
    }

    /// The stored indices (strictly increasing).
    #[inline]
    pub fn indices(&self) -> &[u32] {
        &self.idx
    }

    /// The stored values, parallel to [`Self::indices`].
    #[inline]
    pub fn values(&self) -> &[f64] {
        &self.val
    }

    /// Dot product against a dense weight slice.
    ///
    /// Panics if any stored index is out of bounds for `dense` — feature
    /// vectors must be hashed into the model's bucket count.
    pub fn dot_dense(&self, dense: &[f64]) -> f64 {
        let mut s = 0.0;
        for (i, v) in self.iter() {
            s += dense[i as usize] * v;
        }
        s
    }

    /// `dense ← dense + alpha * self` (scatter-add).
    pub fn axpy_into_dense(&self, alpha: f64, dense: &mut [f64]) {
        for (i, v) in self.iter() {
            dense[i as usize] += alpha * v;
        }
    }

    /// Squared Euclidean norm of the stored values.
    pub fn norm2_sq(&self) -> f64 {
        self.val.iter().map(|v| v * v).sum()
    }

    /// Scale all stored values in place.
    pub fn scale(&mut self, alpha: f64) {
        for v in &mut self.val {
            *v *= alpha;
        }
    }

    /// L2-normalize in place; a zero vector is left unchanged.
    pub fn l2_normalize(&mut self) {
        let n = self.norm2_sq().sqrt();
        if n > 0.0 {
            self.scale(1.0 / n);
        }
    }

    /// Sparse-sparse dot product (two-pointer merge).
    pub fn dot_sparse(&self, other: &SparseVec) -> f64 {
        let (mut a, mut b, mut s) = (0usize, 0usize, 0.0);
        while a < self.idx.len() && b < other.idx.len() {
            match self.idx[a].cmp(&other.idx[b]) {
                std::cmp::Ordering::Less => a += 1,
                std::cmp::Ordering::Greater => b += 1,
                std::cmp::Ordering::Equal => {
                    s += self.val[a] * other.val[b];
                    a += 1;
                    b += 1;
                }
            }
        }
        s
    }

    /// Largest stored index plus one, or 0 for an empty vector.
    pub fn dim_lower_bound(&self) -> u32 {
        self.idx.last().map_or(0, |&i| i + 1)
    }
}

impl FromIterator<(u32, f64)> for SparseVec {
    fn from_iter<T: IntoIterator<Item = (u32, f64)>>(iter: T) -> Self {
        SparseVec::from_pairs(iter.into_iter().collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_pairs_sorts_and_merges() {
        let v = SparseVec::from_pairs(vec![(5, 1.0), (2, 2.0), (5, 3.0), (9, 0.5)]);
        assert_eq!(v.indices(), &[2, 5, 9]);
        assert_eq!(v.values(), &[2.0, 4.0, 0.5]);
    }

    #[test]
    fn merged_zeros_are_dropped() {
        let v = SparseVec::from_pairs(vec![(1, 1.0), (1, -1.0), (2, 3.0)]);
        assert_eq!(v.indices(), &[2]);
        assert_eq!(v.nnz(), 1);
    }

    #[test]
    fn assign_from_pairs_matches_from_pairs_and_reuses_buffers() {
        let pairs = vec![(5, 1.0), (2, 2.0), (5, 3.0), (9, 0.5), (7, 1.0), (7, -1.0)];
        let reference = SparseVec::from_pairs(pairs.clone());
        let mut v = SparseVec::new();
        let mut scratch = pairs;
        v.assign_from_pairs(&mut scratch);
        assert_eq!(v, reference);
        // Refill with a smaller vector: same result as a fresh build.
        let mut scratch2 = vec![(3, 1.5), (1, 0.25)];
        v.assign_from_pairs(&mut scratch2);
        assert_eq!(v, SparseVec::from_pairs(vec![(3, 1.5), (1, 0.25)]));
    }

    #[test]
    fn dot_dense_and_axpy() {
        let v = SparseVec::from_pairs(vec![(0, 2.0), (3, -1.0)]);
        let w = [1.0, 10.0, 10.0, 4.0];
        assert_eq!(v.dot_dense(&w), -2.0);
        let mut acc = vec![0.0; 4];
        v.axpy_into_dense(0.5, &mut acc);
        assert_eq!(acc, vec![1.0, 0.0, 0.0, -0.5]);
    }

    #[test]
    fn dot_sparse_merge() {
        let a = SparseVec::from_pairs(vec![(1, 2.0), (3, 1.0), (7, 4.0)]);
        let b = SparseVec::from_pairs(vec![(3, 5.0), (7, 0.25), (8, 9.0)]);
        assert_eq!(a.dot_sparse(&b), 5.0 + 1.0);
        assert_eq!(b.dot_sparse(&a), a.dot_sparse(&b));
    }

    #[test]
    fn normalize() {
        let mut v = SparseVec::from_pairs(vec![(0, 3.0), (1, 4.0)]);
        v.l2_normalize();
        assert!((v.norm2_sq() - 1.0).abs() < 1e-12);
        let mut z = SparseVec::new();
        z.l2_normalize(); // must not panic or produce NaN
        assert!(z.is_empty());
    }

    #[test]
    fn dim_lower_bound() {
        assert_eq!(SparseVec::new().dim_lower_bound(), 0);
        let v = SparseVec::from_pairs(vec![(41, 1.0)]);
        assert_eq!(v.dim_lower_bound(), 42);
    }
}
