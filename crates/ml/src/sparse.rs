//! Sparse feature vectors for bag-of-words inputs.

/// A sparse vector: parallel index/value arrays, indices strictly
/// increasing.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct SparseVec {
    /// Feature indices, ascending.
    pub indices: Vec<u32>,
    /// Matching values.
    pub values: Vec<f32>,
}

impl SparseVec {
    /// An empty vector.
    pub fn new() -> SparseVec {
        SparseVec::default()
    }

    /// Build from `(index, value)` pairs; pairs with the same index are
    /// summed, zeros dropped.
    pub fn from_pairs(mut pairs: Vec<(u32, f32)>) -> SparseVec {
        pairs.sort_by_key(|&(i, _)| i);
        let mut indices = Vec::with_capacity(pairs.len());
        let mut values: Vec<f32> = Vec::with_capacity(pairs.len());
        for (i, v) in pairs {
            if let Some(&last) = indices.last() {
                if last == i {
                    *values.last_mut().expect("parallel arrays") += v;
                    continue;
                }
            }
            indices.push(i);
            values.push(v);
        }
        // Drop exact zeros created by cancellation.
        let mut out_i = Vec::with_capacity(indices.len());
        let mut out_v = Vec::with_capacity(values.len());
        for (i, v) in indices.into_iter().zip(values) {
            if v != 0.0 {
                out_i.push(i);
                out_v.push(v);
            }
        }
        SparseVec {
            indices: out_i,
            values: out_v,
        }
    }

    /// Number of stored (non-zero) entries.
    pub fn nnz(&self) -> usize {
        self.indices.len()
    }

    /// L2 norm.
    pub fn norm(&self) -> f32 {
        self.values.iter().map(|v| v * v).sum::<f32>().sqrt()
    }

    /// Scale values in place so the L2 norm is 1 (no-op on zero vectors).
    pub fn normalize(&mut self) {
        let n = self.norm();
        if n > 0.0 {
            for v in &mut self.values {
                *v /= n;
            }
        }
    }

    /// Approximate serialized size in bytes (for modeling transfer costs:
    /// 4-byte index + 4-byte value per entry).
    pub fn wire_bytes(&self) -> u64 {
        (self.nnz() * 8) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_pairs_sorts_merges_and_drops_zeros() {
        let v = SparseVec::from_pairs(vec![(5, 1.0), (2, 2.0), (5, 3.0), (7, 1.0), (7, -1.0)]);
        assert_eq!(v.indices, vec![2, 5]);
        assert_eq!(v.values, vec![2.0, 4.0]);
        assert_eq!(v.nnz(), 2);
    }

    #[test]
    fn norm_and_normalize() {
        let mut v = SparseVec::from_pairs(vec![(0, 3.0), (1, 4.0)]);
        assert!((v.norm() - 5.0).abs() < 1e-6);
        v.normalize();
        assert!((v.norm() - 1.0).abs() < 1e-6);
        let mut zero = SparseVec::new();
        zero.normalize(); // must not divide by zero
        assert_eq!(zero.nnz(), 0);
    }

    #[test]
    fn wire_bytes_counts_entries() {
        let v = SparseVec::from_pairs(vec![(0, 1.0), (9, 1.0)]);
        assert_eq!(v.wire_bytes(), 16);
    }
}
