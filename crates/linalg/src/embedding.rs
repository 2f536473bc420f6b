//! Embedding tables: the latent-vector containers of every surveyed model.
//!
//! [`EmbeddingTable`] stores `n` rows of dimension `d` contiguously, indexed
//! by dense `usize` ids (the id newtypes of `kgrec-graph` / `kgrec-data`
//! convert to row indices). Contiguous storage plus dense-ids-instead-of-
//! hash-maps follows the performance guidance this workspace is built under.

use crate::init;
use crate::vector;
use rand::Rng;

/// A dense `n × d` table of latent vectors.
#[derive(Debug, PartialEq)]
pub struct EmbeddingTable {
    dim: usize,
    data: Vec<f32>,
}

impl Clone for EmbeddingTable {
    fn clone(&self) -> Self {
        Self { dim: self.dim, data: self.data.clone() }
    }

    /// Reuses the existing allocation when capacities allow, so repeated
    /// snapshots of a model (`train_guarded`) stop hitting the allocator.
    fn clone_from(&mut self, source: &Self) {
        self.dim = source.dim;
        self.data.clone_from(&source.data);
    }
}

impl EmbeddingTable {
    /// Creates a zero-initialized table with `n` rows of dimension `dim`.
    pub fn zeros(n: usize, dim: usize) -> Self {
        assert!(dim > 0, "EmbeddingTable: dim must be positive");
        Self { dim, data: vec![0.0; n * dim] }
    }

    /// Creates a table initialized with `U[-scale, scale)`.
    pub fn uniform<R: Rng + ?Sized>(rng: &mut R, n: usize, dim: usize, scale: f32) -> Self {
        let mut t = Self::zeros(n, dim);
        init::uniform(rng, &mut t.data, -scale, scale);
        t
    }

    /// Creates a table with the TransE initialization `U[-6/√d, 6/√d)`.
    pub fn transe_init<R: Rng + ?Sized>(rng: &mut R, n: usize, dim: usize) -> Self {
        let mut t = Self::zeros(n, dim);
        init::transe_uniform(rng, &mut t.data, dim);
        t
    }

    /// Creates a table initialized with Xavier-uniform fan `(dim, dim)`.
    pub fn xavier<R: Rng + ?Sized>(rng: &mut R, n: usize, dim: usize) -> Self {
        let mut t = Self::zeros(n, dim);
        init::xavier_uniform(rng, &mut t.data, dim, dim);
        t
    }

    /// Number of rows.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len() / self.dim
    }

    /// Whether the table has zero rows.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Embedding dimension.
    #[inline]
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Immutable row accessor.
    ///
    /// # Panics
    /// Panics if `i >= len()`.
    #[inline]
    pub fn row(&self, i: usize) -> &[f32] {
        &self.data[i * self.dim..(i + 1) * self.dim]
    }

    /// Mutable row accessor.
    #[inline]
    pub fn row_mut(&mut self, i: usize) -> &mut [f32] {
        &mut self.data[i * self.dim..(i + 1) * self.dim]
    }

    /// Raw flat parameter view (row-major).
    #[inline]
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Raw flat mutable parameter view (row-major).
    #[inline]
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Applies `row += alpha * delta` to row `i`.
    #[inline]
    pub fn add_to_row(&mut self, i: usize, alpha: f32, delta: &[f32]) {
        vector::axpy(alpha, delta, self.row_mut(i));
    }

    /// Normalizes every row to unit Euclidean norm (zero rows untouched).
    pub fn normalize_rows(&mut self) {
        for i in 0..self.len() {
            vector::normalize(self.row_mut(i));
        }
    }

    /// Projects every row onto the Euclidean ball of radius `r`.
    pub fn project_rows_to_ball(&mut self, r: f32) {
        for i in 0..self.len() {
            vector::project_to_ball(self.row_mut(i), r);
        }
    }

    /// Dot product between two rows of (possibly different) tables.
    #[inline]
    pub fn row_dot(&self, i: usize, other: &EmbeddingTable, j: usize) -> f32 {
        vector::dot(self.row(i), other.row(j))
    }

    /// Mean of a set of rows into a fresh vector; zero vector when `ids` is
    /// empty (the standard convention for users with no history).
    pub fn mean_of_rows(&self, ids: &[usize]) -> Vec<f32> {
        let mut out = vec![0.0f32; self.dim];
        if ids.is_empty() {
            return out;
        }
        for &i in ids {
            vector::axpy(1.0, self.row(i), &mut out);
        }
        vector::scale(&mut out, 1.0 / ids.len() as f32);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn rows_are_disjoint_slices() {
        let mut t = EmbeddingTable::zeros(3, 4);
        t.row_mut(1).fill(2.0);
        assert_eq!(t.row(0), &[0.0; 4]);
        assert_eq!(t.row(1), &[2.0; 4]);
        assert_eq!(t.row(2), &[0.0; 4]);
    }

    #[test]
    fn normalize_rows_unit() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut t = EmbeddingTable::uniform(&mut rng, 5, 8, 1.0);
        t.normalize_rows();
        for i in 0..5 {
            assert!((vector::norm(t.row(i)) - 1.0).abs() < 1e-5);
        }
    }

    #[test]
    fn mean_of_rows_empty_is_zero() {
        let t = EmbeddingTable::zeros(2, 3);
        assert_eq!(t.mean_of_rows(&[]), vec![0.0; 3]);
    }

    #[test]
    fn mean_of_rows_average() {
        let mut t = EmbeddingTable::zeros(2, 2);
        t.row_mut(0).copy_from_slice(&[1.0, 3.0]);
        t.row_mut(1).copy_from_slice(&[3.0, 5.0]);
        assert_eq!(t.mean_of_rows(&[0, 1]), vec![2.0, 4.0]);
    }

    #[test]
    fn seeded_tables_reproducible() {
        let a = EmbeddingTable::xavier(&mut StdRng::seed_from_u64(11), 4, 4);
        let b = EmbeddingTable::xavier(&mut StdRng::seed_from_u64(11), 4, 4);
        assert_eq!(a, b);
    }
}
