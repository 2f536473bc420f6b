//! Row-major dense matrices.
//!
//! [`Matrix`] is the parameter container for projection matrices (TransR's
//! `M_r`, RippleNet's relation matrices `R_i`, dense-layer weights). The
//! kernels here are exactly the ones the hand-written backward passes need:
//! `A·x`, `Aᵀ·x`, rank-1 updates (`A += α·x·yᵀ`) and outer products.

use crate::simd::{self, LANES};
use crate::vector;

/// Cache-block edge for the `matmul` k-dimension: one block of B rows
/// (64 × cols floats) stays resident while a stripe of C is updated.
const K_BLOCK: usize = 64;

/// Tile edge for the blocked `transpose`: a 32 × 32 f32 tile is 4 KiB,
/// small enough that both the read and write tiles fit in L1.
const T_BLOCK: usize = 32;

/// A dense row-major `rows × cols` matrix of `f32`.
#[derive(Debug, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl Clone for Matrix {
    fn clone(&self) -> Self {
        Self { rows: self.rows, cols: self.cols, data: self.data.clone() }
    }

    /// Reuses the existing allocation when shapes allow — this is what
    /// makes snapshot-on-improvement in `kgrec_kge` allocation-free after
    /// the first epoch.
    fn clone_from(&mut self, source: &Self) {
        self.rows = source.rows;
        self.cols = source.cols;
        self.data.clone_from(&source.data);
    }
}

impl Matrix {
    /// Creates a zero-filled `rows × cols` matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self { rows, cols, data: vec![0.0; rows * cols] }
    }

    /// Creates the `n × n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m.data[i * n + i] = 1.0;
        }
        m
    }

    /// Builds a matrix from a row-major data vector.
    ///
    /// # Panics
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(data.len(), rows * cols, "Matrix::from_vec: size mismatch");
        Self { rows, cols, data }
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Immutable view of the underlying row-major data.
    #[inline]
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable view of the underlying row-major data.
    #[inline]
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Immutable view of row `r`.
    #[inline]
    pub fn row(&self, r: usize) -> &[f32] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutable view of row `r`.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Element accessor.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f32 {
        self.data[r * self.cols + c]
    }

    /// Element setter.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: f32) {
        self.data[r * self.cols + c] = v;
    }

    /// Matrix–vector product `y = A·x` (`x.len() == cols`).
    pub fn matvec(&self, x: &[f32]) -> Vec<f32> {
        let mut y = vec![0.0f32; self.rows];
        self.matvec_into(x, &mut y);
        y
    }

    /// `y = A·x` written into a caller-owned buffer (`y.len() == rows`).
    ///
    /// Rows are scored [`LANES`] at a time with [`simd::dot8`], whose
    /// per-row chains add in [`vector::dot`]'s order, so every output is
    /// bitwise equal to `dot(row, x)` (under `fast-math` too); the
    /// remainder rows take `dot` directly.
    pub fn matvec_into(&self, x: &[f32], y: &mut [f32]) {
        assert_eq!(x.len(), self.cols, "matvec: dimension mismatch");
        assert_eq!(y.len(), self.rows, "matvec: output dimension mismatch");
        let blocked = self.rows - self.rows % LANES;
        let (yb, yr) = y.split_at_mut(blocked);
        for (b, out) in yb.chunks_exact_mut(LANES).enumerate() {
            let r0 = b * LANES;
            out.copy_from_slice(&simd::dot8(x, std::array::from_fn(|c| self.row(r0 + c))));
        }
        for (r, out) in (blocked..).zip(yr) {
            *out = vector::dot(self.row(r), x);
        }
    }

    /// Transposed matrix–vector product `y = Aᵀ·x` (`x.len() == rows`).
    pub fn matvec_t(&self, x: &[f32]) -> Vec<f32> {
        let mut y = vec![0.0f32; self.cols];
        self.matvec_t_into(x, &mut y);
        y
    }

    /// `y = Aᵀ·x` written into a caller-owned buffer (`y.len() == cols`).
    ///
    /// The buffer is overwritten (zeroed first), not accumulated into.
    pub fn matvec_t_into(&self, x: &[f32], y: &mut [f32]) {
        assert_eq!(x.len(), self.rows, "matvec_t: dimension mismatch");
        assert_eq!(y.len(), self.cols, "matvec_t: output dimension mismatch");
        y.fill(0.0);
        for r in 0..self.rows {
            vector::axpy(x[r], self.row(r), y);
        }
    }

    /// Rank-1 update `A += α · x · yᵀ` (`x.len() == rows`, `y.len() == cols`).
    ///
    /// This is the gradient accumulation kernel for any bilinear form
    /// `xᵀ A y`: `∂/∂A (xᵀ A y) = x yᵀ`.
    pub fn rank1_update(&mut self, alpha: f32, x: &[f32], y: &[f32]) {
        assert_eq!(x.len(), self.rows, "rank1_update: row mismatch");
        assert_eq!(y.len(), self.cols, "rank1_update: col mismatch");
        for r in 0..self.rows {
            let s = alpha * x[r];
            vector::axpy(s, y, self.row_mut(r));
        }
    }

    /// Dense matrix product `A·B`.
    ///
    /// Cache-blocked over the inner dimension: a `K_BLOCK`-row stripe of B
    /// stays hot while every row of C it contributes to is updated. Each
    /// output element still accumulates its `k` terms in ascending order
    /// (blocks ascend, `k` ascends within a block), so the result is
    /// bit-identical to the naive triple loop. The inner loop is
    /// branch-free: real embeddings are almost never exactly zero, so a
    /// sparsity test costs a misprediction per element and saves nothing.
    pub fn matmul(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.cols, other.rows, "matmul: inner dimension mismatch");
        let mut out = Matrix::zeros(self.rows, other.cols);
        let mut kb = 0;
        while kb < self.cols {
            let kend = (kb + K_BLOCK).min(self.cols);
            for r in 0..self.rows {
                let arow = self.row(r);
                let orow = &mut out.data[r * other.cols..(r + 1) * other.cols];
                for k in kb..kend {
                    vector::axpy(arow[k], other.row(k), orow);
                }
            }
            kb = kend;
        }
        out
    }

    /// Returns the transpose `Aᵀ`.
    ///
    /// Walks the source in `T_BLOCK × T_BLOCK` tiles so writes to the
    /// column-major destination stay within an L1-resident tile instead of
    /// striding the whole output every element.
    pub fn transpose(&self) -> Matrix {
        let mut out = Matrix::zeros(self.cols, self.rows);
        for rb in (0..self.rows).step_by(T_BLOCK) {
            let rend = (rb + T_BLOCK).min(self.rows);
            for cb in (0..self.cols).step_by(T_BLOCK) {
                let cend = (cb + T_BLOCK).min(self.cols);
                for r in rb..rend {
                    for c in cb..cend {
                        out.data[c * self.rows + r] = self.data[r * self.cols + c];
                    }
                }
            }
        }
        out
    }

    /// `A += α · B`, element-wise.
    pub fn add_scaled(&mut self, alpha: f32, other: &Matrix) {
        assert_eq!(self.rows, other.rows, "add_scaled: row mismatch");
        assert_eq!(self.cols, other.cols, "add_scaled: col mismatch");
        vector::axpy(alpha, &other.data, &mut self.data);
    }

    /// Sets every element to zero (for gradient buffers reused across steps).
    pub fn fill_zero(&mut self) {
        self.data.fill(0.0);
    }

    /// Frobenius norm.
    pub fn frobenius_norm(&self) -> f32 {
        vector::norm(&self.data)
    }
}

/// Outer product `x · yᵀ` as a fresh matrix.
pub fn outer(x: &[f32], y: &[f32]) -> Matrix {
    let mut m = Matrix::zeros(x.len(), y.len());
    m.rank1_update(1.0, x, y);
    m
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_matvec_is_noop() {
        let i = Matrix::identity(3);
        let x = vec![1.0, -2.0, 3.0];
        assert_eq!(i.matvec(&x), x);
    }

    #[test]
    fn matvec_known_values() {
        let a = Matrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        assert_eq!(a.matvec(&[1.0, 0.0, -1.0]), vec![-2.0, -2.0]);
    }

    #[test]
    fn matvec_t_is_transpose_matvec() {
        let a = Matrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let x = vec![2.0, -1.0];
        assert_eq!(a.matvec_t(&x), a.transpose().matvec(&x));
    }

    #[test]
    fn rank1_update_matches_outer() {
        let mut a = Matrix::zeros(2, 3);
        a.rank1_update(2.0, &[1.0, -1.0], &[1.0, 2.0, 3.0]);
        assert_eq!(a.data(), &[2.0, 4.0, 6.0, -2.0, -4.0, -6.0]);
        let o = outer(&[1.0, -1.0], &[1.0, 2.0, 3.0]);
        let mut scaled = o.clone();
        scaled.fill_zero();
        scaled.add_scaled(2.0, &o);
        assert_eq!(a, scaled);
    }

    #[test]
    fn matmul_associates_with_matvec() {
        let a = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        let b = Matrix::from_vec(2, 2, vec![0.0, 1.0, 1.0, 0.0]);
        let x = vec![5.0, 7.0];
        let ab = a.matmul(&b);
        let lhs = ab.matvec(&x);
        let rhs = a.matvec(&b.matvec(&x));
        for (l, r) in lhs.iter().zip(rhs.iter()) {
            assert!((l - r).abs() < 1e-6);
        }
    }

    #[test]
    fn transpose_involutive() {
        let a = Matrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        assert_eq!(a.transpose().transpose(), a);
    }

    #[test]
    #[should_panic(expected = "size mismatch")]
    fn from_vec_size_checked() {
        Matrix::from_vec(2, 2, vec![1.0]);
    }

    /// Deterministic non-round filler so blocked kernels cross tile edges.
    fn filled(rows: usize, cols: usize, salt: f32) -> Matrix {
        let data = (0..rows * cols).map(|i| (i as f32).mul_add(0.17, salt) % 3.1 - 1.4).collect();
        Matrix::from_vec(rows, cols, data)
    }

    #[test]
    fn blocked_matmul_matches_naive_including_zeros() {
        // Sizes straddle K_BLOCK; planted zeros exercise the removed branch.
        let mut a = filled(7, 70, 0.3);
        a.set(0, 0, 0.0);
        a.set(3, 65, 0.0);
        let b = filled(70, 5, -0.9);
        let got = a.matmul(&b);
        let mut naive = Matrix::zeros(a.rows(), b.cols());
        for r in 0..a.rows() {
            for k in 0..a.cols() {
                for c in 0..b.cols() {
                    let cell = naive.get(r, c) + a.get(r, k) * b.get(k, c);
                    naive.set(r, c, cell);
                }
            }
        }
        for (g, n) in got.data().iter().zip(naive.data().iter()) {
            assert_eq!(g.to_bits(), n.to_bits());
        }
    }

    #[test]
    fn blocked_transpose_matches_elementwise() {
        let a = filled(37, 41, 1.1);
        let t = a.transpose();
        assert_eq!(t.rows(), 41);
        assert_eq!(t.cols(), 37);
        for r in 0..a.rows() {
            for c in 0..a.cols() {
                assert_eq!(t.get(c, r).to_bits(), a.get(r, c).to_bits());
            }
        }
    }

    #[test]
    fn into_variants_match_allocating() {
        let a = filled(6, 9, 0.5);
        let x: Vec<f32> = (0..9).map(|i| i as f32 * 0.3 - 1.0).collect();
        let xr: Vec<f32> = (0..6).map(|i| 0.7 - i as f32 * 0.2).collect();
        let mut y = vec![7.0f32; 6];
        a.matvec_into(&x, &mut y);
        assert_eq!(y, a.matvec(&x));
        let mut yt = vec![7.0f32; 9];
        a.matvec_t_into(&xr, &mut yt);
        assert_eq!(yt, a.matvec_t(&xr));
    }

    #[test]
    fn matvec_into_bit_matches_per_row_dot() {
        // 0..=25 rows cover every remainder mod 8 around the dot8 blocks.
        for rows in 0..26 {
            let a = filled(rows, 19, -0.6);
            let x: Vec<f32> = (0..19).map(|i| 1.3 - i as f32 * 0.11).collect();
            let mut y = vec![f32::NAN; rows];
            a.matvec_into(&x, &mut y);
            for (r, got) in y.iter().enumerate() {
                assert_eq!(got.to_bits(), vector::dot(a.row(r), &x).to_bits(), "rows={rows} r={r}");
            }
        }
    }

    #[test]
    fn clone_from_reuses_and_matches() {
        let a = filled(4, 5, 0.2);
        let mut b = Matrix::zeros(4, 5);
        let ptr_before = b.data().as_ptr();
        b.clone_from(&a);
        assert_eq!(a, b);
        assert_eq!(ptr_before, b.data().as_ptr(), "same-size clone_from must not reallocate");
    }
}
