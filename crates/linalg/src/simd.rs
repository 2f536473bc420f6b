//! Portable multi-lane kernels over `f32` slices.
//!
//! Stable Rust offers no explicit SIMD intrinsics without `unsafe`, so
//! these kernels reach vector units the portable way: every loop is
//! written over fixed 8-lane blocks (`chunks_exact(LANES)`) with
//! straight-line per-lane bodies, the shape LLVM's autovectorizer turns
//! into packed instructions on every current x86-64 / AArch64 target.
//!
//! Two kernel classes, two determinism stories:
//!
//! * **Element-wise kernels** (`add_into`, `sub_into`, `mul_into`,
//!   `scale_assign`, `axpy`, `scale`) — each output lane depends on one
//!   input lane only, so lane-blocking cannot reorder any floating-point
//!   operation. These are unconditionally bit-identical to the scalar
//!   loops they replace.
//! * **Reductions** (`dot`, `dot8`) — summation order is observable in the
//!   result. The default build keeps a **single sequential accumulator**
//!   (the unroll removes bounds checks and loop overhead but adds
//!   products in exactly the scalar order, so results stay bit-identical
//!   and the workspace determinism contract holds). The `fast-math`
//!   cargo feature swaps in eight independent lane accumulators combined
//!   by a fixed reduction tree: faster on wide cores, still deterministic
//!   run-to-run, but **not** bit-identical to the scalar order — golden
//!   transcripts are only valid with the feature off.
//!
//!   The batched `dot8` scores one query against [`LANES`] rows at once
//!   with one accumulator per *row*, not per lane: lanes hold rows. It
//!   loads the next four values of every row as one block, and the
//!   inner loop reads those blocks column by column, so the compiler
//!   emits whole-register loads plus 4 × 4 transposes instead of one
//!   scalar load per row and column. The transposes only move values:
//!   each product `x[i] * ys[c][i]` is the same single rounding as in
//!   `dot`, and lane `c` still adds row `c`'s products one at a time for
//!   ascending `i` (no fused multiply-add, no reassociation), so every
//!   output is bitwise equal to `dot(x, ys[c])` in the default build.
//!   The eight independent chains also hide the add latency a single
//!   `dot` is bound by. Under `fast-math` `dot8` calls `dot` per row, so
//!   the equality holds there too.

/// Lane width of every blocked kernel. Eight `f32`s fill one AVX2
/// register (or two NEON registers), the widest unit portably available.
pub const LANES: usize = 8;

/// Columns per step of the default [`dot8`]: one 4 × `f32` block of each
/// row fills one SSE2 register, the vector width every x86-64 target has.
#[cfg(not(feature = "fast-math"))]
const BLOCK: usize = 4;

/// Largest multiple of [`LANES`] not exceeding `n`.
#[inline]
fn blocked(n: usize) -> usize {
    n & !(LANES - 1)
}

/// Inner product `x · y` with the default (bit-identical) accumulation
/// order.
///
/// # Panics
/// Panics if `x.len() != y.len()`.
#[cfg(not(feature = "fast-math"))]
#[inline]
pub fn dot(x: &[f32], y: &[f32]) -> f32 {
    assert_eq!(x.len(), y.len(), "dot: dimension mismatch");
    let n8 = blocked(x.len());
    let (xb, xr) = x.split_at(n8);
    let (yb, yr) = y.split_at(n8);
    let mut acc = 0.0f32;
    for (a, b) in xb.chunks_exact(LANES).zip(yb.chunks_exact(LANES)) {
        // One accumulator, strictly sequential adds: identical rounding
        // to the naive scalar loop, minus its bounds checks.
        acc += a[0] * b[0];
        acc += a[1] * b[1];
        acc += a[2] * b[2];
        acc += a[3] * b[3];
        acc += a[4] * b[4];
        acc += a[5] * b[5];
        acc += a[6] * b[6];
        acc += a[7] * b[7];
    }
    for (a, b) in xr.iter().zip(yr.iter()) {
        acc += a * b;
    }
    acc
}

/// Inner product `x · y` with relaxed (lane-parallel) accumulation.
///
/// Eight independent accumulators, one per lane, combined by a fixed
/// pairwise tree after the blocked loop. Deterministic for a given input,
/// but the rounding order differs from the scalar loop — gated behind the
/// `fast-math` feature because golden transcripts pin the default order.
///
/// # Panics
/// Panics if `x.len() != y.len()`.
#[cfg(feature = "fast-math")]
#[inline]
pub(crate) fn dot(x: &[f32], y: &[f32]) -> f32 {
    assert_eq!(x.len(), y.len(), "dot: dimension mismatch");
    let n8 = blocked(x.len());
    let (xb, xr) = x.split_at(n8);
    let (yb, yr) = y.split_at(n8);
    let mut lanes = [0.0f32; LANES];
    for (a, b) in xb.chunks_exact(LANES).zip(yb.chunks_exact(LANES)) {
        for j in 0..LANES {
            lanes[j] += a[j] * b[j];
        }
    }
    let mut acc = ((lanes[0] + lanes[4]) + (lanes[2] + lanes[6]))
        + ((lanes[1] + lanes[5]) + (lanes[3] + lanes[7]));
    for (a, b) in xr.iter().zip(yr.iter()) {
        acc += a * b;
    }
    acc
}

/// `[dot(x, ys[0]), …, dot(x, ys[LANES - 1])]` in one pass over `x`.
///
/// Lane `c` of the accumulator holds row `c`. Each step loads the next
/// four values of every row and of `x`, then walks that block column by
/// column: the `LANES × 4` load is transposed so that column `k` holds
/// `ys[0][i + k], …, ys[LANES - 1][i + k]`, and lane `c` adds
/// `x[i + k] * ys[c][i + k]` for `k = 0, 1, 2, 3` in turn. Row `c`'s chain
/// therefore adds its products for ascending `i`, exactly [`dot`]'s order,
/// so every output is bitwise equal to the single-row kernel.
///
/// # Panics
/// Panics if any row's length differs from `x.len()`.
#[cfg(not(feature = "fast-math"))]
#[inline]
pub fn dot8(x: &[f32], ys: [&[f32]; LANES]) -> [f32; LANES] {
    let n = x.len();
    for y in &ys {
        assert_eq!(y.len(), n, "dot8: dimension mismatch");
    }
    let (xb, xr) = x.as_chunks::<BLOCK>();
    let m = xb.len();
    // One named slice of exactly `m` blocks per row lets the optimizer
    // drop every bounds check in the loop; an array of slices keeps them.
    let [y0, y1, y2, y3, y4, y5, y6, y7] = ys;
    let y0 = &y0.as_chunks::<BLOCK>().0[..m];
    let y1 = &y1.as_chunks::<BLOCK>().0[..m];
    let y2 = &y2.as_chunks::<BLOCK>().0[..m];
    let y3 = &y3.as_chunks::<BLOCK>().0[..m];
    let y4 = &y4.as_chunks::<BLOCK>().0[..m];
    let y5 = &y5.as_chunks::<BLOCK>().0[..m];
    let y6 = &y6.as_chunks::<BLOCK>().0[..m];
    let y7 = &y7.as_chunks::<BLOCK>().0[..m];
    let mut acc = [0.0f32; LANES];
    for (j, xs) in xb.iter().enumerate() {
        let block = [y0[j], y1[j], y2[j], y3[j], y4[j], y5[j], y6[j], y7[j]];
        for k in 0..BLOCK {
            for c in 0..LANES {
                acc[c] += xs[k] * block[c][k];
            }
        }
    }
    let tail = n - xr.len();
    for (i, &a) in (tail..).zip(xr) {
        for c in 0..LANES {
            acc[c] += a * ys[c][i];
        }
    }
    acc
}

/// [`dot`] once per row, so each output is bitwise equal to the relaxed
/// single-row kernel.
///
/// # Panics
/// Panics if any row's length differs from `x.len()`.
#[cfg(feature = "fast-math")]
#[inline]
pub(crate) fn dot8(x: &[f32], ys: [&[f32]; LANES]) -> [f32; LANES] {
    ys.map(|y| dot(x, y))
}

/// `y += alpha * x`, lane-blocked. Bit-identical to the scalar loop.
///
/// # Panics
/// Panics if `x.len() != y.len()`.
#[inline]
pub fn axpy(alpha: f32, x: &[f32], y: &mut [f32]) {
    assert_eq!(x.len(), y.len(), "axpy: dimension mismatch");
    let n8 = blocked(x.len());
    let (xb, xr) = x.split_at(n8);
    let (yb, yr) = y.split_at_mut(n8);
    for (a, b) in yb.chunks_exact_mut(LANES).zip(xb.chunks_exact(LANES)) {
        for j in 0..LANES {
            a[j] += alpha * b[j];
        }
    }
    for (a, b) in yr.iter_mut().zip(xr.iter()) {
        *a += alpha * b;
    }
}

/// `x *= alpha`, lane-blocked. Bit-identical to the scalar loop.
#[inline]
pub fn scale(x: &mut [f32], alpha: f32) {
    let n8 = blocked(x.len());
    let (xb, xr) = x.split_at_mut(n8);
    for a in xb.chunks_exact_mut(LANES) {
        for j in 0..LANES {
            a[j] *= alpha;
        }
    }
    for a in xr.iter_mut() {
        *a *= alpha;
    }
}

/// `out = x + y`, lane-blocked. Bit-identical to the scalar loop.
///
/// # Panics
/// Panics if slice lengths disagree.
#[inline]
pub fn add_into(x: &[f32], y: &[f32], out: &mut [f32]) {
    assert_eq!(x.len(), y.len(), "add_into: dimension mismatch");
    assert_eq!(x.len(), out.len(), "add_into: output dimension mismatch");
    let n8 = blocked(x.len());
    let (ob, or) = out.split_at_mut(n8);
    for (i, o) in ob.chunks_exact_mut(LANES).enumerate() {
        let base = i * LANES;
        for j in 0..LANES {
            o[j] = x[base + j] + y[base + j];
        }
    }
    for (j, o) in or.iter_mut().enumerate() {
        *o = x[n8 + j] + y[n8 + j];
    }
}

/// `out = x - y`, lane-blocked. Bit-identical to the scalar loop.
///
/// # Panics
/// Panics if slice lengths disagree.
#[inline]
pub fn sub_into(x: &[f32], y: &[f32], out: &mut [f32]) {
    assert_eq!(x.len(), y.len(), "sub_into: dimension mismatch");
    assert_eq!(x.len(), out.len(), "sub_into: output dimension mismatch");
    let n8 = blocked(x.len());
    let (ob, or) = out.split_at_mut(n8);
    for (i, o) in ob.chunks_exact_mut(LANES).enumerate() {
        let base = i * LANES;
        for j in 0..LANES {
            o[j] = x[base + j] - y[base + j];
        }
    }
    for (j, o) in or.iter_mut().enumerate() {
        *o = x[n8 + j] - y[n8 + j];
    }
}

/// `out = x ⊙ y`, lane-blocked. Bit-identical to the scalar loop.
///
/// # Panics
/// Panics if slice lengths disagree.
#[inline]
pub fn mul_into(x: &[f32], y: &[f32], out: &mut [f32]) {
    assert_eq!(x.len(), y.len(), "mul_into: dimension mismatch");
    assert_eq!(x.len(), out.len(), "mul_into: output dimension mismatch");
    let n8 = blocked(x.len());
    let (ob, or) = out.split_at_mut(n8);
    for (i, o) in ob.chunks_exact_mut(LANES).enumerate() {
        let base = i * LANES;
        for j in 0..LANES {
            o[j] = x[base + j] * y[base + j];
        }
    }
    for (j, o) in or.iter_mut().enumerate() {
        *o = x[n8 + j] * y[n8 + j];
    }
}

/// `out = alpha · x`, lane-blocked. Bit-identical to the scalar loop.
///
/// # Panics
/// Panics if slice lengths disagree.
#[inline]
pub fn scale_assign(alpha: f32, x: &[f32], out: &mut [f32]) {
    assert_eq!(x.len(), out.len(), "scale_assign: dimension mismatch");
    let n8 = blocked(x.len());
    let (ob, or) = out.split_at_mut(n8);
    for (i, o) in ob.chunks_exact_mut(LANES).enumerate() {
        let base = i * LANES;
        for j in 0..LANES {
            o[j] = alpha * x[base + j];
        }
    }
    for (j, o) in or.iter_mut().enumerate() {
        *o = alpha * x[n8 + j];
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn awkward(n: usize, seed: f32) -> Vec<f32> {
        (0..n).map(|i| seed + i as f32 * 0.37 - (i % 5) as f32 * 1.21).collect()
    }

    #[test]
    fn dot_matches_sequential_scalar_reference() {
        // Lengths straddling the 8-lane boundary.
        for n in 0..35usize {
            let x = awkward(n, 0.13);
            let y = awkward(n, -2.4);
            let mut reference = 0.0f32;
            for (a, b) in x.iter().zip(y.iter()) {
                reference += a * b;
            }
            if cfg!(feature = "fast-math") {
                assert!((dot(&x, &y) - reference).abs() <= reference.abs() * 1e-5 + 1e-5);
            } else {
                assert_eq!(dot(&x, &y).to_bits(), reference.to_bits(), "n={n}");
            }
        }
    }

    #[test]
    fn elementwise_kernels_bit_match_scalar_loops() {
        for n in 0..35usize {
            let x = awkward(n, 1.7);
            let y = awkward(n, 0.05);
            let mut out = vec![0.0f32; n];
            let bits = |v: &[f32]| v.iter().map(|f| f.to_bits()).collect::<Vec<_>>();

            add_into(&x, &y, &mut out);
            let want: Vec<f32> = x.iter().zip(&y).map(|(a, b)| a + b).collect();
            assert_eq!(bits(&out), bits(&want), "add n={n}");

            sub_into(&x, &y, &mut out);
            let want: Vec<f32> = x.iter().zip(&y).map(|(a, b)| a - b).collect();
            assert_eq!(bits(&out), bits(&want), "sub n={n}");

            mul_into(&x, &y, &mut out);
            let want: Vec<f32> = x.iter().zip(&y).map(|(a, b)| a * b).collect();
            assert_eq!(bits(&out), bits(&want), "mul n={n}");

            scale_assign(-0.73, &x, &mut out);
            let want: Vec<f32> = x.iter().map(|a| -0.73 * a).collect();
            assert_eq!(bits(&out), bits(&want), "scale_assign n={n}");

            let mut acc = y.clone();
            axpy(1.3, &x, &mut acc);
            let want: Vec<f32> = x.iter().zip(&y).map(|(a, b)| b + 1.3 * a).collect();
            assert_eq!(bits(&acc), bits(&want), "axpy n={n}");

            let mut scaled = x.clone();
            scale(&mut scaled, 0.21);
            let want: Vec<f32> = x.iter().map(|a| a * 0.21).collect();
            assert_eq!(bits(&scaled), bits(&want), "scale n={n}");
        }
    }

    #[test]
    fn dot8_rows_bit_match_dot() {
        for n in 0..35usize {
            let x = awkward(n, 0.13);
            let rows: Vec<Vec<f32>> = (0..LANES).map(|c| awkward(n, c as f32 - 3.5)).collect();
            let got = dot8(&x, std::array::from_fn(|c| rows[c].as_slice()));
            for (c, row) in rows.iter().enumerate() {
                assert_eq!(got[c].to_bits(), dot(&x, row).to_bits(), "n={n} row={c}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn dot8_rejects_mismatched_lengths() {
        let short = [1.0f32; 7];
        let mut ys = [&[1.0f32; 8][..]; LANES];
        ys[5] = &short;
        dot8(&[1.0; 8], ys);
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn dot_rejects_mismatched_lengths() {
        dot(&[1.0; 9], &[1.0; 8]);
    }
}
