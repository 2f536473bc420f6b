//! Free functions over `f32` slices.
//!
//! These are the primitive kernels used by every model: inner products,
//! scaled additions, element-wise products, norms and the numerically
//! stable softmax / log-sigmoid used in attention and loss computations.
//!
//! All functions panic if slice lengths disagree — mismatched dimensions
//! are programmer errors, never data errors.

use crate::simd;

/// Inner product `x · y`.
///
/// Delegates to the 8-lane blocked kernel in [`crate::simd`]. The default
/// build keeps a single sequential accumulator, so the result is
/// bit-identical to the naive scalar loop; the `fast-math` feature relaxes
/// the accumulation order (see the `simd` module docs).
///
/// # Panics
/// Panics if `x.len() != y.len()`.
#[inline]
pub fn dot(x: &[f32], y: &[f32]) -> f32 {
    simd::dot(x, y)
}

/// `y += alpha * x` (the BLAS `axpy` kernel), 8-lane blocked.
#[inline]
pub fn axpy(alpha: f32, x: &[f32], y: &mut [f32]) {
    simd::axpy(alpha, x, y);
}

/// `x *= alpha`, 8-lane blocked.
#[inline]
pub fn scale(x: &mut [f32], alpha: f32) {
    simd::scale(x, alpha);
}

/// Element-wise sum `out = x + y` into a caller-provided buffer.
///
/// The allocation-free twin of [`add`]; results are bit-identical.
#[inline]
pub fn add_into(x: &[f32], y: &[f32], out: &mut [f32]) {
    simd::add_into(x, y, out);
}

/// Element-wise difference `out = x - y` into a caller-provided buffer.
///
/// The allocation-free twin of [`sub`]; results are bit-identical.
#[inline]
pub fn sub_into(x: &[f32], y: &[f32], out: &mut [f32]) {
    simd::sub_into(x, y, out);
}

/// Element-wise (Hadamard) product `out = x ⊙ y` into a caller-provided
/// buffer.
///
/// The allocation-free twin of [`hadamard`]; results are bit-identical.
#[inline]
pub fn mul_into(x: &[f32], y: &[f32], out: &mut [f32]) {
    simd::mul_into(x, y, out);
}

/// Scaled copy `out = alpha · x` into a caller-provided buffer.
///
/// Replaces the `x.iter().map(|v| alpha * v).collect()` pattern in
/// gradient kernels without the per-call allocation.
#[inline]
pub fn scale_assign(alpha: f32, x: &[f32], out: &mut [f32]) {
    simd::scale_assign(alpha, x, out);
}

/// Element-wise sum `x + y` into a fresh vector.
pub fn add(x: &[f32], y: &[f32]) -> Vec<f32> {
    let mut out = vec![0.0f32; x.len()];
    add_into(x, y, &mut out);
    out
}

/// Element-wise difference `x - y` into a fresh vector.
pub fn sub(x: &[f32], y: &[f32]) -> Vec<f32> {
    let mut out = vec![0.0f32; x.len()];
    sub_into(x, y, &mut out);
    out
}

/// Element-wise (Hadamard) product `x ⊙ y` into a fresh vector.
pub fn hadamard(x: &[f32], y: &[f32]) -> Vec<f32> {
    let mut out = vec![0.0f32; x.len()];
    mul_into(x, y, &mut out);
    out
}

/// Squared Euclidean norm `‖x‖²`.
#[inline]
pub fn norm_sq(x: &[f32]) -> f32 {
    dot(x, x)
}

/// Euclidean norm `‖x‖`.
#[inline]
pub fn norm(x: &[f32]) -> f32 {
    norm_sq(x).sqrt()
}

/// L1 norm `Σ|xᵢ|`.
#[inline]
pub fn norm_l1(x: &[f32]) -> f32 {
    x.iter().map(|v| v.abs()).sum()
}

/// Squared Euclidean distance `‖x − y‖²`.
#[inline]
pub fn dist_sq(x: &[f32], y: &[f32]) -> f32 {
    assert_eq!(x.len(), y.len(), "dist_sq: dimension mismatch");
    let mut acc = 0.0f32;
    for (a, b) in x.iter().zip(y.iter()) {
        let d = a - b;
        acc += d * d;
    }
    acc
}

/// Normalizes `x` to unit Euclidean length in place.
///
/// A zero vector is left untouched (there is no direction to keep).
pub fn normalize(x: &mut [f32]) {
    let n = norm(x);
    if n > 0.0 {
        scale(x, 1.0 / n);
    }
}

/// Projects `x` onto the Euclidean ball of radius `r` in place.
///
/// This is the constraint-projection step used by the translation-distance
/// KGE models (TransE and friends constrain entity embeddings to `‖e‖ ≤ 1`).
pub fn project_to_ball(x: &mut [f32], r: f32) {
    let n = norm(x);
    if n > r {
        scale(x, r / n);
    }
}

/// Cosine similarity; returns `0.0` when either vector is zero.
pub fn cosine(x: &[f32], y: &[f32]) -> f32 {
    let nx = norm(x);
    let ny = norm(y);
    if nx == 0.0 || ny == 0.0 {
        return 0.0;
    }
    dot(x, y) / (nx * ny)
}

/// Logistic sigmoid `σ(x) = 1 / (1 + e^(−x))`, computed stably for large |x|.
#[inline]
pub fn sigmoid(x: f32) -> f32 {
    if x >= 0.0 {
        1.0 / (1.0 + (-x).exp())
    } else {
        let e = x.exp();
        e / (1.0 + e)
    }
}

/// Numerically stable `log σ(x) = −log(1 + e^(−x))`.
#[inline]
pub fn log_sigmoid(x: f32) -> f32 {
    if x >= 0.0 {
        -(-x).exp().ln_1p()
    } else {
        x - x.exp().ln_1p()
    }
}

/// Softplus `log(1 + eˣ)`, computed stably.
#[inline]
pub fn softplus(x: f32) -> f32 {
    if x > 0.0 {
        x + (-x).exp().ln_1p()
    } else {
        x.exp().ln_1p()
    }
}

/// In-place numerically stable softmax.
///
/// An empty slice is a no-op. Uniform output is produced when all inputs
/// are equal (including all `-inf`-free extreme values).
pub fn softmax_in_place(x: &mut [f32]) {
    if x.is_empty() {
        return;
    }
    let max = x.iter().copied().fold(f32::NEG_INFINITY, f32::max);
    let mut sum = 0.0f32;
    for v in x.iter_mut() {
        *v = (*v - max).exp();
        sum += *v;
    }
    if sum > 0.0 {
        scale(x, 1.0 / sum);
    } else {
        // All inputs were -inf; fall back to uniform.
        let u = 1.0 / x.len() as f32;
        x.fill(u);
    }
}

/// Softmax into a fresh vector; see [`softmax_in_place`].
pub fn softmax(x: &[f32]) -> Vec<f32> {
    let mut out = x.to_vec();
    softmax_in_place(&mut out);
    out
}

/// Backward pass through softmax.
///
/// Given the softmax output `p` and the gradient `dl_dp` of the loss with
/// respect to that output, returns the gradient with respect to the logits:
/// `dl_dz_i = p_i * (dl_dp_i − Σ_j dl_dp_j * p_j)`.
pub fn softmax_backward(p: &[f32], dl_dp: &[f32]) -> Vec<f32> {
    assert_eq!(p.len(), dl_dp.len(), "softmax_backward: dimension mismatch");
    let inner = dot(p, dl_dp);
    p.iter().zip(dl_dp.iter()).map(|(pi, gi)| pi * (gi - inner)).collect()
}

/// Whether every element is finite (no NaN, no ±∞). `true` for an empty
/// slice.
#[inline]
pub fn all_finite(x: &[f32]) -> bool {
    x.iter().all(|v| v.is_finite())
}

/// Returns `x` when it is finite, else `default`.
///
/// The workspace convention for optionally-present numeric fields (e.g.
/// the rating of an implicit interaction, stored as NaN): consumers map
/// the sentinel to a neutral value with `finite_or` instead of spelling
/// out the `is_nan()` special case inline.
#[inline]
pub fn finite_or(x: f32, default: f32) -> f32 {
    if x.is_finite() {
        x
    } else {
        default
    }
}

/// Clips `x` to the Euclidean ball of radius `max_norm` in place and
/// returns `true` when clipping happened — the standard gradient-clipping
/// guard against exploding updates. Non-finite inputs are zeroed first
/// (a non-finite gradient carries no usable direction), which also counts
/// as clipping.
pub fn clip_norm(x: &mut [f32], max_norm: f32) -> bool {
    let mut cleaned = false;
    if !all_finite(x) {
        for v in x.iter_mut() {
            if !v.is_finite() {
                *v = 0.0;
            }
        }
        cleaned = true;
    }
    let n = norm(x);
    if n > max_norm {
        scale(x, max_norm / n);
        return true;
    }
    cleaned
}

/// Mean of a slice; `0.0` for an empty slice.
pub fn mean(x: &[f32]) -> f32 {
    if x.is_empty() {
        0.0
    } else {
        x.iter().sum::<f32>() / x.len() as f32
    }
}

/// Index of the maximum element; `None` for an empty slice.
/// Ties resolve to the first maximal index.
pub fn argmax(x: &[f32]) -> Option<usize> {
    x.iter()
        .enumerate()
        .fold(None, |best, (i, &v)| match best {
            Some((_, bv)) if bv >= v => best,
            _ => Some((i, v)),
        })
        .map(|(i, _)| i)
}

/// Indices of the `k` largest elements, in descending order of value.
///
/// Ties resolve to smaller indices first, which makes ranking-metric
/// computations deterministic. For `k < n` this is `O(n + k log k)`:
/// `select_nth_unstable_by` partitions the top `k` to the front, and only
/// that slice is sorted. The (score desc, index asc) comparator is a
/// strict total order over finite scores, so the selected set and its
/// order are exactly those of a full sort. (NaN scores make the
/// comparator lawless for the full sort too — upstream NaN probes keep
/// them out of ranking.)
pub fn top_k_indices(x: &[f32], k: usize) -> Vec<usize> {
    let mut idx = Vec::new();
    top_k_into(x, k, &mut idx);
    idx
}

/// [`top_k_indices`] into a caller-owned index buffer: `idx` is cleared
/// and refilled, so a reused buffer makes repeated selection
/// allocation-free once its capacity has grown to `x.len()`. Identical
/// selection and tie-break order to [`top_k_indices`].
pub fn top_k_into(x: &[f32], k: usize, idx: &mut Vec<usize>) {
    idx.clear();
    if k == 0 {
        return;
    }
    idx.extend(0..x.len());
    let by_score_desc = |a: &usize, b: &usize| {
        x[*b].partial_cmp(&x[*a]).unwrap_or(std::cmp::Ordering::Equal).then(a.cmp(b))
    };
    if k < idx.len() {
        idx.select_nth_unstable_by(k - 1, by_score_desc);
        idx.truncate(k);
    }
    idx.sort_unstable_by(by_score_desc);
}

/// Streaming [`top_k_into`]: offers one `(score, val)` pair to a bounded
/// best-first buffer held as parallel `keys`/`vals` vectors of at most
/// `k` entries.
///
/// Pairs must be offered in ascending position order. Equal keys then
/// rank by position, so offering every `(x[i], i)` for `i = 0..n`
/// leaves `vals` equal to `top_k_into(x, k)` for finite scores. A NaN
/// score ranks as `-inf`: below every finite score, ties by position.
/// The buffer never grows past `k`, so with capacity `k` reserved up
/// front this never allocates. `O(1)` for a rejected pair, `O(k)` for
/// an accepted one.
pub fn top_k_offer<T>(keys: &mut Vec<f32>, vals: &mut Vec<T>, k: usize, score: f32, val: T) {
    let key = if score.is_nan() { f32::NEG_INFINITY } else { score };
    if keys.len() >= k {
        match keys.last() {
            Some(&worst) if key > worst => {
                keys.pop();
                vals.pop();
            }
            _ => return,
        }
    }
    // After every earlier pair with a key >= this one.
    let at = keys.partition_point(|&s| s >= key);
    keys.insert(at, key);
    vals.insert(at, val);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dot_basic() {
        assert_eq!(dot(&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]), 32.0);
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn dot_mismatch_panics() {
        dot(&[1.0], &[1.0, 2.0]);
    }

    #[test]
    fn axpy_accumulates() {
        let mut y = vec![1.0, 1.0];
        axpy(2.0, &[3.0, 4.0], &mut y);
        assert_eq!(y, vec![7.0, 9.0]);
    }

    #[test]
    fn normalize_unit_norm() {
        let mut x = vec![3.0, 4.0];
        normalize(&mut x);
        assert!((norm(&x) - 1.0).abs() < 1e-6);
        assert!((x[0] - 0.6).abs() < 1e-6);
    }

    #[test]
    fn normalize_zero_vector_noop() {
        let mut x = vec![0.0, 0.0];
        normalize(&mut x);
        assert_eq!(x, vec![0.0, 0.0]);
    }

    #[test]
    fn project_ball_only_shrinks() {
        let mut x = vec![3.0, 4.0];
        project_to_ball(&mut x, 1.0);
        assert!((norm(&x) - 1.0).abs() < 1e-6);
        let mut y = vec![0.1, 0.1];
        project_to_ball(&mut y, 1.0);
        assert_eq!(y, vec![0.1, 0.1]);
    }

    #[test]
    fn cosine_bounds_and_zero() {
        assert_eq!(cosine(&[0.0, 0.0], &[1.0, 0.0]), 0.0);
        assert!((cosine(&[1.0, 0.0], &[1.0, 0.0]) - 1.0).abs() < 1e-6);
        assert!((cosine(&[1.0, 0.0], &[-1.0, 0.0]) + 1.0).abs() < 1e-6);
    }

    #[test]
    fn sigmoid_stable_extremes() {
        assert!(sigmoid(100.0) <= 1.0);
        assert!(sigmoid(-100.0) >= 0.0);
        assert!((sigmoid(0.0) - 0.5).abs() < 1e-7);
        assert!(sigmoid(-100.0) < 1e-20);
    }

    #[test]
    fn log_sigmoid_matches_naive_in_safe_range() {
        for &x in &[-5.0f32, -1.0, 0.0, 1.0, 5.0] {
            let naive = sigmoid(x).ln();
            assert!((log_sigmoid(x) - naive).abs() < 1e-5, "x={x}");
        }
    }

    #[test]
    fn softplus_stable() {
        assert!((softplus(0.0) - 2.0f32.ln()).abs() < 1e-6);
        assert!((softplus(100.0) - 100.0).abs() < 1e-3);
        assert!(softplus(-100.0) >= 0.0);
    }

    #[test]
    fn softmax_sums_to_one_and_monotone() {
        let p = softmax(&[1.0, 2.0, 3.0]);
        let s: f32 = p.iter().sum();
        assert!((s - 1.0).abs() < 1e-6);
        assert!(p[2] > p[1] && p[1] > p[0]);
    }

    #[test]
    fn softmax_shift_invariant() {
        let a = softmax(&[1.0, 2.0, 3.0]);
        let b = softmax(&[1001.0, 1002.0, 1003.0]);
        for (x, y) in a.iter().zip(b.iter()) {
            assert!((x - y).abs() < 1e-6);
        }
    }

    #[test]
    fn softmax_empty_ok() {
        assert!(softmax(&[]).is_empty());
    }

    #[test]
    fn softmax_backward_matches_finite_difference() {
        let z = [0.3f32, -1.2, 0.7, 2.0];
        // Loss = Σ c_i p_i with arbitrary weights c.
        let c = [1.0f32, -0.5, 2.0, 0.3];
        let p = softmax(&z);
        let grad = softmax_backward(&p, &c);
        let eps = 1e-3;
        for i in 0..z.len() {
            let mut zp = z;
            zp[i] += eps;
            let mut zm = z;
            zm[i] -= eps;
            let lp: f32 = softmax(&zp).iter().zip(c.iter()).map(|(a, b)| a * b).sum();
            let lm: f32 = softmax(&zm).iter().zip(c.iter()).map(|(a, b)| a * b).sum();
            let fd = (lp - lm) / (2.0 * eps);
            assert!((grad[i] - fd).abs() < 1e-3, "i={i} grad={} fd={fd}", grad[i]);
        }
    }

    #[test]
    fn all_finite_flags_nan_and_inf() {
        assert!(all_finite(&[]));
        assert!(all_finite(&[1.0, -2.0, 0.0]));
        assert!(!all_finite(&[1.0, f32::NAN]));
        assert!(!all_finite(&[f32::INFINITY]));
        assert!(!all_finite(&[f32::NEG_INFINITY, 0.0]));
    }

    #[test]
    fn finite_or_maps_sentinels() {
        assert_eq!(finite_or(2.5, 1.0), 2.5);
        assert_eq!(finite_or(f32::NAN, 1.0), 1.0);
        assert_eq!(finite_or(f32::INFINITY, -3.0), -3.0);
    }

    #[test]
    fn clip_norm_shrinks_and_reports() {
        let mut x = vec![3.0, 4.0];
        assert!(clip_norm(&mut x, 1.0));
        assert!((norm(&x) - 1.0).abs() < 1e-6);
        let mut y = vec![0.1, 0.1];
        assert!(!clip_norm(&mut y, 1.0));
        assert_eq!(y, vec![0.1, 0.1]);
    }

    #[test]
    fn clip_norm_zeroes_non_finite() {
        let mut x = vec![f32::NAN, 3.0, f32::INFINITY];
        assert!(clip_norm(&mut x, 10.0));
        assert_eq!(x, vec![0.0, 3.0, 0.0]);
    }

    #[test]
    fn top_k_deterministic_ties() {
        let idx = top_k_indices(&[1.0, 3.0, 3.0, 2.0], 3);
        assert_eq!(idx, vec![1, 2, 3]);
    }

    #[test]
    fn top_k_into_matches_allocating_version_and_reuses_buffer() {
        let x = [1.0f32, 3.0, 3.0, 2.0, -1.0, 0.5];
        let mut idx = Vec::new();
        for k in 0..=x.len() + 1 {
            top_k_into(&x, k, &mut idx);
            assert_eq!(idx, top_k_indices(&x, k), "k={k}");
        }
        let cap = idx.capacity();
        top_k_into(&x, 2, &mut idx);
        assert_eq!(idx.capacity(), cap, "warm buffer must not reallocate");
    }

    #[test]
    fn top_k_oversized_k_returns_full_order() {
        let idx = top_k_indices(&[1.0, 3.0, 2.0], 10);
        assert_eq!(idx, vec![1, 2, 0]);
        assert!(top_k_indices(&[1.0, 2.0], 0).is_empty());
        assert!(top_k_indices(&[], 3).is_empty());
    }

    #[test]
    fn top_k_offer_ranks_nan_as_neg_infinity_without_growing() {
        let x = [f32::NAN, 1.0, f32::NEG_INFINITY, f32::NAN, 2.0, 1.0];
        let (mut keys, mut vals) = (Vec::with_capacity(4), Vec::with_capacity(4));
        for (i, &s) in x.iter().enumerate() {
            top_k_offer(&mut keys, &mut vals, 4, s, i);
            assert!(keys.len() <= 4 && keys.capacity() == 4, "buffer grew at i={i}");
        }
        // NaN ties with -inf and keeps position order below the finites.
        assert_eq!(vals, vec![4, 1, 5, 0]);
        keys.clear();
        vals.clear();
        top_k_offer(&mut keys, &mut vals, 0, 1.0, 0);
        assert!(vals.is_empty(), "k = 0 keeps nothing");
    }

    #[test]
    #[cfg(not(feature = "fast-math"))]
    fn dot_unroll_matches_scalar_reference() {
        // Lengths straddling the 8-lane boundary, awkward magnitudes.
        for n in 0..21usize {
            let x: Vec<f32> = (0..n).map(|i| 0.1 + i as f32 * 0.37).collect();
            let y: Vec<f32> = (0..n).map(|i| -1.3 + i as f32 * 0.11).collect();
            let mut reference = 0.0f32;
            for (a, b) in x.iter().zip(y.iter()) {
                reference += a * b;
            }
            assert_eq!(dot(&x, &y).to_bits(), reference.to_bits(), "n={n}");
        }
    }

    #[test]
    fn into_variants_match_allocating_versions() {
        let x = [1.5f32, -2.0, 0.25, 7.0, -0.5];
        let y = [0.3f32, 4.0, -1.25, 2.0, 8.0];
        let mut out = [0.0f32; 5];
        add_into(&x, &y, &mut out);
        assert_eq!(out.to_vec(), add(&x, &y));
        sub_into(&x, &y, &mut out);
        assert_eq!(out.to_vec(), sub(&x, &y));
        mul_into(&x, &y, &mut out);
        assert_eq!(out.to_vec(), hadamard(&x, &y));
        scale_assign(-2.5, &x, &mut out);
        let expect: Vec<f32> = x.iter().map(|v| -2.5 * v).collect();
        assert_eq!(out.to_vec(), expect);
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn add_into_mismatch_panics() {
        add_into(&[1.0], &[1.0], &mut [0.0, 0.0]);
    }

    #[test]
    fn argmax_empty_none() {
        assert_eq!(argmax(&[]), None);
        assert_eq!(argmax(&[1.0, 5.0, 2.0]), Some(1));
    }
}
