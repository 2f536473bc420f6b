//! Property tests pinning the kernel-layer rewrites to their allocating
//! predecessors, bit for bit.
//!
//! The PR 5 kernel work (unrolled dot, `*_into` vector ops, blocked
//! matmul/transpose, select-based top-K, sparse `Dense` paths, fused KGE
//! score kernels, batched trainer) is only safe because every rewrite is
//! bitwise-identical to the code it replaced — the golden eval transcript
//! depends on it. Each property here re-implements the reference
//! semantics naively and compares with `to_bits`, so any future
//! "optimization" that drifts even one ULP fails loudly. (The trainer's
//! reference is the frozen-minibatch algorithm of DESIGN.md §10, not the
//! retired per-pair SGD loop.)
//!
//! TransH/TransD fused scores have no public accessors for their normal/
//! projection tables, so their bit-identity is pinned by the golden
//! transcript and the in-crate gradcheck tests instead.

use kgrec_graph::KgBuilder;
use kgrec_kge::trainer::{corrupt, train, TrainConfig};
use kgrec_kge::{DistMult, GradBatch, KgeModel, TransE, TransR};
use kgrec_linalg::{simd, vector, Activation, Dense, Matrix};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::cmp::Ordering;

/// Values with planted exact ±0.0 — the removed `a == 0.0` matmul branch
/// and the skipped-zero gradient paths must stay bit-safe around them.
fn arb_val() -> impl Strategy<Value = f32> {
    (0u8..8, -5.0f32..5.0).prop_map(|(sel, v)| match sel {
        0 => 0.0,
        1 => -0.0,
        _ => v,
    })
}

fn arb_vec(n: usize) -> impl Strategy<Value = Vec<f32>> {
    prop::collection::vec(arb_val(), n)
}

/// [`arb_val`]s; with `plant`, about one value in eight is `+inf`,
/// `-inf` or NaN instead.
fn arb_vec_with_specials(n: usize, plant: bool) -> impl Strategy<Value = Vec<f32>> {
    let specials = if plant { 0..24u8 } else { 3..24u8 };
    prop::collection::vec(
        (specials, arb_val()).prop_map(|(sel, v)| match sel {
            0 => f32::INFINITY,
            1 => f32::NEG_INFINITY,
            2 => f32::NAN,
            _ => v,
        }),
        n,
    )
}

/// Bitwise equal, or both NaN: the bit identity the kernels promise, with
/// a NaN's payload left open.
fn same_value(a: f32, b: f32) -> bool {
    a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan())
}

fn bits(xs: &[f32]) -> Vec<u32> {
    xs.iter().map(|x| x.to_bits()).collect()
}

/// `n` values drawn from `rng`, one in four an exact `+0.0` or `-0.0`.
fn planted(rng: &mut StdRng, n: usize) -> Vec<f32> {
    (0..n)
        .map(|_| match rng.gen_range(0u8..8) {
            0 => 0.0,
            1 => -0.0,
            _ => rng.gen_range(-2.0f32..2.0),
        })
        .collect()
}

/// A strictly ascending active list over `0..input`: empty, full, a few
/// columns (SHINE's regime), or about half of them.
fn active_list(rng: &mut StdRng, input: usize, sel: u8) -> Vec<usize> {
    match sel {
        0 => Vec::new(),
        1 => (0..input).collect(),
        2 => {
            let mut a: Vec<usize> = (0..5).map(|_| rng.gen_range(0..input)).collect();
            a.sort_unstable();
            a.dedup();
            a
        }
        _ => (0..input).filter(|_| rng.gen_range(0u8..2) == 0).collect(),
    }
}

/// The full-sort predecessor of `vector::top_k_indices`.
fn top_k_by_full_sort(x: &[f32], k: usize) -> Vec<usize> {
    let mut idx: Vec<usize> = (0..x.len()).collect();
    idx.sort_by(|&a, &b| x[b].partial_cmp(&x[a]).unwrap_or(Ordering::Equal).then(a.cmp(&b)));
    idx.truncate(k);
    idx
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn dot_matches_scalar_reference(n in 0usize..40, seed in 0u64..1000) {
        let mut rng = StdRng::seed_from_u64(seed);
        let a: Vec<f32> = (0..n).map(|_| rng.gen_range(-3.0f32..3.0)).collect();
        let b: Vec<f32> = (0..n).map(|_| rng.gen_range(-3.0f32..3.0)).collect();
        let mut reference = 0.0f32;
        for i in 0..n {
            reference += a[i] * b[i];
        }
        prop_assert_eq!(vector::dot(&a, &b).to_bits(), reference.to_bits());
    }

    #[test]
    fn into_variants_match_allocating(
        (a, b) in (0usize..32).prop_flat_map(|n| (arb_vec(n), arb_vec(n))),
    ) {
        let n = a.len();
        let mut out = vec![1.0f32; n]; // nonzero: outputs must be overwritten
        vector::add_into(&a, &b, &mut out);
        prop_assert_eq!(bits(&out), bits(&vector::add(&a, &b)));
        vector::sub_into(&a, &b, &mut out);
        prop_assert_eq!(bits(&out), bits(&vector::sub(&a, &b)));
        vector::mul_into(&a, &b, &mut out);
        prop_assert_eq!(bits(&out), bits(&vector::hadamard(&a, &b)));
        let alpha = 2.5f32;
        vector::scale_assign(alpha, &a, &mut out);
        let reference: Vec<f32> = a.iter().map(|x| alpha * x).collect();
        prop_assert_eq!(bits(&out), bits(&reference));
    }

    #[test]
    fn blocked_matmul_matches_naive(
        r in 1usize..9, k in 1usize..80, c in 1usize..9,
        seed in 0u64..64,
    ) {
        // k spans past K_BLOCK=64 so multi-block accumulation is covered.
        let mut runner = StdRng::seed_from_u64(seed);
        let plant = |rng: &mut StdRng, n: usize| -> Vec<f32> {
            (0..n)
                .map(|_| match rng.gen_range(0u8..4) {
                    0 => 0.0,
                    1 => -0.0,
                    _ => rng.gen_range(-4.0f32..4.0),
                })
                .collect()
        };
        let a = Matrix::from_vec(r, k, plant(&mut runner, r * k));
        let b = Matrix::from_vec(k, c, plant(&mut runner, k * c));
        let out = a.matmul(&b);
        let mut reference = vec![0.0f32; r * c];
        for i in 0..r {
            for kk in 0..k {
                for j in 0..c {
                    reference[i * c + j] += a.get(i, kk) * b.get(kk, j);
                }
            }
        }
        prop_assert_eq!(bits(out.data()), bits(&reference));
    }

    #[test]
    fn blocked_transpose_matches_naive(r in 1usize..70, c in 1usize..70, seed in 0u64..64) {
        let mut rng = StdRng::seed_from_u64(seed);
        let a = Matrix::from_vec(r, c, (0..r * c).map(|_| rng.gen_range(-5.0f32..5.0)).collect());
        let t = a.transpose();
        prop_assert_eq!(t.rows(), c);
        prop_assert_eq!(t.cols(), r);
        for i in 0..r {
            for j in 0..c {
                prop_assert_eq!(t.get(j, i).to_bits(), a.get(i, j).to_bits());
            }
        }
    }

    #[test]
    fn top_k_select_matches_full_sort(
        xs in prop::collection::vec(
            (0u8..10, -3.0f32..3.0).prop_map(|(sel, v)| match sel {
                0..=2 => 1.0,
                3..=5 => 0.5,
                6 | 7 => -1.0,
                _ => v,
            }),
            0..50,
        ),
        k in 0usize..55,
    ) {
        // Heavy ties on purpose: the select path must keep the
        // tie-break-by-index order of the full sort exactly.
        prop_assert_eq!(vector::top_k_indices(&xs, k), top_k_by_full_sort(&xs, k));
    }

    #[test]
    fn dot8_rows_match_dot(
        (x, rows) in (0usize..68, any::<bool>()).prop_flat_map(|(n, plant)| {
            let row = move || arb_vec_with_specials(n, plant);
            (row(), prop::collection::vec(row(), simd::LANES))
        }),
    ) {
        // Lengths 0..=67 cover every remainder mod 8 and mod 4 around the
        // blocks. Half the cases are finite; in the rest, planted ±inf and
        // NaN make inf - inf, inf * 0 and NaN chains reach the lanes.
        let got = simd::dot8(&x, std::array::from_fn(|c| rows[c].as_slice()));
        for (c, row) in rows.iter().enumerate() {
            let mut sequential = 0.0f32;
            for i in 0..x.len() {
                sequential += x[i] * row[i];
            }
            prop_assert!(same_value(got[c], sequential), "row {}: {} vs scalar {}", c, got[c], sequential);
            prop_assert!(same_value(got[c], simd::dot(&x, row)), "row {}: {} vs dot", c, got[c]);
        }
    }

    #[test]
    fn streaming_top_k_matches_select(
        xs in prop::collection::vec(
            (0u8..13, -3.0f32..3.0).prop_map(|(sel, v)| match sel {
                0..=2 => 1.0,
                3 => 0.0,
                4 => -0.0,
                5 | 6 => -1.0,
                7 => f32::NAN,
                8 => f32::INFINITY,
                9 => f32::NEG_INFINITY,
                _ => v,
            }),
            0..50,
        ),
        k_sel in 0u8..4,
        k_any in 0usize..55,
    ) {
        // Heavy ties, ±0.0, ±inf, NaN, and the k == 1 / k == n / k > n
        // edges. A NaN ranks as -inf, tied with it by position.
        let k = match k_sel {
            0 => 1,
            1 => xs.len(),
            2 => xs.len() + 3,
            _ => k_any,
        };
        let (mut keys, mut vals) = (Vec::with_capacity(k), Vec::with_capacity(k));
        for (i, &s) in xs.iter().enumerate() {
            vector::top_k_offer(&mut keys, &mut vals, k, s, i);
        }
        let ranked: Vec<f32> =
            xs.iter().map(|&s| if s.is_nan() { f32::NEG_INFINITY } else { s }).collect();
        let mut want = Vec::new();
        vector::top_k_into(&ranked, k, &mut want);
        prop_assert_eq!(&vals, &want);
        prop_assert_eq!(&vals, &top_k_by_full_sort(&ranked, k));
    }

    #[test]
    fn dense_sparse_paths_match_dense(
        input in 1usize..12,
        output in 1usize..8,
        seed in 0u64..1000,
        active_bits in prop::collection::vec(any::<bool>(), 12),
    ) {
        let active: Vec<usize> = (0..input).filter(|&j| active_bits[j]).collect();
        let x: Vec<f32> = (0..input).map(|j| if active_bits[j] { 1.0 } else { 0.0 }).collect();
        let mut rng = StdRng::seed_from_u64(seed);
        let mut dense = Dense::new(&mut rng, input, output, Activation::Sigmoid);
        let mut sparse = dense.clone();

        let y_dense = dense.forward(&x);
        let y_sparse = sparse.forward_sparse(&active);
        prop_assert_eq!(bits(&y_dense), bits(&y_sparse));

        let dl: Vec<f32> = y_dense.iter().map(|y| y - 0.25).collect();
        dense.backward(&dl);
        sparse.backward_sparse(&dl);
        dense.step_sgd(0.05, 0.0);
        sparse.step_sgd_sparse(0.05, &active);
        prop_assert_eq!(bits(dense.weights().data()), bits(sparse.weights().data()));
        prop_assert_eq!(bits(dense.bias()), bits(sparse.bias()));
    }

    #[test]
    fn fused_dense_backward_step_matches_unfused(
        wide in 1usize..701,
        narrow in 1usize..17,
        swap in any::<bool>(),
        seed in 0u64..500,
        l2_sel in 0u8..3,
    ) {
        // Both orientations of SHINE's layers: up to 700 wide in and 16
        // out (encoder), or 16 in and up to 700 out (decoder).
        let (input, output) = if swap { (narrow, wide) } else { (wide, narrow) };
        let l2 = match l2_sel {
            0 => 0.0f32,
            1 => 1e-5,
            _ => 0.02,
        };
        let mut rng = StdRng::seed_from_u64(seed);
        let mut unfused = Dense::new(&mut rng, input, output, Activation::Sigmoid);
        let w = planted(&mut rng, input * output);
        unfused.weights_mut().data_mut().copy_from_slice(&w);
        let mut fused = unfused.clone();
        // Two rounds: the second proves the reused scratch buffers and the
        // fused step left no stale state behind.
        for _ in 0..2 {
            let x = planted(&mut rng, input);
            let y = unfused.forward(&x);
            let _ = fused.forward(&x);
            let plant = planted(&mut rng, output);
            let dl: Vec<f32> =
                y.iter().zip(&plant).map(|(v, p)| if *p == 0.0 { *p } else { v - 0.3 }).collect();
            let dx_a = unfused.backward(&dl);
            unfused.step_sgd(0.05, l2);
            let dx_b = fused.backward_step_sgd(&dl, 0.05, l2);
            prop_assert_eq!(bits(&dx_a), bits(&dx_b));
            prop_assert_eq!(bits(unfused.weights().data()), bits(fused.weights().data()));
            prop_assert_eq!(bits(unfused.bias()), bits(fused.bias()));
        }
    }

    #[test]
    fn fused_sparse_backward_step_matches_unfused(
        input in 1usize..701,
        output in 1usize..17,
        seed in 0u64..500,
        l2_sel in 0u8..3,
        active_sel in (0u8..4, 0u8..4),
    ) {
        let l2 = match l2_sel {
            0 => 0.0f32,
            1 => 1e-5,
            _ => 0.02,
        };
        let mut rng = StdRng::seed_from_u64(seed);
        let mut unfused = Dense::new(&mut rng, input, output, Activation::Tanh);
        let w = planted(&mut rng, input * output);
        unfused.weights_mut().data_mut().copy_from_slice(&w);
        let mut fused = unfused.clone();
        // Two rounds with independent active lists, so the saved-weights
        // buffer is reused across lists of different lengths.
        for sel in [active_sel.0, active_sel.1] {
            let active = active_list(&mut rng, input, sel);
            let y = unfused.forward_sparse(&active);
            let _ = fused.forward_sparse(&active);
            let plant = planted(&mut rng, output);
            let dl: Vec<f32> =
                y.iter().zip(&plant).map(|(v, p)| if *p == 0.0 { *p } else { 0.7 - v }).collect();
            unfused.backward_sparse(&dl);
            unfused.step_sgd(0.05, l2);
            fused.backward_sparse_step_sgd(&dl, 0.05, l2);
            prop_assert_eq!(bits(unfused.weights().data()), bits(fused.weights().data()));
            prop_assert_eq!(bits(unfused.bias()), bits(fused.bias()));
        }
    }

    #[test]
    fn matvec_into_matches_per_row_dot(rows in 0usize..26, cols in 0usize..40, seed in 0u64..500) {
        // 0..=25 rows: every remainder mod 8 around the eight-row blocks.
        let mut rng = StdRng::seed_from_u64(seed);
        let a = Matrix::from_vec(rows, cols, planted(&mut rng, rows * cols));
        let x = planted(&mut rng, cols);
        let mut y = vec![f32::NAN; rows];
        a.matvec_into(&x, &mut y);
        let want: Vec<f32> = (0..rows).map(|r| vector::dot(a.row(r), &x)).collect();
        prop_assert_eq!(bits(&y), bits(&want));
    }

    #[test]
    fn forward_on_reused_layer_matches_fresh_clone(
        input in 1usize..40,
        output in 1usize..20,
        seed in 0u64..500,
        act_sel in 0u8..5,
        sparse_first in any::<bool>(),
    ) {
        let act = [
            Activation::Identity,
            Activation::Sigmoid,
            Activation::Tanh,
            Activation::Relu,
            Activation::Softplus,
        ][usize::from(act_sel)];
        let mut rng = StdRng::seed_from_u64(seed);
        let mut reused = Dense::new(&mut rng, input, output, act);
        let mut fresh = reused.clone();
        // The first pass leaves its output in the cached buffers the
        // second one overwrites.
        if sparse_first {
            let active = active_list(&mut rng, input, 3);
            let _ = reused.forward_sparse(&active);
        } else {
            let _ = reused.forward(&planted(&mut rng, input));
        }
        let x = planted(&mut rng, input);
        let y_reused = reused.forward(&x);
        let y_fresh = fresh.forward(&x);
        prop_assert_eq!(bits(&y_reused), bits(&y_fresh));
        // The cache the second pass left must drive backward identically.
        let dl: Vec<f32> = y_fresh.iter().map(|v| v - 0.5).collect();
        prop_assert_eq!(bits(&reused.backward(&dl)), bits(&fresh.backward(&dl)));
    }

    #[test]
    fn transe_fused_score_matches_reference(seed in 0u64..500) {
        let mut rng = StdRng::seed_from_u64(seed);
        let m = TransE::new(&mut rng, 6, 3, 9, 1.0);
        for (h, r, t) in [(0u32, 0u32, 1u32), (2, 1, 3), (4, 2, 5)] {
            let hv = m.entity_embedding(kgrec_graph::EntityId(h));
            let rv = m.relation_embedding(kgrec_graph::RelationId(r));
            let tv = m.entity_embedding(kgrec_graph::EntityId(t));
            let mut reference = 0.0f32;
            for i in 0..hv.len() {
                let d = hv[i] + rv[i] - tv[i];
                reference += d * d;
            }
            let got = m.distance(
                kgrec_graph::EntityId(h),
                kgrec_graph::RelationId(r),
                kgrec_graph::EntityId(t),
            );
            prop_assert_eq!(got.to_bits(), reference.to_bits());
        }
    }

    #[test]
    fn distmult_fused_score_matches_reference(seed in 0u64..500) {
        let mut rng = StdRng::seed_from_u64(seed);
        let m = DistMult::new(&mut rng, 6, 3, 9);
        let (h, r, t) = (kgrec_graph::EntityId(1), kgrec_graph::RelationId(2), kgrec_graph::EntityId(4));
        let hv = m.entity_embedding(h);
        let rv = m.relation_embedding(r);
        let tv = m.entity_embedding(t);
        let mut reference = 0.0f32;
        for i in 0..hv.len() {
            reference += hv[i] * rv[i] * tv[i];
        }
        prop_assert_eq!(m.score(h, r, t).to_bits(), reference.to_bits());
    }

    #[test]
    fn transr_fused_score_matches_materialized(seed in 0u64..500) {
        let mut rng = StdRng::seed_from_u64(seed);
        let m = TransR::new(&mut rng, 6, 3, 7, 4, 1.0);
        let (h, r, t) = (kgrec_graph::EntityId(0), kgrec_graph::RelationId(1), kgrec_graph::EntityId(3));
        let proj = m.projection(r);
        let mh = proj.matvec(m.entity_embedding(h));
        let mt = proj.matvec(m.entity_embedding(t));
        let rv = m.relation_embedding(r);
        let mut reference = 0.0f32;
        for i in 0..rv.len() {
            let v = mh[i] + rv[i] - mt[i];
            reference += v * v;
        }
        prop_assert_eq!(m.distance(h, r, t).to_bits(), reference.to_bits());
    }

    #[test]
    fn batched_trainer_matches_frozen_minibatch_reference(seed in 0u64..40, train_seed in 0u64..40) {
        // 90 entities × 3 ring relations = 270 triples: more than one
        // 256-pair chunk per epoch, so the chunk-boundary re-freeze and
        // the 64-pair sub-batch application order are both exercised.
        let mut b = KgBuilder::new();
        let ty = b.entity_type("t");
        let n = 90usize;
        let es: Vec<_> = (0..n).map(|i| b.entity(&format!("e{i}"), ty)).collect();
        let rels = [b.relation("r0"), b.relation("r1"), b.relation("r2")];
        for i in 0..n {
            for (k, &r) in rels.iter().enumerate() {
                b.triple(es[i], r, es[(i + k + 1) % n]);
            }
        }
        let g = b.build(false);
        let config = TrainConfig { epochs: 3, learning_rate: 0.05, seed: train_seed, threads: None };

        let mut rng = StdRng::seed_from_u64(seed);
        let mut batched = TransE::new(&mut rng, g.num_entities(), g.num_relations(), 8, 1.0);
        let mut reference = batched.clone();

        let curve = train(&mut batched, &g, &config);

        // Naive re-implementation of the deterministic batched semantics:
        // shuffle, corrupt in triple order, then per 256-pair chunk record
        // every gradient against the *chunk-start* parameters and apply
        // the 64-pair sub-batches in index order. Must be RNG-, loss- and
        // parameter-identical at every thread count.
        let mut trng = StdRng::seed_from_u64(config.seed);
        let mut order: Vec<usize> = (0..g.num_triples()).collect();
        let mut ref_curve = Vec::new();
        for _ in 0..config.epochs {
            for i in (1..order.len()).rev() {
                let j = trng.gen_range(0..=i);
                order.swap(i, j);
            }
            let mut total = 0.0f64;
            for chunk in order.chunks(256) {
                let pairs: Vec<_> = chunk
                    .iter()
                    .map(|&idx| {
                        let pos = g.triple_at(idx);
                        (pos, corrupt(&g, pos, &mut trng))
                    })
                    .collect();
                let frozen = reference.clone();
                for sub in pairs.chunks(64) {
                    let mut gb = GradBatch::new();
                    for &(pos, neg) in sub {
                        total += f64::from(frozen.grad_pair(pos, neg, &mut gb));
                    }
                    reference.apply_grads(&gb, config.learning_rate);
                }
            }
            reference.post_epoch();
            ref_curve.push((total / order.len().max(1) as f64) as f32);
        }

        prop_assert_eq!(bits(&curve), bits(&ref_curve));
        for e in 0..g.num_entities() {
            let eid = kgrec_graph::EntityId(e as u32);
            prop_assert_eq!(
                bits(batched.entity_embedding(eid)),
                bits(reference.entity_embedding(eid))
            );
        }
    }
}
