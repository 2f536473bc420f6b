//! Evaluation protocols: CTR prediction and top-K recommendation.
//!
//! These are the two protocols the surveyed papers report. The CTR
//! protocol scores labeled user–item pairs (positives from the test split
//! plus sampled negatives) and reports AUC / accuracy; the top-K protocol
//! ranks the full catalog per user, excludes training positives, and
//! reports Precision/Recall/NDCG/HitRate at the requested cutoffs plus
//! MRR.
//!
//! Both protocols have `_par` variants that split the work (pairs /
//! users) across the deterministic worker pool of [`kgrec_linalg::par`];
//! reductions run in fixed input order, so the parallel reports are
//! bit-identical to the serial ones at any thread count.

use crate::metrics;
use crate::recommender::Recommender;
use kgrec_data::negative::LabeledPair;
use kgrec_data::{InteractionMatrix, UserId};
use kgrec_graph::id32;
use kgrec_linalg::par;

/// CTR-protocol result.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CtrReport {
    /// Area under the ROC curve.
    pub auc: f64,
    /// Accuracy at the 0.5 sigmoid threshold applied to scores.
    pub accuracy: f64,
    /// Number of evaluated pairs.
    pub pairs: usize,
}

/// Top-K protocol result for one cutoff `k`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TopKAtCutoff {
    /// The cutoff.
    pub k: usize,
    /// Mean Precision@K over evaluated users.
    pub precision: f64,
    /// Mean Recall@K.
    pub recall: f64,
    /// Mean NDCG@K.
    pub ndcg: f64,
    /// Mean HitRate@K.
    pub hit_rate: f64,
}

/// Top-K protocol result.
#[derive(Debug, Clone, PartialEq)]
pub struct TopKReport {
    /// Per-cutoff metrics, in the requested cutoff order.
    pub cutoffs: Vec<TopKAtCutoff>,
    /// Mean reciprocal rank (cutoff-free).
    pub mrr: f64,
    /// Number of users with at least one test positive.
    pub users_evaluated: usize,
}

/// Runs the CTR protocol serially: scores every labeled pair with the
/// model. Equivalent to [`evaluate_ctr_par`] with one thread.
///
/// Scores are squashed through a sigmoid for the accuracy threshold;
/// AUC is threshold-free so the squashing does not affect it.
pub fn evaluate_ctr<M: Recommender + ?Sized>(model: &M, pairs: &[LabeledPair]) -> CtrReport {
    evaluate_ctr_par(model, pairs, 1)
}

/// Runs the CTR protocol on up to `threads` workers.
///
/// Pairs are scored in index-addressed chunks and reassembled in input
/// order before the (serial) AUC/accuracy reduction, so the report is
/// bit-identical to the serial protocol for any thread count.
pub fn evaluate_ctr_par<M: Recommender + ?Sized>(
    model: &M,
    pairs: &[LabeledPair],
    threads: usize,
) -> CtrReport {
    let score_one =
        |p: &LabeledPair| (kgrec_linalg::vector::sigmoid(model.score(p.user, p.item)), p.positive);
    // Chunked so the per-item pool overhead amortizes over cheap score
    // calls; chunk boundaries cannot affect results because scoring is
    // per-pair and reassembly is in input order.
    let chunks: Vec<&[LabeledPair]> =
        pairs.chunks(pairs.len().div_ceil(threads.max(1) * 4).max(1)).collect();
    let scored: Vec<(f32, bool)> =
        par::par_map(&chunks, threads, |_, c| c.iter().map(score_one).collect::<Vec<_>>())
            .into_iter()
            .flatten()
            .collect();
    CtrReport {
        auc: metrics::auc(&scored).unwrap_or(0.5),
        accuracy: metrics::accuracy(&scored, 0.5).unwrap_or(0.0),
        pairs: scored.len(),
    }
}

/// Runs the full-ranking top-K protocol serially. Equivalent to
/// [`evaluate_topk_par`] with one thread.
///
/// For each user with test positives, the model ranks all items except
/// the user's *training* positives; test items are the relevance set.
pub fn evaluate_topk<M: Recommender + ?Sized>(
    model: &M,
    train: &InteractionMatrix,
    test: &InteractionMatrix,
    ks: &[usize],
) -> TopKReport {
    evaluate_topk_par(model, train, test, ks, 1)
}

/// Runs the full-ranking top-K protocol on up to `threads` workers.
///
/// Each test user with positives is ranked, and its per-user metric
/// contributions computed, as one pool item; the pool balances users of
/// uneven cost. Contributions come back in ascending user order, exactly
/// the serial loop's accumulation order, before the serial mean
/// reduction, so every metric is bit-identical to [`evaluate_topk`]
/// regardless of thread count.
pub fn evaluate_topk_par<M: Recommender + ?Sized>(
    model: &M,
    train: &InteractionMatrix,
    test: &InteractionMatrix,
    ks: &[usize],
    threads: usize,
) -> TopKReport {
    let max_k = ks.iter().copied().max().unwrap_or(0);
    // Per-user contribution: [precision, recall, ndcg, hit] per cutoff,
    // plus MRR.
    let contribute = |user: UserId| -> (Vec<[f64; 4]>, f64) {
        let relevant: Vec<u32> = test.items_of(user).iter().map(|i| i.0).collect();
        let exclude = train.items_of(user);
        let recs = model.recommend(user, max_k.max(model.num_items()), exclude);
        let ranked: Vec<u32> = recs.iter().map(|(i, _)| i.0).collect();
        let cutoffs: Vec<[f64; 4]> = ks
            .iter()
            .map(|&k| {
                [
                    metrics::precision_at_k(&ranked, &relevant, k),
                    metrics::recall_at_k(&ranked, &relevant, k),
                    metrics::ndcg_at_k(&ranked, &relevant, k),
                    metrics::hit_rate_at_k(&ranked, &relevant, k),
                ]
            })
            .collect();
        (cutoffs, metrics::mrr(&ranked, &relevant))
    };
    let users: Vec<UserId> = (0..test.num_users())
        .map(|u| UserId(id32(u)))
        .filter(|&u| test.user_degree(u) > 0)
        .collect();
    let per_user = par::par_map(&users, threads, |_, &u| contribute(u));
    let mut sums: Vec<[f64; 4]> = vec![[0.0; 4]; ks.len()];
    let mut mrr_sum = 0.0f64;
    for (cutoffs, mrr) in per_user {
        for (sum, contribution) in sums.iter_mut().zip(cutoffs) {
            for (s, c) in sum.iter_mut().zip(contribution) {
                *s += c;
            }
        }
        mrr_sum += mrr;
    }
    let denom = users.len().max(1) as f64;
    TopKReport {
        cutoffs: ks
            .iter()
            .zip(sums.iter())
            .map(|(&k, s)| TopKAtCutoff {
                k,
                precision: s[0] / denom,
                recall: s[1] / denom,
                ndcg: s[2] / denom,
                hit_rate: s[3] / denom,
            })
            .collect(),
        mrr: mrr_sum / denom,
        users_evaluated: users.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::CoreError;
    use crate::recommender::TrainContext;
    use crate::taxonomy::{Taxonomy, UsageType};
    use kgrec_data::interactions::Interaction;
    use kgrec_data::ItemId;

    /// An oracle that knows the test set: scores test items highest.
    struct Oracle {
        test: InteractionMatrix,
    }

    impl Recommender for Oracle {
        fn name(&self) -> &'static str {
            "Oracle"
        }
        fn taxonomy(&self) -> Taxonomy {
            Taxonomy {
                method: "Oracle",
                venue: "none",
                year: 2026,
                usage: UsageType::EmbeddingBased,
                techniques: &[],
                reference: 0,
            }
        }
        fn fit(&mut self, _ctx: &TrainContext<'_>) -> Result<(), CoreError> {
            Ok(())
        }
        fn score(&self, user: UserId, item: ItemId) -> f32 {
            if self.test.contains(user, item) {
                10.0
            } else {
                -10.0
            }
        }
        fn num_items(&self) -> usize {
            self.test.num_items()
        }
    }

    fn toy_split() -> (InteractionMatrix, InteractionMatrix) {
        let train = InteractionMatrix::from_interactions(
            2,
            6,
            &[
                Interaction::implicit(UserId(0), ItemId(0)),
                Interaction::implicit(UserId(1), ItemId(1)),
            ],
        );
        let test = InteractionMatrix::from_interactions(
            2,
            6,
            &[
                Interaction::implicit(UserId(0), ItemId(2)),
                Interaction::implicit(UserId(0), ItemId(3)),
                Interaction::implicit(UserId(1), ItemId(4)),
            ],
        );
        (train, test)
    }

    #[test]
    fn oracle_gets_perfect_topk() {
        let (train, test) = toy_split();
        let model = Oracle { test: test.clone() };
        let rep = evaluate_topk(&model, &train, &test, &[2]);
        assert_eq!(rep.users_evaluated, 2);
        let c = rep.cutoffs[0];
        assert!((c.recall - 1.0).abs() < 1e-12, "recall={}", c.recall);
        assert!((c.ndcg - 1.0).abs() < 1e-12);
        assert_eq!(c.hit_rate, 1.0);
        assert_eq!(rep.mrr, 1.0);
        // User 0 has 2 positives, user 1 has 1 -> precision@2 = (1.0 + 0.5)/2.
        assert!((c.precision - 0.75).abs() < 1e-12);
    }

    #[test]
    fn oracle_gets_perfect_ctr() {
        let (train, test) = toy_split();
        let model = Oracle { test: test.clone() };
        let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(1);
        let pairs = kgrec_data::negative::labeled_eval_set(&train, &test, 2, &mut rng);
        let rep = evaluate_ctr(&model, &pairs);
        assert_eq!(rep.auc, 1.0);
        assert!(rep.accuracy > 0.99);
        assert_eq!(rep.pairs, pairs.len());
    }

    #[test]
    fn anti_oracle_gets_zero_auc() {
        let (train, test) = toy_split();
        struct Anti {
            test: InteractionMatrix,
        }
        impl Recommender for Anti {
            fn name(&self) -> &'static str {
                "Anti"
            }
            fn taxonomy(&self) -> Taxonomy {
                Taxonomy {
                    method: "Anti",
                    venue: "none",
                    year: 2026,
                    usage: UsageType::EmbeddingBased,
                    techniques: &[],
                    reference: 0,
                }
            }
            fn fit(&mut self, _ctx: &TrainContext<'_>) -> Result<(), CoreError> {
                Ok(())
            }
            fn score(&self, user: UserId, item: ItemId) -> f32 {
                if self.test.contains(user, item) {
                    -10.0
                } else {
                    10.0
                }
            }
            fn num_items(&self) -> usize {
                self.test.num_items()
            }
        }
        let model = Anti { test: test.clone() };
        let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(2);
        let pairs = kgrec_data::negative::labeled_eval_set(&train, &test, 2, &mut rng);
        let rep = evaluate_ctr(&model, &pairs);
        assert_eq!(rep.auc, 0.0);
    }

    #[test]
    fn parallel_protocols_are_bit_identical_to_serial() {
        let (train, test) = toy_split();
        let model = Oracle { test: test.clone() };
        let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(9);
        let pairs = kgrec_data::negative::labeled_eval_set(&train, &test, 3, &mut rng);
        let ctr_serial = evaluate_ctr(&model, &pairs);
        let topk_serial = evaluate_topk(&model, &train, &test, &[1, 2, 5]);
        for threads in [2, 4, 7] {
            assert_eq!(evaluate_ctr_par(&model, &pairs, threads), ctr_serial);
            assert_eq!(evaluate_topk_par(&model, &train, &test, &[1, 2, 5], threads), topk_serial);
        }
    }

    #[test]
    fn users_without_test_positives_skipped() {
        let train = InteractionMatrix::from_interactions(
            3,
            4,
            &[Interaction::implicit(UserId(0), ItemId(0))],
        );
        let test = InteractionMatrix::from_interactions(
            3,
            4,
            &[Interaction::implicit(UserId(1), ItemId(2))],
        );
        let model = Oracle { test: test.clone() };
        let rep = evaluate_topk(&model, &train, &test, &[1]);
        assert_eq!(rep.users_evaluated, 1);
    }
}
