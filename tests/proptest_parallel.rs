//! Property tests for the parallel evaluation engine: the `_par`
//! protocols must be bit-identical to frozen naive loops of the same
//! protocols, and the worker pool an order-preserving identity, for
//! *every* thread count and *every* input — including inputs engineered
//! to produce score ties.

use kgrec_bench::par;
use kgrec_core::error::CoreError;
use kgrec_core::metrics;
use kgrec_core::protocol::{
    evaluate_ctr, evaluate_ctr_par, evaluate_topk, evaluate_topk_par, CtrReport, TopKAtCutoff,
    TopKReport,
};
use kgrec_core::recommender::{Recommender, TrainContext};
use kgrec_core::taxonomy::{Taxonomy, UsageType};
use kgrec_data::negative::LabeledPair;
use kgrec_data::{Interaction, InteractionMatrix, ItemId, UserId};
use kgrec_linalg::vector::sigmoid;
use proptest::prelude::*;

/// Thread counts the equivalence claims are checked at: serial, even
/// splits, and a prime that never divides the work evenly.
const THREAD_COUNTS: [usize; 4] = [1, 2, 4, 7];

/// SplitMix64 finalizer — a pure function of (user, item), so the model
/// is trivially `Sync` and every worker computes identical scores.
fn mix(user: u32, item: u32) -> u64 {
    let mut z = ((u64::from(user) << 32) | u64::from(item)).wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A stateless scorer over hashed (user, item) pairs. `tie_levels > 1`
/// quantizes scores into that many buckets, forcing massive ties so the
/// ranking tie-break (smaller item id first) is actually exercised.
struct MixModel {
    items: usize,
    tie_levels: u32,
}

impl Recommender for MixModel {
    fn name(&self) -> &'static str {
        "MixModel"
    }
    fn taxonomy(&self) -> Taxonomy {
        Taxonomy {
            method: "MixModel",
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
        let h = mix(user.0, item.0);
        if self.tie_levels <= 1 {
            (h % 4096) as f32 / 4096.0
        } else {
            (h % u64::from(self.tie_levels)) as f32
        }
    }
    fn num_items(&self) -> usize {
        self.items
    }
}

fn arb_pairs() -> impl Strategy<Value = Vec<LabeledPair>> {
    prop::collection::vec((0u32..40, 0u32..80, any::<bool>()), 1..200).prop_map(|v| {
        v.into_iter()
            .map(|(u, i, positive)| LabeledPair { user: UserId(u), item: ItemId(i), positive })
            .collect()
    })
}

/// Random train/test interaction matrices over a shared (users, items)
/// shape; every third unique interaction lands in the test split.
fn arb_split() -> impl Strategy<Value = (InteractionMatrix, InteractionMatrix, usize)> {
    (2usize..16, 6usize..40)
        .prop_flat_map(|(nu, ni)| {
            let interactions = prop::collection::btree_set((0..nu as u32, 0..ni as u32), 1..120);
            (Just(nu), Just(ni), interactions)
        })
        .prop_map(|(nu, ni, set)| {
            let (mut train, mut test) = (Vec::new(), Vec::new());
            for (idx, (u, i)) in set.into_iter().enumerate() {
                let interaction = Interaction::implicit(UserId(u), ItemId(i));
                if idx % 3 == 0 {
                    test.push(interaction);
                } else {
                    train.push(interaction);
                }
            }
            (
                InteractionMatrix::from_interactions(nu, ni, &train),
                InteractionMatrix::from_interactions(nu, ni, &test),
                ni,
            )
        })
}

/// The CTR protocol as a naive loop, frozen as the oracle for the
/// protocol's work splitting: score every pair in input order, then
/// compute AUC and accuracy.
fn ctr_oracle(model: &MixModel, pairs: &[LabeledPair]) -> CtrReport {
    let scored: Vec<(f32, bool)> =
        pairs.iter().map(|p| (sigmoid(model.score(p.user, p.item)), p.positive)).collect();
    CtrReport {
        auc: metrics::auc(&scored).unwrap_or(0.5),
        accuracy: metrics::accuracy(&scored, 0.5).unwrap_or(0.0),
        pairs: scored.len(),
    }
}

/// The top-K protocol as a naive loop, frozen as the oracle for the
/// protocol's work splitting: for each user with test positives, in
/// ascending order, rank every item outside the training history,
/// compute the metrics and add them to the running sums.
fn topk_oracle(
    model: &MixModel,
    train: &InteractionMatrix,
    test: &InteractionMatrix,
    ks: &[usize],
) -> TopKReport {
    let max_k = ks.iter().copied().max().unwrap_or(0);
    let mut sums = vec![[0.0f64; 4]; ks.len()];
    let mut mrr = 0.0f64;
    let mut users = 0usize;
    for u in 0..test.num_users() as u32 {
        let user = UserId(u);
        let relevant: Vec<u32> = test.items_of(user).iter().map(|i| i.0).collect();
        if relevant.is_empty() {
            continue;
        }
        let recs = model.recommend(user, max_k.max(model.num_items()), train.items_of(user));
        let ranked: Vec<u32> = recs.iter().map(|(i, _)| i.0).collect();
        for (sum, &k) in sums.iter_mut().zip(ks) {
            sum[0] += metrics::precision_at_k(&ranked, &relevant, k);
            sum[1] += metrics::recall_at_k(&ranked, &relevant, k);
            sum[2] += metrics::ndcg_at_k(&ranked, &relevant, k);
            sum[3] += metrics::hit_rate_at_k(&ranked, &relevant, k);
        }
        mrr += metrics::mrr(&ranked, &relevant);
        users += 1;
    }
    let denom = users.max(1) as f64;
    TopKReport {
        cutoffs: ks
            .iter()
            .zip(&sums)
            .map(|(&k, s)| TopKAtCutoff {
                k,
                precision: s[0] / denom,
                recall: s[1] / denom,
                ndcg: s[2] / denom,
                hit_rate: s[3] / denom,
            })
            .collect(),
        mrr: mrr / denom,
        users_evaluated: users,
    }
}

/// A CTR report as raw bits: the contract is bit-identity, not equality
/// up to `NaN` or signed zero.
fn ctr_bits(r: &CtrReport) -> (u64, u64, usize) {
    (r.auc.to_bits(), r.accuracy.to_bits(), r.pairs)
}

/// A top-K report as raw bits, cutoff by cutoff.
fn topk_bits(r: &TopKReport) -> (Vec<(usize, [u64; 4])>, u64, usize) {
    let cutoffs = r
        .cutoffs
        .iter()
        .map(|c| {
            let metrics = [c.precision, c.recall, c.ndcg, c.hit_rate].map(f64::to_bits);
            (c.k, metrics)
        })
        .collect();
    (cutoffs, r.mrr.to_bits(), r.users_evaluated)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn ctr_report_is_thread_count_invariant(pairs in arb_pairs(), ties in 1u32..5) {
        let model = MixModel { items: 80, tie_levels: ties };
        let oracle = ctr_bits(&ctr_oracle(&model, &pairs));
        prop_assert_eq!(ctr_bits(&evaluate_ctr(&model, &pairs)), oracle);
        for threads in THREAD_COUNTS {
            prop_assert_eq!(ctr_bits(&evaluate_ctr_par(&model, &pairs, threads)), oracle);
        }
    }

    #[test]
    fn topk_report_is_thread_count_invariant(
        (train, test, items) in arb_split(),
        ties in 1u32..5,
    ) {
        let model = MixModel { items, tie_levels: ties };
        let ks = [1usize, 3, 7];
        let oracle = topk_bits(&topk_oracle(&model, &train, &test, &ks));
        prop_assert_eq!(topk_bits(&evaluate_topk(&model, &train, &test, &ks)), oracle.clone());
        for threads in THREAD_COUNTS {
            prop_assert_eq!(
                topk_bits(&evaluate_topk_par(&model, &train, &test, &ks, threads)),
                oracle.clone()
            );
        }
    }

    #[test]
    fn tied_scores_break_toward_smaller_item_id(
        (train, _test, items) in arb_split(),
        ties in 2u32..4,
    ) {
        // With 2–3 score levels almost every adjacent pair ties; the
        // ranking must still be the same total order everywhere.
        let model = MixModel { items, tie_levels: ties };
        for u in 0..train.num_users() as u32 {
            let recs = model.recommend(UserId(u), items, &[]);
            for w in recs.windows(2) {
                let ((a_item, a_score), (b_item, b_score)) = (w[0], w[1]);
                prop_assert!(
                    a_score > b_score || (a_score == b_score && a_item.0 < b_item.0),
                    "user {}: ({:?}, {}) before ({:?}, {}) breaks the tie order",
                    u, a_item, a_score, b_item, b_score
                );
            }
        }
    }

    #[test]
    fn par_map_is_an_order_preserving_identity(
        items in prop::collection::vec(-1.0e6f64..1.0e6, 0..300),
        threads in 1usize..9,
    ) {
        let indexed = par::par_map(&items, threads, |i, &x| (i, x));
        let expected: Vec<(usize, f64)> = items.iter().copied().enumerate().collect();
        prop_assert_eq!(indexed, expected);
    }
}
