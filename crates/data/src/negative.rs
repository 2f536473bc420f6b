//! Negative sampling over unobserved items.
//!
//! Implicit-feedback training (BPR and all the CTR-style objectives in the
//! survey) contrasts observed pairs with sampled unobserved pairs
//! `(u, v′)` with `R_{uv′} = 0`. The samplers here draw uniformly from the
//! unobserved set by rejection against the interaction matrix — with the
//! standard guard that a user who has interacted with (almost) every item
//! falls back to an exhaustive scan.

use crate::columnar::InteractionMatrix;
use crate::ids::{ItemId, UserId};
use kgrec_graph::id32;
use rand::Rng;

/// Samples one item not interacted by `user`, uniformly.
///
/// Returns `None` when the user has interacted with every item.
pub fn sample_negative<R: Rng + ?Sized>(
    matrix: &InteractionMatrix,
    user: UserId,
    rng: &mut R,
) -> Option<ItemId> {
    let n = matrix.num_items();
    let deg = matrix.user_degree(user);
    if deg >= n {
        return None;
    }
    // Rejection sampling is efficient while the history is a small
    // fraction of the catalog (always true in recommendation data).
    if deg * 2 < n {
        loop {
            let cand = ItemId(rng.gen_range(0..id32(n)));
            if !matrix.contains(user, cand) {
                return Some(cand);
            }
        }
    }
    // Dense-history fallback: pick uniformly among the complement.
    let k = rng.gen_range(0..n - deg);
    let mut seen = 0usize;
    for i in 0..id32(n) {
        if !matrix.contains(user, ItemId(i)) {
            if seen == k {
                return Some(ItemId(i));
            }
            seen += 1;
        }
    }
    unreachable!("complement size was computed as n - deg > 0")
}

/// Samples `k` negatives for a user (with replacement across draws, each
/// draw uniform over unobserved items). Returns fewer than `k` only when
/// the user has no unobserved items.
pub fn sample_negatives<R: Rng + ?Sized>(
    matrix: &InteractionMatrix,
    user: UserId,
    k: usize,
    rng: &mut R,
) -> Vec<ItemId> {
    (0..k).filter_map(|_| sample_negative(matrix, user, rng)).collect()
}

/// A labeled user–item pair for CTR-style evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LabeledPair {
    /// The user.
    pub user: UserId,
    /// The candidate item.
    pub item: ItemId,
    /// `true` for an observed (positive) interaction.
    pub positive: bool,
}

/// Builds a CTR evaluation set: every test interaction as a positive plus
/// `negatives_per_positive` sampled items the user interacted with in
/// *neither* train nor test.
pub fn labeled_eval_set<R: Rng + ?Sized>(
    train: &InteractionMatrix,
    test: &InteractionMatrix,
    negatives_per_positive: usize,
    rng: &mut R,
) -> Vec<LabeledPair> {
    let mut out = Vec::new();
    for (user, item, _) in test.iter() {
        out.push(LabeledPair { user, item, positive: true });
        let mut drawn = 0usize;
        let mut attempts = 0usize;
        let cap = negatives_per_positive * 50 + 100;
        while drawn < negatives_per_positive && attempts < cap {
            attempts += 1;
            if let Some(neg) = sample_negative(train, user, rng) {
                if !test.contains(user, neg) {
                    out.push(LabeledPair { user, item: neg, positive: false });
                    drawn += 1;
                }
            } else {
                break;
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interactions::Interaction;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn toy() -> InteractionMatrix {
        InteractionMatrix::from_interactions(
            2,
            5,
            &[
                Interaction::implicit(UserId(0), ItemId(0)),
                Interaction::implicit(UserId(0), ItemId(1)),
                Interaction::implicit(UserId(1), ItemId(4)),
            ],
        )
    }

    #[test]
    fn negatives_never_observed() {
        let m = toy();
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..200 {
            let neg = sample_negative(&m, UserId(0), &mut rng).unwrap();
            assert!(!m.contains(UserId(0), neg));
        }
    }

    #[test]
    fn full_history_returns_none() {
        let m = InteractionMatrix::from_interactions(
            1,
            2,
            &[
                Interaction::implicit(UserId(0), ItemId(0)),
                Interaction::implicit(UserId(0), ItemId(1)),
            ],
        );
        let mut rng = StdRng::seed_from_u64(2);
        assert_eq!(sample_negative(&m, UserId(0), &mut rng), None);
    }

    #[test]
    fn dense_history_fallback_uniform_support() {
        // User interacted with 3 of 4 items: only item 2 is free.
        let m = InteractionMatrix::from_interactions(
            1,
            4,
            &[
                Interaction::implicit(UserId(0), ItemId(0)),
                Interaction::implicit(UserId(0), ItemId(1)),
                Interaction::implicit(UserId(0), ItemId(3)),
            ],
        );
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..20 {
            assert_eq!(sample_negative(&m, UserId(0), &mut rng), Some(ItemId(2)));
        }
    }

    #[test]
    fn sample_negatives_count() {
        let m = toy();
        let mut rng = StdRng::seed_from_u64(4);
        assert_eq!(sample_negatives(&m, UserId(1), 3, &mut rng).len(), 3);
    }

    #[test]
    fn labeled_eval_set_composition() {
        let train = toy();
        let test = InteractionMatrix::from_interactions(
            2,
            5,
            &[Interaction::implicit(UserId(0), ItemId(2))],
        );
        let mut rng = StdRng::seed_from_u64(5);
        let set = labeled_eval_set(&train, &test, 2, &mut rng);
        let pos: Vec<_> = set.iter().filter(|p| p.positive).collect();
        let neg: Vec<_> = set.iter().filter(|p| !p.positive).collect();
        assert_eq!(pos.len(), 1);
        assert_eq!(neg.len(), 2);
        // Negatives avoid both train and test positives.
        for p in neg {
            assert!(!train.contains(p.user, p.item));
            assert!(!test.contains(p.user, p.item));
        }
    }
}
