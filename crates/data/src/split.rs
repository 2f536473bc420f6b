//! Train/test splitting protocols.
//!
//! Two protocols cover what the surveyed papers use:
//!
//! * **ratio split** — each user's interactions are split so that roughly
//!   `test_fraction` of them land in the test set, always keeping at least
//!   one interaction in train (users with a single interaction contribute
//!   nothing to test);
//! * **leave-one-out** — one interaction per user, drawn uniformly with a
//!   seeded RNG, goes to test.
//!
//! Both keep ratings and drop every timestamp: the resulting stores carry
//! no event times. A third, [`systematic_holdout`], exists for the scale
//! scenarios: it is RNG-free and keeps timestamps.
//!
//! All three stream both sides straight into [`ColumnarBuilder`]s in
//! `(user, item)` order, so splitting a ten-million-row store never
//! materializes an intermediate interaction list or sorts one.

use crate::columnar::InteractionMatrix;
use crate::columnar::{ColumnarBuilder, NO_TIMESTAMP};
use crate::ids::UserId;
use kgrec_graph::id32;
use rand::rngs::StdRng;
use rand::Rng;
use rand::SeedableRng;

/// A train/test pair over the same user/item universe.
#[derive(Debug, Clone)]
pub struct Split {
    /// Training interactions.
    pub train: InteractionMatrix,
    /// Held-out test interactions.
    pub test: InteractionMatrix,
}

/// Per-user ratio split; see module docs.
///
/// # Panics
/// Panics unless `0.0 < test_fraction < 1.0`.
pub fn ratio_split(matrix: &InteractionMatrix, test_fraction: f64, seed: u64) -> Split {
    assert!(
        test_fraction > 0.0 && test_fraction < 1.0,
        "ratio_split: test_fraction must be in (0, 1)"
    );
    // At least one interaction always stays in train.
    let n_test = |degree: usize| {
        (((degree as f64) * test_fraction).round() as usize).min(degree.saturating_sub(1))
    };
    let mut rng = StdRng::seed_from_u64(seed);
    stream_split(matrix, false, n_test, |degree, pos| {
        // Shuffle positions and take the head as test.
        pos.extend(0..degree);
        for i in (1..degree).rev() {
            let j = rng.gen_range(0..=i);
            pos.swap(i, j);
        }
        pos.truncate(n_test(degree));
        pos.sort_unstable();
    })
}

/// Leave-one-out split; see module docs. Users with fewer than two
/// interactions stay entirely in train.
pub fn leave_one_out(matrix: &InteractionMatrix, seed: u64) -> Split {
    let mut rng = StdRng::seed_from_u64(seed);
    stream_split(
        matrix,
        false,
        |degree| usize::from(degree >= 2),
        |degree, pos| {
            if degree >= 2 {
                pos.push(rng.gen_range(0..degree));
            }
        },
    )
}

/// RNG-free streaming split for the scale scenarios: of each user's
/// history, every `every_nth` row (positions `every_nth - 1`,
/// `2·every_nth - 1`, …) is held out for test — a `1 / every_nth`
/// hold-out fraction. Users with fewer than two rows stay entirely in
/// train, matching [`ratio_split`]'s floor.
///
/// Ratings and timestamps are carried through unchanged. Deterministic by
/// construction (no seed needed).
///
/// # Panics
/// Panics if `every_nth < 2` (everything would land in one side).
pub fn systematic_holdout(matrix: &InteractionMatrix, every_nth: usize) -> Split {
    assert!(every_nth >= 2, "systematic_holdout: every_nth must be at least 2");
    stream_split(
        matrix,
        true,
        |degree| if degree >= 2 { degree / every_nth } else { 0 },
        |degree, pos| {
            if degree >= 2 {
                pos.extend((every_nth - 1..degree).step_by(every_nth));
            }
        },
    )
}

/// The streaming core of every split. For each user in order,
/// `hold_out(degree, positions)` gets a cleared position buffer and
/// leaves in it, ascending, the history positions that go to test; the
/// user's rows are then pushed, in item order, into the train or test
/// builder. Called once per user, so an RNG it captures is consumed
/// exactly as a per-user loop consumes it. `n_test(degree)` is how many
/// positions `hold_out` leaves for a history that long; it sizes the two
/// item columns up front.
///
/// Ratings pass through (any `NaN` becomes the implicit sentinel);
/// timestamps pass through only when `keep_timestamps` is set.
fn stream_split(
    matrix: &InteractionMatrix,
    keep_timestamps: bool,
    n_test: impl Fn(usize) -> usize,
    mut hold_out: impl FnMut(usize, &mut Vec<usize>),
) -> Split {
    let users = (0..matrix.num_users()).map(|u| UserId(id32(u)));
    let test_rows: usize = users.clone().map(|user| n_test(matrix.user_degree(user))).sum();
    let mut train = ColumnarBuilder::new(matrix.num_users(), matrix.num_items());
    let mut test = ColumnarBuilder::new(matrix.num_users(), matrix.num_items());
    train.reserve(matrix.num_interactions() - test_rows);
    test.reserve(test_rows);
    let mut held = Vec::new();
    for user in users {
        let items = matrix.items_of(user);
        let ratings = matrix.ratings_of(user);
        let stamps = matrix.timestamps_of(user);
        held.clear();
        hold_out(items.len(), &mut held);
        debug_assert_eq!(held.len(), n_test(items.len()), "hold_out disagrees with n_test");
        let mut next_held = held.iter().copied().peekable();
        for (p, &item) in items.iter().enumerate() {
            let rating = if ratings[p].is_nan() { None } else { Some(ratings[p]) };
            let timestamp = (keep_timestamps && stamps[p] != NO_TIMESTAMP).then_some(stamps[p]);
            let side = if next_held.next_if_eq(&p).is_some() { &mut test } else { &mut train };
            side.push(user, item, rating, timestamp);
        }
    }
    Split { train: train.finish(), test: test.finish() }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::ItemId;
    use crate::interactions::Interaction;

    fn dense_matrix(users: usize, items_per_user: usize) -> InteractionMatrix {
        let mut v = Vec::new();
        for u in 0..users {
            for i in 0..items_per_user {
                v.push(Interaction::implicit(UserId(u as u32), ItemId(i as u32)));
            }
        }
        InteractionMatrix::from_interactions(users, items_per_user, &v)
    }

    #[test]
    fn ratio_split_partitions_interactions() {
        let m = dense_matrix(10, 10);
        let s = ratio_split(&m, 0.2, 1);
        assert_eq!(s.train.num_interactions() + s.test.num_interactions(), 100);
        // No overlap.
        for (u, i, _) in s.test.iter() {
            assert!(!s.train.contains(u, i), "overlap at ({u}, {i})");
        }
    }

    #[test]
    fn ratio_split_keeps_one_in_train() {
        let m = dense_matrix(5, 1);
        let s = ratio_split(&m, 0.5, 2);
        assert_eq!(s.test.num_interactions(), 0);
        assert_eq!(s.train.num_interactions(), 5);
    }

    #[test]
    fn ratio_split_deterministic_per_seed() {
        let m = dense_matrix(8, 6);
        let a = ratio_split(&m, 0.3, 7);
        let b = ratio_split(&m, 0.3, 7);
        let ta: Vec<_> = a.test.iter().map(|(u, i, _)| (u, i)).collect();
        let tb: Vec<_> = b.test.iter().map(|(u, i, _)| (u, i)).collect();
        assert_eq!(ta, tb);
    }

    #[test]
    fn ratio_split_varies_with_seed() {
        let m = dense_matrix(20, 10);
        let a = ratio_split(&m, 0.3, 1);
        let b = ratio_split(&m, 0.3, 2);
        let ta: Vec<_> = a.test.iter().map(|(u, i, _)| (u, i)).collect();
        let tb: Vec<_> = b.test.iter().map(|(u, i, _)| (u, i)).collect();
        assert_ne!(ta, tb);
    }

    #[test]
    fn leave_one_out_one_test_per_eligible_user() {
        let m = dense_matrix(6, 4);
        let s = leave_one_out(&m, 3);
        assert_eq!(s.test.num_interactions(), 6);
        for u in 0..6 {
            assert_eq!(s.test.user_degree(UserId(u)), 1);
            assert_eq!(s.train.user_degree(UserId(u)), 3);
        }
    }

    #[test]
    fn leave_one_out_skips_singletons() {
        let m = dense_matrix(4, 1);
        let s = leave_one_out(&m, 3);
        assert_eq!(s.test.num_interactions(), 0);
        assert_eq!(s.train.num_interactions(), 4);
    }

    #[test]
    fn ratings_survive_split() {
        let m = InteractionMatrix::from_interactions(
            1,
            3,
            &[
                Interaction::rated(UserId(0), ItemId(0), 4.0),
                Interaction::rated(UserId(0), ItemId(1), 2.0),
                Interaction::rated(UserId(0), ItemId(2), 5.0),
            ],
        );
        let s = ratio_split(&m, 0.34, 9);
        let all: Vec<f32> = s.train.iter().chain(s.test.iter()).map(|(_, _, r)| r).collect();
        assert!(all.iter().all(|r| !r.is_nan()));
    }

    #[test]
    fn systematic_holdout_partitions_without_overlap() {
        let m = dense_matrix(7, 10);
        let s = systematic_holdout(&m, 5);
        assert_eq!(s.train.num_interactions() + s.test.num_interactions(), 70);
        for u in 0..7 {
            assert_eq!(s.test.user_degree(UserId(u)), 2, "1/5 of 10 rows held out");
        }
        for (u, i, _) in s.test.iter() {
            assert!(!s.train.contains(u, i), "overlap at ({u}, {i})");
        }
        assert!(s.train.validate().is_empty());
        assert!(s.test.validate().is_empty());
    }

    #[test]
    fn systematic_holdout_skips_singletons_and_keeps_payload() {
        let m = InteractionMatrix::from_interactions(
            2,
            4,
            &[
                Interaction {
                    user: UserId(0),
                    item: ItemId(1),
                    rating: Some(3.0),
                    timestamp: Some(7),
                },
                Interaction::implicit(UserId(1), ItemId(0)),
                Interaction::rated(UserId(1), ItemId(2), 4.0),
            ],
        );
        let s = systematic_holdout(&m, 2);
        // User 0 is a singleton: stays in train, payload intact.
        assert_eq!(s.train.items_of(UserId(0)), &[ItemId(1)]);
        assert_eq!(s.train.ratings_of(UserId(0)), &[3.0]);
        assert_eq!(s.train.timestamps_of(UserId(0)), &[7]);
        // User 1: second row held out.
        assert_eq!(s.train.items_of(UserId(1)), &[ItemId(0)]);
        assert_eq!(s.test.items_of(UserId(1)), &[ItemId(2)]);
        assert_eq!(s.test.ratings_of(UserId(1)), &[4.0]);
    }

    #[test]
    fn systematic_holdout_is_deterministic() {
        let m = dense_matrix(9, 6);
        let a = systematic_holdout(&m, 3);
        let b = systematic_holdout(&m, 3);
        assert_eq!(a.train.digest(), b.train.digest());
        assert_eq!(a.test.digest(), b.test.digest());
    }
}
