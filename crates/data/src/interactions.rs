//! One observed entry of the user feedback matrix `R` (survey Section 3).
//!
//! `R_{ij} = 1` when an implicit interaction between user `u_i` and item
//! `v_j` was observed. An [`Interaction`] is one such observation; the
//! matrix that holds them is [`crate::InteractionMatrix`], the columnar
//! store of [`crate::columnar`]. The tests below pin that matrix's
//! accessors on a toy `R`.

use crate::ids::{ItemId, UserId};

/// One observed user–item interaction, optionally carrying an explicit
/// rating (e.g. the 1–5 stars of MovieLens) and a timestamp for the
/// sequential models.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Interaction {
    /// The interacting user.
    pub user: UserId,
    /// The interacted item.
    pub item: ItemId,
    /// Explicit rating when the dataset has one.
    pub rating: Option<f32>,
    /// Event time when the dataset has one (arbitrary monotone units).
    pub timestamp: Option<u64>,
}

impl Interaction {
    /// An implicit interaction with no rating or timestamp.
    pub fn implicit(user: UserId, item: ItemId) -> Self {
        Self { user, item, rating: None, timestamp: None }
    }

    /// An explicit interaction with a rating.
    pub fn rated(user: UserId, item: ItemId, rating: f32) -> Self {
        Self { user, item, rating: Some(rating), timestamp: None }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::InteractionMatrix;

    fn toy() -> InteractionMatrix {
        InteractionMatrix::from_interactions(
            3,
            4,
            &[
                Interaction::implicit(UserId(0), ItemId(1)),
                Interaction::rated(UserId(0), ItemId(3), 5.0),
                Interaction::implicit(UserId(2), ItemId(1)),
                Interaction::implicit(UserId(2), ItemId(0)),
            ],
        )
    }

    #[test]
    fn shapes_and_counts() {
        let m = toy();
        assert_eq!(m.num_users(), 3);
        assert_eq!(m.num_items(), 4);
        assert_eq!(m.num_interactions(), 4);
    }

    #[test]
    fn user_major_access() {
        let m = toy();
        assert_eq!(m.items_of(UserId(0)), &[ItemId(1), ItemId(3)]);
        assert_eq!(m.items_of(UserId(1)), &[] as &[ItemId]);
        assert_eq!(m.items_of(UserId(2)), &[ItemId(0), ItemId(1)]);
        assert_eq!(m.user_degree(UserId(2)), 2);
    }

    #[test]
    fn item_major_access() {
        let m = toy();
        assert_eq!(m.users_of(ItemId(1)), &[UserId(0), UserId(2)]);
        assert_eq!(m.users_of(ItemId(2)), &[] as &[UserId]);
        assert_eq!(m.item_degree(ItemId(1)), 2);
    }

    #[test]
    fn ratings_aligned_with_items() {
        let m = toy();
        let r = m.ratings_of(UserId(0));
        assert!(r[0].is_nan());
        assert_eq!(r[1], 5.0);
    }

    #[test]
    fn contains_binary_search() {
        let m = toy();
        assert!(m.contains(UserId(0), ItemId(3)));
        assert!(!m.contains(UserId(1), ItemId(0)));
    }

    #[test]
    fn duplicates_collapsed() {
        let m = InteractionMatrix::from_interactions(
            1,
            2,
            &[
                Interaction::implicit(UserId(0), ItemId(1)),
                Interaction::implicit(UserId(0), ItemId(1)),
            ],
        );
        assert_eq!(m.num_interactions(), 1);
    }

    #[test]
    fn iter_covers_everything() {
        let m = toy();
        assert_eq!(m.iter().count(), 4);
        assert!(m.iter().any(|(u, i, r)| u == UserId(0) && i == ItemId(3) && r == 5.0));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_rejected() {
        InteractionMatrix::from_interactions(1, 1, &[Interaction::implicit(UserId(1), ItemId(0))]);
    }

    #[test]
    fn popularity_vector() {
        let m = toy();
        assert_eq!(m.item_popularity(), vec![1, 2, 0, 1]);
    }

    #[test]
    fn append_merges_batches() {
        let m = toy();
        let grown = m.append(&[
            Interaction::implicit(UserId(1), ItemId(2)),
            Interaction::rated(UserId(0), ItemId(3), 1.0), // loses to existing
        ]);
        assert_eq!(grown.num_interactions(), 5);
        assert_eq!(grown.items_of(UserId(1)), &[ItemId(2)]);
        assert_eq!(grown.ratings_of(UserId(0))[1], 5.0);
    }
}
