//! Helpers shared across the model implementations.

use kgrec_core::taxonomy::{table3, Taxonomy, UsageType};
use kgrec_data::{InteractionMatrix, UserId};
use rand::Rng;

/// Looks up a method's Table 3 classification by name.
///
/// # Panics
/// Panics when the method is not in the survey's table — implemented
/// methods must stay in sync with the taxonomy.
pub fn taxonomy_of(method: &str) -> Taxonomy {
    table3()
        .into_iter()
        .find(|t| t.method == method)
        .unwrap_or_else(|| panic!("method {method:?} missing from Table 3"))
}

/// Taxonomy stub for the KG-free baselines (not part of Table 3).
pub fn baseline_taxonomy(method: &'static str) -> Taxonomy {
    Taxonomy {
        method,
        venue: "baseline",
        year: 0,
        usage: UsageType::EmbeddingBased,
        techniques: &[],
        reference: 0,
    }
}

/// Samples a uniformly random observed `(user, item)` training pair.
/// Returns `None` for an empty matrix.
pub fn sample_observed<R: Rng + ?Sized>(
    train: &InteractionMatrix,
    rng: &mut R,
) -> Option<(UserId, kgrec_data::ItemId)> {
    if train.num_interactions() == 0 {
        return None;
    }
    // Sample users proportionally to their degree via a global index: the
    // draw is row `k` of the user-major layout, and its user is the last
    // one whose offset is `<= k` (zero-degree users share an offset with
    // their successor, so they are never picked).
    let k = rng.gen_range(0..train.num_interactions());
    let offsets = train.u_offsets();
    let u = offsets.partition_point(|&o| o as usize <= k) - 1;
    let user = UserId(u as u32);
    Some((user, train.items_of(user)[k - offsets[u] as usize]))
}

/// Returns the epoch count scaled so that total SGD steps stay roughly
/// constant across dataset sizes: `ceil(base_steps / interactions)`,
/// clamped to `[1, max_epochs]`.
pub fn scaled_epochs(base_steps: usize, interactions: usize, max_epochs: usize) -> usize {
    if interactions == 0 {
        return 1;
    }
    (base_steps.div_ceil(interactions)).clamp(1, max_epochs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use kgrec_data::interactions::Interaction;
    use kgrec_data::ItemId;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn taxonomy_lookup_known() {
        let t = taxonomy_of("RippleNet");
        assert_eq!(t.year, 2018);
    }

    #[test]
    #[should_panic(expected = "missing from Table 3")]
    fn taxonomy_lookup_unknown_panics() {
        taxonomy_of("NotAMethod");
    }

    #[test]
    fn sample_observed_uniform_over_interactions() {
        let m = InteractionMatrix::from_interactions(
            2,
            3,
            &[
                Interaction::implicit(UserId(0), ItemId(0)),
                Interaction::implicit(UserId(1), ItemId(1)),
                Interaction::implicit(UserId(1), ItemId(2)),
            ],
        );
        let mut rng = StdRng::seed_from_u64(1);
        let mut counts = [0usize; 3];
        for _ in 0..3000 {
            let (u, i) = sample_observed(&m, &mut rng).unwrap();
            assert!(m.contains(u, i));
            counts[i.index()] += 1;
        }
        for c in counts {
            assert!(c > 700, "non-uniform: {counts:?}");
        }
    }

    /// The linear-scan predecessor of [`sample_observed`]: walk users,
    /// subtracting degrees, until the global draw lands in one's history.
    fn sample_observed_linear<R: Rng + ?Sized>(
        train: &InteractionMatrix,
        rng: &mut R,
    ) -> Option<(UserId, ItemId)> {
        if train.num_interactions() == 0 {
            return None;
        }
        let mut rem = rng.gen_range(0..train.num_interactions());
        for u in 0..train.num_users() {
            let user = UserId(u as u32);
            let deg = train.user_degree(user);
            if rem < deg {
                return Some((user, train.items_of(user)[rem]));
            }
            rem -= deg;
        }
        None
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Degrees of 0 are drawn often, so zero-history users land at the
        /// start, middle and end of the offset column.
        #[test]
        fn sample_observed_matches_linear_scan(
            degrees in prop::collection::vec(
                (0u8..5, 1usize..6).prop_map(|(sel, d)| if sel < 3 { 0 } else { d }),
                1..14,
            ),
            seed in 0u64..1000,
        ) {
            let rows: Vec<Interaction> = degrees
                .iter()
                .enumerate()
                .flat_map(|(u, &d)| {
                    (0..d).map(move |i| Interaction::implicit(UserId(u as u32), ItemId(i as u32)))
                })
                .collect();
            let m = InteractionMatrix::from_interactions(degrees.len(), 6, &rows);
            let mut fast = StdRng::seed_from_u64(seed);
            let mut slow = StdRng::seed_from_u64(seed);
            for _ in 0..40 {
                prop_assert_eq!(
                    sample_observed(&m, &mut fast),
                    sample_observed_linear(&m, &mut slow)
                );
            }
        }
    }

    #[test]
    fn sample_observed_empty_none() {
        let m = InteractionMatrix::from_interactions(1, 1, &[]);
        let mut rng = StdRng::seed_from_u64(2);
        assert!(sample_observed(&m, &mut rng).is_none());
    }

    #[test]
    fn scaled_epochs_clamps() {
        assert_eq!(scaled_epochs(1000, 100, 50), 10);
        assert_eq!(scaled_epochs(1000, 10, 5), 5);
        assert_eq!(scaled_epochs(10, 1000, 50), 1);
        assert_eq!(scaled_epochs(10, 0, 50), 1);
    }
}
