//! Property-based tests for the data layer: interaction matrices, splits,
//! negative sampling, and the synthetic generator's contracts.

use kgrec_data::negative::sample_negative;
use kgrec_data::split::{leave_one_out, ratio_split, Split};
use kgrec_data::synth::{generate, generate_streaming, ScenarioConfig};
use kgrec_data::{Interaction, InteractionMatrix};
use kgrec_data::{ItemId, UserId};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn arb_interactions() -> impl Strategy<Value = (usize, usize, Vec<(u8, u8)>)> {
    (2usize..10, 2usize..12).prop_flat_map(|(m, n)| {
        let pairs = prop::collection::vec((0..m as u8, 0..n as u8), 0..60);
        (Just(m), Just(n), pairs)
    })
}

fn matrix(m: usize, n: usize, pairs: &[(u8, u8)]) -> InteractionMatrix {
    let inter: Vec<Interaction> = pairs
        .iter()
        .map(|&(u, i)| Interaction::implicit(UserId(u32::from(u)), ItemId(u32::from(i))))
        .collect();
    InteractionMatrix::from_interactions(m, n, &inter)
}

/// Arbitrary matrices of one payload kind — 0 implicit, 1 explicit
/// ratings, 2 timestamps, 3 a per-row mix — with duplicate pairs.
fn arb_payload_matrix() -> impl Strategy<Value = InteractionMatrix> {
    (1usize..12, 1usize..16, 0u8..4)
        .prop_flat_map(|(m, n, kind)| {
            let rows = prop::collection::vec(
                (0..m as u32, 0..n as u32, any::<bool>(), 1u32..6, any::<bool>(), 0u64..1000),
                0..120,
            );
            (Just(m), Just(n), Just(kind), rows)
        })
        .prop_map(|(m, n, kind, rows)| {
            let rows: Vec<Interaction> = rows
                .into_iter()
                .map(|(u, i, has_r, r, has_t, t)| Interaction {
                    user: UserId(u),
                    item: ItemId(i),
                    rating: (kind == 1 || (kind == 3 && has_r)).then_some(r as f32),
                    timestamp: (kind == 2 || (kind == 3 && has_t)).then_some(t),
                })
                .collect();
            InteractionMatrix::from_interactions(m, n, &rows)
        })
}

/// The row of `user`'s `p`-th interaction as `ratio_split` and
/// `leave_one_out` emit it: rating kept, timestamp dropped.
fn reference_row(matrix: &InteractionMatrix, user: UserId, p: usize) -> Interaction {
    let r = matrix.ratings_of(user)[p];
    Interaction {
        user,
        item: matrix.items_of(user)[p],
        rating: if r.is_nan() { None } else { Some(r) },
        timestamp: None,
    }
}

/// The materializing `ratio_split`: per-user interaction lists, then a
/// comparison-sorted build of each side. The streaming split must match
/// it store for store.
fn reference_ratio_split(matrix: &InteractionMatrix, test_fraction: f64, seed: u64) -> Split {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut train = Vec::new();
    let mut test = Vec::new();
    for u in 0..matrix.num_users() {
        let user = UserId(u as u32);
        let degree = matrix.user_degree(user);
        if degree == 0 {
            continue;
        }
        let mut pos: Vec<usize> = (0..degree).collect();
        for i in (1..pos.len()).rev() {
            let j = rng.gen_range(0..=i);
            pos.swap(i, j);
        }
        let want_test = ((degree as f64) * test_fraction).round() as usize;
        let n_test = want_test.min(degree - 1);
        for (k, &p) in pos.iter().enumerate() {
            let it = reference_row(matrix, user, p);
            if k < n_test {
                test.push(it);
            } else {
                train.push(it);
            }
        }
    }
    Split {
        train: InteractionMatrix::from_interactions(matrix.num_users(), matrix.num_items(), &train),
        test: InteractionMatrix::from_interactions(matrix.num_users(), matrix.num_items(), &test),
    }
}

/// The materializing `leave_one_out`, the reference for the streaming one.
fn reference_leave_one_out(matrix: &InteractionMatrix, seed: u64) -> Split {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut train = Vec::new();
    let mut test = Vec::new();
    for u in 0..matrix.num_users() {
        let user = UserId(u as u32);
        let degree = matrix.user_degree(user);
        let held = (degree >= 2).then(|| rng.gen_range(0..degree));
        for p in 0..degree {
            let it = reference_row(matrix, user, p);
            if Some(p) == held {
                test.push(it);
            } else {
                train.push(it);
            }
        }
    }
    Split {
        train: InteractionMatrix::from_interactions(matrix.num_users(), matrix.num_items(), &train),
        test: InteractionMatrix::from_interactions(matrix.num_users(), matrix.num_items(), &test),
    }
}

/// `(train, test)` store digests of a split.
fn digests(split: &Split) -> (u64, u64) {
    (split.train.digest(), split.test.digest())
}

/// The serving scenario's split: `huge` at 200k users and 20k items,
/// seed 2024, 20 % test. The digests were recorded from the materializing
/// split; streaming it must not move a byte.
#[test]
fn serve_scenario_split_digests_are_pinned() {
    let mut config = ScenarioConfig::huge();
    config.num_users = 200_000;
    config.num_items = 20_000;
    let synth = generate_streaming(&config, 2024);
    let split = ratio_split(&synth.dataset.interactions, 0.2, 2024 ^ 0x5911_7000);
    let (train, test) = digests(&split);
    assert_eq!(format!("{train:016x}"), "8169af37b8d78bfc");
    assert_eq!(format!("{test:016x}"), "12fd42026cd563d7");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The streaming splits equal the materializing references on
    /// implicit, explicit, timestamped and mixed matrices.
    #[test]
    fn streaming_splits_match_materializing_reference(
        mat in arb_payload_matrix(),
        frac in 0.05f64..0.95,
        seed in 0u64..1000,
    ) {
        prop_assert_eq!(digests(&ratio_split(&mat, frac, seed)),
                        digests(&reference_ratio_split(&mat, frac, seed)));
        prop_assert_eq!(digests(&leave_one_out(&mat, seed)),
                        digests(&reference_leave_one_out(&mat, seed)));
    }

    #[test]
    fn matrix_round_trips_both_directions((m, n, pairs) in arb_interactions()) {
        let mat = matrix(m, n, &pairs);
        // User-major and item-major views agree.
        for u in 0..m {
            for &i in mat.items_of(UserId(u as u32)) {
                prop_assert!(mat.users_of(i).contains(&UserId(u as u32)));
            }
        }
        for i in 0..n {
            for &u in mat.users_of(ItemId(i as u32)) {
                prop_assert!(mat.items_of(u).contains(&ItemId(i as u32)));
            }
        }
        // Degrees sum to interactions, both ways.
        let by_user: usize = (0..m).map(|u| mat.user_degree(UserId(u as u32))).sum();
        let by_item: usize = (0..n).map(|i| mat.item_degree(ItemId(i as u32))).sum();
        prop_assert_eq!(by_user, mat.num_interactions());
        prop_assert_eq!(by_item, mat.num_interactions());
    }

    #[test]
    fn ratio_split_is_partition((m, n, pairs) in arb_interactions(), frac in 0.1f64..0.9, seed in 0u64..100) {
        let mat = matrix(m, n, &pairs);
        let split = ratio_split(&mat, frac, seed);
        prop_assert_eq!(
            split.train.num_interactions() + split.test.num_interactions(),
            mat.num_interactions()
        );
        for (u, i, _) in split.test.iter() {
            prop_assert!(mat.contains(u, i));
            prop_assert!(!split.train.contains(u, i));
        }
        // Every user with history keeps at least one train interaction.
        for u in 0..m {
            let user = UserId(u as u32);
            if mat.user_degree(user) > 0 {
                prop_assert!(split.train.user_degree(user) >= 1);
            }
        }
    }

    #[test]
    fn leave_one_out_structure((m, n, pairs) in arb_interactions(), seed in 0u64..100) {
        let mat = matrix(m, n, &pairs);
        let split = leave_one_out(&mat, seed);
        for u in 0..m {
            let user = UserId(u as u32);
            let deg = mat.user_degree(user);
            if deg >= 2 {
                prop_assert_eq!(split.test.user_degree(user), 1);
                prop_assert_eq!(split.train.user_degree(user), deg - 1);
            } else {
                prop_assert_eq!(split.test.user_degree(user), 0);
            }
        }
    }

    #[test]
    fn negative_samples_never_observed((m, n, pairs) in arb_interactions(), seed in 0u64..100) {
        let mat = matrix(m, n, &pairs);
        let mut rng = StdRng::seed_from_u64(seed);
        for u in 0..m {
            let user = UserId(u as u32);
            match sample_negative(&mat, user, &mut rng) {
                Some(item) => prop_assert!(!mat.contains(user, item)),
                None => prop_assert_eq!(mat.user_degree(user), n),
            }
        }
    }

    #[test]
    fn generator_contracts_hold(seed in 0u64..40) {
        let cfg = ScenarioConfig::tiny();
        let synth = generate(&cfg, seed);
        let data = &synth.dataset;
        // Every user has at least one interaction.
        for u in 0..cfg.num_users {
            prop_assert!(data.interactions.user_degree(UserId(u as u32)) >= 1);
        }
        // Alignment is a bijection onto "item" entities.
        let mut seen = std::collections::BTreeSet::new();
        for e in &data.item_entities {
            prop_assert!(e.index() < data.graph.num_entities());
            prop_assert!(seen.insert(e.index()), "duplicate alignment");
        }
        // Planted ground truth is structurally valid.
        prop_assert_eq!(synth.item_topics.len(), cfg.num_items);
        for w in &synth.user_topic_weights {
            let s: f32 = w.iter().sum();
            prop_assert!((s - 1.0).abs() < 1e-4);
        }
    }
}

/// Fragments the loader fuzz assembles its input from: field and line
/// separators, comment markers, digits, the float spellings `parse::<f32>`
/// accepts or rejects, the inverse-relation suffix, and multi-byte text.
const LOADER_TOKENS: &[&str] = &[
    "\t", "\t", "\n", "\n", "\r\n", "#", " ", "0", "1", "2", "7", "9", "-", ".", "e", "nan", "NaN",
    "inf", "-inf", "1e39", "_inv", "u", "é", "日本", "🦀", "\u{a0}",
];

fn loader_text() -> impl Strategy<Value = String> {
    prop::collection::vec(0..LOADER_TOKENS.len(), 0..80)
        .prop_map(|picks| picks.into_iter().map(|k| LOADER_TOKENS[k]).collect())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// The TSV loader is the path for input from outside the program:
    /// whatever the text, `parse_interactions` and then `parse_dataset`
    /// return `Ok` or a `LoadError`, and never panic.
    #[test]
    fn loader_never_panics_on_arbitrary_text(ratings in loader_text(), triples in loader_text()) {
        use kgrec_data::loader::{parse_dataset, parse_interactions};
        for text in [&ratings, &triples] {
            let Ok(li) = parse_interactions(text) else { continue };
            prop_assert_eq!(li.matrix.num_users(), li.user_keys.len());
            prop_assert_eq!(li.matrix.num_items(), li.item_keys.len());
            if let Ok(ds) = parse_dataset(&li, &triples) {
                prop_assert_eq!(ds.item_entities.len(), li.item_keys.len());
            }
        }
    }
}
