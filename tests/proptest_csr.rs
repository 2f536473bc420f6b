//! Equivalence properties for the flat-array data layer: the CSR
//! adjacency, the columnar interaction store and the incremental-ingest
//! merge must all agree bit-for-bit with naive pointer-based reference
//! implementations on *every* input.

use kgrec_data::columnar::NO_TIMESTAMP;
use kgrec_data::{Interaction, InteractionMatrix, ItemId, UserId};
use kgrec_graph::{CsrAdjacency, EntityId, RelationId, Triple};
use proptest::prelude::*;
use std::collections::BTreeMap;

/// Arbitrary head-major sorted triple lists over a small id space,
/// together with the (entities, relations) bounds they respect.
fn arb_triples() -> impl Strategy<Value = (usize, usize, Vec<Triple>)> {
    (2usize..30, 1usize..6)
        .prop_flat_map(|(ne, nr)| {
            let triples =
                prop::collection::btree_set((0..ne as u32, 0..nr as u32, 0..ne as u32), 0..150);
            (Just(ne), Just(nr), triples)
        })
        .prop_map(|(ne, nr, set)| {
            // BTreeSet order is (head, rel, tail) — exactly head-major.
            let triples = set
                .into_iter()
                .map(|(h, r, t)| Triple {
                    head: EntityId(h),
                    rel: RelationId(r),
                    tail: EntityId(t),
                })
                .collect();
            (ne, nr, triples)
        })
}

/// Arbitrary interaction batches (with duplicates, optional ratings and
/// timestamps) plus the (users, items) shape they respect.
fn arb_rows() -> impl Strategy<Value = (usize, usize, Vec<Interaction>)> {
    (1usize..20, 1usize..40)
        .prop_flat_map(|(nu, ni)| {
            // The vendored proptest has no `option` module; encode the
            // presence of each payload as an explicit bool.
            let rows = prop::collection::vec(
                (0..nu as u32, 0..ni as u32, any::<bool>(), 1u32..6, any::<bool>(), 0u64..1000),
                0..200,
            );
            (Just(nu), Just(ni), rows)
        })
        .prop_map(|(nu, ni, rows)| {
            let rows = rows
                .into_iter()
                .map(|(u, i, has_r, r, has_t, t)| Interaction {
                    user: UserId(u),
                    item: ItemId(i),
                    rating: has_r.then_some(r as f32),
                    timestamp: has_t.then_some(t),
                })
                .collect();
            (nu, ni, rows)
        })
}

/// The optional rating/timestamp payload of one row.
type Payload = (Option<f32>, Option<u64>);

/// First-wins reference semantics of `from_interactions`: the earliest
/// occurrence of each `(user, item)` key in input order is kept, and the
/// map's key order is the sorted row order of the store.
fn reference_rows(rows: &[Interaction]) -> BTreeMap<(u32, u32), Payload> {
    let mut map = BTreeMap::new();
    for it in rows {
        map.entry((it.user.0, it.item.0)).or_insert((it.rating, it.timestamp));
    }
    map
}

/// Where the first non-sentinel value of a payload column lands among
/// `rows` sorted rows: 0 row zero, 1 the middle, 2 the last row, 3 never.
fn first_value_row(mode: u8, rows: usize) -> Option<usize> {
    match mode {
        0 => Some(0),
        1 => Some(rows / 2),
        2 => Some(rows - 1),
        _ => None,
    }
}

/// The stamp of sorted row `k` under stamp mix `mix`: 0 small values
/// only; 1 also the explicit sentinel and the largest narrow stamp; 2
/// also stamps of `u32::MAX` and above, which need the wide column.
/// `pick` chooses among the mix's values.
fn mixed_stamp(mix: u8, pick: u8, k: usize) -> u64 {
    let narrow_max = u64::from(u32::MAX) - 1;
    match (mix, pick) {
        (1.., 1) => NO_TIMESTAMP,
        (1.., 2) => narrow_max,
        (2, 3) => [narrow_max + 1, narrow_max + 2 + k as u64, NO_TIMESTAMP - 1][k % 3],
        _ => k as u64,
    }
}

/// Sorted distinct rows whose ratings and timestamps are sentinels up to
/// a chosen first row (see [`first_value_row`]), then set where `later`
/// says so, with stamps drawn from a [`mixed_stamp`] mix.
fn arb_payload_rows() -> impl Strategy<Value = (usize, usize, Vec<Interaction>)> {
    (1usize..12, 1usize..20, 0u8..4, 0u8..4, 0u8..3)
        .prop_flat_map(|(nu, ni, r_mode, t_mode, mix)| {
            let keys = prop::collection::btree_set((0..nu as u32, 0..ni as u32), 1..80);
            let later = prop::collection::vec((any::<bool>(), any::<bool>(), 0u8..4), 80);
            (Just(nu), Just(ni), Just(r_mode), Just(t_mode), Just(mix), keys, later)
        })
        .prop_map(|(nu, ni, r_mode, t_mode, mix, keys, later)| {
            let first_r = first_value_row(r_mode, keys.len());
            let first_t = first_value_row(t_mode, keys.len());
            let rows = keys
                .into_iter()
                .enumerate()
                .map(|(k, (u, i))| {
                    let rated = first_r.is_some_and(|f| k == f || (k > f && later[k].0));
                    let stamped = first_t.is_some_and(|f| k == f || (k > f && later[k].1));
                    Interaction {
                        user: UserId(u),
                        item: ItemId(i),
                        rating: rated.then_some((k % 5 + 1) as f32),
                        timestamp: stamped.then(|| mixed_stamp(mix, later[k].2, k)),
                    }
                })
                .collect();
            (nu, ni, rows)
        })
}

/// The store with every column stored in full, sentinels included — the
/// layout every store had before absent payload columns.
fn fully_stored(c: &InteractionMatrix, rows: &[Interaction]) -> InteractionMatrix {
    let mut i_offsets = vec![0u32];
    let mut i_users = Vec::new();
    for i in 0..c.num_items() as u32 {
        i_users.extend_from_slice(c.users_of(ItemId(i)));
        i_offsets.push(i_users.len() as u32);
    }
    InteractionMatrix::from_raw_parts(
        c.num_users(),
        c.num_items(),
        c.u_offsets().to_vec(),
        rows.iter().map(|it| it.item).collect(),
        rows.iter().map(|it| it.rating.unwrap_or(f32::NAN)).collect(),
        rows.iter().map(|it| it.timestamp.unwrap_or(NO_TIMESTAMP)).collect(),
        i_offsets,
        i_users,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The CSR adjacency is exactly the pointer-based `Vec<Vec<_>>`
    /// adjacency, flattened: same degrees, same per-entity edge lists in
    /// the same order, same global triple iteration — and it validates.
    #[test]
    fn csr_matches_pointer_reference((ne, nr, triples) in arb_triples()) {
        let csr = CsrAdjacency::from_sorted_triples(ne, &triples);

        let mut reference: Vec<Vec<(RelationId, EntityId)>> = vec![Vec::new(); ne];
        for t in &triples {
            reference[t.head.index()].push((t.rel, t.tail));
        }

        prop_assert_eq!(csr.num_entities(), ne);
        prop_assert_eq!(csr.num_edges(), triples.len());
        for e in 0..ne as u32 {
            let entity = EntityId(e);
            prop_assert_eq!(csr.degree(entity), reference[e as usize].len());
            let rels: Vec<RelationId> =
                reference[e as usize].iter().map(|&(r, _)| r).collect();
            let tails: Vec<EntityId> =
                reference[e as usize].iter().map(|&(_, t)| t).collect();
            prop_assert_eq!(csr.rel_slice(entity), &rels[..]);
            prop_assert_eq!(csr.tail_slice(entity), &tails[..]);
        }
        let flat: Vec<Triple> = csr.iter_triples().collect();
        prop_assert_eq!(flat, triples);
        prop_assert!(csr.validate(ne, nr).is_empty());
    }

    /// The columnar store is exactly the per-user sorted `Vec` reference
    /// under first-wins dedup: histories, rating/timestamp payloads, and
    /// the item-major transpose all agree, and the layout validates.
    #[test]
    fn columnar_matches_per_user_reference((nu, ni, rows) in arb_rows()) {
        let m = InteractionMatrix::from_interactions(nu, ni, &rows);
        let reference = reference_rows(&rows);

        prop_assert_eq!(m.num_interactions(), reference.len());
        prop_assert!(m.validate().is_empty());

        // User-major: histories sorted by item, payload sentinels exact.
        let c = &m;
        for u in 0..nu as u32 {
            let user = UserId(u);
            let want: Vec<(u32, Payload)> = reference
                .range((u, 0)..=(u, u32::MAX))
                .map(|(&(_, i), &payload)| (i, payload))
                .collect();
            let items: Vec<u32> = c.items_of(user).iter().map(|i| i.0).collect();
            let want_items: Vec<u32> = want.iter().map(|&(i, _)| i).collect();
            prop_assert_eq!(items, want_items);
            for (k, &(_, (rating, timestamp))) in want.iter().enumerate() {
                let got_r = c.ratings_of(user)[k];
                match rating {
                    Some(r) => prop_assert_eq!(got_r, r),
                    None => prop_assert!(got_r.is_nan()),
                }
                prop_assert_eq!(
                    c.timestamps_of(user).at(k),
                    timestamp.unwrap_or(NO_TIMESTAMP)
                );
            }
        }

        // Item-major transpose: each item's audience, sorted by user.
        for i in 0..ni as u32 {
            let audience: Vec<u32> = c.users_of(ItemId(i)).iter().map(|u| u.0).collect();
            let want: Vec<u32> =
                reference.keys().filter(|&&(_, it)| it == i).map(|&(u, _)| u).collect();
            prop_assert_eq!(audience, want);
        }
    }

    /// The item-major user column is built on first read, yet a store —
    /// built in one shot or by `append`, cloned before or after that
    /// read — reads exactly like a twin whose column was built at once.
    /// `validate` builds nothing, and a clone's column is its own.
    #[test]
    fn lazy_item_index_reads_like_an_eagerly_built_twin(
        (nu, ni, rows) in arb_rows(),
        cut_seed in 0usize..1000,
    ) {
        let twin = InteractionMatrix::from_interactions(nu, ni, &rows);
        twin.build_item_index();
        let cut = cut_seed % (rows.len() + 1);
        let lazy =
            InteractionMatrix::from_interactions(nu, ni, &rows[..cut]).append(&rows[cut..]);
        prop_assert!(!lazy.has_item_index());
        prop_assert!(lazy.validate().is_empty());
        prop_assert!(!lazy.has_item_index());
        prop_assert_eq!(lazy.memory_bytes() + 4 * lazy.num_interactions(), twin.memory_bytes());
        let popularity = |c: &InteractionMatrix| {
            c.item_popularity()
        };
        prop_assert_eq!(popularity(&lazy), popularity(&twin));

        let cloned_before = lazy.clone();
        let first = lazy.users_of(ItemId(0)).to_vec();
        prop_assert!(lazy.has_item_index());
        prop_assert!(!cloned_before.has_item_index());
        prop_assert_eq!(first.as_slice(), twin.users_of(ItemId(0)));
        let cloned_after = lazy.clone();
        prop_assert!(cloned_after.has_item_index());

        for c in [&lazy, &cloned_before, &cloned_after] {
            for i in 0..ni as u32 {
                prop_assert_eq!(c.users_of(ItemId(i)), twin.users_of(ItemId(i)));
                prop_assert_eq!(c.item_degree(ItemId(i)), twin.item_degree(ItemId(i)));
            }
            prop_assert_eq!(popularity(c), popularity(&twin));
            prop_assert_eq!(c.digest(), twin.digest());
            prop_assert_eq!(c.memory_bytes(), twin.memory_bytes());
            prop_assert!(c.validate().is_empty());
        }
        // `digest` builds the column of a store nothing has read yet.
        let unread = InteractionMatrix::from_interactions(nu, ni, &rows);
        prop_assert_eq!(unread.digest(), twin.digest());
        prop_assert!(unread.has_item_index());
    }

    /// Incremental ingest is a pure optimization: appending any suffix
    /// (in any number of chunks) onto a prefix build yields the same
    /// store, byte for byte, as the one-shot build of all rows.
    #[test]
    fn append_equals_one_shot_build(
        (nu, ni, rows) in arb_rows(),
        cut_seed in 0usize..1000,
        chunks in 1usize..5,
    ) {
        let one_shot = InteractionMatrix::from_interactions(nu, ni, &rows);

        let cut = if rows.is_empty() { 0 } else { cut_seed % (rows.len() + 1) };
        let mut built = InteractionMatrix::from_interactions(nu, ni, &rows[..cut]);
        let tail = &rows[cut..];
        let chunk = tail.len().div_ceil(chunks).max(1);
        for batch in tail.chunks(chunk) {
            built = built.append(batch);
        }
        prop_assert_eq!(built.digest(), one_shot.digest());
    }

    /// Payload columns are stored only once a non-sentinel value arrives,
    /// wherever it arrives: the accessors still return every row's value,
    /// the digest equals the fully stored layout's, only stored columns
    /// count in `memory_bytes` (stamps at 4 B a row, or 8 B once one
    /// needs 64 bits), and `append` builds the one-shot store, also when
    /// the batch starts at the first wide stamp.
    #[test]
    fn payload_columns_match_fully_stored_reference(
        (nu, ni, rows) in arb_payload_rows(),
        cut_seed in 0usize..1000,
    ) {
        let c = InteractionMatrix::from_interactions(nu, ni, &rows);
        prop_assert!(c.validate().is_empty());

        let mut row = 0;
        for u in 0..nu as u32 {
            let user = UserId(u);
            let ratings = c.ratings_of(user);
            let stamps = c.timestamps_of(user);
            prop_assert_eq!(ratings.len(), c.user_degree(user));
            prop_assert_eq!(stamps.len(), c.user_degree(user));
            for (p, (r, t)) in ratings.iter().zip(stamps.iter()).enumerate() {
                let want = rows[row + p];
                prop_assert_eq!(r.to_bits(), want.rating.unwrap_or(f32::NAN).to_bits());
                prop_assert_eq!(t, want.timestamp.unwrap_or(NO_TIMESTAMP));
            }
            row += c.user_degree(user);
        }

        let full = fully_stored(&c, &rows);
        prop_assert!(full.validate().is_empty());
        prop_assert_eq!(c.digest(), full.digest());
        let n = rows.len();
        let index_bytes = full.memory_bytes() - n * (4 + 8);
        let rated = rows.iter().any(|it| it.rating.is_some());
        let stamped = rows.iter().any(|it| it.timestamp.is_some_and(|t| t != NO_TIMESTAMP));
        let first_wide =
            rows.iter().position(|it| it.timestamp.is_some_and(|t| (u64::from(u32::MAX)..NO_TIMESTAMP).contains(&t)));
        let stamp_bytes = if first_wide.is_some() { 8 } else { 4 };
        prop_assert_eq!(
            c.memory_bytes(),
            index_bytes + usize::from(rated) * n * 4 + usize::from(stamped) * n * stamp_bytes
        );

        for cut in [cut_seed % (n + 1), first_wide.unwrap_or(n)] {
            let grown =
                InteractionMatrix::from_interactions(nu, ni, &rows[..cut]).append(&rows[cut..]);
            prop_assert_eq!(grown.digest(), c.digest());
            prop_assert_eq!(grown.memory_bytes(), c.memory_bytes());
            for u in 0..nu as u32 {
                let user = UserId(u);
                let bits = |s: &[f32]| s.iter().map(|r| r.to_bits()).collect::<Vec<_>>();
                prop_assert_eq!(bits(grown.ratings_of(user)), bits(c.ratings_of(user)));
                let stamps = |m: &InteractionMatrix| m.timestamps_of(user).iter().collect::<Vec<_>>();
                prop_assert_eq!(stamps(&grown), stamps(&c));
            }
        }
    }
}
