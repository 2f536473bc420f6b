//! Equivalence properties for the flat-array data layer: the CSR
//! adjacency, the columnar interaction store, the shard views, and the
//! incremental-ingest merge must all agree bit-for-bit with naive
//! pointer-based reference implementations on *every* input.

use kgrec_data::columnar::NO_TIMESTAMP;
use kgrec_data::shard::{even_ranges, ShardedDataset};
use kgrec_data::{ColumnarInteractions, Interaction, InteractionMatrix, ItemId, UserId};
use kgrec_graph::{CsrAdjacency, EntityId, KgBuilder, RelationId, Triple};
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

/// Sorted distinct rows whose ratings and timestamps are sentinels up to
/// a chosen first row (see [`first_value_row`]), then set where `later`
/// says so.
fn arb_payload_rows() -> impl Strategy<Value = (usize, usize, Vec<Interaction>)> {
    (1usize..12, 1usize..20, 0u8..4, 0u8..4)
        .prop_flat_map(|(nu, ni, r_mode, t_mode)| {
            let keys = prop::collection::btree_set((0..nu as u32, 0..ni as u32), 1..80);
            let later = prop::collection::vec((any::<bool>(), any::<bool>()), 80);
            (Just(nu), Just(ni), Just(r_mode), Just(t_mode), keys, later)
        })
        .prop_map(|(nu, ni, r_mode, t_mode, keys, later)| {
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
                        timestamp: stamped.then_some(k as u64),
                    }
                })
                .collect();
            (nu, ni, rows)
        })
}

/// The store with every column stored in full, sentinels included — the
/// layout every store had before absent payload columns.
fn fully_stored(c: &ColumnarInteractions, rows: &[Interaction]) -> ColumnarInteractions {
    let mut i_offsets = vec![0u32];
    let mut i_users = Vec::new();
    for i in 0..c.num_items() as u32 {
        i_users.extend_from_slice(c.users_of(ItemId(i)));
        i_offsets.push(i_users.len() as u32);
    }
    ColumnarInteractions::from_raw_parts(
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

/// A small KG whose item entities line up with the interaction items:
/// each item links to one of a handful of attribute entities.
fn toy_graph(num_items: usize) -> kgrec_graph::KnowledgeGraph {
    let mut b = KgBuilder::new();
    let t_item = b.entity_type("item");
    let t_attr = b.entity_type("attr");
    let items: Vec<_> = (0..num_items).map(|i| b.entity(&format!("item{i}"), t_item)).collect();
    let n_attr = num_items / 3 + 1;
    let attrs: Vec<_> = (0..n_attr).map(|a| b.entity(&format!("attr{a}"), t_attr)).collect();
    let r = b.relation("has_attr");
    for (i, &e) in items.iter().enumerate() {
        b.triple(e, r, attrs[i % n_attr]);
    }
    b.build(true)
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
        prop_assert!(m.columnar().validate().is_empty());

        // User-major: histories sorted by item, payload sentinels exact.
        let c = m.columnar();
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
                    c.timestamps_of(user)[k],
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

    /// For every shard count, iterating the shards in order replays the
    /// unsharded row and triple streams bit-for-bit, and the plan both
    /// validates and covers every row exactly once.
    #[test]
    fn sharded_iteration_replays_unsharded_order(
        (nu, ni, rows) in arb_rows(),
        shards in 1usize..10,
    ) {
        let m = InteractionMatrix::from_interactions(nu, ni, &rows);
        let graph = toy_graph(ni);
        let sharded = ShardedDataset::new(&m, &graph, shards);

        prop_assert!(sharded.plan().validate(m.columnar()).is_empty());
        let covered: usize =
            (0..sharded.num_shards()).map(|s| sharded.user_shard(s).num_rows()).sum();
        prop_assert_eq!(covered, m.num_interactions());

        let replayed: Vec<(UserId, ItemId, f32)> = (0..sharded.num_shards())
            .flat_map(|s| sharded.user_shard(s).iter_rows())
            .collect();
        let original: Vec<(UserId, ItemId, f32)> = m.iter().collect();
        // Bit-compare ratings (NaN sentinel) via their raw encodings.
        prop_assert_eq!(replayed.len(), original.len());
        for (got, want) in replayed.iter().zip(&original) {
            prop_assert_eq!((got.0, got.1, got.2.to_bits()), (want.0, want.1, want.2.to_bits()));
        }

        let triples: Vec<Triple> = (0..sharded.num_shards())
            .flat_map(|s| sharded.entity_shard(s).iter_triples())
            .collect();
        let want: Vec<Triple> = graph.iter_triples().collect();
        prop_assert_eq!(triples, want);
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
        prop_assert_eq!(built.columnar().digest(), one_shot.columnar().digest());
    }

    /// Payload columns are stored only once a non-sentinel value arrives,
    /// wherever it arrives: the accessors still return every row's value,
    /// the digest equals the fully stored layout's, only stored columns
    /// count in `memory_bytes`, and `append` builds the one-shot store.
    #[test]
    fn payload_columns_match_fully_stored_reference(
        (nu, ni, rows) in arb_payload_rows(),
        cut_seed in 0usize..1000,
    ) {
        let c = ColumnarInteractions::from_interactions(nu, ni, &rows);
        prop_assert!(c.validate().is_empty());

        let mut row = 0;
        for u in 0..nu as u32 {
            let user = UserId(u);
            let ratings = c.ratings_of(user);
            let stamps = c.timestamps_of(user);
            prop_assert_eq!(ratings.len(), c.user_degree(user));
            prop_assert_eq!(stamps.len(), c.user_degree(user));
            for (p, (r, &t)) in ratings.iter().zip(stamps).enumerate() {
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
        let stamped = rows.iter().any(|it| it.timestamp.is_some());
        prop_assert_eq!(
            c.memory_bytes(),
            index_bytes + usize::from(rated) * n * 4 + usize::from(stamped) * n * 8
        );

        let cut = cut_seed % (n + 1);
        let grown = ColumnarInteractions::from_interactions(nu, ni, &rows[..cut]).append(&rows[cut..]);
        prop_assert_eq!(grown.digest(), c.digest());
        prop_assert_eq!(grown.memory_bytes(), c.memory_bytes());
        for u in 0..nu as u32 {
            let user = UserId(u);
            let bits = |s: &[f32]| s.iter().map(|r| r.to_bits()).collect::<Vec<_>>();
            prop_assert_eq!(bits(grown.ratings_of(user)), bits(c.ratings_of(user)));
            prop_assert_eq!(grown.timestamps_of(user), c.timestamps_of(user));
        }
    }

    /// `even_ranges` tiles `0..len` exactly: contiguous, disjoint, in
    /// order, with every range nonempty and at most `parts` of them.
    #[test]
    fn even_ranges_tile_the_input(len in 0usize..500, parts in 1usize..17) {
        let ranges = even_ranges(len, parts);
        prop_assert!(ranges.len() <= parts.max(1));
        let mut cursor = 0usize;
        for r in &ranges {
            prop_assert_eq!(r.start, cursor);
            prop_assert!(r.end > r.start);
            cursor = r.end;
        }
        prop_assert_eq!(cursor, len);
    }
}
