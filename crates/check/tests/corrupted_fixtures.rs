//! Every rule must actually fire: each test takes a clean synthetic
//! bundle, applies one minimal corruption, and asserts that exactly the
//! targeted rule code appears (and that the clean bundle did not trip it).
//!
//! `MD001` (registry consistency) has no corruptible input — the registry
//! and Table 3 are compiled in — so it is covered by the negative test
//! [`registry_rule_is_clean_on_the_shipped_tables`] instead.

use kgrec_check::rules::{self, Rule};
use kgrec_check::{CheckBundle, CheckReport, HyperParam, Severity, Subject};
use kgrec_data::columnar::ColumnarViolation;
use kgrec_data::negative::LabeledPair;
use kgrec_data::split::{ratio_split, Split};
use kgrec_data::synth::{generate, ScenarioConfig, SyntheticDataset};
use kgrec_data::{Interaction, InteractionMatrix, ItemId, KgDataset, UserId};
use kgrec_graph::{CsrAdjacency, EntityId, KnowledgeGraph, RelationId, Triple};
use std::collections::BTreeSet;

fn tiny() -> SyntheticDataset {
    generate(&ScenarioConfig::tiny(), 7)
}

fn codes(bundle: &CheckBundle<'_>) -> BTreeSet<&'static str> {
    CheckReport::run(bundle).codes_fired()
}

/// Rebuilds a graph through `from_parts` with the triple list mutated —
/// the assembly path that, unlike `KgBuilder`, performs no validation.
fn rebuild_graph(g: &KnowledgeGraph, mutate: impl FnOnce(&mut Vec<Triple>)) -> KnowledgeGraph {
    let entity_names: Vec<String> =
        (0..g.num_entities()).map(|e| g.entity_name(EntityId(e as u32)).to_owned()).collect();
    let entity_types = (0..g.num_entities()).map(|e| g.entity_type(EntityId(e as u32))).collect();
    let type_names: Vec<String> = (0..g.num_entity_types())
        .map(|t| g.type_name(kgrec_graph::EntityTypeId(t as u32)).to_owned())
        .collect();
    let relation_names: Vec<String> =
        (0..g.num_relations()).map(|r| g.relation_name(RelationId(r as u32)).to_owned()).collect();
    let mut triples: Vec<Triple> = g.iter_triples().collect();
    mutate(&mut triples);
    KnowledgeGraph::from_parts(
        entity_names,
        entity_types,
        type_names,
        relation_names,
        g.num_base_relations(),
        triples,
    )
}

#[test]
fn kg001_fires_on_dangling_tail_and_relation() {
    let mut synth = tiny();
    let ne = synth.dataset.graph.num_entities() as u32;
    let nr = synth.dataset.graph.num_relations() as u32;
    synth.dataset.graph = rebuild_graph(&synth.dataset.graph, |t| {
        t.push(Triple { head: EntityId(0), rel: RelationId(0), tail: EntityId(ne + 5) });
        t.push(Triple { head: EntityId(0), rel: RelationId(nr), tail: EntityId(1) });
    });
    let fired = codes(&CheckBundle::new(&synth.dataset));
    assert!(fired.contains("KG001"), "fired: {fired:?}");
}

#[test]
fn kg002_fires_on_duplicate_triple() {
    let mut synth = tiny();
    let dup = synth.dataset.graph.triple_at(0);
    synth.dataset.graph = rebuild_graph(&synth.dataset.graph, |t| t.push(dup));
    let fired = codes(&CheckBundle::new(&synth.dataset));
    assert!(fired.contains("KG002"), "fired: {fired:?}");
}

#[test]
fn kg003_fires_on_non_injective_alignment() {
    let mut synth = tiny();
    synth.dataset.item_entities[1] = synth.dataset.item_entities[0];
    let fired = codes(&CheckBundle::new(&synth.dataset));
    assert!(fired.contains("KG003"), "fired: {fired:?}");
}

#[test]
fn kg003_fires_on_out_of_range_alignment() {
    let mut synth = tiny();
    let ne = synth.dataset.graph.num_entities() as u32;
    synth.dataset.item_entities[0] = EntityId(ne + 100);
    let report = CheckReport::run(&CheckBundle::new(&synth.dataset));
    assert!(report.codes_fired().contains("KG003"));
    assert!(report.has_errors());
}

/// A two-item hand-built dataset where item 1's entity has no edges.
fn dataset_with_isolated_item() -> KgDataset {
    let mut b = kgrec_graph::KgBuilder::new();
    let t_item = b.entity_type("item");
    let t_attr = b.entity_type("attr");
    let i0 = b.entity("item0", t_item);
    let i1 = b.entity("item1", t_item);
    let a = b.entity("attr0", t_attr);
    let r = b.relation("has_attr");
    b.triple(i0, r, a);
    let graph = b.build(true);
    let inter = InteractionMatrix::from_interactions(
        2,
        2,
        &[Interaction::implicit(UserId(0), ItemId(0)), Interaction::implicit(UserId(1), ItemId(1))],
    );
    KgDataset::new(inter, graph, vec![i0, i1])
}

#[test]
fn kg004_fires_on_edgeless_item_entity() {
    let ds = dataset_with_isolated_item();
    let fired = codes(&CheckBundle::new(&ds));
    assert!(fired.contains("KG004"), "fired: {fired:?}");
}

#[test]
fn kg005_fires_on_entity_beyond_hop_budget() {
    // Append an attribute entity with no triples at all: unreachable from
    // every item at any radius.
    let mut synth = tiny();
    let entity_names: Vec<String> = (0..synth.dataset.graph.num_entities())
        .map(|e| synth.dataset.graph.entity_name(EntityId(e as u32)).to_owned())
        .chain(std::iter::once("orphan".to_owned()))
        .collect();
    let mut entity_types: Vec<kgrec_graph::EntityTypeId> = (0..synth.dataset.graph.num_entities())
        .map(|e| synth.dataset.graph.entity_type(EntityId(e as u32)))
        .collect();
    entity_types.push(entity_types[entity_types.len() - 1]);
    let type_names: Vec<String> = (0..synth.dataset.graph.num_entity_types())
        .map(|t| synth.dataset.graph.type_name(kgrec_graph::EntityTypeId(t as u32)).to_owned())
        .collect();
    let relation_names: Vec<String> = (0..synth.dataset.graph.num_relations())
        .map(|r| synth.dataset.graph.relation_name(RelationId(r as u32)).to_owned())
        .collect();
    synth.dataset.graph = KnowledgeGraph::from_parts(
        entity_names,
        entity_types,
        type_names,
        relation_names,
        synth.dataset.graph.num_base_relations(),
        synth.dataset.graph.iter_triples().collect(),
    );
    let fired = codes(&CheckBundle::new(&synth.dataset));
    assert!(fired.contains("KG005"), "fired: {fired:?}");
}

#[test]
fn ds001_fires_on_interactionless_user() {
    let mut synth = tiny();
    // Rebuild the matrix with one extra, empty user row.
    let n_users = synth.dataset.interactions.num_users();
    let n_items = synth.dataset.interactions.num_items();
    let all: Vec<Interaction> =
        synth.dataset.interactions.iter().map(|(u, i, _)| Interaction::implicit(u, i)).collect();
    synth.dataset.interactions = InteractionMatrix::from_interactions(n_users + 1, n_items, &all);
    let fired = codes(&CheckBundle::new(&synth.dataset));
    assert!(fired.contains("DS001"), "fired: {fired:?}");
}

#[test]
fn ds002_fires_on_train_test_leakage() {
    let synth = tiny();
    let m = &synth.dataset.interactions;
    let all: Vec<Interaction> = m.iter().map(|(u, i, _)| Interaction::implicit(u, i)).collect();
    // Test set = a subset of train: maximal leakage.
    let leaked = Split {
        train: InteractionMatrix::from_interactions(m.num_users(), m.num_items(), &all),
        test: InteractionMatrix::from_interactions(m.num_users(), m.num_items(), &all[..4]),
    };
    let bundle = CheckBundle::new(&synth.dataset).with_split(&leaked);
    let fired = codes(&bundle);
    assert!(fired.contains("DS002"), "fired: {fired:?}");
}

#[test]
fn ds003_fires_on_id_space_mismatch() {
    let synth = tiny();
    let m = &synth.dataset.interactions;
    let all: Vec<Interaction> = m.iter().map(|(u, i, _)| Interaction::implicit(u, i)).collect();
    // Train matrix claims one item more than the dataset has.
    let bad = Split {
        train: InteractionMatrix::from_interactions(m.num_users(), m.num_items() + 1, &all),
        test: InteractionMatrix::from_interactions(m.num_users(), m.num_items(), &[]),
    };
    let bundle = CheckBundle::new(&synth.dataset).with_split(&bad);
    let fired = codes(&bundle);
    assert!(fired.contains("DS003"), "fired: {fired:?}");
}

#[test]
fn ds004_fires_on_negative_that_is_a_train_positive() {
    let synth = tiny();
    let split = ratio_split(&synth.dataset.interactions, 0.2, 3);
    // Take a known train interaction and label it negative.
    let (user, item, _) = split.train.iter().next().expect("train nonempty");
    let pairs = vec![LabeledPair { user, item, positive: false }];
    let bundle = CheckBundle::new(&synth.dataset).with_split(&split).with_eval_pairs(&pairs);
    let fired = codes(&bundle);
    assert!(fired.contains("DS004"), "fired: {fired:?}");
}

#[test]
fn md002_fires_on_unresolvable_metapath_schema() {
    let synth = tiny();
    let bundle =
        CheckBundle::new(&synth.dataset).with_metapath_schema(&["interact", "no_such_relation"]);
    let fired = codes(&bundle);
    assert!(fired.contains("MD002"), "fired: {fired:?}");
}

#[test]
fn md003_fires_on_out_of_range_and_non_finite_hyperparams() {
    let synth = tiny();
    let bundle = CheckBundle::new(&synth.dataset).with_hyperparams(vec![
        HyperParam::new("RippleNet", "hops", 0.0),
        HyperParam::new("KGCN", "learning_rate", f64::NAN),
    ]);
    let report = CheckReport::run(&bundle);
    assert!(report.codes_fired().contains("MD003"));
    assert!(report.count(Severity::Error) >= 2, "report:\n{}", report.render());
}

#[test]
fn md003_warns_above_soft_range() {
    let synth = tiny();
    let bundle = CheckBundle::new(&synth.dataset)
        .with_hyperparams(vec![HyperParam::new("KGCN", "dim", 2048.0)]);
    let report = CheckReport::run(&bundle);
    assert!(report.codes_fired().contains("MD003"));
    assert_eq!(report.count(Severity::Error), 0, "report:\n{}", report.render());
    assert!(report.count(Severity::Warning) >= 1);
}

#[test]
fn md005_fires_on_bad_learning_rates_in_any_spelling() {
    let synth = tiny();
    let bundle = CheckBundle::new(&synth.dataset).with_hyperparams(vec![
        HyperParam::new("KGAT", "kg_learning_rate", 0.0), // frozen, decorated name
        HyperParam::new("PGPR", "actor_lr", -0.01),       // inverted, _lr suffix
        HyperParam::new("MKR", "learning_rate", f64::INFINITY), // poisoned
    ]);
    let report = CheckReport::run(&bundle);
    assert!(report.codes_fired().contains("MD005"));
    let md5 = report.diagnostics.iter().filter(|d| d.code == "MD005").count();
    assert_eq!(md5, 3, "report:\n{}", report.render());
}

#[test]
fn md005_silent_on_healthy_rates_and_non_lr_params() {
    let synth = tiny();
    let bundle = CheckBundle::new(&synth.dataset).with_hyperparams(vec![
        HyperParam::new("KGCN", "learning_rate", 0.03),
        // `l2` may legitimately be 0; MD005 must not claim it.
        HyperParam::new("KGCN", "l2", 0.0),
    ]);
    let report = CheckReport::run(&bundle);
    assert!(!report.codes_fired().contains("MD005"), "report:\n{}", report.render());
}

#[test]
fn md004_fires_on_non_finite_float_buffer() {
    let synth = tiny();
    let values = [0.5f32, f32::NAN, 1.0, f32::INFINITY];
    let bundle = CheckBundle::new(&synth.dataset).with_float_audit("embeddings", &values);
    let fired = codes(&bundle);
    assert!(fired.contains("MD004"), "fired: {fired:?}");
}

/// Tears a matrix down to its raw columns so a test can reassemble them
/// with one corruption through the unchecked `from_raw_parts` path.
#[allow(clippy::type_complexity)]
fn raw_columns(
    c: &InteractionMatrix,
) -> (Vec<u32>, Vec<ItemId>, Vec<f32>, Vec<u64>, Vec<u32>, Vec<UserId>) {
    let u_offsets = c.u_offsets().to_vec();
    let mut items = Vec::new();
    let mut ratings = Vec::new();
    let mut timestamps = Vec::new();
    for u in 0..c.num_users() {
        let user = UserId(u as u32);
        items.extend_from_slice(c.items_of(user));
        ratings.extend_from_slice(c.ratings_of(user));
        timestamps.extend(c.timestamps_of(user).iter());
    }
    let mut i_offsets = vec![0u32; c.num_items() + 1];
    let mut i_users = Vec::new();
    for i in 0..c.num_items() {
        let item = ItemId(i as u32);
        i_offsets[i + 1] = i_offsets[i] + c.item_degree(item) as u32;
        i_users.extend_from_slice(c.users_of(item));
    }
    (u_offsets, items, ratings, timestamps, i_offsets, i_users)
}

/// Runs MD007 alone so the diagnostic set is exact.
fn md007_diags(bundle: &CheckBundle<'_>) -> Vec<kgrec_check::Diagnostic> {
    CheckReport::run_rules(bundle, &[Box::new(rules::LayoutIntegrity) as Box<dyn Rule>]).diagnostics
}

#[test]
fn md007_fires_on_unsorted_user_history() {
    let mut synth = tiny();
    let (u_offsets, mut items, ratings, timestamps, i_offsets, i_users) =
        raw_columns(&synth.dataset.interactions);
    let n_users = synth.dataset.interactions.num_users();
    let n_items = synth.dataset.interactions.num_items();
    // Swap the first two rows of some multi-row user: the history is no
    // longer strictly increasing, everything else stays intact.
    let u = (0..n_users)
        .find(|&u| u_offsets[u + 1] - u_offsets[u] >= 2)
        .expect("tiny has a multi-row user");
    let s = u_offsets[u] as usize;
    items.swap(s, s + 1);
    synth.dataset.interactions = InteractionMatrix::from_raw_parts(
        n_users, n_items, u_offsets, items, ratings, timestamps, i_offsets, i_users,
    );
    let diags = md007_diags(&CheckBundle::new(&synth.dataset));
    assert_eq!(diags.len(), 1, "diags: {diags:?}");
    assert_eq!(diags[0].code, "MD007");
    assert_eq!(diags[0].subject, Subject::User(u as u32));
    assert!(
        diags[0].message.contains("interaction store")
            && diags[0].message.contains("not strictly increasing"),
        "message: {}",
        diags[0].message
    );
}

#[test]
fn md007_fires_on_non_monotone_user_offsets() {
    let mut synth = tiny();
    let (mut u_offsets, items, ratings, timestamps, i_offsets, i_users) =
        raw_columns(&synth.dataset.interactions);
    let n_users = synth.dataset.interactions.num_users();
    let n_items = synth.dataset.interactions.num_items();
    u_offsets[1] = u_offsets[n_users]; // offset array now decreases at index 1
    synth.dataset.interactions = InteractionMatrix::from_raw_parts(
        n_users, n_items, u_offsets, items, ratings, timestamps, i_offsets, i_users,
    );
    let diags = md007_diags(&CheckBundle::new(&synth.dataset));
    assert_eq!(diags.len(), 1, "diags: {diags:?}");
    assert_eq!(diags[0].subject, Subject::User(1));
    assert!(diags[0].message.contains("offset array decreases"), "message: {}", diags[0].message);
}

#[test]
fn full_rule_set_reports_decreasing_offsets_instead_of_panicking() {
    // The store of `md007_fires_on_non_monotone_user_offsets`, run through
    // every default rule: the store-reading rules would index by the
    // decreasing offsets, so MD007 must run first and they must be skipped.
    let mut synth = tiny();
    let split = ratio_split(&synth.dataset.interactions, 0.2, 5);
    let (user, item, _) = split.train.iter().next().unwrap();
    let pairs = vec![LabeledPair { user, item, positive: false }];
    let (mut u_offsets, items, ratings, timestamps, i_offsets, i_users) =
        raw_columns(&synth.dataset.interactions);
    let n_users = synth.dataset.interactions.num_users();
    let n_items = synth.dataset.interactions.num_items();
    u_offsets[1] = u_offsets[n_users];
    synth.dataset.interactions = InteractionMatrix::from_raw_parts(
        n_users, n_items, u_offsets, items, ratings, timestamps, i_offsets, i_users,
    );
    let bundle = CheckBundle::new(&synth.dataset).with_split(&split).with_eval_pairs(&pairs);
    let report = CheckReport::run(&bundle);
    let md007: Vec<_> = report.diagnostics.iter().filter(|d| d.code == "MD007").collect();
    assert_eq!(md007.len(), 1, "{}", report.render());
    assert_eq!(md007[0].severity, Severity::Error);
    assert!(report.fails(false));
    for code in ["DS001", "DS002", "DS004"] {
        let found: Vec<_> = report.diagnostics.iter().filter(|d| d.code == code).collect();
        assert_eq!(found.len(), 1, "{code}: {}", report.render());
        assert!(found[0].message.starts_with("skipped: layout unsound"), "{code}: {found:?}");
    }
}

#[test]
fn md007_fires_on_short_raw_parts_rating_column() {
    let mut synth = tiny();
    let (u_offsets, items, mut ratings, timestamps, i_offsets, i_users) =
        raw_columns(&synth.dataset.interactions);
    let n_users = synth.dataset.interactions.num_users();
    let n_items = synth.dataset.interactions.num_items();
    let rows = items.len();
    ratings.pop(); // one row short: raw parts never mean "absent column"
    synth.dataset.interactions = InteractionMatrix::from_raw_parts(
        n_users, n_items, u_offsets, items, ratings, timestamps, i_offsets, i_users,
    );
    let violations = synth.dataset.interactions.validate();
    assert_eq!(
        violations,
        [ColumnarViolation::ColumnLengthMismatch { lengths: (rows, rows - 1, rows) }]
    );
    let diags = md007_diags(&CheckBundle::new(&synth.dataset));
    assert_eq!(diags.len(), 1, "diags: {diags:?}");
    assert_eq!(diags[0].code, "MD007");
    assert_eq!(diags[0].subject, Subject::Dataset);
    assert!(diags[0].message.contains("columns disagree"), "message: {}", diags[0].message);
}

#[test]
fn md007_fires_on_nonzero_first_user_offset() {
    let mut synth = tiny();
    let (mut u_offsets, mut items, ratings, timestamps, i_offsets, i_users) =
        raw_columns(&synth.dataset.interactions);
    let n_users = synth.dataset.interactions.num_users();
    let n_items = synth.dataset.interactions.num_items();
    assert!(u_offsets[1] >= 1, "tiny user 0 has a row");
    // Row 0 now precedes user 0's range, so no user owns it, and it
    // holds an item outside the id space.
    u_offsets[0] = 1;
    items[0] = ItemId(n_items as u32 + 5);
    synth.dataset.interactions = InteractionMatrix::from_raw_parts(
        n_users, n_items, u_offsets, items, ratings, timestamps, i_offsets, i_users,
    );
    let diags = md007_diags(&CheckBundle::new(&synth.dataset));
    assert_eq!(diags.len(), 1, "diags: {diags:?}");
    assert_eq!(diags[0].code, "MD007");
    assert_eq!(diags[0].subject, Subject::Dataset);
    assert!(
        diags[0].message.contains("first user offset is 1, want 0"),
        "message: {}",
        diags[0].message
    );
}

#[test]
fn md007_fires_on_corrupted_item_user_column() {
    let mut synth = tiny();
    let (u_offsets, items, ratings, timestamps, i_offsets, mut i_users) =
        raw_columns(&synth.dataset.interactions);
    let n_users = synth.dataset.interactions.num_users();
    let n_items = synth.dataset.interactions.num_items();
    // Reverse the first audience of two or more users: same offsets,
    // same multiset, wrong order.
    let v = (0..n_items)
        .find(|&v| i_offsets[v + 1] - i_offsets[v] >= 2)
        .expect("tiny has an item with two users");
    i_users[i_offsets[v] as usize..i_offsets[v + 1] as usize].reverse();
    synth.dataset.interactions = InteractionMatrix::from_raw_parts(
        n_users, n_items, u_offsets, items, ratings, timestamps, i_offsets, i_users,
    );
    let diags = md007_diags(&CheckBundle::new(&synth.dataset));
    assert_eq!(diags.len(), 1, "diags: {diags:?}");
    assert_eq!(diags[0].subject, Subject::Dataset);
    assert!(
        diags[0].message.contains("item user column disagrees"),
        "message: {}",
        diags[0].message
    );
}

#[test]
fn md007_fires_on_out_of_range_csr_tail() {
    let mut synth = tiny();
    let ne = synth.dataset.graph.num_entities();
    let mut triples: Vec<Triple> = synth.dataset.graph.iter_triples().collect();
    triples[0].tail = EntityId(ne as u32 + 9);
    synth.dataset.graph.set_adjacency_unchecked(CsrAdjacency::from_sorted_triples(ne, &triples));
    let diags = md007_diags(&CheckBundle::new(&synth.dataset));
    assert_eq!(diags.len(), 1, "diags: {diags:?}");
    assert_eq!(diags[0].code, "MD007");
    assert_eq!(diags[0].subject, Subject::Triple(0));
    assert!(
        diags[0].message.contains("adjacency") && diags[0].message.contains("out of entity range"),
        "message: {}",
        diags[0].message
    );
}

#[test]
fn registry_rule_is_clean_on_the_shipped_tables() {
    let synth = tiny();
    let bundle = CheckBundle::new(&synth.dataset);
    let report =
        CheckReport::run_rules(&bundle, &[Box::new(rules::RegistryConsistency) as Box<dyn Rule>]);
    assert!(report.diagnostics.is_empty(), "registry/Table 3 drifted apart:\n{}", report.render());
}

/// The acceptance gate: the corrupted fixtures above must demonstrate at
/// least 8 distinct rule codes firing. This test re-runs the corruptions
/// in one place so the count is asserted, not just implied.
#[test]
fn at_least_eight_rules_demonstrably_fire() {
    let mut fired: BTreeSet<&'static str> = BTreeSet::new();

    // KG layer.
    let mut s = tiny();
    let ne = s.dataset.graph.num_entities() as u32;
    s.dataset.graph = rebuild_graph(&s.dataset.graph, |t| {
        let dup = t[0];
        t.push(dup); // KG002
        t.push(Triple { head: EntityId(0), rel: RelationId(0), tail: EntityId(ne + 1) });
        // KG001
    });
    s.dataset.item_entities[1] = s.dataset.item_entities[0]; // KG003
    fired.extend(codes(&CheckBundle::new(&s.dataset)));

    fired.extend(codes(&CheckBundle::new(&dataset_with_isolated_item()))); // KG004 (+KG005)

    // DS layer.
    let synth = tiny();
    let m = &synth.dataset.interactions;
    let all: Vec<Interaction> = m.iter().map(|(u, i, _)| Interaction::implicit(u, i)).collect();
    let leaked = Split {
        train: InteractionMatrix::from_interactions(m.num_users(), m.num_items(), &all),
        test: InteractionMatrix::from_interactions(m.num_users(), m.num_items(), &all[..2]),
    };
    let (user, item, _) = leaked.train.iter().next().unwrap();
    let pairs = vec![LabeledPair { user, item, positive: false }]; // DS004
    fired.extend(codes(
        &CheckBundle::new(&synth.dataset).with_split(&leaked).with_eval_pairs(&pairs), // DS002
    ));

    let bad = Split {
        train: InteractionMatrix::from_interactions(m.num_users(), m.num_items() + 1, &all),
        test: InteractionMatrix::from_interactions(m.num_users(), m.num_items(), &[]),
    };
    fired.extend(codes(&CheckBundle::new(&synth.dataset).with_split(&bad))); // DS003

    let mut extra_user = tiny();
    let n_users = extra_user.dataset.interactions.num_users();
    let n_items = extra_user.dataset.interactions.num_items();
    let all2: Vec<Interaction> = extra_user
        .dataset
        .interactions
        .iter()
        .map(|(u, i, _)| Interaction::implicit(u, i))
        .collect();
    extra_user.dataset.interactions =
        InteractionMatrix::from_interactions(n_users + 1, n_items, &all2); // DS001
    fired.extend(codes(&CheckBundle::new(&extra_user.dataset)));

    // MD layer.
    let nan = [f32::NAN];
    fired.extend(codes(
        &CheckBundle::new(&synth.dataset)
            .with_metapath_schema(&["bogus_relation"]) // MD002
            .with_hyperparams(vec![HyperParam::new("KGCN", "hops", -1.0)]) // MD003
            .with_float_audit("loss", &nan), // MD004
    ));

    // Data layout: an item audience out of user order (MD007).
    let mut torn = tiny();
    let (u_offsets, items, ratings, timestamps, i_offsets, mut i_users) =
        raw_columns(&torn.dataset.interactions);
    let v = (0..m.num_items())
        .find(|&v| i_offsets[v + 1] - i_offsets[v] >= 2)
        .expect("tiny has an item with two users");
    i_users[i_offsets[v] as usize..i_offsets[v + 1] as usize].reverse();
    torn.dataset.interactions = InteractionMatrix::from_raw_parts(
        m.num_users(),
        m.num_items(),
        u_offsets,
        items,
        ratings,
        timestamps,
        i_offsets,
        i_users,
    );
    fired.extend(codes(&CheckBundle::new(&torn.dataset)));

    assert!(fired.len() >= 8, "only {} distinct rules fired: {:?}", fired.len(), fired);
    for code in [
        "KG001", "KG002", "KG003", "KG004", "DS001", "DS002", "DS003", "DS004", "MD002", "MD003",
        "MD004", "MD007",
    ] {
        assert!(fired.contains(code), "{code} never fired; fired: {fired:?}");
    }
}
