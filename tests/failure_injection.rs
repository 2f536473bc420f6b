//! Failure-injection tests: every model must either fit or fail *cleanly*
//! on degenerate datasets — an empty KG, a single user, cold items,
//! singleton histories. No panics, no NaN scores.

use kgrec_core::{Recommender, TrainContext};
use kgrec_data::synth::{generate, ScenarioConfig};
use kgrec_data::{Interaction, InteractionMatrix};
use kgrec_data::{ItemId, KgDataset, UserId};
use kgrec_graph::KgBuilder;
use kgrec_models::registry::all_models;

/// Dataset with items but a KG that has *no* triples at all.
fn empty_kg_dataset() -> KgDataset {
    let mut b = KgBuilder::new();
    let ty = b.entity_type("item");
    let ents: Vec<_> = (0..6).map(|i| b.entity(&format!("i{i}"), ty)).collect();
    let graph = b.build(true);
    let inter = InteractionMatrix::from_interactions(
        4,
        6,
        &[
            Interaction::implicit(UserId(0), ItemId(0)),
            Interaction::implicit(UserId(0), ItemId(1)),
            Interaction::implicit(UserId(1), ItemId(1)),
            Interaction::implicit(UserId(1), ItemId(2)),
            Interaction::implicit(UserId(2), ItemId(3)),
            Interaction::implicit(UserId(2), ItemId(0)),
            Interaction::implicit(UserId(3), ItemId(4)),
            Interaction::implicit(UserId(3), ItemId(5)),
        ],
    );
    KgDataset::new(inter, graph, ents)
}

#[test]
fn all_models_survive_empty_kg() {
    let ds = empty_kg_dataset();
    let ctx = TrainContext::new(&ds, &ds.interactions);
    for mut model in all_models(false) {
        let name = model.name();
        match model.fit(&ctx) {
            Ok(()) => {
                let s = model.score(UserId(0), ItemId(3));
                assert!(s.is_finite() || s == f32::NEG_INFINITY, "{name}: score {s}");
                // Recommend must not panic.
                let _ = model.recommend(UserId(0), 3, &[]);
            }
            Err(e) => {
                // A clean, typed error is acceptable.
                assert!(!e.to_string().is_empty(), "{name}: empty error message");
            }
        }
    }
}

#[test]
fn all_models_survive_single_user() {
    let synth = generate(&ScenarioConfig::tiny(), 3);
    // One user only, keeping the full KG.
    let one_user: Vec<Interaction> = synth
        .dataset
        .interactions
        .iter()
        .filter(|(u, _, _)| u.0 == 0)
        .map(|(u, i, _)| Interaction::implicit(u, i))
        .collect();
    let inter =
        InteractionMatrix::from_interactions(1, synth.dataset.interactions.num_items(), &one_user);
    let ds = KgDataset::new(
        inter.clone(),
        synth.dataset.graph.clone(),
        synth.dataset.item_entities.clone(),
    );
    let ctx = TrainContext::new(&ds, &inter);
    for mut model in all_models(false) {
        let name = model.name();
        model.fit(&ctx).unwrap_or_else(|e| panic!("{name} failed on single user: {e}"));
        let s = model.score(UserId(0), ItemId(0));
        assert!(!s.is_nan(), "{name}: NaN score");
    }
}

#[test]
fn all_models_handle_cold_items() {
    // Several items have zero interactions; scoring them must not panic
    // or produce NaN.
    let synth = generate(&ScenarioConfig::tiny(), 5);
    let filtered: Vec<Interaction> = synth
        .dataset
        .interactions
        .iter()
        .filter(|(_, i, _)| i.0 >= 10) // items 0..10 become cold
        .map(|(u, i, _)| Interaction::implicit(u, i))
        .collect();
    let inter = InteractionMatrix::from_interactions(
        synth.dataset.interactions.num_users(),
        synth.dataset.interactions.num_items(),
        &filtered,
    );
    let ds = KgDataset::new(
        inter.clone(),
        synth.dataset.graph.clone(),
        synth.dataset.item_entities.clone(),
    );
    let ctx = TrainContext::new(&ds, &inter);
    for mut model in all_models(false) {
        let name = model.name();
        model.fit(&ctx).unwrap_or_else(|e| panic!("{name} failed: {e}"));
        for cold in 0..10u32 {
            let s = model.score(UserId(1), ItemId(cold));
            assert!(!s.is_nan(), "{name}: NaN on cold item {cold}");
        }
    }
}

#[test]
fn recommend_with_everything_excluded_is_empty_not_panic() {
    let synth = generate(&ScenarioConfig::tiny(), 7);
    let ctx = TrainContext::new(&synth.dataset, &synth.dataset.interactions);
    let all_items: Vec<ItemId> =
        (0..synth.dataset.interactions.num_items() as u32).map(ItemId).collect();
    let mut model = kgrec_models::baselines::BprMf::default_config();
    model.fit(&ctx).unwrap();
    assert!(model.recommend(UserId(0), 5, &all_items).is_empty());
}

#[test]
fn dkn_rejects_textless_dataset_with_typed_error() {
    let synth = generate(&ScenarioConfig::tiny(), 9);
    let ctx = TrainContext::new(&synth.dataset, &synth.dataset.interactions);
    let mut dkn = kgrec_models::embedding::DknLite::default_config();
    let err = dkn.fit(&ctx).expect_err("must reject");
    assert!(matches!(err, kgrec_core::CoreError::InvalidDataset { .. }));
}
