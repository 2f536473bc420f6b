//! The fault matrix: every registry model × every injected dataset fault,
//! trained under the supervisor. The contract of ISSUE 3: a model facing a
//! corrupted bundle either trains successfully or fails with a *typed*
//! error — no panic escapes the supervisor, and any model reported usable
//! must emit only finite (or `-∞`) scores.

use kgrec_core::supervisor::{supervise_fit, FitStatus, SupervisorConfig};
use kgrec_core::Recommender;
use kgrec_data::faults::{inject, Fault};
use kgrec_data::synth::{generate, ScenarioConfig};
use kgrec_data::{ItemId, KgDataset, UserId};
use kgrec_models::registry::all_models;

/// A scenario small enough to fit every model quickly but carrying token
/// lists so the text model (DKN) joins the matrix.
fn matrix_bundle() -> KgDataset {
    let mut cfg = ScenarioConfig::tiny();
    cfg.num_users = 16;
    cfg.num_items = 24;
    cfg.mean_interactions_per_user = 6.0;
    cfg.words_per_item = Some(3);
    generate(&cfg, 77).dataset
}

/// Scores a usable model over a grid and via `recommend`, asserting the
/// finite-score convention (`-∞` = "never recommend" is legal).
fn assert_finite_scores(model: &dyn Recommender, label: &str) {
    let items = model.num_items().min(12);
    for u in 0..6u32 {
        for i in 0..items {
            let s = model.score(UserId(u), ItemId(i as u32));
            assert!(
                !s.is_nan() && s != f32::INFINITY,
                "{label}: score(u{u}, i{i}) = {s} is not a legal score"
            );
        }
        for (item, s) in model.recommend(UserId(u), 5, &[]) {
            assert!(s.is_finite(), "{label}: recommend(u{u}) surfaced {s} for {item:?}");
        }
    }
}

#[test]
fn every_model_survives_every_fault() {
    // The matrix intentionally provokes panics inside `fit`; the
    // supervisor converts them to typed errors, so silence the default
    // hook's backtrace spam.
    std::panic::set_hook(Box::new(|_| {}));

    let mut outcomes: Vec<String> = Vec::new();
    for &fault in Fault::all() {
        let mut dataset = matrix_bundle();
        inject(&mut dataset, fault);
        let train = dataset.interactions.clone();
        for mut model in all_models(true) {
            let name = model.name();
            // No retries inside the matrix: deterministic faults replay
            // the same failure and would only double the runtime. The
            // retry path is exercised by the supervisor's unit tests.
            let config = SupervisorConfig::default().with_max_retries(0);
            let outcome = supervise_fit(model.as_mut(), &dataset, &train, &config, None);
            if outcome.status == FitStatus::Failed {
                assert!(
                    outcome.reason.is_some(),
                    "{name} × {fault}: failure must carry a typed reason"
                );
            } else {
                assert_finite_scores(model.as_ref(), &format!("{name} × {fault}"));
            }
            outcomes.push(format!(
                "{name} × {fault}: {}{}",
                outcome.status.label(),
                outcome.reason.as_deref().map(|r| format!(" ({r})")).unwrap_or_default()
            ));
        }
    }
    let _ = std::panic::take_hook();
    // The matrix must actually have exercised failure paths: the dangling
    // alignment corrupts id spaces beyond what any model can absorb.
    assert!(
        outcomes.iter().any(|o| o.contains("failed")),
        "no fault produced a failure — injectors are toothless:\n{}",
        outcomes.join("\n")
    );
}

/// Runs one matrix cell under the supervisor and renders the outcome the
/// same way for the serial and the parallel runs.
fn run_cell(fault: Fault, which: usize) -> String {
    let mut dataset = matrix_bundle();
    inject(&mut dataset, fault);
    let train = dataset.interactions.clone();
    let mut model = all_models(true).swap_remove(which);
    let name = model.name();
    let config = SupervisorConfig::default().with_max_retries(0);
    let outcome = supervise_fit(model.as_mut(), &dataset, &train, &config, None);
    format!(
        "{name} × {fault}: {}{}",
        outcome.status.label(),
        outcome.reason.as_deref().map(|r| format!(" ({r})")).unwrap_or_default()
    )
}

#[test]
fn fault_matrix_on_the_pool_matches_serial_cell_for_cell() {
    // The matrix deliberately provokes panics; the supervisor absorbs
    // them inside each worker, so the pool must neither deadlock nor
    // cross-contaminate cells. Every (fault × model) cell is one shard.
    // Two faults keep the runtime sane: the id-space corruption that
    // fails models outright (panic path) and the NaN corruption that
    // degrades them (numeric path); the full matrix already runs
    // serially in `every_model_survives_every_fault`.
    std::panic::set_hook(Box::new(|_| {}));
    let models = all_models(true).len();
    let cells: Vec<(Fault, usize)> = [Fault::DanglingAlignment, Fault::NanRatings]
        .iter()
        .flat_map(|&fault| (0..models).map(move |which| (fault, which)))
        .collect();
    let serial: Vec<String> = cells.iter().map(|&(fault, which)| run_cell(fault, which)).collect();
    let parallel =
        kgrec_linalg::par::par_map(&cells, 4, |_, &(fault, which)| run_cell(fault, which));
    assert_eq!(parallel, serial, "fault matrix diverged between 1 and 4 threads");
    let _ = std::panic::take_hook();
    assert!(
        serial.iter().any(|o| o.contains("failed")),
        "no fault produced a failure — injectors are toothless:\n{}",
        serial.join("\n")
    );
}

#[test]
fn clean_bundle_trains_ok_under_supervision() {
    let dataset = matrix_bundle();
    let train = dataset.interactions.clone();
    for mut model in all_models(true) {
        let name = model.name();
        let outcome =
            supervise_fit(model.as_mut(), &dataset, &train, &SupervisorConfig::default(), None);
        assert_eq!(outcome.status, FitStatus::Ok, "{name} on a clean bundle: {:?}", outcome.reason);
        assert_finite_scores(model.as_ref(), name);
    }
}
