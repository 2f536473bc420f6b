//! Design-choice ablations called out in DESIGN.md:
//!
//! * the four KGCN aggregators (survey Eqs. 30–33) — expected to sit in a
//!   narrow band, with bi-interaction generally strongest;
//! * RippleNet hop depth (1 vs 2 vs 3) — the preference-propagation
//!   radius;
//! * KGCN-LS's label-smoothness weight;
//! * the five KGE backends inside one recommendation formulation (the
//!   survey's §6 "Knowledge Graph Embedding Method" direction);
//! * user side information: the same model with and without homophilous
//!   social links folded into the user–item graph (§6).
//!
//! Usage:
//! `cargo run --release -p kgrec-bench --bin ablation [--quick]
//! [--threads N] [--no-timing]`
//!
//! Ablation variants are independent models over one shared split, so
//! they shard across the worker pool; within each variant the top-K
//! protocol additionally shards users when `--threads` exceeds the
//! variant count. Results are bit-identical for every thread count.

use kgrec_bench::{
    evaluate_model_supervised, par, preflight_check, print_eval_table, standard_split,
    threads_from_args, EvalRow, ModelReport,
};
use kgrec_core::{Recommender, SupervisorConfig};
use kgrec_data::split::Split;
use kgrec_data::synth::{generate, ScenarioConfig, SyntheticDataset};
use kgrec_models::embedding::{KgeBackend, KgeRecommender};
use kgrec_models::registry::kgcn_aggregator_ablation;
use kgrec_models::unified::{Kgcn, KgcnConfig, RippleNet, RippleNetConfig};
use std::sync::Mutex;

/// Evaluates one variant under supervision.
fn evaluate(
    model: &mut dyn Recommender,
    synth: &SyntheticDataset,
    split: &Split,
    threads: usize,
) -> ModelReport {
    evaluate_model_supervised(model, synth, split, 11, &SupervisorConfig::default(), threads, None)
}

/// Relabels a usable report's row with its variant label. An unusable
/// variant prints its status and reason to stderr instead, so stdout
/// stays the table of usable rows.
fn labeled_row(report: ModelReport, label: &str) -> Option<EvalRow> {
    let ModelReport { model, outcome, row, .. } = report;
    if row.is_none() {
        eprintln!(
            "ablation: {model} ({label}) {}: {}",
            outcome.status.label(),
            outcome.reason.as_deref().unwrap_or("no reason recorded")
        );
    }
    row.map(|mut r| {
        r.family = label.to_owned();
        r
    })
}

/// Evaluates the ablation variants on the pool, relabels each row with
/// its variant label, and keeps the variant order.
fn run_variants(
    variants: Vec<(Box<dyn Recommender>, String)>,
    synth: &SyntheticDataset,
    split: &Split,
    threads: usize,
) -> Vec<EvalRow> {
    let labels: Vec<String> = variants.iter().map(|(_, l)| l.clone()).collect();
    let slots: Vec<Mutex<Box<dyn Recommender>>> =
        variants.into_iter().map(|(m, _)| Mutex::new(m)).collect();
    let reports = par::par_map(&slots, threads, |_, slot| {
        let mut model = slot.lock().expect("variant slot poisoned");
        // Inner protocols stay serial here; the pool is already busy
        // with one worker per variant.
        evaluate(model.as_mut(), synth, split, 1)
    });
    reports
        .into_iter()
        .zip(labels)
        .filter_map(|(report, label)| labeled_row(report, &label))
        .collect()
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let quick = args.iter().any(|a| a == "--quick");
    let show_timing = !args.iter().any(|a| a == "--no-timing");
    let threads = par::resolve_threads(threads_from_args(&args));
    let cfg = if quick { ScenarioConfig::tiny() } else { ScenarioConfig::movielens_100k_like() };
    let synth = generate(&cfg, 2024);
    let split = standard_split(&synth, 7);
    preflight_check(&synth, &split);
    eprintln!("ablation: {threads} worker thread(s)");

    // KGCN aggregators.
    let variants: Vec<(Box<dyn Recommender>, String)> = kgcn_aggregator_ablation()
        .into_iter()
        .zip(["sum", "concat", "neighbor", "bi-interaction"])
        .map(|(m, l)| (m, l.to_owned()))
        .collect();
    let rows = run_variants(variants, &synth, &split, threads);
    print_eval_table("KGCN aggregator ablation (Eqs. 30-33)", &rows, show_timing);

    // RippleNet hops.
    let variants: Vec<(Box<dyn Recommender>, String)> = [1usize, 2, 3]
        .into_iter()
        .map(|hops| {
            let m = RippleNet::new(RippleNetConfig { hops, ..Default::default() });
            (Box::new(m) as Box<dyn Recommender>, format!("H={hops}"))
        })
        .collect();
    let rows = run_variants(variants, &synth, &split, threads);
    print_eval_table("RippleNet hop-depth ablation", &rows, show_timing);

    // Label-smoothness weight.
    let variants: Vec<(Box<dyn Recommender>, String)> = [0.0f32, 0.1, 0.5, 1.0]
        .into_iter()
        .map(|ls| {
            let m = Kgcn::new(KgcnConfig { ls_weight: ls, ..Default::default() });
            (Box::new(m) as Box<dyn Recommender>, format!("ls={ls}"))
        })
        .collect();
    let rows = run_variants(variants, &synth, &split, threads);
    print_eval_table("KGCN-LS label-smoothness weight", &rows, show_timing);

    // KGE backends inside the CFKG formulation (survey §6).
    let variants: Vec<(Box<dyn Recommender>, String)> = KgeBackend::all()
        .into_iter()
        .map(|backend| {
            let m = KgeRecommender::with_backend(backend);
            (Box::new(m) as Box<dyn Recommender>, backend.label().to_owned())
        })
        .collect();
    let rows = run_variants(variants, &synth, &split, threads);
    print_eval_table("KGE backend comparison (CFKG formulation)", &rows, show_timing);

    // User side information (survey §6): same model, graph with and
    // without homophilous social links. Scenarios differ per variant, so
    // this stays a serial loop with per-user parallelism inside.
    let sparse_cfg = cfg.with_sparsity_factor(0.3);
    let mut rows = Vec::new();
    for (label, scenario) in
        [("no-social", sparse_cfg.clone()), ("social", sparse_cfg.with_social_links(4))]
    {
        let synth_s = generate(&scenario, 2024);
        let split_s = standard_split(&synth_s, 7);
        preflight_check(&synth_s, &split_s);
        let mut m = KgeRecommender::with_backend(KgeBackend::TransE);
        rows.extend(labeled_row(evaluate(&mut m, &synth_s, &split_s, threads), label));
    }
    print_eval_table("user side information (sparse regime)", &rows, show_timing);
}
