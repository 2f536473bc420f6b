//! The cross-method evaluation suite: measures the survey's qualitative
//! claims on the synthetic dataset family.
//!
//! Claims checked (survey Sections 4 and 6):
//!
//! 1. KG side information improves over KG-free CF, and the gap widens
//!    under sparsity (the data-sparsity/cold-start motivation of §1);
//! 2. unified methods are at or above the best embedding-based and
//!    path-based methods (§4.3's "fully exploit information" argument);
//! 3. path-based and unified methods expose reasoning paths (checked by
//!    the figure1/explanation machinery, reported here as coverage).
//!
//! Every model trains under the supervisor, so a panicking or diverging
//! model becomes a `failed` row in the outcome table instead of killing
//! the run. Models are sharded across the deterministic worker pool —
//! metrics are bit-identical for every `--threads` value, and a worker
//! panic poisons exactly one model's row.
//!
//! Usage:
//! `cargo run --release -p kgrec-bench --bin eval_suite -- [--quick]
//! [--threads N] [--no-timing] [--checkpoint-dir DIR]
//! [--inject-fault[=<label>]]`
//!
//! * `--threads N` — worker count (default: `KGREC_THREADS`, then
//!   `available_parallelism`);
//! * `--no-timing` — print `-` in wall-clock columns so stdout is
//!   byte-identical across runs, machines and thread counts (used by the
//!   golden regression test and the CI 1-vs-4-thread diff);
//! * `--checkpoint-dir DIR` — load-or-train warm starts: every model
//!   checkpoints into `DIR/<scenario>/<model>`, and a rerun against the
//!   same directory restores checkpointed models instead of retraining
//!   them (`attempts 0`, `warm start` in the outcome table);
//! * `--inject-fault` — the graceful-degradation drill: appends the
//!   deliberately broken models of [`kgrec_bench::doubles`] to the roster
//!   and, when a label is given, either corrupts every scenario bundle
//!   with that dataset fault before splitting (e.g.
//!   `--inject-fault=nan-ratings`, see [`kgrec_data::Fault`]) or — when
//!   the label names a storage fault (e.g.
//!   `--inject-fault=torn-write`, see [`kgrec_store::StorageFault`]) —
//!   first runs the end-to-end checkpoint-recovery drill: train,
//!   checkpoint, corrupt the store that way, restart, and require the
//!   recovery to fall back to the previous good generation (or fresh
//!   training) without a panic. The suite must still finish all
//!   scenarios and report the casualties in the outcome summary.

use kgrec_bench::doubles::{NanBot, PanicBot, RecoverBot};
use kgrec_bench::storage_drill::run_storage_drill;
use kgrec_bench::{
    checkpoint_dir_from_args, evaluate_roster_supervised, outcome_counts, par, preflight_check,
    preflight_report, print_eval_table, print_outcome_summary, standard_split, threads_from_args,
    EvalRow, ModelReport,
};
use kgrec_core::{Recommender, SupervisorConfig};
use kgrec_data::synth::{generate, ScenarioConfig};
use kgrec_data::Fault;
use kgrec_models::registry::all_models;
use kgrec_store::StorageFault;
use std::path::PathBuf;

/// Everything one suite pass needs to know.
struct SuiteConfig {
    scenarios: Vec<(ScenarioConfig, bool)>,
    threads: usize,
    inject: bool,
    fault: Option<Fault>,
    show_timing: bool,
    /// Per-scenario checkpoint stores live under this root when set.
    checkpoint_root: Option<PathBuf>,
}

/// One pass over every scenario; returns per-scenario reports.
fn run_suite(cfg: &SuiteConfig) -> Vec<(String, Vec<ModelReport>)> {
    // Model fits discover their worker count through `KGREC_THREADS`
    // (`par::resolve_threads(None)`), not through a plumbed argument —
    // pin it to this pass's count so `--threads 1` really serializes the
    // fit path too. Safe: no pool worker is running yet, so no other
    // thread is reading the environment.
    std::env::set_var(par::THREADS_ENV, cfg.threads.to_string());
    let supervisor = SupervisorConfig::default();
    let mut runs: Vec<(String, Vec<ModelReport>)> = Vec::new();
    for (scenario, with_text) in &cfg.scenarios {
        let mut synth = generate(scenario, 2024);
        if let Some(f) = cfg.fault {
            kgrec_data::inject(&mut synth.dataset, f);
        }
        let split = standard_split(&synth, 7);
        if cfg.inject {
            // A corrupted bundle is the point of the drill: report what
            // kglint sees and push on into the supervised evaluation.
            preflight_report(&synth, &split);
        } else {
            preflight_check(&synth, &split);
        }
        println!(
            "\nscenario {}: {} users, {} items, {} interactions, {} KG triples",
            scenario.name,
            scenario.num_users,
            scenario.num_items,
            synth.dataset.interactions.num_interactions(),
            synth.dataset.graph.num_triples()
        );
        let mut roster: Vec<Box<dyn Recommender>> = all_models(*with_text);
        if cfg.inject {
            roster.push(Box::new(PanicBot));
            roster.push(Box::new(NanBot::default()));
            roster.push(Box::new(RecoverBot::new(1)));
        }
        let scenario_root = cfg.checkpoint_root.as_ref().map(|r| r.join(&scenario.name));
        let reports = evaluate_roster_supervised(
            roster,
            &synth,
            &split,
            11,
            &supervisor,
            cfg.threads,
            scenario_root.as_deref(),
        );
        // Progress lines print after the pool drains, in roster order,
        // so stdout is identical at every thread count.
        for report in &reports {
            match &report.row {
                Some(row) => println!("  done: {} (AUC {:.4})", row.model, row.auc),
                None => println!(
                    "  FAILED: {} ({})",
                    report.model,
                    report.outcome.reason.as_deref().unwrap_or("no reason recorded")
                ),
            }
        }
        let rows: Vec<EvalRow> = reports.iter().filter_map(|r| r.row.clone()).collect();
        print_eval_table(&scenario.name, &rows, cfg.show_timing);
        print_outcome_summary(&scenario.name, &reports, cfg.show_timing);
        runs.push((scenario.name.clone(), reports));
    }
    runs
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let quick = args.iter().any(|a| a == "--quick");
    let show_timing = !args.iter().any(|a| a == "--no-timing");
    let threads = par::resolve_threads(threads_from_args(&args));
    let inject = args.iter().any(|a| a == "--inject-fault" || a.starts_with("--inject-fault="));
    let checkpoint_root = checkpoint_dir_from_args(&args);
    let mut fault: Option<Fault> = None;
    let mut storage_fault: Option<StorageFault> = None;
    if let Some(label) = args.iter().find_map(|a| a.strip_prefix("--inject-fault=")) {
        if let Some(f) = StorageFault::from_label(label) {
            storage_fault = Some(f);
        } else if let Some(f) = Fault::from_label(label) {
            fault = Some(f);
        } else {
            let mut known: Vec<&str> = Fault::all().iter().map(Fault::label).collect();
            known.extend(StorageFault::all().iter().map(|f| f.label()));
            panic!("unknown fault label {label:?}; known labels: {}", known.join(", "));
        }
    }
    if inject {
        // The drill provokes panics on purpose; keep the default hook's
        // backtrace spam out of the report.
        std::panic::set_hook(Box::new(|_| {}));
        match (fault, storage_fault) {
            (Some(f), _) => println!("fault drill: broken models + dataset fault `{f}`"),
            (None, Some(f)) => println!("fault drill: broken models + storage fault `{f}`"),
            (None, None) => println!("fault drill: broken models on an otherwise clean bundle"),
        }
    }
    if let Some(f) = storage_fault {
        // End-to-end checkpoint recovery: train → checkpoint → corrupt →
        // restart → require graceful recovery before the suite proper.
        let drill_dir = checkpoint_root
            .clone()
            .unwrap_or_else(std::env::temp_dir)
            .join("storage-drill")
            .join(f.label());
        println!("\n== Storage-fault drill ==");
        let outcome = run_storage_drill(f, &drill_dir);
        println!("{}", outcome.describe());
        assert!(
            outcome.passed(),
            "storage-fault drill `{f}` must recover gracefully without a panic"
        );
    }
    let scenarios: Vec<(ScenarioConfig, bool)> = if quick {
        vec![
            (ScenarioConfig::tiny(), false),
            (ScenarioConfig::tiny().with_sparsity_factor(0.3), false),
        ]
    } else {
        vec![
            (ScenarioConfig::movielens_100k_like(), false),
            (ScenarioConfig::movielens_100k_like().with_sparsity_factor(0.25), false),
            (ScenarioConfig::book_crossing_like(), false),
            (ScenarioConfig::lastfm_like(), false),
            (ScenarioConfig::bing_news_like(), true),
        ]
    };
    // Thread count goes to stderr: stdout must stay byte-identical
    // across `--threads` values for the equivalence checks.
    eprintln!("eval_suite: {threads} worker thread(s)");
    let cfg = SuiteConfig { scenarios, threads, inject, fault, show_timing, checkpoint_root };
    let runs = run_suite(&cfg);

    let mut totals = [0usize; 4];
    for (_, reports) in &runs {
        let counts = outcome_counts(reports);
        for (t, c) in totals.iter_mut().zip(counts) {
            *t += c;
        }
    }
    // --- Claim checks ---
    println!("\n== Claim checks ==");
    for (name, reports) in &runs {
        let rows: Vec<EvalRow> = reports.iter().filter_map(|r| r.row.clone()).collect();
        let best = |filter: &dyn Fn(&&EvalRow) -> bool| {
            rows.iter().filter(filter).map(|r| r.auc).fold(f64::NAN, f64::max)
        };
        let best_baseline = best(&|r| r.family == "baseline");
        let best_kg = best(&|r| r.family != "baseline");
        let best_unified = best(&|r| r.family == "Uni.");
        println!(
            "{name}: best baseline AUC {best_baseline:.4} | best KG-aware {best_kg:.4} | \
             best unified {best_unified:.4} | KG-aware wins: {}",
            best_kg > best_baseline
        );
    }
    let [ok, retried, degraded, failed] = totals;
    println!(
        "\n== Suite outcome: {ok} ok | {retried} retried | {degraded} degraded | {failed} failed \
         across {} scenarios ==",
        cfg.scenarios.len()
    );
    if inject && failed == 0 {
        panic!("fault drill expected at least one failed outcome — injection is broken");
    }
}
