//! Harness utilities shared by the table/figure binaries and the
//! evaluation suite.
//!
//! The binaries in `src/bin/` regenerate the survey's tables and figure:
//!
//! | binary | reproduces |
//! |---|---|
//! | `table1` | Table 1 — commonly used knowledge graphs |
//! | `table3` | Table 3 — the method taxonomy (full literature + implemented subset) |
//! | `table4` | Table 4 — datasets per scenario |
//! | `figure1` | Figure 1 — the explainable movie-recommendation example |
//! | `eval_suite` | the survey's qualitative claims, measured |
//! | `ablation` | design-choice ablations (KGCN aggregators, RippleNet hops) |
//! | `kernel_bench` | numeric hot-path kernel timings → `BENCH_kernels.json` |
//! | `scale_bench` | the million-user data-layer drill → `BENCH_scale.json` |
//! | `serve_bench` | the two-stage serving replay → `BENCH_serve.json` |
//!
//! Evaluation is parallel by default: models shard across the
//! deterministic worker pool ([`par`], re-exported from
//! `kgrec_linalg::par`), with `--threads N` / `KGREC_THREADS` selecting
//! the worker count and metrics bit-identical at any setting.
//! `kernel_bench` records kernel-level timings to `BENCH_kernels.json`
//! via [`kernel_report`]; end-to-end timing (fit, CTR and top-K per
//! model, and serving) is the separate `kgbench` package's job.
//!
//! Models are evaluated through one path: [`evaluate_model_supervised`]
//! for a single model (`ablation`, `examples/model_zoo`) and
//! [`evaluate_roster_supervised`] for a roster (`eval_suite`). Both train
//! under [`kgrec_core::supervise_fit`] and take an optional checkpoint
//! root (`--checkpoint-dir`) for load-or-train runs.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod doubles;
pub mod kernel_report;
pub mod storage_drill;

pub use kgrec_linalg::par;

use kgrec_check::rules::RegistryConsistency;
use kgrec_check::{default_model_hyperparams, CheckBundle, CheckReport};
use kgrec_core::protocol::{evaluate_ctr_par, evaluate_topk_par};
use kgrec_core::{
    panic_message, supervise_fit, FitOutcome, FitStatus, Recommender, SupervisorConfig,
};
use kgrec_data::negative::labeled_eval_set;
use kgrec_data::split::{ratio_split, Split};
use kgrec_data::synth::{generate, ScenarioConfig, SyntheticDataset};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Mutex;
use std::time::Duration;

/// Finds the first `--name V` / `--name=V` flag in `args` and returns
/// its value, or `None` when the flag is absent. Every bench binary
/// parses its valued flags through this one function.
///
/// # Panics
/// Panics when `--name` is the last argument: a flag given without its
/// value must kill the run, not silently fall back to a default (or skip
/// a gate).
pub fn flag_value<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    let inline = format!("{name}=");
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if a == name {
            let value = it.next().unwrap_or_else(|| panic!("{name} needs a value"));
            return Some(value);
        }
        if let Some(v) = a.strip_prefix(&inline) {
            return Some(v);
        }
    }
    None
}

/// Parses a `--threads N` / `--threads=N` flag from a raw argument list.
///
/// Returns `None` when absent (callers fall through to
/// [`par::resolve_threads`]'s env/auto policy).
///
/// # Panics
/// Panics on a missing, malformed or zero value — a typo'd thread count
/// should kill the run, not silently serialize it.
pub fn threads_from_args(args: &[String]) -> Option<usize> {
    let raw = flag_value(args, "--threads")?;
    match raw.parse::<usize>() {
        Ok(n) if n > 0 => Some(n),
        _ => panic!("invalid --threads value {raw:?} (want a positive integer)"),
    }
}

/// Parses a `--checkpoint-dir DIR` / `--checkpoint-dir=DIR` flag from a
/// raw argument list. Returns `None` when absent (checkpointing off).
///
/// # Panics
/// Panics when the flag is present without a value.
pub fn checkpoint_dir_from_args(args: &[String]) -> Option<std::path::PathBuf> {
    flag_value(args, "--checkpoint-dir").map(std::path::PathBuf::from)
}

/// One row of an evaluation table.
#[derive(Debug, Clone)]
pub struct EvalRow {
    /// Model name.
    pub model: &'static str,
    /// Usage-type label (`Emb.` / `Path` / `Uni.` / `baseline`).
    pub family: String,
    /// CTR AUC.
    pub auc: f64,
    /// CTR accuracy.
    pub accuracy: f64,
    /// Recall@10 (full ranking).
    pub recall_at_10: f64,
    /// NDCG@10.
    pub ndcg_at_10: f64,
    /// HitRate@10.
    pub hit_at_10: f64,
    /// Wall-clock training seconds.
    pub fit_seconds: f64,
}

/// Family column value: `"baseline"` for the KG-free baselines, the
/// Table 3 usage label otherwise.
fn family_of(model: &dyn Recommender) -> String {
    if model.taxonomy().venue == "baseline" {
        "baseline".to_owned()
    } else {
        model.taxonomy().usage.label().to_owned()
    }
}

/// What a supervised evaluation produced for one model: the training
/// outcome always, the metric row only when the model ended usable.
#[derive(Debug)]
pub struct ModelReport {
    /// Model name.
    pub model: &'static str,
    /// Usage-type label (`Emb.` / `Path` / `Uni.` / `baseline`).
    pub family: String,
    /// The supervisor's verdict on training.
    pub outcome: FitOutcome,
    /// Metrics, when [`FitOutcome::is_usable`] held and evaluation
    /// itself survived.
    pub row: Option<EvalRow>,
}

/// Directory-safe slug of a model name (`BPR-MF` → `bpr-mf`): checkpoint
/// stores are keyed by it under the run's `--checkpoint-dir` root.
pub fn model_slug(name: &str) -> String {
    name.chars()
        .map(|c| if c.is_ascii_alphanumeric() { c.to_ascii_lowercase() } else { '-' })
        .collect()
}

/// Trains `model` under [`kgrec_core::supervise_fit`] and, when the
/// outcome is usable, evaluates it under both protocols on up to
/// `threads` pool workers (1 = serial; metrics are bit-identical either
/// way).
///
/// This never panics and never silently drops a model: panics,
/// divergence, non-finite scores and budget overruns all come back as a
/// [`ModelReport`] whose outcome says what happened. Evaluation runs
/// under its own `catch_unwind` — a model that trains but panics while
/// ranking is downgraded to [`FitStatus::Failed`] with an
/// `evaluation panicked` reason.
///
/// With a `checkpoint_root`, the model gets a per-model checkpoint store
/// under `<root>/<model-slug>` — a usable previous generation becomes a
/// warm start (load-or-train), a fresh fit is saved back, and models that
/// checkpoint during `fit` ([`Recommender::set_checkpoint_dir`])
/// additionally resume epoch-level from `<root>/<model-slug>/epochs`.
pub fn evaluate_model_supervised(
    model: &mut dyn Recommender,
    synth: &SyntheticDataset,
    split: &Split,
    seed: u64,
    config: &SupervisorConfig,
    threads: usize,
    checkpoint_root: Option<&std::path::Path>,
) -> ModelReport {
    let name = model.name();
    let family = family_of(model);
    let store = checkpoint_root.and_then(|root| {
        let dir = root.join(model_slug(name));
        model.set_checkpoint_dir(&dir.join("epochs"));
        kgrec_store::CheckpointStore::open(&dir).ok()
    });
    let mut outcome = supervise_fit(model, &synth.dataset, &split.train, config, store.as_ref());
    let row = if outcome.is_usable() {
        let fit_seconds = outcome.elapsed.as_secs_f64();
        let fam = family.clone();
        let evaluated = catch_unwind(AssertUnwindSafe(|| {
            let mut rng = StdRng::seed_from_u64(seed);
            let pairs = labeled_eval_set(&split.train, &split.test, 4, &mut rng);
            let ctr = evaluate_ctr_par(&*model, &pairs, threads);
            let topk = evaluate_topk_par(&*model, &split.train, &split.test, &[10], threads);
            EvalRow {
                model: name,
                family: fam,
                auc: ctr.auc,
                accuracy: ctr.accuracy,
                recall_at_10: topk.cutoffs[0].recall,
                ndcg_at_10: topk.cutoffs[0].ndcg,
                hit_at_10: topk.cutoffs[0].hit_rate,
                fit_seconds,
            }
        }));
        match evaluated {
            Ok(row) => Some(row),
            Err(payload) => {
                outcome.status = FitStatus::Failed;
                outcome.reason =
                    Some(format!("evaluation panicked: {}", panic_message(payload.as_ref())));
                None
            }
        }
    } else {
        None
    };
    ModelReport { model: name, family, outcome, row }
}

/// Evaluates a whole roster under supervision, sharding **models**
/// across the worker pool (each model's own protocols then run
/// single-threaded — the two protocol layers are not stacked, so
/// ranking is never oversubscribed). Model *fits* resolve their own
/// worker count from `KGREC_THREADS`; suite binaries pin that variable
/// to the run's `--threads` value so the fit path parallelizes — and
/// serializes — together with the rest of the run.
///
/// Reports come back in roster order regardless of which worker finished
/// first, and each model's training RNG is seeded per model exactly as
/// in the serial loop, so the metric tables are bit-identical at any
/// thread count.
///
/// Fault isolation is two-layered: [`supervise_fit`] catches model
/// panics inside the worker, and the pool's [`par::par_map_catch`]
/// catches anything that escapes (a poisoned shard). Either way exactly
/// one [`ModelReport`] row degrades — the pool never deadlocks and no
/// panic escapes to the caller.
///
/// With a `checkpoint_root`, each model checkpoints into
/// `<checkpoint_root>/<model-slug>` (see [`evaluate_model_supervised`]).
pub fn evaluate_roster_supervised(
    roster: Vec<Box<dyn Recommender>>,
    synth: &SyntheticDataset,
    split: &Split,
    seed: u64,
    config: &SupervisorConfig,
    threads: usize,
    checkpoint_root: Option<&std::path::Path>,
) -> Vec<ModelReport> {
    let meta: Vec<(&'static str, String)> =
        roster.iter().map(|m| (m.name(), family_of(m.as_ref()))).collect();
    // Mutex-per-model hands each worker exclusive `&mut` access without
    // `unsafe`; slots are claimed once, so the locks never contend.
    let slots: Vec<Mutex<Box<dyn Recommender>>> = roster.into_iter().map(Mutex::new).collect();
    let inner_threads = if threads > 1 { 1 } else { threads.max(1) };
    let results = par::par_map_catch(&slots, threads, |_, slot| {
        let mut model = slot.lock().expect("model slot poisoned");
        evaluate_model_supervised(
            model.as_mut(),
            synth,
            split,
            seed,
            config,
            inner_threads,
            checkpoint_root,
        )
    });
    results
        .into_iter()
        .zip(meta)
        .map(|(result, (name, family))| match result {
            Ok(report) => report,
            // A panic that escaped the supervisor's own isolation (e.g. a
            // poisoned model mutex) poisons only this row.
            Err(message) => ModelReport {
                model: name,
                family,
                outcome: FitOutcome {
                    status: FitStatus::Failed,
                    attempts: 0,
                    elapsed: Duration::ZERO,
                    reason: Some(format!("worker shard panicked: {message}")),
                    overshoot: None,
                },
                row: None,
            },
        })
        .collect()
}

/// Outcome counts across a set of reports, in state-machine order:
/// `[ok, retried, degraded, failed]`.
pub fn outcome_counts(reports: &[ModelReport]) -> [usize; 4] {
    let mut counts = [0usize; 4];
    for r in reports {
        let i = match r.outcome.status {
            FitStatus::Ok => 0,
            FitStatus::Retried => 1,
            FitStatus::Degraded => 2,
            FitStatus::Failed => 3,
        };
        counts[i] += 1;
    }
    counts
}

/// Prints the per-model training-outcome table for one scenario: status,
/// attempts, wall-clock, and the failure/degradation reason (`-` for
/// clean first-attempt fits).
///
/// With `show_timing = false` the wall-clock column prints `-`, making
/// the table byte-identical across machines and thread counts (the golden
/// regression test and the CI 1-vs-4-thread diff rely on this).
pub fn print_outcome_summary(title: &str, reports: &[ModelReport], show_timing: bool) {
    println!("\n== {title}: training outcomes ==");
    println!(
        "{:<12} {:<9} {:<9} {:>8} {:>8}  reason",
        "model", "family", "status", "attempts", "fit(s)"
    );
    for r in reports {
        let fit = if show_timing {
            format!("{:.2}", r.outcome.elapsed.as_secs_f64())
        } else {
            "-".to_owned()
        };
        println!(
            "{:<12} {:<9} {:<9} {:>8} {:>8}  {}",
            r.model,
            r.family,
            r.outcome.status.label(),
            r.outcome.attempts,
            fit,
            r.outcome.reason.as_deref().unwrap_or("-")
        );
    }
    let [ok, retried, degraded, failed] = outcome_counts(reports);
    println!("   {ok} ok | {retried} retried | {degraded} degraded | {failed} failed");
}

/// Standard split used across the harness: 20% per-user holdout.
pub fn standard_split(synth: &SyntheticDataset, seed: u64) -> Split {
    ratio_split(&synth.dataset.interactions, 0.2, seed)
}

/// Runs the full `kglint` rule set over a scenario bundle: the split,
/// the labeled evaluation pairs and the default model hyperparameters.
fn preflight_lint(synth: &SyntheticDataset, split: &Split) -> CheckReport {
    let mut rng = StdRng::seed_from_u64(0xC0FFEE);
    let pairs = labeled_eval_set(&split.train, &split.test, 4, &mut rng);
    let bundle = CheckBundle::new(&synth.dataset)
        .with_split(split)
        .with_eval_pairs(&pairs)
        .with_hyperparams(default_model_hyperparams());
    CheckReport::run(&bundle)
}

/// Runs the full `kglint` rule set over a scenario bundle in strict mode
/// (warnings fail) before any training happens.
///
/// The harness binaries call this on every scenario; a corrupted bundle
/// aborts the run instead of producing subtly wrong tables.
///
/// # Panics
/// Panics with the rendered report when the check fails.
pub fn preflight_check(synth: &SyntheticDataset, split: &Split) {
    let report = preflight_lint(synth, split);
    if report.fails(true) {
        panic!(
            "preflight kglint failed (strict) for scenario {}:\n{}",
            synth.config.name,
            report.render()
        );
    }
}

/// Non-fatal variant of [`preflight_check`] for fault-injection runs:
/// runs the same strict `kglint` pass but *reports* instead of
/// panicking, so a deliberately corrupted bundle can continue into the
/// supervised evaluation. Returns `true` when strict mode would have
/// failed — i.e. when the injected corruption was detected.
pub fn preflight_report(synth: &SyntheticDataset, split: &Split) -> bool {
    let report = preflight_lint(synth, split);
    let dirty = report.fails(true);
    if dirty {
        println!(
            "kglint flagged scenario {} (continuing under supervision):\n{}",
            synth.config.name,
            report.render()
        );
    }
    dirty
}

/// Runs the registry/taxonomy consistency rule (`MD001`) in strict mode.
///
/// Called by the metadata binaries (`table3`) that render registry
/// contents without touching a dataset.
///
/// # Panics
/// Panics with the rendered report when the registry is inconsistent.
pub fn preflight_registry() {
    // MD001 ignores the bundle, but the runner needs one; tiny generates
    // in microseconds.
    let synth = generate(&ScenarioConfig::tiny(), 0);
    let bundle = CheckBundle::new(&synth.dataset);
    let report = CheckReport::run_rules(&bundle, &[Box::new(RegistryConsistency)]);
    if report.fails(true) {
        panic!("registry consistency check failed:\n{}", report.render());
    }
}

/// Prints an evaluation table in a fixed-width layout. With
/// `show_timing = false` the `fit(s)` column prints `-` so the table is
/// byte-identical across machines and thread counts.
pub fn print_eval_table(title: &str, rows: &[EvalRow], show_timing: bool) {
    println!("\n== {title} ==");
    println!(
        "{:<12} {:<9} {:>7} {:>7} {:>8} {:>8} {:>7} {:>8}",
        "model", "family", "AUC", "ACC", "R@10", "NDCG@10", "HR@10", "fit(s)"
    );
    for r in rows {
        let fit = if show_timing { format!("{:.2}", r.fit_seconds) } else { "-".to_owned() };
        println!(
            "{:<12} {:<9} {:>7.4} {:>7.4} {:>8.4} {:>8.4} {:>7.4} {:>8}",
            r.model, r.family, r.auc, r.accuracy, r.recall_at_10, r.ndcg_at_10, r.hit_at_10, fit
        );
    }
}

/// Column width of a cell as the terminal will pad it: Rust's `{:<w$}`
/// formatting counts `char`s, so widths must too — `len()` counts bytes
/// and breaks alignment on the first multi-byte model or dataset name
/// (grapheme clusters and double-width CJK glyphs remain approximate,
/// which matches the formatter's own behavior).
fn cell_width(cell: &str) -> usize {
    cell.chars().count()
}

/// Renders a plain-text table with a header and aligned columns (used by
/// the table1/table3/table4 binaries).
pub fn print_text_table(headers: &[&str], rows: &[Vec<String>]) {
    let mut widths: Vec<usize> = headers.iter().map(|h| cell_width(h)).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell_width(cell));
            }
        }
    }
    let line = |cells: Vec<&str>| {
        let mut s = String::new();
        for (i, c) in cells.iter().enumerate() {
            s.push_str(&format!("{:<w$}  ", c, w = widths[i]));
        }
        println!("{}", s.trim_end());
    };
    line(headers.to_vec());
    let total: usize = widths.iter().sum::<usize>() + 2 * widths.len();
    println!("{}", "-".repeat(total));
    for row in rows {
        line(row.iter().map(String::as_str).collect());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kgrec_data::synth::{generate, ScenarioConfig};
    use kgrec_models::baselines::MostPop;

    #[test]
    fn evaluate_model_produces_sane_row() {
        let synth = generate(&ScenarioConfig::tiny(), 1);
        let split = standard_split(&synth, 2);
        let mut model = MostPop::new();
        let report = evaluate_model_supervised(
            &mut model,
            &synth,
            &split,
            3,
            &SupervisorConfig::default(),
            1,
            None,
        );
        let row = report.row.expect("MostPop fits the tiny scenario");
        assert_eq!(row.model, "MostPop");
        assert!(row.auc > 0.0 && row.auc <= 1.0);
        assert!(row.recall_at_10 >= 0.0 && row.recall_at_10 <= 1.0);
    }

    #[test]
    fn evaluate_model_is_thread_count_invariant() {
        let synth = generate(&ScenarioConfig::tiny(), 1);
        let split = standard_split(&synth, 2);
        let row = |threads| {
            let config = SupervisorConfig::default();
            evaluate_model_supervised(
                &mut MostPop::new(),
                &synth,
                &split,
                3,
                &config,
                threads,
                None,
            )
            .row
            .expect("MostPop fits the tiny scenario")
        };
        let serial = row(1);
        for threads in [2, 4, 7] {
            let par = row(threads);
            assert_eq!(par.auc, serial.auc, "threads={threads}");
            assert_eq!(par.accuracy, serial.accuracy);
            assert_eq!(par.recall_at_10, serial.recall_at_10);
            assert_eq!(par.ndcg_at_10, serial.ndcg_at_10);
            assert_eq!(par.hit_at_10, serial.hit_at_10);
        }
    }

    #[test]
    fn text_table_does_not_panic_on_ragged_rows() {
        print_text_table(&["a", "b"], &[vec!["x".into(), "yyy".into()]]);
    }

    #[test]
    fn text_table_widths_count_chars_not_bytes() {
        // "KGAT™" is 5 chars / 7 bytes; "模型" is 2 chars / 6 bytes. Byte
        // widths would over-pad every other cell in the column.
        assert_eq!(cell_width("KGAT™"), 5);
        assert_eq!(cell_width("模型"), 2);
        assert_eq!(cell_width("ascii"), 5);
        // Rendering multi-byte rows must not panic and must align: the
        // widest first-column cell is "KGAT™" (5 chars), so the header
        // pads to 5 chars + 2 spaces before "b".
        print_text_table(
            &["model", "b"],
            &[vec!["KGAT™".into(), "x".into()], vec!["模型".into(), "y".into()]],
        );
    }

    #[test]
    fn threads_flag_parses_both_spellings() {
        let to_args = |v: &[&str]| v.iter().map(|s| (*s).to_owned()).collect::<Vec<_>>();
        assert_eq!(threads_from_args(&to_args(&["--quick", "--threads", "4"])), Some(4));
        assert_eq!(threads_from_args(&to_args(&["--threads=7"])), Some(7));
        assert_eq!(threads_from_args(&to_args(&["--quick"])), None);
        let dir = |v: &[&str]| checkpoint_dir_from_args(&to_args(v));
        assert_eq!(dir(&["--quick", "--checkpoint-dir", "ck"]), Some("ck".into()));
        assert_eq!(dir(&["--checkpoint-dir=a/b", "--threads", "2"]), Some("a/b".into()));
        assert_eq!(dir(&["--threads", "2"]), None);
        let value = |v: &[&str], name| flag_value(&to_args(v), name).map(str::to_owned);
        assert_eq!(
            value(&["--quick", "--baseline", "b.json"], "--baseline"),
            Some("b.json".into())
        );
        assert_eq!(value(&["--quick", "--baseline=b.json"], "--baseline"), Some("b.json".into()));
        assert_eq!(value(&["--out=a.json", "--threads", "2"], "--out"), Some("a.json".into()));
        assert_eq!(value(&["--out", "a.json"], "--out"), Some("a.json".into()));
        assert_eq!(value(&["--quick"], "--baseline"), None);
    }

    #[test]
    #[should_panic(expected = "--baseline needs a value")]
    fn a_flag_without_its_value_panics() {
        flag_value(&["--quick".to_owned(), "--baseline".to_owned()], "--baseline");
    }

    #[test]
    fn supervised_evaluation_of_a_healthy_model_yields_a_row() {
        let synth = generate(&ScenarioConfig::tiny(), 1);
        let split = standard_split(&synth, 2);
        let mut model = MostPop::new();
        let report = evaluate_model_supervised(
            &mut model,
            &synth,
            &split,
            3,
            &SupervisorConfig::default(),
            1,
            None,
        );
        assert_eq!(report.outcome.status, FitStatus::Ok);
        let row = report.row.expect("usable outcome must carry metrics");
        assert_eq!(row.model, "MostPop");
        assert!(row.auc > 0.0 && row.auc <= 1.0);
    }

    #[test]
    fn supervised_evaluation_isolates_a_panicking_model() {
        let hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let synth = generate(&ScenarioConfig::tiny(), 1);
        let split = standard_split(&synth, 2);
        let mut model = crate::doubles::PanicBot;
        let report = evaluate_model_supervised(
            &mut model,
            &synth,
            &split,
            3,
            &SupervisorConfig::default(),
            1,
            None,
        );
        std::panic::set_hook(hook);
        assert_eq!(report.outcome.status, FitStatus::Failed);
        assert!(report.row.is_none());
        assert!(report.outcome.reason.unwrap().contains("panic"));
    }

    #[test]
    fn roster_evaluation_matches_the_serial_loop_bit_for_bit() {
        let synth = generate(&ScenarioConfig::tiny(), 1);
        let split = standard_split(&synth, 2);
        let config = SupervisorConfig::default();
        let roster = || -> Vec<Box<dyn Recommender>> {
            vec![
                Box::new(MostPop::new()),
                Box::new(kgrec_models::baselines::ItemKnn::new(10)),
                Box::new(kgrec_models::baselines::BprMf::default_config()),
            ]
        };
        let serial = evaluate_roster_supervised(roster(), &synth, &split, 3, &config, 1, None);
        for threads in [2, 4] {
            let par =
                evaluate_roster_supervised(roster(), &synth, &split, 3, &config, threads, None);
            assert_eq!(par.len(), serial.len());
            for (p, s) in par.iter().zip(&serial) {
                assert_eq!(p.model, s.model, "roster order must be preserved");
                assert_eq!(p.outcome.status, s.outcome.status);
                let (pr, sr) = (p.row.as_ref().unwrap(), s.row.as_ref().unwrap());
                assert_eq!(pr.auc, sr.auc, "{}: AUC drifted at threads={threads}", p.model);
                assert_eq!(pr.ndcg_at_10, sr.ndcg_at_10);
                assert_eq!(pr.recall_at_10, sr.recall_at_10);
            }
        }
    }

    #[test]
    fn roster_evaluation_poisons_only_the_panicking_row() {
        let hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let synth = generate(&ScenarioConfig::tiny(), 1);
        let split = standard_split(&synth, 2);
        let roster: Vec<Box<dyn Recommender>> = vec![
            Box::new(MostPop::new()),
            Box::new(crate::doubles::PanicBot),
            Box::new(kgrec_models::baselines::ItemKnn::new(10)),
        ];
        let config = SupervisorConfig::default();
        let reports = evaluate_roster_supervised(roster, &synth, &split, 3, &config, 4, None);
        std::panic::set_hook(hook);
        assert_eq!(outcome_counts(&reports), [2, 0, 0, 1]);
        assert_eq!(reports[1].model, "PanicBot");
        assert_eq!(reports[1].outcome.status, FitStatus::Failed);
        assert!(reports[0].row.is_some() && reports[2].row.is_some());
    }

    #[test]
    fn outcome_summary_counts_by_status() {
        let synth = generate(&ScenarioConfig::tiny(), 1);
        let split = standard_split(&synth, 2);
        let hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let mut pop = MostPop::new();
        let mut bot = crate::doubles::NanBot::default();
        let config = SupervisorConfig::default();
        let reports = vec![
            evaluate_model_supervised(&mut pop, &synth, &split, 3, &config, 1, None),
            evaluate_model_supervised(&mut bot, &synth, &split, 3, &config, 1, None),
        ];
        std::panic::set_hook(hook);
        assert_eq!(outcome_counts(&reports), [1, 0, 0, 1]);
        // Rendering must not panic on mixed outcomes, timing on or off.
        print_outcome_summary("test", &reports, true);
        print_outcome_summary("test", &reports, false);
    }

    #[test]
    fn preflight_report_is_quiet_on_clean_bundles_and_loud_on_faults() {
        let synth = generate(&ScenarioConfig::tiny(), 1);
        let split = standard_split(&synth, 2);
        assert!(!preflight_report(&synth, &split));
        let mut corrupted = generate(&ScenarioConfig::tiny(), 1);
        kgrec_data::inject(&mut corrupted.dataset, kgrec_data::Fault::DuplicateTriples);
        let split = standard_split(&corrupted, 2);
        assert!(preflight_report(&corrupted, &split));
    }
}
