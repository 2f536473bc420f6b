//! `scale_bench` — the million-user data-layer drill.
//!
//! Exercises the columnar/CSR data layer end-to-end at scale and writes
//! `BENCH_scale.json` next to the other benchmark artifacts:
//!
//! 1. **generate** — stream the `huge` scenario into the columnar store
//!    ([`kgrec_data::synth::generate_streaming`]; no intermediate
//!    interaction list);
//! 2. **validate** — strict kglint pass over the generated bundle plus
//!    the columnar-store and CSR integrity scans;
//! 3. **split** — RNG-free streaming `systematic_holdout` (1/5 test);
//! 4. **fit** — supervised fit with checkpointing (MostPop: the drill
//!    measures the data layer, not model quality);
//! 5. **eval** — parallel CTR protocol over the full labeled pair set
//!    (top-K full ranking is intentionally excluded at this scale);
//! 6. **ingest** — append a 1% interaction batch, then prove the
//!    warm-start path resumes from the checkpoint (`attempts == 0`);
//! 7. **memory** — peak RSS (`VmHWM`) against a stated budget, and the
//!    generated store's bytes per row against [`MAX_STORE_BYTES_PER_ROW`]
//!    (a deterministic layout gate: sentinel-only payload columns must
//!    not be stored, and stamps that fit 32 bits are stored in 32).
//!
//! Every phase also records the resident set (`VmRSS`) at its end as
//! `rss_mb`, ungated, so a peak-RSS change points at the phase that
//! holds the memory.
//!
//! Modes: the default `--smoke` runs the 50×-reduced `huge-smoke`
//! configuration (CI on every push); `--full` runs the real 1M-user
//! scenario (nightly). Exit code 0 = all gates green; 1 = a validation,
//! warm-start or store-layout gate failed; 2 = memory budget exceeded.
//!
//! The mode alone fixes every bound: the memory budget is
//! `BUDGET_SMOKE_MB` or `BUDGET_FULL_MB`.
//!
//! Usage: `scale_bench [--smoke|--full] [--threads N] [--out PATH]`

use kgrec_bench::{flag_value, threads_from_args};
use kgrec_check::json::{json_f64, json_str};
use kgrec_check::{default_model_hyperparams, CheckBundle, CheckReport};
use kgrec_core::protocol::evaluate_ctr_par;
use kgrec_core::supervisor::{supervise_fit, SupervisorConfig};
use kgrec_core::Recommender;
use kgrec_data::negative::labeled_eval_set;
use kgrec_data::split::systematic_holdout;
use kgrec_data::synth::generate_streaming;
use kgrec_data::{Interaction, ItemId, KgDataset, ScenarioConfig, UserId};
use kgrec_models::baselines::MostPop;
use kgrec_store::CheckpointStore;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::io::Write;
use std::time::Instant;

const SEED: u64 = 2024;
const HOLDOUT_EVERY_NTH: usize = 5;
/// Peak-RSS budgets (MiB); see `DESIGN.md` §13 for the envelope
/// derivation.
const BUDGET_SMOKE_MB: u64 = 1024;
const BUDGET_FULL_MB: u64 = 4096;
/// Ceiling on `memory_bytes() / rows` of the generated store with its
/// item-major index built. The `huge` scenarios are implicit with
/// timestamps below `u32::MAX`, so a row costs its item (4 B), its
/// item-index user (4 B) and its 32-bit timestamp (4 B), plus the offset
/// arrays (~0.5 B/row at `huge-smoke`). A stored all-`NaN` rating column
/// or a 64-bit timestamp column would add 4 B. Until a reader builds the
/// index, a row costs 4 B less.
const MAX_STORE_BYTES_PER_ROW: f64 = 13.0;

struct Phase {
    name: &'static str,
    seconds: f64,
    rows: usize,
    /// Resident set (`VmRSS`, MiB) when the phase ended.
    rss_mb: Option<u64>,
    /// Extra `key: value` pairs, each value already rendered as JSON.
    detail: Vec<(&'static str, String)>,
}

impl Phase {
    /// A finished phase; reads the resident set now.
    fn new(name: &'static str, seconds: f64, rows: usize) -> Self {
        Self { name, seconds, rows, rss_mb: status_mb("VmRSS:"), detail: Vec::new() }
    }

    /// Appends a detail whose `value` is already rendered as JSON.
    fn with(mut self, key: &'static str, value: String) -> Self {
        self.detail.push((key, value));
        self
    }

    fn rows_per_s(&self) -> f64 {
        if self.seconds > 0.0 {
            self.rows as f64 / self.seconds
        } else {
            0.0
        }
    }
}

/// A `/proc/self/status` memory field (`key` with its colon, e.g.
/// `"VmHWM:"`) in MiB, where the platform has one.
fn status_mb(key: &str) -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    for line in status.lines() {
        if let Some(rest) = line.strip_prefix(key) {
            let kb: u64 = rest.trim().trim_end_matches("kB").trim().parse().ok()?;
            return Some(kb / 1024);
        }
    }
    None
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let full = args.iter().any(|a| a == "--full");
    let threads = threads_from_args(&args).unwrap_or(4);
    let out_path = flag_value(&args, "--out").unwrap_or("BENCH_scale.json");
    let budget_mb = if full { BUDGET_FULL_MB } else { BUDGET_SMOKE_MB };
    let host_threads = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let config = if full { ScenarioConfig::huge() } else { ScenarioConfig::huge_smoke() };
    println!(
        "scale_bench: scenario `{}` ({} users, {} items), {threads} thread(s) on a \
         {host_threads}-thread host, budget {budget_mb} MiB",
        config.name, config.num_users, config.num_items
    );

    let mut phases: Vec<Phase> = Vec::new();
    let mut gates_green = true;

    // 1. Generate (streamed).
    let t0 = Instant::now();
    let synth = generate_streaming(&config, SEED);
    let generate_s = t0.elapsed().as_secs_f64();
    let rows = synth.dataset.interactions.num_interactions();
    let store = &synth.dataset.interactions;
    let unindexed_bytes = store.memory_bytes();
    store.build_item_index();
    let store_bytes = store.memory_bytes();
    let graph_bytes = synth.dataset.graph.csr().memory_bytes();
    let store_bytes_per_row = store_bytes as f64 / rows.max(1) as f64;
    let unindexed_bytes_per_row = unindexed_bytes as f64 / rows.max(1) as f64;
    let gen_phase = Phase::new("generate", generate_s, rows)
        .with("store_bytes", store_bytes.to_string())
        .with("store_bytes_per_row", json_f64(store_bytes_per_row))
        .with("graph_bytes", graph_bytes.to_string())
        .with("triples", synth.dataset.graph.num_triples().to_string());
    println!(
        "  generate: {rows} rows in {:.2}s ({:.0} rows/s), store {:.1} MiB, KG {:.1} MiB",
        gen_phase.seconds,
        gen_phase.rows_per_s(),
        store_bytes as f64 / (1024.0 * 1024.0),
        graph_bytes as f64 / (1024.0 * 1024.0),
    );
    phases.push(gen_phase);

    // 2 + 3. Split, then validate the bundle (kglint wants the split too).
    let t0 = Instant::now();
    let split = systematic_holdout(&synth.dataset.interactions, HOLDOUT_EVERY_NTH);
    let split_phase = Phase::new("split", t0.elapsed().as_secs_f64(), rows)
        .with("train_rows", split.train.num_interactions().to_string())
        .with("test_rows", split.test.num_interactions().to_string());
    println!(
        "  split: {} train / {} test in {:.2}s",
        split.train.num_interactions(),
        split.test.num_interactions(),
        split_phase.seconds
    );
    phases.push(split_phase);

    let t0 = Instant::now();
    let mut rng = StdRng::seed_from_u64(SEED ^ 0xE7A1);
    let pairs = labeled_eval_set(&split.train, &split.test, 1, &mut rng);
    let bundle = CheckBundle::new(&synth.dataset)
        .with_split(&split)
        .with_eval_pairs(&pairs)
        .with_hyperparams(default_model_hyperparams());
    let report = CheckReport::run(&bundle);
    let lint_clean = !report.fails(true);
    if !lint_clean {
        println!("  validate: kglint FAILED (strict)\n{}", report.render());
        gates_green = false;
    }
    let store_violations = synth.dataset.interactions.validate();
    if !store_violations.is_empty() {
        println!("  validate: integrity FAILED ({} store violations)", store_violations.len());
        gates_green = false;
    }
    let validate_phase = Phase::new("validate", t0.elapsed().as_secs_f64(), rows)
        .with("lint_clean", lint_clean.to_string());
    println!("  validate: kglint + integrity clean in {:.2}s", validate_phase.seconds);
    phases.push(validate_phase);

    // 4. Supervised, checkpointed fit.
    let ckpt_dir = std::env::temp_dir().join(format!("kgrec_scale_bench_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&ckpt_dir);
    let store = CheckpointStore::open(&ckpt_dir).expect("open checkpoint store");
    let sup = SupervisorConfig::default();
    let t0 = Instant::now();
    let mut model = MostPop::new();
    let cold = supervise_fit(&mut model, &synth.dataset, &split.train, &sup, Some(&store));
    if !cold.is_usable() {
        println!("  fit: FAILED ({:?})", cold.status);
        gates_green = false;
    }
    let fit_phase = Phase::new("fit", t0.elapsed().as_secs_f64(), split.train.num_interactions())
        .with("attempts", cold.attempts.to_string());
    println!("  fit: {} attempt(s) in {:.2}s", cold.attempts, fit_phase.seconds);
    phases.push(fit_phase);

    // 5. Parallel CTR evaluation over every labeled pair. The protocol's
    // report squashes scores through a f32 sigmoid, which saturates for
    // MostPop's raw counts at this scale (every score → 1.0, AUC → 0.5
    // by ties); the signal gate therefore ranks *raw* scores instead.
    let t0 = Instant::now();
    let ctr = evaluate_ctr_par(&model, &pairs, threads);
    let eval_seconds = t0.elapsed().as_secs_f64();
    let raw: Vec<(f32, bool)> =
        pairs.iter().map(|p| (model.score(p.user, p.item), p.positive)).collect();
    let raw_auc = kgrec_core::metrics::auc(&raw).unwrap_or(0.5);
    let eval_phase = Phase::new("eval", eval_seconds, ctr.pairs)
        .with("auc", json_f64(ctr.auc))
        .with("raw_auc", json_f64(raw_auc))
        .with("accuracy", json_f64(ctr.accuracy));
    println!(
        "  eval: {} pairs in {:.2}s ({:.0} pairs/s), raw AUC {:.4}",
        ctr.pairs,
        eval_phase.seconds,
        eval_phase.rows_per_s(),
        raw_auc
    );
    if !(raw_auc.is_finite() && raw_auc > 0.5) {
        println!("  eval: AUC gate FAILED (popularity must beat random at scale)");
        gates_green = false;
    }
    phases.push(eval_phase);

    // 6. Incremental ingest + warm start.
    let t0 = Instant::now();
    let batch_rows = (rows / 100).max(1);
    let mut rng = StdRng::seed_from_u64(SEED ^ 0x1A6E);
    let batch: Vec<Interaction> = (0..batch_rows)
        .map(|k| Interaction {
            user: UserId(rng.gen_range(0..config.num_users as u32)),
            item: ItemId(rng.gen_range(0..config.num_items as u32)),
            rating: None,
            timestamp: Some(u64::MAX / 2 + k as u64),
        })
        .collect();
    let grown = synth.dataset.interactions.append(&batch);
    let ingest_seconds = t0.elapsed().as_secs_f64();
    let appended = grown.num_interactions() - rows;
    let grown_dataset =
        KgDataset::new(grown, synth.dataset.graph.clone(), synth.dataset.item_entities.clone());
    let grown_split = systematic_holdout(&grown_dataset.interactions, HOLDOUT_EVERY_NTH);
    let mut resumed = MostPop::new();
    let warm = supervise_fit(&mut resumed, &grown_dataset, &grown_split.train, &sup, Some(&store));
    let warm_ok = warm.is_usable() && warm.attempts == 0;
    if !warm_ok {
        println!(
            "  ingest: warm-start gate FAILED (status {:?}, {} attempts)",
            warm.status, warm.attempts
        );
        gates_green = false;
    }
    let ingest_phase = Phase::new("ingest", ingest_seconds, appended)
        .with("batch_rows", batch_rows.to_string())
        .with("appended_rows", appended.to_string())
        .with("warm_start_attempts", warm.attempts.to_string());
    println!(
        "  ingest: +{appended} rows in {ingest_seconds:.2}s ({:.0} rows/s), warm start {} attempt(s)",
        ingest_phase.rows_per_s(),
        warm.attempts
    );
    phases.push(ingest_phase);
    let _ = std::fs::remove_dir_all(&ckpt_dir);

    // 7. Memory gate.
    let peak_mb = status_mb("VmHWM:");
    let within_budget = peak_mb.is_none_or(|mb| mb <= budget_mb);
    match peak_mb {
        Some(mb) => println!(
            "  memory: peak RSS {mb} MiB of {budget_mb} MiB budget — {}",
            if within_budget { "within budget" } else { "OVER BUDGET" }
        ),
        None => println!("  memory: VmHWM unavailable on this platform (budget not enforced)"),
    }
    let layout_ok = store_bytes_per_row <= MAX_STORE_BYTES_PER_ROW;
    println!(
        "  memory: store {store_bytes_per_row:.2} B/row with its item index \
         (ceiling {MAX_STORE_BYTES_PER_ROW}) — {}; {unindexed_bytes_per_row:.2} B/row without",
        if layout_ok { "ok" } else { "LAYOUT GATE FAILED" }
    );
    gates_green &= layout_ok;

    // Report.
    let mut json = String::new();
    json.push_str("{\n");
    json.push_str(&format!("  \"scenario\": {},\n", json_str(&config.name)));
    json.push_str(&format!("  \"mode\": {},\n", json_str(if full { "full" } else { "smoke" })));
    json.push_str(&format!("  \"seed\": {SEED},\n"));
    json.push_str(&format!("  \"threads\": {threads},\n"));
    json.push_str(&format!("  \"host_threads\": {host_threads},\n"));
    json.push_str(&format!("  \"users\": {},\n", config.num_users));
    json.push_str(&format!("  \"items\": {},\n", config.num_items));
    json.push_str(&format!("  \"rows\": {rows},\n"));
    json.push_str("  \"phases\": {\n");
    for (i, p) in phases.iter().enumerate() {
        json.push_str(&format!(
            "    {}: {{ \"seconds\": {}, \"rows\": {}, \"rows_per_s\": {}, \"rss_mb\": {}",
            json_str(p.name),
            json_f64(p.seconds),
            p.rows,
            json_f64(p.rows_per_s()),
            p.rss_mb.map_or_else(|| "null".to_owned(), |m| m.to_string())
        ));
        for (k, v) in &p.detail {
            json.push_str(&format!(", {}: {v}", json_str(k)));
        }
        json.push_str(if i + 1 == phases.len() { " }\n" } else { " },\n" });
    }
    json.push_str("  },\n");
    json.push_str("  \"memory\": {\n");
    json.push_str(&format!("    \"interactions_bytes\": {store_bytes},\n"));
    json.push_str(&format!(
        "    \"interactions_bytes_per_row\": {},\n",
        json_f64(store_bytes_per_row)
    ));
    json.push_str(&format!("    \"max_bytes_per_row\": {},\n", json_f64(MAX_STORE_BYTES_PER_ROW)));
    json.push_str(&format!("    \"graph_bytes\": {graph_bytes},\n"));
    json.push_str(&format!(
        "    \"peak_rss_mb\": {},\n",
        peak_mb.map_or_else(|| "null".to_owned(), |m| m.to_string())
    ));
    json.push_str(&format!("    \"budget_mb\": {budget_mb},\n"));
    json.push_str(&format!("    \"within_budget\": {within_budget}\n"));
    json.push_str("  },\n");
    json.push_str(&format!("  \"gates_green\": {}\n", gates_green && within_budget));
    json.push_str("}\n");
    let mut f = std::fs::File::create(out_path).expect("create BENCH_scale.json");
    f.write_all(json.as_bytes()).expect("write BENCH_scale.json");
    println!("scale_bench: wrote {out_path}");

    if !within_budget {
        std::process::exit(2);
    }
    if !gates_green {
        std::process::exit(1);
    }
}
