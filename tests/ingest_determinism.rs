//! Incremental-ingest determinism: growing the columnar interaction
//! store by appending batches must be indistinguishable from building it
//! in one shot, and a warm start after an append must resume from the
//! checkpointed generation instead of retraining.
//!
//! Three guarantees are pinned:
//!
//! 1. **Byte-identity of the store** — one batch vs `k` appends over the
//!    same row stream produce byte-identical columns (FNV digest over
//!    every column, ratings compared by bit pattern).
//! 2. **Metric identity** — CTR and top-K reports computed against the
//!    appended store equal the one-shot reports exactly, at 1 and 4
//!    threads.
//! 3. **Warm-start-after-append** — `supervise_fit` with a store on the
//!    grown dataset restores the generation saved before the append and
//!    reports `attempts == 0` (no retraining), per the crash-safe
//!    checkpoint protocol.

use kgrec_core::protocol::{evaluate_ctr_par, evaluate_topk_par};
use kgrec_core::supervisor::{supervise_fit, FitStatus, SupervisorConfig};
use kgrec_core::Recommender;
use kgrec_data::negative::labeled_eval_set;
use kgrec_data::split::ratio_split;
use kgrec_data::{Interaction, InteractionMatrix, ItemId, KgDataset, UserId};
use kgrec_graph::KgBuilder;
use kgrec_models::baselines::{BprMf, BprMfConfig};
use kgrec_store::CheckpointStore;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::path::PathBuf;

const USERS: usize = 40;
const ITEMS: usize = 30;

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir()
        .join(format!("kgrec_ingest_determinism_{}", std::process::id()))
        .join(tag);
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A deterministic, deliberately messy row stream: unsorted, with
/// duplicate `(user, item)` pairs, mixed implicit/rated rows, and
/// timestamps on roughly half the rows.
fn row_stream(seed: u64, rows: usize) -> Vec<Interaction> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..rows)
        .map(|k| {
            let user = UserId(rng.gen_range(0..USERS as u32));
            let item = ItemId(rng.gen_range(0..ITEMS as u32));
            let rating =
                if rng.gen_range(0..2) == 0 { Some(rng.gen_range(1u32..=5) as f32) } else { None };
            let timestamp = if rng.gen_range(0..2) == 0 { Some(1_000 + k as u64) } else { None };
            Interaction { user, item, rating, timestamp }
        })
        .collect()
}

/// Builds the matrix by one-shot construction over the whole stream.
fn one_shot(rows: &[Interaction]) -> InteractionMatrix {
    InteractionMatrix::from_interactions(USERS, ITEMS, rows)
}

/// Builds the matrix by an initial build over the first chunk followed
/// by `k - 1` appends over the remaining chunks, preserving stream order.
fn k_appends(rows: &[Interaction], k: usize) -> InteractionMatrix {
    let chunk = rows.len().div_ceil(k).max(1);
    let mut parts = rows.chunks(chunk);
    let mut m = InteractionMatrix::from_interactions(USERS, ITEMS, parts.next().unwrap_or(&[]));
    for batch in parts {
        m = m.append(batch);
    }
    m
}

/// A minimal item KG so the supervisor has a dataset to hand to `fit`.
fn toy_dataset(interactions: InteractionMatrix) -> KgDataset {
    let mut b = KgBuilder::new();
    let ty = b.entity_type("item");
    let ents: Vec<_> = (0..ITEMS).map(|i| b.entity(&format!("i{i}"), ty)).collect();
    let attr_ty = b.entity_type("attr");
    let a = b.entity("a0", attr_ty);
    let r = b.relation("attr");
    for &e in &ents {
        b.triple(e, r, a);
    }
    KgDataset::new(interactions, b.build(true), ents)
}

#[test]
fn k_appends_build_byte_identical_store() {
    let rows = row_stream(41, 400);
    let reference = one_shot(&rows);
    assert!(reference.validate().is_empty());
    let want = reference.digest();
    for k in [1, 2, 3, 5, 8] {
        let grown = k_appends(&rows, k);
        assert!(grown.validate().is_empty(), "k={k}");
        assert_eq!(grown.digest(), want, "k={k} appends diverged from one-shot build");
        assert_eq!(grown.num_interactions(), reference.num_interactions());
    }
}

#[test]
fn appended_store_yields_identical_eval_metrics() {
    let rows = row_stream(42, 500);
    let reference = one_shot(&rows);
    let grown = k_appends(&rows, 4);
    assert_eq!(grown.digest(), reference.digest());

    // Same seeds on byte-identical stores must reproduce the split, the
    // labeled pairs, the fitted model, and every metric exactly.
    let reports = [&reference, &grown].map(|m| {
        let split = ratio_split(m, 0.2, 7);
        let mut rng = StdRng::seed_from_u64(9);
        let pairs = labeled_eval_set(&split.train, &split.test, 2, &mut rng);
        let mut model = BprMf::new(BprMfConfig { epochs: 4, ..BprMfConfig::default() });
        let dataset = toy_dataset(m.clone());
        let ctx = kgrec_core::TrainContext { dataset: &dataset, train: &split.train };
        model.fit(&ctx).expect("fit");
        let ctr1 = evaluate_ctr_par(&model, &pairs, 1);
        let ctr4 = evaluate_ctr_par(&model, &pairs, 4);
        let topk1 = evaluate_topk_par(&model, &split.train, &split.test, &[5, 10], 1);
        let topk4 = evaluate_topk_par(&model, &split.train, &split.test, &[5, 10], 4);
        (ctr1, ctr4, topk1, topk4)
    });
    let [(ctr1_a, ctr4_a, topk1_a, topk4_a), (ctr1_b, ctr4_b, topk1_b, topk4_b)] = reports;
    assert_eq!(ctr1_a, ctr1_b, "serial CTR report diverged after append");
    assert_eq!(ctr4_a, ctr4_b, "4-thread CTR report diverged after append");
    assert_eq!(topk1_a, topk1_b, "serial top-K report diverged after append");
    assert_eq!(topk4_a, topk4_b, "4-thread top-K report diverged after append");
    assert_eq!(ctr1_a, ctr4_a, "CTR thread count leaked into the report");
    assert_eq!(topk1_a, topk4_a, "top-K thread count leaked into the report");
}

#[test]
fn warm_start_after_append_resumes_from_checkpoint() {
    let rows = row_stream(43, 300);
    let base = one_shot(&rows[..200]);
    let dataset = toy_dataset(base.clone());
    let config = SupervisorConfig::default();
    let dir = scratch("warm_start_after_append");
    let store = CheckpointStore::open(&dir).expect("open store");

    // Cold fit on the base store: trains and saves generation 1.
    let mut model = BprMf::new(BprMfConfig { epochs: 4, ..BprMfConfig::default() });
    let cold = supervise_fit(&mut model, &dataset, &base, &config, Some(&store));
    assert_eq!(cold.status, FitStatus::Ok);
    assert!(cold.attempts >= 1, "cold start must actually train");

    // Ingest a batch, then "restart": a fresh model over the grown store
    // must warm-start from the saved generation, not retrain.
    let grown = base.append(&rows[200..]);
    assert!(grown.num_interactions() > base.num_interactions());
    let grown_dataset = toy_dataset(grown.clone());
    let mut resumed = BprMf::new(BprMfConfig { epochs: 4, ..BprMfConfig::default() });
    let warm = supervise_fit(&mut resumed, &grown_dataset, &grown, &config, Some(&store));
    assert_eq!(warm.status, FitStatus::Ok);
    assert_eq!(warm.attempts, 0, "append must not force a full retrain");
    let reason = warm.reason.expect("warm start reason");
    assert!(reason.contains("warm start"), "unexpected reason: {reason}");

    // The restored factors are the checkpointed ones, bit for bit.
    let saved: Vec<u32> = model.item_factors().data().iter().map(|x| x.to_bits()).collect();
    let restored: Vec<u32> = resumed.item_factors().data().iter().map(|x| x.to_bits()).collect();
    assert_eq!(saved, restored, "warm start restored different bytes");
    let _ = std::fs::remove_dir_all(&dir);
}
