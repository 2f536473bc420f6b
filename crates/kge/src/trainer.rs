//! The shared negative-sampling training loop.
//!
//! All five KGE models train the same way: iterate over the graph's
//! triples, corrupt the head or tail uniformly (Bernoulli 0.5, the
//! "unif" strategy of the papers), and hand the (positive, negative) pair
//! to the model. Corruptions that happen to be true facts are re-sampled
//! (the "filtered" convention), bounded by a retry cap so pathological
//! relations cannot loop forever.
//!
//! Training is **deterministic and batched**: each shuffled epoch is cut
//! into fixed-size chunks, every chunk's gradients are recorded through
//! [`KgeModel::grad_pair`] against the chunk-start parameters on
//! [`kgrec_linalg::par`] workers (one [`GradBatch`] per fixed sub-batch),
//! and [`KgeModel::apply_grads`] replays the recorded ops in sub-batch
//! index order. Sub-batch boundaries depend only on the data — never on
//! the worker count — so parameters, losses, and every downstream metric
//! are bit-identical at any thread count.

use crate::checkpoint::{train_fingerprint, TrainerSnapshot};
use crate::grad::GradBatch;
use crate::model::KgeModel;
use kgrec_graph::{EntityId, KnowledgeGraph, Triple};
use kgrec_linalg::par;
use kgrec_linalg::stability::{DivergencePolicy, LossMonitor, LossVerdict};
use kgrec_store::{CheckpointStore, Persistable};
use rand::rngs::StdRng;
use rand::Rng;
use rand::SeedableRng;
use std::sync::Mutex;

/// Training-loop configuration.
#[derive(Debug, Clone)]
pub struct TrainConfig {
    /// Number of passes over all triples.
    pub epochs: usize,
    /// SGD learning rate.
    pub learning_rate: f32,
    /// RNG seed (corruption sampling and triple shuffling).
    pub seed: u64,
    /// Worker threads for the batched gradient path. `None` (the default)
    /// resolves through [`par::resolve_threads`] — the `KGREC_THREADS`
    /// environment variable, then the machine's available parallelism.
    /// The trained parameters are identical for every value.
    pub threads: Option<usize>,
}

impl Default for TrainConfig {
    fn default() -> Self {
        Self { epochs: 30, learning_rate: 0.05, seed: 7, threads: None }
    }
}

/// Draws a corruption of `triple` that is not a known fact, replacing the
/// head or the tail with probability ½ each.
///
/// In the dense pathological case (32 filtered draws all hit known facts)
/// the filter is dropped but the corruption is still guaranteed to differ
/// from `triple`: the replacement tail is drawn from the non-zero offsets
/// of the original, so a negative can never alias its positive. The one
/// irreducible degenerate case is a single-entity graph, where no
/// distinct corruption exists and the original is returned.
pub fn corrupt<R: Rng + ?Sized>(graph: &KnowledgeGraph, triple: Triple, rng: &mut R) -> Triple {
    let n = graph.num_entities() as u32;
    for _ in 0..32 {
        let cand = if rng.gen_bool(0.5) {
            Triple::new(EntityId(rng.gen_range(0..n)), triple.rel, triple.tail)
        } else {
            Triple::new(triple.head, triple.rel, EntityId(rng.gen_range(0..n)))
        };
        if cand != triple && !graph.contains(cand.head, cand.rel, cand.tail) {
            return cand;
        }
    }
    // Dense pathological case: accept an unfiltered corruption, excluding
    // the original tail by sampling an offset in [1, n).
    if n < 2 {
        return triple;
    }
    let tail = EntityId((triple.tail.0 + rng.gen_range(1..n)) % n);
    Triple::new(triple.head, triple.rel, tail)
}

/// Chunk: pairs whose gradients share one frozen parameter snapshot.
/// Larger chunks amortize the fork/join of the worker pass.
const GRAD_CHUNK: usize = 256;
/// Sub-batch: pairs recorded into one [`GradBatch`]. Fixed —
/// never derived from the worker count — so the op application order is
/// identical at any thread count.
const GRAD_SUB: usize = 64;

/// Per-epoch training statistics handed to [`train_with_from`] observers.
#[derive(Debug, Clone, Copy)]
pub(crate) struct EpochStats {
    /// 0-based epoch index.
    pub epoch: usize,
    /// Mean per-pair loss of the epoch.
    pub mean_loss: f32,
}

/// Observer decision after each epoch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum TrainControl {
    /// Keep training.
    Continue,
    /// Stop before the next epoch (early stop / divergence abort).
    Stop,
}

/// Trains `model` on every triple of `graph` for epochs
/// `start_epoch..config.epochs`, invoking `on_epoch` after each epoch with
/// the model and the epoch's statistics. Returning [`TrainControl::Stop`]
/// ends training early. Returns the mean per-pair loss curve of the
/// epochs that ran. The observer receives `&mut M` so supervision layers
/// can snapshot, checkpoint or roll back parameters between epochs (see
/// [`train_guarded`]).
///
/// A non-zero `start_epoch` is the warm start of checkpoint resume. The
/// RNG draws of epochs `0..start_epoch` are replayed without training
/// — shuffles and corruption draws depend only on the data, never on the
/// parameters — so a run resumed from an epoch-`k` checkpoint consumes
/// exactly the RNG stream an uninterrupted run would have at epoch `k`,
/// and finishes with bit-identical parameters. `EpochStats::epoch` and the
/// loss curve cover the epochs that actually run (`start_epoch..epochs`).
///
/// # Panics
/// Panics if the model is sized for fewer entities or fewer relations
/// than the graph.
pub(crate) fn train_with_from<M, F>(
    model: &mut M,
    graph: &KnowledgeGraph,
    config: &TrainConfig,
    start_epoch: usize,
    mut on_epoch: F,
) -> Vec<f32>
where
    M: KgeModel + ?Sized,
    F: FnMut(&mut M, &EpochStats) -> TrainControl,
{
    assert!(
        model.num_entities() >= graph.num_entities()
            && model.num_relations() >= graph.num_relations(),
        "train: model sized for fewer entities or relations than the graph \
         (model {}×{}, graph {}×{})",
        model.num_entities(),
        model.num_relations(),
        graph.num_entities(),
        graph.num_relations()
    );
    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut order: Vec<usize> = (0..graph.num_triples()).collect();
    // Burn the RNG stream of already-completed epochs. Corruption draws
    // happen in shuffled-triple order in the real loop regardless of chunk
    // size, so this replays the exact per-epoch draw sequence.
    for _ in 0..start_epoch.min(config.epochs) {
        for i in (1..order.len()).rev() {
            let j = rng.gen_range(0..=i);
            order.swap(i, j);
        }
        for &idx in &order {
            let _ = corrupt(graph, graph.triple_at(idx), &mut rng);
        }
    }
    let mut curve = Vec::with_capacity(config.epochs.saturating_sub(start_epoch));
    // Corruption draws are front-loaded per chunk. The RNG stream is that
    // of a per-pair loop because training never touches the RNG, and the
    // chunk size does not change it either: only the draw *order* matters,
    // and that is always triple order.
    let threads = par::resolve_threads(config.threads);
    let mut pairs: Vec<(Triple, Triple)> = Vec::with_capacity(GRAD_CHUNK);
    // Free-list of gradient arenas, reused across chunks and epochs so the
    // steady state allocates nothing.
    let pool: Mutex<Vec<GradBatch>> = Mutex::new(Vec::new());
    for epoch in start_epoch..config.epochs {
        // Fresh shuffle per epoch.
        for i in (1..order.len()).rev() {
            let j = rng.gen_range(0..=i);
            order.swap(i, j);
        }
        let mut total = 0.0f64;
        for chunk in order.chunks(GRAD_CHUNK) {
            pairs.clear();
            for &idx in chunk {
                let pos = graph.triple_at(idx);
                pairs.push((pos, corrupt(graph, pos, &mut rng)));
            }
            // Sub-batch boundaries are fixed by GRAD_SUB, independent of
            // the worker count; par_map returns in input order.
            let subs: Vec<&[(Triple, Triple)]> = pairs.chunks(GRAD_SUB).collect();
            let frozen: &M = model;
            let batches = par::par_map(&subs, threads, |_, sub| {
                let mut gb = pool
                    .lock()
                    .unwrap_or_else(std::sync::PoisonError::into_inner)
                    .pop()
                    .unwrap_or_default();
                gb.clear();
                for &(pos, neg) in *sub {
                    let loss = frozen.grad_pair(pos, neg, &mut gb);
                    gb.push_loss(loss);
                }
                gb
            });
            for gb in batches {
                model.apply_grads(&gb, config.learning_rate);
                for &loss in gb.losses() {
                    total += f64::from(loss);
                }
                // kglint::allow(SA003, free-list pool; grads already applied in input order)
                pool.lock().unwrap_or_else(std::sync::PoisonError::into_inner).push(gb);
            }
        }
        model.post_epoch();
        let denom = order.len().max(1) as f64;
        let mean_loss = (total / denom) as f32;
        curve.push(mean_loss);
        if on_epoch(model, &EpochStats { epoch, mean_loss }) == TrainControl::Stop {
            break;
        }
    }
    curve
}

/// Trains `model` on every triple of `graph` for `config.epochs` epochs.
/// Returns the mean per-pair loss of each epoch (a monitoring curve).
pub fn train<M: KgeModel + ?Sized>(
    model: &mut M,
    graph: &KnowledgeGraph,
    config: &TrainConfig,
) -> Vec<f32> {
    train_with_from(model, graph, config, 0, |_, _| TrainControl::Continue)
}

/// What [`train_guarded`] did.
#[derive(Debug, Clone)]
pub struct GuardedReport {
    /// Mean per-pair loss of every epoch that ran (includes the epoch
    /// that tripped the monitor, when one did).
    pub curve: Vec<f32>,
    /// Epoch at which the monitor aborted training, if it did.
    pub aborted_at: Option<usize>,
    /// Whether the model was rolled back to a healthy state: the last-good
    /// in-memory snapshot, or the store's last good generation.
    pub rolled_back: bool,
    /// Human-readable abort reason when `aborted_at` is set.
    pub reason: Option<String>,
    /// Generation the run warm-started from, if any.
    pub resumed_from: Option<u64>,
    /// First epoch of this run (0 for a cold start; equals the epoch
    /// target when the checkpoint was already complete).
    pub start_epoch: usize,
    /// Checkpoints written this run.
    pub saved: usize,
    /// Checkpoint writes that failed. Training continues regardless; a
    /// non-zero count means resume-on-crash protection is degraded.
    pub save_errors: usize,
    /// Generation restored from disk after an abort that had no in-memory
    /// snapshot to roll back to, if disk recovery succeeded.
    pub disk_rollback: Option<u64>,
}

impl GuardedReport {
    /// Whether training ran to completion without tripping the monitor.
    pub(crate) fn completed(&self) -> bool {
        self.aborted_at.is_none()
    }

    /// Whether the final parameters are usable: either training completed,
    /// or it aborted but was rolled back to a healthy snapshot.
    pub fn usable(&self) -> bool {
        self.completed() || self.rolled_back
    }
}

/// Restores `model` from the store's newest generation whose trainer
/// fingerprint matches; returns the generation and its completed epochs.
fn restore<M: Persistable>(
    store: &CheckpointStore,
    model: &mut M,
    fingerprint: u64,
    seed: u64,
) -> Option<(u64, u64)> {
    let mut view = TrainerSnapshot { model, epochs_done: 0, fingerprint, seed };
    let recovery = store.load_into(&mut view).ok()?;
    Some((recovery.generation, view.epochs_done))
}

/// Trains under a [`LossMonitor`]: each epoch's mean loss is checked for
/// NaN/∞ and divergence, parameters are snapshotted at every
/// loss-improving epoch, and on abort the model is rolled back to the
/// last-good snapshot (when one exists — a first-epoch explosion leaves
/// nothing to roll back to, and `usable()` reports it).
///
/// With a `store` the run is also crash-safe (see `crate::checkpoint`):
///
/// 1. **Resume** — the store's most recent usable generation is restored
///    when its fingerprint matches; training continues from the recorded
///    epoch, replaying the RNG draws of completed epochs (see
///    `train_with_from`), so a resumed run finishes with parameters
///    bit-identical to an uninterrupted one.
/// 2. **Save** — every healthy epoch is checkpointed (atomic write, new
///    generation, last-good pointer). A failed save never aborts
///    training; it is counted in the report.
/// 3. **Disk fallback** — an abort with no in-memory snapshot (the first
///    epoch after a resume exploded) restores the store's last good
///    generation instead of discarding the model.
pub fn train_guarded<M: KgeModel + Clone + Persistable>(
    model: &mut M,
    graph: &KnowledgeGraph,
    config: &TrainConfig,
    policy: DivergencePolicy,
    store: Option<&CheckpointStore>,
) -> GuardedReport {
    let fingerprint = train_fingerprint(config, graph);
    let resumed = store.and_then(|s| restore(s, model, fingerprint, config.seed));
    let resumed_from = resumed.map(|(generation, _)| generation);
    let start_epoch =
        resumed.map_or(0, |(_, done)| usize::try_from(done).unwrap_or(0).min(config.epochs));

    let mut monitor = LossMonitor::new(policy);
    let mut snapshot: Option<M> = None;
    let mut abort: Option<(usize, LossVerdict, f32)> = None;
    let mut saved = 0usize;
    let mut save_errors = 0usize;
    let curve = train_with_from(model, graph, config, start_epoch, |m, stats| {
        match monitor.observe(stats.mean_loss) {
            LossVerdict::Healthy => {
                // `best_loss` equals this epoch's loss exactly when the
                // epoch improved on (or tied) every loss before it. The
                // snapshot is written into a preallocated buffer
                // (`clone_from` reuses the tables' allocations), so only
                // the first accepted epoch pays for allocation.
                if monitor.best_loss() == Some(stats.mean_loss) {
                    match &mut snapshot {
                        Some(s) => s.clone_from(m),
                        None => snapshot = Some(m.clone()),
                    }
                }
                if let Some(store) = store {
                    let view = TrainerSnapshot {
                        model: &mut *m,
                        epochs_done: (stats.epoch + 1) as u64,
                        fingerprint,
                        seed: config.seed,
                    };
                    let note = format!("epoch={} loss={:.6}", stats.epoch, stats.mean_loss);
                    match store.save(&view, &note) {
                        Ok(_) => saved += 1,
                        Err(_) => save_errors += 1,
                    }
                }
                TrainControl::Continue
            }
            verdict => {
                abort = Some((stats.epoch, verdict, stats.mean_loss));
                TrainControl::Stop
            }
        }
    });
    let mut rolled_back = false;
    let mut disk_rollback = None;
    let (aborted_at, reason) = match abort {
        None => (None, None),
        Some((epoch, verdict, loss)) => {
            if let Some(s) = snapshot {
                *model = s;
                rolled_back = true;
            } else if let Some((generation, _)) =
                store.and_then(|s| restore(s, model, fingerprint, config.seed))
            {
                disk_rollback = Some(generation);
                rolled_back = true;
            }
            let why = match verdict {
                LossVerdict::NonFinite => format!("non-finite epoch loss {loss}"),
                LossVerdict::Diverging => match monitor.best_loss() {
                    Some(best) => format!("loss {loss} diverged from best {best}"),
                    None => format!("loss {loss} above the divergence ceiling"),
                },
                LossVerdict::Healthy => unreachable!("healthy verdicts never abort"),
            };
            (Some(epoch), Some(why))
        }
    };
    GuardedReport {
        curve,
        aborted_at,
        rolled_back,
        reason,
        resumed_from,
        start_epoch,
        saved,
        save_errors,
        disk_rollback,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transe::TransE;
    use kgrec_graph::KgBuilder;

    fn toy_graph() -> KnowledgeGraph {
        let mut b = KgBuilder::new();
        let ty = b.entity_type("t");
        let es: Vec<_> = (0..8).map(|i| b.entity(&format!("e{i}"), ty)).collect();
        let r = b.relation("r");
        // Two clusters linked internally: facts are within-cluster edges.
        for i in 0..4 {
            for j in 0..4 {
                if i != j {
                    b.triple(es[i], r, es[j]);
                }
            }
        }
        for i in 4..8 {
            for j in 4..8 {
                if i != j {
                    b.triple(es[i], r, es[j]);
                }
            }
        }
        b.build(false)
    }

    #[test]
    fn corrupt_avoids_known_facts() {
        let g = toy_graph();
        let mut rng = StdRng::seed_from_u64(1);
        let pos = g.triple_at(0);
        for _ in 0..100 {
            let neg = corrupt(&g, pos, &mut rng);
            assert_ne!(neg, pos);
            // With 8 entities and within-cluster facts only, filtering
            // nearly always succeeds; tolerate the rare fallback.
        }
    }

    #[test]
    fn loss_curve_decreases() {
        let g = toy_graph();
        let mut rng = StdRng::seed_from_u64(2);
        let mut m = TransE::new(&mut rng, g.num_entities(), g.num_relations(), 8, 1.0);
        let curve = train(
            &mut m,
            &g,
            &TrainConfig { epochs: 25, learning_rate: 0.05, seed: 3, threads: None },
        );
        assert_eq!(curve.len(), 25);
        let head: f32 = curve[..5].iter().sum::<f32>() / 5.0;
        let tail: f32 = curve[20..].iter().sum::<f32>() / 5.0;
        assert!(tail < head, "loss should fall: head={head} tail={tail}");
    }

    #[test]
    fn trained_model_ranks_facts_above_nonfacts() {
        let g = toy_graph();
        let mut rng = StdRng::seed_from_u64(4);
        let mut m = TransE::new(&mut rng, g.num_entities(), g.num_relations(), 16, 1.0);
        train(&mut m, &g, &TrainConfig { epochs: 60, learning_rate: 0.05, seed: 5, threads: None });
        // Mean score of facts vs. cross-cluster non-facts.
        let fact_mean: f32 = g.iter_triples().map(|t| m.score(t.head, t.rel, t.tail)).sum::<f32>()
            / g.num_triples() as f32;
        let mut non_mean = 0.0f32;
        let mut count = 0;
        for i in 0..4u32 {
            for j in 4..8u32 {
                non_mean += m.score(EntityId(i), kgrec_graph::RelationId(0), EntityId(j));
                count += 1;
            }
        }
        non_mean /= count as f32;
        assert!(fact_mean > non_mean, "facts {fact_mean} vs non-facts {non_mean}");
    }

    #[test]
    #[should_panic(expected = "model sized for fewer entities")]
    fn size_mismatch_rejected() {
        let g = toy_graph();
        let mut rng = StdRng::seed_from_u64(6);
        let mut m = TransE::new(&mut rng, 2, 1, 4, 1.0);
        train(&mut m, &g, &TrainConfig::default());
    }

    #[test]
    #[should_panic(expected = "model sized for fewer entities or relations")]
    fn relation_count_mismatch_rejected_by_name() {
        // Enough entities but too few relations: without the check a pool
        // worker indexes past the relation table and the caller sees only
        // "a scoped thread panicked".
        let mut b = KgBuilder::new();
        let ty = b.entity_type("t");
        let es: Vec<_> = (0..4).map(|i| b.entity(&format!("e{i}"), ty)).collect();
        for k in 0..3 {
            let r = b.relation(&format!("r{k}"));
            b.triple(es[k], r, es[k + 1]);
        }
        let g = b.build(false);
        let mut rng = StdRng::seed_from_u64(6);
        let mut m = TransE::new(&mut rng, g.num_entities(), 1, 4, 1.0);
        let cfg = TrainConfig { epochs: 1, threads: Some(2), ..TrainConfig::default() };
        train(&mut m, &g, &cfg);
    }

    /// A graph where *every* (head, rel, tail) combination is a fact, so
    /// filtered corruption always fails and the dense fallback runs.
    fn complete_graph(n: usize) -> KnowledgeGraph {
        let mut b = KgBuilder::new();
        let ty = b.entity_type("t");
        let es: Vec<_> = (0..n).map(|i| b.entity(&format!("e{i}"), ty)).collect();
        let r = b.relation("r");
        for &h in &es {
            for &t in &es {
                b.triple(h, r, t);
            }
        }
        b.build(false)
    }

    #[test]
    fn dense_fallback_never_returns_the_original_triple() {
        // Regression: the old fallback re-sampled the tail uniformly and
        // could alias the positive, training the model to push a fact
        // away from itself.
        let g = complete_graph(3);
        let mut rng = StdRng::seed_from_u64(11);
        for pos in g.iter_triples() {
            for _ in 0..200 {
                let neg = corrupt(&g, pos, &mut rng);
                assert_ne!(neg, pos, "fallback corruption aliased the positive {pos:?}");
            }
        }
    }

    #[test]
    fn single_entity_graph_degenerates_to_identity() {
        let g = complete_graph(1);
        let mut rng = StdRng::seed_from_u64(12);
        let pos = g.triple_at(0);
        // No distinct corruption exists; the degenerate original comes
        // back instead of an out-of-range entity id.
        assert_eq!(corrupt(&g, pos, &mut rng), pos);
    }

    #[test]
    fn observer_can_stop_early() {
        let g = toy_graph();
        let mut rng = StdRng::seed_from_u64(13);
        let mut m = TransE::new(&mut rng, g.num_entities(), g.num_relations(), 8, 1.0);
        let cfg = TrainConfig { epochs: 30, learning_rate: 0.05, seed: 14, threads: None };
        let curve = train_with_from(&mut m, &g, &cfg, 0, |_, stats| {
            if stats.epoch >= 4 {
                TrainControl::Stop
            } else {
                TrainControl::Continue
            }
        });
        assert_eq!(curve.len(), 5, "stopped after the 5th epoch");
    }

    #[test]
    fn guarded_healthy_run_completes_without_rollback() {
        let g = toy_graph();
        let mut rng = StdRng::seed_from_u64(15);
        let mut m = TransE::new(&mut rng, g.num_entities(), g.num_relations(), 8, 1.0);
        let cfg = TrainConfig { epochs: 20, learning_rate: 0.05, seed: 16, threads: None };
        let report = train_guarded(&mut m, &g, &cfg, DivergencePolicy::default(), None);
        assert!(report.completed());
        assert!(report.usable());
        assert!(!report.rolled_back);
        assert_eq!(report.curve.len(), 20);
    }

    /// Scripted-loss mock: every `grad_pair` returns `script[epoch]` and
    /// records one tick op, and `apply_grads` replays each tick as one
    /// pair seen, setting a state marker to the pair's epoch, so rollback
    /// is observable.
    #[derive(Clone)]
    struct Scripted {
        script: Vec<f32>,
        pairs_per_epoch: usize,
        pairs_seen: usize,
        state: Vec<f32>,
        /// Constant zero entity rows; only the marker is trained.
        entities: kgrec_linalg::EmbeddingTable,
    }

    impl KgeModel for Scripted {
        fn dim(&self) -> usize {
            1
        }
        fn num_entities(&self) -> usize {
            1024
        }
        fn num_relations(&self) -> usize {
            8
        }
        fn score(&self, _h: EntityId, _r: kgrec_graph::RelationId, _t: EntityId) -> f32 {
            0.0
        }
        fn entity_table(&self) -> &kgrec_linalg::EmbeddingTable {
            &self.entities
        }
        fn relation_embedding(&self, _r: kgrec_graph::RelationId) -> &[f32] {
            &self.state
        }
        // A chunk's losses are recorded against the chunk-start counter;
        // the toy graph's epoch fits in one chunk, so that is the epoch.
        fn grad_pair(&self, _pos: Triple, _neg: Triple, out: &mut GradBatch) -> f32 {
            out.push_op(crate::grad::GradOp::NormalizeRow { table: 0, row: 0 });
            let epoch = self.pairs_seen / self.pairs_per_epoch;
            self.script[epoch.min(self.script.len() - 1)]
        }
        fn apply_grads(&mut self, batch: &GradBatch, _lr: f32) {
            for _ in batch.ops() {
                let epoch = self.pairs_seen / self.pairs_per_epoch;
                self.pairs_seen += 1;
                self.state[0] = epoch as f32;
            }
        }
        fn name(&self) -> &'static str {
            "Scripted"
        }
    }

    /// Persists the state marker and the pair counter, so a restored
    /// mock resumes its script at the checkpointed epoch.
    impl Persistable for Scripted {
        fn snapshot_id(&self) -> &'static str {
            "test.scripted"
        }
        fn write_state(
            &self,
            writer: &mut kgrec_store::SnapshotWriter,
        ) -> Result<(), kgrec_store::StoreError> {
            let mut s = kgrec_store::Section::new();
            s.put_u64(self.pairs_seen as u64);
            s.put_f32s(&self.state);
            writer.add("scripted", s)
        }
        fn read_state(
            &mut self,
            reader: &kgrec_store::SnapshotReader,
        ) -> Result<(), kgrec_store::StoreError> {
            let mut c = reader.section("scripted")?;
            let pairs_seen = c.take_u64()? as usize;
            let state = c.take_f32s(self.state.len())?;
            self.pairs_seen = pairs_seen;
            self.state = state;
            Ok(())
        }
    }

    fn scripted(g: &KnowledgeGraph, script: &[f32]) -> Scripted {
        Scripted {
            script: script.to_vec(),
            pairs_per_epoch: g.num_triples(),
            pairs_seen: 0,
            state: vec![-1.0],
            entities: kgrec_linalg::EmbeddingTable::zeros(1024, 1),
        }
    }

    #[test]
    fn guarded_rolls_back_to_last_good_epoch_on_divergence() {
        let g = toy_graph();
        // Improves through epoch 2, then explodes. patience=2 aborts at
        // epoch 4 (two consecutive epochs above 4× best=0.2).
        let script = [1.0, 0.5, 0.2, 50.0, 60.0, 70.0];
        let mut m = scripted(&g, &script);
        let cfg = TrainConfig { epochs: script.len(), learning_rate: 0.1, seed: 17, threads: None };
        let policy = DivergencePolicy { factor: 4.0, patience: 2, max_loss: 1e6 };
        let report = train_guarded(&mut m, &g, &cfg, policy, None);
        assert_eq!(report.aborted_at, Some(4));
        assert!(report.rolled_back);
        assert!(report.usable());
        // Rolled back to the snapshot taken after epoch 2 (the best).
        assert_eq!(m.state[0], 2.0, "state must be the epoch-2 snapshot");
        assert!(report.reason.unwrap().contains("diverged"));
    }

    #[test]
    fn guarded_aborts_on_nan_loss_immediately() {
        let g = toy_graph();
        let script = [0.8, f32::NAN, 0.1];
        let mut m = scripted(&g, &script);
        let cfg = TrainConfig { epochs: script.len(), learning_rate: 0.1, seed: 18, threads: None };
        let report = train_guarded(&mut m, &g, &cfg, DivergencePolicy::default(), None);
        assert_eq!(report.aborted_at, Some(1));
        assert!(report.rolled_back, "epoch 0 was healthy, so a snapshot exists");
        assert_eq!(m.state[0], 0.0);
        assert!(report.reason.unwrap().contains("non-finite"));
    }

    #[test]
    fn guarded_first_epoch_explosion_is_unusable() {
        let g = toy_graph();
        let script = [f32::INFINITY];
        let mut m = scripted(&g, &script);
        let cfg = TrainConfig { epochs: 5, learning_rate: 0.1, seed: 19, threads: None };
        let report = train_guarded(&mut m, &g, &cfg, DivergencePolicy::default(), None);
        assert_eq!(report.aborted_at, Some(0));
        assert!(!report.rolled_back, "no healthy snapshot exists");
        assert!(!report.usable());
    }

    fn scratch(tag: &str) -> std::path::PathBuf {
        let dir =
            std::env::temp_dir().join(format!("kgrec_kge_trainer_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn bits(m: &TransE) -> Vec<u32> {
        m.entities().data().iter().chain(m.relations().data()).map(|x| x.to_bits()).collect()
    }

    #[test]
    fn guarded_falls_back_to_disk_when_resumed_epoch_explodes() {
        let g = toy_graph();
        // Epochs 0-2 are healthy and checkpointed (generations 1-3);
        // epoch 3 is NaN.
        let script = [1.0, 0.5, 0.2, f32::NAN, 0.1];
        let cfg = TrainConfig { epochs: script.len(), learning_rate: 0.1, seed: 20, threads: None };
        let dir = scratch("disk_rollback");
        let store = CheckpointStore::open(&dir).expect("open");
        let mut first = scripted(&g, &script);
        let report = train_guarded(&mut first, &g, &cfg, DivergencePolicy::default(), Some(&store));
        assert_eq!(report.aborted_at, Some(3));
        assert_eq!(report.saved, 3);
        assert_eq!(store.last_good(), Some(3));

        // The restart resumes at epoch 3, which explodes before any
        // healthy epoch: no in-memory snapshot exists, so the trainer
        // restores the last good generation from disk.
        let mut resumed = scripted(&g, &script);
        let report =
            train_guarded(&mut resumed, &g, &cfg, DivergencePolicy::default(), Some(&store));
        assert_eq!(report.resumed_from, Some(3));
        assert_eq!(report.start_epoch, 3);
        assert_eq!(report.aborted_at, Some(3));
        assert_eq!(report.disk_rollback, Some(3));
        assert!(report.rolled_back);
        assert!(report.usable());
        assert_eq!(report.saved, 0);
        assert!(report.reason.unwrap().contains("non-finite"));
        // The checkpointed state: the marker written by epoch 2, and the
        // pair counter at the end of epoch 2.
        assert_eq!(resumed.state, vec![2.0]);
        assert_eq!(resumed.pairs_seen, 3 * g.num_triples());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn guarded_survives_every_save_failing() {
        let g = toy_graph();
        let cfg = TrainConfig { epochs: 6, learning_rate: 0.05, seed: 22, threads: Some(1) };
        let dir = scratch("save_errors");
        let store = CheckpointStore::open(&dir).expect("open");
        // Replace the store's directory with a plain file: every load and
        // every save now fails.
        std::fs::remove_dir_all(&dir).expect("remove store dir");
        std::fs::write(&dir, b"not a directory").expect("write blocker file");

        let mut rng = StdRng::seed_from_u64(23);
        let mut m = TransE::new(&mut rng, g.num_entities(), g.num_relations(), 8, 1.0);
        let report = train_guarded(&mut m, &g, &cfg, DivergencePolicy::default(), Some(&store));
        assert!(report.completed());
        assert_eq!(report.resumed_from, None);
        assert_eq!(report.saved, 0);
        assert_eq!(report.save_errors, cfg.epochs);

        let mut rng = StdRng::seed_from_u64(23);
        let mut plain = TransE::new(&mut rng, g.num_entities(), g.num_relations(), 8, 1.0);
        train_guarded(&mut plain, &g, &cfg, DivergencePolicy::default(), None);
        assert_eq!(bits(&m), bits(&plain), "failed saves must not perturb training");
        let _ = std::fs::remove_file(&dir);
    }

    #[test]
    fn guarded_cold_start_with_store_matches_store_less_run() {
        let g = toy_graph();
        let cfg = TrainConfig { epochs: 7, learning_rate: 0.05, seed: 24, threads: Some(1) };
        let dir = scratch("cold");
        let store = CheckpointStore::open(&dir).expect("open");
        let mut rng = StdRng::seed_from_u64(25);
        let mut stored = TransE::new(&mut rng, g.num_entities(), g.num_relations(), 8, 1.0);
        let with = train_guarded(&mut stored, &g, &cfg, DivergencePolicy::default(), Some(&store));
        let mut rng = StdRng::seed_from_u64(25);
        let mut plain = TransE::new(&mut rng, g.num_entities(), g.num_relations(), 8, 1.0);
        let without = train_guarded(&mut plain, &g, &cfg, DivergencePolicy::default(), None);

        assert_eq!(with.start_epoch, 0);
        assert_eq!(with.saved, cfg.epochs);
        assert_eq!((without.saved, without.save_errors), (0, 0));
        let curve_bits = |c: &[f32]| c.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(curve_bits(&with.curve), curve_bits(&without.curve));
        assert_eq!(bits(&stored), bits(&plain));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
