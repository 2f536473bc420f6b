//! The shared KGE model interface.
//!
//! A model scores triples, exposes its learned embeddings, and changes its
//! parameters through one gradient path: [`KgeModel::grad_pair`] records a
//! pair's updates and constraint projections as ops in a [`GradBatch`]
//! against frozen parameters, and [`KgeModel::apply_grads`] replays them.
//! The batched trainer and the per-pair callers (CKE and KGAT step TransR
//! one pair at a time through `TransR::train_pair`) share that path.

use crate::grad::GradBatch;
use kgrec_graph::{EntityId, RelationId, Triple};
use kgrec_linalg::EmbeddingTable;

/// A trainable knowledge-graph embedding model.
///
/// Scores are oriented so that **higher means more plausible** — the
/// translation-distance models return the negated distance. This keeps
/// ranking code uniform across model families.
///
/// `Send + Sync` is part of the contract: link-prediction evaluation
/// shards test triples across worker threads that score against a shared
/// `&self`. Every backend is a plain embedding-table struct, so the
/// bounds are free.
pub trait KgeModel: Send + Sync {
    /// Embedding dimension `d`.
    fn dim(&self) -> usize;

    /// Number of entities the model was sized for.
    fn num_entities(&self) -> usize;

    /// Number of relations the model was sized for.
    fn num_relations(&self) -> usize;

    /// Plausibility score of the triple (higher = more plausible).
    fn score(&self, h: EntityId, r: RelationId, t: EntityId) -> f32;

    /// The entity table: row `k` is the latent vector `e_k`, one row per
    /// entity. Callers that read many rows per call (the serving ranker)
    /// fetch it once instead of dispatching per row.
    fn entity_table(&self) -> &EmbeddingTable;

    /// The entity latent vector `e_k`.
    fn entity_embedding(&self, e: EntityId) -> &[f32] {
        self.entity_table().row(e.index())
    }

    /// The relation latent vector `r_k`.
    fn relation_embedding(&self, r: RelationId) -> &[f32];

    /// Computes the gradients of one (positive, negative) pair against the
    /// *frozen* current parameters, recording every update and constraint
    /// projection as ops in `out`. Returns the pair's loss. Must not
    /// mutate any parameter — `&self` enforces it — so workers can record
    /// batches concurrently.
    ///
    /// The negative triple's gradients are evaluated at the same frozen
    /// parameters as the positive's, so a batch of pairs trains as
    /// frozen-minibatch SGD, identical at every thread count.
    fn grad_pair(&self, pos: Triple, neg: Triple, out: &mut GradBatch) -> f32;

    /// Applies a recorded batch in op order with learning rate `lr`. Every
    /// SGD step on a model goes through here.
    fn apply_grads(&mut self, batch: &GradBatch, lr: f32);

    /// Applies per-epoch constraints (norm projections). Default: nothing.
    fn post_epoch(&mut self) {}

    /// Short algorithm name for reports.
    fn name(&self) -> &'static str;
}

/// One SGD step on a single pair through the recorded-op path; returns the
/// pair's loss before the update.
#[cfg(test)]
pub(crate) fn step_pair<M: KgeModel>(m: &mut M, pos: Triple, neg: Triple, lr: f32) -> f32 {
    let mut batch = GradBatch::new();
    let loss = m.grad_pair(pos, neg, &mut batch);
    m.apply_grads(&batch, lr);
    loss
}
