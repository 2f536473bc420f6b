//! The shared KGE model interface.

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

    /// One SGD step on a (positive, negative) triple pair; returns the
    /// pair's loss *before* the update.
    fn train_pair(&mut self, pos: Triple, neg: Triple, lr: f32) -> f32;

    /// SGD steps over a pre-drawn batch of (positive, negative) pairs,
    /// pushing each pair's loss onto `losses` in order.
    ///
    /// The default applies `train_pair` sequentially, so the parameter
    /// trajectory and the per-pair losses are exactly those of the
    /// unbatched loop; implementations may override to amortise per-pair
    /// setup but must preserve both properties (the trainer accumulates
    /// the returned losses in pair order, and the golden evaluation
    /// transcript pins the resulting parameters bit-for-bit).
    fn train_batch(&mut self, pairs: &[(Triple, Triple)], lr: f32, losses: &mut Vec<f32>) {
        for &(pos, neg) in pairs {
            losses.push(self.train_pair(pos, neg, lr));
        }
    }

    /// Whether the model implements the recorded-gradient pair
    /// ([`Self::grad_pair`] / [`Self::apply_grads`]) and should be trained
    /// through the deterministic batched path. Defaults to `false`: such
    /// models keep the sequential per-pair trajectory.
    fn supports_grad_batches(&self) -> bool {
        false
    }

    /// Computes the gradients of one (positive, negative) pair against the
    /// *frozen* current parameters, recording every update and constraint
    /// projection as ops in `out`. Returns the pair's loss. Must not
    /// mutate any parameter — `&self` enforces it — so workers can record
    /// batches concurrently.
    ///
    /// Unlike [`Self::train_pair`], the negative triple's gradients are
    /// evaluated at the same frozen parameters as the positive's (the
    /// sequential path updates between the two); the batched trainer's
    /// trajectory is therefore a frozen-minibatch variant of SGD, not a
    /// replay of the sequential one — but it is identical at every thread
    /// count.
    fn grad_pair(&self, _pos: Triple, _neg: Triple, _out: &mut GradBatch) -> f32 {
        unimplemented!("grad_pair requires supports_grad_batches()")
    }

    /// Applies a recorded batch in op order with learning rate `lr`.
    fn apply_grads(&mut self, _batch: &GradBatch, _lr: f32) {
        unimplemented!("apply_grads requires supports_grad_batches()")
    }

    /// Applies per-epoch constraints (norm projections). Default: nothing.
    fn post_epoch(&mut self) {}

    /// Short algorithm name for reports.
    fn name(&self) -> &'static str;
}
