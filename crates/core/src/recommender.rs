//! The shared recommender interface (survey Eq. 1: `ŷ = f(u, v)`).

use crate::error::CoreError;
use crate::taxonomy::Taxonomy;
use kgrec_data::{InteractionMatrix, ItemId, KgDataset, UserId};
use kgrec_linalg::vector;

/// Everything a model may use during training: the dataset bundle (item
/// KG, alignment, optional token lists) and the *training* interaction
/// matrix. Test interactions are never visible here.
#[derive(Debug, Clone, Copy)]
pub struct TrainContext<'a> {
    /// Dataset bundle (graph + alignment + side data).
    pub dataset: &'a KgDataset,
    /// Training interactions only.
    pub train: &'a InteractionMatrix,
}

impl<'a> TrainContext<'a> {
    /// Convenience constructor.
    ///
    /// In debug builds this validates the bundle's cross-references — the
    /// cheap subset of the `kgrec-check` (`kglint`) rule set that can run
    /// on every construction: the train matrix must share the dataset's
    /// id spaces (DS003) and the item↔entity alignment must be complete
    /// and in range (KG003). Release builds skip the checks.
    pub fn new(dataset: &'a KgDataset, train: &'a InteractionMatrix) -> Self {
        #[cfg(debug_assertions)]
        {
            debug_assert_eq!(
                train.num_users(),
                dataset.interactions.num_users(),
                "TrainContext: train matrix user space differs from the dataset's (DS003)"
            );
            debug_assert_eq!(
                train.num_items(),
                dataset.interactions.num_items(),
                "TrainContext: train matrix item space differs from the dataset's (DS003)"
            );
            debug_assert_eq!(
                dataset.item_entities.len(),
                train.num_items(),
                "TrainContext: item-entity alignment does not cover every item (KG003)"
            );
            let n_entities = dataset.graph.num_entities();
            debug_assert!(
                dataset.item_entities.iter().all(|e| e.index() < n_entities),
                "TrainContext: aligned entity out of range for the graph (KG003)"
            );
        }
        Self { dataset, train }
    }

    /// Number of users.
    pub fn num_users(&self) -> usize {
        self.train.num_users()
    }

    /// Number of items.
    pub fn num_items(&self) -> usize {
        self.train.num_items()
    }
}

/// A trainable, scorable recommender.
///
/// The contract mirrors the survey's formulation: `fit` learns the
/// representations, `score` is the preference function
/// `f: u_i × v_j → ŷ_{i,j}` (higher = preferred), and `recommend` sorts
/// unseen items by it.
///
/// `Send + Sync` is part of the contract: the evaluation harness shards
/// models across worker threads and ranks users against a shared `&self`.
/// Every model is a plain data struct, so the bounds are free; a model
/// needing interior mutability must bring its own synchronization.
pub trait Recommender: Send + Sync {
    /// Model name (matches the Table 3 method name where applicable).
    fn name(&self) -> &'static str;

    /// The model's Table 3 classification.
    fn taxonomy(&self) -> Taxonomy;

    /// Trains the model. Must be called before `score`.
    fn fit(&mut self, ctx: &TrainContext<'_>) -> Result<(), CoreError>;

    /// Adjusts hyper-parameters ahead of a supervised retry of `fit`
    /// (attempt `attempt`, 1-based): the convention is to halve the
    /// learning rate and perturb the RNG seed so the retry explores a
    /// different trajectory instead of replaying the failure
    /// deterministically.
    ///
    /// Returns `false` (the default) when the model has no retry knobs;
    /// the supervisor then stops retrying, because re-running an
    /// unchanged deterministic `fit` reproduces the same failure.
    fn prepare_retry(&mut self, _attempt: u32) -> bool {
        false
    }

    /// Predicted preference `ŷ_{i,j}` (monotone; not necessarily in
    /// `[0, 1]`).
    fn score(&self, user: UserId, item: ItemId) -> f32;

    /// Number of items the fitted model can score (`n`).
    fn num_items(&self) -> usize;

    /// The model's persistence handle, when it supports versioned
    /// save/load (see `kgrec_store::Persistable`). The supervisor's
    /// checkpointed path uses this for warm starts and post-fit saves;
    /// the default `None` opts a model out of checkpointing entirely.
    fn persistable(&self) -> Option<&dyn kgrec_store::Persistable> {
        None
    }

    /// Mutable counterpart of [`Self::persistable`] (checkpoint restore).
    fn persistable_mut(&mut self) -> Option<&mut dyn kgrec_store::Persistable> {
        None
    }

    /// Points the model at a checkpoint directory for *epoch-level*
    /// checkpointing inside `fit` (resume-from-last-good mid-training).
    /// Returns `false` (the default) when the model does not checkpoint
    /// during fit; such models can still be covered by the supervisor's
    /// whole-model warm start through [`Self::persistable`].
    fn set_checkpoint_dir(&mut self, _dir: &std::path::Path) -> bool {
        false
    }

    /// Top-`k` recommendations for `user`, excluding `exclude` (typically
    /// the user's training items). Deterministic: ties break toward the
    /// smaller item id.
    fn recommend(&self, user: UserId, k: usize, exclude: &[ItemId]) -> Vec<(ItemId, f32)> {
        let n = self.num_items();
        let mut scores = vec![f32::NEG_INFINITY; n];
        for (j, s) in scores.iter_mut().enumerate() {
            *s = self.score(user, ItemId(j as u32));
        }
        for e in exclude {
            if e.index() < n {
                scores[e.index()] = f32::NEG_INFINITY;
            }
        }
        vector::top_k_indices(&scores, k)
            .into_iter()
            .filter(|&j| scores[j] > f32::NEG_INFINITY)
            .map(|j| (ItemId(j as u32), scores[j]))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::taxonomy::UsageType;

    /// A trivial model: prefers small item ids for even users, large for
    /// odd — enough to exercise the default `recommend`.
    struct Toy {
        n: usize,
    }

    impl Recommender for Toy {
        fn name(&self) -> &'static str {
            "Toy"
        }

        fn taxonomy(&self) -> Taxonomy {
            Taxonomy {
                method: "Toy",
                venue: "none",
                year: 2026,
                usage: UsageType::EmbeddingBased,
                techniques: &[],
                reference: 0,
            }
        }

        fn fit(&mut self, _ctx: &TrainContext<'_>) -> Result<(), CoreError> {
            Ok(())
        }

        fn score(&self, user: UserId, item: ItemId) -> f32 {
            if user.0.is_multiple_of(2) {
                -(item.0 as f32)
            } else {
                item.0 as f32
            }
        }

        fn num_items(&self) -> usize {
            self.n
        }
    }

    #[test]
    fn recommend_orders_by_score() {
        let m = Toy { n: 5 };
        let recs = m.recommend(UserId(0), 3, &[]);
        let ids: Vec<u32> = recs.iter().map(|(i, _)| i.0).collect();
        assert_eq!(ids, vec![0, 1, 2]);
        let recs = m.recommend(UserId(1), 3, &[]);
        let ids: Vec<u32> = recs.iter().map(|(i, _)| i.0).collect();
        assert_eq!(ids, vec![4, 3, 2]);
    }

    #[test]
    fn recommend_excludes_history() {
        let m = Toy { n: 5 };
        let recs = m.recommend(UserId(0), 3, &[ItemId(0), ItemId(1)]);
        let ids: Vec<u32> = recs.iter().map(|(i, _)| i.0).collect();
        assert_eq!(ids, vec![2, 3, 4]);
    }

    #[test]
    fn recommend_truncates_when_everything_excluded() {
        let m = Toy { n: 2 };
        let recs = m.recommend(UserId(0), 5, &[ItemId(0), ItemId(1)]);
        assert!(recs.is_empty());
    }
}
