//! entity2rec (Palumbo et al. 2017): property-specific entity relatedness.
//!
//! For every relation of the item KG, a property-specific entity
//! embedding is trained with meta-path-constrained random walks +
//! skip-gram (metapath2vec). A user–item pair is described by one
//! relatedness feature per property — cosine between the item and the
//! mean of the user's history in that property space — plus a
//! collaborative feature from walks over the user–item graph. A logistic
//! ranker learns the feature weights (the paper's learning-to-rank step,
//! simplified to pointwise logistic regression).

use crate::common::{sample_observed, taxonomy_of};
use kgrec_core::{CoreError, Recommender, Taxonomy, TrainContext};
use kgrec_data::negative::sample_negative;
use kgrec_data::{ItemId, UserId};
use kgrec_graph::{MetaPath, RelationId};
use kgrec_kge::metapath2vec::{metapath2vec, Metapath2VecConfig};
use kgrec_linalg::{vector, EmbeddingTable};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// entity2rec hyper-parameters.
#[derive(Debug, Clone)]
pub(crate) struct Entity2RecConfig {
    /// Skip-gram embedding dimension.
    pub dim: usize,
    /// Ranker training epochs.
    pub epochs: usize,
    /// Ranker learning rate.
    pub learning_rate: f32,
    /// RNG seed.
    pub seed: u64,
}

impl Default for Entity2RecConfig {
    fn default() -> Self {
        Self { dim: 16, epochs: 30, learning_rate: 0.1, seed: 43 }
    }
}

/// The entity2rec model.
#[derive(Debug)]
pub(crate) struct Entity2Rec {
    /// Hyper-parameters.
    pub config: Entity2RecConfig,
    /// One embedding space per property (relation).
    property_embeddings: Vec<EmbeddingTable>,
    /// Collaborative space over the user–item graph.
    collab: Option<EmbeddingTable>,
    collab_users: Vec<kgrec_graph::EntityId>,
    collab_items: Vec<kgrec_graph::EntityId>,
    alignment: Vec<kgrec_graph::EntityId>,
    histories: Vec<Vec<ItemId>>,
    weights: Vec<f32>,
    bias: f32,
    num_items: usize,
}

impl Entity2Rec {
    /// Creates an unfitted model.
    pub(crate) fn new(config: Entity2RecConfig) -> Self {
        Self {
            config,
            property_embeddings: Vec::new(),
            collab: None,
            collab_users: Vec::new(),
            collab_items: Vec::new(),
            alignment: Vec::new(),
            histories: Vec::new(),
            weights: Vec::new(),
            bias: 0.0,
            num_items: 0,
        }
    }

    /// Creates a model with default hyper-parameters.
    pub(crate) fn default_config() -> Self {
        Self::new(Entity2RecConfig::default())
    }

    /// The feature vector of a `(user, item)` pair: one property
    /// relatedness per relation plus the collaborative relatedness.
    fn features(&self, user: UserId, item: ItemId) -> Vec<f32> {
        let hist = &self.histories[user.index()];
        let mut out = Vec::with_capacity(self.property_embeddings.len() + 1);
        for table in &self.property_embeddings {
            if hist.is_empty() {
                out.push(0.0);
                continue;
            }
            let ids: Vec<usize> = hist.iter().map(|&i| self.alignment[i.index()].index()).collect();
            let profile = table.mean_of_rows(&ids);
            out.push(vector::cosine(&profile, table.row(self.alignment[item.index()].index())));
        }
        let collab = self.collab.as_ref().expect("Entity2Rec: fit before score");
        out.push(vector::cosine(
            collab.row(self.collab_users[user.index()].index()),
            collab.row(self.collab_items[item.index()].index()),
        ));
        out
    }
}

impl Recommender for Entity2Rec {
    fn name(&self) -> &'static str {
        "entity2rec"
    }

    fn taxonomy(&self) -> Taxonomy {
        taxonomy_of("entity2rec")
    }

    fn fit(&mut self, ctx: &TrainContext<'_>) -> Result<(), CoreError> {
        let graph = &ctx.dataset.graph;
        self.alignment = ctx.dataset.item_entities.clone();
        self.num_items = ctx.num_items();
        self.histories =
            (0..ctx.num_users()).map(|u| ctx.train.items_of(UserId(u as u32)).to_vec()).collect();
        // Property-specific spaces: walks constrained to r / r_inv hops.
        let base = graph.num_base_relations();
        let mp_cfg = Metapath2VecConfig {
            dim: self.config.dim,
            walks_per_entity: 3,
            walk_length: 6,
            window: 2,
            negatives: 2,
            learning_rate: 0.05,
            epochs: 2,
            seed: self.config.seed,
        };
        self.property_embeddings = (0..base)
            .map(|r| {
                let has_inv = graph.num_relations() >= 2 * base;
                let pattern = if has_inv {
                    MetaPath::new(vec![RelationId(r as u32), RelationId((r + base) as u32)])
                } else {
                    MetaPath::new(vec![RelationId(r as u32)])
                };
                metapath2vec(graph, Some(&pattern), &mp_cfg)
            })
            .collect();
        // Collaborative space over the user–item graph (unconstrained
        // walks; the interact edges dominate connectivity there).
        let uig = ctx.dataset.user_item_graph(ctx.train);
        let collab_cfg = Metapath2VecConfig { seed: self.config.seed.wrapping_add(1), ..mp_cfg };
        self.collab = Some(metapath2vec(&uig.graph, None, &collab_cfg));
        self.collab_users = uig.user_entities;
        self.collab_items = uig.item_entities;
        // Logistic ranker over the features.
        let n_feat = self.property_embeddings.len() + 1;
        self.weights = vec![0.0; n_feat];
        self.bias = 0.0;
        let mut rng = StdRng::seed_from_u64(self.config.seed.wrapping_add(2));
        let lr = self.config.learning_rate;
        for _ in 0..self.config.epochs {
            for _ in 0..ctx.train.num_interactions() {
                let Some((u, pos)) = sample_observed(ctx.train, &mut rng) else { break };
                let Some(neg) = sample_negative(ctx.train, u, &mut rng) else { continue };
                for (item, label) in [(pos, 1.0f32), (neg, 0.0)] {
                    let f = self.features(u, item);
                    let z = vector::dot(&self.weights, &f) + self.bias;
                    let dz = vector::sigmoid(z) - label;
                    for (w, x) in self.weights.iter_mut().zip(f.iter()) {
                        *w -= lr * dz * x;
                    }
                    self.bias -= lr * dz;
                }
            }
        }
        Ok(())
    }

    fn score(&self, user: UserId, item: ItemId) -> f32 {
        vector::dot(&self.weights, &self.features(user, item)) + self.bias
    }

    fn num_items(&self) -> usize {
        self.num_items
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kgrec_core::protocol::evaluate_ctr;
    use kgrec_data::negative::labeled_eval_set;
    use kgrec_data::split::ratio_split;
    use kgrec_data::synth::{generate, ScenarioConfig};

    #[test]
    fn beats_chance_on_planted_data() {
        let synth = generate(&ScenarioConfig::tiny(), 42);
        let split = ratio_split(&synth.dataset.interactions, 0.2, 1);
        let mut m = Entity2Rec::default_config();
        m.fit(&TrainContext::new(&synth.dataset, &split.train)).unwrap();
        let mut rng = StdRng::seed_from_u64(5);
        let pairs = labeled_eval_set(&split.train, &split.test, 4, &mut rng);
        let rep = evaluate_ctr(&m, &pairs);
        assert!(rep.auc > 0.6, "AUC {}", rep.auc);
    }

    #[test]
    fn feature_vector_has_one_slot_per_property_plus_collab() {
        let synth = generate(&ScenarioConfig::tiny(), 1);
        let split = ratio_split(&synth.dataset.interactions, 0.2, 1);
        let mut m = Entity2Rec::new(Entity2RecConfig { epochs: 1, ..Default::default() });
        m.fit(&TrainContext::new(&synth.dataset, &split.train)).unwrap();
        let f = m.features(UserId(0), ItemId(0));
        assert_eq!(f.len(), synth.dataset.graph.num_base_relations() + 1);
        assert!(f.iter().all(|x| x.is_finite()));
    }

    #[test]
    fn empty_history_features_are_zero() {
        let synth = generate(&ScenarioConfig::tiny(), 2);
        let empty_train = kgrec_data::InteractionMatrix::from_interactions(
            synth.dataset.interactions.num_users(),
            synth.dataset.interactions.num_items(),
            &synth
                .dataset
                .interactions
                .iter()
                .filter(|(u, _, _)| u.0 != 0)
                .map(|(u, i, _)| kgrec_data::Interaction::implicit(u, i))
                .collect::<Vec<_>>(),
        );
        let mut m = Entity2Rec::new(Entity2RecConfig { epochs: 1, ..Default::default() });
        m.fit(&TrainContext::new(&synth.dataset, &empty_train)).unwrap();
        let f = m.features(UserId(0), ItemId(0));
        // All property features are zero for an empty history; the
        // collaborative feature may still be nonzero via graph structure.
        for x in &f[..f.len() - 1] {
            assert_eq!(*x, 0.0);
        }
    }
}
