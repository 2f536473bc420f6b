//! HERec-lite (Shi et al. 2019): heterogeneous network embedding fusion.
//!
//! HERec runs meta-path-constrained random walks over the HIN, learns
//! per-meta-path node embeddings with skip-gram (metapath2vec), fuses the
//! per-path embeddings with a learned transformation, and feeds the fused
//! representation into an MF-style predictor. Implemented here with a
//! per-path scalar-product feature and a learned linear fusion plus free
//! MF factors trained jointly by BPR — the "embed per meta-path, fuse,
//! factorize" pipeline of the paper with the personalized non-linear
//! fusion reduced to its linear core (see `DESIGN.md` §4).

use crate::common::{sample_observed, taxonomy_of};
use crate::pathbased::util::canonical_metapaths;
use kgrec_core::{CoreError, Recommender, Taxonomy, TrainContext};
use kgrec_data::negative::sample_negative;
use kgrec_data::{ItemId, UserId};
use kgrec_kge::metapath2vec::{metapath2vec, Metapath2VecConfig};
use kgrec_linalg::{vector, EmbeddingTable};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// HERec-lite hyper-parameters.
#[derive(Debug, Clone)]
pub(crate) struct HeRecConfig {
    /// Skip-gram / MF dimension.
    pub dim: usize,
    /// Joint training epochs.
    pub epochs: usize,
    /// Learning rate.
    pub learning_rate: f32,
    /// L2 on the MF factors.
    pub l2: f32,
    /// RNG seed.
    pub seed: u64,
}

impl Default for HeRecConfig {
    fn default() -> Self {
        Self { dim: 16, epochs: 25, learning_rate: 0.05, l2: 1e-4, seed: 127 }
    }
}

/// The HERec-lite model.
#[derive(Debug)]
pub(crate) struct HeRec {
    /// Hyper-parameters.
    pub config: HeRecConfig,
    /// Per meta-path: frozen (user-entity, item-entity) embedding tables.
    path_embeddings: Vec<EmbeddingTable>,
    user_entities: Vec<kgrec_graph::EntityId>,
    item_entities: Vec<kgrec_graph::EntityId>,
    /// Learned fusion weights, one per meta-path.
    fusion: Vec<f32>,
    /// Free MF factors trained jointly.
    users: EmbeddingTable,
    items: EmbeddingTable,
}

impl HeRec {
    /// Creates an unfitted model.
    pub(crate) fn new(config: HeRecConfig) -> Self {
        Self {
            config,
            path_embeddings: Vec::new(),
            user_entities: Vec::new(),
            item_entities: Vec::new(),
            fusion: Vec::new(),
            users: EmbeddingTable::zeros(0, 1),
            items: EmbeddingTable::zeros(0, 1),
        }
    }

    /// Creates a model with default hyper-parameters.
    pub(crate) fn default_config() -> Self {
        Self::new(HeRecConfig::default())
    }

    /// Per-meta-path relatedness features of a pair.
    fn features(&self, user: UserId, item: ItemId) -> Vec<f32> {
        let ue = self.user_entities[user.index()].index();
        let ie = self.item_entities[item.index()].index();
        self.path_embeddings.iter().map(|t| vector::cosine(t.row(ue), t.row(ie))).collect()
    }

    fn raw_score(&self, user: UserId, item: ItemId) -> f32 {
        let mf = self.users.row_dot(user.index(), &self.items, item.index());
        mf + vector::dot(&self.fusion, &self.features(user, item))
    }
}

impl Recommender for HeRec {
    fn name(&self) -> &'static str {
        "HERec"
    }

    fn taxonomy(&self) -> Taxonomy {
        taxonomy_of("HERec")
    }

    fn fit(&mut self, ctx: &TrainContext<'_>) -> Result<(), CoreError> {
        let mut rng = StdRng::seed_from_u64(self.config.seed);
        let uig = ctx.dataset.user_item_graph(ctx.train);
        self.user_entities = uig.user_entities.clone();
        self.item_entities = uig.item_entities.clone();
        // Per-meta-path constrained walks + skip-gram, frozen afterwards.
        let metapaths = canonical_metapaths(&uig);
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
        self.path_embeddings =
            metapaths.iter().map(|mp| metapath2vec(&uig.graph, Some(mp), &mp_cfg)).collect();
        // Joint BPR training of the fusion weights and the MF factors.
        let dim = self.config.dim;
        let scale = 1.0 / (dim as f32).sqrt();
        self.users = EmbeddingTable::uniform(&mut rng, ctx.num_users(), dim, scale);
        self.items = EmbeddingTable::uniform(&mut rng, ctx.num_items(), dim, scale);
        self.fusion = vec![1.0 / metapaths.len().max(1) as f32; metapaths.len()];
        let (lr, l2) = (self.config.learning_rate, self.config.l2);
        for _ in 0..self.config.epochs {
            for _ in 0..ctx.train.num_interactions() {
                let Some((u, pos)) = sample_observed(ctx.train, &mut rng) else { break };
                let Some(neg) = sample_negative(ctx.train, u, &mut rng) else { continue };
                let x = self.raw_score(u, pos) - self.raw_score(u, neg);
                let g = -vector::sigmoid(-x);
                // Fusion weights.
                let fp = self.features(u, pos);
                let fn_ = self.features(u, neg);
                for l in 0..self.fusion.len() {
                    self.fusion[l] -= lr * g * (fp[l] - fn_[l]);
                }
                // MF factors.
                let uv = self.users.row(u.index()).to_vec();
                let pv = self.items.row(pos.index()).to_vec();
                let nv = self.items.row(neg.index()).to_vec();
                let urow = self.users.row_mut(u.index());
                for i in 0..dim {
                    urow[i] -= lr * (g * (pv[i] - nv[i]) + l2 * urow[i]);
                }
                let prow = self.items.row_mut(pos.index());
                for i in 0..dim {
                    prow[i] -= lr * (g * uv[i] + l2 * prow[i]);
                }
                let nrow = self.items.row_mut(neg.index());
                for i in 0..dim {
                    nrow[i] -= lr * (-g * uv[i] + l2 * nrow[i]);
                }
            }
        }
        Ok(())
    }

    fn score(&self, user: UserId, item: ItemId) -> f32 {
        self.raw_score(user, item)
    }

    fn num_items(&self) -> usize {
        self.items.len()
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
        let mut m = HeRec::default_config();
        m.fit(&TrainContext::new(&synth.dataset, &split.train)).unwrap();
        let mut rng = StdRng::seed_from_u64(5);
        let pairs = labeled_eval_set(&split.train, &split.test, 4, &mut rng);
        let rep = evaluate_ctr(&m, &pairs);
        assert!(rep.auc > 0.6, "AUC {}", rep.auc);
    }

    #[test]
    fn one_embedding_table_per_metapath() {
        let synth = generate(&ScenarioConfig::tiny(), 3);
        let split = ratio_split(&synth.dataset.interactions, 0.2, 1);
        let mut m = HeRec::new(HeRecConfig { epochs: 1, ..Default::default() });
        m.fit(&TrainContext::new(&synth.dataset, &split.train)).unwrap();
        // tiny: collaborative + genre + maker meta-paths.
        assert_eq!(m.path_embeddings.len(), 3);
        assert_eq!(m.fusion.len(), 3);
    }

    #[test]
    fn features_bounded_by_cosine() {
        let synth = generate(&ScenarioConfig::tiny(), 4);
        let split = ratio_split(&synth.dataset.interactions, 0.2, 1);
        let mut m = HeRec::new(HeRecConfig { epochs: 1, ..Default::default() });
        m.fit(&TrainContext::new(&synth.dataset, &split.train)).unwrap();
        for f in m.features(UserId(0), ItemId(0)) {
            assert!((-1.0..=1.0).contains(&f));
        }
    }
}
