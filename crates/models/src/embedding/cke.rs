//! CKE (Zhang et al. 2016): collaborative knowledge base embedding.
//!
//! Item latent vector `v_j = η_j + x_j` (survey Eq. 2) where `η_j` is a
//! free collaborative offset and `x_j` the TransR structural embedding of
//! the item's aligned KG entity. The BPR ranking loss and the TransR
//! margin loss are optimized jointly — gradients from interactions flow
//! into the entity table and vice versa.
//!
//! Simplification vs. the paper: the textual/visual autoencoder branches
//! are omitted — the synthetic datasets carry no text/image payloads
//! (`DESIGN.md` §2); the structural branch is the one the survey's
//! argument rests on.

use crate::common::{sample_observed, taxonomy_of};
use kgrec_core::{CoreError, Recommender, Taxonomy, TrainContext};
use kgrec_data::negative::sample_negative;
use kgrec_data::{ItemId, UserId};
use kgrec_graph::EntityId;
use kgrec_kge::trainer::corrupt;
use kgrec_kge::{KgeModel, TransR};
use kgrec_linalg::{vector, EmbeddingTable};
use rand::rngs::StdRng;
use rand::Rng;
use rand::SeedableRng;

/// CKE hyper-parameters.
#[derive(Debug, Clone)]
pub(crate) struct CkeConfig {
    /// Latent dimension (shared by CF offsets and TransR entity space).
    pub dim: usize,
    /// Joint-training epochs.
    pub epochs: usize,
    /// Learning rate.
    pub learning_rate: f32,
    /// L2 regularization on CF parameters.
    pub l2: f32,
    /// TransR margin.
    pub margin: f32,
    /// KG triples trained per interaction step (balances the two losses).
    pub kg_steps_per_cf_step: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for CkeConfig {
    fn default() -> Self {
        Self {
            dim: 16,
            epochs: 30,
            learning_rate: 0.05,
            l2: 1e-4,
            margin: 1.0,
            kg_steps_per_cf_step: 1,
            seed: 29,
        }
    }
}

/// The CKE model.
#[derive(Debug)]
pub(crate) struct Cke {
    /// Hyper-parameters.
    pub config: CkeConfig,
    users: EmbeddingTable,
    offsets: EmbeddingTable,
    kge: Option<TransR>,
    alignment: Vec<EntityId>,
}

impl Cke {
    /// Creates an unfitted model.
    pub(crate) fn new(config: CkeConfig) -> Self {
        Self {
            config,
            users: EmbeddingTable::zeros(0, 1),
            offsets: EmbeddingTable::zeros(0, 1),
            kge: None,
            alignment: Vec::new(),
        }
    }

    /// Creates a model with default hyper-parameters.
    pub(crate) fn default_config() -> Self {
        Self::new(CkeConfig::default())
    }

    /// Item latent `v_j = η_j + x_j`.
    fn item_vec(&self, item: ItemId) -> Vec<f32> {
        let kge = self.kge.as_ref().expect("Cke: fit before score");
        let x = kge.entity_embedding(self.alignment[item.index()]);
        vector::add(self.offsets.row(item.index()), x)
    }
}

impl Recommender for Cke {
    fn name(&self) -> &'static str {
        "CKE"
    }

    fn taxonomy(&self) -> Taxonomy {
        taxonomy_of("CKE")
    }

    fn fit(&mut self, ctx: &TrainContext<'_>) -> Result<(), CoreError> {
        let mut rng = StdRng::seed_from_u64(self.config.seed);
        let dim = self.config.dim;
        let scale = 1.0 / (dim as f32).sqrt();
        self.users = EmbeddingTable::uniform(&mut rng, ctx.num_users(), dim, scale);
        self.offsets = EmbeddingTable::uniform(&mut rng, ctx.num_items(), dim, scale);
        self.alignment = ctx.dataset.item_entities.clone();
        let graph = &ctx.dataset.graph;
        let kge = TransR::new(
            &mut rng,
            graph.num_entities(),
            graph.num_relations().max(1),
            dim,
            dim,
            self.config.margin,
        );
        let (lr, l2) = (self.config.learning_rate, self.config.l2);
        let steps = ctx.train.num_interactions() * self.config.epochs;
        let num_triples = graph.num_triples();
        for step in 0..steps {
            // --- CF step (BPR on v = η + x) ---
            let cf_pair = sample_observed(ctx.train, &mut rng)
                .and_then(|(u, pos)| sample_negative(ctx.train, u, &mut rng).map(|n| (u, pos, n)));
            if let Some((u, pos, neg)) = cf_pair {
                let kmodel = self.kge.get_or_insert_with(|| kge.clone());
                let uv = self.users.row(u.index()).to_vec();
                let vp = {
                    let x = kmodel.entity_embedding(self.alignment[pos.index()]);
                    vector::add(self.offsets.row(pos.index()), x)
                };
                let vn = {
                    let x = kmodel.entity_embedding(self.alignment[neg.index()]);
                    vector::add(self.offsets.row(neg.index()), x)
                };
                let x = vector::dot(&uv, &vp) - vector::dot(&uv, &vn);
                let g = -vector::sigmoid(-x);
                // Gradient wrt u: g (vp − vn); wrt vp: g u; wrt vn: −g u.
                let urow = self.users.row_mut(u.index());
                for i in 0..urow.len() {
                    urow[i] -= lr * (g * (vp[i] - vn[i]) + l2 * urow[i]);
                }
                // v = η + x: the same gradient applies to both addends.
                let grow = self.offsets.row_mut(pos.index());
                for i in 0..grow.len() {
                    grow[i] -= lr * (g * uv[i] + l2 * grow[i]);
                }
                let grow = self.offsets.row_mut(neg.index());
                for i in 0..grow.len() {
                    grow[i] -= lr * (-g * uv[i] + l2 * grow[i]);
                }
                // Entity-table part of the item vectors — this is the
                // CKE coupling: interactions shape structural embeddings.
                let delta_pos: Vec<f32> = uv.iter().map(|x| -lr * g * x).collect();
                let delta_neg: Vec<f32> = uv.iter().map(|x| lr * g * x).collect();
                apply_entity_delta(kmodel, self.alignment[pos.index()], &delta_pos);
                apply_entity_delta(kmodel, self.alignment[neg.index()], &delta_neg);
            }
            // --- KG steps (TransR margin loss) ---
            if num_triples > 0 {
                let kmodel = self.kge.get_or_insert_with(|| kge.clone());
                for _ in 0..self.config.kg_steps_per_cf_step {
                    let pos = graph.triple_at(rng.gen_range(0..num_triples));
                    let neg = corrupt(graph, pos, &mut rng);
                    kmodel.train_pair(pos, neg, lr);
                }
            }
            if step % ctx.train.num_interactions().max(1) == 0 {
                if let Some(k) = self.kge.as_mut() {
                    k.post_epoch();
                }
            }
        }
        if self.kge.is_none() {
            self.kge = Some(kge);
        }
        Ok(())
    }

    fn score(&self, user: UserId, item: ItemId) -> f32 {
        vector::dot(self.users.row(user.index()), &self.item_vec(item))
    }

    fn num_items(&self) -> usize {
        self.offsets.len()
    }
}

/// Adds a raw delta to an entity row of the TransR table. CKE treats the
/// structural embedding as part of the item vector, so BPR gradients land
/// directly on it.
fn apply_entity_delta(kge: &mut TransR, e: EntityId, delta: &[f32]) {
    // TransR has no public mutable entity access by design; emulate the
    // update with a helper trait method exposed for joint models.
    kge.entity_row_add(e, delta);
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
        let mut m = Cke::default_config();
        m.fit(&TrainContext::new(&synth.dataset, &split.train)).unwrap();
        let mut rng = StdRng::seed_from_u64(5);
        let pairs = labeled_eval_set(&split.train, &split.test, 4, &mut rng);
        let rep = evaluate_ctr(&m, &pairs);
        assert!(rep.auc > 0.6, "AUC {}", rep.auc);
    }

    #[test]
    fn item_vector_is_offset_plus_structure() {
        let synth = generate(&ScenarioConfig::tiny(), 3);
        let split = ratio_split(&synth.dataset.interactions, 0.2, 1);
        let mut m = Cke::new(CkeConfig { epochs: 1, ..Default::default() });
        m.fit(&TrainContext::new(&synth.dataset, &split.train)).unwrap();
        let v = m.item_vec(ItemId(0));
        let kge = m.kge.as_ref().unwrap();
        let x = kge.entity_embedding(m.alignment[0]);
        let eta = m.offsets.row(0);
        for i in 0..v.len() {
            assert!((v[i] - (eta[i] + x[i])).abs() < 1e-6);
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let synth = generate(&ScenarioConfig::tiny(), 9);
        let split = ratio_split(&synth.dataset.interactions, 0.2, 1);
        let ctx = TrainContext::new(&synth.dataset, &split.train);
        let mut a = Cke::new(CkeConfig { epochs: 3, ..Default::default() });
        let mut b = Cke::new(CkeConfig { epochs: 3, ..Default::default() });
        a.fit(&ctx).unwrap();
        b.fit(&ctx).unwrap();
        assert_eq!(a.score(UserId(1), ItemId(1)), b.score(UserId(1), ItemId(1)));
    }
}
