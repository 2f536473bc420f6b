//! Hete-MF (Yu et al. 2013): matrix factorization with meta-path
//! item–item similarity regularization.
//!
//! For each symmetric item meta-path `I →r A →r⁻¹ I` the PathSim matrix
//! `S^l` regularizes the item factors (survey Eq. 14):
//! `λ_sim · Σ_l Σ_{ij} s^l_{ij} ‖v_i − v_j‖²` alongside the weighted
//! squared-error factorization of the implicit feedback matrix.

use crate::common::{sample_observed, taxonomy_of};
use kgrec_core::{CoreError, Recommender, Taxonomy, TrainContext};
use kgrec_data::negative::sample_negative;
use kgrec_data::{ItemId, UserId};
use kgrec_graph::pathsim::{pathsim_matrix, SimilarityMatrix};
use kgrec_graph::{MetaPath, RelationId};
use kgrec_linalg::{vector, EmbeddingTable};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Hete-MF hyper-parameters.
#[derive(Debug, Clone)]
pub(crate) struct HeteMfConfig {
    /// Latent dimension.
    pub dim: usize,
    /// Epochs.
    pub epochs: usize,
    /// Learning rate.
    pub learning_rate: f32,
    /// L2 regularization on factors.
    pub l2: f32,
    /// Weight of the similarity regularizer (`λ_sim`).
    pub sim_weight: f32,
    /// RNG seed.
    pub seed: u64,
}

impl Default for HeteMfConfig {
    fn default() -> Self {
        Self { dim: 16, epochs: 30, learning_rate: 0.05, l2: 1e-4, sim_weight: 0.1, seed: 47 }
    }
}

/// The Hete-MF model.
#[derive(Debug)]
pub(crate) struct HeteMf {
    /// Hyper-parameters.
    pub config: HeteMfConfig,
    users: EmbeddingTable,
    items: EmbeddingTable,
    sims: Vec<SimilarityMatrix>,
}

impl HeteMf {
    /// Creates an unfitted model.
    pub(crate) fn new(config: HeteMfConfig) -> Self {
        Self {
            config,
            users: EmbeddingTable::zeros(0, 1),
            items: EmbeddingTable::zeros(0, 1),
            sims: Vec::new(),
        }
    }

    /// Creates a model with default hyper-parameters.
    pub(crate) fn default_config() -> Self {
        Self::new(HeteMfConfig::default())
    }
}

/// Computes the item–item PathSim matrices for every `I-A-I` meta-path of
/// the item KG (one per base relation with a materialized inverse).
pub(crate) fn item_similarity_matrices(dataset: &kgrec_data::KgDataset) -> Vec<SimilarityMatrix> {
    let g = &dataset.graph;
    let base = g.num_base_relations();
    let mut out = Vec::new();
    for r in 0..base {
        let name = g.relation_name(RelationId(r as u32));
        let Some(inv) = g.relation_by_name(&format!("{name}_inv")) else { continue };
        let mp = MetaPath::new(vec![RelationId(r as u32), inv]);
        let m = pathsim_matrix(g, &dataset.item_entities, &mp);
        if m.nnz() > 0 {
            out.push(m);
        }
    }
    out
}

impl Recommender for HeteMf {
    fn name(&self) -> &'static str {
        "Hete-MF"
    }

    fn taxonomy(&self) -> Taxonomy {
        taxonomy_of("Hete-MF")
    }

    fn fit(&mut self, ctx: &TrainContext<'_>) -> Result<(), CoreError> {
        let mut rng = StdRng::seed_from_u64(self.config.seed);
        let dim = self.config.dim;
        let scale = 1.0 / (dim as f32).sqrt();
        self.users = EmbeddingTable::uniform(&mut rng, ctx.num_users(), dim, scale);
        self.items = EmbeddingTable::uniform(&mut rng, ctx.num_items(), dim, scale);
        self.sims = item_similarity_matrices(ctx.dataset);
        let (lr, l2, lam) = (self.config.learning_rate, self.config.l2, self.config.sim_weight);
        for _ in 0..self.config.epochs {
            // Weighted squared-error factorization of implicit feedback:
            // observed entries target 1, sampled negatives target 0.
            for _ in 0..ctx.train.num_interactions() {
                let Some((u, pos)) = sample_observed(ctx.train, &mut rng) else { break };
                for (item, y) in
                    [(pos, 1.0f32), (sample_negative(ctx.train, u, &mut rng).unwrap_or(pos), 0.0)]
                {
                    if y == 0.0 && ctx.train.contains(u, item) {
                        continue; // negative sampling fell back to pos
                    }
                    let uv = self.users.row(u.index()).to_vec();
                    let iv = self.items.row(item.index()).to_vec();
                    let err = vector::dot(&uv, &iv) - y;
                    let urow = self.users.row_mut(u.index());
                    for k in 0..dim {
                        urow[k] -= lr * (2.0 * err * iv[k] + l2 * urow[k]);
                    }
                    let irow = self.items.row_mut(item.index());
                    for k in 0..dim {
                        irow[k] -= lr * (2.0 * err * uv[k] + l2 * irow[k]);
                    }
                }
            }
            // Similarity regularization pass (Eq. 14 gradient):
            // ∂/∂v_i Σ s_ij ‖v_i − v_j‖² = 2 Σ s_ij (v_i − v_j).
            for sim in &self.sims {
                for i in 0..sim.len() {
                    for &(j, s) in sim.row(i) {
                        let vj = self.items.row(j as usize).to_vec();
                        let vi = self.items.row_mut(i);
                        for k in 0..dim {
                            vi[k] -= lr * lam * 2.0 * s * (vi[k] - vj[k]);
                        }
                    }
                }
            }
        }
        Ok(())
    }

    fn score(&self, user: UserId, item: ItemId) -> f32 {
        self.users.row_dot(user.index(), &self.items, item.index())
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
        let mut m = HeteMf::default_config();
        m.fit(&TrainContext::new(&synth.dataset, &split.train)).unwrap();
        let mut rng = StdRng::seed_from_u64(5);
        let pairs = labeled_eval_set(&split.train, &split.test, 4, &mut rng);
        let rep = evaluate_ctr(&m, &pairs);
        assert!(rep.auc > 0.6, "AUC {}", rep.auc);
    }

    #[test]
    fn builds_one_matrix_per_connected_relation() {
        let synth = generate(&ScenarioConfig::tiny(), 2);
        let split = ratio_split(&synth.dataset.interactions, 0.2, 1);
        let mut m = HeteMf::new(HeteMfConfig { epochs: 1, ..Default::default() });
        m.fit(&TrainContext::new(&synth.dataset, &split.train)).unwrap();
        // tiny has genre + maker relations.
        assert_eq!(m.sims.len(), 2);
    }

    #[test]
    fn similarity_pulls_similar_items_together() {
        let synth = generate(&ScenarioConfig::tiny(), 3);
        let split = ratio_split(&synth.dataset.interactions, 0.2, 1);
        // Strong regularizer: similar items should end closer than random
        // pairs after training.
        let mut m = HeteMf::new(HeteMfConfig { sim_weight: 1.0, epochs: 20, ..Default::default() });
        m.fit(&TrainContext::new(&synth.dataset, &split.train)).unwrap();
        let sim = &m.sims[0];
        let mut sim_dist = 0.0f64;
        let mut sim_n = 0usize;
        for i in 0..sim.len() {
            for &(j, _) in sim.row(i) {
                sim_dist += f64::from(vector::dist_sq(m.items.row(i), m.items.row(j as usize)));
                sim_n += 1;
            }
        }
        let mut rnd_dist = 0.0f64;
        let mut rnd_n = 0usize;
        let n = m.items.len();
        for i in 0..n {
            let j = (i + n / 2) % n;
            if sim.get(i, j) == 0.0 && i != j {
                rnd_dist += f64::from(vector::dist_sq(m.items.row(i), m.items.row(j)));
                rnd_n += 1;
            }
        }
        let sim_mean = sim_dist / sim_n.max(1) as f64;
        let rnd_mean = rnd_dist / rnd_n.max(1) as f64;
        assert!(sim_mean < rnd_mean, "similar {sim_mean} vs random {rnd_mean}");
    }
}
