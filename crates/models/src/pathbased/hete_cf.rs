//! Hete-CF (Luo et al. 2014): MF with user–user, item–item *and*
//! user–item meta-path regularization (survey Eqs. 13–15).
//!
//! On top of Hete-MF's item–item term, Hete-CF adds the user–user PathSim
//! over the collaborative path `U →interact I →interact⁻¹ U` (Eq. 13) and
//! a user–item similarity term along `U →interact I →r A →r⁻¹ I` paths
//! (Eq. 15, with walk counts row-normalized per user as the similarity).

use crate::common::{sample_observed, taxonomy_of};
use crate::pathbased::hete_mf::item_similarity_matrices;
use kgrec_core::{CoreError, Recommender, Taxonomy, TrainContext};
use kgrec_data::negative::sample_negative;
use kgrec_data::{ItemId, UserId};
use kgrec_graph::pathsim::{pathsim_matrix, SimilarityMatrix};
use kgrec_graph::MetaPath;
use kgrec_linalg::{vector, EmbeddingTable};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Hete-CF hyper-parameters.
#[derive(Debug, Clone)]
pub(crate) struct HeteCfConfig {
    /// Latent dimension.
    pub dim: usize,
    /// Epochs.
    pub epochs: usize,
    /// Learning rate.
    pub learning_rate: f32,
    /// L2 regularization.
    pub l2: f32,
    /// Weight of all three similarity regularizers.
    pub sim_weight: f32,
    /// Cap on stored user–item similarity entries per user.
    pub max_ui_per_user: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for HeteCfConfig {
    fn default() -> Self {
        Self {
            dim: 16,
            epochs: 30,
            learning_rate: 0.05,
            l2: 1e-4,
            sim_weight: 0.1,
            max_ui_per_user: 32,
            seed: 53,
        }
    }
}

/// The Hete-CF model.
#[derive(Debug)]
pub(crate) struct HeteCf {
    /// Hyper-parameters.
    pub config: HeteCfConfig,
    users: EmbeddingTable,
    items: EmbeddingTable,
    item_sims: Vec<SimilarityMatrix>,
    user_sim: Option<SimilarityMatrix>,
    /// Per-user `(item, similarity)` targets for the user–item term.
    ui_sims: Vec<Vec<(u32, f32)>>,
}

impl HeteCf {
    /// Creates an unfitted model.
    pub(crate) fn new(config: HeteCfConfig) -> Self {
        Self {
            config,
            users: EmbeddingTable::zeros(0, 1),
            items: EmbeddingTable::zeros(0, 1),
            item_sims: Vec::new(),
            user_sim: None,
            ui_sims: Vec::new(),
        }
    }

    /// Creates a model with default hyper-parameters.
    pub(crate) fn default_config() -> Self {
        Self::new(HeteCfConfig::default())
    }
}

impl Recommender for HeteCf {
    fn name(&self) -> &'static str {
        "Hete-CF"
    }

    fn taxonomy(&self) -> Taxonomy {
        taxonomy_of("Hete-CF")
    }

    fn fit(&mut self, ctx: &TrainContext<'_>) -> Result<(), CoreError> {
        let mut rng = StdRng::seed_from_u64(self.config.seed);
        let dim = self.config.dim;
        let scale = 1.0 / (dim as f32).sqrt();
        self.users = EmbeddingTable::uniform(&mut rng, ctx.num_users(), dim, scale);
        self.items = EmbeddingTable::uniform(&mut rng, ctx.num_items(), dim, scale);
        self.item_sims = item_similarity_matrices(ctx.dataset);
        // User–user similarity over the collaborative meta-path.
        let uig = ctx.dataset.user_item_graph(ctx.train);
        let uu_path = MetaPath::new(vec![uig.interact, uig.interact_inv]);
        self.user_sim = Some(pathsim_matrix(&uig.graph, &uig.user_entities, &uu_path));
        // User–item similarity: row-normalized walk counts along
        // interact → r → r⁻¹ for each attribute relation.
        let metapaths = crate::pathbased::util::canonical_metapaths(&uig);
        let item_map = crate::pathbased::util::item_of_entity(&uig);
        let mut ui: Vec<Vec<(u32, f32)>> = vec![Vec::new(); ctx.num_users()];
        for (u, bucket) in ui.iter_mut().enumerate() {
            let src = uig.user_entities[u];
            let mut acc: Vec<(u32, f64)> = Vec::new();
            for mp in metapaths.iter().skip(1) {
                // skip(1): the collaborative path targets users, not items.
                for (e, c) in mp.walk_counts(&uig.graph, src) {
                    if let Some(item) = item_map[e.index()] {
                        acc.push((item.0, c));
                    }
                }
            }
            acc.sort_by_key(|&(i, _)| i);
            let mut merged: Vec<(u32, f64)> = Vec::new();
            for (i, c) in acc {
                match merged.last_mut() {
                    Some((li, lc)) if *li == i => *lc += c,
                    _ => merged.push((i, c)),
                }
            }
            let total: f64 = merged.iter().map(|&(_, c)| c).sum();
            if total > 0.0 {
                merged.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal));
                merged.truncate(self.config.max_ui_per_user);
                *bucket = merged.into_iter().map(|(i, c)| (i, (c / total) as f32)).collect();
            }
        }
        self.ui_sims = ui;

        let (lr, l2, lam) = (self.config.learning_rate, self.config.l2, self.config.sim_weight);
        for _ in 0..self.config.epochs {
            // Base factorization (same as Hete-MF).
            for _ in 0..ctx.train.num_interactions() {
                let Some((u, pos)) = sample_observed(ctx.train, &mut rng) else { break };
                let neg = sample_negative(ctx.train, u, &mut rng);
                for (item, y) in [(Some(pos), 1.0f32), (neg, 0.0)]
                    .into_iter()
                    .filter_map(|(i, y)| i.map(|i| (i, y)))
                {
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
            // Item–item term (Eq. 14).
            for sim in &self.item_sims {
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
            // User–user term (Eq. 13).
            if let Some(sim) = &self.user_sim {
                for i in 0..sim.len() {
                    for &(j, s) in sim.row(i) {
                        let uj = self.users.row(j as usize).to_vec();
                        let ui_row = self.users.row_mut(i);
                        for k in 0..dim {
                            ui_row[k] -= lr * lam * 2.0 * s * (ui_row[k] - uj[k]);
                        }
                    }
                }
            }
            // User–item term (Eq. 15): (uᵀv − s)² gradient.
            for u in 0..ctx.num_users() {
                let targets = self.ui_sims[u].clone();
                for (j, s) in targets {
                    let uv = self.users.row(u).to_vec();
                    let iv = self.items.row(j as usize).to_vec();
                    let err = vector::dot(&uv, &iv) - s;
                    let urow = self.users.row_mut(u);
                    for k in 0..dim {
                        urow[k] -= lr * lam * 2.0 * err * iv[k];
                    }
                    let irow = self.items.row_mut(j as usize);
                    for k in 0..dim {
                        irow[k] -= lr * lam * 2.0 * err * uv[k];
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
        let mut m = HeteCf::default_config();
        m.fit(&TrainContext::new(&synth.dataset, &split.train)).unwrap();
        let mut rng = StdRng::seed_from_u64(5);
        let pairs = labeled_eval_set(&split.train, &split.test, 4, &mut rng);
        let rep = evaluate_ctr(&m, &pairs);
        assert!(rep.auc > 0.6, "AUC {}", rep.auc);
    }

    #[test]
    fn ui_similarities_are_normalized_distributions() {
        let synth = generate(&ScenarioConfig::tiny(), 3);
        let split = ratio_split(&synth.dataset.interactions, 0.2, 1);
        let mut m = HeteCf::new(HeteCfConfig { epochs: 1, ..Default::default() });
        m.fit(&TrainContext::new(&synth.dataset, &split.train)).unwrap();
        for row in &m.ui_sims {
            let sum: f32 = row.iter().map(|&(_, s)| s).sum();
            // Rows are truncated, so the sum is at most 1 (plus epsilon).
            assert!(sum <= 1.0 + 1e-4, "sum={sum}");
            assert!(row.iter().all(|&(_, s)| s >= 0.0));
        }
    }

    #[test]
    fn user_similarity_built_on_collaborative_path() {
        let synth = generate(&ScenarioConfig::tiny(), 4);
        let split = ratio_split(&synth.dataset.interactions, 0.2, 1);
        let mut m = HeteCf::new(HeteCfConfig { epochs: 1, ..Default::default() });
        m.fit(&TrainContext::new(&synth.dataset, &split.train)).unwrap();
        let sim = m.user_sim.as_ref().unwrap();
        assert_eq!(sim.len(), synth.dataset.interactions.num_users());
        assert!(sim.nnz() > 0, "users sharing items must be similar");
    }
}
