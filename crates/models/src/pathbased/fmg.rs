//! FMG-lite (Zhao et al. 2017): meta-graph based recommendation fusion.
//!
//! Each meta-graph's diffused interaction matrix is factorized; the
//! per-meta-graph latent products `û^(l) ⊙ v̂^(l)` are concatenated into a
//! feature vector, and a second-order **factorization machine** fuses
//! them (the paper's "MF + FM" pipeline). Meta-graphs are represented as
//! weighted unions of meta-paths (see `kgrec_graph::MetaGraph`): the
//! single-path graphs plus one fused all-attributes graph, whose
//! commuting counts a single path cannot express.

use crate::common::{sample_observed, taxonomy_of};
use crate::pathbased::util::{canonical_metapaths, item_of_entity};
use kgrec_core::{CoreError, Recommender, Taxonomy, TrainContext};
use kgrec_data::negative::sample_negative;
use kgrec_data::{ItemId, UserId};
use kgrec_graph::MetaGraph;
use kgrec_linalg::{vector, EmbeddingTable, Matrix};
use rand::rngs::StdRng;
use rand::Rng;
use rand::SeedableRng;

/// FMG-lite hyper-parameters.
#[derive(Debug, Clone)]
pub(crate) struct FmgLiteConfig {
    /// MF rank per meta-graph.
    pub rank: usize,
    /// MF epochs.
    pub mf_epochs: usize,
    /// FM training epochs.
    pub fm_epochs: usize,
    /// FM pairwise factor dimension.
    pub fm_factors: usize,
    /// Learning rate.
    pub learning_rate: f32,
    /// RNG seed.
    pub seed: u64,
}

impl Default for FmgLiteConfig {
    fn default() -> Self {
        Self { rank: 8, mf_epochs: 20, fm_epochs: 15, fm_factors: 4, learning_rate: 0.05, seed: 67 }
    }
}

#[derive(Debug)]
struct GraphFactors {
    users: EmbeddingTable,
    items: EmbeddingTable,
}

/// The FMG-lite model.
#[derive(Debug)]
pub(crate) struct FmgLite {
    /// Hyper-parameters.
    pub config: FmgLiteConfig,
    factors: Vec<GraphFactors>,
    /// FM parameters over the `L·rank` feature vector.
    w0: f32,
    w: Vec<f32>,
    v: Matrix,
    num_items: usize,
}

impl FmgLite {
    /// Creates an unfitted model.
    pub(crate) fn new(config: FmgLiteConfig) -> Self {
        Self {
            config,
            factors: Vec::new(),
            w0: 0.0,
            w: Vec::new(),
            v: Matrix::zeros(0, 0),
            num_items: 0,
        }
    }

    /// Creates a model with default hyper-parameters.
    pub(crate) fn default_config() -> Self {
        Self::new(FmgLiteConfig::default())
    }

    /// Feature vector `x_{u,i} = ⊕_l (û_l ⊙ v̂_l)`.
    fn features(&self, user: UserId, item: ItemId) -> Vec<f32> {
        let mut x = Vec::with_capacity(self.factors.len() * self.config.rank);
        for f in &self.factors {
            x.extend(vector::hadamard(f.users.row(user.index()), f.items.row(item.index())));
        }
        x
    }

    /// FM forward with the O(n·f) sum trick. Returns `(ŷ, per-factor
    /// sums S_f)` for reuse in the backward pass.
    fn fm_forward(&self, x: &[f32]) -> (f32, Vec<f32>) {
        let f_dim = self.config.fm_factors;
        let mut y = self.w0 + vector::dot(&self.w, x);
        let mut sums = vec![0.0f32; f_dim];
        for f in 0..f_dim {
            let mut s = 0.0f32;
            let mut s2 = 0.0f32;
            for (i, &xi) in x.iter().enumerate() {
                let vif = self.v.get(i, f);
                s += vif * xi;
                s2 += vif * vif * xi * xi;
            }
            sums[f] = s;
            y += 0.5 * (s * s - s2);
        }
        (y, sums)
    }
}

impl Recommender for FmgLite {
    fn name(&self) -> &'static str {
        "FMG"
    }

    fn taxonomy(&self) -> Taxonomy {
        taxonomy_of("FMG")
    }

    fn fit(&mut self, ctx: &TrainContext<'_>) -> Result<(), CoreError> {
        let mut rng = StdRng::seed_from_u64(self.config.seed);
        self.num_items = ctx.num_items();
        let uig = ctx.dataset.user_item_graph(ctx.train);
        let metapaths = canonical_metapaths(&uig);
        let item_map = item_of_entity(&uig);
        // Meta-graphs: each single path, plus the fused attribute graph.
        let mut metagraphs: Vec<MetaGraph> =
            metapaths.iter().map(|p| MetaGraph::new(vec![p.clone()])).collect();
        if metapaths.len() > 2 {
            metagraphs.push(MetaGraph::new(metapaths[1..].to_vec()));
        }
        // Per-meta-graph diffusion + plain MF.
        let rank = self.config.rank;
        let lr = self.config.learning_rate;
        let scale = 1.0 / (rank as f32).sqrt();
        self.factors = metagraphs
            .iter()
            .map(|mg| {
                let mut users = EmbeddingTable::uniform(&mut rng, ctx.num_users(), rank, scale);
                let mut items = EmbeddingTable::uniform(&mut rng, ctx.num_items(), rank, scale);
                // Diffused rows.
                let rows: Vec<Vec<(u32, f32)>> = (0..ctx.num_users())
                    .map(|u| {
                        let src = uig.user_entities[u];
                        let mut acc: Vec<(u32, f64)> = mg
                            .walk_counts(&uig.graph, src)
                            .into_iter()
                            .filter_map(|(e, c)| item_map[e.index()].map(|it| (it.0, c)))
                            .collect();
                        acc.sort_by_key(|&(i, _)| i);
                        // Max-normalize (see HeteRec: sum-normalized
                        // targets collapse the factorization).
                        let peak: f64 = acc.iter().map(|&(_, c)| c).fold(0.0, f64::max);
                        if peak > 0.0 {
                            acc.into_iter().map(|(i, c)| (i, (c / peak) as f32)).collect()
                        } else {
                            Vec::new()
                        }
                    })
                    .collect();
                for _ in 0..self.config.mf_epochs {
                    for (u, row) in rows.iter().enumerate() {
                        for &(i, target) in row {
                            mf_step(&mut users, &mut items, u, i as usize, target, lr);
                        }
                        for _ in 0..row.len().max(1) {
                            let i = rng.gen_range(0..ctx.num_items());
                            if row.binary_search_by_key(&(i as u32), |&(j, _)| j).is_err() {
                                mf_step(&mut users, &mut items, u, i, 0.0, lr);
                            }
                        }
                    }
                }
                GraphFactors { users, items }
            })
            .collect();
        // FM over the fused features.
        let n_feat = self.factors.len() * rank;
        self.w0 = 0.0;
        self.w = vec![0.0; n_feat];
        let mut v = Matrix::zeros(n_feat, self.config.fm_factors);
        kgrec_linalg::init::gaussian(&mut rng, v.data_mut(), 0.0, 0.01);
        self.v = v;
        for _ in 0..self.config.fm_epochs {
            for _ in 0..ctx.train.num_interactions() {
                let Some((u, pos)) = sample_observed(ctx.train, &mut rng) else { break };
                let neg = sample_negative(ctx.train, u, &mut rng);
                for (item, label) in [(Some(pos), 1.0f32), (neg, 0.0)]
                    .into_iter()
                    .filter_map(|(i, y)| i.map(|i| (i, y)))
                {
                    let x = self.features(u, item);
                    let (y, sums) = self.fm_forward(&x);
                    let dz = vector::sigmoid(y) - label;
                    self.w0 -= lr * dz;
                    for i in 0..n_feat {
                        self.w[i] -= lr * dz * x[i];
                        for f in 0..self.config.fm_factors {
                            // dŷ/dv_if = x_i (S_f − v_if x_i)
                            let vif = self.v.get(i, f);
                            let grad = x[i] * (sums[f] - vif * x[i]);
                            self.v.set(i, f, vif - lr * dz * grad);
                        }
                    }
                }
            }
        }
        Ok(())
    }

    fn score(&self, user: UserId, item: ItemId) -> f32 {
        self.fm_forward(&self.features(user, item)).0
    }

    fn num_items(&self) -> usize {
        self.num_items
    }
}

fn mf_step(
    users: &mut EmbeddingTable,
    items: &mut EmbeddingTable,
    u: usize,
    i: usize,
    target: f32,
    lr: f32,
) {
    let uv = users.row(u).to_vec();
    let iv = items.row(i).to_vec();
    let err = vector::dot(&uv, &iv) - target;
    let urow = users.row_mut(u);
    for k in 0..urow.len() {
        urow[k] -= lr * 2.0 * err * iv[k];
    }
    let irow = items.row_mut(i);
    for k in 0..irow.len() {
        irow[k] -= lr * 2.0 * err * uv[k];
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kgrec_core::protocol::evaluate_ctr;
    use kgrec_data::negative::labeled_eval_set;
    use kgrec_data::split::ratio_split;
    use kgrec_data::synth::{generate, ScenarioConfig};
    use kgrec_linalg::gradcheck;

    #[test]
    fn beats_chance_on_planted_data() {
        let synth = generate(&ScenarioConfig::tiny(), 42);
        let split = ratio_split(&synth.dataset.interactions, 0.2, 1);
        let mut m = FmgLite::default_config();
        m.fit(&TrainContext::new(&synth.dataset, &split.train)).unwrap();
        let mut rng = StdRng::seed_from_u64(5);
        let pairs = labeled_eval_set(&split.train, &split.test, 4, &mut rng);
        let rep = evaluate_ctr(&m, &pairs);
        assert!(rep.auc > 0.6, "AUC {}", rep.auc);
    }

    #[test]
    fn fm_gradient_matches_finite_difference() {
        let mut m = FmgLite::new(FmgLiteConfig { fm_factors: 3, ..Default::default() });
        let n = 5;
        m.w0 = 0.1;
        m.w = vec![0.2, -0.1, 0.3, 0.0, 0.15];
        let mut v = Matrix::zeros(n, 3);
        let mut rng = StdRng::seed_from_u64(2);
        kgrec_linalg::init::gaussian(&mut rng, v.data_mut(), 0.0, 0.3);
        m.v = v;
        let x = vec![0.5f32, -0.3, 0.8, 0.2, -0.6];
        let (_, sums) = m.fm_forward(&x);
        // Analytic dŷ/dv_{i,f}.
        for i in 0..n {
            for f in 0..3 {
                let vif = m.v.get(i, f);
                let analytic = x[i] * (sums[f] - vif * x[i]);
                let mut params = vec![vif];
                let m2 = &m;
                gradcheck::assert_gradient(&mut params, &[analytic], 1e-3, 1e-2, |p| {
                    let mut mm = FmgLite::new(m2.config.clone());
                    mm.w0 = m2.w0;
                    mm.w = m2.w.clone();
                    mm.v = m2.v.clone();
                    mm.v.set(i, f, p[0]);
                    mm.fm_forward(&x).0
                });
            }
        }
    }

    #[test]
    fn fused_metagraph_added_for_multi_relation_kgs() {
        let synth = generate(&ScenarioConfig::tiny(), 3);
        let split = ratio_split(&synth.dataset.interactions, 0.2, 1);
        let mut m =
            FmgLite::new(FmgLiteConfig { mf_epochs: 2, fm_epochs: 1, ..Default::default() });
        m.fit(&TrainContext::new(&synth.dataset, &split.train)).unwrap();
        // tiny: collaborative + genre + maker single paths + fused = 4.
        assert_eq!(m.factors.len(), 4);
    }
}
