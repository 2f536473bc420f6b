//! HeteRec / HeteRec-p (Yu et al. 2013/2014): diffused preference
//! factorization over meta-paths.
//!
//! Per meta-path `l`, the interaction matrix is diffused —
//! `R̃^(l) = R·S^(l)`, realized as walk counts from each user's entity
//! along the path — then factorized with non-negative MF (survey Eq. 16).
//! The final score combines the per-path predictions with learned weights
//! `θ_l` (Eq. 17). HeteRec-p personalizes the weights by clustering users
//! (Eq. 18) — implemented as k-means on the users' diffused profiles with
//! per-cluster weights mixed by cosine to the centroids.

use crate::common::{sample_observed, taxonomy_of};
use crate::pathbased::util::{canonical_metapaths, item_of_entity};
use kgrec_core::{CoreError, Recommender, Taxonomy, TrainContext};
use kgrec_data::negative::sample_negative;
use kgrec_data::{ItemId, UserId};
use kgrec_linalg::{vector, EmbeddingTable};
use rand::rngs::StdRng;
use rand::Rng;
use rand::SeedableRng;

/// HeteRec hyper-parameters (shared by HeteRec-p).
#[derive(Debug, Clone)]
pub(crate) struct HeteRecConfig {
    /// NMF rank per meta-path.
    pub rank: usize,
    /// NMF epochs.
    pub nmf_epochs: usize,
    /// Weight-learning epochs.
    pub weight_epochs: usize,
    /// Learning rate.
    pub learning_rate: f32,
    /// Number of user clusters (HeteRec-p only).
    pub clusters: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for HeteRecConfig {
    fn default() -> Self {
        Self {
            rank: 8,
            nmf_epochs: 25,
            weight_epochs: 15,
            learning_rate: 0.05,
            clusters: 4,
            seed: 59,
        }
    }
}

/// Per-path factorization state.
#[derive(Debug)]
struct PathFactors {
    users: EmbeddingTable,
    items: EmbeddingTable,
}

impl PathFactors {
    fn predict(&self, u: usize, i: usize) -> f32 {
        self.users.row_dot(u, &self.items, i)
    }
}

/// Shared fit: diffuse, factorize, return per-path factors.
fn fit_path_factors(
    ctx: &TrainContext<'_>,
    config: &HeteRecConfig,
    rng: &mut StdRng,
) -> Vec<PathFactors> {
    let uig = ctx.dataset.user_item_graph(ctx.train);
    let metapaths = canonical_metapaths(&uig);
    let item_map = item_of_entity(&uig);
    let mut out = Vec::with_capacity(metapaths.len());
    for mp in &metapaths {
        // Diffused preference rows: row-normalized walk counts to items.
        let mut rows: Vec<Vec<(u32, f32)>> = Vec::with_capacity(ctx.num_users());
        for u in 0..ctx.num_users() {
            let src = uig.user_entities[u];
            let mut acc: Vec<(u32, f64)> = mp
                .walk_counts(&uig.graph, src)
                .into_iter()
                .filter_map(|(e, c)| item_map[e.index()].map(|it| (it.0, c)))
                .collect();
            acc.sort_by_key(|&(i, _)| i);
            // Max-normalize: the strongest diffusion target becomes 1.
            // (Sum-normalizing makes every target ~1/reachable-items,
            // which collapses the non-negative factorization to zero.)
            let peak: f64 = acc.iter().map(|&(_, c)| c).fold(0.0, f64::max);
            rows.push(if peak > 0.0 {
                acc.into_iter().map(|(i, c)| (i, (c / peak) as f32)).collect()
            } else {
                Vec::new()
            });
        }
        // Non-negative factorization by projected SGD on the nonzeros
        // plus sampled zeros (survey Eq. 16's argmin with U,V ≥ 0).
        let scale = 1.0 / (config.rank as f32).sqrt();
        let mut users = EmbeddingTable::uniform(rng, ctx.num_users(), config.rank, scale);
        let mut items = EmbeddingTable::uniform(rng, ctx.num_items(), config.rank, scale);
        // Shift to non-negative start.
        for v in users.data_mut().iter_mut() {
            *v = v.abs();
        }
        for v in items.data_mut().iter_mut() {
            *v = v.abs();
        }
        let lr = config.learning_rate;
        for _ in 0..config.nmf_epochs {
            for (u, row) in rows.iter().enumerate() {
                for &(i, target) in row {
                    nmf_step(&mut users, &mut items, u, i as usize, target, lr);
                }
                // One sampled zero per nonzero keeps the factors from
                // collapsing to all-positive predictions.
                for _ in 0..row.len().max(1) {
                    let i = rng.gen_range(0..ctx.num_items());
                    if row.binary_search_by_key(&(i as u32), |&(j, _)| j).is_err() {
                        nmf_step(&mut users, &mut items, u, i, 0.0, lr);
                    }
                }
            }
        }
        out.push(PathFactors { users, items });
    }
    out
}

fn nmf_step(
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
        urow[k] = (urow[k] - lr * 2.0 * err * iv[k]).max(0.0);
    }
    let irow = items.row_mut(i);
    for k in 0..irow.len() {
        irow[k] = (irow[k] - lr * 2.0 * err * uv[k]).max(0.0);
    }
}

/// Learns global path weights `θ` with BPR over the per-path predictions.
fn learn_weights(
    ctx: &TrainContext<'_>,
    factors: &[PathFactors],
    config: &HeteRecConfig,
    rng: &mut StdRng,
) -> Vec<f32> {
    let mut theta = vec![1.0f32 / factors.len().max(1) as f32; factors.len()];
    let lr = config.learning_rate;
    for _ in 0..config.weight_epochs {
        for _ in 0..ctx.train.num_interactions() {
            let Some((u, pos)) = sample_observed(ctx.train, rng) else { break };
            let Some(neg) = sample_negative(ctx.train, u, rng) else { continue };
            let fp: Vec<f32> = factors.iter().map(|f| f.predict(u.index(), pos.index())).collect();
            let fn_: Vec<f32> = factors.iter().map(|f| f.predict(u.index(), neg.index())).collect();
            let x = vector::dot(&theta, &fp) - vector::dot(&theta, &fn_);
            let g = -vector::sigmoid(-x);
            for l in 0..theta.len() {
                theta[l] -= lr * g * (fp[l] - fn_[l]);
            }
        }
    }
    theta
}

/// The HeteRec model (global weights, survey Eq. 17).
#[derive(Debug)]
pub(crate) struct HeteRec {
    /// Hyper-parameters.
    pub config: HeteRecConfig,
    factors: Vec<PathFactors>,
    theta: Vec<f32>,
    num_items: usize,
}

impl HeteRec {
    /// Creates an unfitted model.
    pub(crate) fn new(config: HeteRecConfig) -> Self {
        Self { config, factors: Vec::new(), theta: Vec::new(), num_items: 0 }
    }

    /// Creates a model with default hyper-parameters.
    pub(crate) fn default_config() -> Self {
        Self::new(HeteRecConfig::default())
    }
}

impl Recommender for HeteRec {
    fn name(&self) -> &'static str {
        "HeteRec"
    }

    fn taxonomy(&self) -> Taxonomy {
        taxonomy_of("HeteRec")
    }

    fn fit(&mut self, ctx: &TrainContext<'_>) -> Result<(), CoreError> {
        let mut rng = StdRng::seed_from_u64(self.config.seed);
        self.num_items = ctx.num_items();
        self.factors = fit_path_factors(ctx, &self.config, &mut rng);
        self.theta = learn_weights(ctx, &self.factors, &self.config, &mut rng);
        Ok(())
    }

    fn score(&self, user: UserId, item: ItemId) -> f32 {
        self.factors
            .iter()
            .zip(self.theta.iter())
            .map(|(f, &t)| t * f.predict(user.index(), item.index()))
            .sum()
    }

    fn num_items(&self) -> usize {
        self.num_items
    }
}

/// The HeteRec-p model (per-cluster weights, survey Eq. 18).
#[derive(Debug)]
pub(crate) struct HeteRecP {
    /// Hyper-parameters.
    pub config: HeteRecConfig,
    factors: Vec<PathFactors>,
    /// Cluster centroids in the concatenated per-path user-factor space.
    centroids: Vec<Vec<f32>>,
    /// Per-cluster path weights `θ^k`.
    cluster_theta: Vec<Vec<f32>>,
    /// Per-user cosine similarity to each centroid.
    memberships: Vec<Vec<f32>>,
    num_items: usize,
}

impl HeteRecP {
    /// Creates an unfitted model.
    pub(crate) fn new(config: HeteRecConfig) -> Self {
        Self {
            config,
            factors: Vec::new(),
            centroids: Vec::new(),
            cluster_theta: Vec::new(),
            memberships: Vec::new(),
            num_items: 0,
        }
    }

    /// Creates a model with default hyper-parameters.
    pub(crate) fn default_config() -> Self {
        Self::new(HeteRecConfig::default())
    }

    fn user_profile(factors: &[PathFactors], u: usize) -> Vec<f32> {
        let mut out = Vec::new();
        for f in factors {
            out.extend_from_slice(f.users.row(u));
        }
        out
    }
}

impl Recommender for HeteRecP {
    fn name(&self) -> &'static str {
        "HeteRec_p"
    }

    fn taxonomy(&self) -> Taxonomy {
        taxonomy_of("HeteRec_p")
    }

    fn fit(&mut self, ctx: &TrainContext<'_>) -> Result<(), CoreError> {
        let mut rng = StdRng::seed_from_u64(self.config.seed);
        self.num_items = ctx.num_items();
        self.factors = fit_path_factors(ctx, &self.config, &mut rng);
        // K-means over user profiles.
        let m = ctx.num_users();
        let c = self.config.clusters.clamp(1, m.max(1));
        let profiles: Vec<Vec<f32>> =
            (0..m).map(|u| Self::user_profile(&self.factors, u)).collect();
        let mut centroids: Vec<Vec<f32>> = (0..c).map(|k| profiles[k * m / c].clone()).collect();
        let mut assign = vec![0usize; m];
        for _ in 0..10 {
            for (u, p) in profiles.iter().enumerate() {
                let mut best = (f32::INFINITY, 0usize);
                for (k, cen) in centroids.iter().enumerate() {
                    let d = vector::dist_sq(p, cen);
                    if d < best.0 {
                        best = (d, k);
                    }
                }
                assign[u] = best.1;
            }
            for (k, cen) in centroids.iter_mut().enumerate() {
                let members: Vec<usize> = (0..m).filter(|&u| assign[u] == k).collect();
                if members.is_empty() {
                    continue;
                }
                cen.fill(0.0);
                for &u in &members {
                    vector::axpy(1.0, &profiles[u], cen);
                }
                vector::scale(cen, 1.0 / members.len() as f32);
            }
        }
        self.memberships = profiles
            .iter()
            .map(|p| {
                let sims: Vec<f32> =
                    centroids.iter().map(|c| vector::cosine(p, c).max(0.0)).collect();
                let total: f32 = sims.iter().sum();
                if total > 0.0 {
                    sims.iter().map(|s| s / total).collect()
                } else {
                    vec![1.0 / c as f32; c]
                }
            })
            .collect();
        self.centroids = centroids;
        // Per-cluster weights: BPR restricted to the cluster's members
        // (weighted by membership through the sampling filter).
        let lr = self.config.learning_rate;
        let mut cluster_theta =
            vec![vec![1.0f32 / self.factors.len().max(1) as f32; self.factors.len()]; c];
        for _ in 0..self.config.weight_epochs {
            for _ in 0..ctx.train.num_interactions() {
                let Some((u, pos)) = sample_observed(ctx.train, &mut rng) else { break };
                let Some(neg) = sample_negative(ctx.train, u, &mut rng) else { continue };
                let k = assign[u.index()];
                let fp: Vec<f32> =
                    self.factors.iter().map(|f| f.predict(u.index(), pos.index())).collect();
                let fn_: Vec<f32> =
                    self.factors.iter().map(|f| f.predict(u.index(), neg.index())).collect();
                let theta = &mut cluster_theta[k];
                let x = vector::dot(theta, &fp) - vector::dot(theta, &fn_);
                let g = -vector::sigmoid(-x);
                for l in 0..theta.len() {
                    theta[l] -= lr * g * (fp[l] - fn_[l]);
                }
            }
        }
        self.cluster_theta = cluster_theta;
        Ok(())
    }

    fn score(&self, user: UserId, item: ItemId) -> f32 {
        // Eq. 18: Σ_k sim(C_k, u) Σ_l θ^k_l · û·v̂.
        let mem = &self.memberships[user.index()];
        let preds: Vec<f32> =
            self.factors.iter().map(|f| f.predict(user.index(), item.index())).collect();
        mem.iter()
            .zip(self.cluster_theta.iter())
            .map(|(&w, theta)| w * vector::dot(theta, &preds))
            .sum()
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
    fn heterec_beats_chance() {
        let synth = generate(&ScenarioConfig::tiny(), 42);
        let split = ratio_split(&synth.dataset.interactions, 0.2, 1);
        let mut m = HeteRec::default_config();
        m.fit(&TrainContext::new(&synth.dataset, &split.train)).unwrap();
        let mut rng = StdRng::seed_from_u64(5);
        let pairs = labeled_eval_set(&split.train, &split.test, 4, &mut rng);
        let rep = evaluate_ctr(&m, &pairs);
        assert!(rep.auc > 0.6, "AUC {}", rep.auc);
    }

    #[test]
    fn heterec_p_beats_chance() {
        let synth = generate(&ScenarioConfig::tiny(), 42);
        let split = ratio_split(&synth.dataset.interactions, 0.2, 1);
        let mut m = HeteRecP::default_config();
        m.fit(&TrainContext::new(&synth.dataset, &split.train)).unwrap();
        let mut rng = StdRng::seed_from_u64(6);
        let pairs = labeled_eval_set(&split.train, &split.test, 4, &mut rng);
        let rep = evaluate_ctr(&m, &pairs);
        assert!(rep.auc > 0.6, "AUC {}", rep.auc);
    }

    #[test]
    fn nmf_factors_stay_nonnegative() {
        let synth = generate(&ScenarioConfig::tiny(), 3);
        let split = ratio_split(&synth.dataset.interactions, 0.2, 1);
        let mut m = HeteRec::new(HeteRecConfig { nmf_epochs: 5, ..Default::default() });
        m.fit(&TrainContext::new(&synth.dataset, &split.train)).unwrap();
        for f in &m.factors {
            assert!(f.users.data().iter().all(|&v| v >= 0.0));
            assert!(f.items.data().iter().all(|&v| v >= 0.0));
        }
    }

    #[test]
    fn memberships_are_distributions() {
        let synth = generate(&ScenarioConfig::tiny(), 4);
        let split = ratio_split(&synth.dataset.interactions, 0.2, 1);
        let mut m =
            HeteRecP::new(HeteRecConfig { nmf_epochs: 3, weight_epochs: 2, ..Default::default() });
        m.fit(&TrainContext::new(&synth.dataset, &split.train)).unwrap();
        for mem in &m.memberships {
            let s: f32 = mem.iter().sum();
            assert!((s - 1.0).abs() < 1e-4, "sum={s}");
        }
    }

    #[test]
    fn path_weights_learned() {
        let synth = generate(&ScenarioConfig::tiny(), 7);
        let split = ratio_split(&synth.dataset.interactions, 0.2, 1);
        let mut m = HeteRec::default_config();
        m.fit(&TrainContext::new(&synth.dataset, &split.train)).unwrap();
        // 1 collaborative + 2 attribute paths for tiny.
        assert_eq!(m.theta.len(), 3);
        // Weights moved away from the uniform initialization.
        let uniform = 1.0 / 3.0;
        assert!(m.theta.iter().any(|&t| (t - uniform).abs() > 1e-4));
    }
}
