//! SemRec (Shi et al. 2015): semantic-path user-based recommendation on
//! a weighted HIN.
//!
//! Scores propagate from similar users: `ŷ(u, i) = Σ_l θ_l · Σ_{u'}
//! s^l(u,u')·R(u',i) / Σ_{u'} s^l(u,u')`, where `s^l` is the PathSim
//! user–user similarity under meta-path `l`, and `R(u',i)` is the
//! neighbor's feedback value — the explicit rating when present (the
//! weighted-link formulation of the paper), else 1. Path weights `θ` are
//! learned with BPR.

use crate::common::{sample_observed, taxonomy_of};
use kgrec_core::{CoreError, Recommender, Taxonomy, TrainContext};
use kgrec_data::negative::sample_negative;
use kgrec_data::{InteractionMatrix, ItemId, UserId};
use kgrec_graph::pathsim::{pathsim_matrix, SimilarityMatrix};
use kgrec_graph::MetaPath;
use kgrec_linalg::vector;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// SemRec hyper-parameters.
#[derive(Debug, Clone)]
pub(crate) struct SemRecConfig {
    /// Weight-learning epochs.
    pub weight_epochs: usize,
    /// Learning rate for `θ`.
    pub learning_rate: f32,
    /// Neighbors per user kept per meta-path.
    pub max_neighbors: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for SemRecConfig {
    fn default() -> Self {
        Self { weight_epochs: 15, learning_rate: 0.1, max_neighbors: 30, seed: 61 }
    }
}

/// The SemRec model.
#[derive(Debug)]
pub(crate) struct SemRec {
    /// Hyper-parameters.
    pub config: SemRecConfig,
    /// Per-path truncated user–user similarity.
    user_sims: Vec<SimilarityMatrix>,
    theta: Vec<f32>,
    train: Option<InteractionMatrix>,
}

impl SemRec {
    /// Creates an unfitted model.
    pub(crate) fn new(config: SemRecConfig) -> Self {
        Self { config, user_sims: Vec::new(), theta: Vec::new(), train: None }
    }

    /// Creates a model with default hyper-parameters.
    pub(crate) fn default_config() -> Self {
        Self::new(SemRecConfig::default())
    }

    /// Path-`l` score component for `(user, item)`.
    fn path_score(&self, l: usize, user: UserId, item: ItemId) -> f32 {
        let train = self.train.as_ref().expect("SemRec: fit before score");
        let sim = &self.user_sims[l];
        let mut num = 0.0f32;
        let mut den = 0.0f32;
        for &(u2, s) in sim.row(user.index()) {
            den += s;
            let neighbor = UserId(u2);
            if train.contains(neighbor, item) {
                // Weighted HIN: use the rating value when available.
                let items = train.items_of(neighbor);
                let idx = items.binary_search(&item).expect("contains checked");
                let r = train.ratings_of(neighbor)[idx];
                // Workspace convention (`kgrec_linalg::vector::finite_or`):
                // NaN marks an implicit interaction, so any non-finite
                // feedback — the sentinel itself or a corrupted rating —
                // degrades to the unweighted link value 1.
                num += s * vector::finite_or(r / 5.0, 1.0);
            }
        }
        if den > 0.0 {
            num / den
        } else {
            0.0
        }
    }
}

impl Recommender for SemRec {
    fn name(&self) -> &'static str {
        "SemRec"
    }

    fn taxonomy(&self) -> Taxonomy {
        taxonomy_of("SemRec")
    }

    fn fit(&mut self, ctx: &TrainContext<'_>) -> Result<(), CoreError> {
        let uig = ctx.dataset.user_item_graph(ctx.train);
        let g = &uig.graph;
        // User–user meta-paths: collaborative U-I-U, and U-I-A-I-U per
        // attribute relation.
        let mut metapaths = vec![MetaPath::new(vec![uig.interact, uig.interact_inv])];
        for r in crate::pathbased::util::item_kg_base_relations(&uig) {
            let name = g.relation_name(r);
            if let Some(inv) = g.relation_by_name(&format!("{name}_inv")) {
                metapaths.push(MetaPath::new(vec![uig.interact, r, inv, uig.interact_inv]));
            }
        }
        self.user_sims = metapaths
            .iter()
            .map(|mp| {
                let mut m = pathsim_matrix(g, &uig.user_entities, mp);
                m.truncate_rows(self.config.max_neighbors);
                m
            })
            .collect();
        self.train = Some(ctx.train.clone());
        // Learn θ with BPR on the path scores.
        let mut rng = StdRng::seed_from_u64(self.config.seed);
        let l_count = self.user_sims.len();
        self.theta = vec![1.0 / l_count.max(1) as f32; l_count];
        let lr = self.config.learning_rate;
        for _ in 0..self.config.weight_epochs {
            for _ in 0..ctx.train.num_interactions().min(500) {
                let Some((u, pos)) = sample_observed(ctx.train, &mut rng) else { break };
                let Some(neg) = sample_negative(ctx.train, u, &mut rng) else { continue };
                let fp: Vec<f32> = (0..l_count).map(|l| self.path_score(l, u, pos)).collect();
                let fn_: Vec<f32> = (0..l_count).map(|l| self.path_score(l, u, neg)).collect();
                let x = vector::dot(&self.theta, &fp) - vector::dot(&self.theta, &fn_);
                let grad = -vector::sigmoid(-x);
                for l in 0..l_count {
                    self.theta[l] -= lr * grad * (fp[l] - fn_[l]);
                }
            }
        }
        Ok(())
    }

    fn score(&self, user: UserId, item: ItemId) -> f32 {
        (0..self.user_sims.len()).map(|l| self.theta[l] * self.path_score(l, user, item)).sum()
    }

    fn num_items(&self) -> usize {
        self.train.as_ref().map_or(0, kgrec_data::InteractionMatrix::num_items)
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
        let mut m = SemRec::default_config();
        m.fit(&TrainContext::new(&synth.dataset, &split.train)).unwrap();
        let mut rng = StdRng::seed_from_u64(5);
        let pairs = labeled_eval_set(&split.train, &split.test, 4, &mut rng);
        let rep = evaluate_ctr(&m, &pairs);
        assert!(rep.auc > 0.6, "AUC {}", rep.auc);
    }

    #[test]
    fn path_scores_bounded() {
        let synth = generate(&ScenarioConfig::tiny(), 3);
        let split = ratio_split(&synth.dataset.interactions, 0.2, 1);
        let mut m = SemRec::default_config();
        m.fit(&TrainContext::new(&synth.dataset, &split.train)).unwrap();
        for l in 0..m.user_sims.len() {
            for u in 0..5u32 {
                for i in 0..5u32 {
                    let s = m.path_score(l, UserId(u), ItemId(i));
                    assert!((0.0..=1.0).contains(&s), "s={s}");
                }
            }
        }
    }

    #[test]
    fn isolated_user_scores_zero() {
        let synth = generate(&ScenarioConfig::tiny(), 4);
        // Remove user 0's history entirely.
        let filtered: Vec<_> = synth
            .dataset
            .interactions
            .iter()
            .filter(|(u, _, _)| u.0 != 0)
            .map(|(u, i, _)| kgrec_data::Interaction::implicit(u, i))
            .collect();
        let train = InteractionMatrix::from_interactions(
            synth.dataset.interactions.num_users(),
            synth.dataset.interactions.num_items(),
            &filtered,
        );
        let mut m = SemRec::default_config();
        m.fit(&TrainContext::new(&synth.dataset, &train)).unwrap();
        // No interactions → no meta-path connectivity → zero score.
        assert_eq!(m.score(UserId(0), ItemId(0)), 0.0);
    }

    #[test]
    fn weights_sum_near_reasonable_range() {
        let synth = generate(&ScenarioConfig::tiny(), 6);
        let split = ratio_split(&synth.dataset.interactions, 0.2, 1);
        let mut m = SemRec::default_config();
        m.fit(&TrainContext::new(&synth.dataset, &split.train)).unwrap();
        assert_eq!(m.theta.len(), 3); // U-I-U + two attribute paths
        assert!(m.theta.iter().all(|t| t.is_finite()));
    }
}
