//! ProPPR-lite (Catherine & Cohen 2016): personalized recommendations
//! with probabilistic logic programming.
//!
//! ProPPR grounds logic rules ("recommend items liked by similar users",
//! "recommend items sharing attributes with liked items") into a proof
//! graph and scores by personalized PageRank over it with learned rule
//! weights. On a user–item KG the proof graph *is* the graph itself:
//! this implementation runs random-walk-with-restart from the user's
//! entity with per-relation transition weights, learned by BPR — each
//! relation weight plays the role of one rule weight.

use crate::common::{sample_observed, taxonomy_of};
use crate::pathbased::util::item_of_entity;
use kgrec_core::{CoreError, Recommender, Taxonomy, TrainContext};
use kgrec_data::dataset::UserItemGraph;
use kgrec_data::negative::sample_negative;
use kgrec_data::{ItemId, UserId};
use kgrec_linalg::{par, vector};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// ProPPR-lite hyper-parameters.
#[derive(Debug, Clone)]
pub(crate) struct ProPprConfig {
    /// Restart probability of the walk.
    pub restart: f32,
    /// Power-iteration steps.
    pub iterations: usize,
    /// Rule-weight learning epochs.
    pub weight_epochs: usize,
    /// Learning rate for the rule (relation) weights.
    pub learning_rate: f32,
    /// RNG seed.
    pub seed: u64,
}

impl Default for ProPprConfig {
    fn default() -> Self {
        Self { restart: 0.2, iterations: 8, weight_epochs: 6, learning_rate: 0.5, seed: 113 }
    }
}

/// The ProPPR-lite model.
#[derive(Debug)]
pub(crate) struct ProPpr {
    /// Hyper-parameters.
    pub config: ProPprConfig,
    /// Learned per-relation rule weights (softplus-positive parameters).
    rule_params: Vec<f32>,
    /// Cached per-user PPR mass over items (recomputed after learning).
    scores: Vec<Vec<f32>>,
    num_items: usize,
}

impl ProPpr {
    /// Creates an unfitted model.
    pub(crate) fn new(config: ProPprConfig) -> Self {
        Self { config, rule_params: Vec::new(), scores: Vec::new(), num_items: 0 }
    }

    /// Creates a model with default hyper-parameters.
    pub(crate) fn default_config() -> Self {
        Self::new(ProPprConfig::default())
    }

    /// Personalized PageRank mass over all entities from one user, using
    /// the model's own rule parameters.
    fn ppr(&self, uig: &UserItemGraph, user: UserId) -> Vec<f32> {
        self.ppr_with(uig, user, &self.rule_params)
    }

    /// [`Self::ppr`] against an explicit parameter vector — the
    /// finite-difference learner probes perturbed parameters without
    /// mutating the model, so probes for different relations can run on
    /// worker threads against a shared frozen `&self`.
    ///
    /// The softplus rule weights and each entity's total out-weight are
    /// invariant across the power iterations, so both are materialised
    /// once up front: softplus runs per *relation* instead of per edge
    /// per iteration. The per-edge update keeps the original expression
    /// shape (`((1−ρ)·m · w_r) / total`, division last), so every mass
    /// value is bit-identical to the unhoisted loop.
    fn ppr_with(&self, uig: &UserItemGraph, user: UserId, params: &[f32]) -> Vec<f32> {
        let g = &uig.graph;
        let n = g.num_entities();
        let src = uig.user_entities[user.index()].index();
        let w: Vec<f32> = params.iter().map(|&p| vector::softplus(p)).collect();
        let totals: Vec<f32> = (0..n)
            .map(|e| {
                g.rel_slice(kgrec_graph::EntityId(e as u32)).iter().map(|&r| w[r.index()]).sum()
            })
            .collect();
        let mut mass = vec![0.0f32; n];
        mass[src] = 1.0;
        let restart = self.config.restart;
        let mut next = vec![0.0f32; n];
        for _ in 0..self.config.iterations {
            next.fill(0.0);
            next[src] += restart;
            for e in 0..n {
                let m = mass[e];
                if m == 0.0 {
                    continue;
                }
                let rels = g.rel_slice(kgrec_graph::EntityId(e as u32));
                let tails = g.tail_slice(kgrec_graph::EntityId(e as u32));
                if rels.is_empty() {
                    // Dangling mass restarts.
                    next[src] += (1.0 - restart) * m;
                    continue;
                }
                let total = totals[e];
                if total <= 0.0 {
                    next[src] += (1.0 - restart) * m;
                    continue;
                }
                let s = (1.0 - restart) * m;
                for (&r, &t) in rels.iter().zip(tails.iter()) {
                    next[t.index()] += s * w[r.index()] / total;
                }
            }
            std::mem::swap(&mut mass, &mut next);
        }
        mass
    }
}

impl Recommender for ProPpr {
    fn name(&self) -> &'static str {
        "ProPPR"
    }

    fn taxonomy(&self) -> Taxonomy {
        taxonomy_of("ProPPR")
    }

    fn fit(&mut self, ctx: &TrainContext<'_>) -> Result<(), CoreError> {
        let uig = ctx.dataset.user_item_graph(ctx.train);
        let item_map = item_of_entity(&uig);
        self.num_items = ctx.num_items();
        self.rule_params = vec![0.5; uig.graph.num_relations().max(1)];
        let mut rng = StdRng::seed_from_u64(self.config.seed);
        let lr = self.config.learning_rate;
        let threads = par::resolve_threads(None);
        // Rule-weight learning: finite-difference BPR on the (few)
        // relation weights — the graph-structured objective has no cheap
        // analytic gradient, and ProPPR's own learner is also an
        // approximate gradient on walk parameters. One user PPR per
        // sampled pair keeps this tractable. Per sample, every relation's
        // probe perturbs the same frozen parameter vector (independent
        // probes → worker threads), and the updates are applied in
        // relation index order afterwards — the resulting weights are
        // identical at any thread count.
        let rels: Vec<usize> = (0..self.rule_params.len()).collect();
        for _ in 0..self.config.weight_epochs {
            for _ in 0..ctx.train.num_interactions().min(60) {
                let Some((u, pos)) = sample_observed(ctx.train, &mut rng) else { break };
                let Some(neg) = sample_negative(ctx.train, u, &mut rng) else { continue };
                let pe = uig.item_entities[pos.index()].index();
                let ne = uig.item_entities[neg.index()].index();
                let base = {
                    let m = self.ppr(&uig, u);
                    m[pe] - m[ne]
                };
                let g0 = -vector::sigmoid(-(base * 50.0)); // scaled BPR slope
                let eps = 0.1;
                let frozen: &Self = self;
                let grads = par::par_map(&rels, threads, |_, &r| {
                    let mut probe = frozen.rule_params.clone();
                    probe[r] += eps;
                    let m = frozen.ppr_with(&uig, u, &probe);
                    let plus = m[pe] - m[ne];
                    g0 * (plus - base) / eps * 50.0
                });
                for (r, grad) in grads.into_iter().enumerate() {
                    self.rule_params[r] -= lr * grad;
                }
            }
        }
        // Final scores from the learned weights: one independent PPR per
        // user, sharded across workers in user index order.
        let users: Vec<u32> = (0..ctx.num_users() as u32).collect();
        let frozen: &Self = self;
        let scores = par::par_map(&users, threads, |_, &u| {
            let mass = frozen.ppr(&uig, UserId(u));
            let mut out = vec![0.0f32; ctx.num_items()];
            for (e, &m) in mass.iter().enumerate() {
                if let Some(it) = item_map[e] {
                    out[it.index()] = m;
                }
            }
            out
        });
        self.scores = scores;
        Ok(())
    }

    fn score(&self, user: UserId, item: ItemId) -> f32 {
        self.scores[user.index()][item.index()]
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
        let mut m = ProPpr::default_config();
        m.fit(&TrainContext::new(&synth.dataset, &split.train)).unwrap();
        let mut rng = StdRng::seed_from_u64(5);
        let pairs = labeled_eval_set(&split.train, &split.test, 4, &mut rng);
        let rep = evaluate_ctr(&m, &pairs);
        assert!(rep.auc > 0.6, "AUC {}", rep.auc);
    }

    #[test]
    fn ppr_mass_is_a_distribution() {
        let synth = generate(&ScenarioConfig::tiny(), 3);
        let split = ratio_split(&synth.dataset.interactions, 0.2, 1);
        let mut m = ProPpr::new(ProPprConfig { weight_epochs: 0, ..Default::default() });
        m.fit(&TrainContext::new(&synth.dataset, &split.train)).unwrap();
        let uig = synth.dataset.user_item_graph(&split.train);
        let mass = m.ppr(&uig, UserId(0));
        let total: f32 = mass.iter().sum();
        assert!((total - 1.0).abs() < 1e-3, "total={total}");
        assert!(mass.iter().all(|&x| x >= 0.0));
    }

    #[test]
    fn rule_weights_stay_positive() {
        let synth = generate(&ScenarioConfig::tiny(), 4);
        let split = ratio_split(&synth.dataset.interactions, 0.2, 1);
        let mut m = ProPpr::new(ProPprConfig { weight_epochs: 2, ..Default::default() });
        m.fit(&TrainContext::new(&synth.dataset, &split.train)).unwrap();
        assert!(m.rule_params.iter().all(|&p| vector::softplus(p) > 0.0));
    }
}
