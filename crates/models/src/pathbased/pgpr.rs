//! PGPR-lite (Xian et al. 2019): policy-guided path reasoning.
//!
//! Recommendation as a Markov decision process on the user–item graph: an
//! agent starts at the user's entity, walks `T` hops, and is rewarded
//! when it lands on an item the scoring function likes. The policy is a
//! bilinear scorer `π(a=(r,e') | u) ∝ exp(e'ᵀ·M·u + b_r)` over the
//! current entity's out-edges, trained with REINFORCE; entity embeddings
//! come from a frozen TransE pre-trained on the same graph (the paper
//! likewise scores rewards with a pre-trained KGE). Recommendations are
//! read off the visit×reward statistics of post-training rollouts, and
//! each recommended item carries the **reasoning path** the agent
//! followed — PGPR's headline feature.

use crate::common::taxonomy_of;
use kgrec_core::{CoreError, Recommender, Taxonomy, TrainContext};
use kgrec_data::{ItemId, UserId};
use kgrec_graph::paths::Path;
use kgrec_graph::{EntityId, RelationId};
use kgrec_kge::{train as kge_train, KgeModel, TrainConfig, TransE};
use kgrec_linalg::{vector, Matrix};
use rand::rngs::StdRng;
use rand::Rng;
use rand::SeedableRng;

/// PGPR-lite hyper-parameters.
#[derive(Debug, Clone)]
pub(crate) struct PgprLiteConfig {
    /// TransE embedding dimension.
    pub dim: usize,
    /// Rollout horizon `T`.
    pub horizon: usize,
    /// Training episodes per user.
    pub episodes_per_user: usize,
    /// Evaluation rollouts per user (builds the score table).
    pub eval_rollouts: usize,
    /// Policy learning rate.
    pub learning_rate: f32,
    /// TransE pre-training epochs.
    pub kge_epochs: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for PgprLiteConfig {
    fn default() -> Self {
        Self {
            dim: 16,
            horizon: 3,
            episodes_per_user: 30,
            eval_rollouts: 60,
            learning_rate: 0.01,
            kge_epochs: 20,
            seed: 73,
        }
    }
}

/// The PGPR-lite model.
#[derive(Debug)]
pub(crate) struct PgprLite {
    /// Hyper-parameters.
    pub config: PgprLiteConfig,
    /// Dense per-user item scores from evaluation rollouts.
    scores: Vec<Vec<f32>>,
    /// Best reasoning path found per (user, item).
    best_paths: Vec<Vec<Option<Path>>>,
    num_items: usize,
}

struct PolicyState {
    kge: TransE,
    m: Matrix,
    rel_bias: Vec<f32>,
}

impl PolicyState {
    /// Unnormalized action scores for the out-edges of `cur`.
    fn action_scores(&self, user_vec: &[f32], actions: &[(RelationId, EntityId)]) -> Vec<f32> {
        let mu = self.m.matvec(user_vec);
        actions
            .iter()
            .map(|&(r, e)| {
                vector::dot(self.kge.entities().row(e.index()), &mu) + self.rel_bias[r.index()]
            })
            .collect()
    }
}

impl PgprLite {
    /// Creates an unfitted model.
    pub(crate) fn new(config: PgprLiteConfig) -> Self {
        Self { config, scores: Vec::new(), best_paths: Vec::new(), num_items: 0 }
    }

    /// Creates a model with default hyper-parameters.
    pub(crate) fn default_config() -> Self {
        Self::new(PgprLiteConfig::default())
    }
}

impl Recommender for PgprLite {
    fn name(&self) -> &'static str {
        "PGPR"
    }

    fn taxonomy(&self) -> Taxonomy {
        taxonomy_of("PGPR")
    }

    fn prepare_retry(&mut self, attempt: u32) -> bool {
        self.config.learning_rate *= 0.5;
        self.config.seed = self.config.seed.wrapping_add(u64::from(attempt)).wrapping_mul(31);
        true
    }

    fn fit(&mut self, ctx: &TrainContext<'_>) -> Result<(), CoreError> {
        let mut rng = StdRng::seed_from_u64(self.config.seed);
        let uig = ctx.dataset.user_item_graph(ctx.train);
        let g = &uig.graph;
        self.num_items = ctx.num_items();
        // Frozen KGE backbone.
        let mut kge =
            TransE::new(&mut rng, g.num_entities(), g.num_relations().max(1), self.config.dim, 1.0);
        kge_train(
            &mut kge,
            g,
            &TrainConfig {
                epochs: self.config.kge_epochs,
                learning_rate: 0.05,
                seed: self.config.seed.wrapping_add(1),
                threads: None,
            },
        );
        let mut policy = PolicyState {
            kge,
            m: Matrix::identity(self.config.dim),
            rel_bias: vec![0.0; g.num_relations().max(1)],
        };
        let item_map = crate::pathbased::util::item_of_entity(&uig);
        let lr = self.config.learning_rate;
        let horizon = self.config.horizon;
        // Reward: TransE plausibility of (user, interact, item), squashed.
        let reward_of = |policy: &PolicyState, u: usize, item_ent: EntityId| -> f32 {
            vector::sigmoid(policy.kge.score(uig.user_entities[u], uig.interact, item_ent) + 2.0)
        };
        // --- REINFORCE training ---
        for u in 0..ctx.num_users() {
            let user_vec = policy.kge.entities().row(uig.user_entities[u].index()).to_vec();
            for _ in 0..self.config.episodes_per_user {
                // Rollout, recording (actions, chosen index, probs).
                let mut cur = uig.user_entities[u];
                // Trajectory record: (available actions, chosen index,
                // action probabilities) per step.
                type Step = (Vec<(RelationId, EntityId)>, usize, Vec<f32>);
                let mut steps: Vec<Step> = Vec::new();
                for _ in 0..horizon {
                    let actions: Vec<(RelationId, EntityId)> = g
                        .rel_slice(cur)
                        .iter()
                        .copied()
                        .zip(g.tail_slice(cur).iter().copied())
                        .collect();
                    if actions.is_empty() {
                        break;
                    }
                    let mut probs = policy.action_scores(&user_vec, &actions);
                    vector::softmax_in_place(&mut probs);
                    // Sample.
                    let mut pick = 0usize;
                    let mut target = rng.gen::<f32>();
                    for (i, &p) in probs.iter().enumerate() {
                        target -= p;
                        pick = i;
                        if target <= 0.0 {
                            break;
                        }
                    }
                    cur = actions[pick].1;
                    steps.push((actions, pick, probs));
                }
                // Terminal reward only when landing on an item not in the
                // user's history (novel recommendation).
                let reward = match item_map[cur.index()] {
                    Some(item) if !ctx.train.contains(UserId(u as u32), item) => {
                        reward_of(&policy, u, cur)
                    }
                    Some(_) => 0.2, // revisiting history: small shaping reward
                    None => 0.0,
                };
                if reward == 0.0 {
                    continue;
                }
                // Policy gradient: ∇ log π(a) = (1[a] − π)·∇scores.
                let mu = policy.m.matvec(&user_vec);
                let _ = mu;
                for (actions, pick, probs) in &steps {
                    for (i, &(r, e)) in actions.iter().enumerate() {
                        let coeff = (if i == *pick { 1.0 } else { 0.0 }) - probs[i];
                        // score = e'ᵀ M u + b_r → dscore/dM = e' uᵀ.
                        let ev = policy.kge.entities().row(e.index()).to_vec();
                        policy.m.rank1_update(lr * reward * coeff, &ev, &user_vec);
                        policy.rel_bias[r.index()] += lr * reward * coeff;
                    }
                }
            }
        }
        // --- Evaluation rollouts: build score table and best paths ---
        let mut scores = vec![vec![0.0f32; ctx.num_items()]; ctx.num_users()];
        let mut best_paths: Vec<Vec<Option<Path>>> =
            vec![vec![None; ctx.num_items()]; ctx.num_users()];
        for u in 0..ctx.num_users() {
            let user_vec = policy.kge.entities().row(uig.user_entities[u].index()).to_vec();
            for _ in 0..self.config.eval_rollouts {
                let mut cur = uig.user_entities[u];
                let mut ents = vec![cur];
                let mut rels: Vec<RelationId> = Vec::new();
                for _ in 0..horizon {
                    let actions: Vec<(RelationId, EntityId)> = g
                        .rel_slice(cur)
                        .iter()
                        .copied()
                        .zip(g.tail_slice(cur).iter().copied())
                        .collect();
                    if actions.is_empty() {
                        break;
                    }
                    let mut probs = policy.action_scores(&user_vec, &actions);
                    vector::softmax_in_place(&mut probs);
                    let mut pick = 0usize;
                    let mut target = rng.gen::<f32>();
                    for (i, &p) in probs.iter().enumerate() {
                        target -= p;
                        pick = i;
                        if target <= 0.0 {
                            break;
                        }
                    }
                    cur = actions[pick].1;
                    ents.push(cur);
                    rels.push(actions[pick].0);
                    if let Some(item) = item_map[cur.index()] {
                        let r = reward_of(&policy, u, cur);
                        scores[u][item.index()] += r;
                        let slot = &mut best_paths[u][item.index()];
                        if slot.is_none() {
                            *slot = Some(Path { entities: ents.clone(), relations: rels.clone() });
                        }
                    }
                }
            }
        }
        self.scores = scores;
        self.best_paths = best_paths;
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
    use kgrec_core::protocol::evaluate_topk;
    use kgrec_data::split::ratio_split;
    use kgrec_data::synth::{generate, ScenarioConfig};

    #[test]
    fn finds_test_items_better_than_nothing() {
        let synth = generate(&ScenarioConfig::tiny(), 42);
        let split = ratio_split(&synth.dataset.interactions, 0.2, 1);
        let mut m = PgprLite::default_config();
        m.fit(&TrainContext::new(&synth.dataset, &split.train)).unwrap();
        let rep = evaluate_topk(&m, &split.train, &split.test, &[10]);
        // PGPR only scores reached items; on the tiny planted data the
        // policy must still do clearly better than the 10/60 ≈ 0.17
        // random hit-rate baseline.
        assert!(rep.cutoffs[0].hit_rate > 0.25, "hit rate {}", rep.cutoffs[0].hit_rate);
    }

    #[test]
    fn reasoning_paths_start_at_user_end_at_item() {
        let synth = generate(&ScenarioConfig::tiny(), 1);
        let split = ratio_split(&synth.dataset.interactions, 0.2, 1);
        let mut m = PgprLite::new(PgprLiteConfig {
            episodes_per_user: 5,
            eval_rollouts: 20,
            ..Default::default()
        });
        m.fit(&TrainContext::new(&synth.dataset, &split.train)).unwrap();
        let mut found = false;
        for u in 0..synth.dataset.interactions.num_users() {
            for i in 0..synth.dataset.interactions.num_items() {
                if let Some(p) = m.best_paths[u][i].as_ref() {
                    found = true;
                    assert!(!p.is_empty() && p.len() <= m.config.horizon);
                }
            }
        }
        assert!(found, "at least one reasoning path must be recorded");
    }

    #[test]
    fn scores_nonnegative_and_bounded_by_rollouts() {
        let synth = generate(&ScenarioConfig::tiny(), 2);
        let split = ratio_split(&synth.dataset.interactions, 0.2, 1);
        let mut m = PgprLite::new(PgprLiteConfig {
            episodes_per_user: 2,
            eval_rollouts: 10,
            ..Default::default()
        });
        m.fit(&TrainContext::new(&synth.dataset, &split.train)).unwrap();
        for u in 0..synth.dataset.interactions.num_users() as u32 {
            for i in 0..synth.dataset.interactions.num_items() as u32 {
                let s = m.score(UserId(u), ItemId(i));
                assert!(s >= 0.0);
                // Each rollout can add at most `horizon` rewards ≤ 1.
                assert!(s <= (m.config.eval_rollouts * m.config.horizon) as f32);
            }
        }
    }
}
