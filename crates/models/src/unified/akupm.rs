//! AKUPM-lite (Tang et al. 2019): attention-enhanced knowledge-aware
//! user preference modeling.
//!
//! Like RippleNet, the user is modeled from the multi-hop ripple sets of
//! their click history; AKUPM's distinguishing ingredients are (a)
//! TransR-pretrained entity representations and (b) *self-attention* over
//! the ripple tails — here a candidate-conditioned bilinear attention
//! `p_i = softmax(t_iᵀ·W·v)` — aggregated per hop and summed into the
//! user vector. Scored with `σ(uᵀv)` and trained end-to-end (entities,
//! `W`) with hand-derived gradients.

use crate::common::{sample_observed, taxonomy_of};
use kgrec_core::{CoreError, Recommender, Taxonomy, TrainContext};
use kgrec_data::negative::sample_negative;
use kgrec_data::{ItemId, UserId};
use kgrec_graph::ripple::{ripple_sets, RippleSets};
use kgrec_graph::EntityId;
use kgrec_kge::{train as kge_train, TrainConfig, TransR};
use kgrec_linalg::{vector, EmbeddingTable, Matrix};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// AKUPM-lite hyper-parameters.
#[derive(Debug, Clone)]
pub struct AkupmLiteConfig {
    /// Embedding dimension.
    pub dim: usize,
    /// Hops.
    pub hops: usize,
    /// Ripple memories per hop.
    pub memories_per_hop: usize,
    /// TransR pre-training epochs.
    pub kge_epochs: usize,
    /// Training epochs.
    pub epochs: usize,
    /// Learning rate.
    pub learning_rate: f32,
    /// RNG seed.
    pub seed: u64,
}

impl Default for AkupmLiteConfig {
    fn default() -> Self {
        Self {
            dim: 16,
            hops: 2,
            memories_per_hop: 16,
            kge_epochs: 10,
            epochs: 15,
            learning_rate: 0.03,
            seed: 101,
        }
    }
}

/// The AKUPM-lite model.
#[derive(Debug)]
pub struct AkupmLite {
    /// Hyper-parameters.
    pub config: AkupmLiteConfig,
    entities: EmbeddingTable,
    attention: Matrix,
    ripples: Vec<RippleSets>,
    alignment: Vec<EntityId>,
}

impl AkupmLite {
    /// Creates an unfitted model.
    pub fn new(config: AkupmLiteConfig) -> Self {
        Self {
            config,
            entities: EmbeddingTable::zeros(0, 1),
            attention: Matrix::zeros(0, 0),
            ripples: Vec::new(),
            alignment: Vec::new(),
        }
    }

    /// Creates a model with default hyper-parameters.
    pub(crate) fn default_config() -> Self {
        Self::new(AkupmLiteConfig::default())
    }

    /// Forward: user vector and score for a candidate.
    /// Returns `(z, per-hop attention, user_vec, Wv)`.
    fn forward(&self, user: UserId, item: ItemId) -> (f32, Vec<Vec<f32>>, Vec<f32>, Vec<f32>) {
        let d = self.config.dim;
        let v = self.entities.row(self.alignment[item.index()].index()).to_vec();
        let wv = self.attention.matvec(&v);
        let sets = &self.ripples[user.index()];
        let mut user_vec = vec![0.0f32; d];
        let mut probs = Vec::with_capacity(self.config.hops);
        for k in 0..self.config.hops {
            let hop = sets.hop(k);
            if hop.is_empty() {
                probs.push(Vec::new());
                continue;
            }
            let mut scores: Vec<f32> =
                hop.iter().map(|t| vector::dot(self.entities.row(t.tail.index()), &wv)).collect();
            vector::softmax_in_place(&mut scores);
            for (p, t) in scores.iter().zip(hop.iter()) {
                vector::axpy(*p, self.entities.row(t.tail.index()), &mut user_vec);
            }
            probs.push(scores);
        }
        let z = vector::dot(&user_vec, &v);
        (z, probs, user_vec, wv)
    }

    /// One BCE SGD step.
    fn step(&mut self, user: UserId, item: ItemId, label: f32, lr: f32) {
        let (z, probs, user_vec, wv) = self.forward(user, item);
        let dz = vector::sigmoid(z) - label;
        let item_ent = self.alignment[item.index()];
        let v = self.entities.row(item_ent.index()).to_vec();
        let sets = self.ripples[user.index()].clone();
        // dL/du = dz·v ; dL/dv gets dz·u plus attention terms.
        let du: Vec<f32> = v.iter().map(|x| dz * x).collect();
        let mut dv: Vec<f32> = user_vec.iter().map(|x| dz * x).collect();
        let mut dwv = vec![0.0f32; v.len()];
        for k in 0..self.config.hops {
            let hop = sets.hop(k);
            if hop.is_empty() {
                continue;
            }
            let p = &probs[k];
            // u += Σ p_i t_i: dL/dp_i = du·t_i; dL/dt_i += p_i·du.
            let mut dl_dp = Vec::with_capacity(hop.len());
            for (i, t) in hop.iter().enumerate() {
                dl_dp.push(vector::dot(&du, self.entities.row(t.tail.index())));
                let scaled: Vec<f32> = du.iter().map(|x| p[i] * x).collect();
                self.entities.add_to_row(t.tail.index(), -lr, &scaled);
            }
            let ds = vector::softmax_backward(p, &dl_dp);
            // s_i = t_iᵀ (W v): ∂/∂t = Wv; ∂/∂(Wv) = t.
            for (i, t) in hop.iter().enumerate() {
                let scaled: Vec<f32> = wv.iter().map(|x| ds[i] * x).collect();
                self.entities.add_to_row(t.tail.index(), -lr, &scaled);
                vector::axpy(ds[i], self.entities.row(t.tail.index()), &mut dwv);
            }
        }
        // Wv chain: dL/dW = dwv·vᵀ ; dL/dv += Wᵀ·dwv.
        let dv_att = self.attention.matvec_t(&dwv);
        vector::axpy(1.0, &dv_att, &mut dv);
        self.attention.rank1_update(-lr, &dwv, &v);
        self.entities.add_to_row(item_ent.index(), -lr, &dv);
        // Norm constraints: entities stay in the unit ball (the TransR
        // invariant they were initialized under) and the attention
        // matrix's Frobenius norm stays bounded — without these the
        // mutually-reinforcing updates diverge on larger datasets.
        vector::project_to_ball(self.entities.row_mut(item_ent.index()), 1.0);
        for t in sets.all_triples() {
            vector::project_to_ball(self.entities.row_mut(t.tail.index()), 1.0);
        }
        let bound = 2.0 * (self.attention.rows() as f32).sqrt();
        let norm = self.attention.frobenius_norm();
        if norm > bound {
            let ratio = bound / norm;
            for x in self.attention.data_mut().iter_mut() {
                *x *= ratio;
            }
        }
    }
}

impl Recommender for AkupmLite {
    fn name(&self) -> &'static str {
        "AKUPM"
    }

    fn taxonomy(&self) -> Taxonomy {
        taxonomy_of("AKUPM")
    }

    fn prepare_retry(&mut self, attempt: u32) -> bool {
        self.config.learning_rate *= 0.5;
        self.config.seed = self.config.seed.wrapping_add(u64::from(attempt)).wrapping_mul(31);
        true
    }

    fn fit(&mut self, ctx: &TrainContext<'_>) -> Result<(), CoreError> {
        let mut rng = StdRng::seed_from_u64(self.config.seed);
        let d = self.config.dim;
        let graph = &ctx.dataset.graph;
        // TransR pre-training for the entity representations.
        let mut kge =
            TransR::new(&mut rng, graph.num_entities(), graph.num_relations().max(1), d, d, 1.0);
        if graph.num_triples() > 0 {
            kge_train(
                &mut kge,
                graph,
                &TrainConfig {
                    epochs: self.config.kge_epochs,
                    learning_rate: 0.03,
                    seed: self.config.seed.wrapping_add(1),
                    threads: None,
                },
            );
        }
        self.entities = kge.entities().clone();
        self.attention = Matrix::identity(d);
        self.alignment = ctx.dataset.item_entities.clone();
        self.ripples = (0..ctx.num_users())
            .map(|u| {
                let seeds: Vec<EntityId> = ctx
                    .train
                    .items_of(UserId(u as u32))
                    .iter()
                    .map(|&i| self.alignment[i.index()])
                    .collect();
                ripple_sets(
                    graph,
                    &seeds,
                    self.config.hops,
                    self.config.memories_per_hop,
                    true,
                    &mut rng,
                )
            })
            .collect();
        let lr = self.config.learning_rate;
        for _ in 0..self.config.epochs {
            for _ in 0..ctx.train.num_interactions() {
                let Some((u, pos)) = sample_observed(ctx.train, &mut rng) else { break };
                self.step(u, pos, 1.0, lr);
                if let Some(neg) = sample_negative(ctx.train, u, &mut rng) {
                    self.step(u, neg, 0.0, lr);
                }
            }
        }
        Ok(())
    }

    fn score(&self, user: UserId, item: ItemId) -> f32 {
        self.forward(user, item).0
    }

    fn num_items(&self) -> usize {
        self.alignment.len()
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
        let mut m = AkupmLite::default_config();
        m.fit(&TrainContext::new(&synth.dataset, &split.train)).unwrap();
        let mut rng = StdRng::seed_from_u64(5);
        let pairs = labeled_eval_set(&split.train, &split.test, 4, &mut rng);
        let rep = evaluate_ctr(&m, &pairs);
        assert!(rep.auc > 0.6, "AUC {}", rep.auc);
    }

    #[test]
    fn attention_per_hop_is_distribution() {
        let synth = generate(&ScenarioConfig::tiny(), 3);
        let split = ratio_split(&synth.dataset.interactions, 0.2, 1);
        let mut m = AkupmLite::new(AkupmLiteConfig { epochs: 1, ..Default::default() });
        m.fit(&TrainContext::new(&synth.dataset, &split.train)).unwrap();
        let (_, probs, _, _) = m.forward(UserId(0), ItemId(0));
        for p in &probs {
            if !p.is_empty() {
                let s: f32 = p.iter().sum();
                assert!((s - 1.0).abs() < 1e-4);
            }
        }
    }

    #[test]
    fn entities_initialized_from_transr() {
        // With zero training epochs the entity table must equal the
        // TransR pre-trained table (not a fresh random one).
        let synth = generate(&ScenarioConfig::tiny(), 4);
        let split = ratio_split(&synth.dataset.interactions, 0.2, 1);
        let mut m = AkupmLite::new(AkupmLiteConfig { epochs: 0, ..Default::default() });
        m.fit(&TrainContext::new(&synth.dataset, &split.train)).unwrap();
        // TransR rows are ball-projected; sanity-check the invariant.
        for i in 0..m.entities.len() {
            assert!(vector::norm(m.entities.row(i)) <= 1.0 + 1e-4);
        }
    }
}
