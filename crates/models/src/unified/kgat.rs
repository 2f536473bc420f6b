//! KGAT (Wang et al. 2019): knowledge graph attention network.
//!
//! Users, items and attributes live in one *collaborative knowledge
//! graph*. A TransR model trained on that graph provides both the initial
//! entity embeddings and the attentive edge coefficients
//! `α(h,r,t) ∝ (M_r·t)ᵀ·tanh(M_r·h + r)`; one bi-interaction embedding-
//! propagation layer (survey Eq. 34) refines every entity, the final
//! representation is the layer concatenation `e* = e⁰ ⊕ e¹`, and the BPR
//! loss trains the whole CF side. Training alternates the TransR (KG)
//! pass and the CF pass, as in the paper.
//!
//! Simplifications: one propagation layer (the paper sweeps 1–3) and
//! `tanh` in place of LeakyReLU; attention coefficients are treated as
//! constants inside the CF backward pass (they are refreshed from TransR
//! every epoch).

use crate::common::{sample_observed, taxonomy_of};
use kgrec_core::{CoreError, Recommender, Taxonomy, TrainContext};
use kgrec_data::negative::sample_negative;
use kgrec_data::{ItemId, UserId};
use kgrec_graph::{EntityId, KnowledgeGraph};
use kgrec_kge::trainer::corrupt;
use kgrec_kge::{KgeModel, TransR};
use kgrec_linalg::{vector, EmbeddingTable, Matrix};
use rand::rngs::StdRng;
use rand::Rng;
use rand::SeedableRng;

/// KGAT hyper-parameters.
#[derive(Debug, Clone)]
pub struct KgatConfig {
    /// Embedding dimension.
    pub dim: usize,
    /// Training epochs.
    pub epochs: usize,
    /// CF learning rate.
    pub learning_rate: f32,
    /// KG (TransR) learning rate.
    pub kg_learning_rate: f32,
    /// L2 regularization.
    pub l2: f32,
    /// RNG seed.
    pub seed: u64,
}

impl Default for KgatConfig {
    fn default() -> Self {
        Self {
            dim: 16,
            epochs: 15,
            learning_rate: 0.05,
            kg_learning_rate: 0.02,
            l2: 1e-5,
            seed: 97,
        }
    }
}

/// The KGAT model.
#[derive(Debug)]
pub(crate) struct Kgat {
    /// Hyper-parameters.
    pub config: KgatConfig,
    /// Base entity embeddings `e⁰` (the CF-trainable copy).
    base: EmbeddingTable,
    /// Propagated embeddings `e¹`, refreshed by `propagate`.
    layer1: EmbeddingTable,
    w1: Matrix,
    w2: Matrix,
    /// Per-entity attention-normalized neighbor lists.
    att_edges: Vec<Vec<(u32, f32)>>,
    user_entities: Vec<EntityId>,
    item_entities: Vec<EntityId>,
}

impl Kgat {
    /// Creates an unfitted model.
    pub(crate) fn new(config: KgatConfig) -> Self {
        Self {
            config,
            base: EmbeddingTable::zeros(0, 1),
            layer1: EmbeddingTable::zeros(0, 1),
            w1: Matrix::zeros(0, 0),
            w2: Matrix::zeros(0, 0),
            att_edges: Vec::new(),
            user_entities: Vec::new(),
            item_entities: Vec::new(),
        }
    }

    /// Creates a model with default hyper-parameters.
    pub(crate) fn default_config() -> Self {
        Self::new(KgatConfig::default())
    }

    /// Recomputes the attention coefficients from the current TransR
    /// parameters: `α(h,r,t) ∝ exp((M_r·t)ᵀ tanh(M_r·h + r))`, normalized
    /// over each head's out-edges.
    fn refresh_attention(&mut self, graph: &KnowledgeGraph, kge: &TransR) {
        let n = graph.num_entities();
        let mut edges: Vec<Vec<(u32, f32)>> = Vec::with_capacity(n);
        for h in 0..n as u32 {
            let head = EntityId(h);
            let rels = graph.rel_slice(head);
            let tails = graph.tail_slice(head);
            if rels.is_empty() {
                edges.push(Vec::new());
                continue;
            }
            let mut scores: Vec<f32> = rels
                .iter()
                .zip(tails.iter())
                .map(|(&r, &t)| {
                    let m = kge.projection(r);
                    let mut mh = m.matvec(kge.entity_embedding(head));
                    vector::axpy(1.0, kge.relation_embedding(r), &mut mh);
                    mh.iter_mut().for_each(|x| *x = x.tanh());
                    let mt = m.matvec(kge.entity_embedding(t));
                    vector::dot(&mt, &mh)
                })
                .collect();
            vector::softmax_in_place(&mut scores);
            edges.push(tails.iter().zip(scores.iter()).map(|(&t, &a)| (t.0, a)).collect());
        }
        self.att_edges = edges;
    }

    /// Full-graph propagation: `e¹_i = tanh(W₁(e⁰_i + ê_i)) +
    /// tanh(W₂(e⁰_i ⊙ ê_i))` with `ê_i = Σ α·e⁰_t` (Eq. 34,
    /// bi-interaction aggregator).
    fn propagate(&mut self) {
        let n = self.base.len();
        let d = self.base.dim();
        let mut out = EmbeddingTable::zeros(n, d);
        for i in 0..n {
            let mut agg = vec![0.0f32; d];
            for &(t, a) in &self.att_edges[i] {
                vector::axpy(a, self.base.row(t as usize), &mut agg);
            }
            let e0 = self.base.row(i);
            let sum = vector::add(e0, &agg);
            let had = vector::hadamard(e0, &agg);
            let mut p1 = self.w1.matvec(&sum);
            p1.iter_mut().for_each(|x| *x = x.tanh());
            let mut p2 = self.w2.matvec(&had);
            p2.iter_mut().for_each(|x| *x = x.tanh());
            let row = out.row_mut(i);
            for k in 0..d {
                row[k] = p1[k] + p2[k];
            }
        }
        self.layer1 = out;
    }

    /// Final representation `e* = e⁰ ⊕ e¹`.
    fn final_vec(&self, e: EntityId) -> Vec<f32> {
        self.base.row(e.index()).iter().chain(self.layer1.row(e.index()).iter()).copied().collect()
    }

    /// Accumulates the gradient of the final representation into the base
    /// table, back-propagating the `e¹` half through the propagation.
    fn apply_final_grad(&mut self, e: EntityId, grad: &[f32], lr: f32) {
        let d = self.base.dim();
        let (g0, g1) = grad.split_at(d);
        // Recompute this entity's forward pieces for the backward pass.
        let i = e.index();
        let mut agg = vec![0.0f32; d];
        for &(t, a) in &self.att_edges[i] {
            vector::axpy(a, self.base.row(t as usize), &mut agg);
        }
        let e0 = self.base.row(i).to_vec();
        let sum = vector::add(&e0, &agg);
        let had = vector::hadamard(&e0, &agg);
        let mut t1 = self.w1.matvec(&sum);
        t1.iter_mut().for_each(|x| *x = x.tanh());
        let mut t2 = self.w2.matvec(&had);
        t2.iter_mut().for_each(|x| *x = x.tanh());
        let dp1: Vec<f32> = g1.iter().zip(t1.iter()).map(|(g, o)| g * (1.0 - o * o)).collect();
        let dp2: Vec<f32> = g1.iter().zip(t2.iter()).map(|(g, o)| g * (1.0 - o * o)).collect();
        let dsum = self.w1.matvec_t(&dp1);
        let dhad = self.w2.matvec_t(&dp2);
        self.w1.rank1_update(-lr, &dp1, &sum);
        self.w2.rank1_update(-lr, &dp2, &had);
        // de0 = g0 + dsum + dhad ⊙ agg ; dagg = dsum + dhad ⊙ e0.
        let de0: Vec<f32> = (0..d).map(|k| g0[k] + dsum[k] + dhad[k] * agg[k]).collect();
        let dagg: Vec<f32> = (0..d).map(|k| dsum[k] + dhad[k] * e0[k]).collect();
        self.base.add_to_row(i, -lr, &de0);
        let edges = self.att_edges[i].clone();
        for (t, a) in edges {
            let scaled: Vec<f32> = dagg.iter().map(|x| a * x).collect();
            self.base.add_to_row(t as usize, -lr, &scaled);
        }
    }
}

impl Recommender for Kgat {
    fn name(&self) -> &'static str {
        "KGAT"
    }

    fn taxonomy(&self) -> Taxonomy {
        taxonomy_of("KGAT")
    }

    fn prepare_retry(&mut self, attempt: u32) -> bool {
        self.config.learning_rate *= 0.5;
        self.config.kg_learning_rate *= 0.5;
        self.config.seed = self.config.seed.wrapping_add(u64::from(attempt)).wrapping_mul(31);
        true
    }

    fn fit(&mut self, ctx: &TrainContext<'_>) -> Result<(), CoreError> {
        let mut rng = StdRng::seed_from_u64(self.config.seed);
        let d = self.config.dim;
        let uig = ctx.dataset.user_item_graph(ctx.train);
        let graph = uig.graph.clone();
        self.user_entities = uig.user_entities.clone();
        self.item_entities = uig.item_entities.clone();
        let mut kge =
            TransR::new(&mut rng, graph.num_entities(), graph.num_relations().max(1), d, d, 1.0);
        self.base =
            EmbeddingTable::uniform(&mut rng, graph.num_entities(), d, 1.0 / (d as f32).sqrt());
        let mut w1 = Matrix::zeros(d, d);
        kgrec_linalg::init::xavier_uniform(&mut rng, w1.data_mut(), d, d);
        let mut w2 = Matrix::zeros(d, d);
        kgrec_linalg::init::xavier_uniform(&mut rng, w2.data_mut(), d, d);
        self.w1 = w1;
        self.w2 = w2;
        let lr = self.config.learning_rate;
        let kg_lr = self.config.kg_learning_rate;
        let l2 = self.config.l2;
        let num_triples = graph.num_triples();
        for _ in 0..self.config.epochs {
            // --- KG pass: TransR on the collaborative KG ---
            for _ in 0..num_triples.min(2000) {
                let pos = graph.triple_at(rng.gen_range(0..num_triples));
                let neg = corrupt(&graph, pos, &mut rng);
                kge.train_pair(pos, neg, kg_lr);
            }
            kge.post_epoch();
            self.refresh_attention(&graph, &kge);
            self.propagate();
            // --- CF pass: BPR over final representations ---
            for _ in 0..ctx.train.num_interactions() {
                let Some((u, pos)) = sample_observed(ctx.train, &mut rng) else { break };
                let Some(neg) = sample_negative(ctx.train, u, &mut rng) else { continue };
                let ue = self.user_entities[u.index()];
                let pe = self.item_entities[pos.index()];
                let ne = self.item_entities[neg.index()];
                let uvec = self.final_vec(ue);
                let pvec = self.final_vec(pe);
                let nvec = self.final_vec(ne);
                let x = vector::dot(&uvec, &pvec) - vector::dot(&uvec, &nvec);
                let g = -vector::sigmoid(-x);
                // BPR grads on the final (concatenated) representations.
                let du: Vec<f32> =
                    (0..uvec.len()).map(|k| g * (pvec[k] - nvec[k]) + l2 * uvec[k]).collect();
                let dp: Vec<f32> = uvec.iter().map(|x| g * x).collect();
                let dn: Vec<f32> = uvec.iter().map(|x| -g * x).collect();
                self.apply_final_grad(ue, &du, lr);
                self.apply_final_grad(pe, &dp, lr);
                self.apply_final_grad(ne, &dn, lr);
            }
            // Refresh the propagated layer after the CF updates.
            self.propagate();
        }
        Ok(())
    }

    fn score(&self, user: UserId, item: ItemId) -> f32 {
        let u = self.final_vec(self.user_entities[user.index()]);
        let v = self.final_vec(self.item_entities[item.index()]);
        vector::dot(&u, &v)
    }

    fn num_items(&self) -> usize {
        self.item_entities.len()
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
        let mut m = Kgat::default_config();
        m.fit(&TrainContext::new(&synth.dataset, &split.train)).unwrap();
        let mut rng = StdRng::seed_from_u64(5);
        let pairs = labeled_eval_set(&split.train, &split.test, 4, &mut rng);
        let rep = evaluate_ctr(&m, &pairs);
        assert!(rep.auc > 0.65, "AUC {}", rep.auc);
    }

    #[test]
    fn attention_rows_are_distributions() {
        let synth = generate(&ScenarioConfig::tiny(), 3);
        let split = ratio_split(&synth.dataset.interactions, 0.2, 1);
        let mut m = Kgat::new(KgatConfig { epochs: 1, ..Default::default() });
        m.fit(&TrainContext::new(&synth.dataset, &split.train)).unwrap();
        for row in &m.att_edges {
            if !row.is_empty() {
                let s: f32 = row.iter().map(|&(_, a)| a).sum();
                assert!((s - 1.0).abs() < 1e-3, "sum={s}");
            }
        }
    }

    #[test]
    fn final_vec_is_layer_concatenation() {
        let synth = generate(&ScenarioConfig::tiny(), 4);
        let split = ratio_split(&synth.dataset.interactions, 0.2, 1);
        let mut m = Kgat::new(KgatConfig { epochs: 1, ..Default::default() });
        m.fit(&TrainContext::new(&synth.dataset, &split.train)).unwrap();
        let e = m.item_entities[0];
        let v = m.final_vec(e);
        assert_eq!(v.len(), 2 * m.config.dim);
        assert_eq!(&v[..m.config.dim], m.base.row(e.index()));
        assert_eq!(&v[m.config.dim..], m.layer1.row(e.index()));
    }
}
