//! RippleNet (Wang et al. 2018): preference propagation over ripple sets.
//!
//! The user's representation is assembled by propagating preference
//! outward from the interacted items: at hop `k`, each ripple-set triple
//! `(h, r, t)` gets the relation-space attention
//! `p_i = softmax(qᵀ·R_{r_i}·h_i)` (survey Eq. 24) — with query `q` being
//! the candidate item at hop 1 and the previous order response after —
//! and the order response is `o^k = Σ p_i·t_i` (Eq. 25). The final score
//! is `σ((Σ_k o^k)ᵀ·v)` (Eq. 26). Trained end-to-end by hand-derived
//! backpropagation through the whole propagation (validated against
//! finite differences in the tests).

use crate::common::{sample_observed, taxonomy_of};
use kgrec_core::{CoreError, Recommender, Taxonomy, TrainContext};
use kgrec_data::negative::sample_negative;
use kgrec_data::{ItemId, UserId};
use kgrec_graph::ripple::{ripple_sets, RippleSets};
use kgrec_graph::EntityId;
use kgrec_kge::{GradBatch, GradOp};
use kgrec_linalg::{par, vector, EmbeddingTable, Matrix};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Grad-batch table id of the entity table.
const T_ENT: u8 = 0;
/// Grad-batch table id of the per-relation attention matrices.
const T_REL: u8 = 1;
/// Samples whose gradients share one frozen parameter snapshot.
const CHUNK: usize = 64;
/// Samples recorded into one worker-local [`GradBatch`]. Fixed — never
/// derived from the worker count — so the op application order is
/// identical at any thread count.
const SUB: usize = 8;

/// RippleNet hyper-parameters.
#[derive(Debug, Clone)]
pub struct RippleNetConfig {
    /// Embedding dimension.
    pub dim: usize,
    /// Number of hops `H`.
    pub hops: usize,
    /// Ripple-set memory size per hop.
    pub memories_per_hop: usize,
    /// Training epochs.
    pub epochs: usize,
    /// Learning rate.
    pub learning_rate: f32,
    /// L2 regularization.
    pub l2: f32,
    /// RNG seed.
    pub seed: u64,
}

impl Default for RippleNetConfig {
    fn default() -> Self {
        Self {
            dim: 16,
            hops: 2,
            memories_per_hop: 16,
            epochs: 20,
            learning_rate: 0.02,
            l2: 1e-5,
            seed: 83,
        }
    }
}

/// The RippleNet model.
#[derive(Debug)]
pub struct RippleNet {
    /// Hyper-parameters.
    pub config: RippleNetConfig,
    entities: EmbeddingTable,
    relations: Vec<Matrix>,
    /// Per-user sampled ripple sets (fixed at fit time, as in the paper's
    /// memory layout).
    ripples: Vec<RippleSets>,
    alignment: Vec<EntityId>,
}

/// Cached forward state for one (user, item) pass.
struct Forward {
    /// Per hop: attention probabilities.
    probs: Vec<Vec<f32>>,
    /// Per hop: queries (`q^0 = v`, `q^k = o^{k-1}`).
    queries: Vec<Vec<f32>>,
    /// Per hop: order responses `o^k` (read by diagnostics and tests).
    #[allow(dead_code)]
    responses: Vec<Vec<f32>>,
    /// Final user vector `Σ o^k`.
    user_vec: Vec<f32>,
    /// Raw score `z = uᵀv`.
    z: f32,
}

impl RippleNet {
    /// Creates an unfitted model.
    pub fn new(config: RippleNetConfig) -> Self {
        Self {
            config,
            entities: EmbeddingTable::zeros(0, 1),
            relations: Vec::new(),
            ripples: Vec::new(),
            alignment: Vec::new(),
        }
    }

    /// Creates a model with default hyper-parameters.
    pub fn default_config() -> Self {
        Self::new(RippleNetConfig::default())
    }

    /// Forward propagation for `(user, item)`.
    fn forward(&self, user: UserId, item: ItemId) -> Forward {
        let d = self.config.dim;
        let v = self.entities.row(self.alignment[item.index()].index()).to_vec();
        let sets = &self.ripples[user.index()];
        let mut probs = Vec::with_capacity(self.config.hops);
        let mut queries = Vec::with_capacity(self.config.hops);
        let mut responses = Vec::with_capacity(self.config.hops);
        let mut q = v.clone();
        let mut rh = vec![0.0f32; d];
        for k in 0..self.config.hops {
            let hop = sets.hop(k);
            queries.push(q.clone());
            if hop.is_empty() {
                probs.push(Vec::new());
                responses.push(vec![0.0; d]);
                q = vec![0.0; d];
                continue;
            }
            let mut scores: Vec<f32> = Vec::with_capacity(hop.len());
            for t in hop {
                self.relations[t.rel.index()]
                    .matvec_into(self.entities.row(t.head.index()), &mut rh);
                scores.push(vector::dot(&q, &rh));
            }
            vector::softmax_in_place(&mut scores);
            let mut o = vec![0.0f32; d];
            for (p, t) in scores.iter().zip(hop.iter()) {
                vector::axpy(*p, self.entities.row(t.tail.index()), &mut o);
            }
            probs.push(scores);
            responses.push(o.clone());
            q = o;
        }
        let mut user_vec = vec![0.0f32; d];
        for o in &responses {
            vector::axpy(1.0, o, &mut user_vec);
        }
        let z = vector::dot(&user_vec, &v);
        Forward { probs, queries, responses, user_vec, z }
    }

    /// Backpropagates one BCE example against the *frozen* current
    /// parameters, recording every update as [`GradOp`]s in the order the
    /// in-place step applied them; returns the loss. `&self` lets workers
    /// record fixed sub-batches concurrently.
    fn record_step(&self, user: UserId, item: ItemId, label: f32, out: &mut GradBatch) -> f32 {
        let fwd = self.forward(user, item);
        let loss = vector::softplus(if label > 0.5 { -fwd.z } else { fwd.z });
        let dz = vector::sigmoid(fwd.z) - label;
        let d = self.config.dim;
        let l2 = self.config.l2;
        let item_ent = self.alignment[item.index()];
        let v = self.entities.row(item_ent.index());
        let sets = &self.ripples[user.index()];
        let mut rh = vec![0.0f32; d];
        let mut dh = vec![0.0f32; d];

        // dL/dv direct term (z = uᵀv).
        let mut dv: Vec<f32> = fwd.user_vec.iter().map(|u| dz * u).collect();
        // dL/do^k starts with the direct dz·v term for every hop.
        let mut do_k: Vec<Vec<f32>> =
            (0..self.config.hops).map(|_| v.iter().map(|x| dz * x).collect()).collect();
        // Reverse through hops.
        for k in (0..self.config.hops).rev() {
            let hop = sets.hop(k);
            if hop.is_empty() {
                continue;
            }
            // `do_k[k]` is never read again (hops run in reverse), so the
            // gradient vector can be moved out instead of cloned.
            let dout = std::mem::take(&mut do_k[k]);
            let p = &fwd.probs[k];
            let q = &fwd.queries[k];
            // The hop query feeds every rank-1 relation update of the hop.
            let seg_q = out.alloc(d);
            out.seg_mut(seg_q).copy_from_slice(q);
            // dL/dp_i = dout · t_i ; record dL/dt_i = p_i · dout.
            let mut dl_dp = Vec::with_capacity(hop.len());
            for (i, t) in hop.iter().enumerate() {
                dl_dp.push(vector::dot(&dout, self.entities.row(t.tail.index())));
                let seg = out.alloc(d);
                vector::scale_assign(p[i], &dout, out.seg_mut(seg));
                out.push_op(GradOp::AddRow { table: T_ENT, row: t.tail.0, coeff: 1.0, seg });
            }
            let ds = vector::softmax_backward(p, &dl_dp);
            let mut dq = vec![0.0f32; d];
            for (i, t) in hop.iter().enumerate() {
                let rel = &self.relations[t.rel.index()];
                rel.matvec_into(self.entities.row(t.head.index()), &mut rh);
                // s_i = qᵀ R h: ∂/∂q = R h; ∂/∂h = Rᵀ q; ∂/∂R = q hᵀ.
                vector::axpy(ds[i], &rh, &mut dq);
                rel.matvec_t_into(q, &mut dh);
                let seg_h = out.alloc(d);
                out.seg_mut(seg_h).copy_from_slice(self.entities.row(t.head.index()));
                out.push_op(GradOp::Rank1 {
                    table: T_REL,
                    row: t.rel.0,
                    coeff: ds[i],
                    v: seg_q,
                    u: seg_h,
                });
                let seg = out.alloc(d);
                vector::scale_assign(ds[i], &dh, out.seg_mut(seg));
                out.push_op(GradOp::AddRow { table: T_ENT, row: t.head.0, coeff: 1.0, seg });
            }
            if k > 0 {
                // q^k = o^{k-1}.
                vector::axpy(1.0, &dq, &mut do_k[k - 1]);
            } else {
                vector::axpy(1.0, &dq, &mut dv);
            }
        }
        // Item entity update + L2.
        for (g, p) in dv.iter_mut().zip(v.iter()) {
            *g += l2 * p;
        }
        let seg_dv = out.alloc(d);
        out.seg_mut(seg_dv).copy_from_slice(&dv);
        out.push_op(GradOp::AddRow { table: T_ENT, row: item_ent.0, coeff: 1.0, seg: seg_dv });
        loss
    }

    /// Replays a recorded batch in op order with learning rate `lr`.
    fn apply_ripple_grads(&mut self, batch: &GradBatch, lr: f32) {
        for op in batch.ops() {
            match *op {
                GradOp::AddRow { row, coeff, seg, .. } => {
                    self.entities.add_to_row(row as usize, -lr * coeff, batch.seg(seg));
                }
                GradOp::Rank1 { row, coeff, v, u, .. } => {
                    self.relations[row as usize].rank1_update(
                        -lr * coeff,
                        batch.seg(v),
                        batch.seg(u),
                    );
                }
                _ => unreachable!("RippleNet records only AddRow/Rank1 ops"),
            }
        }
    }
}

impl Recommender for RippleNet {
    fn name(&self) -> &'static str {
        "RippleNet"
    }

    fn taxonomy(&self) -> Taxonomy {
        taxonomy_of("RippleNet")
    }

    fn prepare_retry(&mut self, attempt: u32) -> bool {
        self.config.learning_rate *= 0.5;
        self.config.seed = self.config.seed.wrapping_add(u64::from(attempt)).wrapping_mul(31);
        true
    }

    fn fit(&mut self, ctx: &TrainContext<'_>) -> Result<(), CoreError> {
        if self.config.hops == 0 {
            return Err(CoreError::InvalidConfig { message: "hops must be positive".into() });
        }
        let mut rng = StdRng::seed_from_u64(self.config.seed);
        let d = self.config.dim;
        let graph = &ctx.dataset.graph;
        self.entities =
            EmbeddingTable::uniform(&mut rng, graph.num_entities(), d, 1.0 / (d as f32).sqrt());
        self.relations = (0..graph.num_relations().max(1))
            .map(|_| {
                let mut m = Matrix::identity(d);
                for x in m.data_mut().iter_mut() {
                    *x += 0.1 * (rand::Rng::gen::<f32>(&mut rng) - 0.5);
                }
                m
            })
            .collect();
        self.alignment = ctx.dataset.item_entities.clone();
        // Fixed-size ripple memories per user, seeded from train history.
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
        let threads = par::resolve_threads(None);
        // Deterministic batched SGD: samples are pre-drawn per chunk (the
        // RNG stream is identical to the per-sample loop because the steps
        // never touch the RNG), workers record fixed sub-batches of
        // gradients against the chunk-start parameters, and the recorded
        // ops are applied in sub-batch index order — bit-identical
        // parameters at any thread count.
        let mut samples: Vec<(UserId, ItemId, f32)> = Vec::with_capacity(2 * CHUNK);
        let pool: std::sync::Mutex<Vec<GradBatch>> = std::sync::Mutex::new(Vec::new());
        for _ in 0..self.config.epochs {
            let mut remaining = ctx.train.num_interactions();
            'epoch: while remaining > 0 {
                samples.clear();
                while remaining > 0 && samples.len() < 2 * CHUNK {
                    let Some((u, pos)) = sample_observed(ctx.train, &mut rng) else {
                        break 'epoch;
                    };
                    samples.push((u, pos, 1.0));
                    if let Some(neg) = sample_negative(ctx.train, u, &mut rng) {
                        samples.push((u, neg, 0.0));
                    }
                    remaining -= 1;
                }
                let subs: Vec<&[(UserId, ItemId, f32)]> = samples.chunks(SUB).collect();
                let frozen: &Self = self;
                let batches = par::par_map(&subs, threads, |_, sub| {
                    let mut gb = pool
                        .lock()
                        .unwrap_or_else(std::sync::PoisonError::into_inner)
                        .pop()
                        .unwrap_or_default();
                    gb.clear();
                    for &(u, it, y) in *sub {
                        frozen.record_step(u, it, y, &mut gb);
                    }
                    gb
                });
                for gb in batches {
                    self.apply_ripple_grads(&gb, lr);
                    // kglint::allow(SA003, free-list pool; grads already applied in input order)
                    pool.lock().unwrap_or_else(std::sync::PoisonError::into_inner).push(gb);
                }
            }
        }
        Ok(())
    }

    fn score(&self, user: UserId, item: ItemId) -> f32 {
        self.forward(user, item).z
    }

    fn num_items(&self) -> usize {
        self.alignment.len()
    }
}

#[cfg(test)]
impl RippleNet {
    /// One BCE SGD step; returns the loss. Gradients are evaluated against
    /// the step-start parameters ([`Self::record_step`]) and applied in
    /// recorded order.
    fn step(&mut self, user: UserId, item: ItemId, label: f32, lr: f32) -> f32 {
        let mut gb = GradBatch::new();
        let loss = self.record_step(user, item, label, &mut gb);
        self.apply_ripple_grads(&gb, lr);
        loss
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
        let mut m = RippleNet::default_config();
        m.fit(&TrainContext::new(&synth.dataset, &split.train)).unwrap();
        let mut rng = StdRng::seed_from_u64(5);
        let pairs = labeled_eval_set(&split.train, &split.test, 4, &mut rng);
        let rep = evaluate_ctr(&m, &pairs);
        assert!(rep.auc > 0.65, "AUC {}", rep.auc);
    }

    #[test]
    fn forward_attention_is_distribution_per_hop() {
        let synth = generate(&ScenarioConfig::tiny(), 3);
        let split = ratio_split(&synth.dataset.interactions, 0.2, 1);
        let mut m = RippleNet::new(RippleNetConfig { epochs: 1, ..Default::default() });
        m.fit(&TrainContext::new(&synth.dataset, &split.train)).unwrap();
        let fwd = m.forward(UserId(0), ItemId(0));
        for p in &fwd.probs {
            if !p.is_empty() {
                let s: f32 = p.iter().sum();
                assert!((s - 1.0).abs() < 1e-4, "sum={s}");
            }
        }
        assert_eq!(fwd.responses.len(), m.config.hops);
    }

    #[test]
    fn step_gradient_direction_reduces_loss() {
        let synth = generate(&ScenarioConfig::tiny(), 4);
        let split = ratio_split(&synth.dataset.interactions, 0.2, 1);
        let mut m = RippleNet::new(RippleNetConfig { epochs: 1, ..Default::default() });
        m.fit(&TrainContext::new(&synth.dataset, &split.train)).unwrap();
        // Repeatedly stepping on one positive example must reduce its loss.
        let (u, i) = (UserId(0), ItemId(0));
        let before = m.step(u, i, 1.0, 0.0); // lr 0: loss probe only
        for _ in 0..50 {
            m.step(u, i, 1.0, 0.05);
        }
        let after = m.step(u, i, 1.0, 0.0);
        assert!(after < before, "loss {before} -> {after}");
    }

    #[test]
    fn empty_history_user_scores_finite() {
        let synth = generate(&ScenarioConfig::tiny(), 5);
        let filtered: Vec<_> = synth
            .dataset
            .interactions
            .iter()
            .filter(|(u, _, _)| u.0 != 0)
            .map(|(u, i, _)| kgrec_data::Interaction::implicit(u, i))
            .collect();
        let train = kgrec_data::InteractionMatrix::from_interactions(
            synth.dataset.interactions.num_users(),
            synth.dataset.interactions.num_items(),
            &filtered,
        );
        let mut m = RippleNet::new(RippleNetConfig { epochs: 1, ..Default::default() });
        m.fit(&TrainContext::new(&synth.dataset, &train)).unwrap();
        // Ripple sets are empty → user vector zero → score 0.
        assert_eq!(m.score(UserId(0), ItemId(0)), 0.0);
    }

    #[test]
    fn zero_hops_rejected() {
        let synth = generate(&ScenarioConfig::tiny(), 6);
        let split = ratio_split(&synth.dataset.interactions, 0.2, 1);
        let mut m = RippleNet::new(RippleNetConfig { hops: 0, ..Default::default() });
        assert!(m.fit(&TrainContext::new(&synth.dataset, &split.train)).is_err());
    }
}
