//! KGCN / KGCN-LS (Wang et al. 2019): knowledge graph convolutional
//! networks with fixed-size receptive fields.
//!
//! The candidate item's representation is computed by aggregating its
//! sampled multi-hop KG neighborhood inward (survey Section 4.3), with
//! user-personalized relation attention `π = softmax(uᵀ·r)` weighting
//! each neighbor. All four aggregators of the survey are implemented
//! (Eqs. 30–33): sum, concat, neighbor and bi-interaction.
//!
//! With `ls_weight > 0` the model adds KGCN-LS's label-smoothness
//! regularizer: the user's interaction labels are propagated over the
//! same personalized edge weights and the leave-one-out predicted label
//! of the candidate is pushed toward the true label (implemented for the
//! first hop — the dominant term — see `DESIGN.md` §4).

use crate::common::{sample_observed, taxonomy_of};
use kgrec_core::{CoreError, Recommender, Taxonomy, TrainContext};
use kgrec_data::negative::sample_negative;
use kgrec_data::{ItemId, UserId};
use kgrec_graph::sample::receptive_field;
use kgrec_graph::{EntityId, RelationId};
use kgrec_linalg::{vector, EmbeddingTable, Matrix};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Neighborhood aggregator (survey Eqs. 30–33).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Aggregator {
    /// `tanh(W(a + n) + b)`.
    Sum,
    /// `tanh(W[a ⊕ n] + b)`.
    Concat,
    /// `tanh(W·n + b)`.
    Neighbor,
    /// `tanh(W₁(a + n) + b₁) + tanh(W₂(a ⊙ n) + b₂)`.
    BiInteraction,
}

/// KGCN hyper-parameters.
#[derive(Debug, Clone)]
pub struct KgcnConfig {
    /// Embedding dimension.
    pub dim: usize,
    /// Neighbors sampled per entity (`K`).
    pub neighbors: usize,
    /// Receptive-field depth (`H`).
    pub hops: usize,
    /// Aggregator variant.
    pub aggregator: Aggregator,
    /// Label-smoothness weight (0 = plain KGCN; > 0 = KGCN-LS).
    pub ls_weight: f32,
    /// Training epochs.
    pub epochs: usize,
    /// Learning rate.
    pub learning_rate: f32,
    /// L2 regularization.
    pub l2: f32,
    /// RNG seed.
    pub seed: u64,
}

impl Default for KgcnConfig {
    fn default() -> Self {
        Self {
            dim: 16,
            neighbors: 4,
            hops: 1,
            aggregator: Aggregator::Sum,
            ls_weight: 0.0,
            epochs: 20,
            learning_rate: 0.03,
            l2: 1e-5,
            seed: 89,
        }
    }
}

/// Per-layer aggregator parameters.
#[derive(Debug, Clone)]
struct AggParams {
    w1: Matrix,
    b1: Vec<f32>,
    w2: Matrix,
    b2: Vec<f32>,
}

/// Cached per-node forward state for the backward pass.
#[derive(Debug, Clone)]
struct NodeCache {
    self_vec: Vec<f32>,
    nbr_vec: Vec<f32>,
    out1: Vec<f32>,
    out2: Vec<f32>,
}

/// The KGCN / KGCN-LS model.
#[derive(Debug)]
pub struct Kgcn {
    /// Hyper-parameters.
    pub config: KgcnConfig,
    users: EmbeddingTable,
    entities: EmbeddingTable,
    relations: EmbeddingTable,
    layers: Vec<AggParams>,
    alignment: Vec<EntityId>,
    /// Entity → item reverse alignment (for the LS labels).
    item_of_entity: Vec<Option<ItemId>>,
    /// Per-user sorted training histories (LS labels).
    history: Vec<Vec<ItemId>>,
    /// The item KG, retained for receptive-field sampling at score time.
    stored_graph: Option<kgrec_graph::KnowledgeGraph>,
    graph_seed_mix: u64,
}

struct Forward {
    fields: Vec<Vec<(RelationId, EntityId)>>,
    /// `att[h][parent]` = attention over the K children.
    att: Vec<Vec<Vec<f32>>>,
    /// `reps[t][h][i]`.
    reps: Vec<Vec<Vec<Vec<f32>>>>,
    caches: Vec<Vec<Vec<NodeCache>>>,
    v_rep: Vec<f32>,
    z: f32,
}

impl Kgcn {
    /// Creates an unfitted model.
    pub fn new(config: KgcnConfig) -> Self {
        Self {
            config,
            users: EmbeddingTable::zeros(0, 1),
            entities: EmbeddingTable::zeros(0, 1),
            relations: EmbeddingTable::zeros(0, 1),
            layers: Vec::new(),
            alignment: Vec::new(),
            item_of_entity: Vec::new(),
            history: Vec::new(),
            stored_graph: None,
            graph_seed_mix: 0,
        }
    }

    /// Creates a plain KGCN with default hyper-parameters.
    pub fn default_config() -> Self {
        Self::new(KgcnConfig::default())
    }

    /// Creates a KGCN-LS (label-smoothness regularized) variant.
    pub(crate) fn with_label_smoothness(ls_weight: f32) -> Self {
        Self::new(KgcnConfig { ls_weight, ..Default::default() })
    }

    fn agg_forward(&self, layer: &AggParams, a: &[f32], n: &[f32]) -> (Vec<f32>, NodeCache) {
        let d = self.config.dim;
        let out = match self.config.aggregator {
            Aggregator::Sum => {
                let s = vector::add(a, n);
                let mut pre = layer.w1.matvec(&s);
                vector::axpy(1.0, &layer.b1, &mut pre);
                pre.iter_mut().for_each(|x| *x = x.tanh());
                pre
            }
            Aggregator::Concat => {
                let cat: Vec<f32> = a.iter().chain(n.iter()).copied().collect();
                let mut pre = layer.w1.matvec(&cat);
                vector::axpy(1.0, &layer.b1, &mut pre);
                pre.iter_mut().for_each(|x| *x = x.tanh());
                pre
            }
            Aggregator::Neighbor => {
                let mut pre = layer.w1.matvec(n);
                vector::axpy(1.0, &layer.b1, &mut pre);
                pre.iter_mut().for_each(|x| *x = x.tanh());
                pre
            }
            Aggregator::BiInteraction => {
                let s = vector::add(a, n);
                let mut pre1 = layer.w1.matvec(&s);
                vector::axpy(1.0, &layer.b1, &mut pre1);
                pre1.iter_mut().for_each(|x| *x = x.tanh());
                let had = vector::hadamard(a, n);
                let mut pre2 = layer.w2.matvec(&had);
                vector::axpy(1.0, &layer.b2, &mut pre2);
                pre2.iter_mut().for_each(|x| *x = x.tanh());
                vector::add(&pre1, &pre2)
            }
        };
        let (out1, out2) = match self.config.aggregator {
            Aggregator::BiInteraction => {
                // Recompute the parts for caching (cheap at these sizes).
                let s = vector::add(a, n);
                let mut pre1 = layer.w1.matvec(&s);
                vector::axpy(1.0, &layer.b1, &mut pre1);
                pre1.iter_mut().for_each(|x| *x = x.tanh());
                let had = vector::hadamard(a, n);
                let mut pre2 = layer.w2.matvec(&had);
                vector::axpy(1.0, &layer.b2, &mut pre2);
                pre2.iter_mut().for_each(|x| *x = x.tanh());
                (pre1, pre2)
            }
            _ => (out.clone(), vec![0.0; d]),
        };
        (out.clone(), NodeCache { self_vec: a.to_vec(), nbr_vec: n.to_vec(), out1, out2 })
    }

    /// Backward through one aggregator node. Applies weight updates
    /// directly; returns `(dself, dneighborhood)`.
    fn agg_backward(
        &mut self,
        layer_idx: usize,
        cache: &NodeCache,
        dout: &[f32],
        lr: f32,
    ) -> (Vec<f32>, Vec<f32>) {
        let d = self.config.dim;
        let a = &cache.self_vec;
        let n = &cache.nbr_vec;
        match self.config.aggregator {
            Aggregator::Sum | Aggregator::Neighbor | Aggregator::Concat => {
                let dpre: Vec<f32> =
                    dout.iter().zip(cache.out1.iter()).map(|(g, o)| g * (1.0 - o * o)).collect();
                let layer = &mut self.layers[layer_idx];
                let dinput = layer.w1.matvec_t(&dpre);
                let input: Vec<f32> = match self.config.aggregator {
                    Aggregator::Sum => vector::add(a, n),
                    Aggregator::Neighbor => n.clone(),
                    Aggregator::Concat => a.iter().chain(n.iter()).copied().collect(),
                    Aggregator::BiInteraction => unreachable!(),
                };
                layer.w1.rank1_update(-lr, &dpre, &input);
                vector::axpy(-lr, &dpre, &mut layer.b1);
                match self.config.aggregator {
                    Aggregator::Sum => (dinput.clone(), dinput),
                    Aggregator::Neighbor => (vec![0.0; d], dinput),
                    Aggregator::Concat => (dinput[..d].to_vec(), dinput[d..].to_vec()),
                    Aggregator::BiInteraction => unreachable!(),
                }
            }
            Aggregator::BiInteraction => {
                let dpre1: Vec<f32> =
                    dout.iter().zip(cache.out1.iter()).map(|(g, o)| g * (1.0 - o * o)).collect();
                let dpre2: Vec<f32> =
                    dout.iter().zip(cache.out2.iter()).map(|(g, o)| g * (1.0 - o * o)).collect();
                let layer = &mut self.layers[layer_idx];
                let dsum = layer.w1.matvec_t(&dpre1);
                let dhad = layer.w2.matvec_t(&dpre2);
                let s = vector::add(a, n);
                let had = vector::hadamard(a, n);
                layer.w1.rank1_update(-lr, &dpre1, &s);
                vector::axpy(-lr, &dpre1, &mut layer.b1);
                layer.w2.rank1_update(-lr, &dpre2, &had);
                vector::axpy(-lr, &dpre2, &mut layer.b2);
                let da: Vec<f32> = (0..d).map(|i| dsum[i] + dhad[i] * n[i]).collect();
                let dn: Vec<f32> = (0..d).map(|i| dsum[i] + dhad[i] * a[i]).collect();
                (da, dn)
            }
        }
    }

    /// Deterministic receptive-field RNG for a pair.
    fn field_rng(&self, user: UserId, item: ItemId) -> StdRng {
        StdRng::seed_from_u64(
            self.graph_seed_mix
                ^ u64::from(user.0).wrapping_mul(0x9E37_79B9_7F4A_7C15)
                ^ u64::from(item.0).wrapping_mul(0xC2B2_AE3D_27D4_EB4F),
        )
    }

    fn forward(&self, graph: &kgrec_graph::KnowledgeGraph, user: UserId, item: ItemId) -> Forward {
        let cfg = &self.config;
        let mut rng = self.field_rng(user, item);
        let fields =
            receptive_field(graph, self.alignment[item.index()], cfg.neighbors, cfg.hops, &mut rng);
        let uvec = self.users.row(user.index()).to_vec();
        // Attention per hop/parent.
        let mut att: Vec<Vec<Vec<f32>>> = Vec::with_capacity(cfg.hops);
        for h in 0..cfg.hops {
            let parents = fields[h].len();
            let mut hop_att = Vec::with_capacity(parents);
            for p in 0..parents {
                let mut scores: Vec<f32> = (0..cfg.neighbors)
                    .map(|k| {
                        let (r, _) = fields[h + 1][p * cfg.neighbors + k];
                        vector::dot(&uvec, self.relations.row(r.index()))
                    })
                    .collect();
                vector::softmax_in_place(&mut scores);
                hop_att.push(scores);
            }
            att.push(hop_att);
        }
        // Layer 0 representations: raw entity embeddings.
        let mut reps: Vec<Vec<Vec<Vec<f32>>>> = Vec::with_capacity(cfg.hops + 1);
        reps.push(
            fields
                .iter()
                .map(|hop| {
                    hop.iter().map(|&(_, e)| self.entities.row(e.index()).to_vec()).collect()
                })
                .collect(),
        );
        let mut caches: Vec<Vec<Vec<NodeCache>>> = Vec::with_capacity(cfg.hops);
        for t in 1..=cfg.hops {
            let depth = cfg.hops - t;
            let mut layer_reps: Vec<Vec<Vec<f32>>> = Vec::with_capacity(depth + 1);
            let mut layer_caches: Vec<Vec<NodeCache>> = Vec::with_capacity(depth + 1);
            for h in 0..=depth {
                let parents = fields[h].len();
                let mut hrep = Vec::with_capacity(parents);
                let mut hcache = Vec::with_capacity(parents);
                for p in 0..parents {
                    let mut n = vec![0.0f32; cfg.dim];
                    for k in 0..cfg.neighbors {
                        vector::axpy(
                            att[h][p][k],
                            &reps[t - 1][h + 1][p * cfg.neighbors + k],
                            &mut n,
                        );
                    }
                    let (out, cache) =
                        self.agg_forward(&self.layers[t - 1], &reps[t - 1][h][p], &n);
                    hrep.push(out);
                    hcache.push(cache);
                }
                layer_reps.push(hrep);
                layer_caches.push(hcache);
            }
            reps.push(layer_reps);
            caches.push(layer_caches);
        }
        let v_rep = reps[cfg.hops][0][0].clone();
        let z = vector::dot(&uvec, &v_rep);
        Forward { fields, att, reps, caches, v_rep, z }
    }

    /// One BCE SGD step with full backpropagation.
    fn step(
        &mut self,
        graph: &kgrec_graph::KnowledgeGraph,
        user: UserId,
        item: ItemId,
        label: f32,
        lr: f32,
    ) {
        let cfg_hops = self.config.hops;
        let k_n = self.config.neighbors;
        let fwd = self.forward(graph, user, item);
        let dz = vector::sigmoid(fwd.z) - label;
        let uvec = self.users.row(user.index()).to_vec();
        let mut du: Vec<f32> = fwd.v_rep.iter().map(|v| dz * v).collect();
        // dreps[t][h][i]: gradients flowing into layer-t representations.
        let mut dreps: Vec<Vec<Vec<Vec<f32>>>> = fwd
            .reps
            .iter()
            .map(|layer| {
                layer
                    .iter()
                    .map(|hop| hop.iter().map(|r| vec![0.0f32; r.len()]).collect())
                    .collect()
            })
            .collect();
        for (i, g) in dreps[cfg_hops][0][0].iter_mut().enumerate() {
            *g = dz * uvec[i];
        }
        for t in (1..=cfg_hops).rev() {
            let depth = cfg_hops - t;
            for h in 0..=depth {
                for p in 0..fwd.fields[h].len() {
                    let dout = dreps[t][h][p].clone();
                    if dout.iter().all(|&x| x == 0.0) {
                        continue;
                    }
                    let cache = fwd.caches[t - 1][h][p].clone();
                    let (da, dn) = self.agg_backward(t - 1, &cache, &dout, lr);
                    vector::axpy(1.0, &da, &mut dreps[t - 1][h][p]);
                    // Through the attention-weighted neighborhood.
                    let mut dl_datt = vec![0.0f32; k_n];
                    for k in 0..k_n {
                        let child = p * k_n + k;
                        let scaled: Vec<f32> = dn.iter().map(|x| fwd.att[h][p][k] * x).collect();
                        vector::axpy(1.0, &scaled, &mut dreps[t - 1][h + 1][child]);
                        dl_datt[k] = vector::dot(&dn, &fwd.reps[t - 1][h + 1][child]);
                    }
                    let ds = vector::softmax_backward(&fwd.att[h][p], &dl_datt);
                    for k in 0..k_n {
                        let (r, _) = fwd.fields[h + 1][p * k_n + k];
                        // score = u·r_emb.
                        let remb = self.relations.row(r.index()).to_vec();
                        for i in 0..du.len() {
                            du[i] += ds[k] * remb[i];
                        }
                        let scaled: Vec<f32> = uvec.iter().map(|x| ds[k] * x).collect();
                        self.relations.add_to_row(r.index(), -lr, &scaled);
                    }
                }
            }
        }
        // Scatter layer-0 gradients to the entity table.
        for h in 0..fwd.fields.len() {
            for (p, &(_, e)) in fwd.fields[h].iter().enumerate() {
                let g = &dreps[0][h][p];
                if g.iter().any(|&x| x != 0.0) {
                    self.entities.add_to_row(e.index(), -lr, g);
                }
            }
        }
        // User update (+ L2).
        let l2 = self.config.l2;
        let urow = self.users.row_mut(user.index());
        for i in 0..urow.len() {
            urow[i] -= lr * (du[i] + l2 * urow[i]);
        }
        // Label-smoothness term (first hop).
        if self.config.ls_weight > 0.0 {
            self.ls_step(graph, user, item, label, lr, &fwd);
        }
    }

    /// KGCN-LS regularizer: leave-one-out label propagation over the
    /// personalized edge weights.
    ///
    /// Labels propagate over a *two*-hop receptive field — with an
    /// attribute-only item KG the 1-hop neighbors are attribute entities
    /// whose raw label is always 0; the interaction labels live two hops
    /// out (item → attribute → item), so a single-hop propagation would
    /// be identically zero. `l̂(v) = Σ_j a⁰_j · Σ_k a¹_{jk} · label(t_{jk})`
    /// with both attention levels personalized by `softmax(uᵀr)`.
    fn ls_step(
        &mut self,
        graph: &kgrec_graph::KnowledgeGraph,
        user: UserId,
        item: ItemId,
        label: f32,
        lr: f32,
        _fwd: &Forward,
    ) {
        let k_n = self.config.neighbors;
        // Fresh 2-hop field with a decorrelated seed (the main field may
        // be only 1 hop deep).
        let mut rng = StdRng::seed_from_u64(
            self.graph_seed_mix
                ^ u64::from(user.0).wrapping_mul(0xD6E8_FEB8_6659_FD93)
                ^ u64::from(item.0).wrapping_mul(0xA5A5_B0D5_90F1_1E4D),
        );
        let fields = receptive_field(graph, self.alignment[item.index()], k_n, 2, &mut rng);
        let uvec = self.users.row(user.index()).to_vec();
        let attn_of = |uvec: &[f32], rels: &[RelationId], relations: &EmbeddingTable| {
            let mut scores: Vec<f32> =
                rels.iter().map(|r| vector::dot(uvec, relations.row(r.index()))).collect();
            vector::softmax_in_place(&mut scores);
            scores
        };
        // Raw labels at hop 2.
        let raw: Vec<f32> = fields[2]
            .iter()
            .map(|&(_, e)| match self.item_of_entity[e.index()] {
                Some(it) if it != item && self.user_has(user, it) => 1.0,
                _ => 0.0,
            })
            .collect();
        // Hop-1 attention groups and propagated child labels.
        let rels1: Vec<RelationId> = fields[1].iter().map(|&(r, _)| r).collect();
        let att0 = attn_of(&uvec, &rels1, &self.relations);
        let mut att1: Vec<Vec<f32>> = Vec::with_capacity(fields[1].len());
        let mut child_labels = Vec::with_capacity(fields[1].len());
        for j in 0..fields[1].len() {
            let rels2: Vec<RelationId> = (0..k_n).map(|k| fields[2][j * k_n + k].0).collect();
            let a = attn_of(&uvec, &rels2, &self.relations);
            let l: f32 = (0..k_n).map(|k| a[k] * raw[j * k_n + k]).sum();
            att1.push(a);
            child_labels.push(l);
        }
        let lhat: f32 = att0.iter().zip(child_labels.iter()).map(|(a, l)| a * l).sum();
        let dlhat = 2.0 * (lhat - label) * self.config.ls_weight;
        if dlhat == 0.0 {
            return;
        }
        let mut du = vec![0.0f32; uvec.len()];
        // Backprop through hop-0 attention.
        let dl_da0: Vec<f32> = child_labels.iter().map(|l| dlhat * l).collect();
        let ds0 = vector::softmax_backward(&att0, &dl_da0);
        for (j, &(r, _)) in fields[1].iter().enumerate() {
            vector::axpy(ds0[j], self.relations.row(r.index()), &mut du);
            let scaled: Vec<f32> = uvec.iter().map(|x| ds0[j] * x).collect();
            self.relations.add_to_row(r.index(), -lr, &scaled);
        }
        // Backprop through hop-1 attentions: dl/da1_{jk} = a0_j · raw_{jk}.
        for j in 0..fields[1].len() {
            let dl_da1: Vec<f32> = (0..k_n).map(|k| dlhat * att0[j] * raw[j * k_n + k]).collect();
            let ds1 = vector::softmax_backward(&att1[j], &dl_da1);
            for (k, &ds) in ds1.iter().enumerate() {
                let (r, _) = fields[2][j * k_n + k];
                vector::axpy(ds, self.relations.row(r.index()), &mut du);
                let scaled: Vec<f32> = uvec.iter().map(|x| ds * x).collect();
                self.relations.add_to_row(r.index(), -lr, &scaled);
            }
        }
        self.users.add_to_row(user.index(), -lr, &du);
    }

    fn user_has(&self, user: UserId, item: ItemId) -> bool {
        self.history.get(user.index()).is_some_and(|h| h.binary_search(&item).is_ok())
    }
}

impl Recommender for Kgcn {
    fn name(&self) -> &'static str {
        if self.config.ls_weight > 0.0 {
            "KGCN-LS"
        } else {
            "KGCN"
        }
    }

    fn taxonomy(&self) -> Taxonomy {
        taxonomy_of(if self.config.ls_weight > 0.0 { "KGCN-LS" } else { "KGCN" })
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
        let graph = ctx.dataset.graph.clone();
        let scale = 1.0 / (d as f32).sqrt();
        self.users = EmbeddingTable::uniform(&mut rng, ctx.num_users(), d, scale);
        self.entities = EmbeddingTable::uniform(&mut rng, graph.num_entities(), d, scale);
        self.relations = EmbeddingTable::uniform(&mut rng, graph.num_relations().max(1), d, scale);
        self.alignment = ctx.dataset.item_entities.clone();
        self.item_of_entity = vec![None; graph.num_entities()];
        for (j, e) in self.alignment.iter().enumerate() {
            self.item_of_entity[e.index()] = Some(ItemId(j as u32));
        }
        self.history =
            (0..ctx.num_users()).map(|u| ctx.train.items_of(UserId(u as u32)).to_vec()).collect();
        self.graph_seed_mix = self.config.seed.wrapping_mul(0x2545_F491_4F6C_DD1D);
        let in_dim = |agg: Aggregator| match agg {
            Aggregator::Concat => 2 * d,
            _ => d,
        };
        self.layers = (0..self.config.hops)
            .map(|_| {
                let cols = in_dim(self.config.aggregator);
                let mut w1 = Matrix::zeros(d, cols);
                kgrec_linalg::init::xavier_uniform(&mut rng, w1.data_mut(), cols, d);
                let mut w2 = Matrix::zeros(d, d);
                kgrec_linalg::init::xavier_uniform(&mut rng, w2.data_mut(), d, d);
                AggParams { w1, b1: vec![0.0; d], w2, b2: vec![0.0; d] }
            })
            .collect();
        let lr = self.config.learning_rate;
        for _ in 0..self.config.epochs {
            for _ in 0..ctx.train.num_interactions() {
                let Some((u, pos)) = sample_observed(ctx.train, &mut rng) else { break };
                self.step(&graph, u, pos, 1.0, lr);
                if let Some(neg) = sample_negative(ctx.train, u, &mut rng) {
                    self.step(&graph, u, neg, 0.0, lr);
                }
            }
        }
        self.stored_graph = Some(graph);
        Ok(())
    }

    fn score(&self, user: UserId, item: ItemId) -> f32 {
        let g = self.stored_graph.as_ref().expect("Kgcn: fit before score");
        self.forward(g, user, item).z
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

    fn run_auc(agg: Aggregator, ls: f32) -> f64 {
        let synth = generate(&ScenarioConfig::tiny(), 42);
        let split = ratio_split(&synth.dataset.interactions, 0.2, 1);
        let mut m = Kgcn::new(KgcnConfig { aggregator: agg, ls_weight: ls, ..Default::default() });
        m.fit(&TrainContext::new(&synth.dataset, &split.train)).unwrap();
        let mut rng = StdRng::seed_from_u64(5);
        let pairs = labeled_eval_set(&split.train, &split.test, 4, &mut rng);
        evaluate_ctr(&m, &pairs).auc
    }

    #[test]
    fn sum_aggregator_beats_chance() {
        let auc = run_auc(Aggregator::Sum, 0.0);
        assert!(auc > 0.6, "AUC {auc}");
    }

    #[test]
    fn concat_aggregator_beats_chance() {
        let auc = run_auc(Aggregator::Concat, 0.0);
        assert!(auc > 0.6, "AUC {auc}");
    }

    #[test]
    fn neighbor_aggregator_beats_chance() {
        let auc = run_auc(Aggregator::Neighbor, 0.0);
        assert!(auc > 0.55, "AUC {auc}");
    }

    #[test]
    fn bi_interaction_aggregator_beats_chance() {
        let auc = run_auc(Aggregator::BiInteraction, 0.0);
        assert!(auc > 0.6, "AUC {auc}");
    }

    #[test]
    fn label_smoothness_variant_beats_chance() {
        let auc = run_auc(Aggregator::Sum, 0.5);
        assert!(auc > 0.6, "AUC {auc}");
    }

    #[test]
    fn label_smoothness_actually_regularizes() {
        // With identical seeds, turning LS on must change the learned
        // parameters (regression test: a 1-hop-only propagation was a
        // silent no-op on attribute-only KGs).
        let synth = generate(&ScenarioConfig::tiny(), 13);
        let split = ratio_split(&synth.dataset.interactions, 0.2, 1);
        let ctx = TrainContext::new(&synth.dataset, &split.train);
        let mut plain = Kgcn::new(KgcnConfig { epochs: 3, ..Default::default() });
        let mut ls = Kgcn::new(KgcnConfig { epochs: 3, ls_weight: 0.5, ..Default::default() });
        plain.fit(&ctx).unwrap();
        ls.fit(&ctx).unwrap();
        let mut differs = false;
        for u in 0..5u32 {
            for i in 0..5u32 {
                if (plain.score(UserId(u), ItemId(i)) - ls.score(UserId(u), ItemId(i))).abs() > 1e-6
                {
                    differs = true;
                }
            }
        }
        assert!(differs, "label smoothness had no effect on any score");
    }

    #[test]
    fn name_reflects_ls_flag() {
        assert_eq!(Kgcn::default_config().name(), "KGCN");
        assert_eq!(Kgcn::with_label_smoothness(0.5).name(), "KGCN-LS");
    }

    #[test]
    fn scoring_is_deterministic() {
        let synth = generate(&ScenarioConfig::tiny(), 7);
        let split = ratio_split(&synth.dataset.interactions, 0.2, 1);
        let mut m = Kgcn::new(KgcnConfig { epochs: 2, ..Default::default() });
        m.fit(&TrainContext::new(&synth.dataset, &split.train)).unwrap();
        let a = m.score(UserId(3), ItemId(5));
        let b = m.score(UserId(3), ItemId(5));
        assert_eq!(a, b);
    }

    #[test]
    fn two_hop_field_works() {
        let synth = generate(&ScenarioConfig::tiny(), 8);
        let split = ratio_split(&synth.dataset.interactions, 0.2, 1);
        let mut m = Kgcn::new(KgcnConfig { hops: 2, epochs: 3, ..Default::default() });
        m.fit(&TrainContext::new(&synth.dataset, &split.train)).unwrap();
        assert!(m.score(UserId(0), ItemId(0)).is_finite());
    }
}
