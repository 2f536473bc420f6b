//! RCF-lite (Xin et al. 2019): relational collaborative filtering.
//!
//! Items are connected by typed relations (shared genre, shared director,
//! …). The user's preference for a target item combines the direct match
//! `uᵀv_i` with a *relational context*: history items connected to the
//! target, weighted by the user's relation-**type** attention
//! `α_r = softmax(uᵀ·r)`. The recommendation objective is trained jointly
//! with a DistMult loss over the item KG (survey Eq. 9's multi-task
//! pattern), sharing the item/entity embedding table.
//!
//! Simplification vs. the paper: the second (relation-*value*) attention
//! level is folded into the type level — shared-value counts scale the
//! type weight — which keeps the two-level structure's effect (users
//! weight relation semantics differently) while halving the parameter
//! surface; see `DESIGN.md` §4.

use crate::common::{sample_observed, taxonomy_of};
use kgrec_core::{CoreError, Recommender, Taxonomy, TrainContext};
use kgrec_data::negative::sample_negative;
use kgrec_data::{ItemId, UserId};
use kgrec_graph::{EntityId, RelationId};
use kgrec_kge::trainer::corrupt;
use kgrec_linalg::{vector, EmbeddingTable};
use rand::rngs::StdRng;
use rand::Rng;
use rand::SeedableRng;

/// RCF-lite hyper-parameters.
#[derive(Debug, Clone)]
pub(crate) struct RcfConfig {
    /// Latent dimension.
    pub dim: usize,
    /// Training epochs.
    pub epochs: usize,
    /// Learning rate.
    pub learning_rate: f32,
    /// L2 regularization.
    pub l2: f32,
    /// Weight of the DistMult KG task.
    pub kg_weight: f32,
    /// Maximum history items considered per prediction.
    pub max_history: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for RcfConfig {
    fn default() -> Self {
        Self {
            dim: 16,
            epochs: 25,
            learning_rate: 0.05,
            l2: 1e-5,
            kg_weight: 0.5,
            max_history: 30,
            seed: 107,
        }
    }
}

/// The RCF-lite model.
#[derive(Debug)]
pub(crate) struct Rcf {
    /// Hyper-parameters.
    pub config: RcfConfig,
    users: EmbeddingTable,
    /// Shared item/entity table (items are their aligned entity rows).
    entities: EmbeddingTable,
    relations: EmbeddingTable,
    alignment: Vec<EntityId>,
    /// Per item: sorted `(relation, value-entity)` attribute set.
    item_attrs: Vec<Vec<(RelationId, EntityId)>>,
    histories: Vec<Vec<ItemId>>,
    num_relations: usize,
}

impl Rcf {
    /// Creates an unfitted model.
    pub(crate) fn new(config: RcfConfig) -> Self {
        Self {
            config,
            users: EmbeddingTable::zeros(0, 1),
            entities: EmbeddingTable::zeros(0, 1),
            relations: EmbeddingTable::zeros(0, 1),
            alignment: Vec::new(),
            item_attrs: Vec::new(),
            histories: Vec::new(),
            num_relations: 0,
        }
    }

    /// Creates a model with default hyper-parameters.
    pub(crate) fn default_config() -> Self {
        Self::new(RcfConfig::default())
    }

    /// Typed connection strengths between two items: for each relation,
    /// the number of shared attribute values.
    fn connections(&self, a: ItemId, b: ItemId) -> Vec<(RelationId, f32)> {
        let (sa, sb) = (&self.item_attrs[a.index()], &self.item_attrs[b.index()]);
        let mut out: Vec<(RelationId, f32)> = Vec::new();
        let mut i = 0;
        let mut j = 0;
        while i < sa.len() && j < sb.len() {
            match sa[i].cmp(&sb[j]) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    match out.iter_mut().find(|(r, _)| *r == sa[i].0) {
                        Some((_, c)) => *c += 1.0,
                        None => out.push((sa[i].0, 1.0)),
                    }
                    i += 1;
                    j += 1;
                }
            }
        }
        out
    }

    /// Forward pass: `(z, relational parts for backward)`.
    ///
    /// `z = uᵀv_i + Σ_j w_j·(v_jᵀ v_i)` with
    /// `w_j = Σ_r α_r(u) · count_r(i,j) / |hist|`.
    fn forward(&self, user: UserId, item: ItemId) -> (f32, Vec<(ItemId, f32)>, Vec<f32>) {
        let uvec = self.users.row(user.index());
        let vi = self.entities.row(self.alignment[item.index()].index());
        // Relation-type attention α(u).
        let mut alpha: Vec<f32> =
            (0..self.num_relations).map(|r| vector::dot(uvec, self.relations.row(r))).collect();
        vector::softmax_in_place(&mut alpha);
        let hist = &self.histories[user.index()];
        let denom = hist.len().max(1) as f32;
        let mut parts: Vec<(ItemId, f32)> = Vec::new();
        let mut z = vector::dot(uvec, vi);
        for &j in hist.iter().take(self.config.max_history) {
            if j == item {
                continue;
            }
            let conn = self.connections(item, j);
            if conn.is_empty() {
                continue;
            }
            let w: f32 = conn.iter().map(|&(r, c)| alpha[r.index()] * c).sum::<f32>() / denom;
            let vj = self.entities.row(self.alignment[j.index()].index());
            z += w * vector::dot(vj, vi);
            parts.push((j, w));
        }
        (z, parts, alpha)
    }

    /// One BCE step on the recommendation task.
    fn rec_step(&mut self, user: UserId, item: ItemId, label: f32, lr: f32) {
        let (z, parts, alpha) = self.forward(user, item);
        let dz = vector::sigmoid(z) - label;
        let l2 = self.config.l2;
        let ii = self.alignment[item.index()].index();
        let uvec = self.users.row(user.index()).to_vec();
        let vi = self.entities.row(ii).to_vec();
        // dz/du direct + through attention (treated as constant within a
        // step for the history weights, matching the paper's stop-grad on
        // the normalizer; attention still learns via the dedicated term
        // below).
        let mut du: Vec<f32> = vi.iter().map(|x| dz * x).collect();
        let mut dvi: Vec<f32> = uvec.iter().map(|x| dz * x).collect();
        let denom = self.histories[user.index()].len().max(1) as f32;
        for &(j, w) in &parts {
            let ji = self.alignment[j.index()].index();
            let vj = self.entities.row(ji).to_vec();
            // z += w · vjᵀvi.
            for k in 0..vi.len() {
                dvi[k] += dz * w * vj[k];
            }
            let dvj: Vec<f32> = vi.iter().map(|x| dz * w * x).collect();
            self.entities.add_to_row(ji, -lr, &dvj);
            // Attention learning: dL/dα_r = dz · count_r · (vjᵀvi)/denom.
            let s = vector::dot(&vj, &vi);
            for (r, c) in self.connections(item, j) {
                let dalpha = dz * c * s / denom;
                // Through softmax: affects u and relation embeddings.
                let ds = dalpha * alpha[r.index()] * (1.0 - alpha[r.index()]);
                let remb = self.relations.row(r.index()).to_vec();
                vector::axpy(ds, &remb, &mut du);
                let scaled: Vec<f32> = uvec.iter().map(|x| ds * x).collect();
                self.relations.add_to_row(r.index(), -lr, &scaled);
            }
        }
        for (g, p) in du.iter_mut().zip(uvec.iter()) {
            *g += l2 * p;
        }
        self.users.add_to_row(user.index(), -lr, &du);
        self.entities.add_to_row(ii, -lr, &dvi);
    }

    /// One DistMult step on a labeled KG triple (the multi-task side).
    fn kg_step(&mut self, t: kgrec_graph::Triple, label: f32, lr: f32) {
        let w = self.config.kg_weight;
        let hv = self.entities.row(t.head.index()).to_vec();
        let rv = self.relations.row(t.rel.index()).to_vec();
        let tv = self.entities.row(t.tail.index()).to_vec();
        let s: f32 = (0..hv.len()).map(|i| hv[i] * rv[i] * tv[i]).sum();
        let dz = (vector::sigmoid(s) - label) * w;
        let gh: Vec<f32> = (0..hv.len()).map(|i| dz * rv[i] * tv[i]).collect();
        let gr: Vec<f32> = (0..hv.len()).map(|i| dz * hv[i] * tv[i]).collect();
        let gt: Vec<f32> = (0..hv.len()).map(|i| dz * hv[i] * rv[i]).collect();
        self.entities.add_to_row(t.head.index(), -lr, &gh);
        self.relations.add_to_row(t.rel.index(), -lr, &gr);
        self.entities.add_to_row(t.tail.index(), -lr, &gt);
    }
}

impl Recommender for Rcf {
    fn name(&self) -> &'static str {
        "RCF"
    }

    fn taxonomy(&self) -> Taxonomy {
        taxonomy_of("RCF")
    }

    fn fit(&mut self, ctx: &TrainContext<'_>) -> Result<(), CoreError> {
        let mut rng = StdRng::seed_from_u64(self.config.seed);
        let dim = self.config.dim;
        let graph = &ctx.dataset.graph;
        let scale = 1.0 / (dim as f32).sqrt();
        self.users = EmbeddingTable::uniform(&mut rng, ctx.num_users(), dim, scale);
        self.entities = EmbeddingTable::uniform(&mut rng, graph.num_entities(), dim, scale);
        self.num_relations = graph.num_relations().max(1);
        self.relations = EmbeddingTable::uniform(&mut rng, self.num_relations, dim, scale);
        self.alignment = ctx.dataset.item_entities.clone();
        // Attribute sets per item (base relations only — inverses carry
        // no extra information for shared-attribute connections).
        let base = graph.num_base_relations();
        self.item_attrs = self
            .alignment
            .iter()
            .map(|&e| {
                let mut set: Vec<(RelationId, EntityId)> =
                    graph.neighbors(e).filter(|&(r, _)| r.index() < base).collect();
                set.sort();
                set
            })
            .collect();
        self.histories =
            (0..ctx.num_users()).map(|u| ctx.train.items_of(UserId(u as u32)).to_vec()).collect();
        let lr = self.config.learning_rate;
        let num_triples = graph.num_triples();
        for _ in 0..self.config.epochs {
            for _ in 0..ctx.train.num_interactions() {
                let Some((u, pos)) = sample_observed(ctx.train, &mut rng) else { break };
                self.rec_step(u, pos, 1.0, lr);
                if let Some(neg) = sample_negative(ctx.train, u, &mut rng) {
                    self.rec_step(u, neg, 0.0, lr);
                }
                // Joint KG task, one positive + one corrupted triple.
                if num_triples > 0 {
                    let pos_t = graph.triple_at(rng.gen_range(0..num_triples));
                    self.kg_step(pos_t, 1.0, lr);
                    let neg_t = corrupt(graph, pos_t, &mut rng);
                    self.kg_step(neg_t, 0.0, lr);
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
        let mut m = Rcf::default_config();
        m.fit(&TrainContext::new(&synth.dataset, &split.train)).unwrap();
        let mut rng = StdRng::seed_from_u64(5);
        let pairs = labeled_eval_set(&split.train, &split.test, 4, &mut rng);
        let rep = evaluate_ctr(&m, &pairs);
        assert!(rep.auc > 0.6, "AUC {}", rep.auc);
    }

    #[test]
    fn connections_count_shared_attributes() {
        let synth = generate(&ScenarioConfig::tiny(), 3);
        let split = ratio_split(&synth.dataset.interactions, 0.2, 1);
        let mut m = Rcf::new(RcfConfig { epochs: 1, ..Default::default() });
        m.fit(&TrainContext::new(&synth.dataset, &split.train)).unwrap();
        // Connections are symmetric and nonnegative.
        for a in 0..10u32 {
            for b in 0..10u32 {
                let ab = m.connections(ItemId(a), ItemId(b));
                let ba = m.connections(ItemId(b), ItemId(a));
                let sum_ab: f32 = ab.iter().map(|&(_, c)| c).sum();
                let sum_ba: f32 = ba.iter().map(|&(_, c)| c).sum();
                assert_eq!(sum_ab, sum_ba);
            }
        }
        // An item shares all its attributes with itself.
        let self_conn = m.connections(ItemId(0), ItemId(0));
        let total: f32 = self_conn.iter().map(|&(_, c)| c).sum();
        assert_eq!(total as usize, m.item_attrs[0].len());
    }

    #[test]
    fn attention_is_distribution() {
        let synth = generate(&ScenarioConfig::tiny(), 4);
        let split = ratio_split(&synth.dataset.interactions, 0.2, 1);
        let mut m = Rcf::new(RcfConfig { epochs: 1, ..Default::default() });
        m.fit(&TrainContext::new(&synth.dataset, &split.train)).unwrap();
        let (_, _, alpha) = m.forward(UserId(0), ItemId(0));
        let s: f32 = alpha.iter().sum();
        assert!((s - 1.0).abs() < 1e-4);
    }
}
