//! MKR (Wang et al. 2019): multi-task feature learning with
//! cross&compress units.
//!
//! Two modules — a recommendation tower and a KGE tower — share
//! information through a cross&compress unit on each (item, aligned
//! entity) pair: with cross matrix `C = v·eᵀ`,
//!
//! ```text
//! v' = C·w_vv + Cᵀ·w_ev + b_v = (eᵀw_vv)·v + (vᵀw_ev)·e + b_v
//! e' = C·w_ve + Cᵀ·w_ee + b_e = (eᵀw_ve)·v + (vᵀw_ee)·e + b_e
//! ```
//!
//! The recommendation loss is BCE on `σ(uᵀv')`; the KGE loss is BCE on
//! `σ((e′_h + r)ᵀ t)` (a translation-scoring simplification of the
//! paper's tail-prediction MLP — the taxonomy-relevant property, shared
//! latent features regularizing both tasks through the unit, is intact).

use crate::common::{sample_observed, taxonomy_of};
use kgrec_core::{CoreError, Recommender, Taxonomy, TrainContext};
use kgrec_data::negative::sample_negative;
use kgrec_data::{ItemId, UserId};
use kgrec_kge::trainer::corrupt;
use kgrec_linalg::{vector, EmbeddingTable};
use rand::rngs::StdRng;
use rand::Rng;
use rand::SeedableRng;

/// MKR hyper-parameters.
#[derive(Debug, Clone)]
pub(crate) struct MkrConfig {
    /// Latent dimension.
    pub dim: usize,
    /// Training epochs.
    pub epochs: usize,
    /// Learning rate.
    pub learning_rate: f32,
    /// L2 regularization.
    pub l2: f32,
    /// Train the KGE tower every this many epochs (the paper's `t`).
    pub kge_interval: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for MkrConfig {
    fn default() -> Self {
        Self { dim: 16, epochs: 30, learning_rate: 0.05, l2: 1e-5, kge_interval: 3, seed: 31 }
    }
}

/// The cross&compress unit parameters.
#[derive(Debug, Clone)]
struct CrossUnit {
    w_vv: Vec<f32>,
    w_ev: Vec<f32>,
    w_ve: Vec<f32>,
    w_ee: Vec<f32>,
    b_v: Vec<f32>,
    b_e: Vec<f32>,
}

impl CrossUnit {
    fn new<R: Rng + ?Sized>(rng: &mut R, dim: usize) -> Self {
        let mut mk = |scale: f32| {
            let mut v = vec![0.0f32; dim];
            kgrec_linalg::init::uniform(rng, &mut v, -scale, scale);
            v
        };
        let s = 1.0 / (dim as f32).sqrt();
        Self {
            w_vv: mk(s),
            w_ev: mk(s),
            w_ve: mk(s),
            w_ee: mk(s),
            b_v: vec![0.0; dim],
            b_e: vec![0.0; dim],
        }
    }

    /// Forward: returns `(v', e', a, b, c, d)` with the four scalars.
    fn forward(&self, v: &[f32], e: &[f32]) -> (Vec<f32>, Vec<f32>, f32, f32, f32, f32) {
        let a = vector::dot(e, &self.w_vv);
        let b = vector::dot(v, &self.w_ev);
        let c = vector::dot(e, &self.w_ve);
        let d = vector::dot(v, &self.w_ee);
        let vp: Vec<f32> = (0..v.len()).map(|i| a * v[i] + b * e[i] + self.b_v[i]).collect();
        let ep: Vec<f32> = (0..v.len()).map(|i| c * v[i] + d * e[i] + self.b_e[i]).collect();
        (vp, ep, a, b, c, d)
    }
}

/// The MKR model.
#[derive(Debug)]
pub(crate) struct Mkr {
    /// Hyper-parameters.
    pub config: MkrConfig,
    users: EmbeddingTable,
    items: EmbeddingTable,
    entities: EmbeddingTable,
    relations: EmbeddingTable,
    cross: Option<CrossUnit>,
    alignment: Vec<kgrec_graph::EntityId>,
    /// Reverse alignment: entity index → item id (if the entity is an item).
    item_of_entity: Vec<Option<ItemId>>,
}

impl Mkr {
    /// Creates an unfitted model.
    pub(crate) fn new(config: MkrConfig) -> Self {
        Self {
            config,
            users: EmbeddingTable::zeros(0, 1),
            items: EmbeddingTable::zeros(0, 1),
            entities: EmbeddingTable::zeros(0, 1),
            relations: EmbeddingTable::zeros(0, 1),
            cross: None,
            alignment: Vec::new(),
            item_of_entity: Vec::new(),
        }
    }

    /// Creates a model with default hyper-parameters.
    pub(crate) fn default_config() -> Self {
        Self::new(MkrConfig::default())
    }

    /// The crossed item vector `v'` for scoring.
    fn crossed_item(&self, item: ItemId) -> Vec<f32> {
        let cross = self.cross.as_ref().expect("Mkr: fit before score");
        let v = self.items.row(item.index());
        let e = self.entities.row(self.alignment[item.index()].index());
        cross.forward(v, e).0
    }

    /// One recommendation-tower SGD step on `(u, item, label)`.
    fn rec_step(&mut self, u: UserId, item: ItemId, label: f32, lr: f32) {
        let l2 = self.config.l2;
        let ei = self.alignment[item.index()].index();
        let uv = self.users.row(u.index()).to_vec();
        let v = self.items.row(item.index()).to_vec();
        let e = self.entities.row(ei).to_vec();
        let cross = self.cross.as_mut().expect("fit initializes cross");
        let (vp, _, a, b, _, _) = cross.forward(&v, &e);
        let z = vector::dot(&uv, &vp);
        let dz = vector::sigmoid(z) - label;
        // dL/du = dz·v'; dL/dv' = dz·u.
        let dvp: Vec<f32> = uv.iter().map(|x| dz * x).collect();
        let dvp_v = vector::dot(&dvp, &v);
        let dvp_e = vector::dot(&dvp, &e);
        // Through the unit: dL/dv = a·dv' + (e·dv')·w_ev ; dL/de = b·dv' + (v·dv')·w_vv.
        let dv: Vec<f32> = (0..v.len()).map(|i| a * dvp[i] + dvp_e * cross.w_ev[i]).collect();
        let de: Vec<f32> = (0..v.len()).map(|i| b * dvp[i] + dvp_v * cross.w_vv[i]).collect();
        // Parameter grads.
        for i in 0..v.len() {
            cross.w_vv[i] -= lr * (dvp_v * e[i] + l2 * cross.w_vv[i]);
            cross.w_ev[i] -= lr * (dvp_e * v[i] + l2 * cross.w_ev[i]);
            cross.b_v[i] -= lr * dvp[i];
        }
        let urow = self.users.row_mut(u.index());
        for i in 0..urow.len() {
            urow[i] -= lr * (dz * vp[i] + l2 * urow[i]);
        }
        let vrow = self.items.row_mut(item.index());
        for i in 0..vrow.len() {
            vrow[i] -= lr * (dv[i] + l2 * vrow[i]);
        }
        let erow = self.entities.row_mut(ei);
        for i in 0..erow.len() {
            erow[i] -= lr * (de[i] + l2 * erow[i]);
        }
    }

    /// One KGE-tower SGD step on a labeled triple.
    fn kge_step(&mut self, triple: kgrec_graph::Triple, label: f32, lr: f32) {
        let l2 = self.config.l2;
        let hi = triple.head.index();
        let ri = triple.rel.index();
        let ti = triple.tail.index();
        let e_h = self.entities.row(hi).to_vec();
        let rv = self.relations.row(ri).to_vec();
        let tv = self.entities.row(ti).to_vec();
        // Crossed head when the head entity is an aligned item.
        let item = self.item_of_entity[hi];
        let (hp, back) = match item {
            Some(it) => {
                let v = self.items.row(it.index()).to_vec();
                let cross = self.cross.as_ref().expect("fit initializes cross");
                let (_, ep, _, _, c, d) = cross.forward(&v, &e_h);
                (ep, Some((it, v, c, d)))
            }
            None => (e_h.clone(), None),
        };
        let s: f32 = (0..hp.len()).map(|i| (hp[i] + rv[i]) * tv[i]).sum();
        let dz = vector::sigmoid(s) - label;
        let dhp: Vec<f32> = tv.iter().map(|x| dz * x).collect();
        let dr: Vec<f32> = dhp.clone();
        let dt: Vec<f32> = (0..hp.len()).map(|i| dz * (hp[i] + rv[i])).collect();
        match back {
            Some((it, v, c, d)) => {
                let dhp_v = vector::dot(&dhp, &v);
                let dhp_e = vector::dot(&dhp, &e_h);
                let cross = self.cross.as_mut().expect("fit initializes cross");
                let dv: Vec<f32> =
                    (0..v.len()).map(|i| c * dhp[i] + dhp_e * cross.w_ee[i]).collect();
                let de: Vec<f32> =
                    (0..v.len()).map(|i| d * dhp[i] + dhp_v * cross.w_ve[i]).collect();
                for i in 0..v.len() {
                    cross.w_ve[i] -= lr * (dhp_v * e_h[i] + l2 * cross.w_ve[i]);
                    cross.w_ee[i] -= lr * (dhp_e * v[i] + l2 * cross.w_ee[i]);
                    cross.b_e[i] -= lr * dhp[i];
                }
                let vrow = self.items.row_mut(it.index());
                for i in 0..vrow.len() {
                    vrow[i] -= lr * (dv[i] + l2 * vrow[i]);
                }
                let erow = self.entities.row_mut(hi);
                for i in 0..erow.len() {
                    erow[i] -= lr * (de[i] + l2 * erow[i]);
                }
            }
            None => {
                let erow = self.entities.row_mut(hi);
                for i in 0..erow.len() {
                    erow[i] -= lr * (dhp[i] + l2 * erow[i]);
                }
            }
        }
        let rrow = self.relations.row_mut(ri);
        for i in 0..rrow.len() {
            rrow[i] -= lr * (dr[i] + l2 * rrow[i]);
        }
        let trow = self.entities.row_mut(ti);
        for i in 0..trow.len() {
            trow[i] -= lr * (dt[i] + l2 * trow[i]);
        }
    }
}

impl Recommender for Mkr {
    fn name(&self) -> &'static str {
        "MKR"
    }

    fn taxonomy(&self) -> Taxonomy {
        taxonomy_of("MKR")
    }

    fn fit(&mut self, ctx: &TrainContext<'_>) -> Result<(), CoreError> {
        let mut rng = StdRng::seed_from_u64(self.config.seed);
        let dim = self.config.dim;
        let scale = 1.0 / (dim as f32).sqrt();
        let graph = &ctx.dataset.graph;
        self.users = EmbeddingTable::uniform(&mut rng, ctx.num_users(), dim, scale);
        self.items = EmbeddingTable::uniform(&mut rng, ctx.num_items(), dim, scale);
        self.entities = EmbeddingTable::uniform(&mut rng, graph.num_entities(), dim, scale);
        self.relations =
            EmbeddingTable::uniform(&mut rng, graph.num_relations().max(1), dim, scale);
        self.cross = Some(CrossUnit::new(&mut rng, dim));
        self.alignment = ctx.dataset.item_entities.clone();
        self.item_of_entity = vec![None; graph.num_entities()];
        for (j, e) in self.alignment.iter().enumerate() {
            self.item_of_entity[e.index()] = Some(ItemId(j as u32));
        }
        let lr = self.config.learning_rate;
        let num_triples = graph.num_triples();
        for epoch in 0..self.config.epochs {
            // Recommendation tower: one pass of |R| positive + negative.
            for _ in 0..ctx.train.num_interactions() {
                let Some((u, pos)) = sample_observed(ctx.train, &mut rng) else { break };
                self.rec_step(u, pos, 1.0, lr);
                if let Some(neg) = sample_negative(ctx.train, u, &mut rng) {
                    self.rec_step(u, neg, 0.0, lr);
                }
            }
            // KGE tower every `kge_interval` epochs.
            if num_triples > 0 && epoch % self.config.kge_interval.max(1) == 0 {
                for _ in 0..num_triples {
                    let pos = graph.triple_at(rng.gen_range(0..num_triples));
                    self.kge_step(pos, 1.0, lr);
                    let neg = corrupt(graph, pos, &mut rng);
                    self.kge_step(neg, 0.0, lr);
                }
            }
        }
        Ok(())
    }

    fn score(&self, user: UserId, item: ItemId) -> f32 {
        vector::dot(self.users.row(user.index()), &self.crossed_item(item))
    }

    fn num_items(&self) -> usize {
        self.items.len()
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
    fn cross_unit_gradients_match_finite_difference() {
        // Verify dL/dv for L = Σᵢ v'ᵢ through the unit.
        let mut rng = StdRng::seed_from_u64(1);
        let cross = CrossUnit::new(&mut rng, 4);
        let v = vec![0.3f32, -0.2, 0.5, 0.1];
        let e = vec![-0.4f32, 0.2, 0.6, -0.1];
        let (_, _, a, _, _, _) = cross.forward(&v, &e);
        // dL/dv' = 1 vector; dL/dv = a·1 + (e·1)·w_ev.
        let ones = vec![1.0f32; 4];
        let dvp_e = vector::dot(&ones, &e);
        let analytic: Vec<f32> = (0..4).map(|i| a + dvp_e * cross.w_ev[i]).collect();
        let mut params = v.clone();
        gradcheck::assert_gradient(&mut params, &analytic, 1e-3, 1e-2, |p| {
            cross.forward(p, &e).0.iter().sum()
        });
    }

    #[test]
    fn crossed_entity_gradients_match_finite_difference() {
        // dL/de for L = Σᵢ e'ᵢ: e' = c·v + (vᵀw_ee)·e + b_e,
        // ∂e'/∂e = d·I + v·w_veᵀ.
        let mut rng = StdRng::seed_from_u64(2);
        let cross = CrossUnit::new(&mut rng, 4);
        let v = vec![0.3f32, -0.2, 0.5, 0.1];
        let e = vec![-0.4f32, 0.2, 0.6, -0.1];
        let (_, _, _, _, _, d) = cross.forward(&v, &e);
        let ones = vec![1.0f32; 4];
        let dep_v = vector::dot(&ones, &v);
        let analytic: Vec<f32> = (0..4).map(|i| d + dep_v * cross.w_ve[i]).collect();
        let mut params = e.clone();
        gradcheck::assert_gradient(&mut params, &analytic, 1e-3, 1e-2, |p| {
            cross.forward(&v, p).1.iter().sum()
        });
    }

    #[test]
    fn beats_chance_on_planted_data() {
        let synth = generate(&ScenarioConfig::tiny(), 42);
        let split = ratio_split(&synth.dataset.interactions, 0.2, 1);
        let mut m = Mkr::default_config();
        m.fit(&TrainContext::new(&synth.dataset, &split.train)).unwrap();
        let mut rng = StdRng::seed_from_u64(5);
        let pairs = labeled_eval_set(&split.train, &split.test, 4, &mut rng);
        let rep = evaluate_ctr(&m, &pairs);
        assert!(rep.auc > 0.6, "AUC {}", rep.auc);
    }

    #[test]
    fn deterministic_given_seed() {
        let synth = generate(&ScenarioConfig::tiny(), 9);
        let split = ratio_split(&synth.dataset.interactions, 0.2, 1);
        let ctx = TrainContext::new(&synth.dataset, &split.train);
        let mut a = Mkr::new(MkrConfig { epochs: 2, ..Default::default() });
        let mut b = Mkr::new(MkrConfig { epochs: 2, ..Default::default() });
        a.fit(&ctx).unwrap();
        b.fit(&ctx).unwrap();
        assert_eq!(a.score(UserId(1), ItemId(1)), b.score(UserId(1), ItemId(1)));
    }
}
