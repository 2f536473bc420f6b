//! MCRec-lite (Hu et al. 2018): meta-path context with co-attention.
//!
//! For a user–item pair, sampled path instances are grouped by their
//! meta-path (relation signature); each instance is embedded (mean of
//! entity embeddings — the CNN of the paper replaced by pooling, see
//! `DESIGN.md` §2), instances max-pool into a meta-path embedding, and an
//! attention over meta-paths conditioned on the pair produces the
//! interaction context `h`. The score is an MLP on `u ⊕ h ⊕ v`
//! (survey Eqs. 19–20).

use crate::common::{sample_observed, taxonomy_of};
use crate::pathbased::util::{index_user_paths, UserPathIndex};
use kgrec_core::{CoreError, Recommender, Taxonomy, TrainContext};
use kgrec_data::negative::sample_negative;
use kgrec_data::{ItemId, UserId};
use kgrec_graph::paths::Path;
use kgrec_linalg::{vector, Activation, EmbeddingTable, Mlp};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// MCRec-lite hyper-parameters.
#[derive(Debug, Clone)]
pub(crate) struct McRecLiteConfig {
    /// Embedding dimension.
    pub dim: usize,
    /// Maximum path hops.
    pub max_hops: usize,
    /// Instances kept per (user, item) pair.
    pub max_paths_per_item: usize,
    /// Total path cap per user.
    pub max_paths_per_user: usize,
    /// Training epochs.
    pub epochs: usize,
    /// Learning rate.
    pub learning_rate: f32,
    /// RNG seed.
    pub seed: u64,
}

impl Default for McRecLiteConfig {
    fn default() -> Self {
        Self {
            dim: 16,
            max_hops: 3,
            max_paths_per_item: 4,
            max_paths_per_user: 600,
            epochs: 8,
            learning_rate: 0.05,
            seed: 79,
        }
    }
}

/// The MCRec-lite model.
#[derive(Debug)]
pub(crate) struct McRecLite {
    /// Hyper-parameters.
    pub config: McRecLiteConfig,
    users: EmbeddingTable,
    items: EmbeddingTable,
    entities: EmbeddingTable,
    scorer: Option<Mlp>,
    path_index: Vec<UserPathIndex>,
}

/// Forward state retained for the backward pass.
struct Forward {
    /// Per meta-path group: (argmax instance index within the group,
    /// pooled/chosen instance embedding).
    groups: Vec<(usize, Vec<f32>)>,
    attention: Vec<f32>,
    h: Vec<f32>,
}

impl McRecLite {
    /// Creates an unfitted model.
    pub(crate) fn new(config: McRecLiteConfig) -> Self {
        Self {
            config,
            users: EmbeddingTable::zeros(0, 1),
            items: EmbeddingTable::zeros(0, 1),
            entities: EmbeddingTable::zeros(0, 1),
            scorer: None,
            path_index: Vec::new(),
        }
    }

    /// Creates a model with default hyper-parameters.
    pub(crate) fn default_config() -> Self {
        Self::new(McRecLiteConfig::default())
    }

    /// Groups paths by relation signature (their meta-path).
    fn group_paths(paths: &[Path]) -> Vec<Vec<&Path>> {
        let mut groups: Vec<(Vec<u32>, Vec<&Path>)> = Vec::new();
        for p in paths {
            let sig: Vec<u32> = p.relations.iter().map(|r| r.0).collect();
            match groups.iter_mut().find(|(s, _)| *s == sig) {
                Some((_, v)) => v.push(p),
                None => groups.push((sig, vec![p])),
            }
        }
        groups.into_iter().map(|(_, v)| v).collect()
    }

    /// Instance embedding: mean of the path's entity embeddings
    /// (excluding the user source, whose signal is the user embedding).
    fn instance_embedding(&self, p: &Path) -> Vec<f32> {
        let ids: Vec<usize> = p.entities[1..].iter().map(|e| e.index()).collect();
        self.entities.mean_of_rows(&ids)
    }

    /// Forward pass of the context module; `None` when no paths exist.
    fn context(&self, user: UserId, item: ItemId, paths: &[Path]) -> Option<Forward> {
        if paths.is_empty() {
            return None;
        }
        let uv = self.users.row(user.index());
        let iv = self.items.row(item.index());
        let groups = Self::group_paths(paths);
        // Per group: max-pool over instance embeddings by attention key
        // — the "max" is taken over the instance's dot with (u + v),
        // which routes gradients to a single argmax instance (the
        // standard max-pool backward).
        let key = vector::add(uv, iv);
        let mut pooled: Vec<(usize, Vec<f32>)> = Vec::with_capacity(groups.len());
        for g in &groups {
            let mut best = (f32::NEG_INFINITY, 0usize);
            let embs: Vec<Vec<f32>> = g.iter().map(|p| self.instance_embedding(p)).collect();
            for (i, e) in embs.iter().enumerate() {
                let s = vector::dot(e, &key);
                if s > best.0 {
                    best = (s, i);
                }
            }
            pooled.push((best.1, embs[best.1].clone()));
        }
        // Attention over meta-path groups.
        let mut att: Vec<f32> = pooled.iter().map(|(_, e)| vector::dot(e, &key)).collect();
        vector::softmax_in_place(&mut att);
        let mut h = vec![0.0f32; self.config.dim];
        for (a, (_, e)) in att.iter().zip(pooled.iter()) {
            vector::axpy(*a, e, &mut h);
        }
        Some(Forward { groups: pooled, attention: att, h })
    }

    /// One BCE step.
    fn step(&mut self, user: UserId, item: ItemId, paths: &[Path], label: f32, lr: f32) {
        let Some(fwd) = self.context(user, item, paths) else { return };
        let uv = self.users.row(user.index()).to_vec();
        let iv = self.items.row(item.index()).to_vec();
        let input: Vec<f32> = uv.iter().chain(fwd.h.iter()).chain(iv.iter()).copied().collect();
        let scorer = self.scorer.as_mut().expect("fit initializes scorer");
        scorer.zero_grad();
        let z = scorer.forward(&input)[0];
        let dz = vector::sigmoid(z) - label;
        let dinput = scorer.backward(&[dz]);
        scorer.step_sgd(lr, 1e-5);
        let d = self.config.dim;
        let mut du = dinput[..d].to_vec();
        let dh = &dinput[d..2 * d];
        let mut dv = dinput[2 * d..].to_vec();
        // h = Σ a_l e_l: backprop through attention.
        let key = vector::add(&uv, &iv);
        let dl_da: Vec<f32> = fwd.groups.iter().map(|(_, e)| vector::dot(dh, e)).collect();
        let dl_dz_att = vector::softmax_backward(&fwd.attention, &dl_da);
        // Gather per-group embedding grads and key grads.
        let mut dkey = vec![0.0f32; d];
        let groups = Self::group_paths(paths);
        for (l, (arg, e)) in fwd.groups.iter().enumerate() {
            // dL/de_l = a_l·dh + dz_l·key (attention score = e·key).
            let mut de: Vec<f32> = dh.iter().map(|x| fwd.attention[l] * x).collect();
            vector::axpy(dl_dz_att[l], &key, &mut de);
            vector::axpy(dl_dz_att[l], e, &mut dkey);
            // Scatter to the argmax instance's entities (mean pooling).
            let p = groups[l][*arg];
            let k = (p.entities.len() - 1) as f32;
            for ent in &p.entities[1..] {
                self.entities.add_to_row(ent.index(), -lr / k, &de);
            }
        }
        // key = u + v.
        vector::axpy(1.0, &dkey, &mut du);
        vector::axpy(1.0, &dkey, &mut dv);
        self.users.add_to_row(user.index(), -lr, &du);
        self.items.add_to_row(item.index(), -lr, &dv);
    }
}

impl Recommender for McRecLite {
    fn name(&self) -> &'static str {
        "MCRec"
    }

    fn taxonomy(&self) -> Taxonomy {
        taxonomy_of("MCRec")
    }

    fn fit(&mut self, ctx: &TrainContext<'_>) -> Result<(), CoreError> {
        let mut rng = StdRng::seed_from_u64(self.config.seed);
        let dim = self.config.dim;
        let scale = 1.0 / (dim as f32).sqrt();
        self.users = EmbeddingTable::uniform(&mut rng, ctx.num_users(), dim, scale);
        self.items = EmbeddingTable::uniform(&mut rng, ctx.num_items(), dim, scale);
        let uig = ctx.dataset.user_item_graph(ctx.train);
        self.entities = EmbeddingTable::uniform(&mut rng, uig.graph.num_entities(), dim, scale);
        self.scorer =
            Some(Mlp::new(&mut rng, &[3 * dim, dim, 1], Activation::Relu, Activation::Identity));
        self.path_index = (0..ctx.num_users())
            .map(|u| {
                index_user_paths(
                    &uig,
                    UserId(u as u32),
                    self.config.max_hops,
                    self.config.max_paths_per_item,
                    self.config.max_paths_per_user,
                )
            })
            .collect();
        let lr = self.config.learning_rate;
        for _ in 0..self.config.epochs {
            for _ in 0..ctx.train.num_interactions() {
                let Some((u, pos)) = sample_observed(ctx.train, &mut rng) else { break };
                let pos_paths = self.path_index[u.index()].paths_to(pos).to_vec();
                self.step(u, pos, &pos_paths, 1.0, lr);
                if let Some(neg) = sample_negative(ctx.train, u, &mut rng) {
                    let neg_paths = self.path_index[u.index()].paths_to(neg).to_vec();
                    self.step(u, neg, &neg_paths, 0.0, lr);
                }
            }
        }
        Ok(())
    }

    fn score(&self, user: UserId, item: ItemId) -> f32 {
        let paths = self.path_index[user.index()].paths_to(item);
        match self.context(user, item, paths) {
            Some(fwd) => {
                let uv = self.users.row(user.index());
                let iv = self.items.row(item.index());
                let input: Vec<f32> =
                    uv.iter().chain(fwd.h.iter()).chain(iv.iter()).copied().collect();
                self.scorer.as_ref().expect("McRecLite: fit before score").infer(&input)[0]
            }
            None => -30.0,
        }
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

    #[test]
    fn beats_chance_on_planted_data() {
        let synth = generate(&ScenarioConfig::tiny(), 42);
        let split = ratio_split(&synth.dataset.interactions, 0.2, 1);
        let mut m = McRecLite::default_config();
        m.fit(&TrainContext::new(&synth.dataset, &split.train)).unwrap();
        let mut rng = StdRng::seed_from_u64(5);
        let pairs = labeled_eval_set(&split.train, &split.test, 4, &mut rng);
        let rep = evaluate_ctr(&m, &pairs);
        assert!(rep.auc > 0.6, "AUC {}", rep.auc);
    }

    #[test]
    fn groups_split_by_relation_signature() {
        let synth = generate(&ScenarioConfig::tiny(), 3);
        let split = ratio_split(&synth.dataset.interactions, 0.2, 1);
        let mut m = McRecLite::new(McRecLiteConfig { epochs: 1, ..Default::default() });
        m.fit(&TrainContext::new(&synth.dataset, &split.train)).unwrap();
        // Pick a pair with several paths.
        for idx in &m.path_index {
            for bucket in &idx.by_item {
                if bucket.len() >= 2 {
                    let groups = McRecLite::group_paths(bucket);
                    let total: usize = groups.iter().map(Vec::len).sum();
                    assert_eq!(total, bucket.len());
                    // Signatures within a group agree.
                    for g in &groups {
                        let sig: Vec<u32> = g[0].relations.iter().map(|r| r.0).collect();
                        for p in g {
                            let s2: Vec<u32> = p.relations.iter().map(|r| r.0).collect();
                            assert_eq!(sig, s2);
                        }
                    }
                    return;
                }
            }
        }
    }

    #[test]
    fn attention_is_distribution() {
        let synth = generate(&ScenarioConfig::tiny(), 4);
        let split = ratio_split(&synth.dataset.interactions, 0.2, 1);
        let mut m = McRecLite::new(McRecLiteConfig { epochs: 1, ..Default::default() });
        m.fit(&TrainContext::new(&synth.dataset, &split.train)).unwrap();
        for (u, idx) in m.path_index.iter().enumerate() {
            for (i, bucket) in idx.by_item.iter().enumerate() {
                if !bucket.is_empty() {
                    let fwd = m.context(UserId(u as u32), ItemId(i as u32), bucket).unwrap();
                    let s: f32 = fwd.attention.iter().sum();
                    assert!((s - 1.0).abs() < 1e-4);
                    return;
                }
            }
        }
    }
}
