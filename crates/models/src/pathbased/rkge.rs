//! RKGE (Sun et al. 2018): recurrent knowledge graph embedding.
//!
//! Paths connecting a user to a candidate item are enumerated
//! automatically (no hand-picked meta-paths — the paper's selling point),
//! each path's entity/relation sequence is encoded by a recurrent network,
//! the final hidden states are average-pooled (survey Eq. 19), and a
//! linear layer maps the pooled state to the preference score (Eq. 20).
//! Training is BCE with negative sampling and full BPTT into the entity
//! and relation embeddings.
//!
//! KPRN's refinement — feeding the relation of each hop alongside the
//! entity — is included: the RNN input at step `t` is
//! `ent_emb[e_t] + rel_emb[r_t]`.

use crate::common::{sample_observed, taxonomy_of};
use crate::pathbased::util::{index_user_paths, UserPathIndex};
use kgrec_core::{CoreError, Recommender, Taxonomy, TrainContext};
use kgrec_data::dataset::UserItemGraph;
use kgrec_data::negative::sample_negative;
use kgrec_data::{ItemId, UserId};
use kgrec_graph::paths::Path;
use kgrec_linalg::rnn::RnnCell;
use kgrec_linalg::{vector, EmbeddingTable};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// RKGE hyper-parameters.
#[derive(Debug, Clone)]
pub(crate) struct RkgeConfig {
    /// Embedding / hidden dimension.
    pub dim: usize,
    /// Maximum path length (hops).
    pub max_hops: usize,
    /// Paths kept per (user, item) pair.
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

impl Default for RkgeConfig {
    fn default() -> Self {
        Self {
            dim: 16,
            max_hops: 3,
            max_paths_per_item: 3,
            max_paths_per_user: 600,
            epochs: 8,
            learning_rate: 0.05,
            seed: 71,
        }
    }
}

/// The RKGE model.
#[derive(Debug)]
pub(crate) struct Rkge {
    /// Hyper-parameters.
    pub config: RkgeConfig,
    entities: EmbeddingTable,
    relations: EmbeddingTable,
    rnn: Option<RnnCell>,
    readout: Vec<f32>,
    readout_bias: f32,
    /// Cached per-user path indexes (the graph is static during fit).
    path_index: Vec<UserPathIndex>,
    uig: Option<UserItemGraph>,
}

impl Rkge {
    /// Creates an unfitted model.
    pub(crate) fn new(config: RkgeConfig) -> Self {
        Self {
            config,
            entities: EmbeddingTable::zeros(0, 1),
            relations: EmbeddingTable::zeros(0, 1),
            rnn: None,
            readout: Vec::new(),
            readout_bias: 0.0,
            path_index: Vec::new(),
            uig: None,
        }
    }

    /// Creates a model with default hyper-parameters.
    pub(crate) fn default_config() -> Self {
        Self::new(RkgeConfig::default())
    }

    /// Input sequence of a path: `ent_emb[e_t] + rel_emb[r_t]` for each
    /// hop (the source user entity is the RNN's implicit zero state).
    fn path_inputs(&self, path: &Path) -> Vec<Vec<f32>> {
        (0..path.relations.len())
            .map(|t| {
                let mut x = self.entities.row(path.entities[t + 1].index()).to_vec();
                vector::axpy(1.0, self.relations.row(path.relations[t].index()), &mut x);
                x
            })
            .collect()
    }

    /// Forward score for a path set; `None` when no paths connect the pair.
    fn forward(&self, paths: &[Path]) -> Option<f32> {
        if paths.is_empty() {
            return None;
        }
        let rnn = self.rnn.as_ref().expect("Rkge: fit before score");
        let mut pooled = vec![0.0f32; self.config.dim];
        for p in paths {
            let trace = rnn.forward(&self.path_inputs(p));
            vector::axpy(1.0, trace.final_hidden(), &mut pooled);
        }
        vector::scale(&mut pooled, 1.0 / paths.len() as f32);
        Some(vector::dot(&self.readout, &pooled) + self.readout_bias)
    }

    /// One BCE step over the paths of a (user, item, label) triple.
    fn step(&mut self, paths: &[Path], label: f32, lr: f32) {
        if paths.is_empty() {
            return;
        }
        let k = paths.len() as f32;
        // Forward with traces retained.
        let inputs: Vec<Vec<Vec<f32>>> = paths.iter().map(|p| self.path_inputs(p)).collect();
        let rnn = self.rnn.as_mut().expect("fit initializes rnn");
        let traces: Vec<_> = inputs.iter().map(|i| rnn.forward(i)).collect();
        let mut pooled = vec![0.0f32; self.config.dim];
        for t in &traces {
            vector::axpy(1.0 / k, t.final_hidden(), &mut pooled);
        }
        let z = vector::dot(&self.readout, &pooled) + self.readout_bias;
        let dz = vector::sigmoid(z) - label;
        // Readout grads.
        let dh_pool: Vec<f32> = self.readout.iter().map(|w| dz * w).collect();
        for (w, h) in self.readout.iter_mut().zip(pooled.iter()) {
            *w -= lr * dz * h;
        }
        self.readout_bias -= lr * dz;
        // BPTT per path.
        rnn.zero_grad();
        let dh_per_path: Vec<f32> = dh_pool.iter().map(|g| g / k).collect();
        let mut input_grads: Vec<Vec<Vec<f32>>> = Vec::with_capacity(paths.len());
        for trace in &traces {
            input_grads.push(rnn.backward(trace, &dh_per_path));
        }
        rnn.step_sgd(lr, 1.0);
        // Scatter input grads to entity and relation embeddings.
        for (p, grads) in paths.iter().zip(input_grads.iter()) {
            for (t, g) in grads.iter().enumerate() {
                self.entities.add_to_row(p.entities[t + 1].index(), -lr, g);
                self.relations.add_to_row(p.relations[t].index(), -lr, g);
            }
        }
    }
}

impl Recommender for Rkge {
    fn name(&self) -> &'static str {
        "RKGE"
    }

    fn taxonomy(&self) -> Taxonomy {
        taxonomy_of("RKGE")
    }

    fn fit(&mut self, ctx: &TrainContext<'_>) -> Result<(), CoreError> {
        let mut rng = StdRng::seed_from_u64(self.config.seed);
        let dim = self.config.dim;
        let uig = ctx.dataset.user_item_graph(ctx.train);
        self.entities = EmbeddingTable::uniform(
            &mut rng,
            uig.graph.num_entities(),
            dim,
            1.0 / (dim as f32).sqrt(),
        );
        self.relations = EmbeddingTable::uniform(
            &mut rng,
            uig.graph.num_relations().max(1),
            dim,
            1.0 / (dim as f32).sqrt(),
        );
        self.rnn = Some(RnnCell::new(&mut rng, dim, dim));
        let mut readout = vec![0.0f32; dim];
        kgrec_linalg::init::uniform(&mut rng, &mut readout, -0.3, 0.3);
        self.readout = readout;
        self.readout_bias = 0.0;
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
        self.uig = Some(uig);
        let lr = self.config.learning_rate;
        for _ in 0..self.config.epochs {
            for _ in 0..ctx.train.num_interactions() {
                let Some((u, pos)) = sample_observed(ctx.train, &mut rng) else { break };
                let pos_paths = self.path_index[u.index()].paths_to(pos).to_vec();
                self.step(&pos_paths, 1.0, lr);
                if let Some(neg) = sample_negative(ctx.train, u, &mut rng) {
                    let neg_paths = self.path_index[u.index()].paths_to(neg).to_vec();
                    self.step(&neg_paths, 0.0, lr);
                }
            }
        }
        Ok(())
    }

    fn score(&self, user: UserId, item: ItemId) -> f32 {
        // Unreachable pairs score far below any connected pair: the
        // paper's model simply has no evidence for them.
        self.forward(self.path_index[user.index()].paths_to(item)).unwrap_or(-30.0)
    }

    fn num_items(&self) -> usize {
        self.path_index.first().map_or(0, |idx| idx.by_item.len())
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
        let mut m = Rkge::default_config();
        m.fit(&TrainContext::new(&synth.dataset, &split.train)).unwrap();
        let mut rng = StdRng::seed_from_u64(5);
        let pairs = labeled_eval_set(&split.train, &split.test, 4, &mut rng);
        let rep = evaluate_ctr(&m, &pairs);
        assert!(rep.auc > 0.6, "AUC {}", rep.auc);
    }

    #[test]
    fn unreachable_items_get_floor_score() {
        let synth = generate(&ScenarioConfig::tiny(), 3);
        let split = ratio_split(&synth.dataset.interactions, 0.2, 1);
        let mut m = Rkge::new(RkgeConfig { epochs: 1, ..Default::default() });
        m.fit(&TrainContext::new(&synth.dataset, &split.train)).unwrap();
        // Find an unreachable (user, item) pair, if any.
        for u in 0..synth.dataset.interactions.num_users() {
            for i in 0..synth.dataset.interactions.num_items() {
                if m.path_index[u].paths_to(ItemId(i as u32)).is_empty() {
                    assert_eq!(m.score(UserId(u as u32), ItemId(i as u32)), -30.0);
                    return;
                }
            }
        }
        // Densely connected graph: nothing to assert.
    }

    #[test]
    fn path_inputs_combine_entity_and_relation() {
        let synth = generate(&ScenarioConfig::tiny(), 4);
        let split = ratio_split(&synth.dataset.interactions, 0.2, 1);
        let mut m = Rkge::new(RkgeConfig { epochs: 1, ..Default::default() });
        m.fit(&TrainContext::new(&synth.dataset, &split.train)).unwrap();
        // Any user with a path.
        let idx = &m.path_index[0];
        let path = idx.by_item.iter().flatten().next().expect("some path exists");
        let inputs = m.path_inputs(path);
        assert_eq!(inputs.len(), path.len());
        let expect = vector::add(
            m.entities.row(path.entities[1].index()),
            m.relations.row(path.relations[0].index()),
        );
        assert_eq!(inputs[0], expect);
    }
}
