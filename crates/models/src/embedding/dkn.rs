//! DKN-lite (Wang et al. 2018): knowledge-aware news recommendation.
//!
//! Each news item is represented as `text ⊕ knowledge`: the mean of its
//! (trainable) word embeddings concatenated with a frozen entity
//! embedding pre-trained with TransD on the item KG — exactly where DKN
//! injects knowledge. The user is an attention-weighted sum of clicked
//! news conditioned on the candidate (survey Eqs. 4–5), and the scorer is
//! an MLP on `u ⊕ v` (Eq. 1 with a DNN `f`).
//!
//! Simplification vs. the paper: Kim-CNN over word sequences is replaced
//! by mean pooling, and the attention network `g` by a dot product — the
//! taxonomy-relevant structure (text channel + knowledge channel +
//! click-history attention) is preserved; see `DESIGN.md` §2.

use crate::common::{sample_observed, taxonomy_of};
use kgrec_core::{CoreError, Recommender, Taxonomy, TrainContext};
use kgrec_data::negative::sample_negative;
use kgrec_data::{ItemId, UserId};
use kgrec_kge::{train as kge_train, KgeModel, TrainConfig, TransD};
use kgrec_linalg::{vector, Activation, EmbeddingTable, Mlp};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// DKN-lite hyper-parameters.
#[derive(Debug, Clone)]
pub struct DknConfig {
    /// Word/entity embedding dimension (news vectors are `2·dim`).
    pub dim: usize,
    /// Maximum clicked-news history used for the user representation.
    pub max_history: usize,
    /// Training epochs.
    pub epochs: usize,
    /// Learning rate.
    pub learning_rate: f32,
    /// TransD pre-training epochs on the item KG.
    pub kge_epochs: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for DknConfig {
    fn default() -> Self {
        Self { dim: 16, max_history: 20, epochs: 20, learning_rate: 0.05, kge_epochs: 15, seed: 41 }
    }
}

/// The DKN-lite model.
#[derive(Debug)]
pub struct DknLite {
    /// Hyper-parameters.
    pub config: DknConfig,
    words: EmbeddingTable,
    /// Frozen knowledge channel: one vector per item.
    knowledge: Vec<Vec<f32>>,
    item_words: Vec<Vec<u32>>,
    histories: Vec<Vec<ItemId>>,
    scorer: Option<Mlp>,
}

impl DknLite {
    /// Creates an unfitted model.
    pub fn new(config: DknConfig) -> Self {
        Self {
            config,
            words: EmbeddingTable::zeros(0, 1),
            knowledge: Vec::new(),
            item_words: Vec::new(),
            histories: Vec::new(),
            scorer: None,
        }
    }

    /// Creates a model with default hyper-parameters.
    pub fn default_config() -> Self {
        Self::new(DknConfig::default())
    }

    /// News vector `v_j = mean(words) ⊕ knowledge` (length `2·dim`).
    fn news_vec(&self, item: ItemId) -> Vec<f32> {
        let ids: Vec<usize> = self.item_words[item.index()].iter().map(|&w| w as usize).collect();
        let mut v = self.words.mean_of_rows(&ids);
        v.extend_from_slice(&self.knowledge[item.index()]);
        v
    }

    /// Attention-weighted user vector against a candidate, returning
    /// `(u, clicked_vecs, attention)` for backprop.
    fn user_vec(&self, user: UserId, cand: &[f32]) -> (Vec<f32>, Vec<Vec<f32>>, Vec<f32>) {
        let hist = &self.histories[user.index()];
        let dim2 = cand.len();
        if hist.is_empty() {
            return (vec![0.0; dim2], Vec::new(), Vec::new());
        }
        let clicked: Vec<Vec<f32>> = hist.iter().map(|&i| self.news_vec(i)).collect();
        let mut scores: Vec<f32> = clicked.iter().map(|v| vector::dot(v, cand)).collect();
        vector::softmax_in_place(&mut scores);
        let mut u = vec![0.0f32; dim2];
        for (p, v) in scores.iter().zip(clicked.iter()) {
            vector::axpy(*p, v, &mut u);
        }
        (u, clicked, scores)
    }

    /// One BCE SGD step on `(user, item, label)`.
    fn step(&mut self, user: UserId, item: ItemId, label: f32, lr: f32) {
        let cand = self.news_vec(item);
        let (u, clicked, attn) = self.user_vec(user, &cand);
        let input: Vec<f32> = u.iter().chain(cand.iter()).copied().collect();
        let scorer = self.scorer.as_mut().expect("fit initializes scorer");
        scorer.zero_grad();
        let z = scorer.forward(&input)[0];
        let dz = vector::sigmoid(z) - label;
        let dinput = scorer.backward(&[dz]);
        scorer.step_sgd(lr, 1e-5);
        let dim2 = cand.len();
        let du = &dinput[..dim2];
        let mut dcand = dinput[dim2..].to_vec();
        // Backprop through attention: u = Σ p_k v_k, p = softmax(z),
        // z_k = v_k·cand.
        let mut dclicked: Vec<Vec<f32>> = clicked
            .iter()
            .map(|v| {
                // direct term p_k · du
                let _ = v;
                vec![0.0f32; dim2]
            })
            .collect();
        if !clicked.is_empty() {
            let dl_dp: Vec<f32> = clicked.iter().map(|v| vector::dot(du, v)).collect();
            let dl_dz = vector::softmax_backward(&attn, &dl_dp);
            for k in 0..clicked.len() {
                // dL/dv_k = p_k·du + dz_k·cand
                for i in 0..dim2 {
                    dclicked[k][i] = attn[k] * du[i] + dl_dz[k] * cand[i];
                }
                // dL/dcand += dz_k · v_k
                vector::axpy(dl_dz[k], &clicked[k], &mut dcand);
            }
        }
        // Scatter word-channel gradients (first `dim` coordinates) to the
        // word table; the knowledge channel is frozen.
        let dim = self.config.dim;
        let hist = self.histories[user.index()].clone();
        for (k, grad) in dclicked.iter().enumerate() {
            self.scatter_word_grad(hist[k], &grad[..dim], lr);
        }
        self.scatter_word_grad(item, &dcand[..dim], lr);
    }

    /// Word-table update for the mean-pooled text channel.
    fn scatter_word_grad(&mut self, item: ItemId, grad: &[f32], lr: f32) {
        let ids = self.item_words[item.index()].clone();
        if ids.is_empty() {
            return;
        }
        let scale = -lr / ids.len() as f32;
        for w in ids {
            self.words.add_to_row(w as usize, scale, grad);
        }
    }
}

impl Recommender for DknLite {
    fn name(&self) -> &'static str {
        "DKN"
    }

    fn taxonomy(&self) -> Taxonomy {
        taxonomy_of("DKN")
    }

    fn prepare_retry(&mut self, attempt: u32) -> bool {
        self.config.learning_rate *= 0.5;
        self.config.seed = self.config.seed.wrapping_add(u64::from(attempt)).wrapping_mul(31);
        true
    }

    fn fit(&mut self, ctx: &TrainContext<'_>) -> Result<(), CoreError> {
        let words = ctx.dataset.item_words.as_ref().ok_or_else(|| CoreError::InvalidDataset {
            message: "DKN requires per-item token lists (news titles)".into(),
        })?;
        let mut rng = StdRng::seed_from_u64(self.config.seed);
        let dim = self.config.dim;
        self.item_words = words.clone();
        self.words = EmbeddingTable::uniform(
            &mut rng,
            ctx.dataset.vocab_size.max(1),
            dim,
            1.0 / (dim as f32).sqrt(),
        );
        // Knowledge channel: TransD on the item KG, frozen afterwards.
        let graph = &ctx.dataset.graph;
        let mut kge =
            TransD::new(&mut rng, graph.num_entities(), graph.num_relations().max(1), dim, 1.0);
        if graph.num_triples() > 0 {
            kge_train(
                &mut kge,
                graph,
                &TrainConfig {
                    epochs: self.config.kge_epochs,
                    learning_rate: 0.05,
                    seed: self.config.seed.wrapping_add(1),
                    threads: None,
                },
            );
        }
        self.knowledge = ctx
            .dataset
            .item_entities
            .iter()
            .map(|&e| {
                // Entity itself averaged with its mentioned entities
                // (1-hop neighbors), the DKN "entity + context" trick.
                let mut v = kge.entity_embedding(e).to_vec();
                let mut count = 1.0f32;
                for (_, t) in graph.neighbors(e) {
                    vector::axpy(1.0, kge.entity_embedding(t), &mut v);
                    count += 1.0;
                }
                vector::scale(&mut v, 1.0 / count);
                v
            })
            .collect();
        // Histories (capped).
        self.histories = (0..ctx.num_users())
            .map(|u| {
                ctx.train
                    .items_of(UserId(u as u32))
                    .iter()
                    .take(self.config.max_history)
                    .copied()
                    .collect()
            })
            .collect();
        self.scorer = Some(Mlp::new(
            &mut rng,
            &[4 * dim, 2 * dim, 1],
            Activation::Relu,
            Activation::Identity,
        ));
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
        let cand = self.news_vec(item);
        let (u, _, _) = self.user_vec(user, &cand);
        let input: Vec<f32> = u.iter().chain(cand.iter()).copied().collect();
        self.scorer.as_ref().expect("DknLite: fit before score").infer(&input)[0]
    }

    fn num_items(&self) -> usize {
        self.item_words.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kgrec_core::protocol::evaluate_ctr;
    use kgrec_data::negative::labeled_eval_set;
    use kgrec_data::split::ratio_split;
    use kgrec_data::synth::{generate, ScenarioConfig};

    fn news_tiny() -> ScenarioConfig {
        let mut c = ScenarioConfig::tiny();
        c.words_per_item = Some(6);
        c.name = "tiny-news".into();
        c
    }

    #[test]
    fn requires_token_lists() {
        let synth = generate(&ScenarioConfig::tiny(), 1);
        let split = ratio_split(&synth.dataset.interactions, 0.2, 1);
        let mut m = DknLite::default_config();
        let err = m.fit(&TrainContext::new(&synth.dataset, &split.train)).unwrap_err();
        assert!(err.to_string().contains("token lists"));
    }

    #[test]
    fn beats_chance_on_planted_news() {
        let synth = generate(&news_tiny(), 42);
        let split = ratio_split(&synth.dataset.interactions, 0.2, 1);
        let mut m = DknLite::new(DknConfig { epochs: 15, ..Default::default() });
        m.fit(&TrainContext::new(&synth.dataset, &split.train)).unwrap();
        let mut rng = StdRng::seed_from_u64(5);
        let pairs = labeled_eval_set(&split.train, &split.test, 4, &mut rng);
        let rep = evaluate_ctr(&m, &pairs);
        assert!(rep.auc > 0.6, "AUC {}", rep.auc);
    }

    #[test]
    fn news_vec_concatenates_channels() {
        let synth = generate(&news_tiny(), 3);
        let split = ratio_split(&synth.dataset.interactions, 0.2, 1);
        let mut m = DknLite::new(DknConfig { epochs: 1, ..Default::default() });
        m.fit(&TrainContext::new(&synth.dataset, &split.train)).unwrap();
        let v = m.news_vec(ItemId(0));
        assert_eq!(v.len(), 2 * m.config.dim);
    }

    #[test]
    fn empty_history_user_scores_finite() {
        let synth = generate(&news_tiny(), 4);
        // Craft a train matrix where user 0 has nothing.
        let empty_train = kgrec_data::InteractionMatrix::from_interactions(
            synth.dataset.interactions.num_users(),
            synth.dataset.interactions.num_items(),
            &synth
                .dataset
                .interactions
                .iter()
                .filter(|(u, _, _)| u.0 != 0)
                .map(|(u, i, _)| kgrec_data::Interaction::implicit(u, i))
                .collect::<Vec<_>>(),
        );
        let mut m = DknLite::new(DknConfig { epochs: 1, ..Default::default() });
        m.fit(&TrainContext::new(&synth.dataset, &empty_train)).unwrap();
        assert!(m.score(UserId(0), ItemId(0)).is_finite());
    }
}
