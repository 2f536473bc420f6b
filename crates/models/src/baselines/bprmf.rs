//! Bayesian Personalized Ranking matrix factorization (Rendle et al.).
//!
//! The model-based CF baseline (latent factor model, survey Section 2.2):
//! `ŷ = uᵀv + b_v`, trained with the pairwise BPR objective
//! `−log σ(ŷ_pos − ŷ_neg)` over sampled `(user, pos, neg)` triples.

use crate::common::{baseline_taxonomy, sample_observed};
use kgrec_core::{CoreError, Recommender, Taxonomy, TrainContext};
use kgrec_data::negative::sample_negative;
use kgrec_data::{ItemId, UserId};
use kgrec_linalg::{vector, EmbeddingTable};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// BPR-MF hyper-parameters.
#[derive(Debug, Clone)]
pub struct BprMfConfig {
    /// Latent dimension.
    pub dim: usize,
    /// Training epochs (each epoch samples `|R|` triples).
    pub epochs: usize,
    /// SGD learning rate.
    pub learning_rate: f32,
    /// L2 regularization.
    pub l2: f32,
    /// RNG seed.
    pub seed: u64,
}

impl Default for BprMfConfig {
    fn default() -> Self {
        Self { dim: 16, epochs: 30, learning_rate: 0.05, l2: 1e-4, seed: 17 }
    }
}

/// BPR matrix factorization.
#[derive(Debug)]
pub struct BprMf {
    /// Hyper-parameters.
    pub config: BprMfConfig,
    users: EmbeddingTable,
    items: EmbeddingTable,
    item_bias: Vec<f32>,
}

impl BprMf {
    /// Creates an unfitted model.
    pub fn new(config: BprMfConfig) -> Self {
        Self {
            config,
            users: EmbeddingTable::zeros(0, 1),
            items: EmbeddingTable::zeros(0, 1),
            item_bias: Vec::new(),
        }
    }

    /// Creates a model with default hyper-parameters.
    pub fn default_config() -> Self {
        Self::new(BprMfConfig::default())
    }

    /// The learned item factors (available after `fit`).
    pub fn item_factors(&self) -> &EmbeddingTable {
        &self.items
    }
}

impl Recommender for BprMf {
    fn name(&self) -> &'static str {
        "BPR-MF"
    }

    fn taxonomy(&self) -> Taxonomy {
        baseline_taxonomy("BPR-MF")
    }

    fn prepare_retry(&mut self, attempt: u32) -> bool {
        self.config.learning_rate *= 0.5;
        self.config.seed = self.config.seed.wrapping_add(u64::from(attempt)).wrapping_mul(31);
        true
    }

    fn fit(&mut self, ctx: &TrainContext<'_>) -> Result<(), CoreError> {
        if self.config.dim == 0 {
            return Err(CoreError::InvalidConfig { message: "dim must be positive".into() });
        }
        let mut rng = StdRng::seed_from_u64(self.config.seed);
        let scale = 1.0 / (self.config.dim as f32).sqrt();
        self.users = EmbeddingTable::uniform(&mut rng, ctx.num_users(), self.config.dim, scale);
        self.items = EmbeddingTable::uniform(&mut rng, ctx.num_items(), self.config.dim, scale);
        self.item_bias = vec![0.0; ctx.num_items()];
        let (lr, l2) = (self.config.learning_rate, self.config.l2);
        let steps = ctx.train.num_interactions() * self.config.epochs;
        for _ in 0..steps {
            let Some((u, pos)) = sample_observed(ctx.train, &mut rng) else { break };
            let Some(neg) = sample_negative(ctx.train, u, &mut rng) else { continue };
            let uv = self.users.row(u.index()).to_vec();
            let pv = self.items.row(pos.index()).to_vec();
            let nv = self.items.row(neg.index()).to_vec();
            let x = vector::dot(&uv, &pv) + self.item_bias[pos.index()]
                - vector::dot(&uv, &nv)
                - self.item_bias[neg.index()];
            // dL/dx for L = −log σ(x): −σ(−x).
            let g = -vector::sigmoid(-x);
            // u ← u − lr (g (p − n) + l2 u), etc.
            let urow = self.users.row_mut(u.index());
            for i in 0..urow.len() {
                urow[i] -= lr * (g * (pv[i] - nv[i]) + l2 * urow[i]);
            }
            let prow = self.items.row_mut(pos.index());
            for i in 0..prow.len() {
                prow[i] -= lr * (g * uv[i] + l2 * prow[i]);
            }
            let nrow = self.items.row_mut(neg.index());
            for i in 0..nrow.len() {
                nrow[i] -= lr * (-g * uv[i] + l2 * nrow[i]);
            }
            self.item_bias[pos.index()] -= lr * (g + l2 * self.item_bias[pos.index()]);
            self.item_bias[neg.index()] -= lr * (-g + l2 * self.item_bias[neg.index()]);
        }
        Ok(())
    }

    fn score(&self, user: UserId, item: ItemId) -> f32 {
        self.users.row_dot(user.index(), &self.items, item.index()) + self.item_bias[item.index()]
    }

    fn num_items(&self) -> usize {
        self.items.len()
    }

    fn persistable(&self) -> Option<&dyn kgrec_store::Persistable> {
        Some(self)
    }

    fn persistable_mut(&mut self) -> Option<&mut dyn kgrec_store::Persistable> {
        Some(self)
    }
}

impl kgrec_store::Persistable for BprMf {
    fn snapshot_id(&self) -> &'static str {
        "baseline.bprmf"
    }

    fn config_hash(&self) -> u64 {
        let dim = format!("dim={}", self.config.dim);
        let epochs = format!("epochs={}", self.config.epochs);
        let lr = format!("lr={:08x}", self.config.learning_rate.to_bits());
        let l2 = format!("l2={:08x}", self.config.l2.to_bits());
        let seed = format!("seed={}", self.config.seed);
        kgrec_store::config_hash(&[&dim, &epochs, &lr, &l2, &seed])
    }

    fn snapshot_seed(&self) -> u64 {
        self.config.seed
    }

    fn write_state(
        &self,
        writer: &mut kgrec_store::SnapshotWriter,
    ) -> Result<(), kgrec_store::StoreError> {
        writer.add("users", crate::persist::table_section(&self.users))?;
        writer.add("items", crate::persist::table_section(&self.items))?;
        writer.add("bias", crate::persist::vec_section(&self.item_bias))
    }

    fn read_state(
        &mut self,
        reader: &kgrec_store::SnapshotReader,
    ) -> Result<(), kgrec_store::StoreError> {
        // Gather everything before committing anything.
        let (urows, udim, udata) = crate::persist::read_table(reader, "users", &self.users)?;
        let (irows, idim, idata) = crate::persist::read_table(reader, "items", &self.items)?;
        let bias = crate::persist::read_vec(reader, "bias", &self.item_bias)?;
        for (name, dim) in [("users", udim), ("items", idim)] {
            if dim != self.config.dim {
                return Err(kgrec_store::StoreError::ShapeMismatch {
                    section: name.to_string(),
                    detail: format!("stored dim {dim}, configured dim {}", self.config.dim),
                });
            }
        }
        if bias.len() != irows {
            return Err(kgrec_store::StoreError::ShapeMismatch {
                section: "bias".to_string(),
                detail: format!("{} biases for {irows} items", bias.len()),
            });
        }
        self.users = crate::persist::table_from(urows, udim, &udata);
        self.items = crate::persist::table_from(irows, idim, &idata);
        self.item_bias = bias;
        Ok(())
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
    fn learns_planted_preferences_above_chance() {
        let synth = generate(&ScenarioConfig::tiny(), 42);
        let split = ratio_split(&synth.dataset.interactions, 0.2, 1);
        let mut m = BprMf::new(BprMfConfig { epochs: 40, ..Default::default() });
        m.fit(&TrainContext::new(&synth.dataset, &split.train)).unwrap();
        let mut rng = StdRng::seed_from_u64(3);
        let pairs = labeled_eval_set(&split.train, &split.test, 4, &mut rng);
        let rep = evaluate_ctr(&m, &pairs);
        assert!(rep.auc > 0.6, "AUC {}", rep.auc);
    }

    #[test]
    fn deterministic_given_seed() {
        let synth = generate(&ScenarioConfig::tiny(), 7);
        let split = ratio_split(&synth.dataset.interactions, 0.2, 2);
        let ctx = TrainContext::new(&synth.dataset, &split.train);
        let mut a = BprMf::default_config();
        let mut b = BprMf::default_config();
        a.fit(&ctx).unwrap();
        b.fit(&ctx).unwrap();
        assert_eq!(a.score(UserId(0), ItemId(0)), b.score(UserId(0), ItemId(0)));
    }

    #[test]
    fn zero_dim_rejected() {
        let synth = generate(&ScenarioConfig::tiny(), 7);
        let split = ratio_split(&synth.dataset.interactions, 0.2, 2);
        let mut m = BprMf::new(BprMfConfig { dim: 0, ..Default::default() });
        assert!(m.fit(&TrainContext::new(&synth.dataset, &split.train)).is_err());
    }
}
