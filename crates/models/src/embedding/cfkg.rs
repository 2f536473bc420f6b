//! CFKG (Zhang et al. 2018): collaborative filtering as knowledge-graph
//! completion.
//!
//! The user–item graph folds users into the KG with an `interact`
//! relation; a TransE-style metric is learned over *all* edges, and
//! recommendation ranks items by ascending `d(u + r_interact, v)`
//! (survey Eq. 7).

use crate::common::taxonomy_of;
use kgrec_core::{CoreError, Recommender, Taxonomy, TrainContext};
use kgrec_data::dataset::UserItemGraph;
use kgrec_data::{ItemId, UserId};
use kgrec_kge::{train_guarded, KgeModel, TrainConfig, TransE};
use kgrec_linalg::DivergencePolicy;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// CFKG hyper-parameters.
#[derive(Debug, Clone)]
pub struct CfkgConfig {
    /// Embedding dimension.
    pub dim: usize,
    /// Margin of the TransE objective.
    pub margin: f32,
    /// Epochs over all graph edges (KG + interactions).
    pub epochs: usize,
    /// Learning rate.
    pub learning_rate: f32,
    /// RNG seed.
    pub seed: u64,
}

impl Default for CfkgConfig {
    fn default() -> Self {
        Self { dim: 16, margin: 1.0, epochs: 25, learning_rate: 0.05, seed: 23 }
    }
}

/// The CFKG model.
#[derive(Debug)]
pub struct Cfkg {
    /// Hyper-parameters.
    pub config: CfkgConfig,
    state: Option<Fitted>,
}

#[derive(Debug)]
struct Fitted {
    kge: TransE,
    uig: UserItemGraph,
}

impl Cfkg {
    /// Creates an unfitted model.
    pub(crate) fn new(config: CfkgConfig) -> Self {
        Self { config, state: None }
    }

    /// Creates a model with default hyper-parameters.
    pub fn default_config() -> Self {
        Self::new(CfkgConfig::default())
    }

    /// The materialized user–item graph (after `fit`); exposed so the
    /// explanation engine can run on exactly the trained graph.
    pub fn user_item_graph(&self) -> Option<&UserItemGraph> {
        self.state.as_ref().map(|s| &s.uig)
    }
}

impl Recommender for Cfkg {
    fn name(&self) -> &'static str {
        "CFKG"
    }

    fn taxonomy(&self) -> Taxonomy {
        taxonomy_of("CFKG")
    }

    fn fit(&mut self, ctx: &TrainContext<'_>) -> Result<(), CoreError> {
        let uig = ctx.dataset.user_item_graph(ctx.train);
        let mut rng = StdRng::seed_from_u64(self.config.seed);
        let mut kge = TransE::new(
            &mut rng,
            uig.graph.num_entities(),
            uig.graph.num_relations(),
            self.config.dim,
            self.config.margin,
        );
        let report = train_guarded(
            &mut kge,
            &uig.graph,
            &TrainConfig {
                epochs: self.config.epochs,
                learning_rate: self.config.learning_rate,
                seed: self.config.seed.wrapping_add(1),
                threads: None,
            },
            DivergencePolicy::default(),
            None,
        );
        if !report.usable() {
            return Err(CoreError::Diverged {
                epoch: report.aborted_at.unwrap_or(0),
                detail: report.reason.unwrap_or_else(|| "training aborted".into()),
            });
        }
        self.state = Some(Fitted { kge, uig });
        Ok(())
    }

    fn prepare_retry(&mut self, attempt: u32) -> bool {
        self.config.learning_rate *= 0.5;
        self.config.seed = self.config.seed.wrapping_add(u64::from(attempt)).wrapping_mul(31);
        true
    }

    fn score(&self, user: UserId, item: ItemId) -> f32 {
        let s = self.state.as_ref().expect("Cfkg: fit before score");
        let ue = s.uig.user_entities[user.index()];
        let ie = s.uig.item_entities[item.index()];
        // Higher = better: negative distance through the interact relation.
        s.kge.score(ue, s.uig.interact, ie)
    }

    fn num_items(&self) -> usize {
        self.state.as_ref().map_or(0, |s| s.uig.item_entities.len())
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
        let mut m = Cfkg::default_config();
        m.fit(&TrainContext::new(&synth.dataset, &split.train)).unwrap();
        let mut rng = StdRng::seed_from_u64(5);
        let pairs = labeled_eval_set(&split.train, &split.test, 4, &mut rng);
        let rep = evaluate_ctr(&m, &pairs);
        assert!(rep.auc > 0.6, "AUC {}", rep.auc);
    }

    #[test]
    fn user_item_graph_exposed_after_fit() {
        let synth = generate(&ScenarioConfig::tiny(), 1);
        let split = ratio_split(&synth.dataset.interactions, 0.2, 1);
        let mut m = Cfkg::new(CfkgConfig { epochs: 1, ..Default::default() });
        assert!(m.user_item_graph().is_none());
        m.fit(&TrainContext::new(&synth.dataset, &split.train)).unwrap();
        assert!(m.user_item_graph().is_some());
        assert_eq!(m.num_items(), synth.dataset.interactions.num_items());
    }

    #[test]
    #[should_panic(expected = "fit before score")]
    fn score_before_fit_panics() {
        let m = Cfkg::default_config();
        let _ = m.score(UserId(0), ItemId(0));
    }
}
