//! The unit of analysis: everything kglint inspects in one pass.

use kgrec_data::negative::LabeledPair;
use kgrec_data::split::Split;
use kgrec_data::{InteractionMatrix, KgDataset};
use kgrec_models::unified::{KgatConfig, KgcnConfig, RippleNetConfig};

/// A named float buffer attached for non-finite auditing (MD004): learned
/// embeddings, score vectors, loss curves — anything that must stay
/// finite.
#[derive(Debug, Clone, Copy)]
pub struct FloatAudit<'a> {
    /// Label shown in diagnostics (e.g. `"ripplenet.entity_embeddings"`).
    pub label: &'a str,
    /// The values to audit.
    pub values: &'a [f32],
}

/// One model hyper-parameter, flattened to `f64` for range checking.
#[derive(Debug, Clone)]
pub struct HyperParam {
    /// Owning model name.
    pub model: String,
    /// Parameter name (`dim`, `hops`, `learning_rate`, …).
    pub name: String,
    /// The configured value.
    pub value: f64,
}

impl HyperParam {
    /// Convenience constructor.
    pub fn new(model: &str, name: &str, value: f64) -> Self {
        Self { model: model.to_owned(), name: name.to_owned(), value }
    }
}

/// The hyper-parameters of the registry's default propagation models
/// (the ones with hop/dim budgets worth checking before training).
pub fn default_model_hyperparams() -> Vec<HyperParam> {
    let r = RippleNetConfig::default();
    let k = KgcnConfig::default();
    let g = KgatConfig::default();
    vec![
        HyperParam::new("RippleNet", "dim", r.dim as f64),
        HyperParam::new("RippleNet", "hops", r.hops as f64),
        HyperParam::new("RippleNet", "memories_per_hop", r.memories_per_hop as f64),
        HyperParam::new("RippleNet", "epochs", r.epochs as f64),
        HyperParam::new("RippleNet", "learning_rate", f64::from(r.learning_rate)),
        HyperParam::new("RippleNet", "l2", f64::from(r.l2)),
        HyperParam::new("KGCN", "dim", k.dim as f64),
        HyperParam::new("KGCN", "hops", k.hops as f64),
        HyperParam::new("KGCN", "neighbors", k.neighbors as f64),
        HyperParam::new("KGCN", "epochs", k.epochs as f64),
        HyperParam::new("KGCN", "learning_rate", f64::from(k.learning_rate)),
        HyperParam::new("KGCN", "l2", f64::from(k.l2)),
        // KGAT's decorated second rate is exactly what MD005's name
        // matching exists for.
        HyperParam::new("KGAT", "learning_rate", f64::from(g.learning_rate)),
        HyperParam::new("KGAT", "kg_learning_rate", f64::from(g.kg_learning_rate)),
    ]
}

/// Everything one `kglint` pass looks at: a dataset bundle plus whatever
/// optional context the caller has on hand (split, eval pairs, model
/// configuration, float buffers).
///
/// Only the dataset is mandatory; every rule degrades gracefully when its
/// optional inputs are absent.
#[derive(Debug, Clone)]
pub struct CheckBundle<'a> {
    /// The dataset bundle under analysis.
    pub dataset: &'a KgDataset,
    /// Optional train/test split (enables the DS-layer rules).
    pub split: Option<&'a Split>,
    /// Optional CTR evaluation pairs (enables DS004).
    pub eval_pairs: Option<&'a [LabeledPair]>,
    /// Model hyper-parameters to range-check (MD003).
    pub hyperparams: Vec<HyperParam>,
    /// Explicit meta-path schemas as relation-name sequences (MD002).
    pub metapath_schemas: Vec<Vec<String>>,
    /// Float buffers to audit for non-finite values (MD004).
    pub float_audits: Vec<FloatAudit<'a>>,
    /// Hop budget for the KG005 reachability analysis.
    pub max_hops: usize,
}

impl<'a> CheckBundle<'a> {
    /// A bundle with just the dataset; hop budget defaults to 3 (the
    /// deepest propagation any registry model uses).
    pub fn new(dataset: &'a KgDataset) -> Self {
        Self {
            dataset,
            split: None,
            eval_pairs: None,
            hyperparams: Vec::new(),
            metapath_schemas: Vec::new(),
            float_audits: Vec::new(),
            max_hops: 3,
        }
    }

    /// Attaches a train/test split.
    pub fn with_split(mut self, split: &'a Split) -> Self {
        self.split = Some(split);
        self
    }

    /// Attaches CTR evaluation pairs.
    pub fn with_eval_pairs(mut self, pairs: &'a [LabeledPair]) -> Self {
        self.eval_pairs = Some(pairs);
        self
    }

    /// Attaches model hyper-parameters (appends).
    pub fn with_hyperparams(mut self, params: Vec<HyperParam>) -> Self {
        self.hyperparams.extend(params);
        self
    }

    /// Attaches one explicit meta-path schema as relation names.
    pub fn with_metapath_schema(mut self, names: &[&str]) -> Self {
        self.metapath_schemas.push(names.iter().map(|s| (*s).to_owned()).collect());
        self
    }

    /// Attaches a float buffer for non-finite auditing.
    pub fn with_float_audit(mut self, label: &'a str, values: &'a [f32]) -> Self {
        self.float_audits.push(FloatAudit { label, values });
        self
    }

    /// Overrides the reachability hop budget.
    pub fn with_max_hops(mut self, max_hops: usize) -> Self {
        self.max_hops = max_hops;
        self
    }

    /// The training matrix rules should treat as ground truth: the
    /// split's train half when present, else all interactions.
    pub fn train(&self) -> &'a InteractionMatrix {
        match self.split {
            Some(s) => &s.train,
            None => &self.dataset.interactions,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kgrec_data::synth::{generate, ScenarioConfig};

    #[test]
    fn default_hyperparams_cover_both_propagation_models() {
        let hp = default_model_hyperparams();
        assert!(hp.iter().any(|p| p.model == "RippleNet" && p.name == "hops"));
        assert!(hp.iter().any(|p| p.model == "KGCN" && p.name == "neighbors"));
        assert!(hp.iter().all(|p| p.value.is_finite()));
    }

    #[test]
    fn train_falls_back_to_all_interactions() {
        let synth = generate(&ScenarioConfig::tiny(), 1);
        let b = CheckBundle::new(&synth.dataset);
        assert_eq!(b.train().num_interactions(), synth.dataset.interactions.num_interactions());
    }
}
