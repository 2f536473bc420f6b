//! Model-metadata and configuration rules (`MD0xx`).

use crate::bundle::CheckBundle;
use crate::diagnostic::{Diagnostic, Severity, Subject};
use crate::rules::Rule;
use kgrec_core::taxonomy::table3;
use kgrec_data::dataset::{FRIEND_RELATION, INTERACT_RELATION};
use kgrec_models::registry::all_models;
use std::collections::BTreeSet;

/// `MD001`: the model registry agrees with the survey's Table 3.
///
/// Every non-baseline model's taxonomy row must name a Table 3 method,
/// and model names must be unique — the harness keys result tables by
/// them.
pub struct RegistryConsistency;

impl Rule for RegistryConsistency {
    fn code(&self) -> &'static str {
        "MD001"
    }

    fn summary(&self) -> &'static str {
        "registry taxonomy rows resolve against Table 3 and names are unique"
    }

    fn check(&self, _bundle: &CheckBundle<'_>) -> Vec<Diagnostic> {
        let table: BTreeSet<&str> = table3().iter().map(|t| t.method).collect();
        let models = all_models(true);
        let mut out = Vec::new();
        let mut seen: BTreeSet<&str> = BTreeSet::new();
        for m in &models {
            let t = m.taxonomy();
            if t.venue != "baseline" && !table.contains(t.method) {
                out.push(Diagnostic::new(
                    self.code(),
                    Severity::Error,
                    Subject::Model(m.name().to_owned()),
                    format!("taxonomy method '{}' does not appear in Table 3", t.method),
                ));
            }
            if !seen.insert(m.name()) {
                out.push(Diagnostic::new(
                    self.code(),
                    Severity::Error,
                    Subject::Registry,
                    format!("duplicate model name '{}' in the registry", m.name()),
                ));
            }
        }
        out
    }
}

/// `MD002`: meta-path schemas resolve against the relation vocabulary.
///
/// Two checks: every explicitly supplied schema name must exist in the
/// user–item-graph vocabulary (item-KG relations plus `interact`,
/// `interact_inv`, and `friend` when social links are present), and every
/// base attribute relation must have its materialized inverse — without
/// it the canonical `U-interact-I-r-A-r_inv-I` path is unresolvable and
/// path-based models silently skip the relation.
pub(crate) struct MetaPathSchemas;

impl Rule for MetaPathSchemas {
    fn code(&self) -> &'static str {
        "MD002"
    }

    fn summary(&self) -> &'static str {
        "meta-path schemas resolve against the relation vocabulary"
    }

    fn check(&self, bundle: &CheckBundle<'_>) -> Vec<Diagnostic> {
        let ds = bundle.dataset;
        let g = &ds.graph;
        let mut vocab: BTreeSet<String> = (0..g.num_relations() as u32)
            .map(|r| g.relation_name(kgrec_graph::RelationId(r)).to_owned())
            .collect();
        vocab.insert(INTERACT_RELATION.to_owned());
        vocab.insert(format!("{INTERACT_RELATION}_inv"));
        if ds.social_links.is_some() {
            vocab.insert(FRIEND_RELATION.to_owned());
        }
        let mut out = Vec::new();
        for schema in &bundle.metapath_schemas {
            let rendered = schema.join("->");
            if schema.is_empty() {
                out.push(Diagnostic::new(
                    self.code(),
                    Severity::Error,
                    Subject::MetaPath(rendered.clone()),
                    "empty meta-path schema".to_owned(),
                ));
                continue;
            }
            for name in schema {
                if !vocab.contains(name) {
                    out.push(Diagnostic::new(
                        self.code(),
                        Severity::Error,
                        Subject::MetaPath(rendered.clone()),
                        format!("relation '{name}' not in the vocabulary"),
                    ));
                }
            }
        }
        // Canonical-path resolvability: each base relation needs its
        // inverse so HeteRec/FMG-style models can walk back to items.
        for r in 0..g.num_base_relations() as u32 {
            let name = g.relation_name(kgrec_graph::RelationId(r));
            if name == INTERACT_RELATION || name.ends_with("_inv") {
                continue;
            }
            let inv = format!("{name}_inv");
            if !vocab.contains(&inv) {
                out.push(Diagnostic::new(
                    self.code(),
                    Severity::Warning,
                    Subject::Relation(r),
                    format!(
                        "relation '{name}' has no inverse '{inv}'; the canonical meta-path \
                         through it cannot return to items"
                    ),
                ));
            }
        }
        out
    }
}

/// Valid range for one known hyper-parameter: hard bounds (outside =
/// error) and a soft ceiling (above = warning).
struct ParamSpec {
    name: &'static str,
    hard_min: f64,
    hard_max: f64,
    soft_max: f64,
    /// Whether `hard_min` itself is excluded (e.g. learning rate > 0).
    exclusive_min: bool,
}

const PARAM_SPECS: &[ParamSpec] = &[
    ParamSpec {
        name: "dim",
        hard_min: 1.0,
        hard_max: 4096.0,
        soft_max: 512.0,
        exclusive_min: false,
    },
    ParamSpec { name: "hops", hard_min: 1.0, hard_max: 8.0, soft_max: 4.0, exclusive_min: false },
    ParamSpec {
        name: "neighbors",
        hard_min: 1.0,
        hard_max: 1024.0,
        soft_max: 128.0,
        exclusive_min: false,
    },
    ParamSpec {
        name: "memories_per_hop",
        hard_min: 1.0,
        hard_max: 4096.0,
        soft_max: 512.0,
        exclusive_min: false,
    },
    ParamSpec {
        name: "epochs",
        hard_min: 1.0,
        hard_max: 100_000.0,
        soft_max: 10_000.0,
        exclusive_min: false,
    },
    ParamSpec {
        name: "learning_rate",
        hard_min: 0.0,
        hard_max: 10.0,
        soft_max: 1.0,
        exclusive_min: true,
    },
    ParamSpec { name: "l2", hard_min: 0.0, hard_max: 1000.0, soft_max: 1.0, exclusive_min: false },
];

/// `MD003`: hop/dim-style hyper-parameters sit in valid ranges.
///
/// Hard violations (zero dimensions, zero hops, non-positive learning
/// rate, non-finite anything) are errors; implausibly large values are
/// warnings. Parameters with unknown names are ignored — the table only
/// covers semantics the checker understands.
pub(crate) struct HyperParamRanges;

impl Rule for HyperParamRanges {
    fn code(&self) -> &'static str {
        "MD003"
    }

    fn summary(&self) -> &'static str {
        "model hyper-parameters are finite and within plausible ranges"
    }

    fn check(&self, bundle: &CheckBundle<'_>) -> Vec<Diagnostic> {
        let mut out = Vec::new();
        for hp in &bundle.hyperparams {
            let subject = Subject::Param { model: hp.model.clone(), name: hp.name.clone() };
            if !hp.value.is_finite() {
                out.push(Diagnostic::new(
                    self.code(),
                    Severity::Error,
                    subject,
                    format!("value {} is not finite", hp.value),
                ));
                continue;
            }
            let Some(spec) = PARAM_SPECS.iter().find(|s| s.name == hp.name) else {
                continue;
            };
            let below =
                hp.value < spec.hard_min || (spec.exclusive_min && hp.value == spec.hard_min);
            if below || hp.value > spec.hard_max {
                let lo_bracket = if spec.exclusive_min { '(' } else { '[' };
                out.push(Diagnostic::new(
                    self.code(),
                    Severity::Error,
                    subject,
                    format!(
                        "value {} outside valid range {lo_bracket}{}, {}]",
                        hp.value, spec.hard_min, spec.hard_max
                    ),
                ));
            } else if hp.value > spec.soft_max {
                out.push(Diagnostic::new(
                    self.code(),
                    Severity::Warning,
                    subject,
                    format!("value {} above the plausible ceiling {}", hp.value, spec.soft_max),
                ));
            }
        }
        out
    }
}

/// Whether a hyper-parameter name denotes a learning rate (`MD005`).
///
/// Matches the canonical `learning_rate`, any decorated variant containing
/// it (`kg_learning_rate`), the bare `lr`, and `_lr`-suffixed names.
fn is_learning_rate_name(name: &str) -> bool {
    name.contains("learning_rate") || name == "lr" || name.ends_with("_lr")
}

/// `MD005`: learning-rate hyper-parameters are finite and positive.
///
/// Complements `MD003`, whose spec table only matches the exact name
/// `learning_rate`: models carry decorated variants (KGAT's
/// `kg_learning_rate`, `actor_lr`, …) that the table cannot enumerate. A
/// zero rate freezes training, a negative one ascends the loss, and a
/// non-finite one poisons every update — the static root causes the
/// training supervisor later sees as divergence or NaN losses.
pub(crate) struct LearningRateSanity;

impl Rule for LearningRateSanity {
    fn code(&self) -> &'static str {
        "MD005"
    }

    fn summary(&self) -> &'static str {
        "learning-rate hyper-parameters are finite and positive"
    }

    fn check(&self, bundle: &CheckBundle<'_>) -> Vec<Diagnostic> {
        let mut out = Vec::new();
        for hp in &bundle.hyperparams {
            if !is_learning_rate_name(&hp.name) {
                continue;
            }
            if !hp.value.is_finite() || hp.value <= 0.0 {
                out.push(Diagnostic::new(
                    self.code(),
                    Severity::Error,
                    Subject::Param { model: hp.model.clone(), name: hp.name.clone() },
                    format!(
                        "learning rate {} would freeze, invert or poison training; \
                         it must be finite and > 0",
                        hp.value
                    ),
                ));
            }
        }
        out
    }
}

/// `MD004`: attached float buffers contain only finite values.
///
/// The hook models and harnesses use after training: attach embedding
/// tables or score vectors to the bundle and a single NaN or infinity —
/// the classic symptom of a diverged learning rate — becomes a diagnostic
/// instead of a silently poisoned metric.
pub(crate) struct NonFiniteValues;

impl Rule for NonFiniteValues {
    fn code(&self) -> &'static str {
        "MD004"
    }

    fn summary(&self) -> &'static str {
        "audited float buffers (embeddings, scores) are finite"
    }

    fn check(&self, bundle: &CheckBundle<'_>) -> Vec<Diagnostic> {
        let mut out = Vec::new();
        for audit in &bundle.float_audits {
            let mut nan = 0usize;
            let mut inf = 0usize;
            let mut first = None;
            for (i, v) in audit.values.iter().enumerate() {
                if v.is_nan() {
                    nan += 1;
                    first.get_or_insert(i);
                } else if v.is_infinite() {
                    inf += 1;
                    first.get_or_insert(i);
                }
            }
            if nan + inf > 0 {
                out.push(Diagnostic::new(
                    self.code(),
                    Severity::Error,
                    Subject::Values(audit.label.to_owned()),
                    format!(
                        "{nan} NaN and {inf} infinite of {} values (first at index {})",
                        audit.values.len(),
                        first.unwrap_or(0)
                    ),
                ));
            }
        }
        out
    }
}
