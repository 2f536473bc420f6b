//! MD007 — data-layout integrity: columnar stores, CSR adjacency, shard
//! plans.
//!
//! The flat-array data layer trades pointer safety for packed columns;
//! this rule is the safety net. It re-runs the structural scans the
//! stores expose (`ColumnarInteractions::validate`,
//! `CsrAdjacency::validate`, `ShardPlan::validate`) and converts every
//! violation into an exact diagnostic: offset arrays that start at 0 and
//! never decrease, aligned column lengths, in-range item/entity/relation
//! ids, item-major index agreement, and — when a shard plan is attached —
//! full coverage with no user split across shards.

use crate::bundle::CheckBundle;
use crate::diagnostic::{Diagnostic, Severity, Subject};
use crate::rules::Rule;
use kgrec_data::columnar::ColumnarViolation;
use kgrec_data::InteractionMatrix;
use kgrec_graph::CsrViolation;

/// MD007: flat-array layout integrity (columnar / CSR / shard plan).
pub struct ShardIntegrity;

const CODE: &str = "MD007";

fn columnar_diags(label: &str, matrix: &InteractionMatrix) -> Vec<Diagnostic> {
    matrix
        .columnar()
        .validate()
        .into_iter()
        .map(|v| {
            let subject = match &v {
                ColumnarViolation::UserOffsetNotMonotone { index } => Subject::User(*index as u32),
                ColumnarViolation::ItemsNotSorted { user, .. } => Subject::User(user.0),
                ColumnarViolation::ItemOutOfRange { item, .. } => Subject::Item(item.0),
                _ => Subject::Dataset,
            };
            Diagnostic::new(CODE, Severity::Error, subject, format!("{label} store: {v}"))
        })
        .collect()
}

impl Rule for ShardIntegrity {
    fn code(&self) -> &'static str {
        CODE
    }

    fn summary(&self) -> &'static str {
        "columnar/CSR/shard layouts structurally sound (offsets monotone, ids in range, no user split across shards)"
    }

    fn check(&self, bundle: &CheckBundle<'_>) -> Vec<Diagnostic> {
        let mut out = Vec::new();

        // Interaction stores: the full matrix plus both split halves.
        out.extend(columnar_diags("interaction", &bundle.dataset.interactions));
        if let Some(split) = bundle.split {
            out.extend(columnar_diags("train", &split.train));
            out.extend(columnar_diags("test", &split.test));
        }

        // KG adjacency.
        let g = &bundle.dataset.graph;
        for v in g.csr().validate(g.num_entities(), g.num_relations()) {
            let subject = match &v {
                CsrViolation::OffsetNotMonotone { index } => Subject::Entity(*index as u32),
                CsrViolation::HeadMismatch { edge, .. }
                | CsrViolation::TailOutOfRange { edge, .. }
                | CsrViolation::RelOutOfRange { edge, .. } => Subject::Triple(*edge),
                _ => Subject::Graph,
            };
            out.push(Diagnostic::new(CODE, Severity::Error, subject, format!("adjacency: {v}")));
        }

        // Shard plan, when attached: validated against the training
        // store it partitions (the matrix `CheckBundle::train` returns).
        if let Some(plan) = bundle.shard_plan {
            for v in plan.validate(bundle.train().columnar()) {
                let subject = match &v {
                    kgrec_data::ShardViolation::UserSplitAcrossShards { index, .. } => {
                        Subject::User(plan.user_bounds()[*index])
                    }
                    _ => Subject::Dataset,
                };
                out.push(Diagnostic::new(
                    CODE,
                    Severity::Error,
                    subject,
                    format!("shard plan: {v}"),
                ));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kgrec_data::synth::{generate, ScenarioConfig};
    use kgrec_data::{split::ratio_split, ShardPlan};

    #[test]
    fn clean_bundle_stays_clean() {
        let synth = generate(&ScenarioConfig::tiny(), 3);
        let split = ratio_split(&synth.dataset.interactions, 0.2, 5);
        let plan = ShardPlan::balanced(split.train.columnar(), 4);
        let bundle = CheckBundle::new(&synth.dataset).with_split(&split).with_shard_plan(&plan);
        assert!(ShardIntegrity.check(&bundle).is_empty());
    }

    #[test]
    fn split_user_fires_with_boundary_user_subject() {
        let synth = generate(&ScenarioConfig::tiny(), 3);
        let good = ShardPlan::balanced(synth.dataset.interactions.columnar(), 3);
        let mut rows = good.row_bounds().to_vec();
        rows[1] += 1; // cut through the boundary user's history
        let bad = ShardPlan::from_raw_parts(good.num_users(), good.user_bounds().to_vec(), rows);
        let bundle = CheckBundle::new(&synth.dataset).with_shard_plan(&bad);
        let diags = ShardIntegrity.check(&bundle);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].code, "MD007");
        assert_eq!(diags[0].subject, Subject::User(good.user_bounds()[1]));
        assert!(diags[0].message.contains("splits a user across shards"));
    }
}
