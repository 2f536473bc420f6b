//! MD007 — data-layout integrity: columnar interaction stores and CSR
//! adjacency.
//!
//! The flat-array data layer trades pointer safety for packed columns;
//! this rule is the safety net. It re-runs the structural scans the
//! stores expose (`InteractionMatrix::validate`, `CsrAdjacency::validate`)
//! and converts every violation into an exact diagnostic: offset arrays
//! that start at 0 and never decrease, aligned column lengths, in-range
//! item/entity/relation ids, and item-major index agreement.

use crate::bundle::CheckBundle;
use crate::diagnostic::{Diagnostic, Severity, Subject};
use crate::rules::Rule;
use kgrec_data::columnar::ColumnarViolation;
use kgrec_data::InteractionMatrix;
use kgrec_graph::CsrViolation;

/// MD007: flat-array layout integrity (columnar store / CSR).
pub struct LayoutIntegrity;

const CODE: &str = "MD007";

/// Prefix of every MD007 message about the KG adjacency; the others are
/// about interaction stores.
const ADJACENCY: &str = "adjacency: ";

/// Whether `d` is an MD007 finding against an interaction store.
pub(crate) fn is_store_finding(d: &Diagnostic) -> bool {
    d.code == CODE && !d.message.starts_with(ADJACENCY)
}

fn columnar_diags(label: &str, matrix: &InteractionMatrix) -> Vec<Diagnostic> {
    matrix
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

impl Rule for LayoutIntegrity {
    fn code(&self) -> &'static str {
        CODE
    }

    fn summary(&self) -> &'static str {
        "columnar/CSR layouts structurally sound (offsets monotone, ids in range, item index agrees)"
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
            out.push(Diagnostic::new(CODE, Severity::Error, subject, format!("{ADJACENCY}{v}")));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kgrec_data::split::ratio_split;
    use kgrec_data::synth::{generate, ScenarioConfig};

    #[test]
    fn clean_bundle_stays_clean() {
        let synth = generate(&ScenarioConfig::tiny(), 3);
        let split = ratio_split(&synth.dataset.interactions, 0.2, 5);
        let bundle = CheckBundle::new(&synth.dataset).with_split(&split);
        assert!(LayoutIntegrity.check(&bundle).is_empty());
    }
}
