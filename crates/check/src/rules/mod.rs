//! The rule set: one struct per diagnostic code.
//!
//! | code | layer | checks |
//! |---|---|---|
//! | `KG001` | KG integrity | dangling entity / relation ids in triples |
//! | `KG002` | KG integrity | duplicate triples |
//! | `KG003` | KG integrity | item↔entity alignment (length, range, duplicates) |
//! | `KG004` | KG integrity | items whose aligned entity has no KG edges |
//! | `KG005` | KG integrity | entities unreachable from any item within the hop budget |
//! | `DS001` | data hygiene  | users/items with no interactions |
//! | `DS002` | data hygiene  | train→test leakage |
//! | `DS003` | data hygiene  | id-space mismatches across matrices and eval pairs |
//! | `DS004` | data hygiene  | negative eval pairs colliding with positives |
//! | `MD001` | model/meta    | registry↔Table 3 consistency, duplicate model names |
//! | `MD002` | model/meta    | meta-path schemas resolvable against the relation vocabulary |
//! | `MD003` | model/meta    | hop/dim/learning-rate hyper-parameters in valid ranges |
//! | `MD004` | model/meta    | non-finite values in attached float buffers |
//! | `MD005` | model/meta    | learning-rate hyper-parameters finite and positive |
//! | `MD007` | data layout   | columnar-store/CSR structural integrity |
//!
//! The source-scanning rules (`kglint --src`: `SA000`–`SA006` and the
//! ported `MD006`) live in their own registry — see [`crate::srclint`].

mod data;
mod kg;
mod layout;
mod model;

pub(crate) use data::{EmptyRows, IdSpaceMismatch, NegativeCollisions, SplitLeakage};
pub(crate) use kg::{Alignment, DanglingIds, DuplicateTriples, IsolatedItems, UnreachableEntities};
pub(crate) use layout::is_store_finding;
pub use layout::LayoutIntegrity;
pub use model::RegistryConsistency;
pub(crate) use model::{HyperParamRanges, LearningRateSanity, MetaPathSchemas, NonFiniteValues};

use crate::bundle::CheckBundle;
use crate::diagnostic::Diagnostic;

/// A single named check over a [`CheckBundle`].
pub trait Rule {
    /// Stable diagnostic code (`KG001`, …). Every diagnostic the rule
    /// emits carries this code.
    fn code(&self) -> &'static str;

    /// One-line description of what the rule checks.
    fn summary(&self) -> &'static str;

    /// Runs the rule. The runner caps and orders the output; rules just
    /// emit everything they find.
    fn check(&self, bundle: &CheckBundle<'_>) -> Vec<Diagnostic>;

    /// Whether the rule reads interaction stores through their accessors,
    /// which index by the offsets MD007 vets. The runner skips such a rule
    /// when MD007 finds a store unsound, instead of letting it panic.
    fn reads_store(&self) -> bool {
        false
    }
}

/// The full default rule set: the layout rule first, so that the rules
/// reading through the stores it vets run only on a sound layout; then
/// the KG layer.
pub(crate) fn default_rules() -> Vec<Box<dyn Rule>> {
    vec![
        Box::new(LayoutIntegrity),
        Box::new(DanglingIds),
        Box::new(DuplicateTriples),
        Box::new(Alignment),
        Box::new(IsolatedItems),
        Box::new(UnreachableEntities),
        Box::new(EmptyRows),
        Box::new(SplitLeakage),
        Box::new(IdSpaceMismatch),
        Box::new(NegativeCollisions),
        Box::new(RegistryConsistency),
        Box::new(MetaPathSchemas),
        Box::new(HyperParamRanges),
        Box::new(NonFiniteValues),
        Box::new(LearningRateSanity),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn codes_are_unique_and_well_formed() {
        let rules = default_rules();
        let codes: BTreeSet<&str> = rules.iter().map(|r| r.code()).collect();
        assert_eq!(codes.len(), rules.len(), "duplicate rule codes");
        for code in codes {
            assert!(
                code.len() == 5 && code.ends_with(|c: char| c.is_ascii_digit()),
                "malformed code {code}"
            );
        }
    }

    #[test]
    fn every_rule_has_a_summary() {
        for r in default_rules() {
            assert!(!r.summary().is_empty(), "{} has no summary", r.code());
        }
    }
}
