//! `kgrec-check` — static analysis over `(KG dataset, split, model
//! config)` bundles, before any training happens.
//!
//! Every experiment in this workspace consumes the same three inputs: a
//! [`kgrec_data::KgDataset`] (interactions + item KG + alignment), a
//! train/test [`kgrec_data::split::Split`], and model configuration. Each
//! has invariants that, when violated, do not crash — they silently
//! corrupt results: leaked test interactions inflate AUC, dangling
//! entity ids scramble embeddings, duplicate alignments merge item
//! neighborhoods, a NaN in one embedding row poisons every ranking
//! containing the item.
//!
//! This crate makes those invariants checkable:
//!
//! * [`Diagnostic`] — one finding: stable code, [`Severity`], message,
//!   [`Subject`];
//! * [`rules::Rule`] — one named check; [`CheckReport::run`] runs the
//!   standard set of fifteen, data layout (`MD007`) first, then KG
//!   integrity `KG0xx`, dataset/split hygiene `DS0xx` and model/metadata
//!   consistency `MD0xx` — see [`rules`] for the full table;
//! * [`srclint`] — *detlint*, the token-stream source analysis behind
//!   `kglint --src`: a hand-rolled lexer, brace-scope context tracking,
//!   and a registry of determinism/hot-path rules (`SA0xx` plus the
//!   ported `MD006`) with inline `kglint::allow` suppressions;
//! * [`json`] — the shared `--json` rendering both rule families emit;
//! * [`CheckBundle`] — what a pass looks at (only the dataset is
//!   mandatory);
//! * [`CheckReport`] — the aggregated result, with a strict mode in
//!   which warnings also fail.
//!
//! The `kglint` binary runs the rule set over the synthetic scenario
//! family from the command line; the `kgrec-bench` harness binaries run
//! it in strict mode before every evaluation.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod bundle;
mod diagnostic;
pub mod json;
mod report;
pub mod rules;
pub mod srclint;

pub use bundle::{default_model_hyperparams, CheckBundle, FloatAudit, HyperParam};
pub use diagnostic::{Diagnostic, Severity, Subject};
pub use report::CheckReport;
