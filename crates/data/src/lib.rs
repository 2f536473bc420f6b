//! Interaction data, dataset abstractions and synthetic generators.
//!
//! Implements the data side of the survey:
//!
//! * [`columnar`] — [`InteractionMatrix`], the user feedback matrix
//!   `R ∈ {0,1}^{m×n}` of Section 3 (implicit by default, optional
//!   explicit ratings and timestamps), one columnar store read both
//!   user-major and item-major, and its streaming `ColumnarBuilder`;
//! * [`interactions`] — [`Interaction`], one observed entry of `R`;
//! * [`split`] — per-user ratio and leave-one-out train/test splits;
//! * [`negative`] — unobserved-item negative samplers and CTR-style
//!   labeled evaluation sets;
//! * [`dataset`] — [`dataset::KgDataset`]: interactions + item knowledge
//!   graph + the item↔entity alignment, plus construction of the
//!   *user–item graph* variant (users and `interact` edges folded into
//!   the KG, as CFKG / KGAT / the path-based methods require);
//! * [`synth`] — scenario generators standing in for the datasets of
//!   Table 4 (MovieLens, Book-Crossing, Last.FM, Amazon, Yelp, Bing-News,
//!   Weibo): configurable size/sparsity with a *planted* topic model so KG
//!   structure genuinely predicts preference (see `DESIGN.md` §2);
//! * [`loader`] — TSV loaders for real interaction and triple dumps;
//! * [`registry`] — the machine-readable contents of Table 4;
//! * [`faults`] — deterministic dataset corruptions ([`faults::Fault`])
//!   for robustness testing: the fault-matrix suite and
//!   `eval_suite --inject-fault` drive every model through them under the
//!   training supervisor.

#![warn(missing_docs)]
#![forbid(unsafe_code)]
#![allow(clippy::needless_range_loop)] // generator loops index parallel tables

pub mod columnar;
pub mod dataset;
pub mod faults;
mod ids;
pub mod interactions;
pub mod loader;
pub mod negative;
pub mod registry;
pub mod split;
pub mod synth;

pub use columnar::InteractionMatrix;
pub use dataset::KgDataset;
pub use faults::{inject, Fault};
pub use ids::{ItemId, UserId};
pub use interactions::Interaction;
pub use synth::ScenarioConfig;
