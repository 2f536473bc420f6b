//! Knowledge graph embedding (KGE) algorithms.
//!
//! Section 4.1 of the survey divides KGE into **translation distance
//! models** — TransE, TransH, TransR, TransD — and **semantic matching
//! models** — DistMult. All five are implemented here with hand-derived
//! gradients (validated by finite differences in each module's tests),
//! plus the random-walk entity embedding (metapath2vec skip-gram) used by
//! entity2rec/KTGAN-style pipelines.
//!
//! The shared [`KgeModel`] trait exposes plausibility scoring and the
//! learned embeddings; [`trainer`] provides the negative-sampling margin /
//! logistic training loop — plain ([`trainer::train`]), observable
//! (`trainer::train_with_from`), and guarded against loss divergence with
//! last-good snapshot rollback ([`trainer::train_guarded`]), which given a
//! checkpoint store also saves every healthy epoch and resumes from the
//! last good one (`checkpoint` holds the snapshot format); [`eval`]
//! implements filtered link-prediction metrics (MR, MRR, Hits@K).

#![warn(missing_docs)]
#![forbid(unsafe_code)]
#![allow(clippy::needless_range_loop)] // gradient kernels index slices in lockstep

mod checkpoint;
mod distmult;
pub mod eval;
mod grad;
pub mod metapath2vec;
mod model;
mod persist;
pub mod trainer;
mod transd;
mod transe;
mod transh;
mod transr;

pub use distmult::DistMult;
pub use grad::{GradBatch, GradOp, Seg};
pub use model::KgeModel;
pub use trainer::{train, train_guarded, TrainConfig};
pub use transd::TransD;
pub use transe::TransE;
pub use transh::TransH;
pub use transr::TransR;
