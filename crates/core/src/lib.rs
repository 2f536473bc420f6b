//! The framework layer of `kgrec` — the survey's contribution as code.
//!
//! "A Survey on Knowledge Graph-Based Recommender Systems" contributes a
//! taxonomy and a formal vocabulary rather than a single algorithm; this
//! crate is that contribution made executable:
//!
//! * [`recommender`] — the [`recommender::Recommender`] trait every method
//!   in `kgrec-models` implements, with the `f: u × v → ŷ` scoring
//!   interface of survey Eq. 1;
//! * [`taxonomy`] — the Table 3 classification (usage type × techniques),
//!   attached to every model as machine-readable metadata, plus the full
//!   39-paper literature table;
//! * [`metrics`] — AUC, Precision@K, Recall@K, NDCG@K, HitRate@K, MRR;
//! * [`protocol`] — the two evaluation protocols of the surveyed papers:
//!   CTR-style pointwise evaluation and full-ranking top-K evaluation;
//! * [`supervisor`] — the training supervisor: panic-isolated,
//!   budgeted, retry-with-backoff execution of any `fit`, with an
//!   optional checkpoint warm start ([`supervisor::supervise_fit`]),
//!   reporting the
//!   `ok → retried → degraded → failed` state machine the evaluation
//!   harness renders per model;
//! * [`explain`] — the explanation engine: reasoning paths between a user
//!   and a recommended item in the user–item graph (survey Section 4's
//!   explainability thread, and Figure 1's reasoning example);
//! * [`kg_registry`] — the Table 1 catalog of public knowledge graphs.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod error;
pub mod explain;
pub mod kg_registry;
pub mod metrics;
pub mod protocol;
pub mod recommender;
pub mod supervisor;
pub mod taxonomy;

pub use error::CoreError;
pub use recommender::{Recommender, TrainContext};
pub use supervisor::{panic_message, supervise_fit, FitOutcome, FitStatus, SupervisorConfig};
pub use taxonomy::{Taxonomy, UsageType};
