//! Online serving: answering "top-K for user `u`, now" at low latency.
//!
//! Everything else in the workspace is batch evaluation; this crate turns
//! the offline framework into a live recommender, the deployment mode the
//! survey's application-scenario taxonomy (Guo et al., ICDE 2023, §6)
//! presumes. The pipeline is the classic two-stage split used by
//! production recommenders:
//!
//! 1. **Candidate generation** ([`candidates_for`]) — cheap retrieval
//!    from structure only: the CSR adjacency of the item knowledge graph
//!    (one hop to item–item neighbours, two hops through shared
//!    attributes) plus the columnar item-major transpose of the
//!    interaction store (co-visitation), topped up from a popularity
//!    order. Produces a bounded, deduplicated candidate set without
//!    touching the embedding model.
//! 2. **Exact ranking** ([`rank_candidates`]) — scores only the
//!    candidates, eight at a time, with the lane-blocked kernels from
//!    `kgrec_linalg` (`axpy`/`dot8` over KGE entity embeddings) and
//!    keeps a bounded top K as the scores stream, in the same order the
//!    batch evaluator's partial sort produces.
//!
//! Both stages write into a caller-owned [`ServeScratch`] arena and are
//! allocation-free after warm-up; `kglint --src` rule SA008 pins that
//! property at the token level for the request-path functions.
//!
//! Around the pipeline, [`Server`] adds the two pieces a long-running
//! process needs:
//!
//! * a sharded, generation-stamped per-user top-K **cache** whose entries
//!   are invalidated by [`Server::ingest`] (new interactions) and by
//!   model reloads — see [`cache::TopKCache`] for the stamping protocol;
//! * **hot model reload** from a [`kgrec_store::CheckpointStore`] under
//!   the training supervisor's degraded/failed semantics: a reload that
//!   fails to load, scores non-finite values, or panics is rejected and
//!   the previous model keeps serving ([`Server::reload`]).

mod cache;
mod index;
mod pipeline;
mod scratch;
mod server;

pub use cache::TopKCache;
pub use index::ServeIndex;
pub use pipeline::{candidates_for, rank_candidates, serve_score};
pub use scratch::ServeScratch;
pub use server::{ReloadOutcome, ServeConfig, ServedModel, Server};
