//! Knowledge-graph / heterogeneous-information-network substrate.
//!
//! This crate implements the structural concepts of Section 3 of the survey
//! ("A Survey on Knowledge Graph-Based Recommender Systems"):
//!
//! * **HIN / KG** — [`KnowledgeGraph`]: a directed multigraph whose nodes
//!   are typed entities and whose edges are `(head, relation, tail)`
//!   triples, stored in CSR form for cache-friendly traversal;
//! * **Meta-path / meta-graph** — [`metapath::MetaPath`] and
//!   [`metapath::MetaGraph`], relation-type sequences and their unions,
//!   with commuting-count computation;
//! * **PathSim** — [`pathsim`], the meta-path similarity of Sun et al.
//!   (Eq. 12 of the survey);
//! * **H-hop neighbors, relevant entities, ripple sets** —
//!   [`ripple`], the preference-propagation sets used by RippleNet / AKUPM
//!   (Section 3 definitions);
//! * **Path enumeration** — [`paths`], bounded DFS between entity pairs,
//!   the substrate for the RKGE / KPRN / explanation machinery;
//! * **Neighbor sampling** — [`sample`], the fixed-size receptive fields of
//!   KGCN-style models.
//!
//! Entities and relations are dense `u32` newtypes; the crate never uses a
//! hash map on a hot path.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod builder;
mod csr;
mod graph;
mod ids;
mod metapath;
pub mod paths;
pub mod pathsim;
pub mod ripple;
pub mod sample;

pub use builder::KgBuilder;
pub use csr::{CsrAdjacency, CsrViolation};
pub use graph::KnowledgeGraph;
pub use ids::{id32, EntityId, EntityTypeId, RelationId, Triple};
pub use metapath::{MetaGraph, MetaPath};
