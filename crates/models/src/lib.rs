//! Recommender implementations covering the survey's full taxonomy.
//!
//! One faithful, laptop-scale member of every cell of Table 3:
//!
//! | family | models |
//! |---|---|
//! | baselines (KG-free) | [`baselines::MostPop`], [`baselines::ItemKnn`], [`baselines::BprMf`] |
//! | embedding-based | `embedding::Cke`, [`embedding::Cfkg`], `embedding::Mkr`, `embedding::Ktup`, [`embedding::DknLite`], `embedding::Entity2Rec` |
//! | path-based | `pathbased::HeteMf`, `pathbased::HeteCf`, `pathbased::HeteRec`, `pathbased::SemRec`, `pathbased::FmgLite`, `pathbased::Rkge`, `pathbased::PgprLite`, `pathbased::McRecLite` |
//! | unified | [`unified::RippleNet`], [`unified::Kgcn`], `unified::Kgat`, [`unified::AkupmLite`] |
//!
//! The models shown without a link are crate-private: code outside this
//! crate reaches them through [`registry::all_models`].
//!
//! Every model implements [`kgrec_core::Recommender`], carries its Table 3
//! [`kgrec_core::Taxonomy`], trains with hand-derived gradients, and is
//! deterministic given its seed. Simplifications relative to the original
//! papers are documented on each type and in `DESIGN.md` §4.

#![warn(missing_docs)]
#![forbid(unsafe_code)]
// Hand-derived gradient code indexes several slices in lockstep; the
// iterator rewrites clippy suggests obscure the equations being
// transcribed from the papers.
#![allow(clippy::needless_range_loop)]

pub mod baselines;
mod common;
pub mod embedding;
mod pathbased;
mod persist;
pub mod registry;
pub mod unified;
