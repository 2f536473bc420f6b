//! Path-based methods (survey Section 4.2): connectivity patterns in the
//! user–item graph drive recommendation.

mod fmg;
mod herec;
mod hete_cf;
mod hete_mf;
mod heterec;
mod mcrec;
mod pgpr;
mod proppr;
mod rkge;
mod semrec;
pub(crate) mod util;

pub(crate) use fmg::FmgLite;
pub(crate) use herec::HeRec;
pub(crate) use hete_cf::HeteCf;
pub(crate) use hete_mf::HeteMf;
pub(crate) use heterec::{HeteRec, HeteRecP};
pub(crate) use mcrec::McRecLite;
pub(crate) use pgpr::PgprLite;
pub(crate) use proppr::ProPpr;
pub(crate) use rkge::Rkge;
pub(crate) use semrec::SemRec;
