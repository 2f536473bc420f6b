//! Embedding-based methods (survey Section 4.1): KGE-derived
//! representations enrich the user/item latent vectors.

mod cfkg;
mod cke;
mod dkn;
mod entity2rec;
mod kge_rec;
mod ktup;
mod mkr;
mod rcf;
mod shine;

pub use cfkg::{Cfkg, CfkgConfig};
pub(crate) use cke::Cke;
pub use dkn::{DknConfig, DknLite};
pub(crate) use entity2rec::Entity2Rec;
pub use kge_rec::{KgeBackend, KgeRecommender, KgeRecommenderConfig};
pub(crate) use ktup::Ktup;
pub(crate) use mkr::Mkr;
pub(crate) use rcf::Rcf;
pub(crate) use shine::Shine;
