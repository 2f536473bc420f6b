//! Unified methods (survey Section 4.3): embedding propagation combining
//! semantic representations with connectivity.

mod akupm;
mod kgat;
mod kgcn;
mod ripplenet;

pub use akupm::{AkupmLite, AkupmLiteConfig};
pub(crate) use kgat::Kgat;
pub use kgat::KgatConfig;
pub use kgcn::{Aggregator, Kgcn, KgcnConfig};
pub use ripplenet::{RippleNet, RippleNetConfig};
