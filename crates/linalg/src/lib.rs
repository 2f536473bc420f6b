//! Dense linear algebra substrate for the `kgrec` workspace.
//!
//! The surveyed knowledge-graph recommenders were originally implemented on
//! top of deep-learning frameworks with automatic differentiation. No such
//! framework is available here, so this crate provides the minimal, fast,
//! dependency-light substrate every model in `kgrec-models` is built on:
//!
//! * [`vector`] — free functions over `&[f32]` slices (dot, axpy, softmax, …);
//! * [`simd`] — the portable 8-lane blocked kernels behind [`vector`]:
//!   autovectorization-friendly fixed-width loops that keep the default
//!   accumulation order bit-identical to scalar code (relaxed only behind
//!   the `fast-math` cargo feature);
//! * `matrix` — a row-major dense [`matrix::Matrix`] with the product
//!   kernels the models need (matvec, outer products, Gram updates);
//! * `embedding` — [`embedding::EmbeddingTable`], the workhorse container
//!   for entity / relation / user / item latent vectors;
//! * [`init`] — seeded weight initializers (uniform, Xavier, Gaussian);
//! * `nn` — dense layers, activations and a small MLP with hand-written
//!   backward passes;
//! * [`rnn`] — a vanilla recurrent cell with full back-propagation through
//!   time, used by the path-encoding recommenders (RKGE / KPRN style);
//! * [`stability`] — online loss-curve monitoring ([`stability::LossMonitor`]):
//!   NaN/∞ and divergence detection feeding the training supervisor;
//! * [`par`] — the deterministic worker pool ([`par::par_map`]):
//!   index-addressed sharding with fixed-order reduction, so parallel
//!   evaluation is bit-identical to serial at any thread count;
//! * [`gradcheck`] — finite-difference gradient checking used throughout the
//!   test suites to validate every hand-derived gradient.
//!
//! All randomness is seeded explicitly; nothing in this crate reads global
//! RNG state, so training runs are reproducible bit-for-bit on one platform.

#![warn(missing_docs)]
#![forbid(unsafe_code)]
// Hand-written numeric kernels index several slices in lockstep; the
// iterator rewrites clippy suggests obscure the math being transcribed.
#![allow(clippy::needless_range_loop)]

mod embedding;
pub mod gradcheck;
pub mod init;
mod matrix;
mod nn;
pub mod par;
pub mod rnn;
pub mod simd;
pub mod stability;
pub mod vector;

pub use embedding::EmbeddingTable;
pub use matrix::Matrix;
pub use nn::{Activation, Dense, Mlp};
pub use stability::DivergencePolicy;
