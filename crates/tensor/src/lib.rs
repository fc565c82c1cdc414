//! # hanayo-tensor
//!
//! A small, deterministic dense-f32 tensor substrate: just enough numeric
//! machinery to train real models through the Hanayo runtime and prove that
//! every synchronous pipeline schedule computes *exactly* the same
//! gradients as sequential execution.
//!
//! Design choices:
//!
//! * **Functional layers** — [`stage::Stage::forward`] returns an explicit
//!   stash and [`stage::Stage::backward`] consumes it. Pipeline engines own
//!   the stash lifetime (that is the whole memory story of the paper), so
//!   the math layer must not hide it. [`stage::Stage::backward_into`] adds
//!   the parameter gradients straight into a caller-owned accumulator, so
//!   an engine holds one gradient buffer per stage, not one per
//!   micro-batch.
//! * **Determinism** — seeded init ([`rng`]), row-parallel matmul with
//!   fixed per-element reduction order, the crate's own [`ops::exp`]
//!   instead of the host libm's, and gradient containers that support
//!   order-controlled accumulation.
//! * **No autograd graph** — backward passes are hand-written per block and
//!   verified against finite differences in the test suite.

// Numeric kernels index rows/columns explicitly; iterator-chain rewrites of
// these loops obscure the math without measurable benefit.
#![allow(clippy::needless_range_loop)]

pub mod loss;
pub mod ops;
pub mod rng;
pub mod stage;
pub mod tensor;

pub use stage::{Block, GradScratch, Stage, StageGrads, StageStash, TransposedWeights};
pub use tensor::{Tensor, Transposed};
