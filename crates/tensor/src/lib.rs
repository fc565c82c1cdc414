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
//! * **Recycled buffers** — [`stage::Stage::forward_with`] and
//!   [`stage::Stage::backward_into`] own their inputs and take every
//!   output from a [`FreeList`] that spent stashes and gradients return
//!   to, so an engine that keeps one list per device allocates nothing
//!   once the list is stocked. `forward` and `backward` are one-shot
//!   wrappers over the same code.
//! * **Determinism** — seeded init ([`rng`]), row-parallel matmul with
//!   fixed per-element reduction order, the crate's own [`ops::exp`]
//!   instead of the host libm's, and gradient containers that support
//!   order-controlled accumulation.
//! * **No autograd graph** — backward passes are hand-written per block and
//!   verified against finite differences in the test suite.

// Numeric kernels index rows/columns explicitly; iterator-chain rewrites of
// these loops obscure the math without measurable benefit.
#![allow(clippy::needless_range_loop)]

mod free_list;
pub mod loss;
pub mod ops;
pub mod rng;
pub mod stage;
pub mod tensor;

pub use free_list::FreeList;
pub use stage::{Block, GradScratch, Stage, StageGrads, StageStash, TransposedWeights};
pub use tensor::{Tensor, Transposed};
