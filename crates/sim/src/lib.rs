//! # hanayo-sim
//!
//! A discrete-event simulator that executes a frozen
//! [`hanayo_core::action::Schedule`] — lowered to the
//! [`hanayo_core::program::Program`] the threaded runtime executes too —
//! against a [`hanayo_cluster::ClusterSpec`] and a
//! [`hanayo_model::CostTable`].
//!
//! The engine models exactly the mechanisms the paper's §4 runtime exploits:
//!
//! * **Serial compute, concurrent NIC** — a device computes one stage at a
//!   time while transfers progress in the background.
//! * **Rendezvous transfers** — a message starts moving when the sender has
//!   posted the send *and* the receiver has posted the receive; the §4.2
//!   prefetching optimisation exists precisely to post receives early, and
//!   the simulator reproduces its benefit (toggle
//!   [`engine::SimOptions::prefetch`] to measure it).
//! * **Link contention** — transfers serialise per directed link;
//!   inter-node transfers serialise per node pair (the shared HCA).
//! * **Batched cross-communication** — `BatchedComm` posts all member ops
//!   atomically and blocks until every member receive has arrived, the
//!   NCCL `batch_isend_irecv` semantics that create the paper's fourth
//!   bubble type.
//! * **Memory tracking** — weights are static per device; activation
//!   stashes grow at forward completion and shrink at backward completion.
//!   That depends only on each device's compute order, so the peak is
//!   the static liveness fold ([`hanayo_analyze::static_peak_mem`]), not
//!   an event-loop tally, and the tuner decides OOM from it before
//!   simulating.
//!
//! [`plan`] layers data parallelism on top: `D` pipeline groups, a ring
//! all-reduce of fp16 gradients at the flush, and the Chimera-wave
//! re-interpretation (2×DP of 1-wave pipelines) used throughout the
//! paper's evaluation.

mod cache;
pub mod engine;
pub mod plan;
mod proof;
pub mod reference;
pub mod report;
pub mod search;
pub mod tuner;

pub use cache::{ShapeTier, SweepCaches};
pub use engine::{
    compile_schedule, try_simulate_compiled, try_simulate_traced, validate_numerics,
    CompiledSchedule, NumericsError, SimError, SimOptions,
};
pub use plan::{evaluate_plan, Method, ParallelPlan, PlanResult};
pub use reference::simulate_reference;
pub use report::SimReport;
pub use search::{search_schedule, SearchedSchedule};
pub use tuner::{
    tune_serial_with, tune_with, Candidate, Rejection, TuneContext, TuneError, TuneOptions,
    TuneProgress, Tuning,
};
