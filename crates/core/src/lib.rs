//! # hanayo-core
//!
//! Core library reproducing the scheduling contribution of
//! *"Hanayo: Harnessing Wave-like Pipeline Parallelism for Enhanced Large
//! Model Training Efficiency"* (Liu, Cheng, Zhou & You, SC '23).
//!
//! The crate is organised around one central idea taken directly from the
//! paper: **a pipeline-parallel algorithm is data**.
//! [`schedule::build_schedule`] turns a [`config::PipelineConfig`] into a
//! frozen [`action::Schedule`] — a per-device list of fine-grained
//! actions (forward/backward of one
//! micro-batch on one local model partition, sends/receives of activations
//! and gradients, batched cross-communication, the optimizer step). The
//! schedule is then lowered once into a [`program::Program`] — dense
//! message keys and fixed-size opcodes — which both engines execute: the
//! discrete-event simulator in `hanayo-sim` and the real threaded runtime
//! in `hanayo-runtime`.
//!
//! Implemented schedules:
//!
//! * **GPipe** — all forwards then all backwards ([`schedule::gpipe`]).
//! * **DAPPLE / 1F1B** — the one-forward-one-backward schedule
//!   ([`schedule::dapple`]).
//! * **Interleaved 1F1B** — Megatron-LM's virtual-stage variant
//!   ([`schedule::interleaved`]).
//! * **Chimera** — bidirectional pipelines with two weight replicas
//!   ([`schedule::chimera`]).
//! * **Hanayo** — the paper's wave-like pipeline with an arbitrary number of
//!   waves ([`schedule::hanayo`]); `waves = 1` on `P/2` devices is exactly
//!   the paper's *Chimera-wave* transformation (see [`transform`]).
//! * **PipeDream-style asynchronous 1F1B** — for the paper's Fig. 4
//!   illustration ([`schedule::async_pipedream`]).
//!
//! The analytical side of the paper (Table 1, Fig. 1, Fig. 2, Eq. 1 and the
//! Fig. 7 bubble-zone taxonomy) lives in [`analysis`]. The unit-based peak
//! memory accounting used in Fig. 3's `M_w`/`M_a` annotations lives in
//! [`memory`], and the textual Gantt rendering of Figs. 3/5/6 in [`gantt`].
//! Tables are checked by [`schedule::table::check_table`]; a lowered
//! schedule's validity is decided by `hanayo_analyze::verify`, which
//! shares the table checker's placement pass
//! ([`schedule::table::chain_slots`]).

pub mod abort;
pub mod action;
pub mod analysis;
pub mod chain;
pub mod comm;
pub mod config;
pub mod gantt;
pub mod ids;
pub mod memory;
pub mod program;
pub mod schedule;
pub mod stage_map;
pub mod transform;

pub mod prelude {
    //! Convenient glob import of the most frequently used items.
    pub use crate::action::{Action, ActionList, CommOp, MsgTag, Payload, Schedule};
    pub use crate::config::{PipelineConfig, Scheme};
    pub use crate::ids::{DeviceId, MicroBatch, StageId};
    pub use crate::schedule::{build_schedule, ScheduleError};
    pub use crate::stage_map::StageMap;
}
