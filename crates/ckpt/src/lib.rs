//! # hanayo-ckpt
//!
//! Fault tolerance for the Hanayo reproduction: a versioned, bit-exact
//! checkpoint model, failure-injection plans, and the recovery cost model
//! the tuner uses to pick checkpoint intervals.
//!
//! At cluster scale failures are the steady state, not the exception. This
//! crate makes *resume-equals-uninterrupted* a pinned, testable property
//! rather than a hope, by exploiting the repo's bit-exact substrate:
//!
//! * [`checkpoint`] — the [`Checkpoint`] snapshot (per-stage weights,
//!   optimizer state, the seeded RNG stream position, iteration index and
//!   the frozen [`hanayo_core::action::Schedule`] it was produced under),
//!   with a schema-version + config-fingerprint guard and CRC-32 integrity
//!   checking. Serde round-trips are exact to the last f32 bit, so a run
//!   resumed from a checkpoint produces losses/weights identical to one
//!   that never stopped (`hanayo-runtime` pins this on every golden
//!   scheme).
//! * [`failure`] — [`FailurePlan`]: kill device `d` at iteration `i`, or
//!   drop a link. The runtime injects these through its existing
//!   `WorkerError` + abort-broadcast machinery, so an injected crash exercises
//!   the same shutdown paths a real one would.
//! * [`recovery`] — the failure/recovery cost model: per-checkpoint stall
//!   from weight+optimizer bytes over the cluster's weakest link, rewind +
//!   restart cost, device MTBF (on
//!   [`hanayo_cluster::ClusterSpec::device_mtbf_s`]), and the goodput
//!   formula whose optimum is the Young–Daly interval
//!   ([`recovery::young_daly_interval_s`]).

pub mod checkpoint;
pub mod failure;
pub mod recovery;

pub use checkpoint::{
    config_fingerprint, fingerprint_parts, Checkpoint, CkptError, OptimizerState, RngCursor,
    SCHEMA_VERSION,
};
pub use failure::{CheckpointPolicy, FailurePlan};
pub use recovery::{RecoveryEval, RecoveryOptions};
