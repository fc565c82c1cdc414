//! # hanayo-analyze
//!
//! Static verification of pipeline schedules — proofs the simulator would
//! otherwise only discover by running:
//!
//! * **Deadlock freedom** — the happens-before replay
//!   ([`hanayo_core::program::Program::replay`]) of a lowered
//!   [`hanayo_core::action::Schedule`] leaves no device waiting iff the
//!   simulator never reports a deadlock. A circular wait comes back as
//!   [`AnalysisError::Deadlock`], naming the lowest waiting device, the
//!   message it waits for and its sender: the same
//!   [`hanayo_core::program::Stall`] the simulator and the runtime refuse
//!   the schedule with. The replay runs over the pairs
//!   [`hanayo_core::program::Program::lower`] made, so a message without
//!   one send and one receive is the lowering's
//!   [`AnalysisError::Program`], which every engine returns too.
//! * **Program validity** — [`verify`], the one validity check for
//!   lowered schedules: every chain op exactly once on its stage-map
//!   device, same-device chain steps in order, every cross-device step
//!   carried by its matched send/recv pair (sent after the producer,
//!   received before the consumer), one flush ending every list, and a
//!   replay that runs to the end. Per-link FIFO order is additionally *reported* (not
//!   enforced): tag-matched rendezvous tolerates inversions and legal
//!   searched tables produce them, but a strict FIFO channel would
//!   deadlock on one.
//! * **Static peak memory** — an activation-liveness fold over each
//!   device's serial op order that is what the simulator reports as its
//!   `peak_mem`, making OOM a statically decidable verdict
//!   ([`memory::static_peak_mem`]).
//! * **Critical-path bound** — the latest exit of the same replay under
//!   the uncontended durations of a [`hanayo_model::CostTable`] and a
//!   [`hanayo_cluster::ClusterSpec`]; an admissible lower bound on the
//!   simulated iteration time ([`AnalysisReport::critical_path_s`],
//!   [`critical_path`] on a lowered program).
//!
//! [`report::analyze`] / [`report::analyze_table`] bundle all four into
//! one [`AnalysisReport`]; `hanayo-sim` consumes the pieces as a pre-pass
//! that rejects deadlocked or OOM candidates before paying for a
//! simulation.

mod critical;
pub mod error;
pub mod memory;
pub mod report;

pub use critical::{critical_path, CRITICAL_PATH_SLACK};
pub use error::AnalysisError;
pub use memory::{device_bytes, static_peak_mem};
pub use report::{analyze, analyze_table, check_deadlock_free, verify, AnalysisReport, DagStats};
