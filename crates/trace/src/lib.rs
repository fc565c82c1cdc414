//! # hanayo-trace
//!
//! The measurement subsystem: one event model for *everything that
//! executes a schedule*.
//!
//! The paper's runtime (§4) is driven by a profiler — real per-stage
//! forward/backward and communication times feed the performance model
//! that picks the wave configuration. This crate closes that loop for the
//! reproduction: both engines emit the same [`Trace`] of
//! [`TraceEvent`]s —
//!
//! * the discrete-event simulator lowers its spans and transfers into a
//!   trace when `SimOptions::trace` is set (`hanayo_sim::try_simulate_traced`),
//!   with times in simulated seconds;
//! * the threaded runtime records `Instant`-based spans around every
//!   worker op when `TrainerConfig::trace` is set, with times in wall-clock
//!   seconds since the trainer's origin.
//!
//! On top of the shared model:
//!
//! * [`chrome`] — export to Chrome `trace_event` JSON (the array format),
//!   loadable in Perfetto / `chrome://tracing`, plus a validator the CI
//!   smoke test parses exports back through.
//! * [`analysis`] — bubble ratio, per-device utilisation, comm/compute
//!   overlap and the critical path, computed uniformly for simulated and
//!   measured traces.
//! * [`calibrate`](mod@calibrate) — fit per-stage `T_F`/`T_B` and link time from a
//!   *measured* runtime trace and re-express them as a
//!   [`hanayo_model::CostTable`], so the simulator can predict the runtime
//!   it was calibrated on: measure → calibrate → sweep → predict.
//! * [`gantt`] — ASCII Gantt rendering over real timelines, sharing
//!   `hanayo_core::gantt`'s painter so simulated-seconds and wall-clock
//!   charts look exactly like the paper-style abstract ones.

pub mod analysis;
pub mod calibrate;
pub mod chrome;
pub mod event;
pub mod gantt;

pub use analysis::{analyze, TraceAnalysis};
pub use calibrate::{calibrate, record_validation_attempt, CalibrateError, Calibration};
pub use chrome::{chrome_trace_json, validate_chrome_json};
pub use event::{Trace, TraceError, TraceEvent, TraceKind};
