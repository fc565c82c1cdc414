//! Schedule generators: one module per pipeline-parallel algorithm.
//!
//! The entry point is [`build_schedule`], which dispatches on
//! [`crate::config::Scheme`], generates the per-device compute order,
//! lowers communication ([`crate::comm`]), and appends the optimizer step.
//! All generators are deterministic.

pub mod async_pipedream;
pub mod chimera;
pub mod custom;
pub mod dapple;
pub mod gpipe;
pub mod hanayo;
pub mod interleaved;
pub mod listsched;
pub mod search;
pub mod table;

use crate::action::Schedule;
use crate::chain::ComputeSchedule;
use crate::comm;
use crate::config::{ConfigError, PipelineConfig, Scheme};
use custom::CustomMapError;
use std::fmt;

/// Errors from schedule generation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ScheduleError {
    /// The configuration itself is invalid.
    Config(ConfigError),
    /// A user-provided stage map is malformed (carries the offending
    /// group/micro-batch index).
    CustomMap(CustomMapError),
    /// The generator could not make progress (a bug guard: indicates a
    /// cyclic placement; never expected for the shipped schemes).
    Deadlock {
        /// Ops scheduled before the generator stalled.
        scheduled: usize,
        /// Ops that should have been scheduled.
        expected: usize,
    },
}

impl fmt::Display for ScheduleError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScheduleError::Config(e) => write!(f, "invalid configuration: {e}"),
            ScheduleError::CustomMap(e) => write!(f, "invalid stage map: {e}"),
            ScheduleError::Deadlock { scheduled, expected } => {
                write!(f, "scheduler deadlock: placed {scheduled} of {expected} compute ops")
            }
        }
    }
}

impl std::error::Error for ScheduleError {}

impl From<ConfigError> for ScheduleError {
    fn from(e: ConfigError) -> Self {
        ScheduleError::Config(e)
    }
}

impl From<CustomMapError> for ScheduleError {
    fn from(e: CustomMapError) -> Self {
        ScheduleError::CustomMap(e)
    }
}

/// Generate the compute-only schedule (per-device op order) for a
/// configuration. Most callers want [`build_schedule`] instead.
pub fn build_compute_schedule(cfg: &PipelineConfig) -> Result<ComputeSchedule, ScheduleError> {
    cfg.validate()?;
    match cfg.scheme {
        Scheme::GPipe => gpipe::generate(cfg),
        Scheme::Dapple => dapple::generate(cfg),
        Scheme::Interleaved { .. } => interleaved::generate(cfg),
        Scheme::Chimera => chimera::generate(cfg),
        Scheme::Hanayo { .. } => hanayo::generate(cfg),
        Scheme::AsyncPipeDream => async_pipedream::generate(cfg),
    }
}

/// Generate a complete, executable [`Schedule`] (compute order + lowered
/// communication + optimizer step) for a configuration.
///
/// ```
/// use hanayo_core::config::{PipelineConfig, Scheme};
/// use hanayo_core::schedule::build_schedule;
///
/// let cfg = PipelineConfig::new(4, 4, Scheme::Hanayo { waves: 2 }).unwrap();
/// let schedule = build_schedule(&cfg).unwrap();
/// assert_eq!(schedule.lists.len(), 4);
/// // 2 compute ops (fwd+bwd) per micro-batch per stage: 2*4*16
/// assert_eq!(schedule.total_compute(), 128);
/// ```
pub fn build_schedule(cfg: &PipelineConfig) -> Result<Schedule, ScheduleError> {
    let compute = build_compute_schedule(cfg)?;
    Ok(comm::lower(&compute))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn all_schemes(p: u32) -> Vec<Scheme> {
        vec![
            Scheme::GPipe,
            Scheme::Dapple,
            Scheme::Interleaved { chunks: 2 },
            Scheme::Chimera,
            Scheme::Hanayo { waves: 1 },
            Scheme::Hanayo { waves: 2 },
            Scheme::AsyncPipeDream,
        ]
        .into_iter()
        .filter(move |s| !matches!(s, Scheme::Chimera) || p.is_multiple_of(2))
        .collect()
    }

    #[test]
    fn every_scheme_generates_complete_schedules() {
        for p in [1u32, 2, 4, 8] {
            // B ≥ P, B < P (b = max(1, p/2)) and B = 1 are all legal shapes
            // and must yield complete schedules — no warmup underflow, no
            // truncation.
            for b in [p, 2 * p, (p / 2).max(1), 1] {
                for scheme in all_schemes(p) {
                    if matches!(scheme, Scheme::Chimera) && !b.is_multiple_of(2) {
                        continue;
                    }
                    let cfg = PipelineConfig::new(p, b, scheme).unwrap();
                    let cs = build_compute_schedule(&cfg)
                        .unwrap_or_else(|e| panic!("{scheme} P={p} B={b}: {e}"));
                    assert_eq!(cs.total_ops(), cs.expected_ops(), "{scheme} P={p} B={b} op count");
                }
            }
        }
    }

    #[test]
    fn degenerate_shapes_reject_with_named_reasons() {
        // Every generator returns the structural rejection as a typed
        // `ScheduleError::Config` with the named reason — even when the
        // (pub-field) config bypassed `PipelineConfig::new`.
        for scheme in all_schemes(2) {
            let zero_p = PipelineConfig { devices: 0, micro_batches: 4, scheme };
            assert_eq!(
                build_compute_schedule(&zero_p).unwrap_err(),
                ScheduleError::Config(ConfigError::Empty),
                "{scheme} P=0"
            );
            let zero_b = PipelineConfig { devices: 4, micro_batches: 0, scheme };
            assert_eq!(
                build_compute_schedule(&zero_b).unwrap_err(),
                ScheduleError::Config(ConfigError::Empty),
                "{scheme} B=0"
            );
        }
        let odd_chimera = PipelineConfig { devices: 3, micro_batches: 4, scheme: Scheme::Chimera };
        assert_eq!(
            build_compute_schedule(&odd_chimera).unwrap_err(),
            ScheduleError::Config(ConfigError::ChimeraNeedsEvenSplit)
        );
        let overflow = PipelineConfig {
            devices: 4,
            micro_batches: 4,
            scheme: Scheme::Hanayo { waves: u32::MAX / 4 },
        };
        assert_eq!(
            build_compute_schedule(&overflow).unwrap_err(),
            ScheduleError::Config(ConfigError::StageOverflow)
        );
    }

    #[test]
    fn build_schedule_appends_optimizer_step() {
        let cfg = PipelineConfig::new(4, 4, Scheme::Dapple).unwrap();
        let s = build_schedule(&cfg).unwrap();
        for list in &s.lists {
            assert_eq!(
                list.actions.last(),
                Some(&crate::action::Action::OptimizerStep),
                "every worker flushes"
            );
        }
    }
}
