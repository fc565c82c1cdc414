//! User-defined pipeline schemes.
//!
//! The paper's framework "offer\[s\] interfaces for users to modify existing
//! schemes or develop their own" (§4.1). This module is that interface:
//! hand the generator an arbitrary [`StageMap`] — any stage→device path(s)
//! you can draw — plus an optional cap on the micro-batches of each path
//! group in flight, and get back a validated, executable schedule usable
//! by both engines. `hanayo_analyze::verify`
//! accepts it exactly as it accepts a built-in scheme.
//!
//! ```
//! use hanayo_core::config::{PipelineConfig, Scheme};
//! use hanayo_core::ids::{DeviceId, ReplicaId};
//! use hanayo_core::schedule::custom::build_custom_schedule;
//! use hanayo_core::schedule::listsched::list_schedule;
//! use hanayo_core::schedule::table::{check_table, ScheduleTable};
//! use hanayo_core::stage_map::{PathGroup, StageMap};
//!
//! // A "zigzag" pipeline: 0→1→2→3→1→2 (stages revisit the middle).
//! let path = [0u32, 1, 2, 3, 1, 2].map(DeviceId).to_vec();
//! let map = StageMap {
//!     devices: 4,
//!     stages: 6,
//!     groups: vec![PathGroup { path, replica: ReplicaId(0) }],
//!     mb_group: vec![0; 4],
//! };
//! let cfg = PipelineConfig::new(4, 4, Scheme::GPipe).unwrap(); // P and B only
//! let schedule = build_custom_schedule(&cfg, map.clone(), None).unwrap();
//! assert_eq!(schedule.total_compute(), 2 * 4 * 6);
//! // Its compute order, tabulated, passes the standalone table checker.
//! let cs = list_schedule(&cfg, map, None).unwrap();
//! check_table(&ScheduleTable::from_compute(&cs)).unwrap();
//! ```

use crate::action::Schedule;
use crate::comm;
use crate::config::PipelineConfig;
use crate::schedule::listsched::list_schedule;
use crate::schedule::ScheduleError;
use crate::stage_map::StageMap;
use std::fmt;

/// Errors specific to user-provided stage maps. Every variant names the
/// offending group/stage/micro-batch index, so a bad map in a batch of
/// hand-written schemes is locatable without bisecting.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CustomMapError {
    /// A path references a device rank ≥ `devices`.
    DeviceOutOfRange {
        /// Offending group index.
        group: usize,
        /// Stage position within the group's path.
        stage: usize,
        /// The out-of-range rank.
        device: u32,
        /// Number of devices the map declares.
        devices: u32,
    },
    /// `mb_group` length does not match the micro-batch count.
    WrongGroupCount {
        /// `mb_group.len()`.
        got: usize,
        /// `cfg.micro_batches`.
        expected: usize,
    },
    /// A micro-batch's `mb_group` entry references a missing group.
    GroupOutOfRange {
        /// Offending micro-batch index.
        mb: usize,
        /// The out-of-range group it names.
        group: usize,
        /// Number of groups the map declares.
        groups: usize,
    },
    /// A group's path length differs from `stages`.
    BadPathLength {
        /// Offending group index.
        group: usize,
        /// Its path length.
        got: usize,
        /// The map's declared stage count.
        expected: u32,
    },
    /// The map declares no groups.
    NoGroups,
}

impl fmt::Display for CustomMapError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CustomMapError::DeviceOutOfRange { group, stage, device, devices } => write!(
                f,
                "group {group} stage {stage} references device {device}, only {devices} devices"
            ),
            CustomMapError::WrongGroupCount { got, expected } => {
                write!(f, "mb_group has {got} entries for {expected} micro-batches")
            }
            CustomMapError::GroupOutOfRange { mb, group, groups } => {
                write!(f, "micro-batch {mb} assigned to group {group}, only {groups} groups")
            }
            CustomMapError::BadPathLength { group, got, expected } => {
                write!(f, "group {group} path has {got} stages, map declares {expected}")
            }
            CustomMapError::NoGroups => write!(f, "stage map has no groups"),
        }
    }
}

impl std::error::Error for CustomMapError {}

/// Check a user-provided map against a configuration.
pub(crate) fn check_map(cfg: &PipelineConfig, map: &StageMap) -> Result<(), CustomMapError> {
    if map.groups.is_empty() {
        return Err(CustomMapError::NoGroups);
    }
    for (g, group) in map.groups.iter().enumerate() {
        if group.path.len() != map.stages as usize {
            return Err(CustomMapError::BadPathLength {
                group: g,
                got: group.path.len(),
                expected: map.stages,
            });
        }
        if let Some((s, d)) = group.path.iter().enumerate().find(|(_, d)| d.0 >= map.devices) {
            return Err(CustomMapError::DeviceOutOfRange {
                group: g,
                stage: s,
                device: d.0,
                devices: map.devices,
            });
        }
    }
    if map.mb_group.len() != cfg.micro_batches as usize {
        return Err(CustomMapError::WrongGroupCount {
            got: map.mb_group.len(),
            expected: cfg.micro_batches as usize,
        });
    }
    if let Some((m, &g)) = map.mb_group.iter().enumerate().find(|(_, &g)| g >= map.groups.len()) {
        return Err(CustomMapError::GroupOutOfRange { mb: m, group: g, groups: map.groups.len() });
    }
    Ok(())
}

/// Build a complete schedule from a user-provided stage map. The
/// configuration contributes `P` and `B`; its `scheme` field is ignored
/// (the map *is* the scheme). `cap` bounds the micro-batches of each path
/// group in flight, as in [`list_schedule`].
pub fn build_custom_schedule(
    cfg: &PipelineConfig,
    map: StageMap,
    cap: Option<u32>,
) -> Result<Schedule, ScheduleError> {
    check_map(cfg, &map)?;
    let cs = list_schedule(cfg, map, cap)?;
    Ok(comm::lower(&cs))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Scheme;
    use crate::ids::{DeviceId, ReplicaId};
    use crate::stage_map::PathGroup;

    fn cfg(p: u32, b: u32) -> PipelineConfig {
        PipelineConfig::new(p, b, Scheme::GPipe).unwrap()
    }

    fn map(devices: u32, path: Vec<u32>, b: u32) -> StageMap {
        StageMap {
            devices,
            stages: path.len() as u32,
            groups: vec![PathGroup {
                path: path.into_iter().map(DeviceId).collect(),
                replica: ReplicaId(0),
            }],
            mb_group: vec![0; b as usize],
        }
    }

    #[test]
    fn rejects_out_of_range_device() {
        let m = map(2, vec![0, 5], 2);
        assert_eq!(
            check_map(&cfg(2, 2), &m),
            Err(CustomMapError::DeviceOutOfRange { group: 0, stage: 1, device: 5, devices: 2 })
        );
    }

    #[test]
    fn rejects_bad_group_assignment() {
        let mut m = map(2, vec![0, 1], 2);
        m.mb_group = vec![0, 7];
        assert_eq!(
            check_map(&cfg(2, 2), &m),
            Err(CustomMapError::GroupOutOfRange { mb: 1, group: 7, groups: 1 })
        );
        m.mb_group = vec![0];
        assert_eq!(
            check_map(&cfg(2, 2), &m),
            Err(CustomMapError::WrongGroupCount { got: 1, expected: 2 })
        );
    }

    #[test]
    fn rejects_path_length_mismatch() {
        let mut m = map(2, vec![0, 1], 2);
        m.stages = 3;
        assert_eq!(
            check_map(&cfg(2, 2), &m),
            Err(CustomMapError::BadPathLength { group: 0, got: 2, expected: 3 })
        );
    }

    #[test]
    fn errors_name_the_offending_index() {
        // The error *message* carries the index, not just the shape — a bad
        // map in a batch of hand-written schemes is locatable directly.
        let m = map(2, vec![0, 5], 2);
        let msg = check_map(&cfg(2, 2), &m).unwrap_err().to_string();
        assert!(
            msg.contains("group 0") && msg.contains("stage 1") && msg.contains("device 5"),
            "{msg}"
        );

        let mut m = map(2, vec![0, 1], 3);
        m.mb_group = vec![0, 0, 4];
        let msg = check_map(&cfg(2, 3), &m).unwrap_err().to_string();
        assert!(msg.contains("micro-batch 2") && msg.contains("group 4"), "{msg}");
    }

    #[test]
    fn build_custom_schedule_propagates_the_typed_map_error() {
        // Previously lossy-mapped to ConfigError::Empty; now the index
        // survives to the ScheduleError layer.
        let m = map(2, vec![0, 5], 2);
        assert_eq!(
            build_custom_schedule(&cfg(2, 2), m, None).unwrap_err(),
            ScheduleError::CustomMap(CustomMapError::DeviceOutOfRange {
                group: 0,
                stage: 1,
                device: 5,
                devices: 2
            })
        );
    }
}
