//! Stage→device placement: the geometric heart of every pipeline scheme.
//!
//! The paper's central observation (§3.2) is that a pipeline's *shape* is a
//! path through devices: GPipe/DAPPLE walk straight down, Chimera runs two
//! straight pipes in opposite directions, and Hanayo folds a single pipe
//! into `W` "V"-shaped waves. A [`StageMap`] captures exactly this: for each
//! group of micro-batches, the sequence of devices visited by stages
//! `0..S`.

use crate::config::{PipelineConfig, Scheme};
use crate::ids::{DeviceId, MicroBatch, ReplicaId, StageId};
use serde::{Deserialize, Serialize};

/// One pipeline "direction group": a set of micro-batches that share the
/// same stage→device path and weight replica.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct PathGroup {
    /// `path[s]` is the device executing stage `s` for this group's
    /// micro-batches. Length `S`.
    pub path: Vec<DeviceId>,
    /// Which weight copy this group trains. All schemes except Chimera use
    /// replica 0 everywhere.
    pub replica: ReplicaId,
}

/// Complete placement of stages on devices for one pipeline.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct StageMap {
    /// `P`: number of devices.
    pub devices: u32,
    /// `S`: number of stages.
    pub stages: u32,
    /// The direction groups (1 for most schemes, 2 for Chimera).
    pub groups: Vec<PathGroup>,
    /// `mb_group[m]` is the group index of micro-batch `m`. Length `B`.
    pub mb_group: Vec<usize>,
}

impl StageMap {
    /// Build the placement for a validated configuration.
    pub(crate) fn for_config(cfg: &PipelineConfig) -> StageMap {
        let p = cfg.devices;
        let b = cfg.micro_batches;
        match cfg.scheme {
            Scheme::GPipe | Scheme::Dapple | Scheme::AsyncPipeDream => {
                let path = (0..p).map(DeviceId).collect();
                StageMap {
                    devices: p,
                    stages: p,
                    groups: vec![PathGroup { path, replica: ReplicaId(0) }],
                    mb_group: vec![0; b as usize],
                }
            }
            Scheme::Interleaved { chunks } => {
                // Megatron-LM interleaving: stage s lives on device s mod P,
                // so each device holds `chunks` evenly spaced model chunks.
                let s = p * chunks;
                let path = (0..s).map(|st| DeviceId(st % p)).collect();
                StageMap {
                    devices: p,
                    stages: s,
                    groups: vec![PathGroup { path, replica: ReplicaId(0) }],
                    mb_group: vec![0; b as usize],
                }
            }
            Scheme::Chimera => {
                // Two straight pipes in opposite directions, each with its
                // own weight replica. Down-pipe micro-batches are the first
                // half (Fig. 3c / Fig. 5: "micro-batch 0 and 1 are
                // Pipe_bright ... 2 and 3 are Pipe_dark").
                let down = (0..p).map(DeviceId).collect();
                let up = (0..p).rev().map(DeviceId).collect();
                let half = (b / 2) as usize;
                let mut mb_group = vec![0usize; b as usize];
                for g in mb_group.iter_mut().skip(half) {
                    *g = 1;
                }
                StageMap {
                    devices: p,
                    stages: p,
                    groups: vec![
                        PathGroup { path: down, replica: ReplicaId(0) },
                        PathGroup { path: up, replica: ReplicaId(1) },
                    ],
                    mb_group,
                }
            }
            Scheme::Hanayo { waves } => {
                let path = wave_path(p, waves);
                StageMap {
                    devices: p,
                    stages: 2 * waves * p,
                    groups: vec![PathGroup { path, replica: ReplicaId(0) }],
                    mb_group: vec![0; b as usize],
                }
            }
        }
    }

    /// Device executing `stage` for micro-batch `mb`.
    #[inline]
    pub fn device_of(&self, mb: MicroBatch, stage: StageId) -> DeviceId {
        self.groups[self.mb_group[mb.idx()]].path[stage.idx()]
    }

    /// Group index of a micro-batch.
    #[inline]
    pub(crate) fn group_of(&self, mb: MicroBatch) -> usize {
        self.mb_group[mb.idx()]
    }

    /// All `(group, stage)` partitions resident on `device`, i.e. the local
    /// modules it must hold. Order: by group, then stage.
    pub fn modules_on(&self, device: DeviceId) -> Vec<(usize, StageId)> {
        let mut out = Vec::new();
        for (g, group) in self.groups.iter().enumerate() {
            for (s, &d) in group.path.iter().enumerate() {
                if d == device {
                    out.push((g, StageId(s as u32)));
                }
            }
        }
        out
    }

    /// Number of model-stage partitions held by each device, counting
    /// replicated groups separately (this drives weight memory).
    pub(crate) fn stages_held(&self) -> Vec<usize> {
        let mut held = vec![0usize; self.devices as usize];
        for group in &self.groups {
            for &d in &group.path {
                held[d.idx()] += 1;
            }
        }
        held
    }
}

/// The wave path of §3.2/§3.3: `W` "V"s. Wave `k` descends through devices
/// `0..P` (stages `2kP .. 2kP+P`) and ascends back through `P-1..0` (stages
/// `2kP+P .. 2kP+2P`). Consecutive stages at the fold (`P-1`→`P`) and at
/// wave boundaries (`2P-1`→`2P`) share a device, which is exactly why the
/// swap in Fig. 5 removes communication.
pub fn wave_path(devices: u32, waves: u32) -> Vec<DeviceId> {
    let p = devices;
    let mut path = Vec::with_capacity((2 * waves * p) as usize);
    for _ in 0..waves {
        path.extend((0..p).map(DeviceId));
        path.extend((0..p).rev().map(DeviceId));
    }
    path
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PipelineConfig;

    fn cfg(p: u32, b: u32, scheme: Scheme) -> PipelineConfig {
        PipelineConfig::new(p, b, scheme).unwrap()
    }

    #[test]
    fn wave_path_is_w_shaped() {
        let path = wave_path(4, 2);
        let ranks: Vec<u32> = path.iter().map(|d| d.0).collect();
        assert_eq!(ranks, vec![0, 1, 2, 3, 3, 2, 1, 0, 0, 1, 2, 3, 3, 2, 1, 0]);
    }

    #[test]
    fn wave_folds_are_local() {
        // No communication at the V fold or at wave boundaries.
        for (p, w) in [(2, 1), (4, 2), (8, 4), (3, 3)] {
            let path = wave_path(p, w);
            // fold points: indices P-1, P within each wave; boundaries 2kP.
            for k in 0..w {
                let base = (2 * k * p) as usize;
                assert_eq!(path[base + p as usize - 1], path[base + p as usize]);
                if k > 0 {
                    assert_eq!(path[base - 1], path[base]);
                }
            }
        }
    }

    #[test]
    fn hanayo_each_device_holds_2w_stages() {
        let map = StageMap::for_config(&cfg(4, 4, Scheme::Hanayo { waves: 2 }));
        assert_eq!(map.stages, 16);
        for held in map.stages_held() {
            assert_eq!(held, 4); // 2W = 4
        }
    }

    #[test]
    fn chimera_devices_hold_one_stage_per_replica() {
        let map = StageMap::for_config(&cfg(4, 4, Scheme::Chimera));
        assert_eq!(map.stages, 4);
        for held in map.stages_held() {
            assert_eq!(held, 2);
        }
        // Down pipe: mb0 stage0 on P0; up pipe: mb2 stage0 on P3.
        assert_eq!(map.device_of(MicroBatch(0), StageId(0)), DeviceId(0));
        assert_eq!(map.device_of(MicroBatch(2), StageId(0)), DeviceId(3));
        assert_eq!(map.device_of(MicroBatch(3), StageId(3)), DeviceId(0));
    }

    #[test]
    fn straight_pipes_are_identity() {
        for scheme in [Scheme::GPipe, Scheme::Dapple] {
            let map = StageMap::for_config(&cfg(8, 8, scheme));
            for s in 0..8 {
                assert_eq!(map.device_of(MicroBatch(0), StageId(s)), DeviceId(s));
            }
        }
    }

    #[test]
    fn interleaved_round_robin() {
        let map = StageMap::for_config(&cfg(4, 4, Scheme::Interleaved { chunks: 2 }));
        assert_eq!(map.stages, 8);
        assert_eq!(map.device_of(MicroBatch(0), StageId(5)), DeviceId(1));
        for held in map.stages_held() {
            assert_eq!(held, 2);
        }
    }

    #[test]
    fn modules_on_reports_local_partitions() {
        let map = StageMap::for_config(&cfg(4, 4, Scheme::Hanayo { waves: 1 }));
        // Device 0 holds stage 0 (down leg) and stage 7 (up leg end).
        let mods = map.modules_on(DeviceId(0));
        assert_eq!(mods, vec![(0, StageId(0)), (0, StageId(7))]);
        let mods3 = map.modules_on(DeviceId(3));
        assert_eq!(mods3, vec![(0, StageId(3)), (0, StageId(4))]);
    }

    #[test]
    fn hanayo_last_stage_lands_on_device_zero() {
        // The loss is computed where backward begins: device 0. This is the
        // property that lets Hanayo start backward without an extra hop.
        for (p, w) in [(2, 1), (4, 1), (4, 2), (8, 2), (8, 4)] {
            let map = StageMap::for_config(&cfg(p, p, Scheme::Hanayo { waves: w }));
            let last = StageId(map.stages - 1);
            assert_eq!(map.device_of(MicroBatch(0), last), DeviceId(0));
        }
    }
}
