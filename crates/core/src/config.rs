//! Pipeline configuration: which scheme, how many devices, micro-batches,
//! waves — the knobs of Table 1 in the paper.

use serde::{Deserialize, Serialize};
use std::fmt;

/// The synchronous (and one asynchronous) pipeline-parallel scheduling
/// algorithms implemented by this crate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Scheme {
    /// GPipe: pipeline all forwards, then all backwards (Huang et al. 2018).
    GPipe,
    /// DAPPLE's one-forward-one-backward schedule (Fan et al. 2020), the
    /// de-facto standard 1F1B pipeline.
    Dapple,
    /// Megatron-LM's interleaved 1F1B: each device holds `chunks` virtual
    /// stages assigned round-robin, shrinking bubbles at the cost of more
    /// communication.
    Interleaved {
        /// Number of virtual stages (model chunks) per device.
        chunks: u32,
    },
    /// Chimera (Li & Hoefler 2021): two pipelines in opposite directions,
    /// each with its own full weight replica.
    Chimera,
    /// Hanayo: a single wave-like pipeline with `waves` "V"s per
    /// forward/backward pass and **no** weight replication. `S = 2·W·P`.
    Hanayo {
        /// Number of waves `W` (Table 1: `W = S / (2P)`).
        waves: u32,
    },
    /// PipeDream-style asynchronous 1F1B without a flush (Fig. 4b). Included
    /// for illustration; convergence-affecting, so never benchmarked as a
    /// synchronous peer.
    AsyncPipeDream,
}

impl Scheme {
    /// Number of model stages this scheme uses on `devices` workers.
    pub fn stages(self, devices: u32) -> u32 {
        match self {
            Scheme::GPipe | Scheme::Dapple | Scheme::AsyncPipeDream => devices,
            Scheme::Interleaved { chunks } => devices * chunks,
            // Chimera partitions the model into P stages; the second replica
            // re-uses the same stage ids on mirrored devices.
            Scheme::Chimera => devices,
            Scheme::Hanayo { waves } => 2 * waves * devices,
        }
    }

    /// Number of full weight copies resident across the pipeline.
    /// Only Chimera replicates the model (the wave transformation exists
    /// precisely to remove this; see §3.2 of the paper).
    pub fn weight_replicas(self) -> u32 {
        match self {
            Scheme::Chimera => 2,
            _ => 1,
        }
    }

    /// Short label used in figures (`G`, `D`, `C`, `H-2`, ...).
    pub fn label(self) -> String {
        match self {
            Scheme::GPipe => "G".to_string(),
            Scheme::Dapple => "D".to_string(),
            Scheme::Interleaved { chunks } => format!("I-{chunks}"),
            Scheme::Chimera => "C".to_string(),
            Scheme::Hanayo { waves } => format!("H-{waves}"),
            Scheme::AsyncPipeDream => "PD".to_string(),
        }
    }
}

impl fmt::Display for Scheme {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Scheme::GPipe => write!(f, "GPipe"),
            Scheme::Dapple => write!(f, "DAPPLE"),
            Scheme::Interleaved { chunks } => write!(f, "Interleaved-1F1B(v={chunks})"),
            Scheme::Chimera => write!(f, "Chimera"),
            Scheme::Hanayo { waves } => write!(f, "Hanayo(W={waves})"),
            Scheme::AsyncPipeDream => write!(f, "PipeDream-async"),
        }
    }
}

/// Configuration of a single pipeline (one pipeline-parallel group).
///
/// Data parallelism is layered *outside* of this: a cluster plan runs `D`
/// replicas of one `PipelineConfig` on disjoint device groups and all-reduces
/// gradients at the flush (see `hanayo-sim`'s plan module).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct PipelineConfig {
    /// `P`: number of workers in the pipeline.
    pub devices: u32,
    /// `B`: micro-batches per training iteration.
    pub micro_batches: u32,
    /// Which scheduling algorithm to use.
    pub scheme: Scheme,
}

/// Errors produced when a configuration is structurally impossible.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ConfigError {
    /// `devices == 0` or `micro_batches == 0`.
    Empty,
    /// Chimera needs an even number of devices and micro-batches to split
    /// between the two directions.
    ChimeraNeedsEvenSplit,
    /// `waves == 0` or `chunks == 0`.
    ZeroSubdivision,
    /// The stage count `S` does not fit in `u32` (e.g. `2·W·P` overflows
    /// for an enormous wave count). Without this guard `stages()` panics
    /// in debug builds and silently wraps in release builds.
    StageOverflow,
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::Empty => write!(f, "devices and micro_batches must be non-zero"),
            ConfigError::ChimeraNeedsEvenSplit => {
                write!(f, "Chimera requires an even device count and micro-batch count")
            }
            ConfigError::ZeroSubdivision => write!(f, "waves/chunks must be non-zero"),
            ConfigError::StageOverflow => {
                write!(f, "stage count overflows u32 (waves/chunks × devices too large)")
            }
        }
    }
}

impl std::error::Error for ConfigError {}

impl PipelineConfig {
    /// Create a validated configuration.
    pub fn new(devices: u32, micro_batches: u32, scheme: Scheme) -> Result<Self, ConfigError> {
        let cfg = PipelineConfig { devices, micro_batches, scheme };
        cfg.validate()?;
        Ok(cfg)
    }

    /// Check the structural invariants of the configuration.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.devices == 0 || self.micro_batches == 0 {
            return Err(ConfigError::Empty);
        }
        match self.scheme {
            Scheme::Chimera
                if (!self.devices.is_multiple_of(2) || !self.micro_batches.is_multiple_of(2)) =>
            {
                return Err(ConfigError::ChimeraNeedsEvenSplit);
            }
            Scheme::Hanayo { waves: 0 } | Scheme::Interleaved { chunks: 0 } => {
                return Err(ConfigError::ZeroSubdivision)
            }
            _ => {}
        }
        if self.checked_stages().is_none() {
            return Err(ConfigError::StageOverflow);
        }
        Ok(())
    }

    /// `S` if it fits in `u32`, `None` on overflow (the shape
    /// [`PipelineConfig::validate`] rejects as [`ConfigError::StageOverflow`]).
    pub(crate) fn checked_stages(&self) -> Option<u32> {
        match self.scheme {
            Scheme::GPipe | Scheme::Dapple | Scheme::AsyncPipeDream | Scheme::Chimera => {
                Some(self.devices)
            }
            Scheme::Interleaved { chunks } => self.devices.checked_mul(chunks),
            Scheme::Hanayo { waves } => {
                2u32.checked_mul(waves).and_then(|w| w.checked_mul(self.devices))
            }
        }
    }

    /// `S`: total number of model stages for this configuration.
    pub fn stages(&self) -> u32 {
        self.scheme.stages(self.devices)
    }

    /// `W = S / (2P)` from Table 1 — the number of waves. For non-wave
    /// schemes this returns the equivalent wave count of their stage layout
    /// (`0` means "less than half a wave", i.e. a straight pipe).
    pub fn waves(&self) -> u32 {
        match self.scheme {
            Scheme::Hanayo { waves } => waves,
            _ => self.stages() / (2 * self.devices),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stage_counts_follow_table1() {
        assert_eq!(Scheme::GPipe.stages(4), 4);
        assert_eq!(Scheme::Dapple.stages(8), 8);
        assert_eq!(Scheme::Chimera.stages(8), 8);
        assert_eq!(Scheme::Hanayo { waves: 1 }.stages(4), 8);
        assert_eq!(Scheme::Hanayo { waves: 2 }.stages(4), 16);
        assert_eq!(Scheme::Hanayo { waves: 4 }.stages(4), 32);
        assert_eq!(Scheme::Interleaved { chunks: 2 }.stages(4), 8);
    }

    #[test]
    fn only_chimera_replicates_weights() {
        assert_eq!(Scheme::Chimera.weight_replicas(), 2);
        assert_eq!(Scheme::GPipe.weight_replicas(), 1);
        assert_eq!(Scheme::Hanayo { waves: 4 }.weight_replicas(), 1);
    }

    #[test]
    fn wave_count_matches_definition() {
        // W = S / (2P)
        let cfg = PipelineConfig::new(4, 4, Scheme::Hanayo { waves: 2 }).unwrap();
        assert_eq!(cfg.waves(), 2);
        assert_eq!(cfg.stages(), 16);
        let cfg = PipelineConfig::new(4, 4, Scheme::GPipe).unwrap();
        assert_eq!(cfg.waves(), 0, "a straight pipe is half a wave");
    }

    #[test]
    fn validation_rejects_bad_configs() {
        assert_eq!(PipelineConfig::new(0, 4, Scheme::GPipe).unwrap_err(), ConfigError::Empty);
        assert_eq!(PipelineConfig::new(4, 0, Scheme::GPipe).unwrap_err(), ConfigError::Empty);
        assert_eq!(
            PipelineConfig::new(3, 4, Scheme::Chimera).unwrap_err(),
            ConfigError::ChimeraNeedsEvenSplit
        );
        assert_eq!(
            PipelineConfig::new(4, 3, Scheme::Chimera).unwrap_err(),
            ConfigError::ChimeraNeedsEvenSplit
        );
        assert_eq!(
            PipelineConfig::new(4, 4, Scheme::Hanayo { waves: 0 }).unwrap_err(),
            ConfigError::ZeroSubdivision
        );
    }

    #[test]
    fn validation_rejects_stage_overflow() {
        // 2·W·P would wrap: previously this panicked (debug) or silently
        // wrapped (release) in stages(); now it is a named rejection.
        assert_eq!(
            PipelineConfig::new(4, 4, Scheme::Hanayo { waves: u32::MAX / 4 }).unwrap_err(),
            ConfigError::StageOverflow
        );
        assert_eq!(
            PipelineConfig::new(8, 4, Scheme::Interleaved { chunks: u32::MAX / 4 }).unwrap_err(),
            ConfigError::StageOverflow
        );
        // A large-but-fitting shape still validates.
        PipelineConfig::new(2, 2, Scheme::Hanayo { waves: 1 << 20 }).unwrap();
    }

    #[test]
    fn labels_match_figure_legend() {
        assert_eq!(Scheme::GPipe.label(), "G");
        assert_eq!(Scheme::Dapple.label(), "D");
        assert_eq!(Scheme::Chimera.label(), "C");
        assert_eq!(Scheme::Hanayo { waves: 8 }.label(), "H-8");
    }
}
