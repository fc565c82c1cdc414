//! Simulation results: timing, utilisation, memory, and rendering.

use hanayo_core::memory::mean_variance;
use serde::{Deserialize, Serialize};

/// One executed compute op with wall-clock times (seconds).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SimSpan {
    /// Start time.
    pub start: f64,
    /// End time.
    pub end: f64,
    /// Micro-batch.
    pub mb: u32,
    /// Global stage.
    pub stage: u32,
    /// Backward?
    pub backward: bool,
}

/// The result of simulating one pipeline iteration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SimReport {
    /// Wall time of the iteration (flush completion of the slowest device).
    pub iteration_time: f64,
    /// Busy compute seconds per device.
    pub device_busy: Vec<f64>,
    /// Seconds each device spent blocked waiting for messages.
    pub device_comm_wait: Vec<f64>,
    /// `1 - busy / (P · iteration_time)`.
    pub bubble_ratio: f64,
    /// Peak bytes per device (weights + stash high-water mark).
    pub peak_mem: Vec<u64>,
    /// Static weight/optimizer bytes per device.
    pub weight_mem: Vec<u64>,
    /// fp16 gradient-buffer bytes per device (the all-reduce volume).
    pub grad_mem: Vec<u64>,
    /// Executed spans per device (for Gantt rendering). Empty in tuner
    /// results (`Tuning.ranked[i].result.group_report`), which come from
    /// span-free runs; [`crate::evaluate_plan`] and
    /// [`crate::try_simulate_traced`] fill it.
    pub spans: Vec<Vec<SimSpan>>,
}

impl SimReport {
    /// Highest per-device peak (the §5.1 "highest peak memory" metric).
    pub fn highest_peak(&self) -> u64 {
        self.peak_mem.iter().copied().max().unwrap_or(0)
    }

    /// Population variance of per-device peaks, in GB² (the §5.1 balance
    /// statistic).
    pub fn peak_variance_gb2(&self) -> f64 {
        let gb: Vec<f64> = self.peak_mem.iter().map(|&b| b as f64 / 1e9).collect();
        mean_variance(&gb).1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report() -> SimReport {
        SimReport {
            iteration_time: 10.0,
            device_busy: vec![8.0, 6.0],
            device_comm_wait: vec![1.0, 2.0],
            bubble_ratio: 0.3,
            peak_mem: vec![30_000_000_000, 10_000_000_000],
            weight_mem: vec![10_000_000_000, 10_000_000_000],
            grad_mem: vec![1_250_000_000, 1_250_000_000],
            spans: vec![vec![], vec![]],
        }
    }

    #[test]
    fn highest_peak_is_max() {
        assert_eq!(report().highest_peak(), 30_000_000_000);
    }

    #[test]
    fn variance_of_unbalanced_profile_is_positive() {
        assert!(report().peak_variance_gb2() > 0.0);
    }
}
