//! GPU device models: peak compute and memory for the accelerators used in
//! the paper's four clusters.

use serde::{Deserialize, Serialize};

/// The accelerator types appearing in §5's cluster descriptions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum GpuModel {
    /// NVIDIA A100 with 40 GB HBM2e (TACC Lonestar6).
    A100_40G,
    /// NVIDIA A100 with 80 GB HBM2e (the two local clusters).
    A100_80G,
    /// NVIDIA V100 with 32 GB HBM2 (Tencent cloud).
    V100_32G,
}

impl GpuModel {
    /// Peak dense fp16 tensor-core throughput in FLOP/s.
    pub(crate) fn peak_flops(self) -> f64 {
        match self {
            GpuModel::A100_40G | GpuModel::A100_80G => 312e12,
            GpuModel::V100_32G => 125e12,
        }
    }

    /// Total device memory in bytes.
    pub(crate) fn memory_bytes(self) -> u64 {
        match self {
            GpuModel::A100_40G => 40_000_000_000,
            GpuModel::A100_80G => 80_000_000_000,
            GpuModel::V100_32G => 32_000_000_000,
        }
    }

    /// Memory actually available to the training job after the CUDA
    /// context, framework buffers and fragmentation slack (a fixed 2 GB
    /// reserve, the conventional rule of thumb).
    pub(crate) fn usable_memory_bytes(self) -> u64 {
        self.memory_bytes().saturating_sub(2_000_000_000)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a100_variants_share_compute() {
        assert_eq!(GpuModel::A100_40G.peak_flops(), GpuModel::A100_80G.peak_flops());
        assert!(GpuModel::A100_40G.peak_flops() > GpuModel::V100_32G.peak_flops());
    }

    #[test]
    fn memory_ordering() {
        assert!(GpuModel::A100_80G.memory_bytes() > GpuModel::A100_40G.memory_bytes());
        assert!(GpuModel::A100_40G.memory_bytes() > GpuModel::V100_32G.memory_bytes());
    }

    #[test]
    fn usable_memory_reserves_headroom() {
        for g in [GpuModel::A100_40G, GpuModel::A100_80G, GpuModel::V100_32G] {
            assert!(g.usable_memory_bytes() < g.memory_bytes());
            assert!(g.usable_memory_bytes() > g.memory_bytes() / 2);
        }
    }
}
