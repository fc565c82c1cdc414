//! Cluster topologies: who is wired to whom, and how fast.

use crate::gpu::GpuModel;
use crate::link::{Link, LinkClass};
use serde::{Deserialize, Serialize};
use std::fmt;

/// A device-subset selection named an index outside the cluster.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct SelectError {
    /// The out-of-range device index.
    pub index: usize,
    /// How many devices the cluster actually has.
    pub devices: usize,
}

impl fmt::Display for SelectError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "device index {} out of range for a {}-device cluster", self.index, self.devices)
    }
}

impl std::error::Error for SelectError {}

/// A complete cluster description: devices plus the link matrix.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ClusterSpec {
    /// Human-readable name used in figures ("PC", "FC", "TACC", "TC").
    pub name: String,
    /// GPU model per device.
    pub gpus: Vec<GpuModel>,
    /// Node id per device (inter-node links ride the fabric).
    pub node: Vec<u32>,
    /// Dense link matrix; `links[a][b]` is the path `a → b`.
    pub links: Vec<Vec<Link>>,
    /// Model FLOPs utilisation: fraction of peak the training kernels
    /// actually achieve (0.4–0.5 is typical for well-tuned transformers).
    pub mfu: f64,
    /// Mean time between failures of a *single* device, seconds. The
    /// fleet-level MTBF a recovery model should use is `device_mtbf_s / n`
    /// for an `n`-device job (`hanayo_ckpt::recovery::cluster_mtbf_s`).
    /// The default (`DEFAULT_DEVICE_MTBF_S`, ~4 months) matches published
    /// per-GPU failure rates for large training fleets; `f64::INFINITY`
    /// models a failure-free cluster.
    pub device_mtbf_s: f64,
}

/// Default per-device MTBF: ~10⁷ seconds (≈ 116 days), the order of
/// magnitude reported for datacenter GPU fleets.
pub(crate) const DEFAULT_DEVICE_MTBF_S: f64 = 1.0e7;

impl ClusterSpec {
    /// Number of devices.
    pub fn len(&self) -> usize {
        self.gpus.len()
    }

    /// True when the cluster has no devices.
    pub fn is_empty(&self) -> bool {
        self.gpus.is_empty()
    }

    /// Effective FLOP/s of device `d` (peak × MFU).
    pub fn effective_flops(&self, d: usize) -> f64 {
        self.gpus[d].peak_flops() * self.mfu
    }

    /// The link used by a `a → b` transfer.
    pub fn p2p(&self, a: usize, b: usize) -> Link {
        self.links[a][b]
    }

    /// Usable memory of device `d` in bytes.
    pub fn memory(&self, d: usize) -> u64 {
        self.gpus[d].usable_memory_bytes()
    }

    /// Restrict the cluster to a subset of devices (for a pipeline group in
    /// a `D×P` plan). Ranks are remapped to `0..subset.len()` in the given
    /// order. Every index is validated up front: an out-of-range device
    /// returns a typed [`SelectError`] naming the index and the cluster
    /// size instead of panicking mid-copy.
    pub(crate) fn try_select(&self, subset: &[usize]) -> Result<ClusterSpec, SelectError> {
        if let Some(&index) = subset.iter().find(|&&i| i >= self.len()) {
            return Err(SelectError { index, devices: self.len() });
        }
        let gpus = subset.iter().map(|&i| self.gpus[i]).collect();
        let node = subset.iter().map(|&i| self.node[i]).collect();
        let links =
            subset.iter().map(|&a| subset.iter().map(|&b| self.links[a][b]).collect()).collect();
        Ok(ClusterSpec {
            name: self.name.clone(),
            gpus,
            node,
            links,
            mfu: self.mfu,
            device_mtbf_s: self.device_mtbf_s,
        })
    }

    /// Restrict the cluster to a subset of devices, for callers that have
    /// already bounded the subset (the plan layer checks `dp·pp ≤ len`
    /// first). Ranks are remapped to `0..subset.len()` in the given order.
    /// Panics naming the out-of-range index and the cluster size.
    pub fn select(&self, subset: &[usize]) -> ClusterSpec {
        self.try_select(subset).unwrap_or_else(|e| panic!("ClusterSpec::select: {e}"))
    }

    /// Equality up to a renaming of node ids: the node ids are compared in
    /// first-appearance order, every other field exactly. The simulator
    /// reads node ids only to tell nodes apart, so two sub-clusters that
    /// are the same here (TACC's device groups `[0, 1]` and `[6, 7]`, say)
    /// drive it through the same operations and report identically.
    pub fn same_content(&self, other: &ClusterSpec) -> bool {
        let ClusterSpec { name, gpus, node, links, mfu, device_mtbf_s } = self;
        // First index carrying the same node id as index `i`: equal for
        // every `i` exactly when the two labellings differ by a renaming.
        let first_seen = |node: &[u32], i: usize| node.iter().position(|&n| n == node[i]);
        *name == other.name
            && *gpus == other.gpus
            && *links == other.links
            && *mfu == other.mfu
            && *device_mtbf_s == other.device_mtbf_s
            && node.len() == other.node.len()
            && (0..node.len()).all(|i| first_seen(node, i) == first_seen(&other.node, i))
    }

    /// The slowest inter-device link anywhere in the cluster — the
    /// bandwidth floor a checkpoint drain or state reload cannot beat
    /// (persistent storage hangs off the fabric, so a conservative
    /// recovery model charges state movement at this rate). Falls back to
    /// a loopback link for 0/1-device clusters.
    pub fn weakest_link(&self) -> Link {
        let mut worst = Link::of(LinkClass::Local);
        for a in 0..self.len() {
            for b in 0..self.len() {
                if a != b && self.links[a][b].bandwidth < worst.bandwidth {
                    worst = self.links[a][b];
                }
            }
        }
        worst
    }

    /// The slowest link on a ring over the given devices — the bandwidth
    /// bottleneck of a ring all-reduce.
    pub(crate) fn worst_ring_link(&self, ring: &[usize]) -> Link {
        let mut worst = Link::of(LinkClass::Local);
        for (k, &a) in ring.iter().enumerate() {
            let b = ring[(k + 1) % ring.len()];
            let l = self.p2p(a, b);
            if l.bandwidth < worst.bandwidth {
                worst = l;
            }
        }
        worst
    }

    fn build(
        name: &str,
        gpus: Vec<GpuModel>,
        node: Vec<u32>,
        class_of: impl Fn(usize, usize) -> LinkClass,
        mfu: f64,
    ) -> ClusterSpec {
        let n = gpus.len();
        let links =
            (0..n)
                .map(|a| {
                    (0..n)
                        .map(|b| {
                            if a == b {
                                Link::of(LinkClass::Local)
                            } else {
                                Link::of(class_of(a, b))
                            }
                        })
                        .collect()
                })
                .collect();
        ClusterSpec {
            name: name.to_string(),
            gpus,
            node,
            links,
            mfu,
            device_mtbf_s: DEFAULT_DEVICE_MTBF_S,
        }
    }
}

/// TACC Lonestar6: `n` A100-40GB GPUs packed three per node. Within a node
/// GPU 0 sits on socket 0 and GPUs 1–2 on socket 1 (§5: "GPU 0 on socket 0
/// and GPU 1 and 2 on socket 1"), so 0↔{1,2} paths cross the socket.
/// Nodes talk over InfiniBand HDR.
pub fn lonestar6(n: usize) -> ClusterSpec {
    let node: Vec<u32> = (0..n).map(|i| (i / 3) as u32).collect();
    let node_for = node.clone();
    ClusterSpec::build(
        "TACC",
        vec![GpuModel::A100_40G; n],
        node,
        move |a, b| {
            if node_for[a] != node_for[b] {
                LinkClass::InfiniBandHdr
            } else {
                let (la, lb) = (a % 3, b % 3);
                // local GPU index 0 is alone on socket 0
                if (la == 0) != (lb == 0) {
                    LinkClass::Pcie4CrossSocket
                } else {
                    LinkClass::Pcie4
                }
            }
        },
        0.42,
    )
}

/// Tencent GN10Xp cloud node: 8× V100-32GB in the DGX-1 hybrid cube mesh.
/// Devices `a` and `b` share an NVLink edge when they are hypercube
/// neighbours (differ in one bit) or belong to the two extra diagonal rings
/// of the DGX-1 backplane; other pairs fall back to PCIe.
pub fn tencent_v100(n: usize) -> ClusterSpec {
    assert!(n <= 8, "the TC node has 8 GPUs");
    ClusterSpec::build(
        "TC",
        vec![GpuModel::V100_32G; n],
        vec![0; n],
        |a, b| {
            let direct = (a ^ b).count_ones() == 1 || (a ^ b) == 0b101 || (a ^ b) == 0b110;
            if direct {
                LinkClass::NvLink2
            } else {
                LinkClass::Pcie4
            }
        },
        0.40,
    )
}

/// Local cluster "PC": 8× A100-80GB with NVLink only inside the pairs
/// (0,1), (2,3), (4,5), (6,7).
pub fn pc_partial_nvlink(n: usize) -> ClusterSpec {
    ClusterSpec::build(
        "PC",
        vec![GpuModel::A100_80G; n],
        vec![0; n],
        |a, b| {
            if a / 2 == b / 2 {
                LinkClass::NvLink3
            } else {
                LinkClass::Pcie4
            }
        },
        0.45,
    )
}

/// Local cluster "FC": 8× A100-80GB fully connected via NVSwitch.
pub fn fc_full_nvlink(n: usize) -> ClusterSpec {
    ClusterSpec::build(
        "FC",
        vec![GpuModel::A100_80G; n],
        vec![0; n],
        |_, _| LinkClass::NvLink3,
        0.45,
    )
}

/// The four paper clusters at a given GPU count, in figure order
/// (PC, FC, TACC, TC).
pub fn paper_clusters(n: usize) -> Vec<ClusterSpec> {
    vec![pc_partial_nvlink(n), fc_full_nvlink(n), lonestar6(n), tencent_v100(n.min(8))]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn link_matrices_are_symmetric() {
        for c in paper_clusters(8) {
            for a in 0..c.len() {
                for b in 0..c.len() {
                    assert_eq!(c.p2p(a, b).class, c.p2p(b, a).class, "{} {a}<->{b}", c.name);
                }
            }
        }
    }

    #[test]
    fn diagonal_is_local() {
        for c in paper_clusters(8) {
            for a in 0..c.len() {
                assert_eq!(c.p2p(a, a).class, LinkClass::Local);
            }
        }
    }

    #[test]
    fn lonestar6_packs_three_per_node() {
        let c = lonestar6(8);
        assert_eq!(c.node, vec![0, 0, 0, 1, 1, 1, 2, 2]);
        assert_eq!(c.p2p(0, 3).class, LinkClass::InfiniBandHdr);
        assert_eq!(c.p2p(1, 2).class, LinkClass::Pcie4);
        assert_eq!(c.p2p(0, 1).class, LinkClass::Pcie4CrossSocket);
    }

    #[test]
    fn pc_pairs_have_nvlink_others_do_not() {
        let c = pc_partial_nvlink(8);
        assert_eq!(c.p2p(0, 1).class, LinkClass::NvLink3);
        assert_eq!(c.p2p(1, 2).class, LinkClass::Pcie4);
        assert_eq!(c.p2p(6, 7).class, LinkClass::NvLink3);
    }

    #[test]
    fn fc_is_uniform_nvlink() {
        let c = fc_full_nvlink(8);
        for a in 0..8 {
            for b in 0..8 {
                if a != b {
                    assert_eq!(c.p2p(a, b).class, LinkClass::NvLink3);
                }
            }
        }
    }

    #[test]
    fn tencent_cube_mesh_has_both_kinds() {
        let c = tencent_v100(8);
        assert_eq!(c.p2p(0, 1).class, LinkClass::NvLink2);
        assert_eq!(c.p2p(0, 4).class, LinkClass::NvLink2);
        // 0 ^ 7 = 0b111: not a cube edge nor a backplane ring
        assert_eq!(c.p2p(0, 7).class, LinkClass::Pcie4);
    }

    #[test]
    fn fc_pipeline_neighbours_are_faster_than_tacc() {
        let fc = fc_full_nvlink(8);
        let tacc = lonestar6(8);
        let bytes = 4_000_000;
        assert!(fc.p2p(2, 3).transfer_time(bytes) < tacc.p2p(2, 3).transfer_time(bytes));
    }

    #[test]
    fn same_content_ignores_node_labels_only() {
        let c = lonestar6(8);
        // Nodes (0, 0) and (2, 2), both a cross-socket pair: twins.
        assert!(c.select(&[0, 1]).same_content(&c.select(&[6, 7])));
        // Nodes (1, 1) over a same-socket link, and a pair split over two
        // nodes: different content.
        assert!(!c.select(&[0, 1]).same_content(&c.select(&[4, 5])));
        assert!(!c.select(&[0, 1]).same_content(&c.select(&[2, 3])));
        // Node ids (0, 1) and (1, 0) are one split under a renaming; (0, 0)
        // is not.
        let mut split = c.select(&[2, 3]);
        split.node = vec![1, 0];
        assert!(split.same_content(&c.select(&[2, 3])));
        split.node = vec![0, 0];
        assert!(!split.same_content(&c.select(&[2, 3])));
    }

    #[test]
    fn select_remaps_ranks() {
        let c = lonestar6(8);
        let sub = c.select(&[3, 4, 5, 6]);
        assert_eq!(sub.len(), 4);
        // 3,4,5 share a node; 6 is on the next node.
        assert_eq!(sub.p2p(0, 1).class, c.p2p(3, 4).class);
        assert_eq!(sub.p2p(2, 3).class, LinkClass::InfiniBandHdr);
    }

    #[test]
    fn try_select_rejects_out_of_range_indices_with_a_typed_error() {
        let c = fc_full_nvlink(4);
        let err = c.try_select(&[0, 1, 9]).unwrap_err();
        assert_eq!(err, SelectError { index: 9, devices: 4 });
        assert_eq!(err.to_string(), "device index 9 out of range for a 4-device cluster");
        // In-range subsets behave exactly like select().
        assert_eq!(c.try_select(&[2, 0]).unwrap(), c.select(&[2, 0]));
        // Empty subsets are legal and yield an empty cluster.
        assert!(c.try_select(&[]).unwrap().is_empty());
    }

    #[test]
    fn select_panics_with_the_named_index_not_a_raw_bounds_error() {
        let c = lonestar6(4);
        let result = std::panic::catch_unwind(|| c.select(&[0, 4]));
        let msg = *result.unwrap_err().downcast::<String>().expect("string panic payload");
        assert!(msg.contains("device index 4"), "panic must name the index: {msg}");
        assert!(msg.contains("4-device cluster"), "panic must name the size: {msg}");
    }

    #[test]
    fn effective_flops_applies_mfu() {
        let c = fc_full_nvlink(8);
        assert!(c.effective_flops(0) < GpuModel::A100_80G.peak_flops());
        assert!(c.effective_flops(0) > 0.3 * GpuModel::A100_80G.peak_flops());
    }

    #[test]
    fn weakest_link_is_the_cluster_floor() {
        // TACC's floor is the inter-node InfiniBand path; FC is uniform
        // NVLink, so its floor is NVLink itself.
        assert_eq!(lonestar6(8).weakest_link().class, LinkClass::InfiniBandHdr);
        assert_eq!(fc_full_nvlink(8).weakest_link().class, LinkClass::NvLink3);
        // Degenerate clusters fall back to loopback.
        assert_eq!(fc_full_nvlink(1).weakest_link().class, LinkClass::Local);
    }

    #[test]
    fn clusters_carry_a_finite_device_mtbf() {
        for c in paper_clusters(8) {
            assert!(c.device_mtbf_s.is_finite() && c.device_mtbf_s > 0.0, "{}", c.name);
            // Selection preserves the failure model.
            assert_eq!(c.select(&[0, 1]).device_mtbf_s, c.device_mtbf_s);
        }
    }

    #[test]
    fn worst_ring_link_finds_bottleneck() {
        let c = lonestar6(8);
        let worst = c.worst_ring_link(&[0, 1, 2, 3]);
        assert_eq!(worst.class, LinkClass::InfiniBandHdr);
        let pc = pc_partial_nvlink(8);
        assert_eq!(pc.worst_ring_link(&[0, 1]).class, LinkClass::NvLink3);
    }
}
