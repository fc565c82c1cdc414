//! Collective cost models: the data-parallel gradient all-reduce that
//! Chimera-wave's replica dimension (and any explicit `D > 1` plan) pays at
//! every flush.

use crate::topology::ClusterSpec;

/// Time of a bandwidth-optimal ring all-reduce of `bytes` over the devices
/// in `ring`: `2·(n-1)/n · bytes / worst_bandwidth + 2·(n-1)·latency`.
///
/// Each of the `2(n-1)` steps moves `bytes/n` around the ring; the slowest
/// link paces every step.
pub fn ring_allreduce_time(cluster: &ClusterSpec, ring: &[usize], bytes: u64) -> f64 {
    let n = ring.len();
    if n <= 1 || bytes == 0 {
        return 0.0;
    }
    let worst = cluster.worst_ring_link(ring);
    let steps = 2 * (n - 1);
    let chunk = bytes as f64 / n as f64;
    steps as f64 * (chunk / worst.bandwidth + worst.latency)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::link::{Link, LinkClass};
    use crate::topology::{fc_full_nvlink, lonestar6};

    #[test]
    fn allreduce_of_nothing_is_free() {
        let c = fc_full_nvlink(8);
        assert_eq!(ring_allreduce_time(&c, &[0, 1, 2, 3], 0), 0.0);
        assert_eq!(ring_allreduce_time(&c, &[0], 1 << 30), 0.0);
    }

    #[test]
    fn allreduce_scales_with_bytes() {
        let c = fc_full_nvlink(8);
        let ring = [0, 1, 2, 3];
        let t1 = ring_allreduce_time(&c, &ring, 1 << 28);
        let t2 = ring_allreduce_time(&c, &ring, 1 << 29);
        assert!(t2 > 1.9 * t1 && t2 < 2.1 * t1);
    }

    #[test]
    fn slow_fabric_dominates() {
        let fc = fc_full_nvlink(8);
        let tacc = lonestar6(8);
        let ring = [0, 1, 2, 3, 4, 5, 6, 7];
        let bytes = 1 << 30;
        assert!(
            ring_allreduce_time(&tacc, &ring, bytes) > 5.0 * ring_allreduce_time(&fc, &ring, bytes)
        );
    }

    #[test]
    fn allreduce_is_paced_by_the_slowest_ring_link() {
        // Lonestar6 packs three GPUs per node: a ring inside one socket
        // rides PCIe, and one node-crossing hop drags the whole ring down
        // to InfiniBand, however many fast hops it also has.
        let c = lonestar6(6);
        let bytes = 1 << 28;
        let in_socket = ring_allreduce_time(&c, &[1, 2], bytes);
        let across_nodes = ring_allreduce_time(&c, &[2, 3], bytes);
        assert!(in_socket < across_nodes, "{in_socket} vs {across_nodes}");
        let ring = [1, 2, 3, 4];
        let ib = Link::of(LinkClass::InfiniBandHdr);
        let paced = 6.0 * (bytes as f64 / 4.0 / ib.bandwidth + ib.latency);
        assert_eq!(ring_allreduce_time(&c, &ring, bytes), paced);
    }

    #[test]
    fn allreduce_asymptotics_near_2x_bandwidth_term() {
        // For large n, time → 2·bytes/bw.
        let c = fc_full_nvlink(8);
        let ring: Vec<usize> = (0..8).collect();
        let bytes = 1u64 << 30;
        let t = ring_allreduce_time(&c, &ring, bytes);
        let ideal = 2.0 * (7.0 / 8.0) * bytes as f64 / c.p2p(0, 1).bandwidth;
        assert!((t - ideal) / ideal < 0.05, "t={t} ideal={ideal}");
    }
}
