//! # hanayo-cluster
//!
//! Hardware models for the four computing environments of the paper's
//! evaluation (§5):
//!
//! * **TACC Lonestar6** — A100-40GB nodes with three GPUs each (GPU 0 on
//!   socket 0, GPUs 1–2 on socket 1), PCIe inside the node, InfiniBand HDR
//!   across nodes.
//! * **Tencent cloud (TC)** — 8× V100-32GB in a DGX-1-style NVLink hybrid
//!   cube mesh.
//! * **PC** — a local server with 8× A100-80GB where only the pairs
//!   (0,1), (2,3), (4,5), (6,7) share NVLink; everything else rides PCIe.
//! * **FC** — a local server with 8× A100-80GB fully connected through
//!   NVSwitch.
//!
//! A [`topology::ClusterSpec`] answers the three questions the simulator
//! asks: how fast is device `d` (effective FLOP/s), how long does moving
//! `n` bytes from `a` to `b` take ([`link::Link::transfer_time`]), and how
//! much memory does `d` have. [`collective`] adds the ring all-reduce used
//! for the data-parallel gradient synchronisation.

pub mod collective;
mod gpu;
pub mod link;
pub mod topology;

pub use gpu::GpuModel;
pub use link::{Link, LinkClass};
pub use topology::ClusterSpec;
