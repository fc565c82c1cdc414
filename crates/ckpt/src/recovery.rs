//! The failure/recovery cost model: what checkpointing costs, what a
//! failure wastes, and the goodput a plan actually delivers once both are
//! priced in.
//!
//! Model (first-order, the standard checkpoint/restart accounting):
//!
//! * A checkpoint drains the largest per-device training state (weights +
//!   optimizer) to durable storage over the cluster's **weakest link** —
//!   stall `C = latency + bytes/bandwidth` per checkpoint.
//! * With interval `W` seconds of useful work between checkpoints, the
//!   checkpoint overhead factor is `W / (W + C)`.
//! * Failures arrive at the fleet rate `1/M`, `M = device_mtbf / n`
//!   ([`cluster_mtbf_s`]). Each failure wastes the expected rewind `W/2`
//!   plus the restart cost `R` (state reload over the same link + a fixed
//!   job-restart latency), so the availability factor is
//!   `1 − (R + W/2)/M`.
//! * Efficiency `E(W) = W/(W+C) · (1 − (R + W/2)/M)`; goodput = ideal
//!   throughput × `E`.
//!
//! Maximising `E` gives the Young–Daly optimum
//! `W* = √(C² + 2CM·(1 − R/M)) − C` ([`young_daly_interval_s`]), which
//! reduces to the classic `√(2CM)` for `C, R ≪ M`. `hanayo ckpt --mode
//! goodput` prices discrete iteration intervals through [`evaluate`]; a
//! test asserts the numeric optimum against the closed form.

use hanayo_cluster::Link;
use serde::{Deserialize, Serialize};

/// Knobs of the recovery model that are not derivable from the cluster.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RecoveryOptions {
    /// Fixed job-restart latency on top of the state reload: scheduler
    /// requeue, process launch, NCCL re-initialisation.
    pub restart_latency_s: f64,
}

impl Default for RecoveryOptions {
    fn default() -> Self {
        RecoveryOptions { restart_latency_s: 30.0 }
    }
}

/// One evaluated `(plan, checkpoint interval)` point.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RecoveryEval {
    /// Checkpoint interval in iterations.
    pub interval_iterations: u32,
    /// The same interval in seconds of useful work (`k · t_iter`).
    pub interval_s: f64,
    /// Stall of one checkpoint drain, seconds.
    pub checkpoint_write_s: f64,
    /// Cost of one recovery (state reload + fixed restart latency).
    pub restart_s: f64,
    /// Fleet-level mean time between failures, seconds.
    pub cluster_mtbf_s: f64,
    /// `E(W)` — fraction of ideal throughput the run retains.
    pub efficiency: f64,
    /// Sequences per second after checkpoint overhead and expected
    /// failure waste.
    pub goodput_seq_per_s: f64,
}

/// Stall of draining `state_bytes` to durable storage over the weakest
/// link.
pub fn checkpoint_write_s(state_bytes: u64, weakest: Link) -> f64 {
    weakest.transfer_time(state_bytes)
}

/// Cost of one recovery: reload the state over the same link, plus the
/// fixed job-restart latency.
pub fn restart_s(state_bytes: u64, weakest: Link, restart_latency_s: f64) -> f64 {
    restart_latency_s + weakest.transfer_time(state_bytes)
}

/// Fleet MTBF of `devices` independent devices, each failing every
/// `device_mtbf_s` seconds on average.
pub fn cluster_mtbf_s(device_mtbf_s: f64, devices: u32) -> f64 {
    assert!(devices > 0, "a job runs on at least one device");
    device_mtbf_s / devices as f64
}

/// First-order checkpoint/restart efficiency `E(W)` (see module docs).
/// Clamped to `[0, 1]`: a regime where failures arrive faster than
/// recovery makes progress has zero goodput, not negative.
pub fn efficiency(interval_s: f64, ckpt_s: f64, restart_s: f64, mtbf_s: f64) -> f64 {
    assert!(interval_s > 0.0 && interval_s.is_finite(), "interval must be positive");
    assert!(ckpt_s >= 0.0 && restart_s >= 0.0 && mtbf_s > 0.0);
    let overhead = interval_s / (interval_s + ckpt_s);
    let availability = 1.0 - (restart_s + interval_s / 2.0) / mtbf_s;
    (overhead * availability).clamp(0.0, 1.0)
}

/// The closed-form optimum of [`efficiency`] in seconds of useful work
/// between checkpoints: `W* = √(C² + 2CM·(1 − R/M)) − C`. Returns
/// `f64::INFINITY` on a failure-free cluster (never checkpoint) and `0.0`
/// when recovery alone exceeds the MTBF (no interval helps).
pub fn young_daly_interval_s(ckpt_s: f64, mtbf_s: f64, restart_s: f64) -> f64 {
    if mtbf_s.is_infinite() {
        return f64::INFINITY;
    }
    let a = 1.0 - restart_s / mtbf_s;
    if a <= 0.0 {
        return 0.0;
    }
    (ckpt_s * ckpt_s + 2.0 * ckpt_s * mtbf_s * a).sqrt() - ckpt_s
}

/// Evaluate one `(plan, interval)` point: how much goodput survives once
/// the checkpoint stall and the expected failure waste are charged.
///
/// * `iteration_time_s`, `sequences_per_iteration` — the failure-free
///   plan performance (from the simulator).
/// * `state_bytes_per_device` — largest per-device weights+optimizer
///   payload (what one checkpoint must drain).
/// * `devices` — devices the job occupies (sets the fleet failure rate).
/// * `weakest` — the cluster's weakest link ([`hanayo_cluster::ClusterSpec::weakest_link`]).
/// * `device_mtbf_s` — per-device MTBF
///   ([`hanayo_cluster::ClusterSpec::device_mtbf_s`]).
#[allow(clippy::too_many_arguments)]
pub fn evaluate(
    iteration_time_s: f64,
    sequences_per_iteration: f64,
    state_bytes_per_device: u64,
    devices: u32,
    weakest: Link,
    device_mtbf_s: f64,
    interval_iterations: u32,
    opts: &RecoveryOptions,
) -> RecoveryEval {
    assert!(interval_iterations > 0, "a checkpoint interval is at least one iteration");
    let mtbf = cluster_mtbf_s(device_mtbf_s, devices);
    let ckpt = checkpoint_write_s(state_bytes_per_device, weakest);
    let restart = restart_s(state_bytes_per_device, weakest, opts.restart_latency_s);
    let interval_s = interval_iterations as f64 * iteration_time_s;
    let eff = efficiency(interval_s, ckpt, restart, mtbf);
    RecoveryEval {
        interval_iterations,
        interval_s,
        checkpoint_write_s: ckpt,
        restart_s: restart,
        cluster_mtbf_s: mtbf,
        efficiency: eff,
        goodput_seq_per_s: sequences_per_iteration / iteration_time_s * eff,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hanayo_cluster::LinkClass;

    fn link() -> Link {
        Link::of(LinkClass::InfiniBandHdr)
    }

    #[test]
    fn write_and_restart_costs_ride_the_weakest_link() {
        let l = link();
        let bytes = 10_000_000_000;
        assert_eq!(checkpoint_write_s(bytes, l), l.transfer_time(bytes));
        assert_eq!(restart_s(bytes, l, 30.0), 30.0 + l.transfer_time(bytes));
        assert_eq!(cluster_mtbf_s(8000.0, 8), 1000.0);
    }

    #[test]
    fn efficiency_penalises_both_extremes() {
        // C = 2 s, R = 10 s, M = 2000 s. Checkpointing every 1 s pays the
        // stall; every 10000 s pays the rewind; the optimum sits between.
        let (c, r, m) = (2.0, 10.0, 2000.0);
        let sweet = efficiency(young_daly_interval_s(c, m, r), c, r, m);
        assert!(sweet > efficiency(1.0, c, r, m), "too-frequent should lose");
        assert!(sweet > efficiency(3000.0, c, r, m), "too-rare should lose");
        assert!(sweet > 0.9 && sweet < 1.0, "plausible efficiency: {sweet}");
    }

    #[test]
    fn young_daly_matches_numeric_argmax() {
        // Fine grid vs closed form: the argmax lands within one grid step.
        let (c, r, m) = (1.5, 20.0, 5000.0);
        let star = young_daly_interval_s(c, m, r);
        let step = 0.25;
        let (mut best_w, mut best_e) = (0.0, 0.0);
        let mut w = step;
        while w < 4.0 * star {
            let e = efficiency(w, c, r, m);
            if e > best_e {
                (best_w, best_e) = (w, e);
            }
            w += step;
        }
        assert!((best_w - star).abs() <= step, "grid argmax {best_w} vs closed form {star}");
        // And the classic √(2CM) approximation is close in this regime.
        assert!((star - (2.0 * c * m).sqrt()).abs() / star < 0.05);
    }

    #[test]
    fn failure_free_cluster_never_checkpoints() {
        assert_eq!(young_daly_interval_s(2.0, f64::INFINITY, 10.0), f64::INFINITY);
        // With infinite MTBF only the stall matters: efficiency is W/(W+C).
        let e = efficiency(10.0, 2.0, 5.0, f64::INFINITY);
        assert!((e - 10.0 / 12.0).abs() < 1e-12);
    }

    #[test]
    fn hopeless_regimes_degrade_to_zero_not_negative() {
        // Restart alone exceeds the MTBF: no interval rescues the job.
        assert_eq!(young_daly_interval_s(1.0, 50.0, 60.0), 0.0);
        assert_eq!(efficiency(10.0, 1.0, 60.0, 50.0), 0.0);
    }

    #[test]
    fn evaluate_composes_the_pieces() {
        let e =
            evaluate(2.0, 8.0, 10_000_000_000, 8, link(), 1.0e6, 5, &RecoveryOptions::default());
        assert_eq!(e.interval_s, 10.0);
        assert_eq!(e.cluster_mtbf_s, 125_000.0);
        assert!(e.checkpoint_write_s > 0.0 && e.restart_s > e.checkpoint_write_s);
        assert!(e.efficiency > 0.0 && e.efficiency < 1.0);
        let ideal = 8.0 / 2.0;
        assert!((e.goodput_seq_per_s - ideal * e.efficiency).abs() < 1e-12);
        // Serde round-trip (the sweep/goodput tables serialize this).
        let back: RecoveryEval = serde_json::from_str(&serde_json::to_string(&e).unwrap()).unwrap();
        assert_eq!(back, e);
    }
}
