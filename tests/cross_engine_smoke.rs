//! Cross-engine smoke tests: one per scheme, closing the
//! `schedule → sim` loop against the abstract replay.
//!
//! Setup: an idealised cluster (every link `Local`: zero latency, infinite
//! bandwidth) and a synthetic cost table pinned to exactly one abstract
//! time unit per forward and two per backward (`T_B = 2 T_F`, `T_C = 0` —
//! the paper's Fig. 2 cost convention). Under those costs the
//! discrete-event simulator and `replay_timeline` model the same machine,
//! so their makespans must agree *exactly*: every simulator event lands on
//! a whole number of units and `iteration_time` equals the abstract
//! makespan. Any scheduler or engine change that skews dependency handling
//! between the two engines breaks these tests.

use hanayo::analyze::verify;
use hanayo::cluster::topology::ClusterSpec;
use hanayo::cluster::{GpuModel, Link, LinkClass};
use hanayo::core::config::{PipelineConfig, Scheme};
use hanayo::core::gantt::replay_timeline;
use hanayo::core::schedule::{build_compute_schedule, build_schedule};
use hanayo::model::CostTable;
use hanayo::sim::{try_simulate_traced, SimOptions};

/// A `p`-device cluster where communication is free and every device
/// computes at the same speed.
fn ideal_cluster(p: usize) -> ClusterSpec {
    ClusterSpec {
        name: "ideal".to_string(),
        gpus: vec![GpuModel::A100_80G; p],
        node: vec![0; p],
        links: vec![vec![Link::of(LinkClass::Local); p]; p],
        mfu: 0.5,
        device_mtbf_s: f64::INFINITY,
    }
}

/// A cost table where one forward costs exactly one simulated second and
/// one backward exactly two, with zero-byte messages.
fn unit_costs(cluster: &ClusterSpec, stages: usize) -> CostTable {
    let flops_per_unit = cluster.effective_flops(0);
    CostTable {
        layers_per_stage: vec![1.0; stages],
        fwd_flops: vec![flops_per_unit; stages],
        bwd_flops: vec![2.0 * flops_per_unit; stages],
        stash_bytes: vec![1; stages],
        weight_bytes: vec![1; stages],
        grad_bytes: vec![1; stages],
        msg_bytes: 0,
    }
}

/// Verify the schedule, then check the simulated iteration time equals
/// the abstract replay's makespan under identical `(1, 2, 0)` unit costs.
fn check_scheme(scheme: Scheme) {
    let (p, b) = (8, 8);
    let cfg = PipelineConfig::new(p, b, scheme).unwrap();
    let schedule = build_schedule(&cfg).unwrap();
    verify(&schedule).unwrap_or_else(|e| panic!("{scheme}: verify failed: {e}"));

    let cs = build_compute_schedule(&cfg).unwrap();
    let abstract_makespan = replay_timeline(&cs, 1, 2, 0).makespan;

    let cluster = ideal_cluster(p as usize);
    let cost = unit_costs(&cluster, schedule.stage_map.stages as usize);
    let report = try_simulate_traced(&schedule, &cost, &cluster, SimOptions::default()).unwrap().0;

    assert_eq!(
        report.iteration_time, abstract_makespan as f64,
        "{scheme}: sim makespan {} != abstract replay makespan {}",
        report.iteration_time, abstract_makespan
    );
}

#[test]
fn gpipe_sim_matches_replay() {
    check_scheme(Scheme::GPipe);
}

#[test]
fn dapple_sim_matches_replay() {
    check_scheme(Scheme::Dapple);
}

#[test]
fn interleaved_sim_matches_replay() {
    check_scheme(Scheme::Interleaved { chunks: 2 });
}

#[test]
fn chimera_sim_matches_replay() {
    check_scheme(Scheme::Chimera);
}

#[test]
fn hanayo_one_wave_sim_matches_replay() {
    check_scheme(Scheme::Hanayo { waves: 1 });
}

#[test]
fn hanayo_two_wave_sim_matches_replay() {
    check_scheme(Scheme::Hanayo { waves: 2 });
}

#[test]
fn hanayo_four_wave_sim_matches_replay() {
    check_scheme(Scheme::Hanayo { waves: 4 });
}
