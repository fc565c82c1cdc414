//! Abort reaches every peer, everywhere: a fault injected at every
//! (device, iteration) and every (link, iteration) of a small wave schedule
//! must come back as a typed [`TrainError`] whose primary names the
//! injected device, with every other worker an `Aborted` cascade — single
//! pipeline and two data-parallel replicas, on both sides of the mailbox's
//! spin gate (`P = 2` spins on a 2-core box, `P = 4` and `D = 2` park).
//!
//! Nothing on the wait path has a timer, so a run that returns at all was
//! woken by the abort packet (or, across replicas, by the aborted hub).
//! The watchdog therefore only has to tell "returned" from "hung"; it
//! asserts no latency, which on a shared box would be asserting the host.

use hanayo::ckpt::FailurePlan;
use hanayo::core::action::{CommDir, Schedule};
use hanayo::core::config::{PipelineConfig, Scheme};
use hanayo::core::ids::DeviceId;
use hanayo::core::schedule::build_schedule;
use hanayo::model::builders::MicroModel;
use hanayo::runtime::trainer::{
    synthetic_data, try_train, try_train_data_parallel, TrainError, TrainerConfig,
};
use hanayo::runtime::{LossKind, WorkerError};
use std::sync::mpsc;
use std::time::Duration;

const ITERATIONS: u32 = 3;
const WATCHDOG: Duration = Duration::from_secs(20);

fn job(p: u32) -> TrainerConfig {
    let cfg = PipelineConfig::new(p, p, Scheme::Hanayo { waves: 2 }).unwrap();
    let schedule = build_schedule(&cfg).unwrap();
    let s = schedule.stage_map.stages;
    let model = MicroModel { width: 4, total_blocks: s as usize, seed: 5 };
    TrainerConfig::new(schedule, model.build_stages(s), 0.05, LossKind::Mse)
}

/// Every directed `(src, dst)` pair some send of the schedule crosses.
fn links(schedule: &Schedule) -> Vec<(u32, u32)> {
    let mut links = Vec::new();
    for (src, list) in schedule.lists.iter().enumerate() {
        for op in list.actions.iter().flat_map(|action| action.comm_ops()) {
            if op.dir == CommDir::Send {
                links.push((src as u32, op.peer.0));
            }
        }
    }
    links.sort_unstable();
    links.dedup();
    links
}

/// Run one faulty job under the watchdog and return its error.
fn run(cfg: TrainerConfig, replicas: usize) -> TrainError {
    let b = cfg.schedule.config.micro_batches as usize;
    let (done, result) = mpsc::channel();
    std::thread::spawn(move || {
        let shard = |seed| synthetic_data(seed, ITERATIONS as usize, b, 2, 4);
        let out = if replicas == 1 {
            try_train(&cfg, &shard(1))
        } else {
            let shards: Vec<_> = (0..replicas as u64).map(|r| shard(1 + r)).collect();
            try_train_data_parallel(&cfg, &shards)
        };
        let _ = done.send(out);
    });
    match result.recv_timeout(WATCHDOG) {
        Ok(out) => out.expect_err("the injected fault must fail the run"),
        Err(_) => panic!("hung: a worker never saw the abort"),
    }
}

/// The error must name `expected` on the right replica, and every other
/// worker of the run must have unwound as a cascade.
fn assert_names(err: &TrainError, expected: &WorkerError, p: u32, replicas: usize, global: u32) {
    let replica = (global / p) as usize;
    assert_eq!(&err.primary, expected, "{err}");
    assert_eq!(err.replica, (replicas > 1).then_some(replica), "{err}");
    assert_eq!(err.failures.len(), p as usize * replicas, "every worker reports: {err:?}");
    let roots: Vec<_> = err.failures.iter().filter(|(_, e)| !e.is_cascade()).collect();
    assert_eq!(roots, [&(replica, expected.clone())], "one root cause, the rest cascades");
}

fn sweep(p: u32, replicas: usize) {
    let base = job(p);
    let local = |global: u32| DeviceId(global % p);
    for iteration in 0..ITERATIONS {
        for device in 0..p * replicas as u32 {
            let failure = FailurePlan::KillDevice { device, iteration };
            let err = run(TrainerConfig { failure, ..base.clone() }, replicas);
            let expected = WorkerError::Injected { device: local(device), iteration };
            assert_names(&err, &expected, p, replicas, device);
        }
        for replica in 0..replicas as u32 {
            for &(src, dst) in &links(&base.schedule) {
                let (src, dst) = (replica * p + src, replica * p + dst);
                let failure = FailurePlan::DropLink { src, dst, iteration };
                let err = run(TrainerConfig { failure, ..base.clone() }, replicas);
                let expected =
                    WorkerError::LinkDown { device: local(src), peer: local(dst), iteration };
                assert_names(&err, &expected, p, replicas, src);
            }
        }
    }
}

#[test]
fn every_kill_and_link_drop_unwinds_p2() {
    sweep(2, 1);
}

#[test]
fn every_kill_and_link_drop_unwinds_p4() {
    sweep(4, 1);
}

#[test]
fn every_kill_and_link_drop_unwinds_p2_two_replicas() {
    sweep(2, 2);
}

#[test]
fn every_kill_and_link_drop_unwinds_p4_two_replicas() {
    sweep(4, 2);
}
