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
//!
//! The analyzer, the simulator and the threaded runtime read one lowering
//! of a schedule, `hanayo_core::program::Program`, which also pairs every
//! message: the last tests pin that the simulator's compiled form is that
//! program, that a schedule outside its own key space or with a message
//! not paired is the same typed refusal from every engine, and that a
//! schedule whose devices wait on each other in a circle is one `Stall`
//! from every engine — the runtime refusing it before any thread runs.

use hanayo::analyze::{analyze, check_deadlock_free, verify, AnalysisError};
use hanayo::ckpt::CheckpointPolicy;
use hanayo::cluster::topology::ClusterSpec;
use hanayo::cluster::{GpuModel, Link, LinkClass};
use hanayo::core::action::{Action, CommDir, CommOp, MsgTag, Payload, Schedule};
use hanayo::core::config::{PipelineConfig, Scheme};
use hanayo::core::gantt::replay_timeline;
use hanayo::core::ids::{DeviceId, MicroBatch, StageId};
use hanayo::core::program::{Defect, Program, ProgramError, Stall};
use hanayo::core::schedule::{build_compute_schedule, build_schedule};
use hanayo::model::builders::MicroModel;
use hanayo::model::CostTable;
use hanayo::runtime::trainer::{synthetic_data, try_train, try_train_data_parallel, TrainerConfig};
use hanayo::runtime::{LossKind, WorkerError};
use hanayo::sim::{
    compile_schedule, try_simulate_compiled, try_simulate_traced, SimError, SimOptions,
};

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

#[test]
fn the_simulator_runs_the_lowered_program() {
    for scheme in [
        Scheme::GPipe,
        Scheme::Dapple,
        Scheme::Interleaved { chunks: 2 },
        Scheme::Chimera,
        Scheme::Hanayo { waves: 1 },
        Scheme::Hanayo { waves: 2 },
        Scheme::Hanayo { waves: 4 },
    ] {
        let schedule = build_schedule(&PipelineConfig::new(8, 8, scheme).unwrap()).unwrap();
        let compiled = compile_schedule(&schedule, &SimOptions::default());
        assert_eq!(compiled.program(), Ok(&Program::lower(&schedule).unwrap()), "{scheme}");
    }
}

#[test]
fn a_tag_outside_the_key_space_is_refused_by_both_engines() {
    // DAPPLE at P = 2, B = 2 with device 0's first send and its matching
    // receive on device 1 retagged to micro-batch 99.
    let mut schedule = build_schedule(&PipelineConfig::new(2, 2, Scheme::Dapple).unwrap()).unwrap();
    let send = |a: &Action| matches!(a, Action::Comm(op) if op.dir == CommDir::Send);
    let action = schedule.lists[0].actions.iter().position(send).unwrap();
    let Action::Comm(op) = &mut schedule.lists[0].actions[action] else { unreachable!() };
    let original = op.tag;
    op.tag.mb = MicroBatch(99);
    let tag = op.tag;
    let recv = schedule.lists[1]
        .actions
        .iter_mut()
        .find_map(|a| match a {
            Action::Comm(op) if op.dir == CommDir::Recv && op.tag == original => Some(op),
            _ => None,
        })
        .unwrap();
    recv.tag = tag;
    let expected =
        ProgramError { device: DeviceId(0), action, tag, defect: Defect::OutsideKeySpace };

    let cluster = ideal_cluster(2);
    let cost = unit_costs(&cluster, 2);
    let opts = SimOptions::default();
    let traced = try_simulate_traced(&schedule, &cost, &cluster, opts).unwrap_err();
    assert_eq!(traced, SimError::Program(expected));
    let compiled = compile_schedule(&schedule, &opts);
    assert_eq!(compiled.program(), Err(&expected));
    let reused = try_simulate_compiled(&compiled, &schedule, &cost, &cluster, opts).unwrap_err();
    assert_eq!(reused, SimError::Program(expected));
    assert!(reused.to_string().contains("act:mb99@S1"), "{reused}");

    let stages = MicroModel { width: 4, total_blocks: 2, seed: 1 }.build_stages(2);
    let trainer = TrainerConfig::new(schedule, stages, 0.05, LossKind::Mse);
    let err = try_train(&trainer, &synthetic_data(1, 1, 2, 2, 4)).unwrap_err();
    assert_eq!(err.primary, WorkerError::Program(expected));
    assert_eq!(err.failures, [(0, WorkerError::Program(expected))], "no worker ran");
    assert!(err.checkpoint.is_none());
}

/// `verify`, `analyze`, the simulator and the runtime all refuse
/// `schedule` with `expected`, before any of them runs it.
fn refused_by_every_engine(schedule: Schedule, expected: ProgramError) {
    let (p, stages) = (schedule.lists.len(), schedule.stage_map.stages);
    let cluster = ideal_cluster(p);
    let cost = unit_costs(&cluster, stages as usize);
    assert_eq!(verify(&schedule), Err(AnalysisError::Program(expected)));
    let analyzed = analyze(&schedule, &cost, &cluster).unwrap_err();
    assert_eq!(analyzed, AnalysisError::Program(expected));
    let simulated = try_simulate_traced(&schedule, &cost, &cluster, SimOptions::default());
    assert_eq!(simulated.unwrap_err(), SimError::Program(expected));

    let b = schedule.config.micro_batches as usize;
    let model = MicroModel { width: 4, total_blocks: stages as usize, seed: 1 };
    let trainer = TrainerConfig::new(schedule, model.build_stages(stages), 0.05, LossKind::Mse);
    let err = try_train(&trainer, &synthetic_data(1, 1, b, 2, 4)).unwrap_err();
    assert_eq!(err.primary, WorkerError::Program(expected));
    assert_eq!(err.failures, [(0, WorkerError::Program(expected))], "no worker ran");
}

/// Index of `device`'s first single `dir` action and its op.
fn first_comm(s: &Schedule, device: usize, dir: CommDir) -> (usize, CommOp) {
    s.lists[device]
        .actions
        .iter()
        .enumerate()
        .find_map(|(i, a)| match a {
            Action::Comm(op) if op.dir == dir => Some((i, *op)),
            _ => None,
        })
        .unwrap()
}

#[test]
fn a_dropped_receive_is_refused_by_every_engine() {
    // DAPPLE at P = 4, B = 4 with device 1's first receive removed: its
    // sender on device 0 has nobody to hand the activation to.
    let mut schedule = build_schedule(&PipelineConfig::new(4, 4, Scheme::Dapple).unwrap()).unwrap();
    let (recv, op) = first_comm(&schedule, 1, CommDir::Recv);
    schedule.lists[1].actions.remove(recv);
    let (action, _) = first_comm(&schedule, 0, CommDir::Send);
    let expected =
        ProgramError { device: DeviceId(0), action, tag: op.tag, defect: Defect::UnmatchedSend };
    assert_eq!(
        expected.to_string(),
        format!("send[act:mb0@S1] at P0#{action} has no matching recv")
    );
    refused_by_every_engine(schedule, expected);
}

#[test]
fn a_message_received_on_two_devices_is_refused_by_every_engine() {
    // DAPPLE at P = 4, B = 4 with device 0's first activation also sent to
    // device 2, which receives it before its flush.
    let mut schedule = build_schedule(&PipelineConfig::new(4, 4, Scheme::Dapple).unwrap()).unwrap();
    let (_, send) = first_comm(&schedule, 0, CommDir::Send);
    let flush = schedule.lists[0].actions.len() - 1;
    schedule.lists[0].actions.insert(flush, Action::Comm(CommOp { peer: DeviceId(2), ..send }));
    let action = schedule.lists[2].actions.len() - 1;
    let recv = CommOp { dir: CommDir::Recv, peer: DeviceId(0), tag: send.tag };
    schedule.lists[2].actions.insert(action, Action::Comm(recv));
    let expected =
        ProgramError { device: DeviceId(2), action, tag: send.tag, defect: Defect::Duplicate };
    assert_eq!(expected.to_string(), format!("message act:mb0@S1 duplicated at P2#{action}"));
    refused_by_every_engine(schedule, expected);
}

/// `verify`, `analyze`, `check_deadlock_free`, the simulator and the
/// runtime — one pipeline, and two data-parallel replicas — all refuse
/// `schedule` with one [`Stall`], the runtime before any checkpoint or
/// worker. Returns that stall.
fn deadlock_refused_by_every_engine(schedule: Schedule) -> Stall {
    let (p, stages) = (schedule.lists.len(), schedule.stage_map.stages);
    let cluster = ideal_cluster(p);
    let cost = unit_costs(&cluster, stages as usize);
    let Err(AnalysisError::Deadlock(stall)) = verify(&schedule) else {
        panic!("verify must find the circular wait: {:?}", verify(&schedule));
    };
    assert_eq!(check_deadlock_free(&schedule), Err(AnalysisError::Deadlock(stall)));
    assert_eq!(analyze(&schedule, &cost, &cluster), Err(AnalysisError::Deadlock(stall)));
    let simulated = try_simulate_traced(&schedule, &cost, &cluster, SimOptions::default());
    assert_eq!(simulated.unwrap_err(), SimError::Deadlock(stall));

    let b = schedule.config.micro_batches as usize;
    let model = MicroModel { width: 4, total_blocks: stages as usize, seed: 1 };
    let mut trainer = TrainerConfig::new(schedule, model.build_stages(stages), 0.05, LossKind::Mse);
    trainer.checkpoint = CheckpointPolicy::every(1);
    let data = synthetic_data(1, 2, b, 2, 4);
    let expected = WorkerError::Deadlock(stall);
    let single = try_train(&trainer, &data).unwrap_err();
    let replicated = try_train_data_parallel(&trainer, &[data.clone(), data]).unwrap_err();
    for err in [single, replicated] {
        assert_eq!(err.primary, expected);
        assert_eq!(err.failures, [(0, expected.clone())], "no worker ran");
        assert!(err.checkpoint.is_none(), "refused before any checkpoint");
    }
    stall
}

#[test]
fn a_deadlocking_schedule_is_refused_alike_by_every_engine() {
    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        // DAPPLE at P = 2, B = 2 with device 0's first receive moved to the
        // front of its list: device 0 waits for a gradient of device 1,
        // which waits for device 0's first activation.
        let mut schedule =
            build_schedule(&PipelineConfig::new(2, 2, Scheme::Dapple).unwrap()).unwrap();
        let (recv, op) = first_comm(&schedule, 0, CommDir::Recv);
        let moved = schedule.lists[0].actions.remove(recv);
        schedule.lists[0].actions.insert(0, moved);
        let stall = deadlock_refused_by_every_engine(schedule);
        let expected = Stall { device: DeviceId(0), action: 0, tag: op.tag, waits_on: DeviceId(1) };
        assert_eq!(stall, expected);
        assert_eq!(op.tag.payload, Payload::Gradient);
        assert_eq!(
            WorkerError::Deadlock(stall).to_string(),
            format!(
                "the schedule deadlocks: P0#0 waits for {} from P1, which never sends it",
                op.tag
            )
        );

        // Hanayo W = 2 at P = 4, B = 4 with device 1's first single receive
        // from device 2 moved to the front of its list: device 0 then
        // stalls in a batched cross-communication, waiting for the
        // activation device 1 never produces.
        let cfg = PipelineConfig::new(4, 4, Scheme::Hanayo { waves: 2 }).unwrap();
        let mut schedule = build_schedule(&cfg).unwrap();
        let from_2 =
            |a: &Action| matches!(a, Action::Comm(op) if op.dir == CommDir::Recv && op.peer.0 == 2);
        let recv = schedule.lists[1].actions.iter().position(from_2).unwrap();
        let moved = schedule.lists[1].actions.remove(recv);
        schedule.lists[1].actions.insert(0, moved);
        let stall = deadlock_refused_by_every_engine(schedule.clone());
        assert!(
            matches!(
                schedule.lists[stall.device.idx()].actions[stall.action],
                Action::BatchedComm(_)
            ),
            "{stall} is not at a batch"
        );
        let tag = MsgTag { mb: MicroBatch(0), stage: StageId(7), payload: Payload::Activation };
        assert_eq!(stall, Stall { device: DeviceId(0), action: 7, tag, waits_on: DeviceId(1) });

        // The refused calls left the resident device threads usable.
        let schedule = build_schedule(&cfg).unwrap();
        let model = MicroModel { width: 4, total_blocks: 16, seed: 1 };
        let trainer = TrainerConfig::new(schedule, model.build_stages(16), 0.05, LossKind::Mse);
        let out = try_train(&trainer, &synthetic_data(1, 2, 4, 2, 4)).unwrap();
        tx.send(out.losses.len()).unwrap();
    });
    match rx.recv_timeout(std::time::Duration::from_secs(60)) {
        Ok(losses) => assert_eq!(losses, 2, "the next call trains both iterations"),
        Err(e) => panic!("an engine hung or failed on a deadlocking schedule: {e}"),
    }
}
