//! Device threads are resident: a training call checks threads out of a
//! process-wide idle list, spawning only when too few are idle, and gives
//! them back when its devices finish.
//!
//! These tests hold the runtime to what that must not change: calls
//! running side by side each get threads of their own (a data-parallel
//! run's replicas wait on each other in the all-reduce, so sharing would
//! deadlock), results stay bit-identical, and a failed call — a corrupt
//! schedule, an injected kill, a worker panic — leaves its threads
//! resident and usable. Where the OS lists a process's threads by name
//! (`/proc/self/task/*/comm` on Linux), the tests also check that a call
//! after the first spawns none.
//!
//! The tests take one lock so the thread census of one never sees another
//! test's calls.

use hanayo_ckpt::FailurePlan;
use hanayo_core::action::{Action, CommDir, Schedule};
use hanayo_core::config::{PipelineConfig, Scheme};
use hanayo_core::schedule::build_schedule;
use hanayo_model::builders::MicroModel;
use hanayo_runtime::trainer::{sequential_reference, synthetic_data, TrainOutput};
use hanayo_runtime::worker::IterationData;
use hanayo_runtime::{try_train, try_train_data_parallel, LossKind, TrainerConfig, WorkerError};
use std::collections::BTreeSet;
use std::sync::mpsc::{channel, RecvTimeoutError};
use std::sync::{Mutex, MutexGuard};
use std::time::Duration;

static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Run `f` on its own thread; fail instead of hanging the suite if it has
/// not returned within a minute.
fn within_watchdog<T: Send + 'static>(f: impl FnOnce() -> T + Send + 'static) -> T {
    let (tx, rx) = channel();
    let run = std::thread::spawn(move || tx.send(f()));
    match rx.recv_timeout(Duration::from_secs(60)) {
        Ok(out) => out,
        Err(RecvTimeoutError::Timeout) => panic!("the run hung"),
        Err(RecvTimeoutError::Disconnected) => match run.join() {
            Err(payload) => std::panic::resume_unwind(payload),
            Ok(_) => unreachable!("the sender dropped without sending"),
        },
    }
}

fn job(p: u32, b: u32, scheme: Scheme, seed: u64) -> (TrainerConfig, Vec<IterationData>) {
    let schedule = build_schedule(&PipelineConfig::new(p, b, scheme).unwrap()).unwrap();
    let stages = schedule.stage_map.stages;
    let model = MicroModel { width: 8, total_blocks: stages as usize, seed };
    let cfg = TrainerConfig::new(schedule, model.build_stages(stages), 0.05, LossKind::Mse);
    (cfg, synthetic_data(seed, 3, b as usize, 2, 8))
}

fn loss_bits(out: &TrainOutput) -> Vec<u32> {
    out.losses.iter().map(|l| l.to_bits()).collect()
}

fn reference_bits(cfg: &TrainerConfig, data: &[IterationData]) -> Vec<u32> {
    loss_bits(&sequential_reference(&cfg.stages, data, cfg.lr, &cfg.loss))
}

/// Thread ids of this process's device threads, where the OS lists them.
fn device_threads() -> Option<BTreeSet<u64>> {
    let tasks = std::fs::read_dir("/proc/self/task").ok()?;
    let mut ids = BTreeSet::new();
    for task in tasks.flatten() {
        let comm = std::fs::read_to_string(task.path().join("comm")).unwrap_or_default();
        if comm.trim_end() == "hanayo-device" {
            ids.insert(task.file_name().to_string_lossy().parse().ok()?);
        }
    }
    Some(ids)
}

#[test]
fn concurrent_calls_each_run_on_threads_of_their_own() {
    let _serial = serial();
    let (dp_cfg, _) = job(2, 2, Scheme::Hanayo { waves: 1 }, 5);
    let shards = vec![synthetic_data(41, 3, 2, 2, 8), synthetic_data(42, 3, 2, 2, 8)];
    let alone = try_train_data_parallel(&dp_cfg, &shards).unwrap();
    within_watchdog(move || {
        let callers: Vec<_> = [Scheme::Hanayo { waves: 2 }, Scheme::Dapple, Scheme::GPipe]
            .into_iter()
            .chain([Scheme::Interleaved { chunks: 2 }])
            .enumerate()
            .map(|(i, scheme)| {
                std::thread::spawn(move || {
                    let (cfg, data) = job(2, 4, scheme, 10 + i as u64);
                    let out = try_train(&cfg, &data).unwrap();
                    assert_eq!(loss_bits(&out), reference_bits(&cfg, &data), "{scheme:?}");
                })
            })
            .collect();
        let beside = try_train_data_parallel(&dp_cfg, &shards).unwrap();
        assert_eq!(loss_bits(&beside), loss_bits(&alone), "data-parallel losses");
        assert_eq!(beside.stages, alone.stages, "data-parallel weights");
        for caller in callers {
            caller.join().unwrap();
        }
    });
}

#[test]
fn a_second_call_runs_on_the_first_calls_threads() {
    let _serial = serial();
    let (cfg, data) = job(2, 4, Scheme::Hanayo { waves: 2 }, 3);
    let first = try_train(&cfg, &data).unwrap();
    let after_first = device_threads();
    let second = try_train(&cfg, &data).unwrap();
    assert_eq!(loss_bits(&second), loss_bits(&first));
    if let Some(threads) = after_first {
        assert!(threads.len() >= 2, "both devices ran on resident threads: {threads:?}");
        assert_eq!(device_threads(), Some(threads), "the second call spawned a thread");
    }
}

/// Drop both ends of device 1's first received message, so the schedule
/// still lowers but device 1's forward finds no input.
fn drop_first_message_into_device_1(schedule: &mut Schedule) {
    let tag = schedule.lists[1]
        .actions
        .iter()
        .find_map(|a| match a {
            Action::Comm(op) if op.dir == CommDir::Recv => Some(op.tag),
            _ => None,
        })
        .unwrap();
    for list in &mut schedule.lists {
        list.actions.retain(|a| !matches!(a, Action::Comm(op) if op.tag == tag));
    }
}

#[test]
fn failed_calls_leave_their_threads_resident_for_the_next() {
    let _serial = serial();
    let (cfg, data) = job(2, 2, Scheme::Dapple, 7);
    try_train(&cfg, &data).unwrap();
    let before = device_threads();

    let mut corrupt = cfg.clone();
    drop_first_message_into_device_1(&mut corrupt.schedule);
    let killed = TrainerConfig {
        failure: FailurePlan::KillDevice { device: 1, iteration: 1 },
        ..cfg.clone()
    };
    let mut panicking = cfg.clone();
    panicking.stages[1] =
        MicroModel { width: 5, total_blocks: 1, seed: 1 }.build_stages(1).remove(0);
    let failures = within_watchdog(move || {
        [corrupt, killed, panicking].map(|bad| try_train(&bad, &data).unwrap_err().primary)
    });
    assert!(matches!(failures[0], WorkerError::MissingInput { .. }), "{}", failures[0]);
    assert!(matches!(failures[1], WorkerError::Injected { iteration: 1, .. }), "{}", failures[1]);
    assert!(matches!(failures[2], WorkerError::Panicked { .. }), "{}", failures[2]);

    let (cfg, data) = job(2, 2, Scheme::Dapple, 7);
    let out = try_train(&cfg, &data).unwrap();
    assert_eq!(loss_bits(&out), reference_bits(&cfg, &data));
    if let Some(threads) = before {
        assert_eq!(device_threads(), Some(threads), "a failed call lost or added a thread");
    }
}
