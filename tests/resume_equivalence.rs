//! The resume-equivalence contract, pinned on every golden scheme at
//! `(P = 8, M = 8)`: kill a device mid-run with the failure injector,
//! restore from the last durable checkpoint, and the finished run's final
//! weights, losses and per-device peak stash bytes are **bitwise equal**
//! to a run that never failed.
//!
//! Chimera-native replicates stages, which the threaded runtime
//! deliberately rejects — so its row runs the paper's own fairness
//! transformation (two data-parallel 1-wave pipelines on `P/2` devices
//! each, Fig. 5) through the data-parallel resume path, with the kill
//! landing on a global device rank inside the *second* replica.

use hanayo::ckpt::{Checkpoint, CheckpointPolicy, FailurePlan};
use hanayo::core::config::{PipelineConfig, Scheme};
use hanayo::core::schedule::build_schedule;
use hanayo::model::builders::MicroModel;
use hanayo::runtime::trainer::{synthetic_data, try_train, try_train_data_parallel, TrainerConfig};
use hanayo::runtime::{resume, resume_data_parallel, LossKind, TrainOutput, WorkerError};
use hanayo::tensor::Stage;

const P: u32 = 8;
const B: u32 = 8;
const ITERATIONS: usize = 2;
const KILL_AT: u32 = 1;

/// The 7 golden schemes, with whether the threaded runtime can train them
/// natively (Chimera-native replicates weights, which the runtime
/// rejects; it runs via the wave transformation instead).
fn golden_schemes() -> Vec<(&'static str, Scheme, bool)> {
    vec![
        ("gpipe", Scheme::GPipe, true),
        ("dapple", Scheme::Dapple, true),
        ("interleaved2", Scheme::Interleaved { chunks: 2 }, true),
        ("chimera", Scheme::Chimera, false),
        ("hanayo_w1", Scheme::Hanayo { waves: 1 }, true),
        ("hanayo_w2", Scheme::Hanayo { waves: 2 }, true),
        ("hanayo_w4", Scheme::Hanayo { waves: 4 }, true),
    ]
}

fn assert_bitwise_equal(name: &str, a: &TrainOutput, b: &TrainOutput) {
    let bits = |o: &TrainOutput| -> Vec<u32> {
        o.stages.iter().flat_map(Stage::flat_params).map(f32::to_bits).collect()
    };
    assert_eq!(bits(a), bits(b), "{name}: final weights diverged");
    assert_eq!(
        a.losses.iter().map(|l| l.to_bits()).collect::<Vec<_>>(),
        b.losses.iter().map(|l| l.to_bits()).collect::<Vec<_>>(),
        "{name}: losses diverged"
    );
    assert_eq!(a.peak_stash_bytes, b.peak_stash_bytes, "{name}: peak stash bytes diverged");
}

/// Native path: kill device `P/2` at iteration 1 of 2 and resume from the
/// durable checkpoint (policy: every iteration). The checkpoint takes a
/// round trip through its file format on the way — on-disk exactness is
/// part of the pinned claim.
fn check_native(name: &str, scheme: Scheme) {
    let cfg = PipelineConfig::new(P, B, scheme).unwrap();
    let schedule = build_schedule(&cfg).unwrap();
    let s = schedule.stage_map.stages;
    let model = MicroModel { width: 8, total_blocks: s as usize, seed: 77 };
    let data = synthetic_data(13, ITERATIONS, B as usize, 2, 8);
    let base = TrainerConfig::new(schedule, model.build_stages(s), 0.05, LossKind::Mse);

    let uninterrupted = try_train(&base, &data).unwrap();

    let armed = TrainerConfig {
        checkpoint: CheckpointPolicy::every(1),
        failure: FailurePlan::KillDevice { device: P / 2, iteration: KILL_AT },
        ..base.clone()
    };
    let failed = try_train(&armed, &data).unwrap_err();
    assert!(
        matches!(failed.primary, WorkerError::Injected { iteration: KILL_AT, .. }),
        "{name}: expected the injected kill, got {}",
        failed.primary
    );
    let ckpt = failed.checkpoint.expect("durable checkpoint");
    assert_eq!(ckpt.iteration, KILL_AT, "{name}: checkpoint at the last completed boundary");

    let restored = Checkpoint::from_json(&ckpt.to_json().unwrap()).expect("valid envelope");
    let resumed =
        resume(&TrainerConfig { failure: FailurePlan::None, ..armed }, &restored, &data).unwrap();
    assert_bitwise_equal(name, &uninterrupted, &resumed);
}

/// Chimera via the wave transformation: 2 replicas × (1-wave, P/2, B/2),
/// killed on global rank `P/2 + 1` (replica 1, local device 1).
fn check_chimera_wave() {
    let name = "chimera (wave transformation)";
    let half = P / 2;
    let cfg = PipelineConfig::new(half, B / 2, Scheme::Hanayo { waves: 1 }).unwrap();
    let schedule = build_schedule(&cfg).unwrap();
    let s = schedule.stage_map.stages;
    let model = MicroModel { width: 8, total_blocks: s as usize, seed: 78 };
    let shards = vec![
        synthetic_data(21, ITERATIONS, (B / 2) as usize, 2, 8),
        synthetic_data(22, ITERATIONS, (B / 2) as usize, 2, 8),
    ];
    let base = TrainerConfig::new(schedule, model.build_stages(s), 0.05, LossKind::Mse);

    let uninterrupted = try_train_data_parallel(&base, &shards).unwrap();

    let armed = TrainerConfig {
        checkpoint: CheckpointPolicy::every(1),
        failure: FailurePlan::KillDevice { device: half + 1, iteration: KILL_AT },
        ..base.clone()
    };
    let failed = try_train_data_parallel(&armed, &shards).unwrap_err();
    assert_eq!(failed.replica, Some(1), "{name}: the kill lands in replica 1");
    let ckpt = failed.checkpoint.expect("durable checkpoint");
    assert_eq!(ckpt.world, 2);
    assert_eq!(ckpt.peak_stash_bytes.len(), P as usize, "peaks cover all global devices");

    let restored = Checkpoint::from_json(&ckpt.to_json().unwrap()).expect("valid envelope");
    let resumed = resume_data_parallel(
        &TrainerConfig { failure: FailurePlan::None, ..armed },
        &restored,
        &shards,
    )
    .unwrap();
    assert_bitwise_equal(name, &uninterrupted, &resumed);
}

#[test]
fn kill_and_resume_is_bitwise_equal_on_every_golden_scheme() {
    for (name, scheme, runnable) in golden_schemes() {
        if runnable {
            check_native(name, scheme);
        } else {
            check_chimera_wave();
        }
    }
}
