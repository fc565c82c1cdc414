//! Property tests for resume-equals-uninterrupted: over random
//! `(scheme, P, B, checkpoint interval, kill site)` shapes, a run that is
//! killed by the failure injector and resumed from its last durable
//! checkpoint must finish with final weights, losses and per-device peak
//! stash bytes **bitwise equal** to a run that never failed. This is the
//! executable form of the checkpoint contract: a checkpoint is complete
//! (nothing a run needs is missing from it) and exact (nothing is
//! approximated on the way through the file format — the checkpoint
//! round-trips through its JSON envelope before resuming).

use hanayo_ckpt::{Checkpoint, CheckpointPolicy, FailurePlan};
use hanayo_core::config::{PipelineConfig, Scheme};
use hanayo_core::ids::DeviceId;
use hanayo_core::schedule::build_schedule;
use hanayo_model::builders::MicroModel;
use hanayo_runtime::trainer::{synthetic_data, try_train, TrainerConfig};
use hanayo_runtime::worker::WorkerError;
use hanayo_runtime::{resume, LossKind};
use proptest::prelude::*;

fn any_scheme() -> impl Strategy<Value = Scheme> {
    prop_oneof![
        Just(Scheme::GPipe),
        Just(Scheme::Dapple),
        (1u32..=2).prop_map(|w| Scheme::Hanayo { waves: w }),
        Just(Scheme::Interleaved { chunks: 2 }),
    ]
}

proptest! {
    // Every case trains three times (uninterrupted, killed, resumed) with
    // P OS threads each; keep the count moderate.
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn kill_and_resume_is_bitwise_equal_to_uninterrupted(
        p in 2u32..=3,
        b in 2u32..=4,
        scheme in any_scheme(),
        every in 1u32..=3,
        kill_device in 0u32..3,
        kill_at in 0u32..4,
        seed in 0u64..1000,
    ) {
        let iterations = 4usize;
        let kill_device = kill_device % p;
        let cfg = PipelineConfig::new(p, b, scheme).unwrap();
        let schedule = build_schedule(&cfg).unwrap();
        let s = schedule.stage_map.stages;
        let model = MicroModel { width: 6, total_blocks: s as usize, seed };
        let data = synthetic_data(seed.wrapping_add(17), iterations, b as usize, 2, 6);
        let base = TrainerConfig::new(schedule, model.build_stages(s), 0.05, LossKind::Mse);

        let uninterrupted = try_train(&base, &data).unwrap();

        let armed = TrainerConfig {
            checkpoint: CheckpointPolicy::every(every),
            failure: FailurePlan::KillDevice { device: kill_device, iteration: kill_at },
            ..base.clone()
        };
        let failed = try_train(&armed, &data).unwrap_err();
        prop_assert!(
            matches!(failed.primary, WorkerError::Injected { .. }),
            "expected the injected kill as root cause, got {}",
            failed.primary
        );
        prop_assert_eq!(failed.primary.device(), Some(DeviceId(kill_device)));

        let ckpt = failed.checkpoint.expect("a durable checkpoint (boundary 0 always exists)");
        prop_assert!(ckpt.iteration <= kill_at, "checkpoint cannot postdate the kill");
        prop_assert_eq!(ckpt.iteration % every, 0, "checkpoints sit on policy boundaries");

        // Resume through the on-disk format, with the injection disarmed.
        let restored = Checkpoint::from_json(&ckpt.to_json().unwrap()).expect("valid envelope");
        let resumed = resume(
            &TrainerConfig { failure: FailurePlan::None, ..armed },
            &restored,
            &data,
        )
        .expect("resume completes");

        let bits = |stages: &[hanayo_tensor::Stage]| -> Vec<u32> {
            stages.iter().flat_map(|st| st.flat_params()).map(f32::to_bits).collect()
        };
        prop_assert_eq!(
            bits(&uninterrupted.stages),
            bits(&resumed.stages),
            "final weights diverged"
        );
        prop_assert_eq!(
            uninterrupted.losses.iter().map(|l| l.to_bits()).collect::<Vec<_>>(),
            resumed.losses.iter().map(|l| l.to_bits()).collect::<Vec<_>>(),
            "losses diverged"
        );
        prop_assert_eq!(
            &uninterrupted.peak_stash_bytes,
            &resumed.peak_stash_bytes,
            "peak stash bytes diverged"
        );
    }
}
