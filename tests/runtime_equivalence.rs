//! The correctness contract: every synchronous schedule, executed by the
//! threaded runtime, reproduces sequential training bit for bit — across
//! schemes, shapes, losses and data-parallel replication.

use hanayo::core::action::{Action, Schedule};
use hanayo::core::comm::lower;
use hanayo::core::config::{PipelineConfig, Scheme};
use hanayo::core::ids::{MicroBatch, StageId};
use hanayo::core::schedule::table::{check_table, ScheduleTable, Slot};
use hanayo::core::schedule::{build_compute_schedule, build_schedule};
use hanayo::model::builders::MicroModel;
use hanayo::runtime::mailbox::{spin_budget, SPIN_BUDGET};
use hanayo::runtime::trainer::{
    sequential_reference, synthetic_data, try_train, try_train_data_parallel, TrainerConfig,
};
use hanayo::runtime::{LossKind, Recompute};
use hanayo::tensor::Tensor;

fn run_case(p: u32, b: u32, scheme: Scheme, iterations: usize) {
    let cfg = PipelineConfig::new(p, b, scheme).unwrap();
    let schedule = build_schedule(&cfg).unwrap();
    let s = schedule.stage_map.stages;
    let model = MicroModel { width: 10, total_blocks: s as usize, seed: 99 };
    let data = synthetic_data(5, iterations, b as usize, 3, 10);
    // Both stash policies must reproduce the same sequential bits: full
    // recomputation replays each stage forward inside the backward.
    for recompute in Recompute::ALL {
        let trainer = TrainerConfig {
            recompute,
            ..TrainerConfig::new(schedule.clone(), model.build_stages(s), 0.03, LossKind::Mse)
        };
        let out = try_train(&trainer, &data).unwrap();
        let seq = sequential_reference(&trainer.stages, &data, trainer.lr, &trainer.loss);
        assert_eq!(out.stages, seq.stages, "{scheme} P={p} B={b} {recompute}: weights diverged");
        assert_eq!(out.losses, seq.losses, "{scheme} P={p} B={b} {recompute}: losses diverged");
    }
}

#[test]
fn gpipe_matches_sequential() {
    run_case(3, 5, Scheme::GPipe, 2);
}

#[test]
fn dapple_matches_sequential() {
    run_case(4, 6, Scheme::Dapple, 2);
}

#[test]
fn interleaved_matches_sequential() {
    run_case(2, 4, Scheme::Interleaved { chunks: 2 }, 2);
}

#[test]
fn hanayo_one_wave_matches_sequential() {
    run_case(3, 3, Scheme::Hanayo { waves: 1 }, 2);
}

#[test]
fn hanayo_two_waves_matches_sequential() {
    run_case(2, 6, Scheme::Hanayo { waves: 2 }, 2);
}

#[test]
fn hanayo_b_less_than_p() {
    run_case(4, 2, Scheme::Hanayo { waves: 1 }, 1);
}

/// The benchmark's seven-scheme family.
const SEVEN_SCHEMES: [Scheme; 7] = [
    Scheme::GPipe,
    Scheme::Dapple,
    Scheme::Interleaved { chunks: 2 },
    Scheme::Interleaved { chunks: 4 },
    Scheme::Hanayo { waves: 1 },
    Scheme::Hanayo { waves: 2 },
    Scheme::Hanayo { waves: 4 },
];

// The mailbox waits one way when every device thread can have a core and
// another way when it cannot (`spin_budget`); the bits must not care. On
// the 2-core reference box P = 2 spins and P = 4 parks; `run_case` covers
// both stash policies.
#[test]
fn seven_schemes_match_sequential_at_p2() {
    for scheme in SEVEN_SCHEMES {
        run_case(2, 4, scheme, 2);
    }
}

#[test]
fn seven_schemes_match_sequential_at_p4() {
    for scheme in SEVEN_SCHEMES {
        run_case(4, 4, scheme, 2);
    }
}

/// Each device's `Backward` micro-batches for `stage`, in list order.
fn backward_order(schedule: &Schedule, device: usize, stage: u32) -> Vec<u32> {
    let actions = &schedule.lists[device].actions;
    actions
        .iter()
        .filter_map(|a| match a {
            Action::Backward { mb, stage: s } if s.0 == stage => Some(mb.0),
            _ => None,
        })
        .collect()
}

// The worker adds a backward's gradient straight into its stage's
// accumulator only when it is the stage's next micro-batch; anything else
// is parked. Every generated scheme takes the direct path.
#[test]
fn generated_schemes_run_each_stages_backwards_in_micro_batch_order() {
    for scheme in SEVEN_SCHEMES {
        for p in [2, 4, 8] {
            for b in [p, 2 * p] {
                let schedule = build_schedule(&PipelineConfig::new(p, b, scheme).unwrap()).unwrap();
                for stage in 0..schedule.stage_map.stages {
                    let device = schedule.stage_map.device_of(MicroBatch(0), StageId(stage));
                    assert_eq!(
                        backward_order(&schedule, device.idx(), stage),
                        (0..b).collect::<Vec<_>>(),
                        "{scheme} P={p} B={b}: stage {stage} on {device}"
                    );
                }
            }
        }
    }
}

/// DAPPLE at `P = 2`, `B = 4`, hand-edited so device 0 runs stage 0's
/// backwards last-first in columns appended after the rest: a table
/// `check_table` accepts that no generator produces.
fn descending_stage0_backwards() -> Schedule {
    let b = 4;
    let cs = build_compute_schedule(&PipelineConfig::new(2, b, Scheme::Dapple).unwrap()).unwrap();
    let mut table = ScheduleTable::from_compute(&cs);
    let device = cs.stage_map.device_of(MicroBatch(0), StageId(0)).idx();
    let width = table.width();
    for row in &mut table.rows {
        row.resize(width + b as usize, Slot::Idle);
    }
    for slot in &mut table.rows[device][..width] {
        if matches!(slot, Slot::Bwd { stage: StageId(0), .. }) {
            *slot = Slot::Idle;
        }
    }
    for (column, mb) in (width..).zip((0..b).rev()) {
        table.rows[device][column] = Slot::Bwd { mb: MicroBatch(mb), stage: StageId(0) };
    }
    check_table(&table).unwrap();
    let schedule = lower(&table.to_compute());
    assert_eq!(backward_order(&schedule, device, 0), vec![3, 2, 1, 0]);
    schedule
}

// Out-of-order backwards are parked and added in micro-batch order, so the
// bits do not move: checked under both stash policies, and with two
// replicas training on the same shard, whose all-reduce sums every
// gradient with itself (exactly 2g) and so equals a sequential run at
// twice the learning rate.
#[test]
fn descending_backwards_on_a_hand_built_table_match_sequential() {
    let schedule = descending_stage0_backwards();
    let s = schedule.stage_map.stages;
    let model = MicroModel { width: 10, total_blocks: s as usize, seed: 41 };
    let data = synthetic_data(6, 2, 4, 3, 10);
    let bits = |stages: &[hanayo::tensor::Stage]| -> Vec<u32> {
        stages.iter().flat_map(|st| st.flat_params()).map(f32::to_bits).collect()
    };
    for recompute in Recompute::ALL {
        let trainer = TrainerConfig {
            recompute,
            ..TrainerConfig::new(schedule.clone(), model.build_stages(s), 0.03, LossKind::Mse)
        };
        let out = try_train(&trainer, &data).unwrap();
        let seq = sequential_reference(&trainer.stages, &data, trainer.lr, &trainer.loss);
        assert_eq!(bits(&out.stages), bits(&seq.stages), "{recompute}: weights diverged");
        assert_eq!(out.losses, seq.losses, "{recompute}: losses diverged");
    }
    let trainer = TrainerConfig::new(schedule, model.build_stages(s), 0.03, LossKind::Mse);
    let out = try_train_data_parallel(&trainer, &[data.clone(), data.clone()]).unwrap();
    let seq = sequential_reference(&trainer.stages, &data, 2.0 * trainer.lr, &trainer.loss);
    assert_eq!(bits(&out.stages), bits(&seq.stages), "dp = 2: weights diverged");
    assert_eq!(out.losses, seq.losses, "dp = 2: losses diverged");
}

#[test]
fn mailbox_spins_only_with_a_core_per_device_thread() {
    let cores = std::thread::available_parallelism().map_or(1, usize::from);
    assert!(!SPIN_BUDGET.is_zero());
    for device_threads in [1, cores] {
        assert_eq!(spin_budget(device_threads), SPIN_BUDGET, "{device_threads} on {cores} cores");
    }
    for device_threads in [cores + 1, 4 * cores] {
        assert!(spin_budget(device_threads).is_zero(), "{device_threads} on {cores} cores");
    }
}

#[test]
fn cross_entropy_loss_matches_sequential() {
    let cfg = PipelineConfig::new(2, 3, Scheme::Hanayo { waves: 1 }).unwrap();
    let schedule = build_schedule(&cfg).unwrap();
    let s = schedule.stage_map.stages;
    let model = MicroModel { width: 6, total_blocks: s as usize, seed: 3 };
    let labels = vec![vec![0usize, 2, 4], vec![1, 1, 3], vec![5, 0, 2]];
    let trainer = TrainerConfig {
        recompute: Recompute::Full,
        ..TrainerConfig::new(
            schedule,
            model.build_stages(s),
            0.05,
            LossKind::CrossEntropy { labels },
        )
    };
    let mut data = synthetic_data(8, 1, 3, 3, 6);
    // Targets are unused by cross-entropy but must exist shape-wise.
    for d in &mut data {
        d.targets = vec![Tensor::zeros(3, 6); 3];
    }
    let out = try_train(&trainer, &data).unwrap();
    let seq = sequential_reference(&trainer.stages, &data, trainer.lr, &trainer.loss);
    assert_eq!(out.stages, seq.stages);
}

#[test]
fn all_schemes_agree_with_each_other_on_one_model() {
    // One 12-block model partitioned per scheme: the trained weights must
    // be identical across every synchronous schedule.
    let b = 4;
    let data = synthetic_data(17, 2, b as usize, 2, 8);
    let mut reference: Option<Vec<f32>> = None;
    for scheme in
        [Scheme::GPipe, Scheme::Dapple, Scheme::Hanayo { waves: 1 }, Scheme::Hanayo { waves: 3 }]
    {
        let cfg = PipelineConfig::new(2, b, scheme).unwrap();
        let schedule = build_schedule(&cfg).unwrap();
        let s = schedule.stage_map.stages;
        let model = MicroModel { width: 8, total_blocks: 12, seed: 1 };
        let trainer = TrainerConfig::new(schedule, model.build_stages(s), 0.02, LossKind::Mse);
        let out = try_train(&trainer, &data).unwrap();
        let params: Vec<f32> = out.stages.iter().flat_map(|st| st.flat_params()).collect();
        match &reference {
            None => reference = Some(params),
            Some(r) => assert_eq!(r, &params, "{scheme} disagrees"),
        }
    }
}

#[test]
fn data_parallel_hanayo_trains_and_replicates() {
    let cfg = PipelineConfig::new(2, 2, Scheme::Hanayo { waves: 2 }).unwrap();
    let schedule = build_schedule(&cfg).unwrap();
    let s = schedule.stage_map.stages;
    let model = MicroModel { width: 8, total_blocks: s as usize, seed: 21 };
    let trainer = TrainerConfig::new(schedule, model.build_stages(s), 0.05, LossKind::Mse);
    let shards = vec![synthetic_data(31, 2, 2, 2, 8), synthetic_data(32, 2, 2, 2, 8)];
    let a = try_train_data_parallel(&trainer, &shards).unwrap();
    let b2 = try_train_data_parallel(&trainer, &shards).unwrap();
    assert_eq!(a.stages, b2.stages, "DP training must be deterministic");
}

#[test]
fn pipeline_stash_respects_schedule_shape() {
    // GPipe stashes more than DAPPLE on the head device for B > P.
    let b = 6;
    let make = |scheme, recompute| {
        let cfg = PipelineConfig::new(2, b, scheme).unwrap();
        let schedule = build_schedule(&cfg).unwrap();
        let s = schedule.stage_map.stages;
        let model = MicroModel { width: 8, total_blocks: 8, seed: 9 };
        let trainer = TrainerConfig {
            recompute,
            ..TrainerConfig::new(schedule, model.build_stages(s), 0.05, LossKind::Mse)
        };
        let data = synthetic_data(4, 1, b as usize, 2, 8);
        try_train(&trainer, &data).unwrap()
    };
    let g = make(Scheme::GPipe, Recompute::None);
    let d = make(Scheme::Dapple, Recompute::None);
    assert!(
        g.peak_stash_bytes[0] > d.peak_stash_bytes[0],
        "GPipe head stash {} vs DAPPLE {}",
        g.peak_stash_bytes[0],
        d.peak_stash_bytes[0]
    );
    // Checkpointing shrinks even GPipe's stash-everything peak below the
    // plain DAPPLE budget: only boundary tensors stay resident.
    let g_ckpt = make(Scheme::GPipe, Recompute::Full);
    assert!(
        g_ckpt.peak_stash_bytes[0] < d.peak_stash_bytes[0],
        "checkpointed GPipe head stash {} vs plain DAPPLE {}",
        g_ckpt.peak_stash_bytes[0],
        d.peak_stash_bytes[0]
    );
}
