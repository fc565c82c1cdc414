//! Designing your own pipeline scheme through the framework's user
//! interface (§4.1: "we also offer interfaces for users to modify existing
//! schemes or develop their own").
//!
//! We build a "double-fold" variant by hand — a wave that lingers on the
//! middle devices — generate its schedule with the same list scheduler
//! Hanayo uses, validate it, execute it in the simulator, and train with
//! it bit-exactly on the threaded runtime.
//!
//! ```text
//! cargo run --example custom_schedule
//! ```

use hanayo::cluster::topology::fc_full_nvlink;
use hanayo::core::config::{PipelineConfig, Scheme};
use hanayo::core::gantt::render_paper_style;
use hanayo::core::ids::{DeviceId, ReplicaId};
use hanayo::core::schedule::build_compute_schedule;
use hanayo::core::schedule::custom::build_custom_schedule;
use hanayo::core::schedule::listsched::{ListParams, RetireRule};
use hanayo::core::stage_map::{PathGroup, StageMap};
use hanayo::core::validate::validate;
use hanayo::model::builders::MicroModel;
use hanayo::model::{CostTable, ModelConfig};
use hanayo::runtime::trainer::{sequential_reference, synthetic_data, try_train, TrainerConfig};
use hanayo::runtime::LossKind;
use hanayo::sim::{try_simulate_traced, SimOptions};

fn main() {
    let (p, b) = (4u32, 4u32);

    // A custom path: down the devices, bounce in the middle, then home.
    // Stages:      0  1  2  3  4  5  6  7
    let ranks = [0u32, 1, 2, 3, 2, 1, 2, 1];
    let map = StageMap {
        devices: p,
        stages: ranks.len() as u32,
        groups: vec![PathGroup {
            path: ranks.iter().copied().map(DeviceId).collect(),
            replica: ReplicaId(0),
        }],
        mb_group: vec![0; b as usize],
    };

    let cfg = PipelineConfig::new(p, b, Scheme::GPipe).expect("P and B carrier");
    let params =
        ListParams { cap: Some(p), retire: RetireRule::ForwardComplete, ..Default::default() };
    let schedule = build_custom_schedule(&cfg, map, params).expect("custom scheme generates");
    validate(&schedule).expect("and validates like any built-in scheme");

    println!("A user-defined 'double-fold' pipeline on 4 devices:\n");
    let hanayo_cfg = PipelineConfig::new(p, b, Scheme::Hanayo { waves: 1 }).unwrap();
    let hanayo_cs = build_compute_schedule(&hanayo_cfg).unwrap();
    println!("Hanayo W=1 for reference:\n{}", render_paper_style(&hanayo_cs));

    // Simulate it against the BERT cost model.
    let cost = CostTable::build(&ModelConfig::bert64(), schedule.stage_map.stages, 1);
    let r =
        try_simulate_traced(&schedule, &cost, &fc_full_nvlink(p as usize), SimOptions::default())
            .unwrap()
            .0;
    println!(
        "custom scheme simulated: iteration {:.1} ms, bubble {:.1}%",
        r.iteration_time * 1e3,
        100.0 * r.bubble_ratio
    );

    // And train with it — correctness comes for free from the runtime.
    let s = schedule.stage_map.stages;
    let model = MicroModel { width: 8, total_blocks: s as usize, seed: 13 };
    let trainer = TrainerConfig::new(schedule, model.build_stages(s), 0.05, LossKind::Mse);
    let data = synthetic_data(2, 3, b as usize, 2, 8);
    let out = try_train(&trainer, &data).unwrap();
    let seq = sequential_reference(&trainer.stages, &data, trainer.lr, &trainer.loss);
    assert_eq!(out.stages, seq.stages);
    println!(
        "custom scheme trained: losses {:?} — bit-identical to sequential.",
        out.losses.iter().map(|l| (l * 1e4).round() / 1e4).collect::<Vec<_>>()
    );
}
