//! Real pipelined training with the threaded runtime, demonstrating the
//! correctness half of the reproduction: every synchronous schedule
//! produces **bit-identical** weights to sequential training, and losses
//! converge.
//!
//! ```text
//! cargo run --example train_equivalence
//! ```

use hanayo::core::config::{PipelineConfig, Scheme};
use hanayo::core::schedule::build_schedule;
use hanayo::model::builders::MicroModel;
use hanayo::runtime::trainer::{sequential_reference, synthetic_data, try_train, TrainerConfig};
use hanayo::runtime::{LossKind, Recompute};

fn main() {
    let p = 4;
    let b = 4;
    let width = 12;

    // Same data and same initial weights for every run.
    let data = {
        let one = synthetic_data(7, 1, b as usize, 4, width).remove(0);
        vec![one; 12] // 12 iterations over the same batch → loss must fall
    };

    println!("Training a {width}-wide, 16-block MLP over {p} pipeline workers...\n");

    let mut reference: Option<Vec<f32>> = None;
    for (name, scheme) in [
        ("GPipe", Scheme::GPipe),
        ("DAPPLE", Scheme::Dapple),
        ("Hanayo W=1", Scheme::Hanayo { waves: 1 }),
        ("Hanayo W=2", Scheme::Hanayo { waves: 2 }),
    ] {
        let cfg = PipelineConfig::new(p, b, scheme).expect("valid config");
        let schedule = build_schedule(&cfg).expect("schedulable");
        let stages = schedule.stage_map.stages;
        // One and the same 16-block model, partitioned into each scheme's
        // stage count (4 for the straight pipes, 8/16 for the waves).
        let model = MicroModel { width, total_blocks: 16, seed: 42 };

        let trainer = TrainerConfig::new(schedule, model.build_stages(stages), 0.05, LossKind::Mse);
        let out = try_train(&trainer, &data).unwrap();
        let seq = sequential_reference(&trainer.stages, &data, trainer.lr, &trainer.loss);
        let bitwise = out.stages.iter().zip(&seq.stages).all(|(a, b)| a == b);

        let final_params: Vec<f32> = out.stages.iter().flat_map(|s| s.flat_params()).collect();
        let cross_schedule = match &reference {
            None => {
                reference = Some(final_params);
                "reference".to_string()
            }
            Some(r) => {
                if *r == final_params {
                    "bit-identical to GPipe".to_string()
                } else {
                    "DIVERGED".to_string()
                }
            }
        };

        println!(
            "{name:<11}: loss {:.4} -> {:.4} | vs sequential: {} | cross-schedule: {}",
            out.losses.first().unwrap(),
            out.losses.last().unwrap(),
            if bitwise { "bit-identical" } else { "DIVERGED" },
            cross_schedule,
        );
        assert!(bitwise, "{name} diverged from sequential execution");
        assert!(out.losses.last().unwrap() < out.losses.first().unwrap());
    }

    println!(
        "\nEvery pipeline schedule reproduced sequential training exactly — \
         the action-list runtime is semantics-preserving."
    );

    // Activation recomputation, executed: stash only each stage's input
    // boundary and replay the forward inside the backward. Same bits,
    // measurably smaller peak stash.
    let cfg = PipelineConfig::new(p, b, Scheme::Hanayo { waves: 2 }).expect("valid config");
    let schedule = build_schedule(&cfg).expect("schedulable");
    let stages = schedule.stage_map.stages;
    let model = MicroModel { width, total_blocks: 16, seed: 42 };
    let run = |recompute| {
        try_train(
            &TrainerConfig {
                recompute,
                ..TrainerConfig::new(
                    schedule.clone(),
                    model.build_stages(stages),
                    0.05,
                    LossKind::Mse,
                )
            },
            &data,
        )
        .unwrap()
    };
    let plain = run(Recompute::None);
    let ckpt = run(Recompute::Full);
    assert_eq!(plain.stages, ckpt.stages, "recompute changed the training bits");
    let peak = |o: &hanayo::runtime::TrainOutput| o.peak_stash_bytes.iter().sum::<usize>();
    println!(
        "\nHanayo W=2 with Recompute::Full: bit-identical weights, peak stash \
         {} B -> {} B ({:.1}x smaller).",
        peak(&plain),
        peak(&ckpt),
        peak(&plain) as f64 / peak(&ckpt) as f64,
    );
}
