//! Property tests for executed activation recomputation: over random
//! `(model, scheme, P, M)` triples, `Recompute::Full` training must be
//! **bit-identical** in losses and gradients (hence final weights) to
//! `Recompute::None`, while its measured peak activation bytes are
//! strictly lower on every device — each micro-model stage stacks
//! `LayerNorm → Linear → Gelu`, i.e. more than one layer, so the full
//! stash always dominates the boundary tensor.

use hanayo_core::config::{PipelineConfig, Scheme};
use hanayo_core::schedule::build_schedule;
use hanayo_model::builders::MicroModel;
use hanayo_model::Recompute;
use hanayo_runtime::trainer::{synthetic_data, try_train, TrainerConfig};
use hanayo_runtime::LossKind;
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
    // Every case spawns 2 × P OS threads; keep the count moderate.
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn full_recompute_is_bitwise_equivalent_and_cheaper_on_memory(
        p in 2u32..=3,
        b in 2u32..=4,
        scheme in any_scheme(),
        blocks_per_stage in 1usize..=2,
        seed in 0u64..1000,
    ) {
        let cfg = PipelineConfig::new(p, b, scheme).unwrap();
        let schedule = build_schedule(&cfg).unwrap();
        let s = schedule.stage_map.stages;
        let model = MicroModel {
            width: 6,
            total_blocks: s as usize * blocks_per_stage,
            seed,
        };
        let data = synthetic_data(seed.wrapping_add(5), 2, b as usize, 2, 6);
        let run = |recompute| {
            let base =
                TrainerConfig::new(schedule.clone(), model.build_stages(s), 0.05, LossKind::Mse);
            try_train(&TrainerConfig { recompute, ..base }, &data).unwrap()
        };
        let plain = run(Recompute::None);
        let ckpt = run(Recompute::Full);

        // Bit-identical training: the backward-time replay regenerates the
        // exact stash the forward produced.
        prop_assert_eq!(&plain.losses, &ckpt.losses, "losses diverged");
        prop_assert_eq!(&plain.stages, &ckpt.stages, "weights diverged");

        // Strictly lower measured peak on every device: each stage holds
        // >1 layer, so even a single-block stage stashes more activations
        // than its boundary tensor.
        for (d, (&c, &pl)) in
            ckpt.peak_stash_bytes.iter().zip(&plain.peak_stash_bytes).enumerate()
        {
            prop_assert!(c > 0, "device {d} never stashed anything");
            prop_assert!(c < pl, "device {d}: checkpointed {c} !< plain {pl}");
        }
    }
}
