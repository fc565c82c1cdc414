//! Property-based tests over the whole stack: arbitrary pipeline shapes
//! must yield valid schedules, sane memory replays, bounded simulations
//! and bit-exact runtime equivalence.

use hanayo::cluster::topology::fc_full_nvlink;
use hanayo::core::config::{PipelineConfig, Scheme};
use hanayo::core::gantt::replay_timeline;
use hanayo::core::memory::unit_profile;
use hanayo::core::schedule::{build_compute_schedule, build_schedule};
use hanayo::core::validate::validate;
use hanayo::model::builders::MicroModel;
use hanayo::model::{CostTable, ModelConfig};
use hanayo::runtime::trainer::{sequential_reference, synthetic_data, try_train, TrainerConfig};
use hanayo::runtime::LossKind;
use hanayo::sim::{try_simulate_traced, SimOptions};
use proptest::prelude::*;

/// Arbitrary scheme over a device count.
fn scheme_strategy(p: u32) -> BoxedStrategy<Scheme> {
    let mut options = vec![
        Just(Scheme::GPipe).boxed(),
        Just(Scheme::Dapple).boxed(),
        (1u32..=3).prop_map(|w| Scheme::Hanayo { waves: w }).boxed(),
        (2u32..=3).prop_map(|v| Scheme::Interleaved { chunks: v }).boxed(),
    ];
    if p.is_multiple_of(2) {
        options.push(Just(Scheme::Chimera).boxed());
    }
    proptest::strategy::Union::new(options).boxed()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every generated schedule validates: completeness, chain order,
    /// matched communication, deadlock-freedom, flush.
    #[test]
    fn any_shape_generates_a_valid_schedule(
        (p, scheme) in (2u32..=6).prop_flat_map(|p| (Just(p), scheme_strategy(p))),
        b_mult in 1u32..=3,
        extra in 0u32..=2,
    ) {
        // Mix micro-batch counts that are and are not multiples of P
        // (Chimera needs an even count).
        let b = (p * b_mult + 2 * extra).max(2) & !1;
        let cfg = PipelineConfig::new(p, b, scheme).unwrap();
        let schedule = build_schedule(&cfg).unwrap();
        validate(&schedule).unwrap();
    }

    /// Unit-memory replay: every stash drains, peaks are positive and
    /// bounded by B units, and Hanayo holds exactly one weight copy.
    #[test]
    fn memory_replay_invariants(p in 2u32..=6, b in 2u32..=12, w in 1u32..=3) {
        let cfg = PipelineConfig::new(p, b, Scheme::Hanayo { waves: w }).unwrap();
        let cs = build_compute_schedule(&cfg).unwrap();
        let prof = unit_profile(&cs);
        for (d, (&mw, &ma)) in prof.mw_units.iter().zip(&prof.ma_peak_units).enumerate() {
            prop_assert!((mw - 1.0).abs() < 1e-9, "device {d} weight units {mw}");
            prop_assert!(ma > 0.0);
            prop_assert!(ma <= b as f64 + 1e-9, "device {d} peak {ma} > B {b}");
        }
    }

    /// Abstract replay: bubble ratio in [0,1), makespan at least the
    /// critical path of one micro-batch.
    #[test]
    fn replay_bounds(p in 2u32..=6, b in 2u32..=10, w in 1u32..=2) {
        let cfg = PipelineConfig::new(p, b, Scheme::Hanayo { waves: w }).unwrap();
        let cs = build_compute_schedule(&cfg).unwrap();
        let tl = replay_timeline(&cs, 1, 2, 0);
        prop_assert!((0.0..1.0).contains(&tl.bubble_ratio()));
        let s = cs.stage_map.stages as u64;
        prop_assert!(tl.makespan >= 3 * s, "makespan {} below one chain", tl.makespan);
    }

    /// Discrete-event simulation terminates with conserved compute for
    /// arbitrary shapes.
    #[test]
    fn simulation_conserves_compute(p in 2u32..=5, b in 2u32..=8, w in 1u32..=2) {
        let cfg = PipelineConfig::new(p, b, Scheme::Hanayo { waves: w }).unwrap();
        let schedule = build_schedule(&cfg).unwrap();
        let cluster = fc_full_nvlink(p as usize);
        let cost = CostTable::build(&ModelConfig::gpt128(), cfg.stages(), 1);
        let r = try_simulate_traced(&schedule, &cost, &cluster, SimOptions::default()).unwrap().0;
        let expect = b as f64 * cost.total_fwd_flops() * 3.0 / cluster.effective_flops(0);
        let busy: f64 = r.device_busy.iter().sum();
        prop_assert!((busy - expect).abs() / expect < 1e-6);
    }
}

proptest! {
    // The runtime spawns OS threads per case; keep the case count low.
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Bit-exact equivalence for random tiny training jobs.
    #[test]
    fn runtime_matches_sequential_on_random_shapes(
        p in 2u32..=3,
        b in 2u32..=4,
        w in 1u32..=2,
        seed in 0u64..1000,
    ) {
        let cfg = PipelineConfig::new(p, b, Scheme::Hanayo { waves: w }).unwrap();
        let schedule = build_schedule(&cfg).unwrap();
        let s = schedule.stage_map.stages;
        let model = MicroModel { width: 6, total_blocks: s as usize, seed };
        let trainer = TrainerConfig::new(schedule, model.build_stages(s), 0.05, LossKind::Mse);
        let data = synthetic_data(seed.wrapping_add(1), 1, b as usize, 2, 6);
        let out = try_train(&trainer, &data).unwrap();
        let seq = sequential_reference(&trainer.stages, &data, trainer.lr, &trainer.loss);
        prop_assert_eq!(out.stages, seq.stages);
    }
}
