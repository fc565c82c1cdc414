//! Property tests for the discrete-event engine and the plan layer.

use hanayo_cluster::topology::{fc_full_nvlink, lonestar6, paper_clusters};
use hanayo_core::config::{PipelineConfig, Scheme};
use hanayo_core::schedule::build_schedule;
use hanayo_model::{CostTable, ModelConfig, Recompute};
use hanayo_sim::{evaluate_plan, try_simulate_traced, Method, ParallelPlan, SimOptions};
use proptest::prelude::*;

fn any_scheme() -> impl Strategy<Value = Scheme> {
    prop_oneof![
        Just(Scheme::GPipe),
        Just(Scheme::Dapple),
        (1u32..=3).prop_map(|w| Scheme::Hanayo { waves: w }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn simulation_invariants_hold_for_random_shapes(
        p in 2u32..=6,
        b in 2u32..=8,
        scheme in any_scheme(),
        mb in 1u32..=3,
        cluster_idx in 0usize..4,
    ) {
        let cfg = PipelineConfig::new(p, b, scheme).unwrap();
        let schedule = build_schedule(&cfg).unwrap();
        let cluster = paper_clusters(p as usize).remove(cluster_idx);
        let cost = CostTable::build(&ModelConfig::gpt128(), cfg.stages(), mb);
        let r = try_simulate_traced(&schedule, &cost, &cluster, SimOptions::default()).unwrap().0;
        // Time sanity.
        prop_assert!(r.iteration_time.is_finite() && r.iteration_time > 0.0);
        prop_assert!((0.0..1.0).contains(&r.bubble_ratio));
        // Memory sanity: peak ≥ weights, final stash drained implicitly
        // (peaks recorded only on growth).
        for d in 0..p as usize {
            prop_assert!(r.peak_mem[d] >= r.weight_mem[d]);
            prop_assert!(r.device_comm_wait[d] >= 0.0);
            prop_assert!(r.device_busy[d] > 0.0);
        }
        // Spans are non-overlapping per device and within the iteration.
        for spans in &r.spans {
            for w in spans.windows(2) {
                prop_assert!(w[0].end <= w[1].start + 1e-12);
            }
            if let Some(last) = spans.last() {
                prop_assert!(last.end <= r.iteration_time + 1e-12);
            }
        }
    }

    #[test]
    fn prefetch_never_slows_things_down(
        p in 2u32..=6,
        b in 2u32..=8,
        w in 1u32..=3,
    ) {
        let cfg = PipelineConfig::new(p, b, Scheme::Hanayo { waves: w }).unwrap();
        let schedule = build_schedule(&cfg).unwrap();
        let cluster = lonestar6(p as usize);
        let cost = CostTable::build(&ModelConfig::bert64(), cfg.stages(), 1);
        let on = try_simulate_traced(&schedule, &cost, &cluster, SimOptions::default()).unwrap().0;
        let off = try_simulate_traced(
            &schedule,
            &cost,
            &cluster,
            SimOptions { prefetch: false, ..Default::default() }).unwrap().0;
        prop_assert!(on.iteration_time <= off.iteration_time * (1.0 + 1e-9));
    }

    #[test]
    fn recompute_always_trades_time_for_memory(
        p in 2u32..=6,
        b in 2u32..=6,
        w in 1u32..=2,
    ) {
        let cfg = PipelineConfig::new(p, b, Scheme::Hanayo { waves: w }).unwrap();
        let schedule = build_schedule(&cfg).unwrap();
        let cluster = fc_full_nvlink(p as usize);
        let plain = CostTable::build_with(&ModelConfig::bert64(), cfg.stages(), 2, Recompute::None);
        let ckpt = CostTable::build_with(&ModelConfig::bert64(), cfg.stages(), 2, Recompute::Full);
        let sim = |cost| try_simulate_traced(&schedule, cost, &cluster, SimOptions::default());
        let r_plain = sim(&plain).unwrap().0;
        let r_ckpt = sim(&ckpt).unwrap().0;
        prop_assert!(r_ckpt.iteration_time > r_plain.iteration_time);
        prop_assert!(r_ckpt.highest_peak() < r_plain.highest_peak());
    }

    #[test]
    fn faster_devices_never_hurt(
        b in 2u32..=8,
        w in 1u32..=3,
    ) {
        let cfg = PipelineConfig::new(4, b, Scheme::Hanayo { waves: w }).unwrap();
        let schedule = build_schedule(&cfg).unwrap();
        let cost = CostTable::build(&ModelConfig::gpt128(), cfg.stages(), 1);
        let mut slow = fc_full_nvlink(4);
        slow.mfu = 0.2;
        let mut fast = fc_full_nvlink(4);
        fast.mfu = 0.6;
        let r_slow = try_simulate_traced(&schedule, &cost, &slow, SimOptions::default()).unwrap().0;
        let r_fast = try_simulate_traced(&schedule, &cost, &fast, SimOptions::default()).unwrap().0;
        prop_assert!(r_fast.iteration_time < r_slow.iteration_time);
    }

    #[test]
    fn plan_throughput_scales_with_micro_batch_size(
        mbs in 1u32..=3,
    ) {
        // Bigger micro-batches amortise latency: sequences/s must not drop.
        let model = ModelConfig::gpt128().with_train_bytes_per_param(8);
        let cluster = fc_full_nvlink(8);
        let thr = |size: u32| {
            let plan = ParallelPlan {
                method: Method::Hanayo { waves: 2 },
                dp: 1,
                pp: 8,
                micro_batches: 8,
                micro_batch_size: size,
                recompute: Recompute::None,
            };
            evaluate_plan(&plan, &model, &cluster, SimOptions::default())
                .unwrap()
                .throughput
        };
        prop_assert!(thr(mbs + 1) >= thr(mbs) * 0.999);
    }
}
