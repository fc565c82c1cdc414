//! Cross-crate integration: every generated schedule must verify and
//! execute on every cluster model with sane invariants.

use hanayo::analyze::verify;
use hanayo::cluster::topology::paper_clusters;
use hanayo::core::config::{PipelineConfig, Scheme};
use hanayo::core::schedule::build_schedule;
use hanayo::model::{CostTable, ModelConfig};
use hanayo::sim::{try_simulate_traced, SimOptions};

fn schemes() -> Vec<Scheme> {
    vec![
        Scheme::GPipe,
        Scheme::Dapple,
        Scheme::Interleaved { chunks: 2 },
        Scheme::Chimera,
        Scheme::Hanayo { waves: 1 },
        Scheme::Hanayo { waves: 2 },
        Scheme::Hanayo { waves: 4 },
    ]
}

#[test]
fn every_scheme_runs_on_every_cluster() {
    let model = ModelConfig::bert64();
    for cluster in paper_clusters(8) {
        for scheme in schemes() {
            let cfg = PipelineConfig::new(8, 8, scheme).unwrap();
            let schedule = build_schedule(&cfg).unwrap();
            verify(&schedule).unwrap_or_else(|e| panic!("{scheme}: {e}"));
            let cost = CostTable::build(&model, cfg.stages(), 1);
            let r =
                try_simulate_traced(&schedule, &cost, &cluster, SimOptions::default()).unwrap().0;
            assert!(r.iteration_time > 0.0, "{} {scheme}", cluster.name);
            assert!(
                (0.0..1.0).contains(&r.bubble_ratio),
                "{} {scheme}: bubble {}",
                cluster.name,
                r.bubble_ratio
            );
            // Compute is conserved: total busy equals total FLOPs / speed.
            let expect: f64 = 8.0 * cost.total_fwd_flops() * 3.0 / cluster.effective_flops(0);
            let busy: f64 = r.device_busy.iter().sum();
            assert!(
                (busy - expect).abs() / expect < 1e-6,
                "{} {scheme}: busy {busy} vs {expect}",
                cluster.name
            );
        }
    }
}

#[test]
fn sim_and_abstract_replay_agree_on_bubble_ordering() {
    // The simulator (with real costs and comm) and the abstract replay
    // (unit costs, no comm) must rank the schemes identically on a
    // fast-interconnect cluster.
    use hanayo::core::gantt::replay_timeline;
    use hanayo::core::schedule::build_compute_schedule;
    let cluster = &paper_clusters(8)[1]; // FC
    let model = ModelConfig::bert64();
    let mut sim_order = Vec::new();
    let mut replay_order = Vec::new();
    for scheme in [Scheme::Dapple, Scheme::Hanayo { waves: 2 }, Scheme::Hanayo { waves: 4 }] {
        let cfg = PipelineConfig::new(8, 8, scheme).unwrap();
        let schedule = build_schedule(&cfg).unwrap();
        let cost = CostTable::build(&model, cfg.stages(), 1);
        let r = try_simulate_traced(&schedule, &cost, cluster, SimOptions::default()).unwrap().0;
        sim_order.push(r.bubble_ratio);
        let cs = build_compute_schedule(&cfg).unwrap();
        replay_order.push(replay_timeline(&cs, 1, 2, 0).bubble_ratio());
    }
    for i in 1..sim_order.len() {
        assert_eq!(
            sim_order[i] < sim_order[i - 1],
            replay_order[i] < replay_order[i - 1],
            "ordering disagreement at {i}: sim {sim_order:?} replay {replay_order:?}"
        );
    }
}

#[test]
fn simulated_bubble_close_to_eq1_on_ideal_fabric() {
    // With communication nearly free (NVSwitch), the simulated Hanayo
    // bubble should track Eq. 1 within a modest tolerance.
    use hanayo::core::analysis::bubble::hanayo_eq1;
    use hanayo::core::analysis::CostTerms;
    let cluster = &paper_clusters(8)[1]; // FC
    let model = ModelConfig::bert64();
    for w in [2u32, 4] {
        let cfg = PipelineConfig::new(8, 8, Scheme::Hanayo { waves: w }).unwrap();
        let schedule = build_schedule(&cfg).unwrap();
        let cost = CostTable::build(&model, cfg.stages(), 1);
        let r = try_simulate_traced(&schedule, &cost, cluster, SimOptions::default()).unwrap().0;
        let theory = hanayo_eq1(8, w, &CostTerms::paper_default());
        assert!(
            (r.bubble_ratio - theory).abs() < 0.06,
            "W={w}: sim {} vs Eq.1 {theory}",
            r.bubble_ratio
        );
    }
}

#[test]
fn deeper_models_take_proportionally_longer() {
    let cluster = &paper_clusters(8)[1];
    let cfg = PipelineConfig::new(8, 8, Scheme::Hanayo { waves: 2 }).unwrap();
    let schedule = build_schedule(&cfg).unwrap();
    let bert = CostTable::build(&ModelConfig::bert64(), cfg.stages(), 1);
    let gpt = CostTable::build(&ModelConfig::gpt128(), cfg.stages(), 1);
    let rb = try_simulate_traced(&schedule, &bert, cluster, SimOptions::default()).unwrap().0;
    let rg = try_simulate_traced(&schedule, &gpt, cluster, SimOptions::default()).unwrap().0;
    // BERT-64L has ~3.1x the total FLOPs of GPT-128L at equal seq length.
    let flop_ratio = bert.total_fwd_flops() / gpt.total_fwd_flops();
    let time_ratio = rb.iteration_time / rg.iteration_time;
    assert!(
        (time_ratio / flop_ratio - 1.0).abs() < 0.25,
        "time ratio {time_ratio} vs flop ratio {flop_ratio}"
    );
}

#[test]
fn per_device_memory_is_weights_plus_stash() {
    let cluster = &paper_clusters(8)[2]; // TACC
    let model = ModelConfig::bert64();
    let cfg = PipelineConfig::new(8, 16, Scheme::Hanayo { waves: 2 }).unwrap();
    let schedule = build_schedule(&cfg).unwrap();
    let cost = CostTable::build(&model, cfg.stages(), 2);
    let r = try_simulate_traced(&schedule, &cost, cluster, SimOptions::default()).unwrap().0;
    for d in 0..8 {
        assert!(r.peak_mem[d] >= r.weight_mem[d]);
        // Stash cannot exceed B micro-batches of this device's layers.
        let max_stash: u64 = 16
            * schedule
                .stage_map
                .modules_on(hanayo::core::ids::DeviceId(d as u32))
                .iter()
                .map(|&(_, s)| cost.stash_bytes[s.idx()])
                .sum::<u64>();
        assert!(r.peak_mem[d] - r.weight_mem[d] <= max_stash);
    }
}
