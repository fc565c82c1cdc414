//! Ablations over the design choices DESIGN.md calls out:
//!
//! 1. **Wave count** — the bubble/communication trade-off of §3.3.
//! 2. **Receive prefetching** — the §4.2 runtime optimisation, on vs off.
//! 3. **Batched cross-communication** — what the NCCL batching
//!    synchronisation costs (measured by how much idle time it attributes).
//!
//! ```text
//! cargo run --release --example wave_ablation
//! ```

use hanayo::cluster::topology::{fc_full_nvlink, lonestar6};
use hanayo::core::config::{PipelineConfig, Scheme};
use hanayo::core::schedule::build_schedule;
use hanayo::model::{CostTable, ModelConfig};
use hanayo::sim::{try_simulate_traced, SimOptions};

fn main() {
    let model = ModelConfig::bert64();

    println!("=== Wave-count ablation (P=8, B=8, BERT) ===\n");
    println!(
        "{:<8} {:>12} {:>12} {:>12} {:>12}",
        "waves", "FC iter(ms)", "FC bubble", "TACC iter", "TACC bubble"
    );
    for w in [1u32, 2, 4, 8] {
        let cfg = PipelineConfig::new(8, 8, Scheme::Hanayo { waves: w }).expect("valid");
        let schedule = build_schedule(&cfg).expect("schedulable");
        let cost = CostTable::build(&model, cfg.stages(), 1);
        let fc = try_simulate_traced(&schedule, &cost, &fc_full_nvlink(8), SimOptions::default())
            .unwrap()
            .0;
        let tacc =
            try_simulate_traced(&schedule, &cost, &lonestar6(8), SimOptions::default()).unwrap().0;
        println!(
            "W={w:<6} {:>12.1} {:>11.1}% {:>12.1} {:>11.1}%",
            fc.iteration_time * 1e3,
            100.0 * fc.bubble_ratio,
            tacc.iteration_time * 1e3,
            100.0 * tacc.bubble_ratio
        );
    }
    println!("\nOn the NVSwitch box more waves keep paying off; on Lonestar6's");
    println!("shared HCA the extra cross-communication catches up — §5.2's finding.\n");

    println!("=== Prefetch ablation (Hanayo W=2, P=8, B=8) ===\n");
    let cfg = PipelineConfig::new(8, 8, Scheme::Hanayo { waves: 2 }).expect("valid");
    let schedule = build_schedule(&cfg).expect("schedulable");
    let cost = CostTable::build(&model, cfg.stages(), 1);
    for cluster in [fc_full_nvlink(8), lonestar6(8)] {
        let on = try_simulate_traced(&schedule, &cost, &cluster, SimOptions::default()).unwrap().0;
        let off = try_simulate_traced(
            &schedule,
            &cost,
            &cluster,
            SimOptions { prefetch: false, ..Default::default() },
        )
        .unwrap()
        .0;
        println!(
            "{:<6}: prefetch on {:>7.1} ms | off {:>7.1} ms | saved {:>5.1}%",
            cluster.name,
            on.iteration_time * 1e3,
            off.iteration_time * 1e3,
            100.0 * (1.0 - on.iteration_time / off.iteration_time)
        );
    }

    println!("\n=== Communication-wait attribution (W=2 vs W=8 on Lonestar6) ===\n");
    for w in [2u32, 8] {
        let cfg = PipelineConfig::new(8, 8, Scheme::Hanayo { waves: w }).expect("valid");
        let schedule = build_schedule(&cfg).expect("schedulable");
        let cost = CostTable::build(&model, cfg.stages(), 1);
        let r =
            try_simulate_traced(&schedule, &cost, &lonestar6(8), SimOptions::default()).unwrap().0;
        let wait: f64 = r.device_comm_wait.iter().sum();
        println!(
            "W={w}: total message-wait {:>6.1} ms across devices ({:.1}% of device-time)",
            wait * 1e3,
            100.0 * wait / (r.iteration_time * 8.0)
        );
    }
}
