//! The unified framework's auto-tuner: hand it a model, a cluster and a
//! batch, and it searches the whole strategy space (method × waves × P×D
//! factorisations), discards what doesn't fit memory, and ranks the rest —
//! the paper's "performance model with adaptability to choose from various
//! pipeline parallelism strategies" in action. Also shows the activation
//! recomputation extension.
//!
//! ```text
//! cargo run --release --example auto_tune
//! ```

use hanayo::cluster::topology::{lonestar6, tencent_v100};
use hanayo::core::config::{PipelineConfig, Scheme};
use hanayo::core::schedule::build_schedule;
use hanayo::model::{CostTable, ModelConfig, Recompute};
use hanayo::sim::tuner::{tune, TuneOptions};
use hanayo::sim::{simulate, SimOptions};

fn main() {
    let model = ModelConfig::bert64().with_train_bytes_per_param(8);

    for cluster in [lonestar6(8), tencent_v100(8)] {
        println!("=== Tuning BERT-64L on {} (8 GPUs, 16 micro-batches) ===\n", cluster.name);
        let tuning =
            tune(&model, &cluster, 16, 1, &TuneOptions { min_pp: 4, ..Default::default() });
        println!("{:<22} {:>10} {:>9} {:>10}", "plan", "seq/s", "bubble", "peak (GB)");
        for c in tuning.ranked.iter().take(6) {
            println!(
                "{:<22} {:>10.2} {:>8.1}% {:>10.1}",
                format!("{} (P={},D={})", c.plan.method, c.plan.pp, c.plan.dp),
                c.result.throughput,
                100.0 * c.result.bubble_ratio,
                c.result.peak_mem.iter().max().copied().unwrap_or(0) as f64 / 1e9,
            );
        }
        let oom = tuning.rejected.iter().filter(|r| r.is_oom()).count();
        println!(
            "  ... {} candidates rejected ({} OOM, {} invalid shape)\n",
            tuning.rejected.len(),
            oom,
            tuning.rejected.len() - oom
        );
        let best = tuning.best().expect("something fits");
        println!(
            "winner: {} at (P={}, D={}) -> {:.2} seq/s\n",
            best.plan.method, best.plan.pp, best.plan.dp, best.result.throughput
        );
    }
    println!("(For the full ranked table as JSON — including simulator-option");
    println!(" ablations per candidate — run `hanayo tune`:");
    println!("   cargo run --release -p hanayo-repro -- tune --cluster tacc)\n");

    println!("=== Activation recomputation ablation (Hanayo W=2, P=8, B=16, TACC) ===\n");
    let cfg = PipelineConfig::new(8, 16, Scheme::Hanayo { waves: 2 }).expect("valid");
    let schedule = build_schedule(&cfg).expect("schedulable");
    let cluster = lonestar6(8);
    for (name, mode) in
        [("stash everything", Recompute::None), ("full checkpointing", Recompute::Full)]
    {
        let cost = CostTable::build_with(&ModelConfig::bert64(), cfg.stages(), 2, mode);
        let r = simulate(&schedule, &cost, &cluster, SimOptions::default());
        println!(
            "  {name:<18}: iteration {:>6.1} ms, peak {:>5.1} GB",
            r.iteration_time * 1e3,
            r.highest_peak() as f64 / 1e9
        );
    }
    println!("\nCheckpointing cuts the activation peak at ~1/3 more backward time —");
    println!("orthogonal to the schedule, exactly as the paper's related-work section says.");
}
