//! Quickstart: generate a Hanayo schedule, draw it, measure its bubbles,
//! and compare it against the baselines on a simulated cluster.
//!
//! ```text
//! cargo run --example quickstart
//! ```

use hanayo::cluster::topology::fc_full_nvlink;
use hanayo::core::analysis::bubble;
use hanayo::core::analysis::CostTerms;
use hanayo::core::config::{PipelineConfig, Scheme};
use hanayo::core::gantt::render_paper_style;
use hanayo::core::schedule::{build_compute_schedule, build_schedule};
use hanayo::core::validate::validate;
use hanayo::model::{CostTable, ModelConfig};
use hanayo::sim::{try_simulate_traced, SimOptions};

fn main() {
    let p = 4;
    let b = 4;

    println!("=== 1. The wave schedule itself ===\n");
    for (name, scheme) in [
        ("DAPPLE (1F1B)", Scheme::Dapple),
        ("Hanayo, 1 wave", Scheme::Hanayo { waves: 1 }),
        ("Hanayo, 2 waves", Scheme::Hanayo { waves: 2 }),
    ] {
        let cfg = PipelineConfig::new(p, b, scheme).expect("valid config");
        let cs = build_compute_schedule(&cfg).expect("schedulable");
        println!("{name} (P={p}, B={b}):\n{}", render_paper_style(&cs));
    }

    println!("=== 2. Theory: Eq. 1 bubble ratios at P=8 ===\n");
    let c = CostTerms::paper_default();
    println!("  DAPPLE      : {:.1}%", 100.0 * bubble::dapple(8, 8, &c));
    println!("  Chimera     : {:.1}%", 100.0 * bubble::chimera(8, 8, &c));
    for w in [1u32, 2, 4] {
        println!("  Hanayo W={w}  : {:.1}%", 100.0 * bubble::hanayo_eq1(8, w, &c));
    }

    println!("\n=== 3. Simulated execution on an NVSwitch A100 box ===\n");
    let cluster = fc_full_nvlink(8);
    let model = ModelConfig::bert64();
    for (name, scheme) in [
        ("GPipe", Scheme::GPipe),
        ("DAPPLE", Scheme::Dapple),
        ("Hanayo W=2", Scheme::Hanayo { waves: 2 }),
        ("Hanayo W=4", Scheme::Hanayo { waves: 4 }),
    ] {
        let cfg = PipelineConfig::new(8, 8, scheme).expect("valid config");
        let schedule = build_schedule(&cfg).expect("schedulable");
        validate(&schedule).expect("well-formed");
        let cost = CostTable::build(&model, cfg.stages(), 1);
        let report =
            try_simulate_traced(&schedule, &cost, &cluster, SimOptions::default()).unwrap().0;
        println!(
            "  {name:<11}: iteration {:>6.1} ms, bubble {:>4.1}%, peak mem {:>5.1} GB",
            report.iteration_time * 1e3,
            100.0 * report.bubble_ratio,
            report.highest_peak() as f64 / 1e9
        );
    }
    println!("\nMore waves, fewer bubbles, same memory — the paper's headline.");
}
