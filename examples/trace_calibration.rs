//! The measurement loop, end to end: trace a real threaded training run,
//! calibrate a cost table from the measured spans, and let the simulator
//! predict the run it was calibrated on — the §4 profiler workflow on the
//! CPU micro-model.
//!
//! ```text
//! cargo run --release --example trace_calibration
//! ```

use hanayo::cluster::topology::fc_full_nvlink;
use hanayo::core::config::{PipelineConfig, Scheme};
use hanayo::core::schedule::build_schedule;
use hanayo::model::builders::{micro_cost_table, MicroModel};
use hanayo::model::Recompute;
use hanayo::runtime::trainer::{synthetic_data, try_train, TrainerConfig};
use hanayo::runtime::LossKind;
use hanayo::sim::{try_simulate_traced, SimOptions};
use hanayo::trace::{analyze, calibrate, gantt};

fn main() {
    let (p, b) = (4u32, 8u32);
    let scheme = Scheme::Hanayo { waves: 1 };
    let cfg = PipelineConfig::new(p, b, scheme).unwrap();
    let schedule = build_schedule(&cfg).unwrap();
    let s = cfg.stages();

    // 1. Measure: run one real training iteration with tracing on.
    let model = MicroModel { width: 96, total_blocks: s as usize * 2, seed: 23 };
    let stages = model.build_stages(s);
    let trainer = TrainerConfig {
        trace: true,
        ..TrainerConfig::new(schedule.clone(), stages.clone(), 0.05, LossKind::Mse)
    };
    let data = synthetic_data(17, 1, b as usize, 64, 96);
    let trace = try_train(&trainer, &data).unwrap().trace.expect("trace requested");

    println!("measured timeline ({} events):", trace.events.len());
    print!("{}", gantt::render(&trace, 72));
    let a = analyze(&trace);
    println!(
        "measured: makespan {:.3} ms, bubble {:.1}%, critical path {} spans\n",
        1e3 * a.duration,
        100.0 * a.bubble_ratio,
        a.critical_path_len
    );

    // 2. Calibrate: fit per-stage T_F / T_B and the link time.
    let cal = calibrate(&trace, s as usize).expect("trace covers every stage");
    println!("calibrated per-stage forward times (µs): {:?}", scaled(&cal.t_fwd));
    println!("calibrated per-stage backward times (µs): {:?}", scaled(&cal.t_bwd));

    // 3. Predict: drive the simulator with the calibrated table.
    let cluster = fc_full_nvlink(p as usize);
    let table = cal
        .cost_table(&micro_cost_table(&stages, 64, 96, Recompute::None), &cluster)
        .expect("calibration covers the traced stages");
    let report = try_simulate_traced(&schedule, &table, &cluster, SimOptions::default()).unwrap().0;
    let rel = (report.iteration_time - a.duration).abs() / a.duration;
    println!(
        "predicted: makespan {:.3} ms ({:.1}% off the measurement)",
        1e3 * report.iteration_time,
        100.0 * rel
    );
}

fn scaled(v: &[f64]) -> Vec<f64> {
    v.iter().map(|t| (t * 1e6).round()).collect()
}
