//! The trace-truth contract, closing the measurement loop end-to-end.
//!
//! 1. **Sim trace == sim report, exactly.** For every golden scheme at
//!    `(P=8, M=8)`, the trace lowered out of the discrete-event engine has
//!    a makespan bit-identical to `SimReport::iteration_time`, per-device
//!    busy identical to `device_busy`, and tracing never perturbs the
//!    report.
//! 2. **Closed loop: measure → calibrate → predict.** A real threaded
//!    training run is traced with wall-clock spans; `calibrate()` fits
//!    per-stage `T_F`/`T_B` and the link time; the resulting `CostTable`
//!    drives the simulator; the simulated makespan must land within
//!    [`CALIBRATION_TOLERANCE`] of the measured one. This is the
//!    profile-guided workflow the paper's §4 runtime uses to pick wave
//!    configurations, executed on the micro-model.
//! 3. **Chrome export round-trips.** Every exported trace is valid
//!    `trace_event` JSON with the fields Perfetto requires.

use hanayo::cluster::topology::fc_full_nvlink;
use hanayo::core::config::{PipelineConfig, Scheme};
use hanayo::core::schedule::build_schedule;
use hanayo::model::builders::{micro_cost_table, MicroModel};
use hanayo::model::{CostTable, ModelConfig, Recompute};
use hanayo::runtime::trainer::{synthetic_data, try_train, TrainerConfig};
use hanayo::runtime::LossKind;
use hanayo::sim::{try_simulate_traced, SimOptions};
use hanayo::trace::{analyze, calibrate, chrome_trace_json, validate_chrome_json, Trace};

/// Documented tolerance of the calibrated prediction on the micro-model:
/// the simulated makespan must land within ±40% of the measured one. The
/// residual is scheduling noise the simulator does not model (thread
/// wake-ups, channel latency, OS jitter) — per-op compute costs are fitted
/// from the very spans being predicted, so agreement far tighter than this
/// is typical; the bound is set for noisy CI machines.
const CALIBRATION_TOLERANCE: f64 = 0.4;

/// The 7 golden schemes (same set the golden-schedule snapshots freeze).
fn golden_schemes() -> Vec<(&'static str, Scheme)> {
    vec![
        ("gpipe", Scheme::GPipe),
        ("dapple", Scheme::Dapple),
        ("interleaved2", Scheme::Interleaved { chunks: 2 }),
        ("chimera", Scheme::Chimera),
        ("hanayo_w1", Scheme::Hanayo { waves: 1 }),
        ("hanayo_w2", Scheme::Hanayo { waves: 2 }),
        ("hanayo_w4", Scheme::Hanayo { waves: 4 }),
    ]
}

#[test]
fn sim_trace_makespan_equals_report_exactly_on_every_golden_scheme() {
    for (name, scheme) in golden_schemes() {
        let cfg = PipelineConfig::new(8, 8, scheme).unwrap();
        let schedule = build_schedule(&cfg).unwrap();
        let cost = CostTable::build(&ModelConfig::bert64(), cfg.stages(), 1);
        let cluster = fc_full_nvlink(8);
        let untraced =
            try_simulate_traced(&schedule, &cost, &cluster, SimOptions::default()).unwrap().0;
        let (report, trace) = try_simulate_traced(
            &schedule,
            &cost,
            &cluster,
            SimOptions { trace: true, ..Default::default() },
        )
        .unwrap();
        assert_eq!(untraced, report, "{name}: tracing perturbed the report");
        let trace = trace.expect("trace requested");
        trace.validate().unwrap_or_else(|e| panic!("{name}: invalid trace: {e}"));
        // Exact, not approximate: the trace is a lowering of the very
        // events the report aggregated.
        assert_eq!(trace.makespan(), report.iteration_time, "{name}: makespan diverged");
        assert_eq!(trace.device_busy(), report.device_busy, "{name}: busy diverged");
        let a = analyze(&trace);
        assert!(
            (a.bubble_ratio - report.bubble_ratio).abs() < 1e-12,
            "{name}: bubble {} vs {}",
            a.bubble_ratio,
            report.bubble_ratio
        );
        // The Chrome export of every golden trace is loadable.
        let json = chrome_trace_json(&trace).unwrap();
        assert_eq!(validate_chrome_json(&json).unwrap(), trace.events.len(), "{name}");
    }
}

/// One traced training run of the micro-model, returning the measured
/// trace and the stages it trained (for byte-column probing).
fn traced_run(p: u32, b: u32, scheme: Scheme) -> (Trace, Vec<hanayo::tensor::Stage>) {
    let cfg = PipelineConfig::new(p, b, scheme).unwrap();
    let schedule = build_schedule(&cfg).unwrap();
    let s = cfg.stages();
    // Wide enough that per-op compute (~hundreds of µs in a debug build)
    // dwarfs channel/wake-up latency (~tens of µs).
    let model = MicroModel { width: 64, total_blocks: s as usize * 2, seed: 23 };
    let stages = model.build_stages(s);
    let trainer = TrainerConfig {
        trace: true,
        ..TrainerConfig::new(schedule, stages.clone(), 0.05, LossKind::Mse)
    };
    let data = synthetic_data(17, 1, b as usize, 16, 64);
    let out = try_train(&trainer, &data).unwrap();
    (out.trace.expect("trace requested"), stages)
}

#[test]
fn calibrated_sim_predicts_the_measured_runtime_makespan() {
    // Measure → calibrate → predict, with retries: the measurement side is
    // a real multi-threaded run on a shared CI machine, so any single
    // trace can be polluted by scheduling noise. Three attempts must
    // produce one within tolerance (each attempt re-measures AND
    // re-calibrates, so this never mixes runs).
    let (p, b, scheme) = (4u32, 8u32, Scheme::Dapple);
    let cfg = PipelineConfig::new(p, b, scheme).unwrap();
    let schedule = build_schedule(&cfg).unwrap();
    let cluster = fc_full_nvlink(p as usize);
    let mut errors = Vec::new();
    for attempt in 0..3u32 {
        let (trace, stages) = traced_run(p, b, scheme);
        trace.validate().unwrap();
        let measured = trace.duration();
        assert!(measured > 0.0);

        let cal = calibrate(&trace, cfg.stages() as usize).expect("full coverage");
        assert!(cal.fwd_samples.iter().all(|&n| n == b as usize), "{:?}", cal.fwd_samples);
        let bytes = micro_cost_table(&stages, 16, 64, Recompute::None);
        let table = cal.cost_table(&bytes, &cluster).unwrap();

        let report =
            try_simulate_traced(&schedule, &table, &cluster, SimOptions::default()).unwrap().0;
        let predicted = report.iteration_time;
        // Scores the attempt and, with metrics enabled, records the error
        // percentage histogram + structured event.
        let rel_err = hanayo::trace::record_validation_attempt(
            attempt,
            predicted,
            measured,
            CALIBRATION_TOLERANCE,
        );
        if rel_err < CALIBRATION_TOLERANCE {
            return;
        }
        errors.push(rel_err);
    }
    panic!(
        "calibrated sim missed the measured makespan in all 3 attempts: \
         relative errors {errors:?} (tolerance {CALIBRATION_TOLERANCE})"
    );
}

#[test]
fn runtime_trace_exports_valid_chrome_json() {
    let (trace, _) = traced_run(2, 4, Scheme::Hanayo { waves: 1 });
    let json = chrome_trace_json(&trace).unwrap();
    assert_eq!(validate_chrome_json(&json).unwrap(), trace.events.len());
    // And the trace itself serde-round-trips exactly.
    let back: Trace = hanayo::trace::Trace::clone(&trace);
    let json2 = serde_json::to_string(&trace).unwrap();
    let reparsed: Trace = serde_json::from_str(&json2).unwrap();
    assert_eq!(reparsed, back);
}

#[test]
fn runtime_analysis_sees_pipeline_structure() {
    let (trace, _) = traced_run(4, 8, Scheme::Hanayo { waves: 1 });
    let a = analyze(&trace);
    // Every device computed something and the measurement axis is sane.
    assert!(a.device_busy.iter().all(|&busy| busy > 0.0), "{:?}", a.device_busy);
    assert!(a.duration > 0.0 && a.makespan >= a.duration);
    assert!((0.0..1.0).contains(&a.bubble_ratio), "bubble {}", a.bubble_ratio);
    // The dependency walk finds a multi-hop chain ending in real compute.
    assert!(a.critical_path_len > 2, "path {}", a.critical_path_len);
    assert!(a.critical_path_compute > 0.0);
    assert!(a.critical_path_fraction <= 1.0 + 1e-9);
}
