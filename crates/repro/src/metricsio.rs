//! Metrics exposition for the `hanayo` command line.
//!
//! Every subcommand that accepts `--metrics <path>` does the same three
//! things: switch the registry on before any instrumented work runs, do
//! its job, and render one snapshot to the requested file on the way out
//! ([`write_metrics`]). The format is chosen by extension — `.prom` gets
//! the Prometheus text exposition, anything else the `hanayo-metrics-v1`
//! JSON document — so a scrape config and a jq pipeline can share one
//! flag.

use std::path::Path;

/// The seeded scenario behind `hanayo metrics` and the golden
/// exposition test: one pass through every instrumented layer, fully
/// deterministic under a [`hanayo_metrics::ClockMode::Fixed`] clock.
///
/// * a `P = 8`, `M = 8` Hanayo (2-wave) **simulation** on the NVSwitch
///   box — engine event and rendezvous-stall counters;
/// * a **serial sweep** over the same cluster — candidate verdicts and
///   `SweepCaches` hit/miss counters (serial so the hit/miss split is a
///   pure function of the candidate order, not thread interleaving);
/// * an 8-device micro-model **training run** of the same schedule —
///   worker op counters, GEMM dispatch counters, mailbox-wait
///   histograms, stash/parked peak gauges, heartbeats;
/// * a **checkpoint** of that run, saved and loaded back — write/resume
///   counters, byte totals and the CRC-verify histogram;
/// * one synthetic **calibration validation attempt** at exactly 10%
///   relative error — the attempt counter and error-percentage
///   histogram.
///
/// Every counter below is a pure function of this workload; the fixed
/// clock collapses every duration histogram into its first bucket. The
/// golden test pins the resulting exposition byte-for-byte.
pub fn demo_scenario() -> Result<(), String> {
    use hanayo_cluster::topology::fc_full_nvlink;
    use hanayo_core::config::{PipelineConfig, Scheme};
    use hanayo_core::schedule::build_schedule;
    use hanayo_model::builders::MicroModel;
    use hanayo_model::{CostTable, ModelConfig};
    use hanayo_runtime::trainer::synthetic_data;
    use hanayo_runtime::{try_train, LossKind, TrainerConfig};
    use hanayo_sim::tuner::{tune_serial_with, TuneContext, TuneOptions};
    use hanayo_sim::{try_simulate_traced, SimOptions};

    hanayo_metrics::log::event(
        hanayo_metrics::log::Level::Info,
        "metrics",
        "demo scenario start",
        &[
            ("pipeline", hanayo_metrics::log::Field::Str("hanayo-2w")),
            ("devices", hanayo_metrics::log::Field::U64(8)),
        ],
    );

    // Simulation layer.
    let cfg = PipelineConfig::new(8, 8, Scheme::Hanayo { waves: 2 })
        .map_err(|e| format!("pipeline config: {e}"))?;
    let schedule = build_schedule(&cfg).map_err(|e| format!("schedule: {e}"))?;
    let cluster = fc_full_nvlink(8);
    let cost = CostTable::build(&ModelConfig::bert64(), cfg.stages(), 1);
    let (report, _) = try_simulate_traced(&schedule, &cost, &cluster, SimOptions::default())
        .map_err(|e| format!("simulate: {e}"))?;
    // `<=` (not a negated `>`) so a NaN makespan also trips the guard.
    if report.iteration_time <= 0.0 || report.iteration_time.is_nan() {
        return Err("simulation produced a zero makespan".to_string());
    }

    // Tuner layer (serial: deterministic cache hit/miss split).
    let opts = TuneOptions { waves: vec![1, 2], min_pp: 4, ..Default::default() };
    let tuning =
        tune_serial_with(&ModelConfig::bert64(), &cluster, 8, 1, &opts, &TuneContext::default())
            .map_err(|e| format!("tune: {e}"))?;
    if tuning.best().is_none() {
        return Err("sweep ranked no candidate".to_string());
    }

    // Runtime layer: the same 8-device schedule with real math.
    let stages = MicroModel { width: 8, total_blocks: cfg.stages() as usize, seed: 7 }
        .build_stages(cfg.stages());
    let data = synthetic_data(3, 2, 8, 2, 8);
    let trainer = TrainerConfig::new(schedule, stages, 0.05, LossKind::Mse);
    let out = try_train(&trainer, &data).map_err(|e| e.to_string())?;

    // Checkpoint layer: freeze, save, load back.
    let ckpt = hanayo_runtime::checkpoint_of(&trainer, &out, data.len() as u32, 1);
    let path = std::env::temp_dir().join("hanayo-metrics-demo.ckpt.json");
    ckpt.save(&path).map_err(|e| format!("checkpoint save: {e}"))?;
    hanayo_ckpt::Checkpoint::load(&path).map_err(|e| format!("checkpoint load: {e}"))?;
    let _ = std::fs::remove_file(&path);

    // Calibration validation: a synthetic attempt at exactly 10% error.
    let rel = hanayo_trace::record_validation_attempt(0, 1.1, 1.0, 0.4);
    if (rel - 0.1).abs() > 1e-12 {
        return Err(format!("synthetic attempt scored {rel}, expected 0.1"));
    }
    Ok(())
}

/// Drop the series whose values depend on thread scheduling, leaving a
/// snapshot that is a pure function of the workload. Exactly one metric
/// qualifies today: `hanayo_worker_mailbox_parked_peak` — how deeply a
/// mailbox parks depends on whether a producer ran ahead of its
/// consumer's receive, which the OS scheduler decides. Everything else
/// (op counts, cache verdicts under a serial sweep, fixed-clock
/// histograms, stash peaks) is deterministic; the golden exposition
/// test pins the scrubbed document byte-for-byte.
pub fn scrub_scheduling_dependent(snap: &mut hanayo_metrics::Snapshot) {
    snap.series.retain(|s| s.name != "hanayo_worker_mailbox_parked_peak");
}

/// Render the current registry contents to `path` (`.prom` → Prometheus
/// text, otherwise JSON). Returns the number of series written.
pub fn write_metrics(path: &str) -> Result<usize, String> {
    let snap = hanayo_metrics::snapshot();
    let n = snap.series.len();
    let text = if Path::new(path).extension().is_some_and(|e| e == "prom") {
        hanayo_metrics::expo::prometheus(&snap)
    } else {
        hanayo_metrics::expo::json(&snap)
    };
    std::fs::write(path, text).map_err(|e| format!("writing {path}: {e}"))?;
    Ok(n)
}
