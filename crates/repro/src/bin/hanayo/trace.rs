//! `hanayo trace` — run a schedule under either engine, export the
//! execution trace as Chrome `trace_event` JSON, and print the analysis;
//! on the runtime, `--calibrate` closes the measure → calibrate → predict
//! loop. See the README's "Execution tracing" section.

use crate::cli::{compact, flag, metrics, Command, Flag, Output};
use hanayo_cluster::topology::fc_full_nvlink;
use hanayo_core::config::{PipelineConfig, Scheme};
use hanayo_core::schedule::build_schedule;
use hanayo_model::builders::{micro_cost_table, MicroModel};
use hanayo_model::{CostTable, Recompute};
use hanayo_runtime::trainer::{synthetic_data, try_train, TrainerConfig};
use hanayo_runtime::LossKind;
use hanayo_serve::schema::{cluster_for, model_for, scheme_for};
use hanayo_sim::{try_simulate_traced, SimOptions};
use hanayo_trace::{analyze, calibrate, chrome_trace_json, validate_chrome_json, Trace};
use serde::Serialize;

pub struct Args {
    engine: String,
    scheme: String,
    devices: Option<u32>,
    micro_batches: u32,
    cluster: String,
    model: String,
    recompute: Recompute,
    iterations: usize,
    calibrate: bool,
    chrome: Option<String>,
    gantt: Option<usize>,
    validate: Option<String>,
}

impl Command for Args {
    const ABOUT: &'static str =
        "unified execution tracing: run, export Chrome JSON, analyze, calibrate";
    const USAGE: &'static str = "USAGE: hanayo trace [FLAGS]\n       \
                                 hanayo trace --validate <file>\n";

    fn defaults() -> Self {
        Args {
            engine: "sim".into(),
            scheme: "hanayo_w2".into(),
            devices: None,
            micro_batches: 8,
            cluster: "fc".into(),
            model: "bert64".into(),
            recompute: Recompute::None,
            iterations: 1,
            calibrate: false,
            chrome: None,
            gantt: None,
            validate: None,
        }
    }

    fn flags() -> Vec<Flag<Self>> {
        vec![
            flag("--engine", "<sim|runtime>", "which engine executes the schedule [sim]", |a| {
                &mut a.engine
            }),
            flag(
                "--scheme",
                "<name>",
                "gpipe|dapple|chimera|pipedream|interleaved<C>|hanayo_w<W> [hanayo_w2]",
                |a| &mut a.scheme,
            ),
            flag("--devices", "<P>", "pipeline width [8 sim, 4 runtime]", |a| &mut a.devices),
            flag("--micro-batches", "<B>", "micro-batches per iteration [8]", |a| {
                &mut a.micro_batches
            }),
            flag("--cluster", "<pc|fc|tacc|tc>", "sim cluster model [fc]", |a| &mut a.cluster),
            flag("--model", "<bert64|gpt128>", "sim cost model [bert64]", |a| &mut a.model),
            flag("--recompute", "<none|full>", "activation checkpointing mode [none]", |a| {
                &mut a.recompute
            }),
            flag("--iterations", "<N>", "runtime training iterations [1]", |a| &mut a.iterations),
            flag(
                "--calibrate",
                "",
                "runtime only: fit a cost table from the measured trace, re-simulate, and \
                 report predicted vs measured makespan",
                |a| &mut a.calibrate,
            ),
            flag(
                "--chrome",
                "<path>",
                "write Chrome trace_event JSON (loadable in ui.perfetto.dev / chrome://tracing)",
                |a| &mut a.chrome,
            ),
            flag("--gantt", "<width>", "include an ASCII Gantt of the trace", |a| &mut a.gantt),
            compact(),
            flag(
                "--validate",
                "<file>",
                "parse a Chrome-trace export back, verify the ph/ts/dur/pid/tid fields, exit \
                 non-zero on any violation (prints the event count)",
                |a| &mut a.validate,
            ),
            metrics(),
        ]
    }

    fn run(self, out: &Output) -> Result<(), String> {
        match &self.validate {
            Some(path) => {
                let json =
                    std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
                let n = validate_chrome_json(&json).map_err(|e| format!("{path}: {e}"))?;
                println!("{path}: valid Chrome trace with {n} events");
                Ok(())
            }
            None => out.emit(&self.trace()?),
        }
    }
}

/// The calibration loop's summary: how well the calibrated simulator
/// predicts the runtime it measured.
#[derive(Debug, Serialize)]
struct CalibrationReport {
    t_fwd_s: Vec<f64>,
    t_bwd_s: Vec<f64>,
    t_link_s: f64,
    measured_makespan_s: f64,
    predicted_makespan_s: f64,
    relative_error: f64,
}

/// The document `trace` prints.
#[derive(Debug, Serialize)]
struct TraceDoc {
    engine: String,
    scheme: String,
    devices: u32,
    micro_batches: u32,
    stages: u32,
    recompute: String,
    events: usize,
    analysis: hanayo_trace::TraceAnalysis,
    calibration: Option<CalibrationReport>,
    gantt: Option<String>,
    chrome_path: Option<String>,
}

impl Args {
    fn trace(self) -> Result<TraceDoc, String> {
        let scheme = scheme_for(&self.scheme)?;
        let b = self.micro_batches;
        let runtime = match self.engine.as_str() {
            "sim" => false,
            "runtime" => true,
            other => return Err(format!("unknown engine {other} (expected sim or runtime)")),
        };
        let p = self.devices.unwrap_or(if runtime { 4 } else { 8 });
        let cfg = PipelineConfig::new(p, b, scheme).map_err(|e| e.to_string())?;
        let schedule = build_schedule(&cfg).map_err(|e| e.to_string())?;

        let (trace, calibration): (Trace, Option<CalibrationReport>) = if runtime {
            if scheme == Scheme::Chimera {
                return Err("the threaded runtime rejects replicated (chimera) schedules".into());
            }
            let s = cfg.stages();
            // Heavy enough micro-batches (64×96 rows through width-96
            // blocks) that per-op compute dominates thread wake-up noise
            // even in a release build — the regime where calibration is
            // meaningful.
            let model = MicroModel { width: 96, total_blocks: s as usize * 2, seed: 23 };
            let stages = model.build_stages(s);
            let trainer = TrainerConfig {
                recompute: self.recompute,
                trace: true,
                ..TrainerConfig::new(schedule.clone(), stages.clone(), 0.05, LossKind::Mse)
            };
            let data = synthetic_data(17, self.iterations, b as usize, 64, 96);
            let out = try_train(&trainer, &data).map_err(|e| e.to_string())?;
            let trace = out.trace.expect("trace requested");
            let calibration = if self.calibrate {
                let cluster = fc_full_nvlink(p as usize);
                let cal = calibrate(&trace, s as usize).map_err(|e| e.to_string())?;
                let bytes = micro_cost_table(&stages, 64, 96, self.recompute);
                let table = cal.cost_table(&bytes, &cluster).map_err(|e| e.to_string())?;
                let (report, _) =
                    try_simulate_traced(&schedule, &table, &cluster, SimOptions::default())
                        .map_err(|e| e.to_string())?;
                // One iteration's measured span (the trace covers them all).
                let measured = trace.duration() / self.iterations as f64;
                let predicted = report.iteration_time;
                Some(CalibrationReport {
                    t_fwd_s: cal.t_fwd.clone(),
                    t_bwd_s: cal.t_bwd.clone(),
                    t_link_s: cal.t_link,
                    measured_makespan_s: measured,
                    predicted_makespan_s: predicted,
                    relative_error: (predicted - measured).abs() / measured,
                })
            } else {
                None
            };
            (trace, calibration)
        } else {
            if self.calibrate {
                return Err("--calibrate needs --engine runtime (it fits measured spans)".into());
            }
            let model = model_for(&self.model)?;
            let cluster = cluster_for(&self.cluster, p as usize)?;
            let cost = CostTable::build_with(&model, cfg.stages(), 1, self.recompute);
            let (_, trace) = try_simulate_traced(
                &schedule,
                &cost,
                &cluster,
                SimOptions { trace: true, ..Default::default() },
            )
            .map_err(|e| e.to_string())?;
            (trace.expect("trace requested"), None)
        };

        if let Some(path) = &self.chrome {
            std::fs::write(path, chrome_trace_json(&trace)?)
                .map_err(|e| format!("writing {path}: {e}"))?;
        }
        Ok(TraceDoc {
            engine: self.engine,
            scheme: self.scheme,
            devices: p,
            micro_batches: b,
            stages: cfg.stages(),
            recompute: self.recompute.label().to_string(),
            events: trace.events.len(),
            analysis: analyze(&trace),
            calibration,
            gantt: self.gantt.map(|w| hanayo_trace::gantt::render(&trace, w)),
            chrome_path: self.chrome,
        })
    }
}
