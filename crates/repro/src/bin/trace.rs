//! `trace` — run a schedule under either engine, export the execution
//! trace as Chrome `trace_event` JSON, and print the analysis.
//!
//! The measure → calibrate → predict workflow from the command line:
//!
//! ```text
//! # Simulate a 2-wave Hanayo pipeline and open the timeline in Perfetto:
//! cargo run --release -p hanayo-repro --bin trace -- \
//!     --engine sim --scheme hanayo_w2 --chrome /tmp/sim.json
//!
//! # Trace a real threaded training run, calibrate a cost table from the
//! # measured spans, and report how well the simulator predicts it:
//! cargo run --release -p hanayo-repro --bin trace -- \
//!     --engine runtime --scheme dapple --devices 4 --calibrate
//!
//! # Validate any Chrome-trace export (CI runs this on the smoke output):
//! cargo run --release -p hanayo-repro --bin trace -- --validate /tmp/sim.json
//! ```
//!
//! See the README's "Execution tracing" section for the event schema and
//! Perfetto loading instructions.

use hanayo_cluster::topology::fc_full_nvlink;
use hanayo_core::config::{PipelineConfig, Scheme};
use hanayo_core::schedule::build_schedule;
use hanayo_model::builders::{micro_cost_table, MicroModel};
use hanayo_model::{CostTable, Recompute};
use hanayo_runtime::trainer::{synthetic_data, train, TrainerConfig};
use hanayo_runtime::LossKind;
use hanayo_serve::schema::{cluster_for, model_for, scheme_for};
use hanayo_sim::{simulate, simulate_traced, SimOptions};
use hanayo_trace::{analyze, calibrate, chrome_trace_json, validate_chrome_json, Trace};
use serde::Serialize;
use std::process::ExitCode;

const USAGE: &str = "\
trace — unified execution tracing: run, export Chrome JSON, analyze, calibrate

USAGE: trace [FLAGS]
       trace --validate <file>

FLAGS (all optional):
  --engine <sim|runtime>      which engine executes the schedule  [sim]
  --scheme <name>             gpipe|dapple|chimera|pipedream|
                              interleaved<C>|hanayo_w<W>          [hanayo_w2]
  --devices <P>               pipeline width                      [8 sim, 4 runtime]
  --micro-batches <B>         micro-batches per iteration         [8]
  --cluster <pc|fc|tacc|tc>   sim cluster model                   [fc]
  --model <bert64|gpt128>     sim cost model                      [bert64]
  --recompute <none|full>     activation checkpointing mode       [none]
  --iterations <N>            runtime training iterations         [1]
  --calibrate                 runtime only: fit a cost table from the
                              measured trace, re-simulate, and report
                              predicted vs measured makespan
  --chrome <path>             write Chrome trace_event JSON (loadable in
                              ui.perfetto.dev / chrome://tracing)
  --gantt <width>             include an ASCII Gantt of the trace
  --compact                   single-line JSON (default pretty)
  --validate <file>           parse a Chrome-trace export back, verify the
                              ph/ts/dur/pid/tid fields, exit non-zero on
                              any violation (prints the event count)
  --metrics <path>            enable the metrics registry and write its
                              exposition there on exit (.prom selects
                              Prometheus text, anything else JSON)
  --help                      this text
";

#[derive(Debug)]
struct Args {
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
    compact: bool,
    validate: Option<String>,
    metrics: Option<String>,
}

impl Default for Args {
    fn default() -> Args {
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
            compact: false,
            validate: None,
            metrics: None,
        }
    }
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args::default();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("{name} expects a value"));
        match flag.as_str() {
            "--engine" => args.engine = value("--engine")?,
            "--scheme" => args.scheme = value("--scheme")?,
            "--devices" => {
                args.devices =
                    Some(value("--devices")?.parse().map_err(|e| format!("--devices: {e}"))?)
            }
            "--micro-batches" => {
                args.micro_batches = value("--micro-batches")?
                    .parse()
                    .map_err(|e| format!("--micro-batches: {e}"))?
            }
            "--cluster" => args.cluster = value("--cluster")?,
            "--model" => args.model = value("--model")?,
            "--recompute" => {
                let m = value("--recompute")?;
                args.recompute = Recompute::ALL
                    .into_iter()
                    .find(|mode| mode.label() == m)
                    .ok_or_else(|| format!("--recompute: unknown mode {m}"))?
            }
            "--iterations" => {
                args.iterations =
                    value("--iterations")?.parse().map_err(|e| format!("--iterations: {e}"))?
            }
            "--calibrate" => args.calibrate = true,
            "--chrome" => args.chrome = Some(value("--chrome")?),
            "--gantt" => {
                args.gantt = Some(value("--gantt")?.parse().map_err(|e| format!("--gantt: {e}"))?)
            }
            "--compact" => args.compact = true,
            "--validate" => args.validate = Some(value("--validate")?),
            "--metrics" => args.metrics = Some(value("--metrics")?),
            "--help" | "-h" => return Err(String::new()),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(args)
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

/// The document this binary prints.
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

fn run(args: &Args) -> Result<TraceDoc, String> {
    let scheme = scheme_for(&args.scheme)?;
    let b = args.micro_batches;
    let runtime = match args.engine.as_str() {
        "sim" => false,
        "runtime" => true,
        other => return Err(format!("unknown engine {other} (expected sim or runtime)")),
    };
    let p = args.devices.unwrap_or(if runtime { 4 } else { 8 });
    let cfg = PipelineConfig::new(p, b, scheme).map_err(|e| e.to_string())?;
    let schedule = build_schedule(&cfg).map_err(|e| e.to_string())?;

    let (trace, calibration): (Trace, Option<CalibrationReport>) = if runtime {
        if scheme == Scheme::Chimera {
            return Err("the threaded runtime rejects replicated (chimera) schedules".into());
        }
        let s = cfg.stages();
        // Heavy enough micro-batches (64×96 rows through width-96 blocks)
        // that per-op compute dominates thread wake-up noise even in a
        // release build — the regime where calibration is meaningful.
        let model = MicroModel { width: 96, total_blocks: s as usize * 2, seed: 23 };
        let stages = model.build_stages(s);
        let trainer = TrainerConfig {
            recompute: args.recompute,
            trace: true,
            ..TrainerConfig::new(schedule.clone(), stages.clone(), 0.05, LossKind::Mse)
        };
        let data = synthetic_data(17, args.iterations, b as usize, 64, 96);
        let trace = train(&trainer, &data).trace.expect("trace requested");
        let calibration = if args.calibrate {
            let cluster = fc_full_nvlink(p as usize);
            let cal = calibrate(&trace, s as usize).map_err(|e| e.to_string())?;
            let bytes = micro_cost_table(&stages, 64, 96, args.recompute);
            let table = cal.cost_table(&bytes, &cluster).map_err(|e| e.to_string())?;
            let report = simulate(&schedule, &table, &cluster, SimOptions::default());
            // One iteration's measured span (the trace covers them all).
            let measured = trace.duration() / args.iterations as f64;
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
        if args.calibrate {
            return Err("--calibrate needs --engine runtime (it fits measured spans)".into());
        }
        let model = model_for(&args.model)?;
        let cluster = cluster_for(&args.cluster, p as usize)?;
        let cost = CostTable::build_with(&model, cfg.stages(), 1, args.recompute);
        let (_, trace) = simulate_traced(
            &schedule,
            &cost,
            &cluster,
            SimOptions { trace: true, ..Default::default() },
        );
        (trace.expect("trace requested"), None)
    };

    let chrome_path = match &args.chrome {
        Some(path) => {
            std::fs::write(path, chrome_trace_json(&trace)?)
                .map_err(|e| format!("writing {path}: {e}"))?;
            Some(path.clone())
        }
        None => None,
    };

    Ok(TraceDoc {
        engine: args.engine.clone(),
        scheme: args.scheme.clone(),
        devices: p,
        micro_batches: b,
        stages: cfg.stages(),
        recompute: args.recompute.label().to_string(),
        events: trace.events.len(),
        analysis: analyze(&trace),
        calibration,
        gantt: args.gantt.map(|w| hanayo_trace::gantt::render(&trace, w)),
        chrome_path,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(msg) if msg.is_empty() => {
            eprint!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        Err(msg) => {
            eprintln!("error: {msg}\n\n{USAGE}");
            return ExitCode::FAILURE;
        }
    };

    // Validation mode: parse an export back and verify the viewer fields.
    if let Some(path) = &args.validate {
        let json = match std::fs::read_to_string(path) {
            Ok(j) => j,
            Err(e) => {
                eprintln!("error: reading {path}: {e}");
                return ExitCode::FAILURE;
            }
        };
        return match validate_chrome_json(&json) {
            Ok(n) => {
                println!("{path}: valid Chrome trace with {n} events");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("error: {path}: {e}");
                ExitCode::FAILURE
            }
        };
    }

    if args.metrics.is_some() {
        hanayo_repro::metricsio::enable_metrics();
    }
    let doc = match run(&args) {
        Ok(doc) => doc,
        Err(msg) => {
            eprintln!("error: {msg}");
            return ExitCode::FAILURE;
        }
    };
    if let Some(path) = &args.metrics {
        match hanayo_repro::metricsio::write_metrics(path) {
            Ok(n) => eprintln!("metrics: wrote {n} series to {path}"),
            Err(msg) => {
                eprintln!("error: {msg}");
                return ExitCode::FAILURE;
            }
        }
    }
    let json =
        if args.compact { serde_json::to_string(&doc) } else { serde_json::to_string_pretty(&doc) };
    match json {
        Ok(s) => {
            println!("{s}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: serialising the report failed: {e}");
            ExitCode::FAILURE
        }
    }
}
