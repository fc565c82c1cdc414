//! `ckpt` — fault tolerance end to end from the command line: train with a
//! checkpoint policy, inject a deterministic failure, inspect the durable
//! checkpoint, resume and *prove* bit-equality with the uninterrupted run,
//! and price checkpoint intervals by goodput.
//!
//! ```text
//! # Train 6 iterations, checkpoint every 2, kill device 1 at iteration 3;
//! # the last durable checkpoint lands in /tmp/ckpt.json:
//! cargo run --release -p hanayo-repro --bin ckpt -- \
//!     --mode run --scheme hanayo_w2 --devices 2 --micro-batches 4 \
//!     --iterations 6 --every 2 --kill-device 1 --kill-at 3 --out /tmp/ckpt.json
//!
//! # Resume it and verify the final weights/losses are bitwise identical
//! # to a run that never failed:
//! cargo run --release -p hanayo-repro --bin ckpt -- \
//!     --mode resume --ckpt /tmp/ckpt.json --verify
//!
//! # Rank checkpoint intervals by goodput on TACC with a 1-day MTBF:
//! cargo run --release -p hanayo-repro --bin ckpt -- \
//!     --mode goodput --cluster tacc --mtbf-hours 24 --intervals 4,16
//! ```
//!
//! See the README's "Fault tolerance & checkpointing" section for the JSON
//! schemas.

use hanayo_ckpt::recovery::{young_daly_interval_s, RecoveryOptions};
use hanayo_ckpt::{Checkpoint, CheckpointPolicy, FailurePlan, RngCursor};
use hanayo_core::config::{PipelineConfig, Scheme};
use hanayo_core::schedule::build_schedule;
use hanayo_model::builders::MicroModel;
use hanayo_model::Recompute;
use hanayo_runtime::trainer::{
    resume, synthetic_data, synthetic_data_at, synthetic_draws_per_iteration, train,
    try_train_resumable, TrainOutput, TrainerConfig,
};
use hanayo_runtime::{checkpoint_of, LossKind};
use hanayo_serve::schema::{cluster_for, model_for, scheme_for};
use hanayo_sim::plan::{evaluate_plan, Method, ParallelPlan};
use hanayo_sim::tuner::plan_recovery_eval;
use hanayo_sim::SimOptions;
use hanayo_tensor::Stage;
use serde::{Deserialize, Serialize};
use std::path::Path;
use std::process::ExitCode;

#[derive(Debug)]
struct Args {
    mode: String,
    scheme: String,
    devices: u32,
    micro_batches: u32,
    iterations: u32,
    every: u32,
    seed: u64,
    lr: f32,
    width: usize,
    rows: usize,
    kill_device: Option<u32>,
    kill_at: Option<u32>,
    drop_link: Option<(u32, u32)>,
    drop_at: Option<u32>,
    out: Option<String>,
    ckpt: Option<String>,
    verify: bool,
    cluster: String,
    gpus: usize,
    model: String,
    batch: u32,
    mtbf_hours: Option<f64>,
    restart_s: f64,
    intervals: Vec<u32>,
    compact: bool,
    metrics: Option<String>,
}

impl Default for Args {
    fn default() -> Args {
        Args {
            mode: "run".to_string(),
            scheme: "hanayo_w2".to_string(),
            devices: 2,
            micro_batches: 4,
            iterations: 6,
            every: 2,
            seed: 7,
            lr: 0.05,
            width: 8,
            rows: 2,
            kill_device: None,
            kill_at: None,
            drop_link: None,
            drop_at: None,
            out: None,
            ckpt: None,
            verify: false,
            cluster: "tacc".to_string(),
            gpus: 8,
            model: "bert64".to_string(),
            batch: 8,
            mtbf_hours: None,
            restart_s: 30.0,
            intervals: vec![4, 16],
            compact: false,
            metrics: None,
        }
    }
}

const USAGE: &str = "\
ckpt — deterministic checkpoint/restore, failure injection and goodput planning

USAGE: ckpt --mode <run|inspect|resume|goodput|validate-goodput> [FLAGS]

MODES:
  run               train with a checkpoint policy (and optionally an injected
                    failure); writes the final — or last durable — checkpoint
  inspect           print a checkpoint file's metadata as JSON
  resume            load a checkpoint, regenerate the remaining data from the
                    stored RNG cursor, finish the run; --verify additionally
                    re-runs uninterrupted and asserts bitwise equality
  goodput           evaluate checkpoint intervals for the six benchmark
                    schemes and print the goodput table as JSON
  validate-goodput  re-parse a goodput table export and verify its schema

TRAINING FLAGS (run / resume; resume must repeat the run's values):
  --scheme <name>        gpipe|dapple|pipedream|interleaved<C>|hanayo_w<W>
                         (not chimera: the runtime trains one replica)
                                                             [hanayo_w2]
  --devices <P>          pipeline width                      [2]
  --micro-batches <B>    micro-batches per iteration         [4]
  --iterations <N>       training iterations                 [6]
  --every <K>            checkpoint every K iterations, 0=off [2]
  --seed <S>             model/data seed                     [7]
  --lr <LR>              SGD learning rate                   [0.05]
  --width <W> --rows <R> micro-model tensor shape            [8, 2]
  --kill-device <D> --kill-at <I>     inject: kill device D at iteration I
  --drop-link <SRC,DST> --drop-at <I> inject: link down from iteration I
  --out <path>           (run) checkpoint file to write
  --ckpt <path>          (inspect/resume/validate-goodput) input file
  --verify               (resume) assert bit-equality with uninterrupted run

GOODPUT FLAGS:
  --cluster <pc|fc|tacc|tc>   hardware environment           [tacc]
  --gpus <N>                  cluster size                   [8]
  --model <bert64|gpt128>     cost model                     [bert64]
  --batch <B>                 micro-batches per iteration    [8]
  --mtbf-hours <H>            override per-device MTBF
  --restart-s <R>             fixed job-restart latency      [30]
  --intervals <csv>           checkpoint intervals to price  [4,16]

  --compact                   single-line JSON (default pretty)
  --metrics <path>            enable the metrics registry and write its
                              exposition there on exit (.prom selects
                              Prometheus text, anything else JSON)
  --help                      this text
";

fn parse<T: std::str::FromStr>(v: String, name: &str) -> Result<T, String>
where
    T::Err: std::fmt::Display,
{
    v.parse().map_err(|e| format!("{name}: {e}"))
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args::default();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("{name} expects a value"));
        match flag.as_str() {
            "--mode" => args.mode = value("--mode")?,
            "--scheme" => args.scheme = value("--scheme")?,
            "--devices" => args.devices = parse(value("--devices")?, "--devices")?,
            "--micro-batches" => {
                args.micro_batches = parse(value("--micro-batches")?, "--micro-batches")?
            }
            "--iterations" => args.iterations = parse(value("--iterations")?, "--iterations")?,
            "--every" => args.every = parse(value("--every")?, "--every")?,
            "--seed" => args.seed = parse(value("--seed")?, "--seed")?,
            "--lr" => args.lr = parse(value("--lr")?, "--lr")?,
            "--width" => args.width = parse(value("--width")?, "--width")?,
            "--rows" => args.rows = parse(value("--rows")?, "--rows")?,
            "--kill-device" => {
                args.kill_device = Some(parse(value("--kill-device")?, "--kill-device")?)
            }
            "--kill-at" => args.kill_at = Some(parse(value("--kill-at")?, "--kill-at")?),
            "--drop-link" => {
                let v = value("--drop-link")?;
                let (a, b) = v
                    .split_once(',')
                    .ok_or_else(|| format!("--drop-link expects SRC,DST, got {v}"))?;
                args.drop_link = Some((
                    a.trim().parse().map_err(|e| format!("--drop-link src: {e}"))?,
                    b.trim().parse().map_err(|e| format!("--drop-link dst: {e}"))?,
                ));
            }
            "--drop-at" => args.drop_at = Some(parse(value("--drop-at")?, "--drop-at")?),
            "--out" => args.out = Some(value("--out")?),
            "--ckpt" => args.ckpt = Some(value("--ckpt")?),
            "--verify" => args.verify = true,
            "--cluster" => args.cluster = value("--cluster")?,
            "--gpus" => args.gpus = parse(value("--gpus")?, "--gpus")?,
            "--model" => args.model = value("--model")?,
            "--batch" => args.batch = parse(value("--batch")?, "--batch")?,
            "--mtbf-hours" => {
                args.mtbf_hours = Some(parse(value("--mtbf-hours")?, "--mtbf-hours")?)
            }
            "--restart-s" => args.restart_s = parse(value("--restart-s")?, "--restart-s")?,
            "--intervals" => {
                args.intervals = value("--intervals")?
                    .split(',')
                    .map(|k| k.trim().parse().map_err(|e| format!("--intervals: {e}")))
                    .collect::<Result<_, _>>()?
            }
            "--compact" => args.compact = true,
            "--metrics" => args.metrics = Some(value("--metrics")?),
            "--help" | "-h" => return Err(String::new()),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(args)
}

/// Build the training job the flags describe. The data stream's seed is
/// `seed + 1` (the model uses `seed`), recorded in the checkpoint's RNG
/// cursor.
fn job_for(args: &Args) -> Result<(TrainerConfig, Vec<Stage>, u64), String> {
    let scheme = scheme_for(&args.scheme)?;
    if scheme == Scheme::Chimera {
        return Err("the threaded runtime rejects replicated (chimera) schedules".into());
    }
    let cfg =
        PipelineConfig::new(args.devices, args.micro_batches, scheme).map_err(|e| e.to_string())?;
    let schedule = build_schedule(&cfg).map_err(|e| e.to_string())?;
    let s = schedule.stage_map.stages;
    let model = MicroModel { width: args.width, total_blocks: s as usize, seed: args.seed };
    let stages = model.build_stages(s);
    let failure = match (args.kill_device, args.kill_at, args.drop_link, args.drop_at) {
        (Some(device), Some(iteration), _, _) => FailurePlan::KillDevice { device, iteration },
        (_, _, Some((src, dst)), Some(iteration)) => FailurePlan::DropLink { src, dst, iteration },
        (Some(_), None, _, _) | (None, Some(_), _, _) => {
            return Err("--kill-device and --kill-at must be given together".to_string())
        }
        (_, _, Some(_), None) | (_, _, None, Some(_)) => {
            return Err("--drop-link and --drop-at must be given together".to_string())
        }
        _ => FailurePlan::None,
    };
    let trainer = TrainerConfig {
        checkpoint: CheckpointPolicy::every(args.every),
        failure,
        ..TrainerConfig::new(schedule, stages.clone(), args.lr, LossKind::Mse)
    };
    Ok((trainer, stages, args.seed + 1))
}

// ---------------------------------------------------------------------------
// JSON documents
// ---------------------------------------------------------------------------

/// What `--mode run` and `--mode resume` print.
#[derive(Debug, Serialize)]
struct RunSummary {
    mode: String,
    scheme: String,
    devices: u32,
    micro_batches: u32,
    iterations: u32,
    checkpoint_every: u32,
    completed: bool,
    error: Option<String>,
    checkpoint_iteration: Option<u32>,
    checkpoint_path: Option<String>,
    losses: Vec<f32>,
    peak_stash_bytes: Vec<usize>,
    verified_bitwise: Option<bool>,
}

/// What `--mode inspect` prints.
#[derive(Debug, Serialize)]
struct Inspection {
    schema_version: u32,
    fingerprint_hex: String,
    iteration: u32,
    world: u32,
    devices: usize,
    stages: usize,
    params: usize,
    state_bytes: u64,
    losses: Vec<f32>,
    peak_stash_bytes: Vec<u64>,
    rng_seed: Option<u64>,
    rng_draws: Option<u64>,
    has_trace: bool,
    plan_json: Option<String>,
}

/// One `(scheme, interval)` row of the goodput table.
#[derive(Debug, Serialize, Deserialize)]
struct GoodputRow {
    method: String,
    label: String,
    interval_iterations: u32,
    iteration_time_s: f64,
    throughput_seq_per_s: f64,
    checkpoint_write_s: f64,
    restart_s: f64,
    cluster_mtbf_s: f64,
    efficiency: f64,
    goodput_seq_per_s: f64,
    young_daly_interval_s: f64,
}

/// The document `--mode goodput` prints.
#[derive(Debug, Serialize, Deserialize)]
struct GoodputTable {
    model: String,
    cluster: String,
    devices: usize,
    micro_batches: u32,
    device_mtbf_s: f64,
    restart_latency_s: f64,
    intervals: Vec<u32>,
    rows: Vec<GoodputRow>,
}

fn emit<T: Serialize>(doc: &T, compact: bool) -> Result<(), String> {
    let json = if compact { serde_json::to_string(doc) } else { serde_json::to_string_pretty(doc) };
    println!("{}", json.map_err(|e| e.to_string())?);
    Ok(())
}

// ---------------------------------------------------------------------------
// Modes
// ---------------------------------------------------------------------------

fn mode_run(args: &Args) -> Result<(), String> {
    let (trainer, _, data_seed) = job_for(args)?;
    let n = args.iterations as usize;
    let data = synthetic_data(data_seed, n, args.micro_batches as usize, args.rows, args.width);
    let per_iter =
        synthetic_draws_per_iteration(args.micro_batches as usize, args.rows, args.width);
    let cursor_at = |i: u32| Some(RngCursor { seed: data_seed, draws: i as u64 * per_iter });

    let mut summary = RunSummary {
        mode: "run".to_string(),
        scheme: args.scheme.clone(),
        devices: args.devices,
        micro_batches: args.micro_batches,
        iterations: args.iterations,
        checkpoint_every: args.every,
        completed: false,
        error: None,
        checkpoint_iteration: None,
        checkpoint_path: None,
        losses: Vec::new(),
        peak_stash_bytes: Vec::new(),
        verified_bitwise: None,
    };

    let checkpoint = match try_train_resumable(&trainer, &data) {
        Ok(out) => {
            summary.completed = true;
            summary.losses = out.losses.clone();
            summary.peak_stash_bytes = out.peak_stash_bytes.clone();
            let mut c = checkpoint_of(&trainer, &out, args.iterations, 1);
            c.rng = cursor_at(args.iterations);
            c
        }
        Err(failed) => {
            summary.error = Some(failed.error.to_string());
            let mut c = failed.checkpoint.ok_or_else(|| {
                format!("run failed with no durable checkpoint: {}", failed.error)
            })?;
            summary.checkpoint_iteration = Some(c.iteration);
            c.rng = cursor_at(c.iteration);
            c
        }
    };
    if let Some(out) = &args.out {
        checkpoint.save(Path::new(out)).map_err(|e| e.to_string())?;
        summary.checkpoint_path = Some(out.clone());
        summary.checkpoint_iteration = Some(checkpoint.iteration);
    }
    emit(&summary, args.compact)
}

fn mode_inspect(args: &Args) -> Result<(), String> {
    let path = args.ckpt.as_ref().ok_or("--mode inspect needs --ckpt <path>")?;
    let c = Checkpoint::load(Path::new(path)).map_err(|e| e.to_string())?;
    let doc = Inspection {
        schema_version: hanayo_ckpt::SCHEMA_VERSION,
        fingerprint_hex: format!("{:#018x}", c.fingerprint),
        iteration: c.iteration,
        world: c.world,
        devices: c.schedule.lists.len(),
        stages: c.stages.len(),
        params: c.stages.iter().map(Stage::param_count).sum(),
        state_bytes: c.state_bytes(),
        losses: c.losses.clone(),
        peak_stash_bytes: c.peak_stash_bytes.clone(),
        rng_seed: c.rng.map(|r| r.seed),
        rng_draws: c.rng.map(|r| r.draws),
        has_trace: c.trace.is_some(),
        plan_json: c.plan_json.clone(),
    };
    emit(&doc, args.compact)
}

fn bitwise_equal(a: &TrainOutput, b: &TrainOutput) -> bool {
    let bits = |o: &TrainOutput| -> Vec<u32> {
        o.stages.iter().flat_map(Stage::flat_params).map(f32::to_bits).collect()
    };
    bits(a) == bits(b)
        && a.losses.iter().map(|l| l.to_bits()).eq(b.losses.iter().map(|l| l.to_bits()))
        && a.peak_stash_bytes == b.peak_stash_bytes
}

fn mode_resume(args: &Args) -> Result<(), String> {
    let path = args.ckpt.as_ref().ok_or("--mode resume needs --ckpt <path>")?;
    let ckpt = Checkpoint::load(Path::new(path)).map_err(|e| e.to_string())?;
    let cursor = ckpt.rng.ok_or("checkpoint carries no RNG cursor; cannot regenerate data")?;
    let (trainer, initial_stages, data_seed) = job_for(args)?;
    // Disarm any injection flags for the resumed leg.
    let trainer = TrainerConfig { failure: FailurePlan::None, ..trainer };
    if data_seed != cursor.seed {
        return Err(format!(
            "--seed mismatch: checkpoint's data stream is seed {}, flags give {}",
            cursor.seed, data_seed
        ));
    }
    let n = args.iterations as usize;
    let b = args.micro_batches as usize;
    let done = ckpt.iteration as usize;
    // The cursor's draw count must agree with the data shape the flags
    // describe; a --micro-batches/--rows/--width mismatch would silently
    // resume on a different stream (and --verify would re-run on the same
    // wrong data, reporting a hollow success).
    let expected_draws = done as u64 * synthetic_draws_per_iteration(b, args.rows, args.width);
    if cursor.draws != expected_draws {
        return Err(format!(
            "RNG cursor mismatch: checkpoint stores {} draws but {done} iterations of this \
             shape consume {expected_draws} — resume must repeat the run's --micro-batches, \
             --rows and --width",
            cursor.draws
        ));
    }
    // The fingerprint does not cover --iterations, so guard the horizon
    // here: a checkpoint past the requested run length has nothing to
    // resume (resume() itself would also refuse, but only after data
    // generation — which must not be asked for `n - done < 0` iterations).
    if done > n {
        return Err(format!(
            "checkpoint has {done} completed iteration(s) but --iterations is only {n}"
        ));
    }
    // The head is only consulted for shape validation; the tail — the data
    // the resumed run actually trains on — comes straight off the stored
    // stream position.
    let mut data = synthetic_data(cursor.seed, done, b, args.rows, args.width);
    data.extend(synthetic_data_at(cursor.seed, done, n - done, b, args.rows, args.width));

    let out = resume(&trainer, &ckpt, &data).map_err(|e| e.to_string())?;
    let mut summary = RunSummary {
        mode: "resume".to_string(),
        scheme: args.scheme.clone(),
        devices: args.devices,
        micro_batches: args.micro_batches,
        iterations: args.iterations,
        checkpoint_every: args.every,
        completed: true,
        error: None,
        checkpoint_iteration: Some(ckpt.iteration),
        checkpoint_path: Some(path.clone()),
        losses: out.losses.clone(),
        peak_stash_bytes: out.peak_stash_bytes.clone(),
        verified_bitwise: None,
    };
    if args.verify {
        let uninterrupted =
            train(&TrainerConfig { stages: initial_stages, ..trainer.clone() }, &data);
        let equal = bitwise_equal(&uninterrupted, &out);
        summary.verified_bitwise = Some(equal);
        emit(&summary, args.compact)?;
        if !equal {
            return Err("resumed run is NOT bitwise equal to the uninterrupted run".to_string());
        }
        return Ok(());
    }
    emit(&summary, args.compact)
}

/// The six benchmark schemes of the memory figure, as cluster-level plans.
fn goodput_methods() -> Vec<Method> {
    vec![
        Method::GPipe,
        Method::Dapple,
        Method::ChimeraNative,
        Method::Hanayo { waves: 1 },
        Method::Hanayo { waves: 2 },
        Method::Hanayo { waves: 4 },
    ]
}

fn goodput_table(args: &Args) -> Result<GoodputTable, String> {
    let model = model_for(&args.model)?;
    let mut cluster = cluster_for(&args.cluster, args.gpus)?;
    if let Some(hours) = args.mtbf_hours {
        cluster.device_mtbf_s = hours * 3600.0;
    }
    let intervals: Vec<u32> = args.intervals.iter().copied().filter(|&k| k > 0).collect();
    if intervals.is_empty() {
        return Err("--intervals needs at least one positive interval".to_string());
    }
    let opts = RecoveryOptions { restart_latency_s: args.restart_s, device_mtbf_s: None };
    let mut rows = Vec::new();
    for method in goodput_methods() {
        let plan = ParallelPlan {
            method,
            dp: 1,
            pp: args.gpus as u32,
            micro_batches: args.batch,
            micro_batch_size: 1,
            recompute: Recompute::None,
        };
        let result = evaluate_plan(&plan, &model, &cluster, SimOptions::default())
            .map_err(|e| format!("{method}: {e}"))?;
        for &k in &intervals {
            let eval = plan_recovery_eval(&result, &cluster, k, &opts);
            rows.push(GoodputRow {
                method: method.to_string(),
                label: method.label(),
                interval_iterations: k,
                iteration_time_s: result.iteration_time,
                throughput_seq_per_s: result.throughput,
                checkpoint_write_s: eval.checkpoint_write_s,
                restart_s: eval.restart_s,
                cluster_mtbf_s: eval.cluster_mtbf_s,
                efficiency: eval.efficiency,
                goodput_seq_per_s: eval.goodput_seq_per_s,
                young_daly_interval_s: young_daly_interval_s(
                    eval.checkpoint_write_s,
                    eval.cluster_mtbf_s,
                    eval.restart_s,
                ),
            });
        }
    }
    Ok(GoodputTable {
        model: model.name.clone(),
        cluster: cluster.name.clone(),
        devices: cluster.len(),
        micro_batches: args.batch,
        device_mtbf_s: cluster.device_mtbf_s,
        restart_latency_s: args.restart_s,
        intervals,
        rows,
    })
}

fn mode_goodput(args: &Args) -> Result<(), String> {
    emit(&goodput_table(args)?, args.compact)
}

fn mode_validate_goodput(args: &Args) -> Result<(), String> {
    let path = args.ckpt.as_ref().ok_or("--mode validate-goodput needs --ckpt <path>")?;
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let table: GoodputTable = serde_json::from_str(&text).map_err(|e| e.to_string())?;
    if table.rows.is_empty() {
        return Err("goodput table has no rows".to_string());
    }
    let expected = table.intervals.len() * goodput_methods().len();
    if table.rows.len() != expected {
        return Err(format!(
            "expected {} rows (methods × intervals), found {}",
            expected,
            table.rows.len()
        ));
    }
    for row in &table.rows {
        if !(0.0..=1.0).contains(&row.efficiency) {
            return Err(format!(
                "{}@{}: efficiency outside [0, 1]",
                row.label, row.interval_iterations
            ));
        }
        if row.goodput_seq_per_s > row.throughput_seq_per_s {
            return Err(format!(
                "{}@{}: goodput exceeds failure-free throughput",
                row.label, row.interval_iterations
            ));
        }
        if !row.checkpoint_write_s.is_finite() || row.checkpoint_write_s < 0.0 {
            return Err(format!("{}@{}: bad checkpoint stall", row.label, row.interval_iterations));
        }
    }
    println!("ok: {} rows, schema valid", table.rows.len());
    Ok(())
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
    if args.metrics.is_some() {
        hanayo_repro::metricsio::enable_metrics();
    }
    let outcome = match args.mode.as_str() {
        "run" => mode_run(&args),
        "inspect" => mode_inspect(&args),
        "resume" => mode_resume(&args),
        "goodput" => mode_goodput(&args),
        "validate-goodput" => mode_validate_goodput(&args),
        other => Err(format!("unknown mode {other}")),
    };
    let outcome = outcome.and_then(|()| {
        let Some(path) = &args.metrics else { return Ok(()) };
        let n = hanayo_repro::metricsio::write_metrics(path)?;
        eprintln!("metrics: wrote {n} series to {path}");
        Ok(())
    });
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("error: {msg}");
            ExitCode::FAILURE
        }
    }
}
