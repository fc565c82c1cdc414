//! `hanayo ckpt` — fault tolerance end to end: train with a checkpoint
//! policy, inject a deterministic failure, inspect the durable
//! checkpoint, resume and *prove* bit-equality with the uninterrupted run,
//! and price checkpoint intervals by goodput. The README's "Fault
//! tolerance & checkpointing" section has examples and the JSON schemas.

use crate::cli::{compact, flag, metrics, Arg, Command, Flag, Output};
use hanayo_ckpt::recovery::{young_daly_interval_s, RecoveryOptions};
use hanayo_ckpt::{Checkpoint, CheckpointPolicy, FailurePlan, RngCursor};
use hanayo_core::config::PipelineConfig;
use hanayo_core::schedule::build_schedule;
use hanayo_model::builders::MicroModel;
use hanayo_model::Recompute;
use hanayo_runtime::trainer::{
    resume, synthetic_data, synthetic_data_at, synthetic_draws_per_iteration, try_train,
    TrainOutput, TrainerConfig,
};
use hanayo_runtime::{checkpoint_of, LossKind};
use hanayo_serve::schema::{cluster_for, model_for, scheme_for};
use hanayo_sim::plan::{evaluate_plan, Method, ParallelPlan};
use hanayo_sim::tuner::plan_recovery_eval;
use hanayo_sim::SimOptions;
use hanayo_tensor::Stage;
use serde::{Deserialize, Serialize};
use std::num::NonZeroUsize;
use std::path::Path;

pub(crate) struct Args {
    mode: String,
    scheme: String,
    devices: u32,
    micro_batches: u32,
    iterations: u32,
    every: u32,
    seed: u64,
    lr: f32,
    // Non-zero by type: a zero-sized tensor would reach the workers.
    width: NonZeroUsize,
    rows: NonZeroUsize,
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
}

/// `--drop-link SRC,DST`.
impl Arg for (u32, u32) {
    fn parse(v: &str) -> Result<Self, String> {
        let (src, dst) = v.split_once(',').ok_or_else(|| format!("expected SRC,DST, got {v}"))?;
        let src = u32::parse(src.trim()).map_err(|e| format!("src: {e}"))?;
        Ok((src, u32::parse(dst.trim()).map_err(|e| format!("dst: {e}"))?))
    }
}

impl Command for Args {
    const ABOUT: &'static str =
        "deterministic checkpoint/restore, failure injection and goodput planning";
    const USAGE: &'static str = "\
USAGE: hanayo ckpt --mode <run|inspect|resume|goodput|validate-goodput> [FLAGS]

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

The training flags (--scheme to --verify) serve run and resume, and resume
must repeat the run's values; --cluster to --intervals serve goodput.
";

    fn defaults() -> Self {
        Args {
            mode: "run".to_string(),
            scheme: "hanayo_w2".to_string(),
            devices: 2,
            micro_batches: 4,
            iterations: 6,
            every: 2,
            seed: 7,
            lr: 0.05,
            width: NonZeroUsize::new(8).expect("8 is non-zero"),
            rows: NonZeroUsize::new(2).expect("2 is non-zero"),
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
        }
    }

    fn flags() -> Vec<Flag<Self>> {
        vec![
            flag("--mode", "<MODE>", "what to do, from the list above [run]", |a| &mut a.mode),
            flag(
                "--scheme",
                "<name>",
                "gpipe|dapple|pipedream|interleaved<C>|hanayo_w<W> (not chimera: the runtime \
                 trains one replica) [hanayo_w2]",
                |a| &mut a.scheme,
            ),
            flag("--devices", "<P>", "pipeline width [2]", |a| &mut a.devices),
            flag("--micro-batches", "<B>", "micro-batches per iteration [4]", |a| {
                &mut a.micro_batches
            }),
            flag("--iterations", "<N>", "training iterations [6]", |a| &mut a.iterations),
            flag("--every", "<K>", "checkpoint every K iterations, 0=off [2]", |a| &mut a.every),
            flag("--seed", "<S>", "model/data seed [7]", |a| &mut a.seed),
            flag("--lr", "<LR>", "SGD learning rate [0.05]", |a| &mut a.lr),
            flag("--width", "<W>", "micro-model tensor width, at least 1 [8]", |a| &mut a.width),
            flag("--rows", "<R>", "micro-model rows per micro-batch, at least 1 [2]", |a| {
                &mut a.rows
            }),
            flag("--kill-device", "<D>", "inject: kill device D at iteration --kill-at", |a| {
                &mut a.kill_device
            }),
            flag("--kill-at", "<I>", "the iteration --kill-device dies at", |a| &mut a.kill_at),
            flag("--drop-link", "<SRC,DST>", "inject: link down from iteration --drop-at", |a| {
                &mut a.drop_link
            }),
            flag("--drop-at", "<I>", "the iteration --drop-link goes down at", |a| &mut a.drop_at),
            flag("--out", "<path>", "(run) checkpoint file to write", |a| &mut a.out),
            flag("--ckpt", "<path>", "(inspect/resume/validate-goodput) input file", |a| {
                &mut a.ckpt
            }),
            flag("--verify", "", "(resume) assert bit-equality with uninterrupted run", |a| {
                &mut a.verify
            }),
            flag("--cluster", "<pc|fc|tacc|tc>", "hardware environment [tacc]", |a| &mut a.cluster),
            flag("--gpus", "<N>", "cluster size [8]", |a| &mut a.gpus),
            flag("--model", "<bert64|gpt128>", "cost model [bert64]", |a| &mut a.model),
            flag("--batch", "<B>", "micro-batches per iteration [8]", |a| &mut a.batch),
            flag("--mtbf-hours", "<H>", "override per-device MTBF", |a| &mut a.mtbf_hours),
            flag("--restart-s", "<R>", "fixed job-restart latency [30]", |a| &mut a.restart_s),
            flag("--intervals", "<csv>", "checkpoint intervals to price [4,16]", |a| {
                &mut a.intervals
            }),
            compact(),
            metrics(),
        ]
    }

    fn run(self, out: &Output) -> Result<(), String> {
        match self.mode.as_str() {
            "run" => self.train(out),
            "inspect" => self.inspect(out),
            "resume" => self.resume(out),
            "goodput" => out.emit(&self.goodput_table()?),
            "validate-goodput" => self.validate_goodput(),
            other => Err(format!("unknown mode {other}")),
        }
    }
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

fn bitwise_equal(a: &TrainOutput, b: &TrainOutput) -> bool {
    let bits = |o: &TrainOutput| -> Vec<u32> {
        o.stages.iter().flat_map(Stage::flat_params).map(f32::to_bits).collect()
    };
    bits(a) == bits(b)
        && a.losses.iter().map(|l| l.to_bits()).eq(b.losses.iter().map(|l| l.to_bits()))
        && a.peak_stash_bytes == b.peak_stash_bytes
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

// ---------------------------------------------------------------------------
// Modes
// ---------------------------------------------------------------------------

impl Args {
    /// Build the training job the flags describe. The data stream's seed
    /// is `seed + 1` (the model uses `seed`), recorded in the checkpoint's
    /// RNG cursor.
    fn job(&self) -> Result<(TrainerConfig, Vec<Stage>, u64), String> {
        let scheme = scheme_for(&self.scheme)?;
        let cfg = PipelineConfig::new(self.devices, self.micro_batches, scheme)
            .map_err(|e| e.to_string())?;
        let schedule = build_schedule(&cfg).map_err(|e| e.to_string())?;
        let s = schedule.stage_map.stages;
        let model =
            MicroModel { width: self.width.get(), total_blocks: s as usize, seed: self.seed };
        let stages = model.build_stages(s);
        let failure = match (self.kill_device, self.kill_at, self.drop_link, self.drop_at) {
            (Some(device), Some(iteration), _, _) => FailurePlan::KillDevice { device, iteration },
            (_, _, Some((src, dst)), Some(iteration)) => {
                FailurePlan::DropLink { src, dst, iteration }
            }
            (Some(_), None, _, _) | (None, Some(_), _, _) => {
                return Err("--kill-device and --kill-at must be given together".to_string())
            }
            (_, _, Some(_), None) | (_, _, None, Some(_)) => {
                return Err("--drop-link and --drop-at must be given together".to_string())
            }
            _ => FailurePlan::None,
        };
        let trainer = TrainerConfig {
            checkpoint: CheckpointPolicy::every(self.every),
            failure,
            ..TrainerConfig::new(schedule, stages.clone(), self.lr, LossKind::Mse)
        };
        Ok((trainer, stages, self.seed + 1))
    }

    fn summary(&self, mode: &str) -> RunSummary {
        RunSummary {
            mode: mode.to_string(),
            scheme: self.scheme.clone(),
            devices: self.devices,
            micro_batches: self.micro_batches,
            iterations: self.iterations,
            checkpoint_every: self.every,
            completed: false,
            error: None,
            checkpoint_iteration: None,
            checkpoint_path: None,
            losses: Vec::new(),
            peak_stash_bytes: Vec::new(),
            verified_bitwise: None,
        }
    }

    fn train(&self, out: &Output) -> Result<(), String> {
        let (trainer, _, data_seed) = self.job()?;
        let (b, rows, width) = (self.micro_batches as usize, self.rows.get(), self.width.get());
        let data = synthetic_data(data_seed, self.iterations as usize, b, rows, width);
        let per_iter = synthetic_draws_per_iteration(b, rows, width);
        let cursor_at = |i: u32| Some(RngCursor { seed: data_seed, draws: i as u64 * per_iter });

        let mut summary = self.summary("run");
        let checkpoint = match try_train(&trainer, &data) {
            Ok(done) => {
                summary.completed = true;
                summary.losses = done.losses.clone();
                summary.peak_stash_bytes = done.peak_stash_bytes.clone();
                let mut c = checkpoint_of(&trainer, &done, self.iterations, 1);
                c.rng = cursor_at(self.iterations);
                c
            }
            Err(mut failed) => {
                summary.error = Some(failed.to_string());
                let Some(c) = failed.checkpoint.take() else {
                    return Err(format!("run failed with no durable checkpoint: {failed}"));
                };
                let mut c = *c;
                summary.checkpoint_iteration = Some(c.iteration);
                c.rng = cursor_at(c.iteration);
                c
            }
        };
        if let Some(path) = &self.out {
            checkpoint.save(Path::new(path)).map_err(|e| e.to_string())?;
            summary.checkpoint_path = Some(path.clone());
            summary.checkpoint_iteration = Some(checkpoint.iteration);
        }
        out.emit(&summary)
    }

    fn inspect(&self, out: &Output) -> Result<(), String> {
        let path = self.ckpt.as_ref().ok_or("--mode inspect needs --ckpt <path>")?;
        let c = Checkpoint::load(Path::new(path)).map_err(|e| e.to_string())?;
        out.emit(&Inspection {
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
        })
    }

    fn resume(&self, out: &Output) -> Result<(), String> {
        let path = self.ckpt.as_ref().ok_or("--mode resume needs --ckpt <path>")?;
        let ckpt = Checkpoint::load(Path::new(path)).map_err(|e| e.to_string())?;
        let cursor = ckpt.rng.ok_or("checkpoint carries no RNG cursor; cannot regenerate data")?;
        let (trainer, initial_stages, data_seed) = self.job()?;
        // Disarm any injection flags for the resumed leg.
        let trainer = TrainerConfig { failure: FailurePlan::None, ..trainer };
        if data_seed != cursor.seed {
            return Err(format!(
                "--seed mismatch: checkpoint's data stream is seed {}, flags give {}",
                cursor.seed, data_seed
            ));
        }
        let n = self.iterations as usize;
        let (b, rows, width) = (self.micro_batches as usize, self.rows.get(), self.width.get());
        let done = ckpt.iteration as usize;
        // The cursor's draw count must agree with the data shape the flags
        // describe; a --micro-batches/--rows/--width mismatch would
        // silently resume on a different stream (and --verify would re-run
        // on the same wrong data, reporting a hollow success).
        let expected_draws = done as u64 * synthetic_draws_per_iteration(b, rows, width);
        if cursor.draws != expected_draws {
            return Err(format!(
                "RNG cursor mismatch: checkpoint stores {} draws but {done} iterations of this \
                 shape consume {expected_draws} — resume must repeat the run's --micro-batches, \
                 --rows and --width",
                cursor.draws
            ));
        }
        // The fingerprint does not cover --iterations, so guard the
        // horizon here: a checkpoint past the requested run length has
        // nothing to resume (resume() itself would also refuse, but only
        // after data generation — which must not be asked for `n - done <
        // 0` iterations).
        if done > n {
            return Err(format!(
                "checkpoint has {done} completed iteration(s) but --iterations is only {n}"
            ));
        }
        // The head is only consulted for shape validation; the tail — the
        // data the resumed run actually trains on — comes straight off the
        // stored stream position.
        let mut data = synthetic_data(cursor.seed, done, b, rows, width);
        data.extend(synthetic_data_at(cursor.seed, done, n - done, b, rows, width));

        let resumed = resume(&trainer, &ckpt, &data).map_err(|e| e.to_string())?;
        let mut summary = RunSummary {
            completed: true,
            checkpoint_iteration: Some(ckpt.iteration),
            checkpoint_path: Some(path.clone()),
            losses: resumed.losses.clone(),
            peak_stash_bytes: resumed.peak_stash_bytes.clone(),
            ..self.summary("resume")
        };
        if !self.verify {
            return out.emit(&summary);
        }
        let uninterrupted =
            try_train(&TrainerConfig { stages: initial_stages, ..trainer.clone() }, &data)
                .map_err(|e| e.to_string())?;
        let equal = bitwise_equal(&uninterrupted, &resumed);
        summary.verified_bitwise = Some(equal);
        out.emit(&summary)?;
        if !equal {
            return Err("resumed run is NOT bitwise equal to the uninterrupted run".to_string());
        }
        Ok(())
    }

    fn goodput_table(&self) -> Result<GoodputTable, String> {
        let model = model_for(&self.model)?;
        let mut cluster = cluster_for(&self.cluster, self.gpus)?;
        if let Some(hours) = self.mtbf_hours {
            // Infinite is a failure-free cluster; zero or NaN has no rate.
            if hours.is_nan() || hours <= 0.0 {
                return Err(format!("--mtbf-hours must be positive, got {hours}"));
            }
            cluster.device_mtbf_s = hours * 3600.0;
        }
        if !(self.restart_s.is_finite() && self.restart_s >= 0.0) {
            return Err(format!(
                "--restart-s must be finite and non-negative, got {}",
                self.restart_s
            ));
        }
        let intervals: Vec<u32> = self.intervals.iter().copied().filter(|&k| k > 0).collect();
        if intervals.is_empty() {
            return Err("--intervals needs at least one positive interval".to_string());
        }
        let opts = RecoveryOptions { restart_latency_s: self.restart_s };
        let mut rows = Vec::new();
        for method in goodput_methods() {
            let plan = ParallelPlan {
                method,
                dp: 1,
                pp: self.gpus as u32,
                micro_batches: self.batch,
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
            micro_batches: self.batch,
            device_mtbf_s: cluster.device_mtbf_s,
            restart_latency_s: self.restart_s,
            intervals,
            rows,
        })
    }

    fn validate_goodput(&self) -> Result<(), String> {
        let path = self.ckpt.as_ref().ok_or("--mode validate-goodput needs --ckpt <path>")?;
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
            let at = format!("{}@{}", row.label, row.interval_iterations);
            if !(0.0..=1.0).contains(&row.efficiency) {
                return Err(format!("{at}: efficiency outside [0, 1]"));
            }
            if row.goodput_seq_per_s > row.throughput_seq_per_s {
                return Err(format!("{at}: goodput exceeds failure-free throughput"));
            }
            if !row.checkpoint_write_s.is_finite() || row.checkpoint_write_s < 0.0 {
                return Err(format!("{at}: bad checkpoint stall"));
            }
        }
        println!("ok: {} rows, schema valid", table.rows.len());
        Ok(())
    }
}
