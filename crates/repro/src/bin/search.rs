//! `search` — schedule-space search over tabular schedule IR, scored by
//! the compiled simulator.
//!
//! Simulates the seven named schemes at `(P, B)`, seeds a
//! [`hanayo_core::schedule::table::ScheduleTable`] from the best of them,
//! hill-climbs with swap/shift/insert-idle moves, and prints the searched
//! schedule beside its baselines as JSON (with a human-readable rendering
//! of the table's rows embedded).
//!
//! ```text
//! cargo run --release -p hanayo-repro --bin search -- \
//!     --model bert64 --cluster pc --gpus 4 --micro-batches 6
//! ```
//!
//! `--validate <file>` re-reads a previously emitted document, re-runs the
//! standalone validity checker on the embedded table, and re-simulates it,
//! requiring *exact* f64 equality with the recorded iteration time — the
//! CI smoke check. See the README's "Schedule tables & search" section.

use hanayo_core::comm;
use hanayo_core::schedule::table::check_table;
use hanayo_model::{CostTable, Recompute};
use hanayo_serve::schema::{cluster_for, model_for};
use hanayo_sim::{
    search_schedule, try_simulate, ScheduleSearchOptions, SearchedSchedule, SimOptions,
};
use serde::{Deserialize, Serialize};
use std::process::ExitCode;

#[derive(Debug)]
struct Args {
    model: String,
    cluster: String,
    gpus: usize,
    micro_batches: u32,
    micro_batch_size: u32,
    recompute: Recompute,
    seed: u64,
    rounds: usize,
    moves_per_round: usize,
    patience: usize,
    compact: bool,
    validate: Option<String>,
}

impl Default for Args {
    fn default() -> Args {
        let opts = ScheduleSearchOptions::default();
        Args {
            model: "bert64".to_string(),
            cluster: "pc".to_string(),
            gpus: 4,
            micro_batches: 6,
            micro_batch_size: 1,
            recompute: Recompute::None,
            seed: opts.seed,
            rounds: opts.max_rounds,
            moves_per_round: opts.moves_per_round,
            patience: opts.patience,
            compact: false,
            validate: None,
        }
    }
}

const USAGE: &str = "\
search — schedule-space search scored by the compiled simulator

USAGE: search [FLAGS]
       search --validate <file>

FLAGS (all optional):
  --model <bert64|gpt128>        architecture to schedule       [bert64]
  --cluster <pc|fc|tacc|tc>      hardware environment           [pc]
  --gpus <N>                     cluster size = pipeline width  [4]
  --micro-batches <B>            micro-batches per iteration    [6]
  --micro-batch-size <S>         sequences per micro-batch      [1]
  --recompute <none|full>        activation recomputation       [none]
  --seed <N>                     search RNG seed
  --rounds <N>                   max improvement rounds
  --moves-per-round <N>          candidate moves sampled/round
  --patience <N>                 dry rounds before giving up
  --compact                      single-line JSON (default pretty)
  --validate <file>              re-check + re-simulate a previously
                                 emitted document instead of searching
  --help                         this text
";

fn parse_args() -> Result<Args, String> {
    let mut args = Args::default();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("{name} expects a value"));
        match flag.as_str() {
            "--model" => args.model = value("--model")?,
            "--cluster" => args.cluster = value("--cluster")?,
            "--gpus" => args.gpus = value("--gpus")?.parse().map_err(|e| format!("--gpus: {e}"))?,
            "--micro-batches" => {
                args.micro_batches = value("--micro-batches")?
                    .parse()
                    .map_err(|e| format!("--micro-batches: {e}"))?
            }
            "--micro-batch-size" => {
                args.micro_batch_size = value("--micro-batch-size")?
                    .parse()
                    .map_err(|e| format!("--micro-batch-size: {e}"))?
            }
            "--recompute" => {
                let m = value("--recompute")?;
                args.recompute = Recompute::ALL
                    .into_iter()
                    .find(|mode| mode.label() == m)
                    .ok_or_else(|| format!("--recompute: unknown mode {m}"))?
            }
            "--seed" => args.seed = value("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--rounds" => {
                args.rounds = value("--rounds")?.parse().map_err(|e| format!("--rounds: {e}"))?
            }
            "--moves-per-round" => {
                args.moves_per_round = value("--moves-per-round")?
                    .parse()
                    .map_err(|e| format!("--moves-per-round: {e}"))?
            }
            "--patience" => {
                args.patience =
                    value("--patience")?.parse().map_err(|e| format!("--patience: {e}"))?
            }
            "--compact" => args.compact = true,
            "--validate" => args.validate = Some(value("--validate")?),
            "--help" | "-h" => return Err(String::new()),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(args)
}

/// The document this binary prints (and re-validates).
#[derive(Debug, Serialize, Deserialize)]
struct SearchDoc {
    /// Model name as accepted by `--model` (rebuilds the cost model).
    model: String,
    /// Cluster name as accepted by `--cluster`.
    cluster: String,
    /// Cluster size (= pipeline width).
    gpus: usize,
    /// Search knobs the result is a pure function of.
    options: ScheduleSearchOptions,
    /// The searched schedule and its named baselines.
    result: SearchedSchedule,
    /// Human-readable rendering of the table, one row per device.
    rendered: Vec<String>,
}

/// Re-simulate a document's table from scratch and return the iteration
/// time; used both when validating and when cross-checking fresh output.
fn resimulate(doc: &SearchDoc) -> Result<f64, String> {
    let model = model_for(&doc.model)?;
    let cluster = cluster_for(&doc.cluster, doc.gpus)?;
    let cost = CostTable::build_with(
        &model,
        doc.result.table.config.stages(),
        doc.result.micro_batch_size,
        doc.result.recompute,
    );
    let schedule = comm::lower(&doc.result.table.to_compute());
    try_simulate(&schedule, &cost, &cluster, SimOptions::default())
        .map(|r| r.iteration_time)
        .map_err(|e| format!("re-simulation rejected the table: {e}"))
}

/// `--validate` mode: the embedded table must pass the standalone checker
/// and re-simulate to *exactly* the recorded iteration time.
fn validate(path: &str) -> Result<(), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    let doc: SearchDoc = serde_json::from_str(&text).map_err(|e| format!("parsing {path}: {e}"))?;
    check_table(&doc.result.table).map_err(|e| format!("table fails the checker: {e}"))?;
    let time = resimulate(&doc)?;
    if time != doc.result.iteration_time_s {
        return Err(format!(
            "recorded iteration time {} != re-simulated {time}",
            doc.result.iteration_time_s
        ));
    }
    if doc.result.iteration_time_s > doc.result.baseline_iteration_time_s {
        return Err(format!(
            "searched time {} is worse than the best named baseline {}",
            doc.result.iteration_time_s, doc.result.baseline_iteration_time_s
        ));
    }
    println!(
        "ok: {} on {} (P={}, B={}) — searched {:.6}s vs best named {:.6}s ({:+.2}%)",
        doc.model,
        doc.cluster,
        doc.result.devices,
        doc.result.micro_batches,
        doc.result.iteration_time_s,
        doc.result.baseline_iteration_time_s,
        -doc.result.improvement_pct,
    );
    Ok(())
}

fn run(args: &Args) -> Result<String, String> {
    let model = model_for(&args.model)?;
    let cluster = cluster_for(&args.cluster, args.gpus)?;
    let opts = ScheduleSearchOptions {
        seed: args.seed,
        max_rounds: args.rounds,
        moves_per_round: args.moves_per_round,
        patience: args.patience,
    };
    let result = search_schedule(
        &model,
        &cluster,
        args.gpus as u32,
        args.micro_batches,
        args.micro_batch_size,
        args.recompute,
        SimOptions::default(),
        &opts,
    )
    .map_err(|e| e.to_string())?;
    let rendered = result.table.render().lines().map(str::to_string).collect();
    let doc = SearchDoc {
        model: args.model.clone(),
        cluster: args.cluster.clone(),
        gpus: args.gpus,
        options: opts,
        result,
        rendered,
    };
    if args.compact { serde_json::to_string(&doc) } else { serde_json::to_string_pretty(&doc) }
        .map_err(|e| format!("serialising the document failed: {e}"))
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
    let outcome = match &args.validate {
        Some(path) => validate(path),
        None => run(&args).map(|json| println!("{json}")),
    };
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("error: {msg}");
            ExitCode::FAILURE
        }
    }
}
