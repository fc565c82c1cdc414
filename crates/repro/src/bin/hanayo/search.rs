//! `hanayo search` — simulate the seven named schemes at `(P, B)`, seed a
//! [`hanayo_core::schedule::table::ScheduleTable`] from the best, hill-climb
//! it, and print the searched schedule beside its baselines as JSON. See
//! the README's "Schedule tables & search" section.

use crate::cli::{compact, flag, Command, Flag, Output};
use hanayo_core::comm;
use hanayo_core::schedule::table::check_table;
use hanayo_model::{CostTable, Recompute};
use hanayo_serve::schema::{cluster_for, model_for};
use hanayo_sim::{
    search_schedule, try_simulate_traced, ScheduleSearchOptions, SearchedSchedule, SimOptions,
};
use serde::{Deserialize, Serialize};

pub struct Args {
    model: String,
    cluster: String,
    gpus: usize,
    micro_batches: u32,
    micro_batch_size: u32,
    recompute: Recompute,
    options: ScheduleSearchOptions,
    validate: Option<String>,
}

impl Command for Args {
    const ABOUT: &'static str = "schedule-space search scored by the compiled simulator";
    const USAGE: &'static str = "USAGE: hanayo search [FLAGS]\n       \
                                 hanayo search --validate <file>\n";

    fn defaults() -> Self {
        Args {
            model: "bert64".to_string(),
            cluster: "pc".to_string(),
            gpus: 4,
            micro_batches: 6,
            micro_batch_size: 1,
            recompute: Recompute::None,
            options: ScheduleSearchOptions::default(),
            validate: None,
        }
    }

    fn flags() -> Vec<Flag<Self>> {
        vec![
            flag("--model", "<bert64|gpt128>", "architecture to schedule [bert64]", |a| {
                &mut a.model
            }),
            flag("--cluster", "<pc|fc|tacc|tc>", "hardware environment [pc]", |a| &mut a.cluster),
            flag("--gpus", "<N>", "cluster size = pipeline width [4]", |a| &mut a.gpus),
            flag("--micro-batches", "<B>", "micro-batches per iteration [6]", |a| {
                &mut a.micro_batches
            }),
            flag("--micro-batch-size", "<S>", "sequences per micro-batch [1]", |a| {
                &mut a.micro_batch_size
            }),
            flag("--recompute", "<none|full>", "activation recomputation [none]", |a| {
                &mut a.recompute
            }),
            flag("--seed", "<N>", "search RNG seed", |a| &mut a.options.seed),
            flag("--rounds", "<N>", "max improvement rounds", |a| &mut a.options.max_rounds),
            flag("--moves-per-round", "<N>", "candidate moves sampled/round", |a| {
                &mut a.options.moves_per_round
            }),
            flag("--patience", "<N>", "dry rounds before giving up", |a| &mut a.options.patience),
            compact(),
            flag(
                "--validate",
                "<file>",
                "re-check + re-simulate a previously emitted document instead of searching",
                |a| &mut a.validate,
            ),
        ]
    }

    fn run(self, out: &Output) -> Result<(), String> {
        if let Some(path) = &self.validate {
            return validate(path);
        }
        let model = model_for(&self.model)?;
        let cluster = cluster_for(&self.cluster, self.gpus)?;
        let result = search_schedule(
            &model,
            &cluster,
            self.gpus as u32,
            self.micro_batches,
            self.micro_batch_size,
            self.recompute,
            SimOptions::default(),
            &self.options,
        )
        .map_err(|e| e.to_string())?;
        let rendered = result.table.render().lines().map(str::to_string).collect();
        out.emit(&SearchDoc {
            model: self.model,
            cluster: self.cluster,
            gpus: self.gpus,
            options: self.options,
            result,
            rendered,
        })
    }
}

/// The document `search` prints (and re-validates).
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

/// `--validate`: the embedded table must pass the standalone checker and
/// re-simulate to *exactly* the recorded iteration time.
fn validate(path: &str) -> Result<(), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    let doc: SearchDoc = serde_json::from_str(&text).map_err(|e| format!("parsing {path}: {e}"))?;
    check_table(&doc.result.table).map_err(|e| format!("table fails the checker: {e}"))?;
    let model = model_for(&doc.model)?;
    let cluster = cluster_for(&doc.cluster, doc.gpus)?;
    let cost = CostTable::build_with(
        &model,
        doc.result.table.config.stages(),
        doc.result.micro_batch_size,
        doc.result.recompute,
    );
    let schedule = comm::lower(&doc.result.table.to_compute());
    let time = try_simulate_traced(&schedule, &cost, &cluster, SimOptions::default())
        .map_err(|e| format!("re-simulation rejected the table: {e}"))?
        .0
        .iteration_time;
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
