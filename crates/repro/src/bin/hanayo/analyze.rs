//! `hanayo analyze` — the static analysis of one named scheme at
//! `(P, B)` (happens-before graph, deadlock freedom, comm well-formedness,
//! exact memory peaks, critical-path bound) as JSON, with no simulation.
//! The flags fill an [`AnalyzeRequest`] and the document comes from
//! [`run_analyze`], as `POST /v1/analyze`'s does: `--compact` stdout is
//! the served body. `--validate` holds an emitted document to a fresh
//! analysis and its dynamic claims to a fresh simulation (README, "Static
//! schedule analysis").

use crate::cli::{compact, flag, Command, Flag, Output};
use hanayo_analyze::{analyze, CRITICAL_PATH_SLACK};
use hanayo_model::Recompute;
use hanayo_serve::schema::{rebuild_analyze, run_analyze, AnalyzeDoc, AnalyzeRequest};
use hanayo_sim::{try_simulate_traced, SimOptions};

pub(crate) struct Args {
    request: AnalyzeRequest,
    validate: Option<String>,
}

impl Command for Args {
    const ABOUT: &'static str = "static schedule verification (no simulation)";
    const USAGE: &'static str = "USAGE: hanayo analyze [FLAGS]\n       \
                                 hanayo analyze --validate <file>\n";

    fn defaults() -> Self {
        Args {
            request: AnalyzeRequest {
                model: "bert64".to_string(),
                cluster: "fc".to_string(),
                gpus: 8,
                scheme: "hanayo_w2".to_string(),
                micro_batches: 8,
                micro_batch_size: 1,
                recompute: Recompute::None,
            },
            validate: None,
        }
    }

    fn flags() -> Vec<Flag<Self>> {
        vec![
            flag("--model", "<bert64|gpt128>", "architecture to schedule [bert64]", |a| {
                &mut a.request.model
            }),
            flag("--cluster", "<pc|fc|tacc|tc>", "hardware environment [fc]", |a| {
                &mut a.request.cluster
            }),
            flag("--gpus", "<N>", "cluster size = pipeline width [8]", |a| &mut a.request.gpus),
            flag("--micro-batches", "<B>", "micro-batches per iteration [8]", |a| {
                &mut a.request.micro_batches
            }),
            flag("--micro-batch-size", "<S>", "sequences per micro-batch [1]", |a| {
                &mut a.request.micro_batch_size
            }),
            flag(
                "--scheme",
                "<NAME>",
                "gpipe, dapple, chimera, pipedream, interleaved<C> or hanayo_w<W> [hanayo_w2]",
                |a| &mut a.request.scheme,
            ),
            flag("--recompute", "<none|full>", "activation recomputation [none]", |a| {
                &mut a.request.recompute
            }),
            compact(),
            flag(
                "--validate",
                "<file>",
                "check a previously emitted document against a fresh analysis, and its \
                 deadlock and bound claims against a fresh simulation",
                |a| &mut a.validate,
            ),
        ]
    }

    fn run(self, out: &Output) -> Result<(), String> {
        match &self.validate {
            Some(path) => validate(path),
            None => out.emit(&run_analyze(&self.request).map_err(|e| e.to_string())?),
        }
    }
}

/// `--validate`: re-derive the report from scratch and require it to equal
/// the document's (peaks included: the engine reports the same fold), then
/// simulate and require the engine to confirm the two dynamic claims —
/// completion (the deadlock verdict) and the critical path lower-bounding
/// the measured iteration time.
fn validate(path: &str) -> Result<(), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    let doc: AnalyzeDoc =
        serde_json::from_str(&text).map_err(|e| format!("parsing {path}: {e}"))?;
    let (schedule, cost, cluster) = rebuild_analyze(&doc)?;

    let fresh = analyze(&schedule, &cost, &cluster)
        .map_err(|e| format!("re-analysis rejected the schedule: {e}"))?;
    if fresh != doc.report {
        return Err("recorded report differs from a fresh analysis".to_string());
    }

    let (sim, _) = try_simulate_traced(&schedule, &cost, &cluster, SimOptions::default())
        .map_err(|e| format!("the simulator refutes the deadlock-freedom verdict: {e}"))?;
    if doc.report.critical_path_s > sim.iteration_time * (1.0 + CRITICAL_PATH_SLACK) {
        return Err(format!(
            "critical-path bound {} exceeds the simulated iteration time {}",
            doc.report.critical_path_s, sim.iteration_time
        ));
    }
    println!(
        "ok: {} {} on {} (P={}, B={}) — bound {:.6}s ≤ simulated {:.6}s ({:.2}% tight), \
         document matches a fresh analysis",
        doc.scheme,
        doc.model,
        doc.cluster,
        doc.gpus,
        doc.micro_batches,
        doc.report.critical_path_s,
        sim.iteration_time,
        100.0 * doc.report.critical_path_s / sim.iteration_time,
    );
    Ok(())
}
