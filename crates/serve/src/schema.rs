//! The planning service's wire schema — and, deliberately, the *only*
//! place the response documents of the one-shot CLIs are built.
//!
//! `hanayo tune` and `hanayo analyze` (the `hanayo` binary in
//! `hanayo-repro`) read their flags into [`TuneRequest`] and
//! [`AnalyzeRequest`] and construct their JSON output through the
//! builders in this module, and the served endpoints call the very same
//! functions: a served response body is byte-identical to the
//! corresponding CLI's `--compact` stdout by construction, not by
//! parallel maintenance. `crates/repro/tests/cli_wire.rs` and a `cmp` in
//! the CI smoke job hold the two paths equal.
//!
//! ## Wire conventions
//!
//! Requests are JSON objects with **every field present** (optional
//! fields are sent as explicit `null`). The vendored serde shim has no
//! attribute support, so there are no defaulted or renamed fields —
//! what the struct declares is exactly what travels.

use hanayo_analyze::{analyze, AnalysisReport};
use hanayo_ckpt::fingerprint_parts;
use hanayo_cluster::topology::{fc_full_nvlink, lonestar6, pc_partial_nvlink, tencent_v100};
use hanayo_cluster::ClusterSpec;
use hanayo_core::action::Schedule;
use hanayo_core::config::{PipelineConfig, Scheme};
use hanayo_core::schedule::build_schedule;
use hanayo_model::{CostTable, ModelConfig, Recompute};
use hanayo_sim::tuner::{tune_serial_with, tune_with, Rejection, TuneContext, TuneOptions, Tuning};
use hanayo_sim::{
    evaluate_plan, try_simulate_traced, Method, ParallelPlan, PlanResult, SimOptions,
};
use hanayo_sim::{SimReport, TuneError};
use serde::{Deserialize, Serialize};

/// How a request failed before (or instead of) producing a document.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RunError {
    /// The request named an unknown model/cluster/scheme, an invalid
    /// shape, or an unevaluable plan: the caller's fault, HTTP 400.
    BadRequest(String),
    /// The sweep was cancelled at a candidate-batch checkpoint (client
    /// cancel or server drain): HTTP 503 with partial progress.
    Cancelled {
        /// Candidates evaluated when the abort was observed.
        evaluated: usize,
        /// Total candidates the sweep would have evaluated.
        total: usize,
    },
}

impl std::fmt::Display for RunError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RunError::BadRequest(msg) => write!(f, "{msg}"),
            RunError::Cancelled { evaluated, total } => {
                write!(f, "sweep cancelled after {evaluated}/{total} candidates")
            }
        }
    }
}

impl std::error::Error for RunError {}

// ---------------------------------------------------------------------
// Named-resource resolvers, shared by every endpoint and CLI.
// ---------------------------------------------------------------------

/// Resolve a model name (`--model` / the `model` request field).
pub fn model_for(name: &str) -> Result<ModelConfig, String> {
    match name {
        "bert64" => Ok(ModelConfig::bert64()),
        "gpt128" => Ok(ModelConfig::gpt128()),
        other => Err(format!("unknown model {other} (expected bert64 or gpt128)")),
    }
}

/// Resolve a cluster name (`--cluster` / the `cluster` request field).
pub fn cluster_for(name: &str, gpus: usize) -> Result<ClusterSpec, String> {
    match name {
        "pc" => Ok(pc_partial_nvlink(gpus)),
        "fc" => Ok(fc_full_nvlink(gpus)),
        "tacc" => Ok(lonestar6(gpus)),
        // One TC node is all there is; the preset asserts as much.
        "tc" if gpus > 8 => Err(format!("cluster tc has 8 GPUs, gpus {gpus} exceeds it")),
        "tc" => Ok(tencent_v100(gpus)),
        other => Err(format!("unknown cluster {other} (expected pc, fc, tacc or tc)")),
    }
}

/// Resolve a scheme name (`--scheme` / the `scheme` request field).
pub fn scheme_for(name: &str) -> Result<Scheme, String> {
    if let Some(waves) = name.strip_prefix("hanayo_w") {
        let waves = waves.parse().map_err(|e| format!("scheme {name}: {e}"))?;
        return Ok(Scheme::Hanayo { waves });
    }
    if let Some(chunks) = name.strip_prefix("interleaved") {
        let chunks = chunks.parse().map_err(|e| format!("scheme {name}: {e}"))?;
        return Ok(Scheme::Interleaved { chunks });
    }
    match name {
        "gpipe" => Ok(Scheme::GPipe),
        "dapple" => Ok(Scheme::Dapple),
        "chimera" => Ok(Scheme::Chimera),
        "pipedream" => Ok(Scheme::AsyncPipeDream),
        other => Err(format!(
            "unknown scheme {other} (expected gpipe, dapple, chimera, pipedream, \
             interleaved<C> or hanayo_w<W>)"
        )),
    }
}

/// Resolve a parallel-plan method name (the `method` request field):
/// `gpipe`, `dapple`, `chimera_wave`, `chimera_native` or `hanayo_w<W>`.
pub fn method_for(name: &str) -> Result<Method, String> {
    if let Some(waves) = name.strip_prefix("hanayo_w") {
        let waves = waves.parse().map_err(|e| format!("method {name}: {e}"))?;
        return Ok(Method::Hanayo { waves });
    }
    match name {
        "gpipe" => Ok(Method::GPipe),
        "dapple" => Ok(Method::Dapple),
        "chimera_wave" => Ok(Method::ChimeraWave),
        "chimera_native" => Ok(Method::ChimeraNative),
        other => Err(format!(
            "unknown method {other} (expected gpipe, dapple, chimera_wave, \
             chimera_native or hanayo_w<W>)"
        )),
    }
}

// ---------------------------------------------------------------------
// plan
// ---------------------------------------------------------------------

/// `POST /v1/plan` — evaluate one explicit parallel plan.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PlanRequest {
    /// Model name (`bert64` / `gpt128`).
    pub model: String,
    /// Cluster name (`pc` / `fc` / `tacc` / `tc`).
    pub cluster: String,
    /// Cluster size.
    pub gpus: usize,
    /// Per-parameter training-state bytes (8 = ZeRO-1, 16 = full Adam).
    pub train_bytes_per_param: u32,
    /// Method name — see [`method_for`].
    pub method: String,
    /// Devices per pipeline.
    pub pp: u32,
    /// Data-parallel groups.
    pub dp: u32,
    /// Micro-batches per pipeline per iteration.
    pub micro_batches: u32,
    /// Sequences per micro-batch.
    pub micro_batch_size: u32,
    /// Activation-recomputation mode.
    pub recompute: Recompute,
}

/// The document `plan` answers with.
#[derive(Debug, Serialize)]
pub struct PlanDoc {
    /// Echo of the request's model name.
    pub model: String,
    /// Echo of the request's cluster name.
    pub cluster: String,
    /// Echo of the request's cluster size.
    pub gpus: usize,
    /// The evaluated plan's simulated outcome.
    pub result: PlanResult,
}

/// Evaluate one plan — the single implementation behind the `plan`
/// endpoint.
pub fn run_plan(req: &PlanRequest) -> Result<PlanDoc, RunError> {
    let model = model_for(&req.model)
        .map_err(RunError::BadRequest)?
        .with_train_bytes_per_param(req.train_bytes_per_param);
    let cluster = cluster_for(&req.cluster, req.gpus).map_err(RunError::BadRequest)?;
    let method = method_for(&req.method).map_err(RunError::BadRequest)?;
    let plan = ParallelPlan {
        method,
        dp: req.dp,
        pp: req.pp,
        micro_batches: req.micro_batches,
        micro_batch_size: req.micro_batch_size,
        recompute: req.recompute,
    };
    let result = evaluate_plan(&plan, &model, &cluster, SimOptions::default())
        .map_err(|e| RunError::BadRequest(e.to_string()))?;
    Ok(PlanDoc { model: req.model.clone(), cluster: req.cluster.clone(), gpus: req.gpus, result })
}

// ---------------------------------------------------------------------
// tune
// ---------------------------------------------------------------------

/// `POST /v1/tune` and `POST /v1/jobs/tune` — run the auto-tuner sweep.
/// Field-for-field `hanayo tune`'s flags, so the two paths cannot
/// diverge.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TuneRequest {
    /// Model name (`bert64` / `gpt128`).
    pub model: String,
    /// Cluster name (`pc` / `fc` / `tacc` / `tc`).
    pub cluster: String,
    /// Cluster size.
    pub gpus: usize,
    /// Global micro-batches per iteration.
    pub batch: u32,
    /// Sequences per micro-batch.
    pub micro_batch_size: u32,
    /// Per-parameter training-state bytes (8 = ZeRO-1, 16 = full Adam).
    pub train_bytes_per_param: u32,
    /// Smallest pipeline width to consider.
    pub min_pp: u32,
    /// Hanayo wave counts to sweep.
    pub waves: Vec<u32>,
    /// Activation-recomputation modes to sweep (`null` keeps the
    /// default, or `--wide`'s both-modes expansion).
    pub recompute: Option<Vec<Recompute>>,
    /// Sweep the widened space (prefetch ablation, lookaheads, merges,
    /// both recompute modes).
    pub wide: bool,
    /// Evaluate candidates one at a time (identical output; the service
    /// uses it to keep one background sweep from monopolising the pool).
    pub serial: bool,
    /// Emit only the N best candidates (`null` = all).
    pub top: Option<usize>,
}

impl TuneRequest {
    /// The tuner inputs this request names. Errors are the caller's
    /// (unknown model/cluster), reported as HTTP 400 by the service.
    pub fn resolve(&self) -> Result<(ModelConfig, ClusterSpec, TuneOptions), String> {
        let model = model_for(&self.model)?.with_train_bytes_per_param(self.train_bytes_per_param);
        let cluster = cluster_for(&self.cluster, self.gpus)?;
        let mut opts =
            TuneOptions { waves: self.waves.clone(), min_pp: self.min_pp, ..Default::default() };
        if self.wide {
            opts = opts.wide();
        }
        // An explicit recompute list overrides wide's both-modes default.
        if let Some(modes) = &self.recompute {
            opts.recompute_modes = modes.clone();
        }
        Ok((model, cluster, opts))
    }

    /// FNV fingerprint of the `(model, cluster)` *configuration* this
    /// request tunes — the key under which the service shares a
    /// [`hanayo_sim::SweepCaches`] across requests. Two requests with
    /// equal keys resolve to identical model and cluster objects, which
    /// is exactly the sharing contract the sweep caches demand; batch
    /// size, waves and the other sweep axes deliberately stay out of the
    /// key so differently-shaped sweeps of the same pair share artifacts.
    pub fn config_key(&self) -> u64 {
        fingerprint_parts(&[
            self.model.as_bytes(),
            self.cluster.as_bytes(),
            &(self.gpus as u64).to_le_bytes(),
            &self.train_bytes_per_param.to_le_bytes(),
        ])
    }
}

/// One row of the ranked table.
#[derive(Debug, Serialize)]
pub struct RankedRow {
    /// 1-based rank.
    pub rank: usize,
    /// Method display name.
    pub method: String,
    /// Figure label (`G`, `D`, `H-2`, ...).
    pub label: String,
    /// Devices per pipeline.
    pub pp: u32,
    /// Data-parallel groups.
    pub dp: u32,
    /// Micro-batches per pipeline per iteration.
    pub micro_batches: u32,
    /// Sequences per micro-batch.
    pub micro_batch_size: u32,
    /// Was §4.2 receive prefetching on?
    pub prefetch: bool,
    /// Receive-lookahead depth the candidate was simulated with.
    pub recv_lookahead: usize,
    /// Activation-recomputation mode label.
    pub recompute: String,
    /// Sequences per second across the whole cluster.
    pub throughput_seq_per_s: f64,
    /// End-to-end iteration time.
    pub iteration_time_s: f64,
    /// Pipeline time excluding the all-reduce.
    pub pipeline_time_s: f64,
    /// Flush-time gradient all-reduce.
    pub allreduce_time_s: f64,
    /// Bubble ratio of the first pipeline group.
    pub bubble_ratio: f64,
    /// Highest per-device peak, GB.
    pub peak_gb: f64,
}

/// A candidate that simulated fine but exceeded device memory.
#[derive(Debug, Serialize)]
pub struct OomRow {
    /// Method display name.
    pub method: String,
    /// Devices per pipeline.
    pub pp: u32,
    /// Data-parallel groups.
    pub dp: u32,
    /// Micro-batches per pipeline per iteration.
    pub micro_batches: u32,
    /// Sequences per micro-batch.
    pub micro_batch_size: u32,
    /// Was §4.2 receive prefetching on?
    pub prefetch: bool,
    /// Activation-recomputation mode label.
    pub recompute: String,
    /// Highest per-device peak, GB.
    pub peak_gb: f64,
    /// Capacity of the most overloaded device, GB.
    pub capacity_gb: f64,
    /// Global ranks of the devices that overflowed.
    pub oom_devices: Vec<usize>,
}

/// A candidate that could not be evaluated at all.
#[derive(Debug, Serialize)]
pub struct InvalidRow {
    /// Method display name.
    pub method: String,
    /// Devices per pipeline.
    pub pp: u32,
    /// Data-parallel groups.
    pub dp: u32,
    /// Activation-recomputation mode label.
    pub recompute: String,
    /// Human-readable rejection reason.
    pub reason: String,
}

/// The document `tune` answers with — identical to `hanayo tune`'s
/// output (the CLI builds it through [`build_sweep_table`] too).
#[derive(Debug, Serialize)]
pub struct SweepTable {
    /// Model name.
    pub model: String,
    /// Cluster name.
    pub cluster: String,
    /// Cluster size.
    pub devices: usize,
    /// Global micro-batches per iteration.
    pub global_micro_batches: u32,
    /// Sequences per micro-batch.
    pub micro_batch_size: u32,
    /// Was the widened space swept?
    pub wide: bool,
    /// Recompute-mode labels actually swept.
    pub recompute_modes: Vec<String>,
    /// Total candidates evaluated (ranked + rejected).
    pub candidates_evaluated: usize,
    /// Feasible candidates, best first.
    pub ranked: Vec<RankedRow>,
    /// Memory rejections.
    pub rejected_oom: Vec<OomRow>,
    /// Shape rejections.
    pub rejected_invalid_shape: Vec<InvalidRow>,
}

/// Render a [`Tuning`] into the wire/CLI document. Shared verbatim by
/// `hanayo tune` and the `tune` endpoints.
pub fn build_sweep_table(
    req: &TuneRequest,
    tuning: &Tuning,
    cluster: &ClusterSpec,
    model: &ModelConfig,
    modes: &[Recompute],
) -> SweepTable {
    let gb = |bytes: u64| bytes as f64 / 1e9;
    let ranked = tuning
        .ranked
        .iter()
        .take(req.top.unwrap_or(usize::MAX))
        .enumerate()
        .map(|(i, c)| RankedRow {
            rank: i + 1,
            method: c.plan.method.to_string(),
            label: c.plan.method.label(),
            pp: c.plan.pp,
            dp: c.plan.dp,
            micro_batches: c.plan.micro_batches,
            micro_batch_size: c.plan.micro_batch_size,
            prefetch: c.sim.prefetch,
            recv_lookahead: c.sim.recv_lookahead,
            recompute: c.plan.recompute.label().to_string(),
            throughput_seq_per_s: c.result.throughput,
            iteration_time_s: c.result.iteration_time,
            pipeline_time_s: c.result.pipeline_time,
            allreduce_time_s: c.result.allreduce_time,
            bubble_ratio: c.result.bubble_ratio,
            peak_gb: gb(c.result.peak_mem.iter().copied().max().unwrap_or(0)),
        })
        .collect();
    let mut rejected_oom = Vec::new();
    let mut rejected_invalid_shape = Vec::new();
    for r in &tuning.rejected {
        match r {
            Rejection::Oom { plan, sim, peak_bytes, capacity_bytes, devices } => {
                rejected_oom.push(OomRow {
                    method: plan.method.to_string(),
                    pp: plan.pp,
                    dp: plan.dp,
                    micro_batches: plan.micro_batches,
                    micro_batch_size: plan.micro_batch_size,
                    prefetch: sim.prefetch,
                    recompute: plan.recompute.label().to_string(),
                    peak_gb: gb(*peak_bytes),
                    capacity_gb: gb(*capacity_bytes),
                    oom_devices: devices.clone(),
                })
            }
            Rejection::InvalidShape { plan, reason, .. } => {
                rejected_invalid_shape.push(InvalidRow {
                    method: plan.method.to_string(),
                    pp: plan.pp,
                    dp: plan.dp,
                    recompute: plan.recompute.label().to_string(),
                    reason: reason.clone(),
                })
            }
        }
    }
    SweepTable {
        model: model.name.clone(),
        cluster: cluster.name.clone(),
        devices: cluster.len(),
        global_micro_batches: req.batch,
        micro_batch_size: req.micro_batch_size,
        wide: req.wide,
        recompute_modes: modes.iter().map(|m| m.label().to_string()).collect(),
        candidates_evaluated: tuning.ranked.len() + tuning.rejected.len(),
        ranked,
        rejected_oom,
        rejected_invalid_shape,
    }
}

/// Run one tune request end to end. The context carries the service's
/// shared caches, abort flag and progress counters; a default context
/// reproduces the one-shot CLI exactly, so the served body and the CLI's
/// `--compact` stdout are the same bytes.
pub fn run_tune(req: &TuneRequest, ctx: &TuneContext) -> Result<SweepTable, RunError> {
    let (model, cluster, opts) = req.resolve().map_err(RunError::BadRequest)?;
    let run = if req.serial { tune_serial_with } else { tune_with };
    let tuning = run(&model, &cluster, req.batch, req.micro_batch_size, &opts, ctx).map_err(
        |TuneError::Cancelled { evaluated, total }| RunError::Cancelled { evaluated, total },
    )?;
    Ok(build_sweep_table(req, &tuning, &cluster, &model, &opts.recompute_variants()))
}

// ---------------------------------------------------------------------
// simulate
// ---------------------------------------------------------------------

/// `POST /v1/simulate` — run one schedule through the discrete-event
/// engine and return its report.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SimulateRequest {
    /// Model name (`bert64` / `gpt128`).
    pub model: String,
    /// Cluster name (`pc` / `fc` / `tacc` / `tc`).
    pub cluster: String,
    /// Cluster size (= pipeline width).
    pub gpus: usize,
    /// Scheme name — see [`scheme_for`].
    pub scheme: String,
    /// Micro-batches per iteration.
    pub micro_batches: u32,
    /// Sequences per micro-batch.
    pub micro_batch_size: u32,
    /// Activation-recomputation mode.
    pub recompute: Recompute,
    /// §4.2 receive prefetching.
    pub prefetch: bool,
    /// Receive-lookahead depth.
    pub recv_lookahead: usize,
}

/// The document `simulate` answers with.
#[derive(Debug, Serialize)]
pub struct SimulateDoc {
    /// Echo of the request's model name.
    pub model: String,
    /// Echo of the request's cluster name.
    pub cluster: String,
    /// Echo of the request's cluster size.
    pub gpus: usize,
    /// Echo of the request's scheme name.
    pub scheme: String,
    /// Echo of the request's micro-batch count.
    pub micro_batches: u32,
    /// Echo of the request's micro-batch size.
    pub micro_batch_size: u32,
    /// Echo of the request's recompute mode.
    pub recompute: Recompute,
    /// The engine's report.
    pub report: SimReport,
}

/// Simulate one schedule — the single implementation behind the
/// `simulate` endpoint.
pub fn run_simulate(req: &SimulateRequest) -> Result<SimulateDoc, RunError> {
    let model = model_for(&req.model).map_err(RunError::BadRequest)?;
    let cluster = cluster_for(&req.cluster, req.gpus).map_err(RunError::BadRequest)?;
    let scheme = scheme_for(&req.scheme).map_err(RunError::BadRequest)?;
    let cfg = PipelineConfig::new(req.gpus as u32, req.micro_batches, scheme)
        .map_err(|e| RunError::BadRequest(format!("invalid pipeline shape: {e}")))?;
    let schedule = build_schedule(&cfg)
        .map_err(|e| RunError::BadRequest(format!("building {}: {e}", req.scheme)))?;
    let cost = CostTable::build_with(&model, cfg.stages(), req.micro_batch_size, req.recompute);
    let opts = SimOptions {
        prefetch: req.prefetch,
        recv_lookahead: req.recv_lookahead,
        ..SimOptions::default()
    };
    let (report, _) = try_simulate_traced(&schedule, &cost, &cluster, opts)
        .map_err(|e| RunError::BadRequest(format!("simulating {}: {e}", req.scheme)))?;
    Ok(SimulateDoc {
        model: req.model.clone(),
        cluster: req.cluster.clone(),
        gpus: req.gpus,
        scheme: req.scheme.clone(),
        micro_batches: req.micro_batches,
        micro_batch_size: req.micro_batch_size,
        recompute: req.recompute,
        report,
    })
}

// ---------------------------------------------------------------------
// analyze
// ---------------------------------------------------------------------

/// `POST /v1/analyze` — static schedule verification, no simulation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AnalyzeRequest {
    /// Model name (`bert64` / `gpt128`).
    pub model: String,
    /// Cluster name (`pc` / `fc` / `tacc` / `tc`).
    pub cluster: String,
    /// Cluster size (= pipeline width).
    pub gpus: usize,
    /// Scheme name — see [`scheme_for`].
    pub scheme: String,
    /// Micro-batches per iteration.
    pub micro_batches: u32,
    /// Sequences per micro-batch.
    pub micro_batch_size: u32,
    /// Activation-recomputation mode.
    pub recompute: Recompute,
}

/// The document `analyze` answers with — identical to `hanayo
/// analyze`'s output (the CLI builds it through [`run_analyze`] too).
#[derive(Debug, Serialize, Deserialize)]
pub struct AnalyzeDoc {
    /// Model name as accepted by `--model` (rebuilds the cost model).
    pub model: String,
    /// Cluster name as accepted by `--cluster`.
    pub cluster: String,
    /// Cluster size (= pipeline width).
    pub gpus: usize,
    /// Scheme name as accepted by `--scheme`.
    pub scheme: String,
    /// Micro-batches per iteration.
    pub micro_batches: u32,
    /// Sequences per micro-batch.
    pub micro_batch_size: u32,
    /// Activation recomputation mode the cost table was built with.
    pub recompute: Recompute,
    /// The full static-analysis report the claims above are read from.
    pub report: AnalysisReport,
}

/// Rebuild the schedule, cost table and cluster a document describes —
/// the report must be a pure function of these three. Used by `hanayo
/// analyze --validate`.
pub fn rebuild_analyze(doc: &AnalyzeDoc) -> Result<(Schedule, CostTable, ClusterSpec), String> {
    let model = model_for(&doc.model)?;
    let cluster = cluster_for(&doc.cluster, doc.gpus)?;
    let scheme = scheme_for(&doc.scheme)?;
    let cfg = PipelineConfig::new(doc.gpus as u32, doc.micro_batches, scheme)
        .map_err(|e| format!("invalid pipeline shape: {e}"))?;
    let schedule = build_schedule(&cfg).map_err(|e| format!("building {}: {e}", doc.scheme))?;
    let cost = CostTable::build_with(&model, cfg.stages(), doc.micro_batch_size, doc.recompute);
    Ok((schedule, cost, cluster))
}

/// Statically analyze one schedule — the single implementation behind the
/// `analyze` endpoint and `hanayo analyze`.
pub fn run_analyze(req: &AnalyzeRequest) -> Result<AnalyzeDoc, RunError> {
    let model = model_for(&req.model).map_err(RunError::BadRequest)?;
    let cluster = cluster_for(&req.cluster, req.gpus).map_err(RunError::BadRequest)?;
    let scheme = scheme_for(&req.scheme).map_err(RunError::BadRequest)?;
    let cfg = PipelineConfig::new(req.gpus as u32, req.micro_batches, scheme)
        .map_err(|e| RunError::BadRequest(format!("invalid pipeline shape: {e}")))?;
    let schedule = build_schedule(&cfg)
        .map_err(|e| RunError::BadRequest(format!("building {}: {e}", req.scheme)))?;
    let cost = CostTable::build_with(&model, cfg.stages(), req.micro_batch_size, req.recompute);
    let report = analyze(&schedule, &cost, &cluster).map_err(|e| {
        RunError::BadRequest(format!("static analysis rejected {}: {e}", req.scheme))
    })?;
    Ok(AnalyzeDoc {
        model: req.model.clone(),
        cluster: req.cluster.clone(),
        gpus: req.gpus,
        scheme: req.scheme.clone(),
        micro_batches: req.micro_batches,
        micro_batch_size: req.micro_batch_size,
        recompute: req.recompute,
        report,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tune_request() -> TuneRequest {
        TuneRequest {
            model: "bert64".into(),
            cluster: "fc".into(),
            gpus: 8,
            batch: 8,
            micro_batch_size: 1,
            train_bytes_per_param: 8,
            min_pp: 4,
            waves: vec![1, 2],
            recompute: None,
            wide: false,
            serial: false,
            top: Some(3),
        }
    }

    #[test]
    fn requests_round_trip_through_json() {
        let req = tune_request();
        let json = serde_json::to_string(&req).expect("serialize");
        let back: TuneRequest = serde_json::from_str(&json).expect("deserialize");
        assert_eq!(req, back);
    }

    #[test]
    fn config_key_ignores_sweep_shape_but_not_config() {
        let a = tune_request();
        let mut b = tune_request();
        b.batch = 16;
        b.waves = vec![4];
        b.top = None;
        assert_eq!(a.config_key(), b.config_key(), "sweep axes must not split the cache");
        let mut c = tune_request();
        c.gpus = 16;
        assert_ne!(a.config_key(), c.config_key(), "a different cluster must split the cache");
        let mut d = tune_request();
        d.train_bytes_per_param = 16;
        assert_ne!(a.config_key(), d.config_key(), "a different model must split the cache");
    }

    #[test]
    fn run_tune_rejects_unknown_model() {
        let mut req = tune_request();
        req.model = "nope".into();
        match run_tune(&req, &TuneContext::default()) {
            Err(RunError::BadRequest(msg)) => assert!(msg.contains("unknown model")),
            other => panic!("expected BadRequest, got {other:?}"),
        }
    }

    #[test]
    fn run_tune_matches_the_tuner_directly() {
        let req = tune_request();
        let table = run_tune(&req, &TuneContext::default()).expect("tunes");
        assert!(table.candidates_evaluated > 0);
        assert!(table.ranked.len() <= 3, "top=3 must cap the ranked rows");
        // The table carries the model's display name, as the CLI always has.
        assert_eq!(table.model, ModelConfig::bert64().name);
        assert_eq!(table.devices, 8);
    }

    #[test]
    fn run_simulate_and_analyze_agree_on_peaks() {
        let sim = run_simulate(&SimulateRequest {
            model: "bert64".into(),
            cluster: "fc".into(),
            gpus: 8,
            scheme: "hanayo_w2".into(),
            micro_batches: 8,
            micro_batch_size: 1,
            recompute: Recompute::None,
            prefetch: true,
            recv_lookahead: 1,
        })
        .expect("simulates");
        let stat = run_analyze(&AnalyzeRequest {
            model: "bert64".into(),
            cluster: "fc".into(),
            gpus: 8,
            scheme: "hanayo_w2".into(),
            micro_batches: 8,
            micro_batch_size: 1,
            recompute: Recompute::None,
        })
        .expect("analyzes");
        assert_eq!(stat.report.peak_mem, sim.report.peak_mem);
    }

    #[test]
    fn run_plan_evaluates_an_explicit_plan() {
        let doc = run_plan(&PlanRequest {
            model: "bert64".into(),
            cluster: "fc".into(),
            gpus: 8,
            train_bytes_per_param: 8,
            method: "hanayo_w2".into(),
            pp: 8,
            dp: 1,
            micro_batches: 8,
            micro_batch_size: 1,
            recompute: Recompute::None,
        })
        .expect("evaluates");
        assert!(doc.result.throughput > 0.0);
    }
}
