//! Cluster-level parallel plans: `D` data-parallel pipeline groups of `P`
//! devices each, with the flush-time gradient all-reduce.
//!
//! This is also where the paper's Chimera fairness transformation lives:
//! the benchmarked "C" is **Chimera-wave** — a `P`-device Chimera
//! re-interpreted as two data-parallel 1-wave pipelines on `P/2` devices
//! each (Fig. 5), so that every method holds exactly one weight copy.

use crate::engine::{
    compile_schedule, try_simulate_compiled, validate_numerics, NumericsError, SimError, SimOptions,
};
use crate::report::SimReport;
use hanayo_cluster::collective::ring_allreduce_time;
use hanayo_cluster::ClusterSpec;
use hanayo_core::config::{PipelineConfig, Scheme};
use hanayo_core::schedule::{build_schedule, ScheduleError};
use hanayo_model::{CostTable, ModelConfig, Recompute};
use serde::{Deserialize, Serialize};
use std::fmt;

/// The methods compared in the paper's evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Method {
    /// GPipe ("G").
    GPipe,
    /// DAPPLE 1F1B ("D").
    Dapple,
    /// Chimera-wave ("C") — the paper's fairness form: replicas become
    /// data parallelism.
    ChimeraWave,
    /// Native bidirectional Chimera with 2 weight replicas (Fig. 1/3 only).
    ChimeraNative,
    /// Hanayo with `waves` waves ("H-W").
    Hanayo {
        /// Wave count.
        waves: u32,
    },
}

impl Method {
    /// Figure label (`G`, `D`, `C`, `H-2`, ...).
    pub fn label(self) -> String {
        match self {
            Method::GPipe => "G".into(),
            Method::Dapple => "D".into(),
            Method::ChimeraWave => "C".into(),
            Method::ChimeraNative => "C2".into(),
            Method::Hanayo { waves } => format!("H-{waves}"),
        }
    }
}

impl fmt::Display for Method {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Method::GPipe => write!(f, "GPipe"),
            Method::Dapple => write!(f, "DAPPLE"),
            Method::ChimeraWave => write!(f, "Chimera-wave"),
            Method::ChimeraNative => write!(f, "Chimera(2 replicas)"),
            Method::Hanayo { waves } => write!(f, "Hanayo(W={waves})"),
        }
    }
}

/// A complete cluster-level configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ParallelPlan {
    /// Scheduling method.
    pub method: Method,
    /// Data-parallel groups (`D` in the figures).
    pub dp: u32,
    /// Devices per pipeline (`P`).
    pub pp: u32,
    /// Micro-batches per pipeline per iteration (`B`).
    pub micro_batches: u32,
    /// Sequences per micro-batch.
    pub micro_batch_size: u32,
    /// Activation-recomputation mode: the cost table is built with it, so
    /// both the stash accounting (boundary-only under `Full`) and the
    /// backward time (`T_B' = T_B + T_F`) flow into the simulation.
    pub recompute: Recompute,
}

/// Plan evaluation errors.
#[derive(Debug, Clone, PartialEq)]
pub enum PlanError {
    /// The plan needs more devices than the cluster has.
    ClusterTooSmall {
        /// Devices required (`dp × pp`).
        needed: u32,
        /// Devices available.
        available: u32,
    },
    /// Chimera-wave requires an even pipeline width and micro-batch count.
    OddChimeraSplit,
    /// The pipeline schedule could not be generated.
    Schedule(ScheduleError),
    /// A cost or link quantity was NaN, infinite or non-positive — it would
    /// corrupt the simulator's event ordering (see
    /// [`crate::engine::validate_numerics`]).
    Numerics(NumericsError),
    /// The engine rejected the run (shape mismatch or deadlock), as
    /// [`crate::engine::try_simulate_compiled`] reported it.
    Sim(SimError),
}

impl fmt::Display for PlanError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlanError::ClusterTooSmall { needed, available } => {
                write!(f, "plan needs {needed} devices, cluster has {available}")
            }
            PlanError::OddChimeraSplit => write!(f, "Chimera-wave needs even P and B"),
            PlanError::Schedule(e) => write!(f, "schedule generation failed: {e}"),
            PlanError::Numerics(e) => write!(f, "invalid simulation inputs: {e}"),
            PlanError::Sim(e) => write!(f, "simulation rejected: {e}"),
        }
    }
}

impl std::error::Error for PlanError {}

impl From<ScheduleError> for PlanError {
    fn from(e: ScheduleError) -> Self {
        PlanError::Schedule(e)
    }
}

impl From<hanayo_core::config::ConfigError> for PlanError {
    fn from(e: hanayo_core::config::ConfigError) -> Self {
        PlanError::Schedule(ScheduleError::Config(e))
    }
}

/// Result of evaluating a plan on a cluster.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PlanResult {
    /// The evaluated plan.
    pub plan: ParallelPlan,
    /// Pipeline iteration time (max over groups), excluding the all-reduce.
    pub pipeline_time: f64,
    /// Flush-time gradient all-reduce (0 when `dp == 1`).
    pub allreduce_time: f64,
    /// End-to-end iteration time.
    pub iteration_time: f64,
    /// Sequences per second across the whole cluster.
    pub throughput: f64,
    /// Bubble ratio of the first pipeline group.
    pub bubble_ratio: f64,
    /// Peak bytes per *global* device.
    pub peak_mem: Vec<u64>,
    /// Devices whose peak exceeds their capacity.
    pub oom_devices: Vec<usize>,
    /// Report of the first pipeline group (timeline etc.).
    pub group_report: SimReport,
}

impl PlanResult {
    /// Did any device run out of memory?
    pub fn is_oom(&self) -> bool {
        !self.oom_devices.is_empty()
    }
}

/// A plan resolved to the pipeline actually simulated.
pub(crate) struct Resolved {
    /// The validated per-group pipeline: effective width, micro-batches
    /// per group and scheme (Chimera-wave halves the first two).
    pub cfg: PipelineConfig,
    /// Effective data-parallel groups (Chimera-wave doubles `D`).
    pub dp: u32,
}

/// The checks every plan evaluation starts with — the cluster is large
/// enough, the method resolves to a pipeline, and that pipeline is a valid
/// [`PipelineConfig`]. [`evaluate_plan`] and the tuner's static pre-pass
/// both start here, so both reject a plan with the same [`PlanError`].
pub(crate) fn resolve_plan(
    plan: &ParallelPlan,
    cluster: &ClusterSpec,
) -> Result<Resolved, PlanError> {
    let needed = plan.dp * plan.pp;
    if needed as usize > cluster.len() {
        return Err(PlanError::ClusterTooSmall { needed, available: cluster.len() as u32 });
    }
    let (pp, b) = (plan.pp, plan.micro_batches);
    let (scheme, pp_eff, dp_mult, b_eff) = match plan.method {
        Method::GPipe => (Scheme::GPipe, pp, 1, b),
        Method::Dapple => (Scheme::Dapple, pp, 1, b),
        Method::ChimeraNative => (Scheme::Chimera, pp, 1, b),
        Method::ChimeraWave => {
            if !pp.is_multiple_of(2) || !b.is_multiple_of(2) {
                return Err(PlanError::OddChimeraSplit);
            }
            (Scheme::Hanayo { waves: 1 }, pp / 2, 2, b / 2)
        }
        Method::Hanayo { waves } => (Scheme::Hanayo { waves }, pp, 1, b),
    };
    Ok(Resolved { cfg: PipelineConfig::new(pp_eff, b_eff, scheme)?, dp: plan.dp * dp_mult })
}

/// Evaluate a plan: simulate every pipeline group on its device slice, add
/// the data-parallel all-reduce, merge memory, and compute throughput.
pub fn evaluate_plan(
    plan: &ParallelPlan,
    model: &ModelConfig,
    cluster: &ClusterSpec,
    opts: SimOptions,
) -> Result<PlanResult, PlanError> {
    let resolved = resolve_plan(plan, cluster)?;
    let cfg = resolved.cfg;
    let schedule = build_schedule(&cfg)?;
    let cost = CostTable::build_with(model, cfg.stages(), plan.micro_batch_size, plan.recompute);
    // Vet numerics before anything reaches the event heap: a NaN cost or
    // bandwidth would otherwise silently corrupt every simulated time.
    validate_numerics(&cost, cluster, &opts).map_err(PlanError::Numerics)?;
    let compiled = compile_schedule(&schedule, &opts);
    simulate_plan(plan, cluster, opts, resolved, |sub, _| {
        try_simulate_compiled(&compiled, &schedule, &cost, sub, opts)
    })
}

/// The simulation half of every plan evaluation. `simulate_group(sub,
/// first_device)` simulates one pipeline group on its sub-cluster; callers
/// lower the schedule once and close over it (the tuner also memoises the
/// reports across candidates).
///
/// Group 0 always runs. A later group whose sub-cluster equals group 0's
/// (always, on a homogeneous cluster) reuses group 0's report instead of
/// re-simulating: the engine is deterministic, so the skipped run could
/// only have reproduced the same report.
pub(crate) fn simulate_plan(
    plan: &ParallelPlan,
    cluster: &ClusterSpec,
    opts: SimOptions,
    Resolved { cfg, dp: dp_eff }: Resolved,
    simulate_group: impl Fn(&ClusterSpec, usize) -> Result<SimReport, SimError>,
) -> Result<PlanResult, PlanError> {
    let (pp_eff, b_eff) = (cfg.devices, cfg.micro_batches);
    let simulate_sub = |sub: &ClusterSpec, first: usize| {
        simulate_group(sub, first).map_err(|e| match e {
            SimError::Numerics(n) => PlanError::Numerics(n),
            other => PlanError::Sim(other),
        })
    };
    let group_devices = |g: u32| -> Vec<usize> {
        (0..pp_eff as usize).map(|r| (g * pp_eff) as usize + r).collect()
    };
    let mut peak_mem = vec![0u64; cluster.len()];
    let record_peaks = |devices: &[usize], report: &SimReport, peak_mem: &mut [u64]| {
        for (r, &global) in devices.iter().enumerate() {
            peak_mem[global] = report.peak_mem[r];
        }
    };

    let devices0 = group_devices(0);
    let sub0 = cluster.select(&devices0);
    let group_report = simulate_sub(&sub0, devices0[0])?;
    record_peaks(&devices0, &group_report, &mut peak_mem);
    let mut pipeline_time = group_report.iteration_time;
    for g in 1..dp_eff {
        let devices = group_devices(g);
        let sub = cluster.select(&devices);
        if sub == sub0 {
            // Identical sub-cluster: group 0's report already is this
            // group's (and its iteration time cannot raise the running max).
            record_peaks(&devices, &group_report, &mut peak_mem);
        } else {
            let report = simulate_sub(&sub, devices[0])?;
            record_peaks(&devices, &report, &mut peak_mem);
            pipeline_time = pipeline_time.max(report.iteration_time);
        }
    }

    // Data-parallel gradient all-reduce of the fp16 gradient buffers. Only
    // the non-overlapped fraction is exposed on the critical path (see
    // SimOptions::allreduce_overlap).
    let allreduce_time = if dp_eff > 1 {
        let raw = (0..pp_eff as usize)
            .map(|r| {
                let ring: Vec<usize> = (0..dp_eff).map(|g| (g * pp_eff) as usize + r).collect();
                ring_allreduce_time(cluster, &ring, group_report.grad_mem[r])
            })
            .fold(0.0, f64::max);
        raw * (1.0 - opts.allreduce_overlap.clamp(0.0, 1.0))
    } else {
        0.0
    };

    let iteration_time = pipeline_time + allreduce_time;
    let sequences = (dp_eff * b_eff * plan.micro_batch_size) as f64;
    let capacities: Vec<u64> = (0..cluster.len()).map(|d| cluster.memory(d)).collect();
    let oom_devices =
        peak_mem.iter().enumerate().filter(|&(d, &m)| m > capacities[d]).map(|(d, _)| d).collect();

    Ok(PlanResult {
        plan: *plan,
        pipeline_time,
        allreduce_time,
        iteration_time,
        throughput: sequences / iteration_time,
        bubble_ratio: group_report.bubble_ratio,
        peak_mem,
        oom_devices,
        group_report,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use hanayo_cluster::topology::{fc_full_nvlink, lonestar6, pc_partial_nvlink};

    fn plan(method: Method, dp: u32, pp: u32, b: u32) -> ParallelPlan {
        ParallelPlan {
            method,
            dp,
            pp,
            micro_batches: b,
            micro_batch_size: 1,
            recompute: Recompute::None,
        }
    }

    fn eval(p: &ParallelPlan, cluster: &ClusterSpec) -> PlanResult {
        evaluate_plan(p, &ModelConfig::bert64(), cluster, SimOptions::default()).unwrap()
    }

    #[test]
    fn fig9_ordering_on_fc() {
        // FC (full NVLink): H-2 > C > D ≈ G in throughput.
        let cluster = fc_full_nvlink(8);
        let g = eval(&plan(Method::GPipe, 1, 8, 8), &cluster);
        let d = eval(&plan(Method::Dapple, 1, 8, 8), &cluster);
        let c = eval(&plan(Method::ChimeraWave, 1, 8, 8), &cluster);
        let h = eval(&plan(Method::Hanayo { waves: 2 }, 1, 8, 8), &cluster);
        assert!(c.throughput > d.throughput, "C {} vs D {}", c.throughput, d.throughput);
        assert!(h.throughput > c.throughput, "H {} vs C {}", h.throughput, c.throughput);
        assert!((g.throughput - d.throughput).abs() / d.throughput < 0.05);
    }

    #[test]
    fn chimera_wave_uses_two_groups() {
        let cluster = fc_full_nvlink(8);
        let c = eval(&plan(Method::ChimeraWave, 1, 8, 8), &cluster);
        assert!(c.allreduce_time > 0.0, "replica dimension must all-reduce");
        // All 8 devices carry weights.
        assert!(c.peak_mem.iter().all(|&m| m > 0));
    }

    #[test]
    fn explicit_dp_trades_bubbles_for_allreduce() {
        // (D=2, P=4) has a shorter pipe (lower bubble ratio) but pays the
        // gradient all-reduce; (D=1, P=8) is the reverse. Both must be
        // evaluable and land in the same ballpark — the Fig. 10 search is
        // what picks the winner per cluster.
        let cluster = fc_full_nvlink(8);
        let deep = eval(&plan(Method::Hanayo { waves: 2 }, 1, 8, 8), &cluster);
        let wide = eval(&plan(Method::Hanayo { waves: 2 }, 2, 4, 4), &cluster);
        assert!(wide.bubble_ratio < deep.bubble_ratio, "wide pipe has fewer bubbles");
        assert!(wide.allreduce_time > 0.0 && deep.allreduce_time == 0.0);
        let ratio = wide.throughput / deep.throughput;
        assert!((0.8..1.25).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn rejects_oversized_plans() {
        let cluster = fc_full_nvlink(8);
        let err = evaluate_plan(
            &plan(Method::Dapple, 2, 8, 8),
            &ModelConfig::bert64(),
            &cluster,
            SimOptions::default(),
        )
        .unwrap_err();
        assert!(matches!(err, PlanError::ClusterTooSmall { needed: 16, .. }));
    }

    #[test]
    fn rejects_odd_chimera_wave() {
        let cluster = fc_full_nvlink(8);
        let err = evaluate_plan(
            &plan(Method::ChimeraWave, 1, 7, 8),
            &ModelConfig::bert64(),
            &cluster,
            SimOptions::default(),
        )
        .unwrap_err();
        assert_eq!(err, PlanError::OddChimeraSplit);
    }

    #[test]
    fn gpipe_ooms_where_hanayo_fits() {
        // Lonestar6 40 GB, BERT, B = 2P, micro-batch 2 sequences: GPipe
        // stashes all 16 micro-batches and dies; Hanayo stays within its
        // 1F1B-style budget.
        let cluster = lonestar6(8);
        let big = |method| ParallelPlan {
            method,
            dp: 1,
            pp: 8,
            micro_batches: 16,
            micro_batch_size: 2,
            recompute: Recompute::None,
        };
        let g = eval(&big(Method::GPipe), &cluster);
        let h = eval(&big(Method::Hanayo { waves: 2 }), &cluster);
        assert!(g.is_oom(), "GPipe peak {:?}", g.peak_mem.iter().max());
        assert!(!h.is_oom(), "Hanayo peak {:?}", h.peak_mem.iter().max());
    }

    #[test]
    fn full_recompute_rescues_an_oom_plan() {
        // The GPipe configuration that dies above fits once the plan
        // carries Recompute::Full — the §6 "combine with checkpointing"
        // claim, now a first-class plan axis.
        let cluster = lonestar6(8);
        let mut plan = ParallelPlan {
            method: Method::GPipe,
            dp: 1,
            pp: 8,
            micro_batches: 16,
            micro_batch_size: 2,
            recompute: Recompute::None,
        };
        let none = eval(&plan, &cluster);
        plan.recompute = Recompute::Full;
        let full = eval(&plan, &cluster);
        assert!(none.is_oom() && !full.is_oom());
        // Memory falls, but the replayed forward slows the iteration.
        assert!(full.peak_mem.iter().max() < none.peak_mem.iter().max());
        assert!(full.iteration_time > none.iteration_time);
    }

    #[test]
    fn overlap_outside_unit_interval_is_clamped() {
        // overlap = 1.5 must not produce negative exposed all-reduce time
        // (which would inflate throughput past the overlap = 1.0 bound).
        let cluster = fc_full_nvlink(8);
        let p = plan(Method::Hanayo { waves: 2 }, 2, 4, 4);
        let at = |overlap: f64| {
            evaluate_plan(
                &p,
                &ModelConfig::bert64(),
                &cluster,
                SimOptions { allreduce_overlap: overlap, ..Default::default() },
            )
            .unwrap()
        };
        let over = at(1.5);
        assert_eq!(over.allreduce_time, 0.0, "exposed all-reduce went negative");
        assert_eq!(over.throughput, at(1.0).throughput);
        let under = at(-0.5);
        assert_eq!(under.allreduce_time, at(0.0).allreduce_time);
        assert!(under.throughput <= over.throughput);
    }

    #[test]
    fn nan_overlap_is_rejected_not_simulated() {
        let cluster = fc_full_nvlink(8);
        let err = evaluate_plan(
            &plan(Method::Dapple, 2, 4, 4),
            &ModelConfig::bert64(),
            &cluster,
            SimOptions { allreduce_overlap: f64::NAN, ..Default::default() },
        )
        .unwrap_err();
        assert!(matches!(err, PlanError::Numerics(NumericsError::Overlap { .. })));
    }

    #[test]
    fn corrupt_cluster_is_rejected_not_simulated() {
        let mut cluster = fc_full_nvlink(8);
        cluster.links[3][4].bandwidth = f64::NAN;
        let err = evaluate_plan(
            &plan(Method::Dapple, 1, 8, 8),
            &ModelConfig::bert64(),
            &cluster,
            SimOptions::default(),
        )
        .unwrap_err();
        assert!(matches!(
            err,
            PlanError::Numerics(NumericsError::Bandwidth { src: 3, dst: 4, .. })
        ));
    }

    #[test]
    fn throughput_counts_all_groups() {
        let cluster = fc_full_nvlink(8);
        let one = eval(&plan(Method::Dapple, 1, 4, 4), &cluster);
        let two = eval(&plan(Method::Dapple, 2, 4, 4), &cluster);
        // Two groups process twice the sequences; all-reduce taxes a bit.
        assert!(two.throughput > 1.5 * one.throughput);
    }

    #[test]
    fn pc_cluster_placement_matters_for_chimera_wave() {
        // On PC, the first 1-wave group lands on NVLink pairs (0..4
        // contains pairs 01 and 23) — it must still beat DAPPLE.
        let cluster = pc_partial_nvlink(8);
        let c = eval(&plan(Method::ChimeraWave, 1, 8, 8), &cluster);
        let d = eval(&plan(Method::Dapple, 1, 8, 8), &cluster);
        assert!(c.throughput > d.throughput);
    }
}
