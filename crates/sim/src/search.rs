//! Schedule-space search scored by the compiled simulator.
//!
//! `hanayo-core`'s [`local_search`] is generic over a scoring closure;
//! this module supplies the closure the rest of the workspace cares
//! about: lower the candidate table to an executable
//! [`Schedule`](hanayo_core::action::Schedule) and run
//! the compiled fast path without recording spans (a score reads only the
//! makespan), so one illegal candidate becomes a skipped move, never a
//! panic. [`search_schedule`] is the
//! full pipeline: simulate the seven named schemes at `(P, B)`, greedily
//! seed the table from the best of them, hill-climb, and report the
//! searched schedule beside its baselines.

use crate::engine::{compile_schedule, try_simulate_scalars, SimError, SimOptions};
use hanayo_cluster::ClusterSpec;
use hanayo_core::chain::ComputeSchedule;
use hanayo_core::comm;
use hanayo_core::config::{PipelineConfig, Scheme};
use hanayo_core::schedule::build_compute_schedule;
use hanayo_core::schedule::search::{local_search, SearchError, SearchOptions, SearchStats};
use hanayo_core::schedule::table::{check_table, ScheduleTable};
use hanayo_model::{CostTable, ModelConfig, Recompute};
use serde::{Deserialize, Serialize};
use std::fmt;

/// One named scheme's simulated result at the searched `(P, B)` shape.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BaselineRow {
    /// The scheme.
    pub scheme: Scheme,
    /// Its figure label (`G`, `D`, `H-2`, ...).
    pub label: String,
    /// Simulated end-to-end iteration time in seconds.
    pub iteration_time_s: f64,
}

/// The outcome of a schedule search: the winning table plus the named
/// baselines it was measured against.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SearchedSchedule {
    /// Pipeline width.
    pub devices: u32,
    /// Micro-batches per iteration.
    pub micro_batches: u32,
    /// Sequences per micro-batch (cost-table input).
    pub micro_batch_size: u32,
    /// Activation recomputation mode of the cost model.
    pub recompute: Recompute,
    /// Every named scheme that was feasible at this shape, simulated.
    pub baselines: Vec<BaselineRow>,
    /// The scheme the search was seeded from (the best baseline).
    pub seed_scheme: Scheme,
    /// The best named iteration time (the bar to beat).
    pub baseline_iteration_time_s: f64,
    /// The searched schedule's iteration time.
    pub iteration_time_s: f64,
    /// `(baseline - searched) / baseline`, in percent.
    pub improvement_pct: f64,
    /// Search effort actually spent.
    pub stats: SearchStats,
    /// The winning table (passes the validity checker by construction).
    pub table: ScheduleTable,
}

/// Why a schedule search could not run.
#[derive(Debug, Clone, PartialEq)]
pub enum ScheduleSearchError {
    /// No named scheme was feasible (generated + simulated) at `(P, B)`.
    NoFeasibleScheme {
        /// Requested pipeline width.
        devices: u32,
        /// Requested micro-batch count.
        micro_batches: u32,
    },
    /// Seeding failed in the core search layer.
    Seed(SearchError),
}

impl fmt::Display for ScheduleSearchError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScheduleSearchError::NoFeasibleScheme { devices, micro_batches } => {
                write!(f, "no named scheme is feasible at P={devices} B={micro_batches}")
            }
            ScheduleSearchError::Seed(e) => write!(f, "search seeding failed: {e}"),
        }
    }
}

impl std::error::Error for ScheduleSearchError {}

/// The seven named schemes, in deterministic tie-break order.
pub(crate) fn named_schemes() -> [Scheme; 7] {
    [
        Scheme::Hanayo { waves: 2 },
        Scheme::Hanayo { waves: 1 },
        Scheme::Chimera,
        Scheme::Dapple,
        Scheme::Interleaved { chunks: 2 },
        Scheme::GPipe,
        Scheme::AsyncPipeDream,
    ]
}

/// The simulated makespan of `cs` lowered to a schedule, from a span-free
/// run.
fn simulate_order(
    cs: &ComputeSchedule,
    cost: &CostTable,
    cluster: &ClusterSpec,
    opts: SimOptions,
) -> Result<f64, SimError> {
    let schedule = comm::lower(cs);
    let compiled = compile_schedule(&schedule, &opts);
    try_simulate_scalars(&compiled, &schedule, cost, cluster, None, opts).map(|r| r.iteration_time)
}

/// Search the schedule space at `(P, B)` on `cluster` (which must have
/// exactly `P` devices): simulate every feasible named scheme, seed a
/// [`ScheduleTable`] from the best one, and hill-climb with the compiled
/// simulator as the cost model. Deterministic in `(inputs, opts.seed)`.
#[allow(clippy::too_many_arguments)] // the full (model, cluster, shape, cost, sim, search) input
pub fn search_schedule(
    model: &ModelConfig,
    cluster: &ClusterSpec,
    devices: u32,
    micro_batches: u32,
    micro_batch_size: u32,
    recompute: Recompute,
    sim: SimOptions,
    opts: &SearchOptions,
) -> Result<SearchedSchedule, ScheduleSearchError> {
    // Baselines: every named scheme that generates and simulates at this
    // shape. Cost tables are per-scheme (stage counts differ).
    let mut baselines = Vec::new();
    let mut best: Option<(Scheme, ComputeSchedule, CostTable, f64)> = None;
    for scheme in named_schemes() {
        let Ok(cfg) = PipelineConfig::new(devices, micro_batches, scheme) else { continue };
        let Ok(cs) = build_compute_schedule(&cfg) else { continue };
        let cost = CostTable::build_with(model, cfg.stages(), micro_batch_size, recompute);
        let Ok(time) = simulate_order(&cs, &cost, cluster, sim) else { continue };
        baselines.push(BaselineRow { scheme, label: scheme.label(), iteration_time_s: time });
        // Strict < keeps the earlier scheme on ties: deterministic.
        if best.as_ref().is_none_or(|(_, _, _, t)| time < *t) {
            best = Some((scheme, cs, cost, time));
        }
    }
    let Some((seed_scheme, seed_cs, cost, baseline_time)) = best else {
        return Err(ScheduleSearchError::NoFeasibleScheme { devices, micro_batches });
    };
    baselines.sort_by(|a, b| a.iteration_time_s.total_cmp(&b.iteration_time_s));

    let seed_table = ScheduleTable::from_compute(&seed_cs);
    // A table that passes the validity checker cannot deadlock, and one
    // that did would score `None` through the engine's `SimError::Deadlock`.
    let (table, stats) = local_search(&seed_table, opts, |t| {
        simulate_order(&t.to_compute(), &cost, cluster, sim).ok()
    })
    .map_err(ScheduleSearchError::Seed)?;

    debug_assert!(check_table(&table).is_ok());
    let iteration_time_s = stats.final_score;
    Ok(SearchedSchedule {
        devices,
        micro_batches,
        micro_batch_size,
        recompute,
        baselines,
        seed_scheme,
        baseline_iteration_time_s: baseline_time,
        iteration_time_s,
        improvement_pct: 100.0 * (baseline_time - iteration_time_s) / baseline_time,
        stats,
        table,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use hanayo_cluster::topology::{fc_full_nvlink, pc_partial_nvlink};
    use hanayo_core::action::{MsgTag, Payload};
    use hanayo_core::ids::{DeviceId, StageId};
    use hanayo_core::program::Stall;

    fn opts_small() -> SearchOptions {
        SearchOptions { max_rounds: 8, moves_per_round: 12, ..Default::default() }
    }

    #[test]
    fn search_reports_consistent_fields() {
        let cluster = fc_full_nvlink(4);
        let model = ModelConfig::bert64();
        let r = search_schedule(
            &model,
            &cluster,
            4,
            4,
            1,
            Recompute::None,
            SimOptions::default(),
            &opts_small(),
        )
        .unwrap();
        assert!(!r.baselines.is_empty());
        assert!(r.iteration_time_s <= r.baseline_iteration_time_s);
        assert!(r.baselines.iter().any(|b| b.scheme == r.seed_scheme));
        check_table(&r.table).unwrap();
        // The reported time re-simulates exactly.
        let again = simulate_order(
            &r.table.to_compute(),
            &CostTable::build_with(&model, r.table.config.stages(), 1, Recompute::None),
            &cluster,
            SimOptions::default(),
        )
        .unwrap();
        assert_eq!(again, r.iteration_time_s);
    }

    #[test]
    fn search_is_deterministic() {
        let cluster = pc_partial_nvlink(4);
        let model = ModelConfig::bert64();
        let run = || {
            search_schedule(
                &model,
                &cluster,
                4,
                6,
                1,
                Recompute::None,
                SimOptions::default(),
                &opts_small(),
            )
            .unwrap()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn deadlocking_order_is_scored_none_by_the_engine() {
        // The hill-climb's scorer has no deadlock screen of its own: an
        // order that waits on itself must come back as the engine's
        // `SimError::Deadlock`, which the scorer maps to `None`. Device 0
        // here starts with a backward whose gradient needs its own later
        // forward.
        let cfg = PipelineConfig::new(2, 2, Scheme::GPipe).unwrap();
        let mut cs = build_compute_schedule(&cfg).unwrap();
        let first_bwd = cs.per_device[0].iter().position(|op| op.backward).unwrap();
        let op = cs.per_device[0].remove(first_bwd);
        cs.per_device[0].insert(0, op);
        let cost = CostTable::build_with(&ModelConfig::bert64(), cfg.stages(), 1, Recompute::None);
        let err = simulate_order(&cs, &cost, &fc_full_nvlink(2), SimOptions::default())
            .expect_err("a self-waiting order must not simulate");
        // Device 0 waits at its first action, the backward's gradient
        // receive, on device 1, which waits for device 0's activation.
        let tag = MsgTag { mb: op.mb, stage: StageId(0), payload: Payload::Gradient };
        let stall = Stall { device: DeviceId(0), action: 0, tag, waits_on: DeviceId(1) };
        assert_eq!(err, SimError::Deadlock(stall));
    }

    #[test]
    fn infeasible_shape_is_a_typed_error() {
        // Cluster width ≠ P: every baseline fails to simulate.
        let cluster = fc_full_nvlink(4);
        let err = search_schedule(
            &ModelConfig::bert64(),
            &cluster,
            8,
            8,
            1,
            Recompute::None,
            SimOptions::default(),
            &opts_small(),
        )
        .unwrap_err();
        assert_eq!(err, ScheduleSearchError::NoFeasibleScheme { devices: 8, micro_batches: 8 });
    }
}
