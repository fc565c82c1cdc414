//! The combined analysis entry points and their serializable report.

use crate::critical::critical_path;
use crate::dag::HappensBefore;
use crate::error::AnalysisError;
use crate::memory::{device_bytes, static_peak_mem};
use hanayo_cluster::ClusterSpec;
use hanayo_core::action::{Action, Schedule};
use hanayo_core::chain::ComputeOp;
use hanayo_core::comm;
use hanayo_core::ids::{DeviceId, MicroBatch};
use hanayo_core::schedule::table::{
    chain_slots, check_table_with, ScheduleTable, TableError, TableLimits,
};
use hanayo_model::CostTable;
use serde::{Deserialize, Serialize};

/// Size of the happens-before DAG, for reports and sanity checks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct DagStats {
    /// Nodes (two per action: enter and exit).
    pub nodes: usize,
    /// Edges (span + program order + message).
    pub edges: usize,
    /// Matched point-to-point messages.
    pub messages: usize,
    /// `BatchedComm` actions (the §4.2 cross-communication batches).
    pub batched_comms: usize,
}

/// Everything the static analysis proves about one schedule. A report is
/// only produced when the hard properties hold — failures surface as the
/// typed [`AnalysisError`] instead, so those boolean verdicts exist for
/// the JSON consumer's benefit. The one soft verdict is
/// [`fifo_consistent`](Self::fifo_consistent), which reports a hazard the
/// rendezvous engines tolerate.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AnalysisReport {
    /// Pipeline width.
    pub devices: u32,
    /// Global stage count.
    pub stages: u32,
    /// Micro-batches per iteration.
    pub micro_batches: u32,
    /// DAG size.
    pub dag: DagStats,
    /// No happens-before cycle, and every chain step in order: the
    /// engines run this schedule to completion.
    pub deadlock_free: bool,
    /// Every cross-device chain step is carried by exactly one matched
    /// send/recv pair with consistent peers, posted in chain order.
    pub comm_well_formed: bool,
    /// Per-link FIFO order holds (sender post order never inverts
    /// receiver block order). Unlike the other verdicts this one can be
    /// `false` in an `Ok` report: tag-matched rendezvous (what the
    /// simulator and the runtime implement) tolerates inversions, and
    /// legal searched tables do produce them — but a strict FIFO channel
    /// (real NCCL p2p without tags) would deadlock, so the report
    /// surfaces the hazard instead of enforcing it. Every *generated*
    /// scheme is FIFO-clean (pinned by the golden snapshots).
    pub fifo_consistent: bool,
    /// Static weight+optimizer bytes per device.
    pub weight_mem: Vec<u64>,
    /// Static activation-stash peak per device (`peak_mem − weight_mem`).
    pub stash_peak: Vec<u64>,
    /// Static peak bytes per device — equals the simulator's `peak_mem`
    /// exactly on every schedule the simulator completes.
    pub peak_mem: Vec<u64>,
    /// Critical-path lower bound on the iteration time, seconds.
    pub critical_path_s: f64,
}

/// Prove only that a lowered schedule cannot deadlock: it lowers to a
/// [`Program`](hanayo_core::program::Program), which pairs every message
/// with consistent peers, and the happens-before DAG is acyclic. It does not
/// check that the schedule computes what its chains say — a schedule with
/// every send and receive stripped passes; [`verify`] is the validity
/// check. The cheap core of the tuner's static pre-pass.
pub fn check_deadlock_free(schedule: &Schedule) -> Result<(), AnalysisError> {
    let dag = HappensBefore::build(schedule)?;
    dag.topo_order()?;
    Ok(())
}

/// The one validity check for a lowered schedule. After lowering it to a
/// [`Program`](hanayo_core::program::Program), which pairs every send with
/// its receive, one pass over action positions and the paired messages
/// checks that
///
/// 1. every `(mb, stage)` forward and backward appears exactly once, on
///    its stage-map device ([`chain_slots`], the table checker's pass);
/// 2. chain steps that share a device appear in chain order;
/// 3. every cross-device chain step is carried by the message
///    [`comm::lower`] emits for it ([`comm::upstream`]'s tag, sent from
///    the producer's device after the producer, received before the
///    consumer);
/// 4. every list ends in exactly one [`Action::OptimizerStep`];
///
/// then the happens-before DAG is proved acyclic, as by
/// [`check_deadlock_free`]. Together these are what the engines need to
/// run the schedule to completion and compute what its chains say.
pub fn verify(schedule: &Schedule) -> Result<(), AnalysisError> {
    let dag = HappensBefore::build(schedule)?;
    check_program(&dag)?;
    dag.topo_order()?;
    Ok(())
}

/// Checks 1–4 of [`verify`] over a built DAG.
fn check_program(dag: &HappensBefore<'_>) -> Result<(), AnalysisError> {
    let (schedule, program) = (dag.schedule, &dag.program);
    let map = &schedule.stage_map;
    let (s, b) = (map.stages, schedule.config.micro_batches);
    let ops = schedule.lists.iter().enumerate().flat_map(|(d, list)| {
        let device = DeviceId(d as u32);
        list.actions.iter().enumerate().filter_map(move |(i, a)| Some((device, i, a.compute_op()?)))
    });
    let index = chain_slots(map, b, ops)?;
    for m in 0..b {
        for pos in 1..2 * s {
            let op = ComputeOp::from_pos(MicroBatch(m), pos, s);
            let (at, dep) = (index[&(m, pos)], index[&(m, pos - 1)]);
            match comm::upstream(map, op) {
                None if at < dep => {
                    let e = TableError::DependencyViolation { op, column: at, dep_column: dep };
                    return Err(e.into());
                }
                None => {}
                Some((producer, tag)) => {
                    let device = map.device_of(op.mb, op.stage);
                    let message = program.key(tag).and_then(|key| program.message(key));
                    let carried = message.is_some_and(|msg| {
                        (msg.src, msg.dst) == (producer, device)
                            && msg.send_at as usize > dep
                            && (msg.recv_at as usize) < at
                    });
                    if !carried {
                        return Err(AnalysisError::UncarriedStep { device, index: at, tag });
                    }
                }
            }
        }
    }
    for (d, list) in schedule.lists.iter().enumerate() {
        let flush = list.actions.iter().position(|a| *a == Action::OptimizerStep);
        if flush.is_none_or(|i| i + 1 != list.actions.len()) {
            let index = flush.unwrap_or(list.actions.len());
            return Err(AnalysisError::MissingFlush { device: DeviceId(d as u32), index });
        }
    }
    Ok(())
}

/// Run every static analysis over a lowered schedule: [`verify`]'s
/// checks, per-link FIFO consistency, the exact static memory peaks, and
/// the critical-path bound.
pub fn analyze(
    schedule: &Schedule,
    cost: &CostTable,
    cluster: &ClusterSpec,
) -> Result<AnalysisReport, AnalysisError> {
    let dag = HappensBefore::build(schedule)?;
    check_program(&dag)?;
    let fifo_consistent = dag.check_fifo().is_ok();
    let critical_path_s = critical_path(&dag, cost, cluster)?;
    let weight_mem = device_bytes(&schedule.stage_map, &cost.weight_bytes);
    let peak_mem = static_peak_mem(schedule, cost);
    let stash_peak: Vec<u64> = peak_mem.iter().zip(&weight_mem).map(|(&p, &w)| p - w).collect();
    Ok(AnalysisReport {
        devices: schedule.stage_map.devices,
        stages: schedule.stage_map.stages,
        micro_batches: schedule.config.micro_batches,
        dag: DagStats {
            nodes: dag.node_count(),
            edges: dag.edge_count(),
            messages: dag.messages.len(),
            batched_comms: dag.batched_comms(),
        },
        deadlock_free: true,
        comm_well_formed: true,
        fifo_consistent,
        weight_mem,
        stash_peak,
        peak_mem,
        critical_path_s,
    })
}

/// [`analyze`] for the tabular IR: the table-level invariants run first
/// (shape, completeness, chain order, recompute typing, stash caps), then
/// the table is lowered through the same path the simulator executes and
/// the DAG analyses follow.
pub fn analyze_table(
    table: &ScheduleTable,
    cost: &CostTable,
    cluster: &ClusterSpec,
    limits: TableLimits,
) -> Result<AnalysisReport, AnalysisError> {
    check_table_with(table, limits)?;
    analyze(&comm::lower(&table.to_compute()), cost, cluster)
}
