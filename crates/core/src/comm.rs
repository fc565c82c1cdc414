//! Communication lowering: from compute order to a full action list.
//!
//! Given a [`ComputeSchedule`] (per-device op order), this pass inserts the
//! point-to-point transfers implied by the dependency chains:
//!
//! * after a compute op whose successor runs on another device → `Send`,
//! * before a compute op whose predecessor ran on another device → `Recv`,
//! * a final `OptimizerStep` (the synchronous flush) on every device.
//!
//! A second pass reproduces the paper's §4.2 NCCL workaround: when the comm
//! ops between two compute slots on a device exchange messages with the
//! *same peer in both directions* (cross-communication at wave folds), they
//! are merged into a single [`Action::BatchedComm`] — the analogue of
//! `batch_isend_irecv`, whose extra synchronisation is one of the four
//! bubble sources of Fig. 7.

use crate::action::{Action, ActionList, CommDir, CommOp, MsgTag, Payload, Schedule};
use crate::chain::{ComputeOp, ComputeSchedule};
use crate::ids::DeviceId;
use crate::stage_map::StageMap;

/// Producer of the message consumed by `op`, if any: `(producer_device,
/// tag)`. `None` when `op` has no upstream dependency (first forward) or the
/// dependency is device-local. [`lower`] receives exactly this message
/// before `op`; verifiers hold a lowered schedule to the same contract.
pub fn upstream(map: &StageMap, op: ComputeOp) -> Option<(DeviceId, MsgTag)> {
    let s = map.stages;
    let pos = op.pos(s);
    if pos == 0 {
        return None;
    }
    let prev = ComputeOp::from_pos(op.mb, pos - 1, s);
    let here = map.device_of(op.mb, op.stage);
    let there = map.device_of(prev.mb, prev.stage);
    if here == there {
        return None;
    }
    let payload = if op.backward { Payload::Gradient } else { Payload::Activation };
    Some((there, MsgTag { mb: op.mb, stage: op.stage, payload }))
}

/// Consumer of the message produced by `op`, if any: `(consumer_device,
/// tag)`.
fn downstream(cs: &ComputeSchedule, op: ComputeOp) -> Option<(DeviceId, MsgTag)> {
    let s = cs.stage_map.stages;
    let pos = op.pos(s);
    if pos + 1 >= 2 * s {
        return None;
    }
    let next = ComputeOp::from_pos(op.mb, pos + 1, s);
    let here = cs.stage_map.device_of(op.mb, op.stage);
    let there = cs.stage_map.device_of(next.mb, next.stage);
    if here == there {
        return None;
    }
    let payload = if next.backward { Payload::Gradient } else { Payload::Activation };
    Some((there, MsgTag { mb: next.mb, stage: next.stage, payload }))
}

/// Merge a run of comm ops into actions, batching bidirectional exchanges
/// with a common peer (cross-communication).
fn emit_run(run: &mut Vec<CommOp>, out: &mut Vec<Action>) {
    if run.is_empty() {
        return;
    }
    let cross = run.iter().any(|a| {
        a.dir == CommDir::Send && run.iter().any(|b| b.dir == CommDir::Recv && b.peer == a.peer)
    });
    if cross && run.len() > 1 {
        out.push(Action::BatchedComm(std::mem::take(run)));
    } else {
        out.extend(run.drain(..).map(Action::Comm));
    }
}

/// Lower a compute schedule into a complete executable [`Schedule`].
pub fn lower(cs: &ComputeSchedule) -> Schedule {
    let mut lists = Vec::with_capacity(cs.per_device.len());
    for (d, ops) in cs.per_device.iter().enumerate() {
        let device = DeviceId(d as u32);
        let mut actions: Vec<Action> = Vec::with_capacity(ops.len() * 2 + 1);
        // Pending comm ops not yet flushed into `actions` (the current run).
        let mut run: Vec<CommOp> = Vec::new();
        for &op in ops {
            if let Some((peer, tag)) = upstream(&cs.stage_map, op) {
                run.push(CommOp { dir: CommDir::Recv, peer, tag });
            }
            emit_run(&mut run, &mut actions);
            actions.push(if op.backward {
                Action::Backward { mb: op.mb, stage: op.stage }
            } else {
                Action::Forward { mb: op.mb, stage: op.stage }
            });
            if let Some((peer, tag)) = downstream(cs, op) {
                run.push(CommOp { dir: CommDir::Send, peer, tag });
            }
        }
        emit_run(&mut run, &mut actions);
        actions.push(Action::OptimizerStep);
        lists.push(ActionList { device, actions });
    }
    Schedule { config: cs.config, stage_map: cs.stage_map.clone(), lists }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{PipelineConfig, Scheme};
    use crate::program::Program;
    use crate::schedule::build_compute_schedule;

    fn lowered(p: u32, b: u32, scheme: Scheme) -> Schedule {
        let cfg = PipelineConfig::new(p, b, scheme).unwrap();
        lower(&build_compute_schedule(&cfg).unwrap())
    }

    #[test]
    fn sends_and_recvs_match_for_all_schemes() {
        for scheme in [
            Scheme::GPipe,
            Scheme::Dapple,
            Scheme::Chimera,
            Scheme::Hanayo { waves: 1 },
            Scheme::Hanayo { waves: 2 },
            Scheme::Interleaved { chunks: 2 },
        ] {
            // Lowering pairs every message: one send, one receive, on the
            // devices each names.
            assert!(Program::lower(&lowered(4, 4, scheme)).is_ok(), "{scheme}");
            assert!(Program::lower(&lowered(4, 8, scheme)).is_ok(), "{scheme}");
        }
    }

    #[test]
    fn straight_pipe_batches_only_at_phase_boundary() {
        // In GPipe the only bidirectional exchange with a single peer is
        // the forward/backward turnaround (send last activation downstream,
        // receive first gradient from the same peer). Any batch must
        // therefore pair exactly one activation send with gradient recvs —
        // never two messages of the same payload in the same direction pair.
        let s = lowered(4, 4, Scheme::GPipe);
        for (_, a) in s.iter_actions() {
            if let Action::BatchedComm(ops) = a {
                let act_sends = ops
                    .iter()
                    .filter(|o| o.dir == CommDir::Send && o.tag.payload == Payload::Activation)
                    .count();
                let grad_recvs = ops
                    .iter()
                    .filter(|o| o.dir == CommDir::Recv && o.tag.payload == Payload::Gradient)
                    .count();
                assert_eq!(
                    (act_sends + grad_recvs),
                    ops.len(),
                    "GPipe batch must be the turnaround pattern: {a}"
                );
            }
        }
    }

    #[test]
    fn wave_folds_produce_batched_cross_comm() {
        // Hanayo with ≥1 wave on ≥4 devices must batch at least one
        // bidirectional exchange (the §4.2 deadlock-avoidance case).
        let s = lowered(4, 4, Scheme::Hanayo { waves: 2 });
        let batches = s.iter_actions().filter(|(_, a)| matches!(a, Action::BatchedComm(_))).count();
        assert!(batches > 0, "expected cross-communication batches");
    }

    #[test]
    fn fold_and_wave_boundaries_are_silent() {
        // The fold (stage P-1 → P) shares a device, so no *activation* ever
        // flows into stage P and no *gradient* ever flows into stage P-1.
        let s = lowered(4, 4, Scheme::Hanayo { waves: 1 });
        for (_, a) in s.iter_actions() {
            for op in a.comm_ops() {
                match op.tag.payload {
                    Payload::Activation => {
                        assert_ne!(op.tag.stage.0, 4, "fold activation should be local")
                    }
                    Payload::Gradient => {
                        assert_ne!(op.tag.stage.0, 3, "fold gradient should be local")
                    }
                }
            }
        }
    }

    #[test]
    fn message_volume_scales_with_waves() {
        let count = |s: &Schedule| {
            s.iter_actions()
                .map(|(_, a)| a.comm_ops().iter().filter(|o| o.dir == CommDir::Send).count())
                .sum::<usize>()
        };
        let h1 = count(&lowered(4, 4, Scheme::Hanayo { waves: 1 }));
        let h2 = count(&lowered(4, 4, Scheme::Hanayo { waves: 2 }));
        let h4 = count(&lowered(4, 4, Scheme::Hanayo { waves: 4 }));
        assert!(h1 < h2 && h2 < h4, "waves must add communication: {h1} {h2} {h4}");
    }

    #[test]
    fn first_forward_never_receives() {
        let s = lowered(4, 4, Scheme::Dapple);
        // Device 0's first action must be compute (stage 0 has no input).
        assert!(s.lists[0].actions[0].is_compute());
    }
}
