//! The lowered program both execution engines run.
//!
//! [`Program::lower`] turns a [`Schedule`]'s action lists into dense
//! per-device opcodes: every message tag becomes a flat key over the
//! schedule's `B·S·2` tag space, every action one fixed-size [`Op`]. The
//! simulator (`hanayo_sim::engine`) keys its rendezvous state by it, the
//! threaded runtime (`hanayo_runtime::worker`) its tensor slots and
//! mailbox matches. A tag outside the key space is a [`ProgramError`]
//! here, not an out-of-bounds index in either engine.

use crate::action::{Action, CommDir, CommOp, MsgTag, Payload, Schedule};
use crate::ids::{DeviceId, MicroBatch, StageId};
use std::fmt;

/// One lowered instruction: an [`Action`] with its tags resolved to keys.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// Forward (or backward) of micro-batch `mb` on global stage `stage`.
    Compute { mb: u32, stage: u32, backward: bool },
    /// Post message `key` to device `peer`.
    Send { peer: u32, key: u32 },
    /// Wait for message `key`.
    Recv { key: u32 },
    /// A batched communication: its members, each a `Send` or a `Recv`,
    /// are [`Program::members`]`(start, end)`.
    Batch { start: u32, end: u32 },
    /// The synchronous flush.
    Step,
}

impl Op {
    /// The key a `Recv` waits for (`None` for every other op).
    pub fn recv_key(&self) -> Option<u32> {
        match *self {
            Op::Recv { key } => Some(key),
            _ => None,
        }
    }
}

/// A schedule lowered to dense opcodes; see the [module docs](self).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Program {
    micro_batches: u32,
    stages: u32,
    /// Opcode list per device.
    ops: Vec<Vec<Op>>,
    /// Flattened batch members, referenced by [`Op::Batch`] ranges.
    members: Vec<Op>,
}

/// An action whose tag lies outside the schedule's key space. A compute
/// action is named by the tag it consumes: its input activation, or its
/// output gradient for a backward.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProgramError {
    /// Device whose action list holds the action.
    pub device: DeviceId,
    /// Index of the action in that list.
    pub action: usize,
    /// The offending tag.
    pub tag: MsgTag,
}

impl fmt::Display for ProgramError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let ProgramError { device, action, tag } = self;
        write!(f, "{device} action {action}: tag {tag} outside the schedule's key space")
    }
}

impl std::error::Error for ProgramError {}

impl Program {
    /// Lower every device's action list, one [`Op`] per action. The first
    /// action (device by device, in list order) whose tag falls outside
    /// the key space is the error.
    pub fn lower(schedule: &Schedule) -> Result<Program, ProgramError> {
        let (micro_batches, stages) = (schedule.config.micro_batches, schedule.stage_map.stages);
        let space = Program { micro_batches, stages, ops: Vec::new(), members: Vec::new() };
        let (mut ops, mut members) = (Vec::with_capacity(schedule.lists.len()), Vec::new());
        for (d, list) in schedule.lists.iter().enumerate() {
            let mut device_ops = Vec::with_capacity(list.actions.len());
            for (action, a) in list.actions.iter().enumerate() {
                let device = DeviceId(d as u32);
                let key = |tag| space.key(tag).ok_or(ProgramError { device, action, tag });
                let comm = |op: &CommOp| match op.dir {
                    CommDir::Send => key(op.tag).map(|key| Op::Send { peer: op.peer.0, key }),
                    CommDir::Recv => key(op.tag).map(|key| Op::Recv { key }),
                };
                device_ops.push(match a {
                    Action::Forward { mb, stage } | Action::Backward { mb, stage } => {
                        let backward = matches!(a, Action::Backward { .. });
                        let payload = [Payload::Activation, Payload::Gradient][backward as usize];
                        key(MsgTag { mb: *mb, stage: *stage, payload })?;
                        Op::Compute { mb: mb.0, stage: stage.0, backward }
                    }
                    Action::Comm(op) => comm(op)?,
                    Action::BatchedComm(batch) => {
                        let start = members.len() as u32;
                        for op in batch {
                            members.push(comm(op)?);
                        }
                        Op::Batch { start, end: members.len() as u32 }
                    }
                    Action::OptimizerStep => Op::Step,
                });
            }
            ops.push(device_ops);
        }
        Ok(Program { ops, members, ..space })
    }

    /// Micro-batches per iteration, `B`.
    pub fn micro_batches(&self) -> u32 {
        self.micro_batches
    }

    /// Pipeline stages, `S`.
    pub fn stages(&self) -> u32 {
        self.stages
    }

    /// Size of the key space, `B · S · 2`: every key is below it.
    pub fn keys(&self) -> usize {
        self.micro_batches as usize * self.stages as usize * 2
    }

    /// The key of `tag`, `(mb · S + stage) · 2` plus 1 for a gradient;
    /// `None` outside the key space.
    pub fn key(&self, tag: MsgTag) -> Option<u32> {
        let MsgTag { mb, stage, payload } = tag;
        (mb.0 < self.micro_batches && stage.0 < self.stages)
            .then(|| (mb.0 * self.stages + stage.0) * 2 + (payload == Payload::Gradient) as u32)
    }

    /// The tag of `key`, inverting [`Program::key`].
    pub fn tag(&self, key: u32) -> MsgTag {
        let (pair, payload) = (key / 2, [Payload::Activation, Payload::Gradient][key as usize % 2]);
        MsgTag { mb: MicroBatch(pair / self.stages), stage: StageId(pair % self.stages), payload }
    }

    /// Every device's opcodes, one per action of its list.
    pub fn ops(&self) -> &[Vec<Op>] {
        &self.ops
    }

    /// The members of [`Op::Batch`]` { start, end }`, in action order.
    pub fn members(&self, start: u32, end: u32) -> &[Op] {
        &self.members[start as usize..end as usize]
    }

    /// The key a compute of `mb` on `stage` consumes — its input
    /// activation (stage 0's forward reads the iteration's data instead)
    /// or its output gradient — and the one it produces: the next stage's
    /// activation, the last stage's turnaround gradient, or the previous
    /// stage's gradient (none for stage 0's backward).
    pub fn dataflow(&self, mb: u32, stage: u32, backward: bool) -> (u32, Option<u32>) {
        let pair = mb * self.stages + stage;
        let produced = match (backward, stage) {
            (false, s) if s + 1 < self.stages => Some(2 * pair + 2),
            (false, _) => Some(2 * pair + 1),
            (true, 0) => None,
            (true, _) => Some(2 * pair - 1),
        };
        (2 * pair + backward as u32, produced)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{PipelineConfig, Scheme};
    use crate::schedule::build_schedule;

    fn seven_schemes() -> [Scheme; 7] {
        [
            Scheme::GPipe,
            Scheme::Dapple,
            Scheme::Interleaved { chunks: 2 },
            Scheme::Chimera,
            Scheme::Hanayo { waves: 1 },
            Scheme::Hanayo { waves: 2 },
            Scheme::AsyncPipeDream,
        ]
    }

    #[test]
    fn keys_round_trip_every_message_tag_of_the_golden_schemes() {
        for p in [2u32, 4, 8] {
            for b in [p, 2 * p] {
                for scheme in seven_schemes() {
                    let schedule = build_schedule(&PipelineConfig::new(p, b, scheme).unwrap())
                        .unwrap_or_else(|e| panic!("{scheme} P={p} B={b}: {e}"));
                    let program = Program::lower(&schedule).unwrap();
                    let mut seen = 0;
                    for (_, action) in schedule.iter_actions() {
                        for op in action.comm_ops() {
                            let key = program.key(op.tag).expect("in the key space");
                            assert!((key as usize) < program.keys());
                            assert_eq!(program.tag(key), op.tag, "{scheme} P={p} B={b}");
                            seen += 1;
                        }
                    }
                    assert!(seen > 0, "{scheme} P={p} B={b} sends nothing");
                }
            }
        }
    }

    #[test]
    fn every_key_decodes_to_a_distinct_tag() {
        let schedule = build_schedule(&PipelineConfig::new(4, 8, Scheme::Dapple).unwrap()).unwrap();
        let program = Program::lower(&schedule).unwrap();
        for key in 0..program.keys() as u32 {
            assert_eq!(program.key(program.tag(key)), Some(key));
        }
    }

    #[test]
    fn ops_mirror_the_action_lists() {
        let schedule =
            build_schedule(&PipelineConfig::new(4, 4, Scheme::Hanayo { waves: 2 }).unwrap())
                .unwrap();
        let program = Program::lower(&schedule).unwrap();
        assert_eq!(program.ops().len(), 4);
        for (d, list) in schedule.lists.iter().enumerate() {
            let ops = &program.ops()[d];
            assert_eq!(ops.len(), list.actions.len());
            for (op, action) in ops.iter().zip(&list.actions) {
                let comm = |o: &Op| match *o {
                    Op::Send { peer, key } => (CommDir::Send, Some(peer), program.tag(key)),
                    Op::Recv { key } => (CommDir::Recv, None, program.tag(key)),
                    other => panic!("{other:?} is not a message op"),
                };
                match (op, action) {
                    (Op::Compute { mb, stage, backward }, a) => {
                        let c = a.compute_op().expect("a compute action");
                        assert_eq!((*mb, *stage, *backward), (c.mb.0, c.stage.0, c.backward));
                    }
                    (Op::Batch { start, end }, Action::BatchedComm(batch)) => {
                        let members = program.members(*start, *end);
                        assert_eq!(members.len(), batch.len());
                        for (m, c) in members.iter().zip(batch) {
                            let peer = (c.dir == CommDir::Send).then_some(c.peer.0);
                            assert_eq!(comm(m), (c.dir, peer, c.tag));
                        }
                    }
                    (Op::Step, Action::OptimizerStep) => {}
                    (o, Action::Comm(c)) => {
                        let peer = (c.dir == CommDir::Send).then_some(c.peer.0);
                        assert_eq!(comm(o), (c.dir, peer, c.tag));
                    }
                    (o, a) => panic!("{o:?} lowered from {a}"),
                }
            }
        }
    }

    #[test]
    fn dataflow_follows_the_chain() {
        let schedule = build_schedule(&PipelineConfig::new(2, 2, Scheme::Dapple).unwrap()).unwrap();
        let program = Program::lower(&schedule).unwrap();
        let key = |mb, stage, payload| {
            program.key(MsgTag { mb: MicroBatch(mb), stage: StageId(stage), payload }).unwrap()
        };
        use Payload::{Activation as A, Gradient as G};
        assert_eq!(program.dataflow(1, 0, false), (key(1, 0, A), Some(key(1, 1, A))));
        assert_eq!(program.dataflow(1, 1, false), (key(1, 1, A), Some(key(1, 1, G))));
        assert_eq!(program.dataflow(1, 1, true), (key(1, 1, G), Some(key(1, 0, G))));
        assert_eq!(program.dataflow(1, 0, true), (key(1, 0, G), None));
    }

    #[test]
    fn a_tag_outside_the_key_space_names_device_action_and_tag() {
        let mut schedule =
            build_schedule(&PipelineConfig::new(2, 2, Scheme::Dapple).unwrap()).unwrap();
        let action = schedule.lists[1]
            .actions
            .iter()
            .position(|a| matches!(a, Action::Comm(op) if op.dir == CommDir::Recv))
            .unwrap();
        let Action::Comm(op) = &mut schedule.lists[1].actions[action] else { unreachable!() };
        op.tag.mb = MicroBatch(99);
        let tag = op.tag;
        let err = Program::lower(&schedule).unwrap_err();
        assert_eq!(err, ProgramError { device: DeviceId(1), action, tag });
        assert_eq!(
            err.to_string(),
            format!("P1 action {action}: tag act:mb99@S1 outside the schedule's key space")
        );

        // A compute outside the space is named by the tag it consumes.
        let mut schedule =
            build_schedule(&PipelineConfig::new(2, 2, Scheme::Dapple).unwrap()).unwrap();
        schedule.lists[0].actions[0] = Action::Backward { mb: MicroBatch(0), stage: StageId(7) };
        let err = Program::lower(&schedule).unwrap_err();
        assert_eq!((err.device, err.action), (DeviceId(0), 0));
        assert_eq!(err.tag.to_string(), "grad:mb0@S7");
    }
}
