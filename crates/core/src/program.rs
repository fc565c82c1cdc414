//! The lowered program every engine reads.
//!
//! [`Program::lower`] turns a [`Schedule`]'s action lists into dense
//! per-device opcodes: every message tag becomes a flat key over the
//! schedule's `B·S·2` tag space, every action one fixed-size [`Op`]. It
//! also pairs each key's one send with its one receive into a [`Message`],
//! so pairing is decided here and nowhere else: the simulator
//! (`hanayo_sim::engine`) keys its rendezvous state by it, the threaded
//! runtime (`hanayo_runtime::worker`) its tensor slots and mailbox
//! matches, and the static analyzer (`hanayo_analyze`) its FIFO check.
//! A tag outside the key space, or a message without exactly one send and
//! one receive on the devices each names, is a [`ProgramError`] here, not
//! an out-of-bounds index, a stall or a mid-run failure in an engine.
//!
//! [`Program::replay`] is the one happens-before walk over a lowered
//! program: the analyzer's deadlock proof and critical path, the unit
//! Gantt (`gantt::replay_timeline`) and the runtime's pre-flight are each
//! one call of it under their own clock. A circular wait comes back from
//! it as a [`Stall`].

use crate::action::{Action, CommDir, CommOp, MsgTag, Payload, Schedule};
use crate::ids::{DeviceId, MicroBatch, StageId};
use serde::{Deserialize, Serialize};
use std::fmt;
use std::ops::Add;

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

/// One message: the send on `src` paired with the receive on `dst`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Message {
    /// Sending device.
    pub src: DeviceId,
    /// Receiving device.
    pub dst: DeviceId,
    /// Index of the action posting the send in `src`'s list.
    pub send_at: u32,
    /// Index of the action blocking on the receive in `dst`'s list.
    pub recv_at: u32,
}

/// A schedule lowered to dense opcodes and paired messages; see the
/// [module docs](self).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Program {
    micro_batches: u32,
    stages: u32,
    /// Opcode list per device.
    ops: Vec<Vec<Op>>,
    /// Flattened batch members, referenced by [`Op::Batch`] ranges.
    members: Vec<Op>,
    /// The paired message of each key, `None` for a key nothing sends.
    messages: Vec<Option<Message>>,
}

/// What is wrong with the action a [`ProgramError`] names.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Defect {
    /// The tag lies outside the schedule's key space.
    OutsideKeySpace,
    /// A receive no send pairs with.
    UnmatchedRecv,
    /// A send whose destination never posts the receive.
    UnmatchedSend,
    /// A second receive of the key (on any device), or a second send to
    /// its receiver.
    Duplicate,
    /// A receive naming another peer than the device sending it.
    PeerMismatch {
        /// Peer the receive names.
        declared: DeviceId,
        /// Device posting the send.
        actual: DeviceId,
    },
}

/// An action that does not lower: its tag is outside the schedule's key
/// space, or its message is not one send paired with one receive. A
/// compute action is named by the tag it consumes: its input activation,
/// or its output gradient for a backward.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ProgramError {
    /// Device whose action list holds the action.
    pub device: DeviceId,
    /// Index of the action in that list.
    pub action: usize,
    /// The offending tag.
    pub tag: MsgTag,
    /// What is wrong with it.
    pub defect: Defect,
}

impl fmt::Display for ProgramError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let ProgramError { device, action, tag, defect } = self;
        match defect {
            Defect::OutsideKeySpace => {
                write!(f, "{device} action {action}: tag {tag} outside the schedule's key space")
            }
            Defect::UnmatchedRecv => {
                write!(f, "recv[{tag}] at {device}#{action} has no matching send")
            }
            Defect::UnmatchedSend => {
                write!(f, "send[{tag}] at {device}#{action} has no matching recv")
            }
            Defect::Duplicate => write!(f, "message {tag} duplicated at {device}#{action}"),
            Defect::PeerMismatch { declared, actual } => write!(
                f,
                "recv[{tag}] at {device}#{action} names peer {declared}, sender is {actual}"
            ),
        }
    }
}

impl std::error::Error for ProgramError {}

/// A circular wait: devices left blocked when no posted message can wake
/// them. Names the lowest waiting device, the action it waits at, the
/// message it waits for (for a batch, its first member receive whose send
/// was never posted) and that message's sender, itself waiting.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Stall {
    /// The lowest waiting device.
    pub device: DeviceId,
    /// Index of the receive or batch it waits at in its list.
    pub action: usize,
    /// The message it waits for.
    pub tag: MsgTag,
    /// The device that would send it.
    pub waits_on: DeviceId,
}

impl fmt::Display for Stall {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let Stall { device, action, tag, waits_on } = self;
        write!(f, "{device}#{action} waits for {tag} from {waits_on}, which never sends it")
    }
}

impl std::error::Error for Stall {}

impl Program {
    /// Lower every device's action list, one [`Op`] per action, and pair
    /// every message. The first action (device by device, in list order)
    /// whose tag falls outside the key space is the error; then, in the
    /// same order, a second receive of a key, a send with no receive on
    /// its peer, a second send of a key, a receive naming the wrong peer
    /// (named at the receive), and last a receive nothing sends.
    pub fn lower(schedule: &Schedule) -> Result<Program, ProgramError> {
        let (micro_batches, stages) = (schedule.config.micro_batches, schedule.stage_map.stages);
        let space =
            Program { micro_batches, stages, ops: vec![], members: vec![], messages: vec![] };
        let (mut ops, mut members) = (Vec::with_capacity(schedule.lists.len()), Vec::new());
        let mut posted = Vec::new();
        for (d, list) in schedule.lists.iter().enumerate() {
            let mut device_ops = Vec::with_capacity(list.actions.len());
            for (action, a) in list.actions.iter().enumerate() {
                let device = DeviceId(d as u32);
                let key = |tag| {
                    let defect = Defect::OutsideKeySpace;
                    space.key(tag).ok_or(ProgramError { device, action, tag, defect })
                };
                let mut comm = |op: &CommOp| {
                    let key = key(op.tag)?;
                    posted.push(Posted { device, action, op: *op, key });
                    Ok(match op.dir {
                        CommDir::Send => Op::Send { peer: op.peer.0, key },
                        CommDir::Recv => Op::Recv { key },
                    })
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
        let messages = pair(&posted, space.keys())?;
        Ok(Program { ops, members, messages, ..space })
    }

    /// The paired send and receive of message `key`; `None` for a key no
    /// action sends.
    pub fn message(&self, key: u32) -> Option<Message> {
        self.messages.get(key as usize).copied().flatten()
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

    /// Walk the program in happens-before order under the clock `T`, with
    /// the rules every engine shares: a device runs its ops in order; a
    /// compute lasts `compute(device, op)`; a send is posted when its
    /// device reaches it and never blocks; a receive completes
    /// `transfer(key)` after its send was posted, and not before the
    /// device reaches it; a batch posts its sends on entry and completes
    /// when every member receive has. Every other op takes no time.
    /// `visit(device, index, op, enter, exit)` sees each op once, each
    /// device's in list order.
    ///
    /// The walk is event-driven — a blocked device resumes when the
    /// message it waits for is posted — so it is linear in ops. Devices
    /// left waiting are a circular wait, returned as the [`Stall`] of the
    /// lowest one.
    pub fn replay<T>(
        &self,
        mut compute: impl FnMut(usize, Op) -> T,
        mut transfer: impl FnMut(u32) -> T,
        mut visit: impl FnMut(usize, usize, Op, T, T),
    ) -> Result<(), Stall>
    where
        T: Copy + Default + PartialOrd + Add<Output = T>,
    {
        /// What the walk knows of one key's send.
        #[derive(Clone, Copy)]
        enum Sent<T> {
            Not,
            Awaited(usize),
            At(T),
        }
        let devices = self.ops.len();
        let (mut pc, mut clock) = (vec![0usize; devices], vec![T::default(); devices]);
        let mut sent = vec![Sent::Not; self.keys()];
        let mut ready: Vec<usize> = (0..devices).rev().collect();
        while let Some(d) = ready.pop() {
            'ops: while let Some(op) = self.ops[d].get(pc[d]) {
                let (enter, members) = (clock[d], self.members_of(op));
                for member in members {
                    if let Op::Send { key, .. } = *member {
                        if let Sent::Awaited(waiter) =
                            std::mem::replace(&mut sent[key as usize], Sent::At(enter))
                        {
                            ready.push(waiter);
                        }
                    }
                }
                let mut exit = match *op {
                    Op::Compute { .. } => enter + compute(d, *op),
                    _ => enter,
                };
                for key in members.iter().filter_map(Op::recv_key) {
                    let Sent::At(at) = sent[key as usize] else {
                        sent[key as usize] = Sent::Awaited(d);
                        break 'ops;
                    };
                    let arrival = at + transfer(key);
                    if arrival > exit {
                        exit = arrival;
                    }
                }
                visit(d, pc[d], *op, enter, exit);
                (clock[d], pc[d]) = (exit, pc[d] + 1);
            }
        }
        let Some(d) = (0..devices).find(|&d| pc[d] < self.ops[d].len()) else { return Ok(()) };
        let mut recvs = self.members_of(&self.ops[d][pc[d]]).iter().filter_map(Op::recv_key);
        let key = recvs.find(|&k| !matches!(sent[k as usize], Sent::At(_))).unwrap_or_default();
        Err(self.stall(d, pc[d], key))
    }

    /// The members of a batch, or the op itself: the sends and receives
    /// an op posts, in order.
    pub fn members_of<'a>(&'a self, op: &'a Op) -> &'a [Op] {
        match *op {
            Op::Batch { start, end } => self.members(start, end),
            _ => std::slice::from_ref(op),
        }
    }

    /// [`Program::replay`] with every duration zero: `Ok` when every
    /// device runs to the end of its list, else the circular wait.
    pub fn check_deadlock(&self) -> Result<(), Stall> {
        self.replay(|_, _| 0u8, |_| 0, |_, _, _, _, _| {})
    }

    /// The [`Stall`] of `device` blocked at `action` on message `key`.
    pub fn stall(&self, device: usize, action: usize, key: u32) -> Stall {
        let device = DeviceId(device as u32);
        let waits_on = self.message(key).map_or(device, |m| m.src);
        Stall { device, action, tag: self.tag(key), waits_on }
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

/// One send or receive as lowered: where it sits, and its key.
#[derive(Clone, Copy)]
struct Posted {
    device: DeviceId,
    action: usize,
    op: CommOp,
    key: u32,
}

impl Posted {
    fn error(&self, defect: Defect) -> ProgramError {
        ProgramError { device: self.device, action: self.action, tag: self.op.tag, defect }
    }
}

/// Pair each key's one send with its one receive, refusing the defects in
/// the order [`Program::lower`] documents.
fn pair(posted: &[Posted], keys: usize) -> Result<Vec<Option<Message>>, ProgramError> {
    let recvs = || posted.iter().filter(|p| p.op.dir == CommDir::Recv);
    let mut recv_of: Vec<Option<&Posted>> = vec![None; keys];
    for recv in recvs() {
        if recv_of[recv.key as usize].replace(recv).is_some() {
            return Err(recv.error(Defect::Duplicate));
        }
    }
    let mut messages = vec![None; keys];
    for send in posted.iter().filter(|p| p.op.dir == CommDir::Send) {
        let Some(recv) = recv_of[send.key as usize].filter(|r| r.device == send.op.peer) else {
            return Err(send.error(Defect::UnmatchedSend));
        };
        let message = &mut messages[send.key as usize];
        if message.is_some() {
            return Err(send.error(Defect::Duplicate));
        }
        if recv.op.peer != send.device {
            let (declared, actual) = (recv.op.peer, send.device);
            return Err(recv.error(Defect::PeerMismatch { declared, actual }));
        }
        *message = Some(Message {
            src: send.device,
            dst: recv.device,
            send_at: send.action as u32,
            recv_at: recv.action as u32,
        });
    }
    match recvs().find(|r| messages[r.key as usize].is_none()) {
        Some(orphan) => Err(orphan.error(Defect::UnmatchedRecv)),
        None => Ok(messages),
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

    fn dapple(p: u32, b: u32) -> Schedule {
        build_schedule(&PipelineConfig::new(p, b, Scheme::Dapple).unwrap()).unwrap()
    }

    /// Index of `device`'s first single `dir` action and its op.
    fn first_comm(s: &Schedule, device: usize, dir: CommDir) -> (usize, CommOp) {
        s.lists[device]
            .actions
            .iter()
            .enumerate()
            .find_map(|(i, a)| match a {
                Action::Comm(op) if op.dir == dir => Some((i, *op)),
                _ => None,
            })
            .unwrap()
    }

    fn refused(s: &Schedule, device: u32, action: usize, tag: MsgTag, defect: Defect) {
        let err = Program::lower(s).unwrap_err();
        assert_eq!(err, ProgramError { device: DeviceId(device), action, tag, defect });
    }

    #[test]
    fn a_tag_outside_the_key_space_names_device_action_and_tag() {
        let mut schedule = dapple(2, 2);
        let (action, _) = first_comm(&schedule, 1, CommDir::Recv);
        let Action::Comm(op) = &mut schedule.lists[1].actions[action] else { unreachable!() };
        op.tag.mb = MicroBatch(99);
        let tag = op.tag;
        refused(&schedule, 1, action, tag, Defect::OutsideKeySpace);
        assert_eq!(
            Program::lower(&schedule).unwrap_err().to_string(),
            format!("P1 action {action}: tag act:mb99@S1 outside the schedule's key space")
        );

        // A compute outside the space is named by the tag it consumes.
        let mut schedule = dapple(2, 2);
        schedule.lists[0].actions[0] = Action::Backward { mb: MicroBatch(0), stage: StageId(7) };
        let err = Program::lower(&schedule).unwrap_err();
        assert_eq!((err.device, err.action, err.defect), (DeviceId(0), 0, Defect::OutsideKeySpace));
        assert_eq!(err.tag.to_string(), "grad:mb0@S7");
    }

    #[test]
    fn a_dropped_send_leaves_its_receive_unmatched() {
        let mut schedule = dapple(4, 4);
        let (send, op) = first_comm(&schedule, 0, CommDir::Send);
        schedule.lists[0].actions.remove(send);
        let (recv, _) = first_comm(&schedule, 1, CommDir::Recv);
        refused(&schedule, 1, recv, op.tag, Defect::UnmatchedRecv);
        assert_eq!(
            Program::lower(&schedule).unwrap_err().to_string(),
            format!("recv[act:mb0@S1] at P1#{recv} has no matching send")
        );
    }

    #[test]
    fn a_dropped_receive_leaves_its_send_unmatched() {
        let mut schedule = dapple(4, 4);
        let (recv, op) = first_comm(&schedule, 1, CommDir::Recv);
        schedule.lists[1].actions.remove(recv);
        let (send, _) = first_comm(&schedule, 0, CommDir::Send);
        refused(&schedule, 0, send, op.tag, Defect::UnmatchedSend);
        assert_eq!(
            Program::lower(&schedule).unwrap_err().to_string(),
            format!("send[act:mb0@S1] at P0#{send} has no matching recv")
        );
    }

    #[test]
    fn a_message_received_on_two_devices_or_sent_twice_is_a_duplicate() {
        // Device 0 also sends its first activation to device 2, which
        // receives it too: two receives of one key.
        let mut schedule = dapple(4, 4);
        let (_, send) = first_comm(&schedule, 0, CommDir::Send);
        let tag = send.tag;
        let step = schedule.lists[0].actions.len() - 1;
        let to_2 = CommOp { peer: DeviceId(2), ..send };
        schedule.lists[0].actions.insert(step, Action::Comm(to_2));
        let recv = CommOp { dir: CommDir::Recv, peer: DeviceId(0), tag };
        let at = schedule.lists[2].actions.len() - 1;
        schedule.lists[2].actions.insert(at, Action::Comm(recv));
        refused(&schedule, 2, at, tag, Defect::Duplicate);
        assert_eq!(
            Program::lower(&schedule).unwrap_err().to_string(),
            format!("message act:mb0@S1 duplicated at P2#{at}")
        );

        // The same send posted twice to its one receiver.
        let mut schedule = dapple(4, 4);
        let step = schedule.lists[0].actions.len() - 1;
        schedule.lists[0].actions.insert(step, Action::Comm(send));
        refused(&schedule, 0, step, tag, Defect::Duplicate);
    }

    #[test]
    fn a_receive_naming_the_wrong_peer_is_named_at_the_receive() {
        let mut schedule = dapple(4, 4);
        let (recv, op) = first_comm(&schedule, 1, CommDir::Recv);
        let Action::Comm(op_mut) = &mut schedule.lists[1].actions[recv] else { unreachable!() };
        op_mut.peer = DeviceId(2);
        let defect = Defect::PeerMismatch { declared: DeviceId(2), actual: DeviceId(0) };
        refused(&schedule, 1, recv, op.tag, defect);
        assert_eq!(
            Program::lower(&schedule).unwrap_err().to_string(),
            format!("recv[act:mb0@S1] at P1#{recv} names peer P2, sender is P0")
        );
    }

    #[test]
    fn every_message_pairs_its_send_with_its_receive() {
        for scheme in seven_schemes() {
            let schedule = build_schedule(&PipelineConfig::new(4, 8, scheme).unwrap()).unwrap();
            let program = Program::lower(&schedule).unwrap();
            let mut paired = 0;
            for (d, list) in schedule.lists.iter().enumerate() {
                for (i, a) in list.actions.iter().enumerate() {
                    for op in a.comm_ops() {
                        let m = program.message(program.key(op.tag).unwrap()).unwrap();
                        let (at, here) = match op.dir {
                            CommDir::Send => (m.send_at, m.src),
                            CommDir::Recv => (m.recv_at, m.dst),
                        };
                        assert_eq!((at as usize, here), (i, DeviceId(d as u32)), "{scheme}");
                        paired += (op.dir == CommDir::Send) as usize;
                    }
                }
            }
            let keys = (0..program.keys() as u32).filter(|&k| program.message(k).is_some());
            assert_eq!(keys.count(), paired, "{scheme}: one message per send");
        }
    }
}
