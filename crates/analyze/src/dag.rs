//! The explicit happens-before DAG of a lowered [`Schedule`].
//!
//! Every action is split into an *enter* and an *exit* node, because the
//! engine's blocking semantics are asymmetric within one action: a
//! `BatchedComm` posts its member sends the moment the device
//! reaches it (enter) but completes only when every member receive has
//! arrived (exit). Modelling the batch as a single node would manufacture
//! cycles for exactly the §4.2 cross-communication pattern the batching
//! exists to make safe.
//!
//! Edges:
//!
//! * **span** `enter(a) → exit(a)` — the action's own duration;
//! * **program order** `exit(d, i) → enter(d, i+1)` — devices execute
//!   their lists serially;
//! * **message** `enter(send) → exit(recv)` — a rendezvous transfer can
//!   start once the send is posted, and the receiver cannot pass its
//!   blocking point before the message arrives.
//!
//! Messages are the pairs [`Program::lower`] made: the DAG is built from
//! the lowered program, so a schedule whose messages do not pair is
//! refused with the [`hanayo_core::program::ProgramError`] every engine
//! returns.
//!
//! A cycle in this graph is precisely a schedule the simulator reports as
//! [`SimError::Deadlock`]: sends never block, so the only wait chains run
//! through receive exits, and those are exactly the message edges.
//! Per-link FIFO serialisation is a *resource* constraint (transfers
//! queue, but the queue always drains), so it can delay a schedule but
//! never deadlock it — it is checked separately by
//! [`HappensBefore::check_fifo`] as a well-formedness property.
//!
//! [`SimError::Deadlock`]: https://docs.rs/hanayo-sim

use crate::error::{AnalysisError, CycleNode};
use hanayo_core::action::Schedule;
use hanayo_core::ids::DeviceId;
use hanayo_core::program::{Message, Op, Program};

/// Why an edge exists — enough to weight it later without storing floats.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum EdgeKind {
    /// Program order between consecutive actions of one device.
    Seq,
    /// Enter → exit of a single action (carries compute duration).
    Span,
    /// A paired point-to-point message from `src` to `dst`.
    Msg { src: u32, dst: u32 },
}

#[derive(Debug, Clone, Copy)]
pub(crate) struct Edge {
    pub(crate) to: u32,
    pub(crate) kind: EdgeKind,
}

/// The happens-before DAG of one lowered schedule.
pub(crate) struct HappensBefore<'a> {
    pub(crate) schedule: &'a Schedule,
    pub(crate) program: Program,
    /// First global action index of each device, plus the total as a cap.
    offsets: Vec<usize>,
    succs: Vec<Vec<Edge>>,
    /// Every message with its key, in sender program order.
    pub(crate) messages: Vec<(u32, Message)>,
}

impl<'a> HappensBefore<'a> {
    /// Lower the schedule and build the DAG over its paired messages.
    /// Returns the lowering's first defect if the messages do not pair.
    pub(crate) fn build(schedule: &'a Schedule) -> Result<HappensBefore<'a>, AnalysisError> {
        let program = Program::lower(schedule)?;
        let mut offsets = Vec::with_capacity(schedule.lists.len() + 1);
        let mut total = 0usize;
        for list in &schedule.lists {
            offsets.push(total);
            total += list.actions.len();
        }
        offsets.push(total);
        let mut succs = vec![Vec::new(); 2 * total];
        let mut edge =
            |from: usize, to: usize, kind| succs[from].push(Edge { to: to as u32, kind });

        // Structural edges: span + program order.
        for (d, list) in schedule.lists.iter().enumerate() {
            for i in 0..list.actions.len() {
                let g = offsets[d] + i;
                edge(2 * g, 2 * g + 1, EdgeKind::Span);
                if i + 1 < list.actions.len() {
                    edge(2 * g + 1, 2 * g + 2, EdgeKind::Seq);
                }
            }
        }

        // Message edges, send enter → receive exit, in sender program order.
        let mut messages = Vec::new();
        for op in program.ops().iter().flatten() {
            let members = match *op {
                Op::Batch { start, end } => program.members(start, end),
                _ => std::slice::from_ref(op),
            };
            for member in members {
                let Op::Send { key, .. } = *member else { continue };
                let Some(m) = program.message(key) else { continue };
                let send = offsets[m.src.idx()] + m.send_at as usize;
                let recv = offsets[m.dst.idx()] + m.recv_at as usize;
                edge(2 * send, 2 * recv + 1, EdgeKind::Msg { src: m.src.0, dst: m.dst.0 });
                messages.push((key, m));
            }
        }
        Ok(HappensBefore { schedule, program, offsets, succs, messages })
    }

    /// Number of edges (span + program order + message).
    pub(crate) fn edge_count(&self) -> usize {
        self.succs.iter().map(Vec::len).sum()
    }

    /// Number of `BatchedComm` actions in the schedule.
    pub(crate) fn batched_comms(&self) -> usize {
        self.program.ops().iter().flatten().filter(|op| matches!(op, Op::Batch { .. })).count()
    }

    /// Number of nodes (two per action).
    pub(crate) fn node_count(&self) -> usize {
        self.succs.len()
    }

    /// Outgoing edges of a node.
    pub(crate) fn successors(&self, node: u32) -> &[Edge] {
        &self.succs[node as usize]
    }

    /// Map a node id back to its `(device, action index)` coordinate.
    pub(crate) fn locate(&self, node: u32) -> (usize, usize) {
        let g = node as usize / 2;
        // offsets is sorted; the device owning g is the last offset <= g.
        let d = self.offsets.partition_point(|&o| o <= g) - 1;
        (d, g - self.offsets[d])
    }

    fn cycle_node(&self, node: u32) -> CycleNode {
        let (d, i) = self.locate(node);
        CycleNode {
            device: DeviceId(d as u32),
            index: i,
            action: self.schedule.lists[d].actions[i].to_string(),
        }
    }

    /// Topological order of the nodes, or the happens-before cycle that
    /// prevents one — which is exactly a deadlock witness.
    pub(crate) fn topo_order(&self) -> Result<Vec<u32>, AnalysisError> {
        let n = self.succs.len();
        // 0 = unvisited, 1 = on the DFS path, 2 = done.
        let mut color = vec![0u8; n];
        let mut order: Vec<u32> = Vec::with_capacity(n);
        // (node, next successor index) — an explicit DFS stack.
        let mut stack: Vec<(u32, usize)> = Vec::new();
        for root in 0..n as u32 {
            if color[root as usize] != 0 {
                continue;
            }
            color[root as usize] = 1;
            stack.push((root, 0));
            while let Some(&mut (node, ref mut next)) = stack.last_mut() {
                if let Some(edge) = self.succs[node as usize].get(*next) {
                    *next += 1;
                    match color[edge.to as usize] {
                        0 => {
                            color[edge.to as usize] = 1;
                            stack.push((edge.to, 0));
                        }
                        1 => {
                            // Back edge: the path from `edge.to` to `node`
                            // plus this edge is the cycle. Deduplicate
                            // enter/exit pairs into action coordinates.
                            let start = stack.iter().position(|&(v, _)| v == edge.to).unwrap_or(0);
                            let mut cycle: Vec<CycleNode> = Vec::new();
                            for &(v, _) in &stack[start..] {
                                let step = self.cycle_node(v);
                                if cycle.last() != Some(&step) {
                                    cycle.push(step);
                                }
                            }
                            cycle.push(self.cycle_node(edge.to));
                            return Err(AnalysisError::Cycle { cycle });
                        }
                        _ => {}
                    }
                } else {
                    color[node as usize] = 2;
                    order.push(node);
                    stack.pop();
                }
            }
        }
        order.reverse();
        Ok(order)
    }

    /// Per-link FIFO consistency: on every directed link, the receiver
    /// must block on messages in the order the sender posts them (ties —
    /// messages posted or awaited by the same action — are unordered and
    /// always fine). Tag-matched rendezvous tolerates inversions, but a
    /// FIFO channel would deadlock on one, so generators must not emit
    /// them.
    pub(crate) fn check_fifo(&self) -> Result<(), AnalysisError> {
        // A stable sort keeps each link's messages in sender program order.
        let mut by_link = self.messages.clone();
        by_link.sort_by_key(|(_, m)| (m.src, m.dst));
        let tag = |key| self.program.tag(key);
        for link in by_link.chunk_by(|(_, a), (_, b)| (a.src, a.dst) == (b.src, b.dst)) {
            // The latest receive over strictly-earlier sends.
            let mut frontier: Option<&(u32, Message)> = None;
            for group in link.chunk_by(|(_, a), (_, b)| a.send_at == b.send_at) {
                if let Some(&(first, prev)) = frontier {
                    if let Some(&(second, _)) = group.iter().find(|(_, m)| m.recv_at < prev.recv_at)
                    {
                        let (src, dst) = (prev.src, prev.dst);
                        let (first, second) = (tag(first), tag(second));
                        return Err(AnalysisError::FifoInversion { src, dst, first, second });
                    }
                }
                for sent in group {
                    if frontier.is_none_or(|(_, p)| sent.1.recv_at > p.recv_at) {
                        frontier = Some(sent);
                    }
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hanayo_core::action::{Action, CommDir, CommOp, MsgTag, Payload};
    use hanayo_core::config::{PipelineConfig, Scheme};
    use hanayo_core::ids::{MicroBatch, StageId};
    use hanayo_core::schedule::build_schedule;

    #[test]
    fn a_receive_order_inverting_the_send_order_is_a_fifo_inversion() {
        let mut s = build_schedule(&PipelineConfig::new(2, 2, Scheme::GPipe).unwrap()).unwrap();
        assert_eq!(HappensBefore::build(&s).unwrap().check_fifo(), Ok(()));
        // Device 1 blocks on micro-batch 1's activation before micro-batch
        // 0's, which device 0 posts first.
        let act =
            |mb| MsgTag { mb: MicroBatch(mb), stage: StageId(1), payload: Payload::Activation };
        let recv = |mb| {
            let op = CommOp { dir: CommDir::Recv, peer: DeviceId(0), tag: act(mb) };
            s.lists[1].actions.iter().position(|a| *a == Action::Comm(op)).unwrap()
        };
        let (first, second) = (recv(0), recv(1));
        s.lists[1].actions.swap(first, second);
        let expected = AnalysisError::FifoInversion {
            src: DeviceId(0),
            dst: DeviceId(1),
            first: act(0),
            second: act(1),
        };
        assert_eq!(HappensBefore::build(&s).unwrap().check_fifo(), Err(expected));
    }
}
