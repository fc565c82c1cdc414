//! The seed discrete-event engine, kept verbatim as a *test oracle*.
//!
//! [`simulate_reference`] is the original `HashMap`/`HashSet`-keyed
//! executor the repository shipped with. The production engine in
//! [`crate::engine`] replaces its per-op hash churn with flat index-keyed
//! vectors and a precomputed prefetch table, but it must stay
//! *bit-identical* in every report it produces: the cross-engine tests in
//! `engine.rs` and `tests/engine_equivalence.rs` pit the two against each
//! other. Its in-loop stash accounting is the independent check on the
//! liveness fold the fast engine reports as `peak_mem`. Nothing outside
//! tests calls it. Keep this file boring — any behavioural change here
//! invalidates the oracle the fast path is checked against.

use crate::engine::{SimOptions, LOOKAHEAD_WINDOW};
use crate::report::{SimReport, SimSpan};
use hanayo_analyze::device_bytes;
use hanayo_cluster::ClusterSpec;
use hanayo_core::action::{Action, CommDir, MsgTag, Schedule};
use hanayo_model::CostTable;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap, HashSet};

/// Totally-ordered wrapper for event times.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Tm(f64);

impl Eq for Tm {}
impl PartialOrd for Tm {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Tm {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.total_cmp(&other.0)
    }
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum Ev {
    ComputeDone { dev: usize, mb: u32, stage: u32, backward: bool, start: f64 },
    Arrived { dst: usize, tag: MsgTag },
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum DevState {
    Idle,
    Computing,
    WaitRecv(MsgTag),
    /// Blocked in the batch at this action index.
    WaitBatch(usize),
    Done,
}

/// Links serialise per directed device pair inside a node and per directed
/// node pair across nodes (one HCA per node).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum LinkKey {
    Intra(u32, u32),
    Inter(u32, u32),
}

struct Engine<'a> {
    schedule: &'a Schedule,
    cost: &'a CostTable,
    cluster: &'a ClusterSpec,
    opts: SimOptions,

    pc: Vec<usize>,
    state: Vec<DevState>,
    block_start: Vec<f64>,
    finish: Vec<f64>,

    send_posted: HashMap<(usize, MsgTag), (usize, f64)>,
    recv_posted: HashMap<(usize, MsgTag), f64>,
    scheduled: HashSet<(usize, MsgTag)>,
    arrived: HashSet<(usize, MsgTag)>,
    link_free: HashMap<LinkKey, f64>,

    events: BinaryHeap<Reverse<(Tm, u64, usize)>>,
    event_pool: Vec<Ev>,
    seq: u64,

    busy: Vec<f64>,
    comm_wait: Vec<f64>,
    spans: Vec<Vec<SimSpan>>,
    cur_mem: Vec<u64>,
    peak_mem: Vec<u64>,
}

impl<'a> Engine<'a> {
    fn push_event(&mut self, t: f64, ev: Ev) {
        self.event_pool.push(ev);
        self.events.push(Reverse((Tm(t), self.seq, self.event_pool.len() - 1)));
        self.seq += 1;
    }

    fn link_key(&self, src: usize, dst: usize) -> LinkKey {
        let (na, nb) = (self.cluster.node[src], self.cluster.node[dst]);
        if na == nb {
            LinkKey::Intra(src as u32, dst as u32)
        } else {
            LinkKey::Inter(na, nb)
        }
    }

    /// Start the transfer for `(dst, tag)` if both halves are posted.
    fn try_schedule(&mut self, dst: usize, tag: MsgTag) {
        if self.scheduled.contains(&(dst, tag)) {
            return;
        }
        let Some(&(src, t_send)) = self.send_posted.get(&(dst, tag)) else { return };
        let Some(&t_recv) = self.recv_posted.get(&(dst, tag)) else { return };
        let ready = t_send.max(t_recv);
        let link = self.cluster.p2p(src, dst);
        let key = self.link_key(src, dst);
        let free = self.link_free.get(&key).copied().unwrap_or(0.0).max(ready);
        let occupancy = if link.bandwidth.is_finite() {
            self.cost.msg_bytes as f64 / link.bandwidth
        } else {
            0.0
        };
        self.link_free.insert(key, free + occupancy);
        self.scheduled.insert((dst, tag));
        self.push_event(free + occupancy + link.latency, Ev::Arrived { dst, tag });
    }

    fn post_recv(&mut self, dst: usize, tag: MsgTag, now: f64) {
        self.recv_posted.entry((dst, tag)).or_insert(now);
        self.try_schedule(dst, tag);
    }

    fn post_send(&mut self, src: usize, dst: usize, tag: MsgTag, now: f64) {
        self.send_posted.entry((dst, tag)).or_insert((src, now));
        self.try_schedule(dst, tag);
    }

    /// §4.2 prefetch: at compute start, post the next `recv_lookahead`
    /// receive groups found within the lookahead window.
    fn prefetch(&mut self, d: usize, from: usize, now: f64) {
        let actions = &self.schedule.lists[d].actions;
        let mut groups = 0usize;
        for action in actions.iter().skip(from).take(LOOKAHEAD_WINDOW) {
            match action {
                Action::Comm(op) if op.dir == CommDir::Recv => {
                    self.post_recv(d, op.tag, now);
                    groups += 1;
                }
                Action::BatchedComm(ops) => {
                    for op in ops.clone() {
                        if op.dir == CommDir::Recv {
                            self.post_recv(d, op.tag, now);
                        }
                    }
                    groups += 1;
                }
                _ => {}
            }
            if groups >= self.opts.recv_lookahead {
                break;
            }
        }
    }

    /// Begin a forward/backward on device `d`; the device stays busy until
    /// the `ComputeDone` event fires.
    fn start_compute(&mut self, d: usize, now: f64, mb: u32, stage: u32, backward: bool) {
        let flops = if backward {
            self.cost.bwd_flops[stage as usize]
        } else {
            self.cost.fwd_flops[stage as usize]
        };
        let dt = flops / self.cluster.effective_flops(d);
        self.state[d] = DevState::Computing;
        self.pc[d] += 1;
        if self.opts.prefetch {
            self.prefetch(d, self.pc[d], now);
        }
        self.push_event(now + dt, Ev::ComputeDone { dev: d, mb, stage, backward, start: now });
    }

    /// Run device `d` forward from its program counter until it blocks,
    /// starts a compute, or finishes.
    fn advance(&mut self, d: usize, now: f64) {
        loop {
            let actions = &self.schedule.lists[d].actions;
            if self.pc[d] >= actions.len() {
                if self.state[d] != DevState::Done {
                    self.state[d] = DevState::Done;
                    self.finish[d] = now;
                }
                return;
            }
            match actions[self.pc[d]].clone() {
                Action::Forward { mb, stage } => {
                    self.start_compute(d, now, mb.0, stage.0, false);
                    return;
                }
                Action::Backward { mb, stage } => {
                    self.start_compute(d, now, mb.0, stage.0, true);
                    return;
                }
                Action::Comm(op) => match op.dir {
                    CommDir::Send => {
                        self.post_send(d, op.peer.idx(), op.tag, now);
                        self.pc[d] += 1;
                    }
                    CommDir::Recv => {
                        self.post_recv(d, op.tag, now);
                        if self.arrived.contains(&(d, op.tag)) {
                            self.pc[d] += 1;
                        } else {
                            self.state[d] = DevState::WaitRecv(op.tag);
                            self.block_start[d] = now;
                            return;
                        }
                    }
                },
                Action::BatchedComm(ops) => {
                    for op in &ops {
                        match op.dir {
                            CommDir::Send => self.post_send(d, op.peer.idx(), op.tag, now),
                            CommDir::Recv => self.post_recv(d, op.tag, now),
                        }
                    }
                    let all_in = ops
                        .iter()
                        .filter(|o| o.dir == CommDir::Recv)
                        .all(|o| self.arrived.contains(&(d, o.tag)));
                    if all_in {
                        self.pc[d] += 1;
                    } else {
                        self.state[d] = DevState::WaitBatch(self.pc[d]);
                        self.block_start[d] = now;
                        return;
                    }
                }
                Action::OptimizerStep => {
                    self.pc[d] += 1;
                }
            }
        }
    }

    fn handle(&mut self, t: f64, ev: Ev) {
        match ev {
            Ev::ComputeDone { dev, mb, stage, backward, start } => {
                self.busy[dev] += t - start;
                self.spans[dev].push(SimSpan { start, end: t, mb, stage, backward });
                let bytes = self.cost.stash_bytes[stage as usize];
                if backward {
                    self.cur_mem[dev] = self.cur_mem[dev].saturating_sub(bytes);
                } else {
                    self.cur_mem[dev] += bytes;
                    self.peak_mem[dev] = self.peak_mem[dev].max(self.cur_mem[dev]);
                }
                self.state[dev] = DevState::Idle;
                self.advance(dev, t);
            }
            Ev::Arrived { dst, tag } => {
                self.arrived.insert((dst, tag));
                match self.state[dst] {
                    DevState::WaitRecv(w) if w == tag => {
                        self.comm_wait[dst] += t - self.block_start[dst];
                        self.state[dst] = DevState::Idle;
                        self.pc[dst] += 1;
                        self.advance(dst, t);
                    }
                    DevState::WaitBatch(idx) => {
                        let Action::BatchedComm(ops) = &self.schedule.lists[dst].actions[idx]
                        else {
                            unreachable!("WaitBatch points at a batch")
                        };
                        let all_in = ops
                            .iter()
                            .filter(|o| o.dir == CommDir::Recv)
                            .all(|o| self.arrived.contains(&(dst, o.tag)));
                        if all_in {
                            self.comm_wait[dst] += t - self.block_start[dst];
                            self.state[dst] = DevState::Idle;
                            self.pc[dst] += 1;
                            self.advance(dst, t);
                        }
                    }
                    _ => {}
                }
            }
        }
    }
}

/// Execute one iteration of `schedule` with the seed engine. Semantics are
/// documented on [`crate::try_simulate_traced`]; this implementation exists to
/// cross-check and benchmark the indexed fast path against.
pub fn simulate_reference(
    schedule: &Schedule,
    cost: &CostTable,
    cluster: &ClusterSpec,
    opts: SimOptions,
) -> SimReport {
    let p = schedule.lists.len();
    assert_eq!(cluster.len(), p, "cluster size must match the pipeline");
    assert_eq!(
        cost.stages(),
        schedule.stage_map.stages as usize,
        "cost table must match the stage count"
    );

    let weight_mem = device_bytes(&schedule.stage_map, &cost.weight_bytes);
    let grad_mem = device_bytes(&schedule.stage_map, &cost.grad_bytes);

    let mut eng = Engine {
        schedule,
        cost,
        cluster,
        opts,
        pc: vec![0; p],
        state: vec![DevState::Idle; p],
        block_start: vec![0.0; p],
        finish: vec![0.0; p],
        send_posted: HashMap::new(),
        recv_posted: HashMap::new(),
        scheduled: HashSet::new(),
        arrived: HashSet::new(),
        link_free: HashMap::new(),
        events: BinaryHeap::new(),
        event_pool: Vec::new(),
        seq: 0,
        busy: vec![0.0; p],
        comm_wait: vec![0.0; p],
        spans: (0..p).map(|_| Vec::new()).collect(),
        cur_mem: weight_mem.clone(),
        peak_mem: weight_mem.clone(),
    };

    for d in 0..p {
        eng.advance(d, 0.0);
    }
    while let Some(Reverse((Tm(t), _, idx))) = eng.events.pop() {
        let ev = eng.event_pool[idx];
        eng.handle(t, ev);
    }
    assert!(
        eng.state.iter().all(|s| *s == DevState::Done),
        "simulation deadlocked: states {:?} pcs {:?}",
        eng.state,
        eng.pc
    );

    let iteration_time = eng.finish.iter().cloned().fold(0.0, f64::max);
    let total_busy: f64 = eng.busy.iter().sum();
    let bubble_ratio =
        if iteration_time > 0.0 { 1.0 - total_busy / (iteration_time * p as f64) } else { 0.0 };
    SimReport {
        iteration_time,
        device_busy: eng.busy,
        device_comm_wait: eng.comm_wait,
        bubble_ratio,
        peak_mem: eng.peak_mem,
        weight_mem,
        grad_mem,
        spans: eng.spans,
    }
}
