//! The discrete-event executor.
//!
//! Devices interpret their action lists exactly like the paper's runtime
//! workers: compute ops run serially on the device, sends are posted
//! without blocking, receives block until the message arrives (unless
//! prefetching posted them early enough for the transfer to complete in
//! the background), and batched cross-communication blocks until every
//! member receive lands.
//!
//! A transfer is *rendezvous*: it starts only when both sides have posted
//! their halves, then occupies its link for `bytes/bandwidth` (FIFO per
//! directed link; inter-node transfers additionally serialise per node
//! pair, modelling the shared HCA) and arrives after an extra wire
//! latency.
//!
//! ## The fast path
//!
//! This engine is the hot loop of the auto-tuner's strategy sweep, so the
//! per-event bookkeeping avoids hashing entirely. A schedule is first
//! *compiled*: every `(mb, stage, payload)` message tag becomes a dense
//! integer, every action becomes a fixed-size opcode with pre-resolved tag
//! keys, and the §4.2 prefetch scanner's receive-group windows are
//! extracted once per `(schedule, options)` pair instead of being rescanned
//! at every compute start. Rendezvous state (`send/recv posted`,
//! `scheduled`, `arrived`) then lives in flat vectors indexed by
//! `device · ntags + tag`, and link FIFO cursors in dense per-pair tables.
//! [`crate::reference::simulate_reference`] keeps the seed `HashMap`
//! implementation as the test oracle: the cross-engine tests here and in
//! `tests/engine_equivalence.rs` pin the two bit-identical.

use crate::report::{SimReport, SimSpan};
use hanayo_cluster::ClusterSpec;
use hanayo_core::action::{Action, CommDir, MsgTag, Payload, Schedule};
use hanayo_core::ids::StageId;
use hanayo_model::CostTable;
use hanayo_trace::{Trace, TraceEvent, TraceKind};
use serde::{Deserialize, Serialize};
use std::collections::BinaryHeap;
use std::fmt;

/// Engine knobs.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SimOptions {
    /// Post upcoming receives while computing (§4.2). On by default, as in
    /// the paper's runtime; turn off to measure the ablation.
    pub prefetch: bool,
    /// How many upcoming receive groups to post at each compute start.
    pub recv_lookahead: usize,
    /// How many actions ahead the prefetch scanner may look.
    pub lookahead_window: usize,
    /// Fraction of the data-parallel gradient all-reduce hidden behind the
    /// backward cooldown (DDP-style bucketing overlaps gradient
    /// communication with remaining compute; 0.8 is the conventional
    /// well-tuned figure). Only the exposed remainder is charged, and the
    /// value is clamped to `[0, 1]` at evaluation time.
    pub allreduce_overlap: f64,
    /// Lower the executed spans and transfers into a
    /// [`hanayo_trace::Trace`] (returned by [`try_simulate_traced`]). Off
    /// by default: the untraced fast path stays branch-cheap (the
    /// benchmark's `trace.overhead_share` row prices the difference).
    /// Tracing never perturbs the report — traced and untraced runs are
    /// bit-identical.
    pub trace: bool,
}

impl Default for SimOptions {
    fn default() -> Self {
        SimOptions {
            prefetch: true,
            recv_lookahead: 1,
            lookahead_window: 8,
            allreduce_overlap: 0.8,
            trace: false,
        }
    }
}

/// A non-finite or non-positive quantity that would corrupt the simulator.
///
/// `Tm`'s total order is well-defined even for NaN, but a NaN cost or
/// bandwidth silently poisons every downstream time; negative values
/// reorder the event heap. Inputs are therefore vetted up front: cost
/// entries must be finite and positive, bandwidths positive (infinite is
/// legal — loopback links), latencies finite and non-negative.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum NumericsError {
    /// A per-stage cost-table entry is not finite-positive.
    Cost {
        /// Which table (`fwd_flops`, `bwd_flops`, `layers_per_stage`).
        field: &'static str,
        /// Offending stage.
        stage: usize,
        /// Offending value.
        value: f64,
    },
    /// A link bandwidth is NaN or non-positive.
    Bandwidth {
        /// Link source device.
        src: usize,
        /// Link destination device.
        dst: usize,
        /// Offending value.
        value: f64,
    },
    /// A link latency is non-finite or negative.
    Latency {
        /// Link source device.
        src: usize,
        /// Link destination device.
        dst: usize,
        /// Offending value.
        value: f64,
    },
    /// The cluster's MFU is not finite-positive.
    Mfu {
        /// Offending value.
        value: f64,
    },
    /// `SimOptions::allreduce_overlap` is NaN or infinite.
    Overlap {
        /// Offending value.
        value: f64,
    },
}

impl fmt::Display for NumericsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NumericsError::Cost { field, stage, value } => {
                write!(f, "cost table {field}[{stage}] = {value} is not finite and positive")
            }
            NumericsError::Bandwidth { src, dst, value } => {
                write!(f, "link {src} -> {dst} bandwidth {value} is not positive")
            }
            NumericsError::Latency { src, dst, value } => {
                write!(f, "link {src} -> {dst} latency {value} is not finite and non-negative")
            }
            NumericsError::Mfu { value } => {
                write!(f, "cluster MFU {value} is not finite and positive")
            }
            NumericsError::Overlap { value } => {
                write!(f, "allreduce_overlap {value} is not finite")
            }
        }
    }
}

impl std::error::Error for NumericsError {}

/// Vet every number the engine will feed into event times. See
/// [`NumericsError`] for the exact rules. [`crate::evaluate_plan`] calls
/// this before simulating, and so does [`try_simulate_traced`].
pub fn validate_numerics(
    cost: &CostTable,
    cluster: &ClusterSpec,
    opts: &SimOptions,
) -> Result<(), NumericsError> {
    let check_table = |field: &'static str, table: &[f64]| {
        for (stage, &value) in table.iter().enumerate() {
            if !(value.is_finite() && value > 0.0) {
                return Err(NumericsError::Cost { field, stage, value });
            }
        }
        Ok(())
    };
    check_table("fwd_flops", &cost.fwd_flops)?;
    check_table("bwd_flops", &cost.bwd_flops)?;
    check_table("layers_per_stage", &cost.layers_per_stage)?;
    if !(cluster.mfu.is_finite() && cluster.mfu > 0.0) {
        return Err(NumericsError::Mfu { value: cluster.mfu });
    }
    for src in 0..cluster.len() {
        for dst in 0..cluster.len() {
            let link = cluster.p2p(src, dst);
            // Infinite bandwidth is the loopback/ideal link; NaN and
            // non-positive values are the poison.
            if link.bandwidth.is_nan() || link.bandwidth <= 0.0 {
                return Err(NumericsError::Bandwidth { src, dst, value: link.bandwidth });
            }
            if !(link.latency.is_finite() && link.latency >= 0.0) {
                return Err(NumericsError::Latency { src, dst, value: link.latency });
            }
        }
    }
    if !opts.allreduce_overlap.is_finite() {
        return Err(NumericsError::Overlap { value: opts.allreduce_overlap });
    }
    Ok(())
}

/// Static weight and fp16-gradient bytes per device (counts replicated
/// groups twice). Shared by both engines so their memory accounting cannot
/// drift apart.
pub(crate) fn static_device_mem(schedule: &Schedule, cost: &CostTable) -> (Vec<u64>, Vec<u64>) {
    let p = schedule.lists.len();
    let per_device_sum = |table: &[u64]| -> Vec<u64> {
        (0..p)
            .map(|d| {
                schedule
                    .stage_map
                    .modules_on(hanayo_core::ids::DeviceId(d as u32))
                    .iter()
                    .map(|&(_, StageId(s))| table[s as usize])
                    .sum()
            })
            .collect()
    };
    (per_device_sum(&cost.weight_bytes), per_device_sum(&cost.grad_bytes))
}

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
    ComputeDone { dev: u32, mb: u32, stage: u32, backward: bool, start: f64 },
    Arrived { dst: u32, key: u32 },
}

/// Pending event, carried inline in the heap. Ordered min-first by
/// `(t, seq)`; `seq` is unique per push, so the payload never participates
/// in the comparison and the pop order is the exact insertion-stable time
/// order the engine's determinism contract requires.
struct HeapEv {
    t: Tm,
    seq: u64,
    ev: Ev,
}

impl PartialEq for HeapEv {
    fn eq(&self, other: &Self) -> bool {
        self.t == other.t && self.seq == other.seq
    }
}
impl Eq for HeapEv {}
impl PartialOrd for HeapEv {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for HeapEv {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Reversed: `BinaryHeap` is a max-heap, the engine pops earliest
        // first.
        (other.t, other.seq).cmp(&(self.t, self.seq))
    }
}

/// Per-slot rendezvous state, one byte per `device · tag`. A single load
/// answers every "is the transfer ready/scheduled/arrived" question the
/// hot loop asks; post times live in parallel `f64` arrays that are only
/// read once the matching bit is set.
const SLOT_SEND: u8 = 1 << 0;
const SLOT_RECV: u8 = 1 << 1;
const SLOT_SCHED: u8 = 1 << 2;
const SLOT_ARRIVED: u8 = 1 << 3;

#[derive(Debug, Clone, Copy, PartialEq)]
enum DevState {
    Idle,
    Computing,
    /// Blocked on the message with this flat tag key.
    WaitRecv(u32),
    /// Blocked in the batch whose members are `batch_ops[start..end]`.
    WaitBatch(u32, u32),
    Done,
}

/// One compiled instruction: an [`Action`] with tags resolved to flat keys
/// and batched members flattened into side arrays.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Op {
    Compute {
        mb: u32,
        stage: u32,
        backward: bool,
    },
    Send {
        peer: u32,
        key: u32,
    },
    Recv {
        key: u32,
    },
    /// Members are `batch_ops[start..end]`.
    Batch {
        start: u32,
        end: u32,
    },
    Step,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct BatchMember {
    recv: bool,
    peer: u32,
    key: u32,
}

/// A schedule lowered for the fast path: dense tag keys, opcode lists, and
/// the prefetch scanner's receive-group windows extracted once.
#[derive(PartialEq, Eq)]
struct Compiled {
    /// Dense tag-space size: `micro_batches · stages · 2`.
    ntags: usize,
    /// Opcode list per device.
    ops: Vec<Vec<Op>>,
    /// Flattened `BatchedComm` members, referenced by `Op::Batch` ranges.
    batch_ops: Vec<BatchMember>,
    /// Per device, per action index: `prefetch_keys[start..end]` are the
    /// receive tags the §4.2 scanner would post at that program counter.
    /// Only indices that can follow a compute are populated.
    prefetch: Vec<Vec<(u32, u32)>>,
    /// Flat storage for the prefetch windows, in exact scan order.
    prefetch_keys: Vec<u32>,
}

fn tag_key(tag: MsgTag, stages: u32) -> u32 {
    let payload = match tag.payload {
        Payload::Activation => 0,
        Payload::Gradient => 1,
    };
    (tag.mb.0 * stages + tag.stage.0) * 2 + payload
}

fn compile(schedule: &Schedule, opts: &SimOptions) -> Compiled {
    let stages = schedule.stage_map.stages;
    let ntags = (schedule.config.micro_batches * stages * 2) as usize;
    let key = |tag: MsgTag| -> u32 {
        let k = tag_key(tag, stages);
        assert!((k as usize) < ntags, "tag {tag} outside the schedule's tag space");
        k
    };

    let mut batch_ops = Vec::new();
    let mut prefetch_keys = Vec::new();
    let mut ops = Vec::with_capacity(schedule.lists.len());
    let mut prefetch = Vec::with_capacity(schedule.lists.len());

    for list in &schedule.lists {
        let compiled: Vec<Op> = list
            .actions
            .iter()
            .map(|action| match action {
                Action::Forward { mb, stage } => {
                    Op::Compute { mb: mb.0, stage: stage.0, backward: false }
                }
                Action::Backward { mb, stage } => {
                    Op::Compute { mb: mb.0, stage: stage.0, backward: true }
                }
                Action::Comm(op) => match op.dir {
                    CommDir::Send => Op::Send { peer: op.peer.0, key: key(op.tag) },
                    CommDir::Recv => Op::Recv { key: key(op.tag) },
                },
                Action::BatchedComm(members) => {
                    let start = batch_ops.len() as u32;
                    batch_ops.extend(members.iter().map(|op| BatchMember {
                        recv: op.dir == CommDir::Recv,
                        peer: op.peer.0,
                        key: key(op.tag),
                    }));
                    Op::Batch { start, end: batch_ops.len() as u32 }
                }
                Action::OptimizerStep => Op::Step,
            })
            .collect();

        // Precompute the §4.2 scan for every program counter a compute can
        // leave behind (prefetch fires at `pc + 1` of a compute action),
        // replicating the reference scanner exactly: single receives and
        // batches each count as one group — a batch even when it contains
        // no receive — and members are posted in op order.
        let mut windows = vec![(0u32, 0u32); list.actions.len() + 1];
        for (i, window) in windows.iter_mut().enumerate() {
            if i == 0 || !list.actions[i - 1].is_compute() {
                continue;
            }
            let start = prefetch_keys.len() as u32;
            let mut groups = 0usize;
            for action in list.actions.iter().skip(i).take(opts.lookahead_window) {
                match action {
                    Action::Comm(op) if op.dir == CommDir::Recv => {
                        prefetch_keys.push(key(op.tag));
                        groups += 1;
                    }
                    Action::BatchedComm(members) => {
                        prefetch_keys.extend(
                            members
                                .iter()
                                .filter(|op| op.dir == CommDir::Recv)
                                .map(|op| key(op.tag)),
                        );
                        groups += 1;
                    }
                    _ => {}
                }
                if groups >= opts.recv_lookahead {
                    break;
                }
            }
            *window = (start, prefetch_keys.len() as u32);
        }

        ops.push(compiled);
        prefetch.push(windows);
    }

    Compiled { ntags, ops, batch_ops, prefetch, prefetch_keys }
}

/// A schedule lowered once for repeated simulation.
///
/// [`try_simulate_traced`] re-lowers its schedule on every call; inside a
/// tuner sweep the same `(schedule, lookahead options)` pair is simulated under
/// many cost tables and sub-clusters, so the lowering is pure overhead
/// after the first run. [`compile_schedule`] hoists it:
///
/// ```text
/// let compiled = compile_schedule(&schedule, &opts);
/// for (cost, sub) in variants {
///     let report = try_simulate_compiled(&compiled, &schedule, cost, sub, opts)?;
/// }
/// ```
///
/// The lowering bakes in exactly two option fields — `recv_lookahead` and
/// `lookahead_window`, which shape the prefetch windows — so one
/// `CompiledSchedule` is valid for every `SimOptions` agreeing on those
/// two (e.g. prefetch on/off share a lowering). [`try_simulate_compiled`]
/// rejects a mismatched reuse with [`SimError::StaleCompile`] rather than
/// silently simulating the wrong prefetch plan.
pub struct CompiledSchedule {
    inner: Compiled,
    devices: usize,
    recv_lookahead: usize,
    lookahead_window: usize,
}

impl CompiledSchedule {
    /// True when this lowering is valid for `opts`: the baked-in lookahead
    /// parameters match. Every other option is applied at simulation time.
    pub fn matches(&self, opts: &SimOptions) -> bool {
        self.recv_lookahead == opts.recv_lookahead && self.lookahead_window == opts.lookahead_window
    }

    /// True when the two lowerings are semantically identical: same opcode
    /// lists and same prefetch windows. Lookahead parameters that differ
    /// can still converge to the same windows (the §4.2 scan saturates once
    /// every receive group inside `lookahead_window` is collected), and the
    /// engine consumes nothing but this content — so two runs through
    /// lowerings that compare equal here produce bit-identical reports for
    /// any `SimOptions` each of them [`matches`](Self::matches). The tuner
    /// uses this to collapse lookahead ablations that lowered to the same
    /// plan into a single simulation.
    pub fn same_lowering(&self, other: &CompiledSchedule) -> bool {
        self.devices == other.devices && self.inner == other.inner
    }
}

/// Lower `schedule` once for reuse across [`try_simulate_compiled`] calls.
/// Only `opts.recv_lookahead` / `opts.lookahead_window` are consumed here;
/// see [`CompiledSchedule`] for the reuse contract.
pub fn compile_schedule(schedule: &Schedule, opts: &SimOptions) -> CompiledSchedule {
    CompiledSchedule {
        inner: compile(schedule, opts),
        devices: schedule.lists.len(),
        recv_lookahead: opts.recv_lookahead,
        lookahead_window: opts.lookahead_window,
    }
}

struct Engine<'a> {
    compiled: &'a Compiled,
    cost: &'a CostTable,
    cluster: &'a ClusterSpec,
    opts: SimOptions,

    p: usize,
    nodes: usize,

    pc: Vec<usize>,
    state: Vec<DevState>,
    block_start: Vec<f64>,
    finish: Vec<f64>,

    /// `SLOT_*` bit set per `device · ntags + key`.
    slot_flags: Vec<u8>,
    /// Sender device per slot; valid once `SLOT_SEND` is set.
    send_src: Vec<u32>,
    /// Send post time per slot; valid once `SLOT_SEND` is set.
    send_time: Vec<f64>,
    /// Receive post time per slot; valid once `SLOT_RECV` is set.
    recv_time: Vec<f64>,
    /// FIFO cursor per directed intra-node device pair (`src · p + dst`).
    intra_free: Vec<f64>,
    /// FIFO cursor per directed node pair (`src_node · nodes + dst_node`).
    inter_free: Vec<f64>,

    events: BinaryHeap<HeapEv>,
    seq: u64,

    busy: Vec<f64>,
    comm_wait: Vec<f64>,
    spans: Vec<Vec<SimSpan>>,
    cur_mem: Vec<u64>,
    peak_mem: Vec<u64>,

    /// Stage count, for decoding flat tag keys back into `(mb, stage)`
    /// when lowering transfers into trace events.
    stages: u32,
    /// Trace events accumulated when `opts.trace` is set (empty, never
    /// touched, otherwise).
    trace_events: Vec<TraceEvent>,
    /// Rendezvous stalls: receives (single or batched) that blocked
    /// because the matching send had not arrived. A plain local add on
    /// the hot path; flushed to the metrics registry once per run.
    stalls: u64,
}

impl<'a> Engine<'a> {
    #[inline]
    fn slot(&self, dev: usize, key: u32) -> usize {
        dev * self.compiled.ntags + key as usize
    }

    fn push_event(&mut self, t: f64, ev: Ev) {
        self.events.push(HeapEv { t: Tm(t), seq: self.seq, ev });
        self.seq += 1;
    }

    /// Start the transfer for `(dst, key)` if both halves are posted.
    fn try_schedule(&mut self, dst: usize, key: u32) {
        let slot = self.slot(dst, key);
        // One load: bail unless both halves are posted and the transfer
        // has not been scheduled yet.
        if self.slot_flags[slot] & (SLOT_SEND | SLOT_RECV | SLOT_SCHED) != SLOT_SEND | SLOT_RECV {
            return;
        }
        let src = self.send_src[slot] as usize;
        let t_send = self.send_time[slot];
        let t_recv = self.recv_time[slot];
        let ready = t_send.max(t_recv);
        let link = self.cluster.p2p(src, dst);
        let (na, nb) = (self.cluster.node[src], self.cluster.node[dst]);
        let cursor = if na == nb {
            &mut self.intra_free[src * self.p + dst]
        } else {
            &mut self.inter_free[na as usize * self.nodes + nb as usize]
        };
        let free = cursor.max(ready);
        let occupancy = if link.bandwidth.is_finite() {
            self.cost.msg_bytes as f64 / link.bandwidth
        } else {
            0.0
        };
        *cursor = free + occupancy;
        self.slot_flags[slot] |= SLOT_SCHED;
        if self.opts.trace {
            // Lower the rendezvous transfer: the send occupies the link on
            // the source; the receive spans transfer start to arrival on
            // the destination.
            let (mb, stage) = self.decode_tag(key);
            self.trace_events.push(TraceEvent {
                device: src as u32,
                kind: TraceKind::Send,
                mb,
                stage,
                t_start: free,
                t_end: free + occupancy,
            });
            self.trace_events.push(TraceEvent {
                device: dst as u32,
                kind: TraceKind::Recv,
                mb,
                stage,
                t_start: free,
                t_end: free + occupancy + link.latency,
            });
        }
        self.push_event(free + occupancy + link.latency, Ev::Arrived { dst: dst as u32, key });
    }

    /// Invert [`tag_key`]: flat key → `(mb, stage)`.
    #[inline]
    fn decode_tag(&self, key: u32) -> (Option<u32>, Option<u32>) {
        let pair = key / 2;
        (Some(pair / self.stages), Some(pair % self.stages))
    }

    fn post_recv(&mut self, dst: usize, key: u32, now: f64) {
        let slot = self.slot(dst, key);
        if self.slot_flags[slot] & SLOT_RECV == 0 {
            self.slot_flags[slot] |= SLOT_RECV;
            self.recv_time[slot] = now;
        }
        self.try_schedule(dst, key);
    }

    fn post_send(&mut self, src: usize, dst: usize, key: u32, now: f64) {
        let slot = self.slot(dst, key);
        if self.slot_flags[slot] & SLOT_SEND == 0 {
            self.slot_flags[slot] |= SLOT_SEND;
            self.send_src[slot] = src as u32;
            self.send_time[slot] = now;
        }
        self.try_schedule(dst, key);
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
            // §4.2 prefetch from the precomputed window table.
            let (start, end) = self.compiled.prefetch[d][self.pc[d]];
            for i in start..end {
                let key = self.compiled.prefetch_keys[i as usize];
                self.post_recv(d, key, now);
            }
        }
        self.push_event(
            now + dt,
            Ev::ComputeDone { dev: d as u32, mb, stage, backward, start: now },
        );
    }

    #[inline]
    fn batch_recvs_arrived(&self, d: usize, start: u32, end: u32) -> bool {
        self.compiled.batch_ops[start as usize..end as usize]
            .iter()
            .filter(|m| m.recv)
            .all(|m| self.slot_flags[d * self.compiled.ntags + m.key as usize] & SLOT_ARRIVED != 0)
    }

    /// Run device `d` forward from its program counter until it blocks,
    /// starts a compute, or finishes.
    fn advance(&mut self, d: usize, now: f64) {
        loop {
            let ops = &self.compiled.ops[d];
            if self.pc[d] >= ops.len() {
                if self.state[d] != DevState::Done {
                    self.state[d] = DevState::Done;
                    self.finish[d] = now;
                }
                return;
            }
            match ops[self.pc[d]] {
                Op::Compute { mb, stage, backward } => {
                    self.start_compute(d, now, mb, stage, backward);
                    return;
                }
                Op::Send { peer, key } => {
                    self.post_send(d, peer as usize, key, now);
                    self.pc[d] += 1;
                }
                Op::Recv { key } => {
                    self.post_recv(d, key, now);
                    if self.slot_flags[self.slot(d, key)] & SLOT_ARRIVED != 0 {
                        self.pc[d] += 1;
                    } else {
                        self.stalls += 1;
                        self.state[d] = DevState::WaitRecv(key);
                        self.block_start[d] = now;
                        return;
                    }
                }
                Op::Batch { start, end } => {
                    for i in start as usize..end as usize {
                        let m = self.compiled.batch_ops[i];
                        if m.recv {
                            self.post_recv(d, m.key, now);
                        } else {
                            self.post_send(d, m.peer as usize, m.key, now);
                        }
                    }
                    if self.batch_recvs_arrived(d, start, end) {
                        self.pc[d] += 1;
                    } else {
                        self.stalls += 1;
                        self.state[d] = DevState::WaitBatch(start, end);
                        self.block_start[d] = now;
                        return;
                    }
                }
                Op::Step => {
                    if self.opts.trace {
                        // The simulator charges the flush no time; a
                        // zero-duration marker keeps the event stream
                        // structurally identical to the runtime's.
                        self.trace_events.push(TraceEvent {
                            device: d as u32,
                            kind: TraceKind::Optim,
                            mb: None,
                            stage: None,
                            t_start: now,
                            t_end: now,
                        });
                    }
                    self.pc[d] += 1;
                }
            }
        }
    }

    fn handle(&mut self, t: f64, ev: Ev) {
        match ev {
            Ev::ComputeDone { dev, mb, stage, backward, start } => {
                let dev = dev as usize;
                self.busy[dev] += t - start;
                self.spans[dev].push(SimSpan { start, end: t, mb, stage, backward });
                if self.opts.trace {
                    self.trace_events.push(TraceEvent {
                        device: dev as u32,
                        kind: if backward { TraceKind::Bwd } else { TraceKind::Fwd },
                        mb: Some(mb),
                        stage: Some(stage),
                        t_start: start,
                        t_end: t,
                    });
                }
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
            Ev::Arrived { dst, key } => {
                let dst = dst as usize;
                let slot = self.slot(dst, key);
                self.slot_flags[slot] |= SLOT_ARRIVED;
                match self.state[dst] {
                    DevState::WaitRecv(w) if w == key => {
                        self.comm_wait[dst] += t - self.block_start[dst];
                        self.state[dst] = DevState::Idle;
                        self.pc[dst] += 1;
                        self.advance(dst, t);
                    }
                    DevState::WaitBatch(start, end)
                        if self.batch_recvs_arrived(dst, start, end) =>
                    {
                        self.comm_wait[dst] += t - self.block_start[dst];
                        self.state[dst] = DevState::Idle;
                        self.pc[dst] += 1;
                        self.advance(dst, t);
                    }
                    _ => {}
                }
            }
        }
    }
}

/// A rejected simulation input or run. Produced by
/// [`try_simulate_traced`] / [`try_simulate_compiled`] so a sweep or
/// search can turn one malformed candidate into a rejection instead of
/// dying.
#[derive(Debug, Clone, PartialEq)]
pub enum SimError {
    /// The cluster's device count differs from the schedule's.
    DeviceCountMismatch {
        /// Devices in the schedule.
        schedule: usize,
        /// Devices in the cluster.
        cluster: usize,
    },
    /// The cost table's stage count differs from the schedule's.
    StageCountMismatch {
        /// Stages in the schedule.
        schedule: usize,
        /// Stages in the cost table.
        cost: usize,
    },
    /// A cost/link/option value failed [`validate_numerics`].
    Numerics(NumericsError),
    /// The run stalled before every device flushed — a malformed action
    /// list (e.g. an unmatched send/recv pair in a hand-built schedule).
    Deadlock {
        /// Devices that never reached `Done`, with their program counters.
        stalled: Vec<(usize, usize)>,
    },
    /// A [`CompiledSchedule`] was reused with options it was not lowered
    /// for (the prefetch windows bake in the lookahead parameters) or with
    /// a different schedule.
    StaleCompile {
        /// `(recv_lookahead, lookahead_window)` the lowering baked in.
        compiled: (usize, usize),
        /// `(recv_lookahead, lookahead_window)` requested at simulation.
        requested: (usize, usize),
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::DeviceCountMismatch { schedule, cluster } => {
                write!(f, "schedule has {schedule} devices, cluster has {cluster}")
            }
            SimError::StageCountMismatch { schedule, cost } => {
                write!(f, "schedule has {schedule} stages, cost table has {cost}")
            }
            SimError::Numerics(e) => write!(f, "invalid simulation inputs: {e}"),
            SimError::Deadlock { stalled } => {
                write!(f, "simulation deadlocked: stalled (device, pc) pairs {stalled:?}")
            }
            SimError::StaleCompile { compiled, requested } => {
                write!(
                    f,
                    "compiled schedule was lowered for (recv_lookahead, lookahead_window) = \
                     {compiled:?} but simulation requested {requested:?}"
                )
            }
        }
    }
}

impl std::error::Error for SimError {}

impl From<NumericsError> for SimError {
    fn from(e: NumericsError) -> Self {
        SimError::Numerics(e)
    }
}

/// Execute one iteration of `schedule` on `cluster` with per-stage costs
/// from `cost`, lowering the run into a [`Trace`] when `opts.trace` is set
/// (`None` otherwise). The cluster must have exactly the pipeline's device
/// count, and all costs/link characteristics must pass
/// [`validate_numerics`]; malformed shapes, non-finite inputs and
/// deadlocking schedules come back as a [`SimError`]. The report is
/// bit-identical to an untraced run, and the trace's makespan equals the
/// report's `iteration_time` exactly — the `trace_truth` suite pins both
/// across every golden scheme.
pub fn try_simulate_traced(
    schedule: &Schedule,
    cost: &CostTable,
    cluster: &ClusterSpec,
    opts: SimOptions,
) -> Result<(SimReport, Option<Trace>), SimError> {
    check_shapes(schedule, cost, cluster)?;
    validate_numerics(cost, cluster, &opts)?;
    let compiled = compile(schedule, &opts);
    run_compiled(&compiled, schedule, cost, cluster, opts)
}

/// [`try_simulate_traced`] against a pre-lowered schedule, without a
/// trace: skips the per-call [`compile_schedule`] work. The report is
/// bit-identical to [`try_simulate_traced`]'s with the same inputs — the
/// lowering is a pure function of `(schedule, lookahead options)`, so
/// hoisting it cannot perturb a single event time. `schedule` must be the
/// exact schedule `compiled` was lowered from and `opts` must
/// [`CompiledSchedule::matches`] it.
pub fn try_simulate_compiled(
    compiled: &CompiledSchedule,
    schedule: &Schedule,
    cost: &CostTable,
    cluster: &ClusterSpec,
    opts: SimOptions,
) -> Result<SimReport, SimError> {
    if !compiled.matches(&opts) || compiled.devices != schedule.lists.len() {
        return Err(SimError::StaleCompile {
            compiled: (compiled.recv_lookahead, compiled.lookahead_window),
            requested: (opts.recv_lookahead, opts.lookahead_window),
        });
    }
    check_shapes(schedule, cost, cluster)?;
    validate_numerics(cost, cluster, &opts)?;
    run_compiled(&compiled.inner, schedule, cost, cluster, opts).map(|(report, _)| report)
}

fn check_shapes(
    schedule: &Schedule,
    cost: &CostTable,
    cluster: &ClusterSpec,
) -> Result<(), SimError> {
    let p = schedule.lists.len();
    if cluster.len() != p {
        return Err(SimError::DeviceCountMismatch { schedule: p, cluster: cluster.len() });
    }
    if cost.stages() != schedule.stage_map.stages as usize {
        return Err(SimError::StageCountMismatch {
            schedule: schedule.stage_map.stages as usize,
            cost: cost.stages(),
        });
    }
    Ok(())
}

/// Event-loop body shared by the per-call and pre-compiled entries.
fn run_compiled(
    compiled: &Compiled,
    schedule: &Schedule,
    cost: &CostTable,
    cluster: &ClusterSpec,
    opts: SimOptions,
) -> Result<(SimReport, Option<Trace>), SimError> {
    let p = schedule.lists.len();
    let (weight_mem, grad_mem) = static_device_mem(schedule, cost);
    let nodes = cluster.node.iter().copied().max().unwrap_or(0) as usize + 1;
    let slots = p * compiled.ntags;

    let mut eng = Engine {
        compiled,
        cost,
        cluster,
        opts,
        p,
        nodes,
        pc: vec![0; p],
        state: vec![DevState::Idle; p],
        block_start: vec![0.0; p],
        finish: vec![0.0; p],
        slot_flags: vec![0; slots],
        send_src: vec![0; slots],
        send_time: vec![0.0; slots],
        recv_time: vec![0.0; slots],
        intra_free: vec![0.0; p * p],
        inter_free: vec![0.0; nodes * nodes],
        events: BinaryHeap::with_capacity(4 * p.max(16)),
        seq: 0,
        busy: vec![0.0; p],
        comm_wait: vec![0.0; p],
        spans: (0..p).map(|_| Vec::new()).collect(),
        cur_mem: weight_mem.clone(),
        peak_mem: weight_mem.clone(),
        stages: schedule.stage_map.stages,
        trace_events: Vec::new(),
        stalls: 0,
    };

    for d in 0..p {
        eng.advance(d, 0.0);
    }
    // Local counter on the hot loop; one registry batch after the run.
    let mut events_popped: u64 = 0;
    while let Some(HeapEv { t: Tm(t), ev, .. }) = eng.events.pop() {
        events_popped += 1;
        eng.handle(t, ev);
    }
    if hanayo_metrics::enabled() {
        hanayo_metrics::counter_add("hanayo_sim_runs_total", &[], 1);
        hanayo_metrics::counter_add("hanayo_sim_events_total", &[], events_popped);
        hanayo_metrics::counter_add("hanayo_sim_rendezvous_stalls_total", &[], eng.stalls);
    }
    if !eng.state.iter().all(|s| *s == DevState::Done) {
        let stalled = eng
            .state
            .iter()
            .enumerate()
            .filter(|(_, s)| **s != DevState::Done)
            .map(|(d, _)| (d, eng.pc[d]))
            .collect();
        return Err(SimError::Deadlock { stalled });
    }

    let iteration_time = eng.finish.iter().cloned().fold(0.0, f64::max);
    let total_busy: f64 = eng.busy.iter().sum();
    let bubble_ratio =
        if iteration_time > 0.0 { 1.0 - total_busy / (iteration_time * p as f64) } else { 0.0 };
    let trace = opts.trace.then(|| {
        let mut trace = Trace { devices: p as u32, events: std::mem::take(&mut eng.trace_events) };
        trace.normalize();
        trace
    });
    let report = SimReport {
        iteration_time,
        device_busy: eng.busy,
        device_comm_wait: eng.comm_wait,
        bubble_ratio,
        peak_mem: eng.peak_mem,
        weight_mem,
        grad_mem,
        spans: eng.spans,
    };
    Ok((report, trace))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::simulate_reference;
    use hanayo_cluster::topology::{fc_full_nvlink, lonestar6, paper_clusters};
    use hanayo_core::config::{PipelineConfig, Scheme};
    use hanayo_core::schedule::build_schedule;
    use hanayo_model::{CostTable, ModelConfig};

    fn run(
        p: u32,
        b: u32,
        scheme: Scheme,
        cluster: &hanayo_cluster::ClusterSpec,
        opts: SimOptions,
    ) -> SimReport {
        let cfg = PipelineConfig::new(p, b, scheme).unwrap();
        let schedule = build_schedule(&cfg).unwrap();
        let cost = CostTable::build(&ModelConfig::bert64(), cfg.stages(), 1);
        try_simulate_traced(&schedule, &cost, cluster, opts).unwrap().0
    }

    #[test]
    fn precompiled_simulation_is_bit_identical_and_rejects_stale_reuse() {
        let cfg = PipelineConfig::new(4, 8, Scheme::Hanayo { waves: 2 }).unwrap();
        let schedule = build_schedule(&cfg).unwrap();
        let cost = CostTable::build(&ModelConfig::bert64(), cfg.stages(), 1);
        let cluster = fc_full_nvlink(4);
        let opts = SimOptions::default();
        let compiled = compile_schedule(&schedule, &opts);
        let direct = try_simulate_traced(&schedule, &cost, &cluster, opts).unwrap().0;
        let pre = try_simulate_compiled(&compiled, &schedule, &cost, &cluster, opts).unwrap();
        assert_eq!(direct, pre, "hoisting the lowering must not perturb a single event");
        // Prefetch is applied at simulation time, so the ablation shares
        // the lowering...
        let ablated = SimOptions { prefetch: false, ..opts };
        assert!(compiled.matches(&ablated));
        assert_eq!(
            try_simulate_compiled(&compiled, &schedule, &cost, &cluster, ablated).unwrap(),
            try_simulate_traced(&schedule, &cost, &cluster, ablated).unwrap().0,
        );
        // ...while a different lookahead is baked into the prefetch
        // windows and must be rejected, not silently mis-simulated.
        let stale = SimOptions { recv_lookahead: opts.recv_lookahead + 1, ..opts };
        assert!(!compiled.matches(&stale));
        assert!(matches!(
            try_simulate_compiled(&compiled, &schedule, &cost, &cluster, stale),
            Err(SimError::StaleCompile { .. })
        ));
    }

    #[test]
    fn gpipe_iteration_close_to_closed_form() {
        let cluster = fc_full_nvlink(8);
        let r = run(8, 8, Scheme::GPipe, &cluster, SimOptions::default());
        // (B + P - 1) * (tf + tb) with tf = stage forward time.
        let cost = CostTable::build(&ModelConfig::bert64(), 8, 1);
        let tf = cost.fwd_flops[0] / cluster.effective_flops(0);
        let expect = 15.0 * 3.0 * tf;
        assert!(
            (r.iteration_time - expect).abs() / expect < 0.05,
            "sim {} vs closed form {}",
            r.iteration_time,
            expect
        );
    }

    #[test]
    fn busy_time_equals_total_flops() {
        let cluster = fc_full_nvlink(4);
        let r = run(4, 4, Scheme::Dapple, &cluster, SimOptions::default());
        let cost = CostTable::build(&ModelConfig::bert64(), 4, 1);
        let total_flops: f64 =
            (cost.total_fwd_flops() * 3.0) * 4.0 /* B */ / cluster.effective_flops(0);
        let busy: f64 = r.device_busy.iter().sum();
        assert!((busy - total_flops).abs() / total_flops < 1e-9);
    }

    #[test]
    fn hanayo_beats_dapple_on_every_cluster() {
        for cluster in [fc_full_nvlink(8), lonestar6(8)] {
            let d = run(8, 8, Scheme::Dapple, &cluster, SimOptions::default());
            let h = run(8, 8, Scheme::Hanayo { waves: 2 }, &cluster, SimOptions::default());
            assert!(
                h.iteration_time < d.iteration_time,
                "{}: H-2 {} vs D {}",
                cluster.name,
                h.iteration_time,
                d.iteration_time
            );
        }
    }

    #[test]
    fn prefetch_never_hurts_and_helps_on_slow_fabric() {
        let cluster = lonestar6(8);
        let on = run(8, 8, Scheme::Hanayo { waves: 2 }, &cluster, SimOptions::default());
        let off = run(
            8,
            8,
            Scheme::Hanayo { waves: 2 },
            &cluster,
            SimOptions { prefetch: false, ..Default::default() },
        );
        assert!(on.iteration_time <= off.iteration_time * (1.0 + 1e-9));
        assert!(
            on.iteration_time < off.iteration_time,
            "prefetch should help on IB: on {} off {}",
            on.iteration_time,
            off.iteration_time
        );
    }

    #[test]
    fn memory_peaks_match_schedule_shape() {
        let cluster = fc_full_nvlink(4);
        let g = run(4, 8, Scheme::GPipe, &cluster, SimOptions::default());
        let d = run(4, 8, Scheme::Dapple, &cluster, SimOptions::default());
        // GPipe stashes all B micro-batches; DAPPLE at most P.
        assert!(g.highest_peak() > d.highest_peak());
        // Weight memory identical for the two straight pipes.
        assert_eq!(g.weight_mem, d.weight_mem);
    }

    #[test]
    fn chimera_native_doubles_weight_memory() {
        let cluster = fc_full_nvlink(4);
        let c = run(4, 4, Scheme::Chimera, &cluster, SimOptions::default());
        let d = run(4, 4, Scheme::Dapple, &cluster, SimOptions::default());
        for (cw, dw) in c.weight_mem.iter().zip(&d.weight_mem) {
            let ratio = *cw as f64 / *dw as f64;
            assert!((ratio - 2.0).abs() < 0.01, "ratio {ratio}");
        }
    }

    #[test]
    fn simulation_is_deterministic() {
        let cluster = lonestar6(8);
        let a = run(8, 16, Scheme::Hanayo { waves: 2 }, &cluster, SimOptions::default());
        let b = run(8, 16, Scheme::Hanayo { waves: 2 }, &cluster, SimOptions::default());
        assert_eq!(a, b);
    }

    #[test]
    fn stash_drains_to_weights_only() {
        let cluster = fc_full_nvlink(4);
        let r = run(4, 4, Scheme::Hanayo { waves: 1 }, &cluster, SimOptions::default());
        // After a full iteration every stash is consumed; peak ≥ weights.
        for (peak, w) in r.peak_mem.iter().zip(&r.weight_mem) {
            assert!(peak >= w);
        }
    }

    #[test]
    fn comm_wait_is_positive_on_slow_fabric() {
        let r = run(8, 8, Scheme::Dapple, &lonestar6(8), SimOptions::default());
        let total_wait: f64 = r.device_comm_wait.iter().sum();
        assert!(total_wait > 0.0);
    }

    #[test]
    fn fast_path_matches_reference_bitwise_across_clusters_and_options() {
        for cluster in paper_clusters(8) {
            for scheme in
                [Scheme::GPipe, Scheme::Dapple, Scheme::Chimera, Scheme::Hanayo { waves: 2 }]
            {
                for opts in [
                    SimOptions::default(),
                    SimOptions { prefetch: false, ..Default::default() },
                    SimOptions { recv_lookahead: 3, lookahead_window: 16, ..Default::default() },
                ] {
                    let cfg = PipelineConfig::new(8, 8, scheme).unwrap();
                    let schedule = build_schedule(&cfg).unwrap();
                    let cost = CostTable::build(&ModelConfig::bert64(), cfg.stages(), 1);
                    let fast = try_simulate_traced(&schedule, &cost, &cluster, opts).unwrap().0;
                    let slow = simulate_reference(&schedule, &cost, &cluster, opts);
                    assert_eq!(fast, slow, "{}/{scheme}: engines diverged", cluster.name);
                }
            }
        }
    }

    #[test]
    fn engines_agree_bitwise_on_checkpointed_cost_tables() {
        // The stash policy flows in through the cost table; both engines
        // must account the mode-adjusted stash identically.
        use hanayo_model::Recompute;
        for cluster in paper_clusters(8) {
            for scheme in [Scheme::GPipe, Scheme::Dapple, Scheme::Hanayo { waves: 2 }] {
                let cfg = PipelineConfig::new(8, 8, scheme).unwrap();
                let schedule = build_schedule(&cfg).unwrap();
                let cost =
                    CostTable::build_with(&ModelConfig::bert64(), cfg.stages(), 1, Recompute::Full);
                let fast = try_simulate_traced(&schedule, &cost, &cluster, SimOptions::default())
                    .unwrap()
                    .0;
                let slow = simulate_reference(&schedule, &cost, &cluster, SimOptions::default());
                assert_eq!(fast, slow, "{}/{scheme}: engines diverged under Full", cluster.name);
                // Peak is weights + at most a handful of boundary tensors.
                for (peak, w) in fast.peak_mem.iter().zip(&fast.weight_mem) {
                    assert!(peak - w <= cost.msg_bytes * cfg.stages() as u64 * 8);
                }
            }
        }
    }

    #[test]
    fn tracing_never_perturbs_the_report_and_makespans_agree() {
        for cluster in paper_clusters(8) {
            for scheme in [Scheme::GPipe, Scheme::Dapple, Scheme::Hanayo { waves: 2 }] {
                let cfg = PipelineConfig::new(8, 8, scheme).unwrap();
                let schedule = build_schedule(&cfg).unwrap();
                let cost = CostTable::build(&ModelConfig::bert64(), cfg.stages(), 1);
                let untraced =
                    try_simulate_traced(&schedule, &cost, &cluster, SimOptions::default())
                        .unwrap()
                        .0;
                let (traced, trace) = try_simulate_traced(
                    &schedule,
                    &cost,
                    &cluster,
                    SimOptions { trace: true, ..Default::default() },
                )
                .unwrap();
                assert_eq!(
                    untraced, traced,
                    "{}/{scheme}: tracing changed the report",
                    cluster.name
                );
                let trace = trace.expect("trace requested");
                trace.validate().unwrap_or_else(|e| panic!("{}/{scheme}: {e}", cluster.name));
                assert_eq!(trace.makespan(), traced.iteration_time, "{}/{scheme}", cluster.name);
                assert_eq!(trace.devices, 8);
                // Per-device busy from the trace is bit-identical to the
                // engine's own accumulation (same values, same order).
                assert_eq!(trace.device_busy(), traced.device_busy, "{}/{scheme}", cluster.name);
            }
        }
    }

    #[test]
    fn untraced_run_returns_no_trace() {
        let cfg = PipelineConfig::new(4, 4, Scheme::Dapple).unwrap();
        let schedule = build_schedule(&cfg).unwrap();
        let cost = CostTable::build(&ModelConfig::bert64(), cfg.stages(), 1);
        let (_, trace) =
            try_simulate_traced(&schedule, &cost, &fc_full_nvlink(4), SimOptions::default())
                .unwrap();
        assert!(trace.is_none());
    }

    #[test]
    fn trace_transfers_decode_tags_and_carry_latency() {
        use hanayo_trace::TraceKind;
        let cfg = PipelineConfig::new(4, 4, Scheme::Dapple).unwrap();
        let schedule = build_schedule(&cfg).unwrap();
        let cost = CostTable::build(&ModelConfig::bert64(), cfg.stages(), 1);
        let cluster = lonestar6(4);
        let (_, trace) = try_simulate_traced(
            &schedule,
            &cost,
            &cluster,
            SimOptions { trace: true, ..Default::default() },
        )
        .unwrap();
        let trace = trace.unwrap();
        let sends: Vec<_> = trace.events.iter().filter(|e| e.kind == TraceKind::Send).collect();
        let recvs: Vec<_> = trace.events.iter().filter(|e| e.kind == TraceKind::Recv).collect();
        assert_eq!(sends.len(), recvs.len());
        assert!(!sends.is_empty(), "a 4-device pipe transfers");
        // Every transfer names a micro-batch and stage inside the config.
        for e in sends.iter().chain(&recvs) {
            assert!(e.mb.unwrap() < 4);
            assert!(e.stage.unwrap() < cfg.stages());
        }
        // Receives outlast their paired sends by the wire latency.
        let dt = recvs[0].t_end - sends[0].t_end;
        assert!(dt > 0.0, "latency must separate occupancy from arrival");
    }

    #[test]
    fn numerics_validation_rejects_nan_costs() {
        let cluster = fc_full_nvlink(4);
        let mut cost = CostTable::build(&ModelConfig::bert64(), 4, 1);
        cost.bwd_flops[2] = f64::NAN;
        let err = validate_numerics(&cost, &cluster, &SimOptions::default()).unwrap_err();
        assert!(matches!(err, NumericsError::Cost { field: "bwd_flops", stage: 2, .. }));
    }

    #[test]
    fn numerics_validation_rejects_bad_links() {
        let cost = CostTable::build(&ModelConfig::bert64(), 4, 1);
        let mut cluster = fc_full_nvlink(4);
        cluster.links[1][2].bandwidth = -1.0;
        assert!(matches!(
            validate_numerics(&cost, &cluster, &SimOptions::default()),
            Err(NumericsError::Bandwidth { src: 1, dst: 2, .. })
        ));
        let mut cluster = fc_full_nvlink(4);
        cluster.links[0][3].latency = f64::NAN;
        assert!(matches!(
            validate_numerics(&cost, &cluster, &SimOptions::default()),
            Err(NumericsError::Latency { src: 0, dst: 3, .. })
        ));
    }

    #[test]
    fn numerics_validation_allows_ideal_links() {
        // Loopback links are infinite-bandwidth, zero-latency — legal.
        let cost = CostTable::build(&ModelConfig::bert64(), 4, 1);
        let cluster = fc_full_nvlink(4);
        assert_eq!(validate_numerics(&cost, &cluster, &SimOptions::default()), Ok(()));
    }

    #[test]
    fn simulate_rejects_nan_bandwidth() {
        let cfg = PipelineConfig::new(4, 4, Scheme::Dapple).unwrap();
        let schedule = build_schedule(&cfg).unwrap();
        let cost = CostTable::build(&ModelConfig::bert64(), cfg.stages(), 1);
        let mut cluster = fc_full_nvlink(4);
        cluster.links[0][1].bandwidth = f64::NAN;
        let err =
            try_simulate_traced(&schedule, &cost, &cluster, SimOptions::default()).unwrap_err();
        assert!(matches!(err, SimError::Numerics(_)), "{err}");
        assert!(err.to_string().contains("invalid simulation inputs"), "{err}");
    }
}
