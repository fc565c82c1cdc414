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
//! The event loop accounts no memory: a device's activation peak depends
//! only on its compute order, so `peak_mem` is the analyzer's liveness
//! fold ([`hanayo_analyze::static_peak_mem`]), run once per public entry
//! or handed in from the tuner's cache.
//!
//! ## The fast path
//!
//! This engine is the hot loop of the auto-tuner's strategy sweep, so the
//! per-event bookkeeping avoids hashing entirely. It executes the
//! schedule's [`Program`] — the lowering the threaded runtime executes too:
//! every `(mb, stage, payload)` message tag is a dense key and every action
//! a fixed-size opcode. On top of it the §4.2 prefetch scanner's
//! receive-group windows are extracted once per `(schedule, options)` pair
//! instead of being rescanned at every compute start. The program pairs
//! each key's one send with its one receive, so rendezvous state
//! (`send/recv posted`, `scheduled`, `arrived`) lives in flat vectors
//! indexed by key alone, the pair names the transfer's `(src, dst)`, and
//! link FIFO cursors live in dense per-pair tables.
//! [`crate::reference::simulate_reference`] keeps the seed `HashMap`
//! implementation over the action lists as the test oracle: the
//! cross-engine tests here and in `tests/engine_equivalence.rs` pin the
//! two bit-identical.
//!
//! ## Proving a lookahead variant equal to the lookahead-1 run
//!
//! A deeper `recv_lookahead` only posts some receives at an earlier
//! compute start; it never posts one later, and the lookahead-1 windows
//! are a prefix of every deeper one. A lookahead-1 run can therefore
//! record enough (the `Record` in `proof.rs`: per key whether its send came
//! first and whether it had arrived when its receiver reached it, per
//! compute the step and time its window was posted, per link cursor the
//! transfers in schedule order) to prove that a deeper lookahead returns
//! the same report. Every key the deeper windows post earlier must be
//! either
//!
//! * **(a) not early**: its receive was posted before its send, so the
//!   transfer is still scheduled at the send, ready at the send time, in
//!   both runs; or
//! * **(b) early and arrived in time**: the transfer moves to the later
//!   of its send and the earlier window, and a replay of its link
//!   cursor in the new order shows it starting no later than before
//!   while every other transfer on that cursor starts exactly as
//!   before. An earlier arrival of a message its receiver had not yet
//!   reached changes nothing the receiver does.
//!
//! Then every device event happens at the same time and in the same
//! order in both runs. The tuner checks this after each lookahead-1 group
//! run and simulates only the variants the check refuses.

use crate::proof::{Record, Recorder};
use crate::report::{SimReport, SimSpan};
use hanayo_analyze::{device_bytes, static_peak_mem};
use hanayo_cluster::ClusterSpec;
use hanayo_core::action::Schedule;
use hanayo_core::program::{Op, Program, ProgramError, Stall};
use hanayo_model::CostTable;
use hanayo_trace::{Trace, TraceEvent, TraceKind};
use serde::{Deserialize, Serialize};
use std::collections::BinaryHeap;
use std::fmt;
use std::sync::{Arc, OnceLock};

/// Engine knobs.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SimOptions {
    /// Post upcoming receives while computing (§4.2). On by default, as in
    /// the paper's runtime; turn off to measure the ablation.
    pub prefetch: bool,
    /// How many upcoming receive groups to post at each compute start,
    /// found within the next eight actions. At least 1: every entry
    /// refuses 0 with [`SimError::ZeroLookahead`].
    pub recv_lookahead: usize,
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
        SimOptions { prefetch: true, recv_lookahead: 1, trace: false }
    }
}

/// How many actions ahead the §4.2 prefetch scanner may look for receive
/// groups to post.
pub(crate) const LOOKAHEAD_WINDOW: usize = 8;

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
        }
    }
}

impl std::error::Error for NumericsError {}

/// Vet every number the engine will feed into event times. See
/// [`NumericsError`] for the exact rules. [`crate::evaluate_plan`] calls
/// this before simulating, and so does [`try_simulate_traced`].
pub fn validate_numerics(cost: &CostTable, cluster: &ClusterSpec) -> Result<(), NumericsError> {
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
    Ok(())
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

/// Per-slot rendezvous state, one byte per message key. A single load
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
    /// Blocked in the batch whose members are `members(start, end)`.
    WaitBatch(u32, u32),
    Done,
}

/// A schedule lowered once for repeated simulation: its [`Program`] plus
/// the §4.2 prefetch scanner's receive-group windows.
///
/// [`try_simulate_traced`] re-lowers its schedule on every call; inside a
/// tuner sweep the same `(schedule, recv_lookahead)` pair is simulated under
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
/// The lowering bakes in exactly one option field — `recv_lookahead`,
/// which shapes the prefetch windows — so one `CompiledSchedule` is valid
/// for every `SimOptions` agreeing on it (e.g. prefetch on/off share a
/// lowering). [`try_simulate_compiled`]
/// rejects a mismatched reuse with [`SimError::StaleCompile`] rather than
/// silently simulating the wrong prefetch plan. A schedule that does not
/// lower compiles to its [`ProgramError`], which every simulation through
/// it returns as [`SimError::Program`]. The [`Program`] itself does not
/// depend on the lookahead, so the tuner lowers each schedule once and
/// shares it between the lookahead variants' windows.
pub struct CompiledSchedule {
    program: Arc<Result<Program, ProgramError>>,
    /// Per device, per program counter: `prefetch_keys[start..end]` are
    /// the receive keys the §4.2 scanner would post at that counter. Only
    /// counters that can follow a compute are populated.
    prefetch: Vec<Vec<(u32, u32)>>,
    /// Flat storage for the prefetch windows, in exact scan order.
    prefetch_keys: Vec<u32>,
    /// See [`first_post`](Self::first_post); built on first use.
    first_post: OnceLock<Vec<u32>>,
    recv_lookahead: usize,
}

impl CompiledSchedule {
    /// True when this lowering is valid for `opts`: the baked-in
    /// `recv_lookahead` matches. Every other option is applied at
    /// simulation time.
    pub fn matches(&self, opts: &SimOptions) -> bool {
        self.recv_lookahead == opts.recv_lookahead
    }

    /// The lowered program the simulation runs, or why the schedule did
    /// not lower.
    pub fn program(&self) -> Result<&Program, &ProgramError> {
        self.program.as_ref().as_ref()
    }

    /// Per key, the op index on its receiver of the first compute whose
    /// window posts it, or of its own `Recv`/`Batch` when no window does
    /// (`u32::MAX` for a key nothing sends): where a prefetching run
    /// first posts the receive. Only a lookahead proof reads it, so it is
    /// built on the first read and kept with the lowering.
    pub(crate) fn first_post(&self) -> &[u32] {
        self.first_post.get_or_init(|| {
            let Ok(program) = self.program() else { return Vec::new() };
            let mut first: Vec<u32> = (0..program.keys() as u32)
                .map(|key| program.message(key).map_or(u32::MAX, |m| m.recv_at))
                .collect();
            // The window at counter `i` follows the compute at `i - 1` and
            // posts only ops after it.
            for windows in &self.prefetch {
                for (i, &(start, end)) in windows.iter().enumerate() {
                    for &key in &self.prefetch_keys[start as usize..end as usize] {
                        let at = &mut first[key as usize];
                        *at = (*at).min(i as u32 - 1);
                    }
                }
            }
            first
        })
    }

    /// The `recv_lookahead` these windows were scanned with.
    pub(crate) fn recv_lookahead(&self) -> usize {
        self.recv_lookahead
    }
}

/// Lower `schedule` once for reuse across [`try_simulate_compiled`] calls.
/// Only `opts.recv_lookahead` is consumed here; see [`CompiledSchedule`]
/// for the reuse contract.
pub fn compile_schedule(schedule: &Schedule, opts: &SimOptions) -> CompiledSchedule {
    lower_windows(Arc::new(Program::lower(schedule)), opts.recv_lookahead)
}

/// The §4.2 prefetch windows of `program` under `recv_lookahead`.
pub(crate) fn lower_windows(
    program: Arc<Result<Program, ProgramError>>,
    recv_lookahead: usize,
) -> CompiledSchedule {
    let (mut prefetch, mut prefetch_keys) = (Vec::new(), Vec::new());
    if let Ok(program) = program.as_ref() {
        for ops in program.ops() {
            // Precompute the §4.2 scan for every program counter a compute can
            // leave behind (prefetch fires at `pc + 1` of a compute op),
            // replicating the reference scanner exactly: single receives and
            // batches each count as one group — a batch even when it contains
            // no receive — and members are posted in op order.
            let mut windows = vec![(0u32, 0u32); ops.len() + 1];
            for (i, window) in windows.iter_mut().enumerate() {
                if i == 0 || !matches!(ops[i - 1], Op::Compute { .. }) {
                    continue;
                }
                let start = prefetch_keys.len() as u32;
                let mut groups = 0usize;
                for op in ops.iter().skip(i).take(LOOKAHEAD_WINDOW) {
                    if let Op::Recv { .. } | Op::Batch { .. } = op {
                        prefetch_keys
                            .extend(program.members_of(op).iter().filter_map(Op::recv_key));
                        groups += 1;
                    }
                    if groups >= recv_lookahead {
                        break;
                    }
                }
                *window = (start, prefetch_keys.len() as u32);
            }
            prefetch.push(windows);
        }
    }
    CompiledSchedule {
        program,
        prefetch,
        prefetch_keys,
        first_post: OnceLock::new(),
        recv_lookahead,
    }
}

struct Engine<'a, R> {
    compiled: &'a CompiledSchedule,
    program: &'a Program,
    cost: &'a CostTable,
    cluster: &'a ClusterSpec,
    opts: SimOptions,

    p: usize,
    nodes: usize,

    pc: Vec<usize>,
    state: Vec<DevState>,
    block_start: Vec<f64>,
    finish: Vec<f64>,

    /// `SLOT_*` bit set per message key.
    slot_flags: Vec<u8>,
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
    /// Executed compute spans per device; empty (never pushed to) when the
    /// caller reads only scalars (see [`try_simulate_scalars`]).
    spans: Vec<Vec<SimSpan>>,
    record_spans: bool,

    /// Trace events accumulated when `opts.trace` is set (empty, never
    /// touched, otherwise).
    trace_events: Vec<TraceEvent>,
    /// Rendezvous stalls: receives (single or batched) that blocked
    /// because the matching send had not arrived. A plain local add on
    /// the hot path; flushed to the metrics registry once per run.
    stalls: u64,
    /// What a lookahead proof needs of this run (see the module docs):
    /// a [`Record`] for [`try_simulate_recorded`], `()` for every other
    /// run, whose hooks compile to nothing.
    record: R,
}

impl<'a, R: Recorder> Engine<'a, R> {
    fn push_event(&mut self, t: f64, ev: Ev) {
        self.events.push(HeapEv { t: Tm(t), seq: self.seq, ev });
        self.seq += 1;
    }

    /// Start the transfer of message `key` if both halves are posted.
    fn try_schedule(&mut self, key: u32) {
        let slot = key as usize;
        // One load: bail unless both halves are posted and the transfer
        // has not been scheduled yet.
        if self.slot_flags[slot] & (SLOT_SEND | SLOT_RECV | SLOT_SCHED) != SLOT_SEND | SLOT_RECV {
            return;
        }
        let Some(message) = self.program.message(key) else { return };
        let (src, dst) = (message.src.idx(), message.dst.idx());
        let t_send = self.send_time[slot];
        let t_recv = self.recv_time[slot];
        let ready = t_send.max(t_recv);
        let link = self.cluster.p2p(src, dst);
        let (na, nb) = (self.cluster.node[src], self.cluster.node[dst]);
        let (intra, inter) = (src * self.p + dst, na as usize * self.nodes + nb as usize);
        let cursor =
            if na == nb { &mut self.intra_free[intra] } else { &mut self.inter_free[inter] };
        let free = cursor.max(ready);
        let occupancy = if link.bandwidth.is_finite() {
            self.cost.msg_bytes as f64 / link.bandwidth
        } else {
            0.0
        };
        *cursor = free + occupancy;
        self.slot_flags[slot] |= SLOT_SCHED;
        if R::ON {
            // One id space for both cursor tables: intra pairs first.
            let link = if na == nb { intra } else { self.p * self.p + inter };
            self.record.scheduled(key, link as u32, ready, free, occupancy);
        }
        if self.opts.trace {
            // Lower the rendezvous transfer: the send occupies the link on
            // the source; the receive spans transfer start to arrival on
            // the destination.
            let tag = self.program.tag(key);
            let (mb, stage) = (Some(tag.mb.0), Some(tag.stage.0));
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

    fn post_recv(&mut self, key: u32, now: f64) {
        let slot = key as usize;
        if self.slot_flags[slot] & SLOT_RECV == 0 {
            self.slot_flags[slot] |= SLOT_RECV;
            self.recv_time[slot] = now;
            if R::ON && self.slot_flags[slot] & SLOT_SEND != 0 {
                self.record.early(key);
            }
        }
        self.try_schedule(key);
    }

    fn post_send(&mut self, key: u32, now: f64) {
        let slot = key as usize;
        if self.slot_flags[slot] & SLOT_SEND == 0 {
            self.slot_flags[slot] |= SLOT_SEND;
            self.send_time[slot] = now;
            if R::ON {
                self.record.send_posted(key, now);
            }
        }
        self.try_schedule(key);
    }

    /// Record whether each receive of the op at `d`'s counter had arrived
    /// when `d` reached it.
    fn record_reached(&mut self, d: usize) {
        if !R::ON {
            return;
        }
        let op = &self.program.ops()[d][self.pc[d]];
        for key in self.program.members_of(op).iter().filter_map(Op::recv_key) {
            self.record.reached(key, self.slot_flags[key as usize] & SLOT_ARRIVED != 0);
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
            // §4.2 prefetch from the precomputed window table.
            let (start, end) = self.compiled.prefetch[d][self.pc[d]];
            for i in start..end {
                let key = self.compiled.prefetch_keys[i as usize];
                self.post_recv(key, now);
            }
            if R::ON {
                self.record.window_posted(d, self.pc[d] - 1, now);
            }
        }
        self.push_event(
            now + dt,
            Ev::ComputeDone { dev: d as u32, mb, stage, backward, start: now },
        );
    }

    /// The first member receive of batch `start..end` not yet arrived.
    #[inline]
    fn unarrived(&self, start: u32, end: u32) -> Option<u32> {
        let mut keys = self.program.members(start, end).iter().filter_map(Op::recv_key);
        keys.find(|&key| self.slot_flags[key as usize] & SLOT_ARRIVED == 0)
    }

    /// Run device `d` forward from its program counter until it blocks,
    /// starts a compute, or finishes.
    fn advance(&mut self, d: usize, now: f64) {
        let program = self.program;
        loop {
            let ops = &program.ops()[d];
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
                Op::Send { key, .. } => {
                    self.post_send(key, now);
                    self.pc[d] += 1;
                }
                Op::Recv { key } => {
                    self.post_recv(key, now);
                    self.record_reached(d);
                    if self.slot_flags[key as usize] & SLOT_ARRIVED != 0 {
                        self.pc[d] += 1;
                    } else {
                        self.stalls += 1;
                        self.state[d] = DevState::WaitRecv(key);
                        self.block_start[d] = now;
                        return;
                    }
                }
                Op::Batch { start, end } => {
                    for member in program.members(start, end) {
                        match *member {
                            Op::Send { key, .. } => self.post_send(key, now),
                            Op::Recv { key } => self.post_recv(key, now),
                            _ => {}
                        }
                    }
                    self.record_reached(d);
                    if self.unarrived(start, end).is_none() {
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
                if self.record_spans {
                    self.spans[dev].push(SimSpan { start, end: t, mb, stage, backward });
                }
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
                self.state[dev] = DevState::Idle;
                self.advance(dev, t);
            }
            Ev::Arrived { dst, key } => {
                let dst = dst as usize;
                self.slot_flags[key as usize] |= SLOT_ARRIVED;
                match self.state[dst] {
                    DevState::WaitRecv(w) if w == key => {
                        self.comm_wait[dst] += t - self.block_start[dst];
                        self.state[dst] = DevState::Idle;
                        self.pc[dst] += 1;
                        self.advance(dst, t);
                    }
                    DevState::WaitBatch(start, end) if self.unarrived(start, end).is_none() => {
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
    /// A cost or link value failed [`validate_numerics`].
    Numerics(NumericsError),
    /// The run stalled before every device flushed: a circular wait, such
    /// as a hand-built order where two devices each receive before sending
    /// to the other. The lowest stalled device, its program counter, the
    /// awaited message and its sender: the [`Stall`] the analyzer and the
    /// runtime name too. An unpaired message never gets this far; it does
    /// not lower and comes back as [`SimError::Program`].
    Deadlock(Stall),
    /// A [`CompiledSchedule`] was reused with a `recv_lookahead` it was
    /// not lowered for (the prefetch windows bake it in), or with a
    /// schedule whose device count differs from the lowered one. Those two
    /// are all that is checked: a different schedule of the same width is
    /// not detected.
    StaleCompile {
        /// `recv_lookahead` the lowering baked in.
        compiled: usize,
        /// `recv_lookahead` requested at simulation.
        requested: usize,
    },
    /// The schedule does not lower to a [`Program`]: an action's tag lies
    /// outside its key space, or a message is not one send paired with one
    /// receive. The analyzer and the runtime refuse it with the same error.
    Program(ProgramError),
    /// `SimOptions::recv_lookahead` was 0. A zero depth would post a
    /// window only where a receive directly follows the compute: neither
    /// prefetching off nor a lookahead of 1, so it is refused.
    ZeroLookahead,
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
            SimError::Deadlock(stall) => write!(f, "simulation deadlocked: {stall}"),
            SimError::StaleCompile { compiled, requested } => {
                write!(
                    f,
                    "compiled schedule was lowered for recv_lookahead = {compiled} but \
                     simulation requested {requested}"
                )
            }
            SimError::Program(e) => write!(f, "schedule does not lower: {e}"),
            SimError::ZeroLookahead => write!(
                f,
                "recv_lookahead must be at least 1 (set prefetch to false to post no receive early)"
            ),
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
/// [`validate_numerics`]; malformed shapes, non-finite inputs, schedules
/// that do not lower and deadlocking schedules come back as a
/// [`SimError`]. The report is
/// bit-identical to an untraced run, and the trace's makespan equals the
/// report's `iteration_time` exactly — the `trace_truth` suite pins both
/// across every golden scheme.
pub fn try_simulate_traced(
    schedule: &Schedule,
    cost: &CostTable,
    cluster: &ClusterSpec,
    opts: SimOptions,
) -> Result<(SimReport, Option<Trace>), SimError> {
    check_options(&opts)?;
    check_shapes(schedule, cost, cluster)?;
    validate_numerics(cost, cluster)?;
    let compiled = compile_schedule(schedule, &opts);
    let (report, trace, ()) =
        run_compiled(&compiled, schedule, cost, cluster, None, opts, true, |_| ())?;
    Ok((report, trace))
}

/// [`try_simulate_traced`] against a pre-lowered schedule, without a
/// trace: skips the per-call [`compile_schedule`] work. The report is
/// bit-identical to [`try_simulate_traced`]'s with the same inputs — the
/// lowering is a pure function of `(schedule, recv_lookahead)`, so
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
    check_compiled(compiled, schedule, cost, cluster, &opts)?;
    run_compiled(compiled, schedule, cost, cluster, None, opts, true, |_| ())
        .map(|(report, ..)| report)
}

/// [`try_simulate_compiled`] for callers that read only the report's
/// scalars and per-device vectors — the tuner's candidate evaluation and
/// the schedule search. The event loop is the same, so every field but
/// `spans` is bit-identical; `spans` comes back empty and no trace is
/// lowered, which spares the per-op pushes and keeps memoised reports
/// small. `peak_mem` is the schedule's [`static_peak_mem`] when the
/// caller already holds it (`None`: the run folds it).
pub(crate) fn try_simulate_scalars(
    compiled: &CompiledSchedule,
    schedule: &Schedule,
    cost: &CostTable,
    cluster: &ClusterSpec,
    peak_mem: Option<&[u64]>,
    opts: SimOptions,
) -> Result<SimReport, SimError> {
    check_compiled(compiled, schedule, cost, cluster, &opts)?;
    let opts = SimOptions { trace: false, ..opts };
    run_compiled(compiled, schedule, cost, cluster, peak_mem, opts, false, |_| ())
        .map(|(report, ..)| report)
}

/// [`try_simulate_scalars`] plus the [`Record`] a lookahead proof reads
/// (see the module docs); a prefetch-off run records nothing, so its
/// record proves nothing. Recording never changes the report.
pub(crate) fn try_simulate_recorded(
    compiled: &CompiledSchedule,
    schedule: &Schedule,
    cost: &CostTable,
    cluster: &ClusterSpec,
    peak_mem: Option<&[u64]>,
    opts: SimOptions,
) -> Result<(SimReport, Record), SimError> {
    if !opts.prefetch {
        // Windows are what a proof reads; a run without them records
        // nothing.
        let report = try_simulate_scalars(compiled, schedule, cost, cluster, peak_mem, opts)?;
        return Ok((report, Record::default()));
    }
    check_compiled(compiled, schedule, cost, cluster, &opts)?;
    let opts = SimOptions { trace: false, ..opts };
    let (report, _, record) =
        run_compiled(compiled, schedule, cost, cluster, peak_mem, opts, false, Record::new)?;
    Ok((report, record))
}

/// The input checks of every pre-lowered run: `compiled` was lowered from
/// `schedule` under `opts`' lookahead, and the shapes and numerics pass.
fn check_compiled(
    compiled: &CompiledSchedule,
    schedule: &Schedule,
    cost: &CostTable,
    cluster: &ClusterSpec,
    opts: &SimOptions,
) -> Result<(), SimError> {
    check_options(opts)?;
    let other_schedule = compiled.program().is_ok_and(|p| p.ops().len() != schedule.lists.len());
    if !compiled.matches(opts) || other_schedule {
        return Err(SimError::StaleCompile {
            compiled: compiled.recv_lookahead,
            requested: opts.recv_lookahead,
        });
    }
    check_shapes(schedule, cost, cluster)?;
    validate_numerics(cost, cluster)?;
    Ok(())
}

fn check_options(opts: &SimOptions) -> Result<(), SimError> {
    if opts.recv_lookahead == 0 {
        return Err(SimError::ZeroLookahead);
    }
    Ok(())
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

/// Event-loop body shared by every entry; `record_spans` is off only for
/// the span-free runs, and `recorder` builds a [`Record`] only for
/// [`try_simulate_recorded`] (`()`, which records nothing, otherwise).
/// The loop accounts no memory: the report's `peak_mem` is the
/// schedule's [`static_peak_mem`], the caller's or folded here once the
/// schedule is known to lower.
#[allow(clippy::too_many_arguments)]
fn run_compiled<R: Recorder>(
    compiled: &CompiledSchedule,
    schedule: &Schedule,
    cost: &CostTable,
    cluster: &ClusterSpec,
    peak_mem: Option<&[u64]>,
    opts: SimOptions,
    record_spans: bool,
    recorder: impl FnOnce(&Program) -> R,
) -> Result<(SimReport, Option<Trace>, R), SimError> {
    let p = schedule.lists.len();
    let weight_mem = device_bytes(&schedule.stage_map, &cost.weight_bytes);
    let grad_mem = device_bytes(&schedule.stage_map, &cost.grad_bytes);
    let nodes = cluster.node.iter().copied().max().unwrap_or(0) as usize + 1;
    let program = compiled.program().map_err(|e| SimError::Program(*e))?;
    let peak_mem = peak_mem.map_or_else(|| static_peak_mem(schedule, cost), <[u64]>::to_vec);
    let slots = program.keys();

    let mut eng = Engine {
        compiled,
        program,
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
        send_time: vec![0.0; slots],
        recv_time: vec![0.0; slots],
        intra_free: vec![0.0; p * p],
        inter_free: vec![0.0; nodes * nodes],
        events: BinaryHeap::with_capacity(4 * p.max(16)),
        seq: 0,
        busy: vec![0.0; p],
        comm_wait: vec![0.0; p],
        spans: if record_spans { vec![Vec::new(); p] } else { Vec::new() },
        record_spans,
        trace_events: Vec::new(),
        stalls: 0,
        record: recorder(program),
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
    // A device left waiting names the key it waits for (for a batch, the
    // first member not arrived).
    let awaited = |d: usize| match eng.state[d] {
        DevState::WaitRecv(key) => Some(key),
        DevState::WaitBatch(start, end) => eng.unarrived(start, end),
        _ => None,
    };
    if let Some((d, key)) = (0..p).find_map(|d| Some((d, awaited(d)?))) {
        return Err(SimError::Deadlock(program.stall(d, eng.pc[d], key)));
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
        peak_mem,
        weight_mem,
        grad_mem,
        spans: eng.spans,
    };
    Ok((report, trace, eng.record))
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
    fn only_a_proof_builds_the_first_post_table() {
        let cfg = PipelineConfig::new(4, 8, Scheme::Hanayo { waves: 2 }).unwrap();
        let schedule = build_schedule(&cfg).unwrap();
        let cost = CostTable::build(&ModelConfig::bert64(), cfg.stages(), 1);
        let cluster = fc_full_nvlink(4);
        let opts = SimOptions::default();
        let compiled = compile_schedule(&schedule, &opts);
        let deeper = lower_windows(compiled.program.clone(), 2);
        try_simulate_compiled(&compiled, &schedule, &cost, &cluster, opts).unwrap();
        try_simulate_scalars(&compiled, &schedule, &cost, &cluster, None, opts).unwrap();
        let (_, record) =
            try_simulate_recorded(&compiled, &schedule, &cost, &cluster, None, opts).unwrap();
        let built = |c: &CompiledSchedule| c.first_post.get().is_some();
        assert!(!built(&compiled) && !built(&deeper), "no run reads the table");
        assert!(record.proves(&compiled, &deeper));
        assert!(built(&compiled) && built(&deeper), "the proof builds it once, kept");
        // Hanayo W=2 on 4 GPUs: lookahead 2 posts some receive earlier.
        assert!(deeper.first_post().iter().zip(compiled.first_post()).any(|(d, s)| d < s));
    }

    #[test]
    fn every_entry_refuses_a_zero_lookahead() {
        let cfg = PipelineConfig::new(4, 4, Scheme::Dapple).unwrap();
        let schedule = build_schedule(&cfg).unwrap();
        let cost = CostTable::build(&ModelConfig::bert64(), cfg.stages(), 1);
        let cluster = fc_full_nvlink(4);
        for prefetch in [true, false] {
            let zero = SimOptions { prefetch, recv_lookahead: 0, ..Default::default() };
            let compiled = compile_schedule(&schedule, &zero);
            let refused = Err(SimError::ZeroLookahead);
            assert_eq!(try_simulate_traced(&schedule, &cost, &cluster, zero).map(|r| r.0), refused);
            assert_eq!(try_simulate_compiled(&compiled, &schedule, &cost, &cluster, zero), refused);
            let scalars = try_simulate_scalars(&compiled, &schedule, &cost, &cluster, None, zero);
            assert_eq!(scalars, refused);
            let recorded = try_simulate_recorded(&compiled, &schedule, &cost, &cluster, None, zero);
            assert_eq!(recorded.map(|r| r.0), refused);
        }
    }

    #[test]
    fn node_relabelled_sub_clusters_report_identically() {
        // The engine reads node ids only to compare them and to pick a
        // per-node-pair link cursor, so sub-clusters that differ only in
        // node labels must produce equal reports, spans included — the
        // property the tuner's report memo and plan evaluation rely on.
        let sim = |cluster: &hanayo_cluster::ClusterSpec| {
            let p = cluster.len() as u32;
            let cfg = PipelineConfig::new(p, 2 * p, Scheme::Hanayo { waves: 2 }).unwrap();
            let schedule = build_schedule(&cfg).unwrap();
            let cost = CostTable::build(&ModelConfig::bert64(), cfg.stages(), 1);
            let opts = SimOptions::default();
            let compiled = compile_schedule(&schedule, &opts);
            try_simulate_compiled(&compiled, &schedule, &cost, cluster, opts).unwrap()
        };
        let tacc = lonestar6(8);
        let first = sim(&tacc.select(&[0, 1]));
        let mut relabelled = tacc.select(&[0, 1]);
        relabelled.node = vec![9, 9];
        assert_eq!(sim(&tacc.select(&[6, 7])), first);
        assert_eq!(sim(&relabelled), first);
        // Twins that cross nodes: nodes (0, 1, 1, 1) and (1, 2, 2, 2), and
        // a relabelling that reverses the node order.
        let tacc = lonestar6(12);
        let crossing = sim(&tacc.select(&[2, 3, 4, 5]));
        let mut relabelled = tacc.select(&[2, 3, 4, 5]);
        relabelled.node = vec![3, 0, 0, 0];
        assert!(crossing.device_comm_wait.iter().any(|&w| w > 0.0));
        assert_eq!(sim(&tacc.select(&[5, 6, 7, 8])), crossing);
        assert_eq!(sim(&relabelled), crossing);
    }

    #[test]
    fn span_free_runs_match_every_field_but_spans() {
        let cluster = lonestar6(4);
        for scheme in crate::search::named_schemes() {
            let cfg = PipelineConfig::new(4, 8, scheme).unwrap();
            let schedule = build_schedule(&cfg).unwrap();
            let cost = CostTable::build(&ModelConfig::bert64(), cfg.stages(), 1);
            for prefetch in [true, false] {
                let opts = SimOptions { prefetch, ..Default::default() };
                let compiled = compile_schedule(&schedule, &opts);
                let full =
                    try_simulate_compiled(&compiled, &schedule, &cost, &cluster, opts).unwrap();
                let scalars =
                    try_simulate_scalars(&compiled, &schedule, &cost, &cluster, None, opts)
                        .unwrap();
                assert!(scalars.spans.is_empty(), "{scheme}/prefetch={prefetch}");
                assert!(full.spans.iter().any(|d| !d.is_empty()), "{scheme}/prefetch={prefetch}");
                assert_eq!(
                    SimReport { spans: full.spans.clone(), ..scalars },
                    full,
                    "{scheme}/prefetch={prefetch}: skipping spans moved another field"
                );
            }
        }
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
                    SimOptions { recv_lookahead: 3, ..Default::default() },
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
        let err = validate_numerics(&cost, &cluster).unwrap_err();
        assert!(matches!(err, NumericsError::Cost { field: "bwd_flops", stage: 2, .. }));
    }

    #[test]
    fn numerics_validation_rejects_bad_links() {
        let cost = CostTable::build(&ModelConfig::bert64(), 4, 1);
        let mut cluster = fc_full_nvlink(4);
        cluster.links[1][2].bandwidth = -1.0;
        assert!(matches!(
            validate_numerics(&cost, &cluster),
            Err(NumericsError::Bandwidth { src: 1, dst: 2, .. })
        ));
        let mut cluster = fc_full_nvlink(4);
        cluster.links[0][3].latency = f64::NAN;
        assert!(matches!(
            validate_numerics(&cost, &cluster),
            Err(NumericsError::Latency { src: 0, dst: 3, .. })
        ));
    }

    #[test]
    fn numerics_validation_allows_ideal_links() {
        // Loopback links are infinite-bandwidth, zero-latency — legal.
        let cost = CostTable::build(&ModelConfig::bert64(), 4, 1);
        let cluster = fc_full_nvlink(4);
        assert_eq!(validate_numerics(&cost, &cluster), Ok(()));
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
