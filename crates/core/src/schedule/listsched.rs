//! The constrained list scheduler used by the wave-shaped schemes.
//!
//! The paper's framework "automatically deploys the structure with any
//! desired number of waves or devices" (§3.3). We realise that with a
//! deterministic greedy list scheduler: simulate execution under abstract
//! unit costs and freeze the order in which each device picked its ops.
//!
//! Policy (chosen to reproduce the paper's figures):
//!
//! * **Deepest-first** — among ready ops, the one furthest along its
//!   dependency chain wins. This keeps every micro-batch flowing through
//!   the wave instead of letting freshly-arrived shallow work interleave
//!   and shear the wave apart, and it subsumes the 1F1B backward-priority
//!   rule: backward positions are deeper than every forward position by
//!   construction, so a ready backward always beats a ready forward.
//! * **Micro-batch order tie-break** — equal depth resolves to the lower
//!   micro-batch index, which keeps the schedule deterministic and the
//!   waves ordered.
//! * **Admission control** — at most `cap` micro-batches of each path group
//!   may be in flight (entered forward, not yet finished their last
//!   forward chunk). The backward backlog stays bounded anyway, because
//!   deepest-first drains backwards before admitting shallow work, and
//!   re-admitting at the last forward is what sustains the steady state
//!   across rounds. The cap bounds activation memory like 1F1B's warmup
//!   depth does.
//!
//! A stage-chunk forward costs one abstract unit and a backward two (the
//! paper draws `T_B = 2 T_F`); a cross-device dependency adds nothing.

use crate::chain::{ComputeOp, ComputeSchedule};
use crate::config::PipelineConfig;
use crate::ids::MicroBatch;
use crate::schedule::ScheduleError;
use crate::stage_map::StageMap;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

/// Abstract cost of one *stage-chunk* forward.
const F_COST: u64 = 1;

/// Abstract cost of one stage-chunk backward.
const B_COST: u64 = 2;

/// Priority of a ready op within one device's ready set. `Ord` is "larger =
/// run first" to suit a max-heap.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct Prio {
    pos: u32,         // deeper chain position first (subsumes 1F1B priority)
    mb: Reverse<u32>, // lower micro-batch first
}

/// Event queue entries, ordered by time then sequence for determinism.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct Event {
    time: u64,
    seq: u64,
    kind: EventKind,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum EventKind {
    /// Device finished its current op.
    DeviceDone { device: u32, mb: u32, pos: u32 },
    /// A dependency (possibly with comm delay) resolved; op becomes ready.
    OpReady { mb: u32, pos: u32 },
}

struct Engine<'a> {
    map: &'a StageMap,
    stages: u32,
    cap: u32,
    ready: Vec<BinaryHeap<(Prio, u32, u32)>>,
    busy: Vec<bool>,
    order: Vec<Vec<ComputeOp>>,
    in_flight: Vec<u32>,
    pending: Vec<VecDeque<u32>>,
    events: BinaryHeap<Reverse<Event>>,
    seq: u64,
    done: usize,
}

impl<'a> Engine<'a> {
    fn push_event(&mut self, time: u64, kind: EventKind) {
        self.events.push(Reverse(Event { time, seq: self.seq, kind }));
        self.seq += 1;
    }

    fn device_of(&self, mb: u32, pos: u32) -> usize {
        let op = ComputeOp::from_pos(MicroBatch(mb), pos, self.stages);
        let g = self.map.group_of(MicroBatch(mb));
        self.map.groups[g].path[op.stage.idx()].idx()
    }

    /// Admit micro-batches of group `g` up to the cap.
    fn admit(&mut self, g: usize, now: u64) {
        while self.in_flight[g] < self.cap {
            let Some(m) = self.pending[g].pop_front() else { break };
            self.in_flight[g] += 1;
            self.push_event(now, EventKind::OpReady { mb: m, pos: 0 });
        }
    }

    /// Handle one event; returns the device whose ready set / busy state
    /// changed.
    fn handle(&mut self, ev: Event) -> usize {
        let now = ev.time;
        match ev.kind {
            EventKind::OpReady { mb, pos } => {
                let d = self.device_of(mb, pos);
                let prio = Prio { pos, mb: Reverse(mb) };
                self.ready[d].push((prio, mb, pos));
                d
            }
            EventKind::DeviceDone { device, mb, pos } => {
                let d = device as usize;
                self.busy[d] = false;
                self.done += 1;
                if pos == self.stages - 1 {
                    let g = self.map.group_of(MicroBatch(mb));
                    self.in_flight[g] -= 1;
                    self.admit(g, now);
                }
                if pos + 1 < 2 * self.stages {
                    self.push_event(now, EventKind::OpReady { mb, pos: pos + 1 });
                }
                d
            }
        }
    }

    /// Start the best ready op on device `d` if it is idle.
    fn dispatch(&mut self, d: usize, now: u64) {
        if self.busy[d] {
            return;
        }
        if let Some((_, mb, pos)) = self.ready[d].pop() {
            let op = ComputeOp::from_pos(MicroBatch(mb), pos, self.stages);
            let cost = if op.backward { B_COST } else { F_COST };
            self.busy[d] = true;
            self.order[d].push(op);
            self.push_event(now + cost, EventKind::DeviceDone { device: d as u32, mb, pos });
        }
    }
}

/// Generate a per-device compute order for an arbitrary [`StageMap`] by
/// deterministic greedy list scheduling, with at most `cap` micro-batches
/// of each path group in flight (`None` = unbounded, GPipe-like). A
/// micro-batch retires from the cap when its last forward chunk completes.
pub fn list_schedule(
    cfg: &PipelineConfig,
    map: StageMap,
    cap: Option<u32>,
) -> Result<ComputeSchedule, ScheduleError> {
    let s = map.stages;
    let b = cfg.micro_batches;
    let p = map.devices as usize;
    let total_ops = (2 * s * b) as usize;
    let groups = map.groups.len();

    let mut pending: Vec<VecDeque<u32>> = vec![VecDeque::new(); groups];
    for m in 0..b {
        pending[map.group_of(MicroBatch(m))].push_back(m);
    }

    let mut eng = Engine {
        map: &map,
        stages: s,
        cap: cap.unwrap_or(u32::MAX),
        ready: (0..p).map(|_| BinaryHeap::new()).collect(),
        busy: vec![false; p],
        order: (0..p).map(|_| Vec::new()).collect(),
        in_flight: vec![0; groups],
        pending,
        events: BinaryHeap::new(),
        seq: 0,
        done: 0,
    };

    for g in 0..groups {
        eng.admit(g, 0);
    }

    // Main loop: drain every event at the current timestamp before
    // dispatching, so dispatch decisions see the complete ready set.
    while let Some(Reverse(first)) = eng.events.pop() {
        let now = first.time;
        let mut touched = vec![eng.handle(first)];
        while eng.events.peek().is_some_and(|Reverse(peek)| peek.time == now) {
            let Some(Reverse(ev)) = eng.events.pop() else { break };
            touched.push(eng.handle(ev));
        }
        touched.sort_unstable();
        touched.dedup();
        for d in touched {
            eng.dispatch(d, now);
        }
    }

    if eng.done != total_ops {
        return Err(ScheduleError::Deadlock { scheduled: eng.done, expected: total_ops });
    }
    let order = eng.order;
    Ok(ComputeSchedule { config: *cfg, stage_map: map, per_device: order })
}

/// Generate a named scheme's compute order over its own [`StageMap`] with
/// at most `cap` micro-batches of each path group in flight. Hanayo,
/// interleaved 1F1B and Chimera differ only in `cap`.
pub(crate) fn capped(cfg: &PipelineConfig, cap: u32) -> Result<ComputeSchedule, ScheduleError> {
    list_schedule(cfg, StageMap::for_config(cfg), Some(cap))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Scheme;

    fn hanayo_cfg(p: u32, b: u32, w: u32) -> (PipelineConfig, StageMap) {
        let cfg = PipelineConfig::new(p, b, Scheme::Hanayo { waves: w }).unwrap();
        let map = StageMap::for_config(&cfg);
        (cfg, map)
    }

    #[test]
    fn schedules_all_ops_exactly_once() {
        let (cfg, map) = hanayo_cfg(4, 8, 2);
        let cs = list_schedule(&cfg, map, Some(4)).unwrap();
        assert_eq!(cs.total_ops(), cs.expected_ops());
        let mut seen = std::collections::HashSet::new();
        for ops in &cs.per_device {
            for op in ops {
                assert!(seen.insert(*op), "duplicate {op}");
            }
        }
        assert_eq!(seen.len(), cs.expected_ops());
    }

    #[test]
    fn ops_run_on_their_mapped_device() {
        let (cfg, map) = hanayo_cfg(4, 4, 1);
        let cs = list_schedule(&cfg, map.clone(), None).unwrap();
        for (d, ops) in cs.per_device.iter().enumerate() {
            for op in ops {
                assert_eq!(map.device_of(op.mb, op.stage).idx(), d);
            }
        }
    }

    #[test]
    fn per_device_order_respects_chain_deps_locally() {
        // If two ops of the same micro-batch land on the same device, the
        // earlier chain position must be listed first.
        let (cfg, map) = hanayo_cfg(4, 4, 2);
        let s = map.stages;
        let cs = list_schedule(&cfg, map, None).unwrap();
        for ops in &cs.per_device {
            for m in 0..cfg.micro_batches {
                let positions: Vec<u32> =
                    ops.iter().filter(|o| o.mb.0 == m).map(|o| o.pos(s)).collect();
                let mut sorted = positions.clone();
                sorted.sort_unstable();
                assert_eq!(positions, sorted, "mb{m} out of chain order");
            }
        }
    }

    #[test]
    fn admission_cap_bounds_in_flight() {
        let (cfg, map) = hanayo_cfg(2, 8, 1);
        let s = map.stages;
        let cs = list_schedule(&cfg, map, Some(2)).unwrap();
        // mb k's first forward cannot be listed on the entry device before
        // mb k-2's last forward chunk completes there (cap = 2; a wave's
        // last stage sits on the entry device).
        let dev0 = &cs.per_device[0];
        let first_fwd = |m: u32| dev0.iter().position(|o| o.mb.0 == m && o.pos(s) == 0).unwrap();
        let last_fwd = |m: u32| dev0.iter().position(|o| o.mb.0 == m && o.pos(s) == s - 1).unwrap();
        for m in 2..8 {
            assert!(first_fwd(m) > last_fwd(m - 2), "mb{m} admitted before mb{} retired", m - 2);
        }
    }

    #[test]
    fn forward_complete_retirement_sustains_steady_state() {
        // Re-admitting on forward completion keeps rounds flowing past
        // B = P: at cap P the replayed bubble ratio keeps falling as B
        // grows, and the activation peak stays within the 1F1B budget of
        // P units.
        use crate::gantt::replay_timeline;
        use crate::memory::unit_profile;
        let p = 8;
        let run = |b: u32| {
            let (cfg, map) = hanayo_cfg(p, b, 2);
            let cs = list_schedule(&cfg, map, Some(p)).unwrap();
            let bubble = replay_timeline(&cs, 1, 2, 0).bubble_ratio();
            let peak = unit_profile(&cs).ma_peak_units.iter().cloned().fold(0.0, f64::max);
            (bubble, peak)
        };
        let mut last = f64::INFINITY;
        for b in [p, 2 * p, 4 * p] {
            let (bubble, peak) = run(b);
            assert!(bubble < last, "B = {b}: bubble {bubble} not below {last}");
            assert!(peak <= p as f64 + 1e-9, "B = {b}: activation peak {peak}");
            last = bubble;
        }
    }

    #[test]
    fn cap_at_batch_size_orders_like_no_cap() {
        // With a cap of B admission never blocks, so the order is the
        // unbounded one: where a micro-batch retires cannot matter.
        for p in [2, 4] {
            for w in [1, 2] {
                for b in [p, 2 * p] {
                    let (cfg, map) = hanayo_cfg(p, b, w);
                    let capped = list_schedule(&cfg, map.clone(), Some(b)).unwrap();
                    assert_eq!(capped, list_schedule(&cfg, map, None).unwrap(), "P{p} W{w} B{b}");
                }
            }
        }
    }

    #[test]
    fn unbounded_cap_floods_like_gpipe() {
        let (cfg, map) = hanayo_cfg(2, 4, 1);
        let cs = list_schedule(&cfg, map, None).unwrap();
        assert_eq!(cs.total_ops(), cs.expected_ops());
    }

    #[test]
    fn turnaround_device_backs_up_immediately() {
        // The deepest-first rule means the device holding the last stage
        // (device 0 in a wave pipeline) turns mb0 around with no forward in
        // between: B(mb0, S-1) directly follows F(mb0, S-1).
        let (cfg, map) = hanayo_cfg(2, 4, 1);
        let s = map.stages;
        let cs = list_schedule(&cfg, map, Some(2)).unwrap();
        let d0 = &cs.per_device[0];
        let last_fwd =
            d0.iter().position(|o| o.mb.0 == 0 && o.stage.0 == s - 1 && !o.backward).unwrap();
        assert_eq!(d0[last_fwd + 1], ComputeOp::bwd(0, s - 1), "turnaround delayed: {d0:?}");
    }

    #[test]
    fn hanayo_activation_peak_tracks_the_cap() {
        // A wave micro-batch's full forward leaves one activation unit on
        // every device (2W stage chunks of 1/(2W) each), so the cap bounds
        // every device's peak, and up to the generator's cap of P the
        // bound is reached.
        use crate::memory::unit_profile;
        for p in [2, 4, 8] {
            for w in [1, 2, 4] {
                let (cfg, _) = hanayo_cfg(p, 4 * p, w);
                for cap in 1..=2 * p {
                    let cs = capped(&cfg, cap).unwrap();
                    let peak = unit_profile(&cs).ma_peak_units.iter().cloned().fold(0.0, f64::max);
                    assert!(peak <= cap as f64 + 1e-9, "P={p} W={w} cap={cap}: peak {peak}");
                    if cap <= p {
                        assert!((peak - cap as f64).abs() < 1e-9, "P={p} W={w} cap={cap}: {peak}");
                    }
                }
            }
        }
    }

    #[test]
    fn cap_of_p_beats_its_neighbours() {
        // The Hanayo generator's cap P sits at a local minimum of the
        // replayed bubble ratio: caps P-1 and P+1 both idle longer.
        use crate::gantt::replay_timeline;
        for p in [2, 4, 8] {
            for w in [2, 4] {
                let (cfg, _) = hanayo_cfg(p, 4 * p, w);
                let bubble =
                    |cap: u32| replay_timeline(&capped(&cfg, cap).unwrap(), 1, 2, 0).bubble_ratio();
                let at_p = bubble(p);
                assert!(at_p < bubble(p - 1), "P={p} W={w}: {at_p} vs cap P-1");
                assert!(at_p < bubble(p + 1), "P={p} W={w}: {at_p} vs cap P+1");
            }
        }
    }
}
