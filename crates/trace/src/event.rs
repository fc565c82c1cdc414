//! The unified event model both engines emit.

use serde::{Deserialize, Serialize};
use std::fmt;

/// What an event's span was spent doing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum TraceKind {
    /// Forward of one micro-batch on one stage.
    Fwd,
    /// Backward of one micro-batch on one stage (under activation
    /// checkpointing, the portion *after* the replay).
    Bwd,
    /// The backward-time forward replay of a checkpointed stage
    /// (runtime, `Recompute::Full` only; the simulator folds the replay
    /// into the backward cost).
    Recompute,
    /// An outbound transfer. Simulator: the link occupancy of the
    /// rendezvous transfer, on the source device. Runtime: the (cheap,
    /// non-blocking) channel send.
    Send,
    /// An inbound transfer. Simulator: transfer start to arrival, on the
    /// destination device. Runtime: the blocking receive — wait included.
    Recv,
    /// The data-parallel gradient all-reduce for one stage (runtime only;
    /// the plan layer models it analytically).
    Allreduce,
    /// The optimizer step at the flush (zero-duration in the simulator,
    /// which charges it no cost).
    Optim,
}

impl TraceKind {
    /// Does this span occupy the device's compute stream? Compute spans
    /// are serial per device; comm spans may overlap them and each other.
    pub fn is_compute(self) -> bool {
        matches!(self, TraceKind::Fwd | TraceKind::Bwd | TraceKind::Recompute | TraceKind::Optim)
    }

    /// Stable lowercase label (used in Chrome event names).
    pub fn label(self) -> &'static str {
        match self {
            TraceKind::Fwd => "fwd",
            TraceKind::Bwd => "bwd",
            TraceKind::Recompute => "recompute",
            TraceKind::Send => "send",
            TraceKind::Recv => "recv",
            TraceKind::Allreduce => "allreduce",
            TraceKind::Optim => "optim",
        }
    }

    fn order(self) -> u8 {
        match self {
            TraceKind::Fwd => 0,
            TraceKind::Bwd => 1,
            TraceKind::Recompute => 2,
            TraceKind::Send => 3,
            TraceKind::Recv => 4,
            TraceKind::Allreduce => 5,
            TraceKind::Optim => 6,
        }
    }
}

impl fmt::Display for TraceKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// One executed span. Times are seconds — simulated seconds for the
/// discrete-event engine, wall-clock seconds since the trainer's origin
/// for the threaded runtime.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TraceEvent {
    /// Device (pipeline rank; data-parallel traces use global ranks).
    pub device: u32,
    /// What the span did.
    pub kind: TraceKind,
    /// Micro-batch, when the op has one (`None` for Optim/Allreduce).
    pub mb: Option<u32>,
    /// Global stage, when the op has one (the runtime's per-stage Optim
    /// spans carry it; the simulator's whole-flush Optim marker does not).
    pub stage: Option<u32>,
    /// Span start, seconds.
    pub t_start: f64,
    /// Span end, seconds (`>= t_start`).
    pub t_end: f64,
}

impl TraceEvent {
    /// Span length in seconds.
    pub fn duration(&self) -> f64 {
        self.t_end - self.t_start
    }

    /// Deterministic total order used by [`Trace::normalize`].
    fn sort_key(&self) -> (f64, f64, u32, u8, u32, u32) {
        (
            self.t_start,
            self.t_end,
            self.device,
            self.kind.order(),
            self.mb.unwrap_or(u32::MAX),
            self.stage.unwrap_or(u32::MAX),
        )
    }
}

/// A violated trace invariant (see [`Trace::validate`]).
#[derive(Debug, Clone, PartialEq)]
pub enum TraceError {
    /// An event's end precedes its start, or a time is not finite.
    BadSpan {
        /// Index into `events`.
        index: usize,
        /// Start of the offending span.
        t_start: f64,
        /// End of the offending span.
        t_end: f64,
    },
    /// An event names a device outside `0..devices`.
    BadDevice {
        /// Index into `events`.
        index: usize,
        /// The out-of-range device.
        device: u32,
    },
    /// Events are not sorted by the canonical key (run
    /// [`Trace::normalize`] first).
    Unsorted {
        /// Index of the first out-of-order event.
        index: usize,
    },
    /// Two compute spans on the same device overlap — a device computes
    /// one thing at a time in both engines.
    ComputeOverlap {
        /// The device with overlapping compute.
        device: u32,
        /// End of the earlier span.
        prev_end: f64,
        /// Start of the later (overlapping) span.
        next_start: f64,
    },
}

impl fmt::Display for TraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceError::BadSpan { index, t_start, t_end } => {
                write!(f, "event {index}: span [{t_start}, {t_end}] is not a valid interval")
            }
            TraceError::BadDevice { index, device } => {
                write!(f, "event {index}: device {device} outside the trace's device range")
            }
            TraceError::Unsorted { index } => {
                write!(f, "event {index} is out of order; call Trace::normalize")
            }
            TraceError::ComputeOverlap { device, prev_end, next_start } => {
                write!(
                    f,
                    "device {device}: compute span starting {next_start} overlaps one ending {prev_end}"
                )
            }
        }
    }
}

impl std::error::Error for TraceError {}

/// A complete execution trace: every span of one run, canonically sorted.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Trace {
    /// Number of devices (rows) the trace covers.
    pub devices: u32,
    /// The spans, in [`Trace::normalize`] order.
    pub events: Vec<TraceEvent>,
}

impl Trace {
    /// An empty trace over `devices` devices.
    pub fn new(devices: u32) -> Trace {
        Trace { devices, events: Vec::new() }
    }

    /// Sort events into the canonical deterministic order (by start, end,
    /// device, kind, micro-batch, stage). Both engines normalize before
    /// handing a trace out; call this again after merging traces.
    pub fn normalize(&mut self) {
        self.events.sort_by(|a, b| {
            let (at, ae, ad, ak, am, as_) = a.sort_key();
            let (bt, be, bd, bk, bm, bs) = b.sort_key();
            at.total_cmp(&bt)
                .then(ae.total_cmp(&be))
                .then(ad.cmp(&bd))
                .then(ak.cmp(&bk))
                .then(am.cmp(&bm))
                .then(as_.cmp(&bs))
        });
    }

    /// Earliest span start (0.0 for an empty trace).
    pub(crate) fn start_time(&self) -> f64 {
        if self.events.is_empty() {
            return 0.0;
        }
        self.events.iter().map(|e| e.t_start).fold(f64::INFINITY, f64::min)
    }

    /// Latest span end — for a simulator trace this equals the
    /// `SimReport`'s `iteration_time` *exactly* (0.0 for an empty trace).
    pub fn makespan(&self) -> f64 {
        self.events.iter().map(|e| e.t_end).fold(0.0, f64::max)
    }

    /// `makespan − start_time`: the executed wall span. For simulator
    /// traces this equals [`Trace::makespan`] (some device computes at
    /// t = 0); for runtime traces it excludes thread-spawn lead-in.
    pub fn duration(&self) -> f64 {
        if self.events.is_empty() {
            return 0.0;
        }
        self.makespan() - self.start_time()
    }

    /// Busy compute seconds per device (compute spans are non-overlapping,
    /// so the sum *is* the union).
    pub fn device_busy(&self) -> Vec<f64> {
        let mut busy = vec![0.0; self.devices as usize];
        for e in &self.events {
            if e.kind.is_compute() {
                busy[e.device as usize] += e.duration();
            }
        }
        busy
    }

    /// `1 − Σ busy / (P · duration)` — the bubble ratio as measured on
    /// this trace. Matches `SimReport::bubble_ratio` bit-for-bit on
    /// simulator traces.
    pub fn bubble_ratio(&self) -> f64 {
        let span = self.duration();
        if span <= 0.0 {
            return 0.0;
        }
        let busy: f64 = self.device_busy().iter().sum();
        1.0 - busy / (span * self.devices as f64)
    }

    /// Check every invariant: finite ordered spans, devices in range,
    /// canonical sort order, and per-device non-overlapping compute.
    pub fn validate(&self) -> Result<(), TraceError> {
        for (index, e) in self.events.iter().enumerate() {
            if !(e.t_start.is_finite() && e.t_end.is_finite() && e.t_end >= e.t_start) {
                return Err(TraceError::BadSpan { index, t_start: e.t_start, t_end: e.t_end });
            }
            if e.device >= self.devices {
                return Err(TraceError::BadDevice { index, device: e.device });
            }
        }
        for (i, pair) in self.events.windows(2).enumerate() {
            if pair[0].sort_key() > pair[1].sort_key() {
                return Err(TraceError::Unsorted { index: i + 1 });
            }
        }
        // Compute spans per device must be serial. Events are sorted by
        // start, so one running maximum per device suffices.
        let mut last_end = vec![f64::NEG_INFINITY; self.devices as usize];
        for e in self.events.iter().filter(|e| e.kind.is_compute()) {
            let d = e.device as usize;
            if e.t_start < last_end[d] - 1e-12 {
                return Err(TraceError::ComputeOverlap {
                    device: e.device,
                    prev_end: last_end[d],
                    next_start: e.t_start,
                });
            }
            last_end[d] = last_end[d].max(e.t_end);
        }
        Ok(())
    }

    /// Merge `other` into `self` with every span shifted `t_offset`
    /// seconds later — how a *resumed* run's trace lands on the same clock
    /// as the segment recorded before the failure: the caller passes the
    /// earlier trace's [`Trace::makespan`], so the resumed spans start
    /// where the interrupted ones ended and every analysis (busy, bubble,
    /// overlap, critical path) stays exact over the merged timeline.
    /// Re-normalizes.
    pub fn merge_shifted(&mut self, other: &Trace, t_offset: f64) {
        self.devices = self.devices.max(other.devices);
        self.events.extend(other.events.iter().map(|e| TraceEvent {
            t_start: e.t_start + t_offset,
            t_end: e.t_end + t_offset,
            ..*e
        }));
        self.normalize();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(device: u32, kind: TraceKind, t0: f64, t1: f64) -> TraceEvent {
        TraceEvent { device, kind, mb: Some(0), stage: Some(0), t_start: t0, t_end: t1 }
    }

    #[test]
    fn makespan_duration_and_busy() {
        let mut t = Trace::new(2);
        t.events.push(ev(0, TraceKind::Fwd, 1.0, 2.0));
        t.events.push(ev(1, TraceKind::Fwd, 2.0, 4.0));
        t.events.push(ev(1, TraceKind::Recv, 1.0, 2.0));
        t.normalize();
        assert_eq!(t.makespan(), 4.0);
        assert_eq!(t.duration(), 3.0);
        assert_eq!(t.device_busy(), vec![1.0, 2.0]);
        // busy 3 of 2·3 device-seconds → bubble 1/2.
        assert!((t.bubble_ratio() - 0.5).abs() < 1e-12);
        t.validate().unwrap();
    }

    #[test]
    fn validate_catches_compute_overlap_but_allows_comm_overlap() {
        let mut t = Trace::new(1);
        t.events.push(ev(0, TraceKind::Fwd, 0.0, 2.0));
        t.events.push(ev(0, TraceKind::Recv, 0.5, 1.5));
        t.normalize();
        t.validate().unwrap();
        t.events.push(ev(0, TraceKind::Bwd, 1.0, 3.0));
        t.normalize();
        assert!(matches!(t.validate(), Err(TraceError::ComputeOverlap { device: 0, .. })));
    }

    #[test]
    fn validate_catches_bad_spans_devices_and_order() {
        let mut t = Trace::new(1);
        t.events.push(ev(0, TraceKind::Fwd, 2.0, 1.0));
        assert!(matches!(t.validate(), Err(TraceError::BadSpan { .. })));
        t.events[0] = ev(3, TraceKind::Fwd, 0.0, 1.0);
        assert!(matches!(t.validate(), Err(TraceError::BadDevice { device: 3, .. })));
        let mut t = Trace::new(1);
        t.events.push(ev(0, TraceKind::Fwd, 1.0, 2.0));
        t.events.push(ev(0, TraceKind::Fwd, 0.0, 1.0));
        assert!(matches!(t.validate(), Err(TraceError::Unsorted { index: 1 })));
    }

    #[test]
    fn merge_shifted_resumes_on_one_clock() {
        // Pre-failure segment: device 0 computes [0,1], device 1 [1,2].
        let mut before = Trace::new(2);
        before.events.push(ev(0, TraceKind::Fwd, 0.0, 1.0));
        before.events.push(ev(1, TraceKind::Fwd, 1.0, 2.0));
        before.normalize();
        // Resumed segment, recorded from its own origin.
        let mut resumed = Trace::new(2);
        resumed.events.push(ev(0, TraceKind::Fwd, 0.0, 0.5));
        resumed.events.push(ev(0, TraceKind::Bwd, 0.5, 1.5));
        resumed.normalize();
        let offset = before.makespan();
        before.merge_shifted(&resumed, offset);
        before.validate().unwrap();
        assert_eq!(before.makespan(), 3.5);
        // Busy time is the sum of both segments, exactly.
        assert_eq!(before.device_busy(), vec![2.5, 1.0]);
        // No resumed span starts before the pre-failure makespan.
        let shifted: Vec<&TraceEvent> =
            before.events.iter().filter(|e| e.t_start >= offset).collect();
        assert_eq!(shifted.len(), 2);
    }

    #[test]
    fn empty_trace_is_degenerate_but_valid() {
        let t = Trace::new(4);
        assert_eq!(t.makespan(), 0.0);
        assert_eq!(t.duration(), 0.0);
        assert_eq!(t.bubble_ratio(), 0.0);
        t.validate().unwrap();
    }
}
