//! Chrome `trace_event` export.
//!
//! Emits the *JSON array format* (a top-level array of complete `"ph":
//! "X"` events), which Perfetto and `chrome://tracing` both load
//! directly. Timestamps and durations are microseconds, per the format
//! spec. One "process" (`pid`) per device; compute spans on `tid` 0,
//! communication spans on `tid` 1, so overlapping comm renders on its own
//! track instead of nesting under compute.
//!
//! [`validate_chrome_json`] parses an export back and checks the fields
//! every viewer requires — the CI smoke test runs the `trace` binary,
//! then feeds the file through this validator.

use crate::event::{Trace, TraceKind};
use serde::{Deserialize, Serialize};

/// Track id for compute spans within a device's process.
pub(crate) const TID_COMPUTE: u32 = 0;
/// Track id for communication spans within a device's process.
pub(crate) const TID_COMM: u32 = 1;

/// One complete event in Chrome's `trace_event` schema.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub(crate) struct ChromeEvent {
    /// Human-readable label shown on the slice.
    pub name: String,
    /// Category (`compute` or `comm`).
    pub cat: String,
    /// Phase: always `"X"` (complete event).
    pub ph: String,
    /// Start timestamp, microseconds.
    pub ts: f64,
    /// Duration, microseconds.
    pub dur: f64,
    /// Process id: the device rank.
    pub pid: u32,
    /// Thread id: [`TID_COMPUTE`] or [`TID_COMM`].
    pub tid: u32,
}

fn event_name(kind: TraceKind, mb: Option<u32>, stage: Option<u32>) -> String {
    let mut name = kind.label().to_string();
    if let Some(mb) = mb {
        name.push_str(&format!(" mb{mb}"));
    }
    if let Some(stage) = stage {
        name.push_str(&format!(" s{stage}"));
    }
    name
}

/// Lower a [`Trace`] into the Chrome event list (times scaled from
/// seconds to microseconds).
pub(crate) fn chrome_events(trace: &Trace) -> Vec<ChromeEvent> {
    trace
        .events
        .iter()
        .map(|e| ChromeEvent {
            name: event_name(e.kind, e.mb, e.stage),
            cat: if e.kind.is_compute() { "compute" } else { "comm" }.to_string(),
            ph: "X".to_string(),
            ts: e.t_start * 1e6,
            dur: e.duration() * 1e6,
            pid: e.device,
            tid: if e.kind.is_compute() { TID_COMPUTE } else { TID_COMM },
        })
        .collect()
}

/// Serialize a trace as Chrome `trace_event` JSON (array format). Load
/// the output in <https://ui.perfetto.dev> or `chrome://tracing`.
/// Serialization of this flat event array cannot fail in practice; the
/// `Result` keeps the export path panic-free regardless.
pub fn chrome_trace_json(trace: &Trace) -> Result<String, String> {
    serde_json::to_string(&chrome_events(trace))
        .map_err(|e| format!("chrome trace serialization: {e}"))
}

/// Parse a Chrome-trace JSON export back and verify what every viewer
/// needs: valid JSON, an array of events, each with `ph == "X"`, finite
/// non-negative `ts`/`dur`, and `pid`/`tid` present (enforced by the
/// typed parse). Returns the event count.
pub fn validate_chrome_json(json: &str) -> Result<usize, String> {
    let events: Vec<ChromeEvent> =
        serde_json::from_str(json).map_err(|e| format!("not a Chrome trace array: {e}"))?;
    for (i, e) in events.iter().enumerate() {
        if e.ph != "X" {
            return Err(format!("event {i}: ph {:?} is not a complete event", e.ph));
        }
        if !(e.ts.is_finite() && e.ts >= 0.0) {
            return Err(format!("event {i}: ts {} is not a finite non-negative time", e.ts));
        }
        if !(e.dur.is_finite() && e.dur >= 0.0) {
            return Err(format!("event {i}: dur {} is not a finite non-negative span", e.dur));
        }
        if e.name.is_empty() {
            return Err(format!("event {i}: empty name"));
        }
    }
    Ok(events.len())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::TraceEvent;

    fn sample() -> Trace {
        let mut t = Trace::new(2);
        t.events.push(TraceEvent {
            device: 0,
            kind: TraceKind::Fwd,
            mb: Some(3),
            stage: Some(1),
            t_start: 0.5,
            t_end: 1.0,
        });
        t.events.push(TraceEvent {
            device: 1,
            kind: TraceKind::Recv,
            mb: Some(3),
            stage: Some(2),
            t_start: 0.75,
            t_end: 1.25,
        });
        t.normalize();
        t
    }

    #[test]
    fn export_has_required_fields_and_validates() {
        let json = chrome_trace_json(&sample()).unwrap();
        assert_eq!(validate_chrome_json(&json).unwrap(), 2);
        for field in ["\"ph\"", "\"ts\"", "\"dur\"", "\"pid\"", "\"tid\""] {
            assert!(json.contains(field), "missing {field} in {json}");
        }
    }

    #[test]
    fn times_are_microseconds_and_tracks_split_compute_from_comm() {
        let events = chrome_events(&sample());
        let fwd = events.iter().find(|e| e.name.starts_with("fwd")).unwrap();
        assert_eq!(fwd.ts, 0.5e6);
        assert_eq!(fwd.dur, 0.5e6);
        assert_eq!(fwd.tid, TID_COMPUTE);
        assert_eq!(fwd.cat, "compute");
        let recv = events.iter().find(|e| e.name.starts_with("recv")).unwrap();
        assert_eq!(recv.tid, TID_COMM);
        assert_eq!(recv.pid, 1);
        assert_eq!(recv.name, "recv mb3 s2");
    }

    #[test]
    fn validator_rejects_malformed_documents() {
        assert!(validate_chrome_json("{not json").is_err());
        assert!(validate_chrome_json("{\"traceEvents\": 3}").is_err());
        let bad_ph =
            r#"[{"name":"x","cat":"compute","ph":"B","ts":0.0,"dur":1.0,"pid":0,"tid":0}]"#;
        assert!(validate_chrome_json(bad_ph).unwrap_err().contains("complete event"));
        let bad_ts =
            r#"[{"name":"x","cat":"compute","ph":"X","ts":-1.0,"dur":1.0,"pid":0,"tid":0}]"#;
        assert!(validate_chrome_json(bad_ts).is_err());
    }
}
