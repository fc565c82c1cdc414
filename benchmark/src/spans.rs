//! Benchmark-side spans: one record around each call into a crate's
//! public API during the traced phase. Spans stay in memory while
//! measuring and are written out once, when the phase ends.

use crate::report::Json;
use serde::{Serialize, Value};
use std::path::Path;
use std::time::Instant;

/// One recorded interval. `parent` indexes the span that caused it in
/// the same log; spans of one operation share `op`.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Span {
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub op: u64,
}

impl Span {
    pub fn duration_ms(&self) -> f64 {
        self.end_ns.saturating_sub(self.start_ns) as f64 / 1e6
    }
}

/// An in-memory span log on one clock origin. A log belongs to one
/// thread while recording; client threads keep their own and the owner
/// [`SpanLog::merge`]s them afterwards.
pub struct SpanLog {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl SpanLog {
    pub fn new(origin: Instant) -> SpanLog {
        SpanLog { origin, spans: Vec::new(), open: Vec::new() }
    }

    /// A fresh log on the same clock, for another thread.
    pub fn fork(&self) -> SpanLog {
        SpanLog::new(self.origin)
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Run `f` inside a span; spans opened by `f` through the log it is
    /// handed become this span's children.
    pub fn time<R>(&mut self, name: &str, op: u64, f: impl FnOnce(&mut SpanLog) -> R) -> R {
        let index = self.spans.len();
        let parent = self.open.last().copied();
        self.spans.push(Span { name: name.to_string(), start_ns: 0, end_ns: 0, parent, op });
        self.open.push(index);
        // The clock is read right around the call, so that the log's own
        // bookkeeping stays out of microsecond spans.
        let start = Instant::now();
        let out = f(self);
        let end = Instant::now();
        self.open.pop();
        (self.spans[index].start_ns, self.spans[index].end_ns) = (self.ns(start), self.ns(end));
        out
    }

    /// Record a finished interval (timed by the caller) under the span
    /// currently open.
    pub fn record(&mut self, name: &str, op: u64, start: Instant, end: Instant) {
        let parent = self.open.last().copied();
        let (start_ns, end_ns) = (self.ns(start), self.ns(end));
        self.spans.push(Span { name: name.to_string(), start_ns, end_ns, parent, op });
    }

    /// Append another thread's log, keeping its parent links intact.
    pub fn merge(&mut self, other: SpanLog) {
        let base = self.spans.len();
        self.spans.extend(
            other.spans.into_iter().map(|s| Span { parent: s.parent.map(|p| p + base), ..s }),
        );
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations (ms) of every span called `name`, in recording order.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans.iter().filter(|s| s.name == name).map(Span::duration_ms).collect()
    }

    /// Self time (ns) of every span: its duration minus the part of its
    /// interval that its direct children cover (overlapping children are
    /// counted once).
    pub fn self_ns(&self) -> Vec<u64> {
        let mut kids: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(parent) = s.parent {
                let p = &self.spans[parent];
                let (a, b) = (s.start_ns.max(p.start_ns), s.end_ns.min(p.end_ns));
                if b > a {
                    kids[parent].push((a, b));
                }
            }
        }
        self.spans
            .iter()
            .zip(kids)
            .map(|(span, mut kids)| {
                kids.sort_unstable();
                let (mut covered, mut reach) = (0u64, span.start_ns);
                for (a, b) in kids {
                    let a = a.max(reach);
                    if b > a {
                        covered += b - a;
                        reach = b;
                    }
                }
                span.end_ns.saturating_sub(span.start_ns) - covered
            })
            .collect()
    }

    /// Write the log as one JSON array (name, start, end, parent, op and
    /// self time per span).
    pub fn write_json(&self, path: &Path) -> Result<(), String> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        }
        let rows: Vec<Value> = self
            .spans
            .iter()
            .zip(self.self_ns())
            .map(|(span, self_ns)| {
                let mut row = span.to_value();
                if let Value::Map(fields) = &mut row {
                    fields.push(("self_ns".to_string(), Value::U64(self_ns)));
                }
                row
            })
            .collect();
        let json = serde_json::to_string(&Json(Value::Seq(rows))).map_err(|e| e.to_string())?;
        std::fs::write(path, json + "\n").map_err(|e| format!("{}: {e}", path.display()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn log_with(spans: &[(&str, u64, u64, Option<usize>)]) -> SpanLog {
        let mut log = SpanLog::new(Instant::now());
        for &(name, start_ns, end_ns, parent) in spans {
            log.spans.push(Span { name: name.to_string(), start_ns, end_ns, parent, op: 0 });
        }
        log
    }

    #[test]
    fn self_time_is_duration_minus_child_cover() {
        // Parent 0..100 ms; children cover 10..30 and 20..50 (overlapping:
        // union 40 ms) and 90..120 (clipped to 90..100); a grandchild
        // inside the first child does not count against the parent.
        let ms = 1_000_000;
        let log = log_with(&[
            ("parent", 0, 100 * ms, None),
            ("kid", 10 * ms, 30 * ms, Some(0)),
            ("kid", 20 * ms, 50 * ms, Some(0)),
            ("kid", 90 * ms, 120 * ms, Some(0)),
            ("grandkid", 12 * ms, 14 * ms, Some(1)),
        ]);
        assert_eq!(log.self_ns(), [50 * ms, 18 * ms, 30 * ms, 30 * ms, 2 * ms]);
    }

    #[test]
    fn nested_timing_links_children_to_parents() {
        let mut log = SpanLog::new(Instant::now());
        log.time("op", 7, |log| {
            log.time("inner", 7, |_| std::thread::sleep(Duration::from_millis(2)));
            let t0 = Instant::now();
            log.record("leaf", 7, t0, t0 + Duration::from_millis(1));
        });
        let spans = log.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!((spans[0].parent, spans[1].parent, spans[2].parent), (None, Some(0), Some(0)));
        assert!(spans.iter().all(|s| s.op == 7));
        assert!(spans[0].duration_ms() >= spans[1].duration_ms());
        assert!(log.self_ns()[0] <= spans[0].end_ns - spans[0].start_ns);
    }

    #[test]
    fn merge_offsets_parent_links() {
        let mut a = log_with(&[("a", 0, 10, None)]);
        let b = log_with(&[("b", 0, 10, None), ("c", 2, 4, Some(0))]);
        a.merge(b);
        assert_eq!(a.spans()[2].parent, Some(1));
        assert_eq!(a.durations_ms("c"), vec![2e-6]);
    }
}
