//! Leveled structured logging with a `HANAYO_LOG` env filter.
//!
//! Events carry a level, a target (the subsystem emitting them), a
//! message, and typed key/value fields. Two sinks: human-readable logfmt
//! lines and JSON lines, both written to stderr by default; tests install
//! a capture sink plus a fixed clock and assert byte-exact output.
//!
//! ## Filter grammar (`HANAYO_LOG`)
//!
//! Comma-separated directives; each is either a bare level (the default
//! for all targets) or `target=level`. The longest target prefix that
//! matches wins. Levels: `off`, `error`, `warn`, `info`, `debug`,
//! `trace`.
//!
//! ```text
//! HANAYO_LOG=info                    # everything at info and above
//! HANAYO_LOG=warn,tuner=debug        # debug for tuner, warn elsewhere
//! HANAYO_LOG=off,calibrate=info      # calibration attempts only
//! ```
//!
//! Unset (or `off`) means logging is disabled; the per-event cost is then
//! one relaxed atomic load.
//!
//! Format selection: `HANAYO_LOG_FORMAT=json` for JSON lines, anything
//! else (or unset) for logfmt.

use std::io::Write as _;
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::{Mutex, MutexGuard, Once};

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Event severity, ordered from most to least verbose.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Level {
    /// Fine-grained internal detail.
    Trace = 1,
    /// Diagnostic state transitions.
    Debug = 2,
    /// Progress and outcomes of normal operation.
    Info = 3,
    /// Something degraded but the run continues.
    Warn = 4,
    /// The operation failed.
    Error = 5,
}

impl Level {
    /// Lower-case name as it appears in filters and output.
    pub fn as_str(self) -> &'static str {
        match self {
            Level::Trace => "trace",
            Level::Debug => "debug",
            Level::Info => "info",
            Level::Warn => "warn",
            Level::Error => "error",
        }
    }

    fn parse(s: &str) -> Option<Option<Level>> {
        match s.trim() {
            "off" => Some(None),
            "error" => Some(Some(Level::Error)),
            "warn" => Some(Some(Level::Warn)),
            "info" => Some(Some(Level::Info)),
            "debug" => Some(Some(Level::Debug)),
            "trace" => Some(Some(Level::Trace)),
            _ => None,
        }
    }
}

/// A typed field value on an event.
#[derive(Debug, Clone, Copy)]
pub enum Field<'a> {
    /// Unsigned integer.
    U64(u64),
    /// Signed integer.
    I64(i64),
    /// Float (rendered shortest round-trip).
    F64(f64),
    /// String (quoted/escaped).
    Str(&'a str),
    /// Boolean.
    Bool(bool),
}

/// One `target=level` directive (empty target = default).
#[derive(Debug, Clone)]
struct Directive {
    target: String,
    level: Option<Level>,
}

#[derive(Debug, Clone, Default)]
struct Filter {
    directives: Vec<Directive>,
}

impl Filter {
    /// Parse the `HANAYO_LOG` grammar; unknown fragments are ignored
    /// (a typo must not kill a training run).
    fn parse(spec: &str) -> Filter {
        let mut directives = Vec::new();
        for part in spec.split(',') {
            let part = part.trim();
            if part.is_empty() {
                continue;
            }
            match part.split_once('=') {
                Some((target, level)) => {
                    if let Some(level) = Level::parse(level) {
                        directives.push(Directive { target: target.trim().to_string(), level });
                    }
                }
                None => {
                    if let Some(level) = Level::parse(part) {
                        directives.push(Directive { target: String::new(), level });
                    }
                }
            }
        }
        Filter { directives }
    }

    /// Minimum level enabled for `target`: the longest matching target
    /// prefix wins; bare-level directives are the default.
    fn min_level(&self, target: &str) -> Option<Level> {
        let mut best: Option<(&Directive, usize)> = None;
        for d in &self.directives {
            if d.target.is_empty() || target.starts_with(d.target.as_str()) {
                let len = d.target.len();
                if best.is_none_or(|(_, blen)| len >= blen) {
                    best = Some((d, len));
                }
            }
        }
        best.and_then(|(d, _)| d.level)
    }

    /// The most verbose level any directive enables (the fast-path gate).
    fn floor(&self) -> u8 {
        self.directives.iter().filter_map(|d| d.level).map(|l| l as u8).min().unwrap_or(OFF)
    }
}

/// Output encoding.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Format {
    /// `ts=.. level=.. target=.. msg=".." k=v` lines.
    Logfmt,
    /// One JSON object per line.
    Json,
}

/// Where rendered lines go.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Sink {
    /// Standard error (the default).
    Stderr,
    /// An in-process buffer, drained with [`take_capture`] (tests).
    Capture,
}

struct State {
    filter: Filter,
    format: Format,
    sink: Sink,
}

impl Default for State {
    fn default() -> State {
        State { filter: Filter::default(), format: Format::Logfmt, sink: Sink::Stderr }
    }
}

/// `Level as u8` floor of the active filter; `OFF` (255) disables
/// everything and is the value the per-event fast path checks. Starts at
/// 0 (pass everything) so the very first event reaches the lazy env init
/// instead of being dropped before the filter exists.
const OFF: u8 = 255;
static FLOOR: AtomicU8 = AtomicU8::new(0);
static STATE: Mutex<Option<State>> = Mutex::new(None);
static CAPTURE: Mutex<String> = Mutex::new(String::new());
static INIT: Once = Once::new();

fn ensure_init() {
    INIT.call_once(|| {
        let spec = std::env::var("HANAYO_LOG").unwrap_or_default();
        let format = match std::env::var("HANAYO_LOG_FORMAT").as_deref() {
            Ok("json") => Format::Json,
            _ => Format::Logfmt,
        };
        install(&spec, format, Sink::Stderr);
    });
}

fn install(spec: &str, format: Format, sink: Sink) {
    let filter = Filter::parse(spec);
    FLOOR.store(filter.floor(), Ordering::SeqCst);
    *lock(&STATE) = Some(State { filter, format, sink });
}

/// Install an explicit configuration, bypassing the environment — the
/// byte-exact tests use this together with a fixed clock.
pub fn set_config(spec: &str, format: Format, sink: Sink) {
    INIT.call_once(|| {});
    install(spec, format, sink);
}

/// Drain and return everything the capture sink has accumulated.
pub fn take_capture() -> String {
    std::mem::take(&mut lock(&CAPTURE))
}

/// Would an event at `level` for `target` be emitted? One relaxed load
/// when the whole facade is off.
#[inline]
pub fn log_enabled(level: Level, target: &str) -> bool {
    if (level as u8) < FLOOR.load(Ordering::Relaxed) {
        return false;
    }
    ensure_init();
    let state = lock(&STATE);
    state.as_ref().and_then(|s| s.filter.min_level(target)).is_some_and(|min| level >= min)
}

fn render_field_logfmt(out: &mut String, key: &str, value: &Field<'_>) {
    out.push(' ');
    out.push_str(key);
    out.push('=');
    match value {
        Field::U64(v) => out.push_str(&v.to_string()),
        Field::I64(v) => out.push_str(&v.to_string()),
        Field::F64(v) => out.push_str(&v.to_string()),
        Field::Bool(v) => out.push_str(if *v { "true" } else { "false" }),
        Field::Str(v) => {
            out.push('"');
            out.push_str(&v.replace('\\', "\\\\").replace('"', "\\\""));
            out.push('"');
        }
    }
}

fn render_field_json(out: &mut String, key: &str, value: &Field<'_>) {
    out.push_str(",\"");
    out.push_str(&json_escape(key));
    out.push_str("\":");
    match value {
        Field::U64(v) => out.push_str(&v.to_string()),
        Field::I64(v) => out.push_str(&v.to_string()),
        Field::F64(v) => {
            if v.is_finite() {
                out.push_str(&v.to_string());
            } else {
                out.push_str("null");
            }
        }
        Field::Bool(v) => out.push_str(if *v { "true" } else { "false" }),
        Field::Str(v) => {
            out.push('"');
            out.push_str(&json_escape(v));
            out.push('"');
        }
    }
}

fn json_escape(v: &str) -> String {
    let mut out = String::with_capacity(v.len());
    for c in v.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            other => out.push(other),
        }
    }
    out
}

/// Emit one structured event. Fields render in the order given.
pub fn event(level: Level, target: &str, msg: &str, fields: &[(&str, Field<'_>)]) {
    if !log_enabled(level, target) {
        return;
    }
    let ts = crate::now_nanos();
    let (format, sink) = {
        let state = lock(&STATE);
        match state.as_ref() {
            Some(s) => (s.format, s.sink),
            None => (Format::Logfmt, Sink::Stderr),
        }
    };
    let mut line = String::with_capacity(96);
    match format {
        Format::Logfmt => {
            line.push_str("ts_ns=");
            line.push_str(&ts.to_string());
            line.push_str(" level=");
            line.push_str(level.as_str());
            line.push_str(" target=");
            line.push_str(target);
            line.push_str(" msg=\"");
            line.push_str(&msg.replace('\\', "\\\\").replace('"', "\\\""));
            line.push('"');
            for (k, v) in fields {
                render_field_logfmt(&mut line, k, v);
            }
        }
        Format::Json => {
            line.push_str("{\"ts_ns\":");
            line.push_str(&ts.to_string());
            line.push_str(",\"level\":\"");
            line.push_str(level.as_str());
            line.push_str("\",\"target\":\"");
            line.push_str(&json_escape(target));
            line.push_str("\",\"msg\":\"");
            line.push_str(&json_escape(msg));
            line.push('"');
            for (k, v) in fields {
                render_field_json(&mut line, k, v);
            }
            line.push('}');
        }
    }
    line.push('\n');
    match sink {
        Sink::Stderr => {
            let mut err = std::io::stderr().lock();
            let _ = err.write_all(line.as_bytes());
        }
        Sink::Capture => lock(&CAPTURE).push_str(&line),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{set_clock, ClockMode};

    /// Logging state is process-global; serialize the tests that mutate
    /// it.
    fn isolated(f: impl FnOnce()) {
        static GATE: Mutex<()> = Mutex::new(());
        let _guard = lock(&GATE);
        take_capture();
        f();
        set_config("off", Format::Logfmt, Sink::Stderr);
        set_clock(ClockMode::Wall);
        take_capture();
    }

    #[test]
    fn filter_grammar() {
        let f = Filter::parse("warn,tuner=debug,tuner::inner=trace,junk=zzz,,nonsense");
        assert_eq!(f.min_level("worker"), Some(Level::Warn));
        assert_eq!(f.min_level("tuner"), Some(Level::Debug));
        assert_eq!(f.min_level("tuner::inner"), Some(Level::Trace));
        let off = Filter::parse("off,calibrate=info");
        assert_eq!(off.min_level("worker"), None);
        assert_eq!(off.min_level("calibrate"), Some(Level::Info));
        assert_eq!(Filter::parse("").min_level("x"), None);
    }

    #[test]
    fn logfmt_output_is_byte_exact_under_a_fixed_clock() {
        isolated(|| {
            set_clock(ClockMode::Fixed(1234));
            set_config("info", Format::Logfmt, Sink::Capture);
            event(
                Level::Info,
                "calibrate",
                "attempt done",
                &[
                    ("attempt", Field::U64(1)),
                    ("rel_err_pct", Field::F64(12.5)),
                    ("pass", Field::Bool(true)),
                    ("note", Field::Str("quote \" here")),
                ],
            );
            event(Level::Debug, "calibrate", "filtered out", &[]);
            assert_eq!(
                take_capture(),
                "ts_ns=1234 level=info target=calibrate msg=\"attempt done\" \
                 attempt=1 rel_err_pct=12.5 pass=true note=\"quote \\\" here\"\n"
            );
        });
    }

    #[test]
    fn json_output_is_byte_exact_under_a_fixed_clock() {
        isolated(|| {
            set_clock(ClockMode::Fixed(7));
            set_config("debug", Format::Json, Sink::Capture);
            event(
                Level::Warn,
                "ckpt",
                "crc mismatch",
                &[("stored", Field::U64(1)), ("computed", Field::U64(2))],
            );
            assert_eq!(
                take_capture(),
                "{\"ts_ns\":7,\"level\":\"warn\",\"target\":\"ckpt\",\
                 \"msg\":\"crc mismatch\",\"stored\":1,\"computed\":2}\n"
            );
        });
    }

    #[test]
    fn off_filter_emits_nothing() {
        isolated(|| {
            set_config("off", Format::Logfmt, Sink::Capture);
            event(Level::Error, "anything", "dropped", &[]);
            assert_eq!(take_capture(), "");
            assert!(!log_enabled(Level::Error, "anything"));
        });
    }
}
