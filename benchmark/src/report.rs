//! The result document one run prints, the environment block a recorded
//! result carries, and the JSON-lines result sets `compare` reads.

use serde::{Deserialize, Serialize, Value};
use std::process::Command;

/// Any JSON document, kept as the serde shim's value tree.
pub struct Json(pub Value);

impl Serialize for Json {
    fn to_value(&self) -> Value {
        self.0.clone()
    }
}

impl Deserialize for Json {
    fn from_value(v: &Value) -> Result<Json, serde::Error> {
        Ok(Json(v.clone()))
    }
}

pub fn field<'a>(v: &'a Value, name: &str) -> Result<&'a Value, String> {
    v.as_map()
        .and_then(|m| m.iter().find(|(k, _)| k == name))
        .map(|(_, v)| v)
        .ok_or_else(|| format!("missing field {name}"))
}

/// One measured value with its unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: String,
}

/// What one run reports: the contract's four keys.
#[derive(Debug, Clone, PartialEq)]
pub struct RunResult {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
}

impl RunResult {
    pub fn to_value(&self) -> Value {
        let metrics = self
            .metrics
            .iter()
            .map(|m| {
                let body = Value::Map(vec![
                    ("value".to_string(), Value::F64(m.value)),
                    ("unit".to_string(), Value::Str(m.unit.clone())),
                ]);
                (m.name.clone(), body)
            })
            .collect();
        Value::Map(vec![
            ("correct".to_string(), Value::Bool(self.correct)),
            ("attempted".to_string(), Value::U64(self.attempted)),
            ("failed".to_string(), Value::U64(self.failed)),
            ("metrics".to_string(), Value::Map(metrics)),
        ])
    }

    pub fn from_value(v: &Value) -> Result<RunResult, String> {
        let int = |name: &str| -> Result<u64, String> {
            field(v, name)?
                .as_int()
                .and_then(|n| u64::try_from(n).ok())
                .ok_or_else(|| format!("{name} is not a whole number"))
        };
        let correct = match field(v, "correct")? {
            Value::Bool(b) => *b,
            _ => return Err("correct is not a boolean".to_string()),
        };
        let metrics = field(v, "metrics")?
            .as_map()
            .ok_or("metrics is not an object")?
            .iter()
            .map(|(name, body)| {
                Ok(Metric {
                    name: name.clone(),
                    value: field(body, "value")?.as_f64().ok_or("value is not a number")?,
                    unit: field(body, "unit")?.as_str().ok_or("unit is not a string")?.to_string(),
                })
            })
            .collect::<Result<Vec<_>, String>>()?;
        Ok(RunResult { correct, attempted: int("attempted")?, failed: int("failed")?, metrics })
    }

    /// The single line a run prints last.
    pub fn to_json(&self) -> String {
        serde_json::to_string(&Json(self.to_value())).unwrap_or_default()
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics.iter().find(|m| m.name == name).map(|m| m.value)
    }
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Cores the process may use; every result depends on it.
pub fn nproc() -> u64 {
    std::thread::available_parallelism().map_or(1, |n| n.get() as u64)
}

/// The 1-minute load average when the run started (0 where unreadable).
pub fn load_average() -> f64 {
    std::fs::read_to_string("/proc/loadavg")
        .ok()
        .and_then(|s| s.split_whitespace().next().and_then(|v| v.parse().ok()))
        .unwrap_or(0.0)
}

/// The environment block a recorded result carries.
pub fn environment(load_at_start: f64) -> Value {
    Value::Map(vec![
        ("nproc".to_string(), Value::U64(nproc())),
        ("load_average_at_start".to_string(), Value::F64(load_at_start)),
        ("rustc".to_string(), Value::Str(command_line("rustc", &["--version"]))),
        ("commit".to_string(), Value::Str(command_line("git", &["rev-parse", "--short", "HEAD"]))),
    ])
}

/// One line of a result set: which run, where, and what it reported.
#[derive(Debug, Clone, PartialEq)]
pub struct Record {
    pub workload: String,
    pub seed: u64,
    pub trace: bool,
    pub result: RunResult,
}

pub fn record_line(
    workload: &str,
    seed: u64,
    trace: bool,
    seconds: f64,
    env: Value,
    result: &RunResult,
) -> String {
    let v = Value::Map(vec![
        ("workload".to_string(), Value::Str(workload.to_string())),
        ("seed".to_string(), Value::U64(seed)),
        ("trace".to_string(), Value::Bool(trace)),
        ("seconds".to_string(), Value::F64(seconds)),
        ("env".to_string(), env),
        ("result".to_string(), result.to_value()),
    ]);
    serde_json::to_string(&Json(v)).unwrap_or_default()
}

/// Read a result set file (JSON lines, as `--out` appends them).
pub fn read_records(path: &str) -> Result<Vec<Record>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    parse_records(&text).map_err(|e| format!("{path}:{e}"))
}

/// Parse a result set; errors name the offending line.
pub fn parse_records(text: &str) -> Result<Vec<Record>, String> {
    text.lines()
        .filter(|l| !l.trim().is_empty())
        .enumerate()
        .map(|(i, line)| {
            let parse = || -> Result<Record, String> {
                let Json(v) = serde_json::from_str(line).map_err(|e| e.to_string())?;
                Ok(Record {
                    workload: field(&v, "workload")?
                        .as_str()
                        .ok_or("workload is not a string")?
                        .to_string(),
                    seed: field(&v, "seed")?.as_int().ok_or("seed is not a number")? as u64,
                    trace: matches!(field(&v, "trace")?, Value::Bool(true)),
                    result: RunResult::from_value(field(&v, "result")?)?,
                })
            };
            parse().map_err(|e| format!("{}: {e}", i + 1))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn from_json(text: &str) -> Result<RunResult, String> {
        let Json(v) = serde_json::from_str(text).map_err(|e| e.to_string())?;
        RunResult::from_value(&v)
    }

    fn sample() -> RunResult {
        RunResult {
            correct: true,
            attempted: 1234,
            failed: 0,
            metrics: vec![
                Metric { name: "op_ms_p50".into(), value: 1.2034567891234, unit: "ms".into() },
                Metric { name: "work_per_s".into(), value: 2844.0, unit: "1/s".into() },
            ],
        }
    }

    #[test]
    fn result_json_round_trips() {
        let r = sample();
        let line = r.to_json();
        assert!(!line.contains('\n'));
        assert!(line.starts_with("{\"correct\":true,\"attempted\":1234,\"failed\":0,\"metrics\":{"));
        assert_eq!(from_json(&line), Ok(r));
    }

    #[test]
    fn records_round_trip_through_a_result_set() {
        let r = sample();
        let line = record_line("serve_mix", 7, false, 20.0, Value::Map(Vec::new()), &r);
        let records = parse_records(&format!("{line}\n\n{line}\n")).unwrap();
        assert_eq!(records.len(), 2);
        assert_eq!(
            records[0],
            Record { workload: "serve_mix".into(), seed: 7, trace: false, result: r }
        );
    }

    #[test]
    fn malformed_results_are_rejected() {
        assert!(from_json("{\"correct\":true}").is_err());
        assert!(from_json("[]").is_err());
    }
}
