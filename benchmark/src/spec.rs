//! The benchmark's declared surface: workloads, end-to-end metrics with
//! their worsening bounds, and per-layer metrics. `BENCHMARK.json` is
//! this table rendered by `manifest`; a self-test holds the two equal.

use serde::Value;

/// Seconds one run measures (`run_seconds` in `BENCHMARK.json`).
pub const RUN_SECONDS: u64 = 20;

pub const COMMAND: [&str; 8] = [
    "cargo",
    "run",
    "--release",
    "--offline",
    "--quiet",
    "--manifest-path",
    "benchmark/Cargo.toml",
    "--",
];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    TrainGemm,
    TrainOrch,
    SweepWide,
    ServeMix,
    ServeTune,
}

impl Workload {
    pub const ALL: [Workload; 5] = [
        Workload::TrainGemm,
        Workload::TrainOrch,
        Workload::SweepWide,
        Workload::ServeMix,
        Workload::ServeTune,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::TrainGemm => "train_gemm",
            Workload::TrainOrch => "train_orch",
            Workload::SweepWide => "sweep_wide",
            Workload::ServeMix => "serve_mix",
            Workload::ServeTune => "serve_tune",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Why the workload exists (one line, at most 200 characters).
    pub fn why(self) -> &'static str {
        match self {
            Workload::TrainGemm => {
                "The paper's regime: 32x256 micro-batches, so stage math in tensor dominates and \
                 runtime orchestration is small; a gemm win shows here, a mailbox win barely does."
            }
            Workload::TrainOrch => {
                "Same schedule with 4x32 micro-batches: microseconds of math per op, so runtime \
                 mailbox wake-ups, dispatch and spawn/join dominate and tensor is small."
            }
            Workload::SweepWide => {
                "One cold sweep --wide plus table build and JSON encoding: sim, core, analyze and \
                 model do all the work; runtime, tensor and serve::http do none."
            }
            Workload::ServeMix => {
                "Warm plan/simulate/tune/analyze requests, one connection each: evaluation is \
                 cached and tiny, so serve's accept, spawn, parse and encode path dominates."
            }
            Workload::ServeTune => {
                "Keep-alive tune requests, 70% from 4 hot configs and 30% from a 16-config cold \
                 tail over 8 resident configs: cache fills and evictions sit beside hits."
            }
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn label(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// An end-to-end metric: what a user of the system sees, with the share
/// of the parent's median by which it may worsen.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: f64,
}

pub const END_TO_END: [EndToEnd; 5] = [
    EndToEnd { name: "op_ms_p50", unit: "ms", better: Better::Lower, bound: 0.25 },
    EndToEnd { name: "op_ms_p90", unit: "ms", better: Better::Lower, bound: 0.25 },
    EndToEnd { name: "work_per_s", unit: "1/s", better: Better::Higher, bound: 0.25 },
    EndToEnd { name: "setup_s", unit: "s", better: Better::Lower, bound: 0.25 },
    EndToEnd { name: "peak_rss_mb", unit: "MB", better: Better::Lower, bound: 0.25 },
];

/// A per-layer metric (layer = crate name, the part before the first dot).
#[derive(Debug, Clone, PartialEq)]
pub struct Layer {
    pub name: String,
    pub unit: &'static str,
    pub better: Better,
}

/// The schemes of the work-normalised cross-scheme family.
pub const SCHEMES: [&str; 7] =
    ["gpipe", "dapple", "interleaved2", "interleaved4", "hanayo_w1", "hanayo_w2", "hanayo_w4"];

/// The served endpoints, in pool order.
pub const ENDPOINTS: [&str; 4] = ["plan", "simulate", "tune", "analyze"];

/// Every per-layer metric, in report order.
pub fn per_layer() -> Vec<Layer> {
    use Better::{Higher, Lower};
    let mut out: Vec<Layer> = Vec::new();
    let mut add = |name: &str, unit: &'static str, better: Better| {
        out.push(Layer { name: name.to_string(), unit, better });
    };
    // tensor: single-thread direct calls on the workload's stage shapes.
    add("tensor.stage_fwd_us", "us", Lower);
    add("tensor.stage_bwd_us", "us", Lower);
    add("tensor.sgd_step_us", "us", Lower);
    add("tensor.matmul_gflops", "GFLOP/s", Higher);
    add("tensor.compute_ms_per_iter", "ms", Lower);
    add("tensor.gemm_dispatch_per_iter", "count", Lower);
    add("tensor.gemm_pooled_share", "ratio", Higher);
    // runtime: the six parts sum to the traced iteration.
    for part in ["fwd", "bwd", "optim", "send", "recv_wait", "untraced"] {
        add(&format!("runtime.{part}_ms"), "ms", Lower);
    }
    add("runtime.call_overhead_ms", "ms", Lower);
    add("runtime.bubble_measured", "ratio", Lower);
    add("runtime.efficiency", "ratio", Higher);
    add("runtime.speedup_vs_sequential", "ratio", Higher);
    add("runtime.ops_per_iter", "count", Lower);
    add("runtime.msgs_per_iter", "count", Lower);
    add("runtime.peak_stash_bytes_max", "bytes", Lower);
    add("runtime.peak_mailbox_parked_max", "count", Lower);
    // The scheme family: Fig. 1/2 three ways on one work-normalised model.
    for s in SCHEMES {
        add(&format!("runtime.iter_ms.{s}"), "ms", Lower);
        add(&format!("runtime.bubble_measured.{s}"), "ratio", Lower);
        add(&format!("sim.bubble_predicted.{s}"), "ratio", Lower);
        add(&format!("core.bubble_replay.{s}"), "ratio", Lower);
    }
    // sim
    add("sim.compile_us", "us", Lower);
    add("sim.simulate_us", "us", Lower);
    add("sim.events_per_s", "1/s", Higher);
    add("sim.evaluate_plan_us", "us", Lower);
    add("sim.tune_cold_ms", "ms", Lower);
    add("sim.tune_warm_ms", "ms", Lower);
    add("sim.tune_serial_ms", "ms", Lower);
    add("sim.parallel_speedup", "ratio", Higher);
    add("sim.cache_hit_share", "ratio", Higher);
    add("sim.candidates_total", "count", Lower);
    add("sim.ranked_total", "count", Higher);
    add("sim.static_pruned_total", "count", Higher);
    add("sim.pred_over_measured", "ratio", Higher);
    // core / analyze / model
    add("core.build_compute_us", "us", Lower);
    add("core.build_schedule_us", "us", Lower);
    add("core.replay_timeline_us", "us", Lower);
    add("analyze.static_check_us", "us", Lower);
    add("model.cost_table_us", "us", Lower);
    // serve
    for e in ENDPOINTS {
        add(&format!("serve.req_ms_p50.{e}"), "ms", Lower);
    }
    add("serve.req_ms_p99", "ms", Lower);
    add("serve.connect_ms", "ms", Lower);
    add("serve.first_byte_ms", "ms", Lower);
    add("serve.read_body_ms", "ms", Lower);
    add("serve.handler_ms_mean", "ms", Lower);
    add("serve.outside_handler_ms", "ms", Lower);
    add("serve.keepalive_req_ms_p50", "ms", Lower);
    for e in ENDPOINTS {
        add(&format!("serve.evaluate_direct_ms.{e}"), "ms", Lower);
    }
    add("serve.parse_us", "us", Lower);
    add("serve.table_build_us", "us", Lower);
    add("serve.encode_us", "us", Lower);
    add("serve.cache_hit_share", "ratio", Higher);
    add("serve.cache_configs", "count", Lower);
    add("serve.cache_evictions_total", "count", Lower);
    add("serve.dedup_joins_total", "count", Higher);
    add("serve.resp_bytes_mean", "bytes", Lower);
    // trace / metrics: the cost of observing.
    add("trace.analyze_ms", "ms", Lower);
    add("trace.calibrate_ms", "ms", Lower);
    add("trace.overhead_share", "ratio", Lower);
    add("metrics.overhead_share", "ratio", Lower);
    out
}

fn s(text: &str) -> Value {
    Value::Str(text.to_string())
}

fn map(pairs: Vec<(&str, Value)>) -> Value {
    Value::Map(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

/// `BENCHMARK.json` as a value tree, keys in the contract's order.
pub fn manifest() -> Value {
    map(vec![
        ("command", Value::Seq(COMMAND.iter().map(|c| s(c)).collect())),
        ("paths", Value::Seq(vec![s("benchmark")])),
        ("run_seconds", Value::U64(RUN_SECONDS)),
        (
            "workloads",
            Value::Seq(
                Workload::ALL
                    .iter()
                    .map(|w| map(vec![("name", s(w.name())), ("why", s(w.why()))]))
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Value::Seq(
                END_TO_END
                    .iter()
                    .map(|m| {
                        map(vec![
                            ("name", s(m.name)),
                            ("unit", s(m.unit)),
                            ("better", s(m.better.label())),
                            ("bound", Value::F64(m.bound)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Value::Seq(
                per_layer()
                    .iter()
                    .map(|m| {
                        map(vec![
                            ("name", s(&m.name)),
                            ("unit", s(m.unit)),
                            ("better", s(m.better.label())),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::{field, Json};

    fn is_name(s: &str) -> bool {
        let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
        !s.is_empty()
            && s.len() <= 64
            && s.chars().all(ok)
            && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
    }

    fn is_unit(s: &str) -> bool {
        let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-');
        !s.is_empty() && s.len() <= 16 && s.chars().all(ok)
    }

    #[test]
    fn names_units_and_limits_meet_the_contract() {
        let layers = per_layer();
        assert_eq!(layers.len(), 94);
        assert!(layers.len() <= 128 && END_TO_END.len() <= 16 && Workload::ALL.len() <= 8);
        let mut names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        names.extend(END_TO_END.iter().map(|m| m.name));
        names.extend(layers.iter().map(|m| m.name.as_str()));
        for name in &names {
            assert!(is_name(name), "bad name {name}");
        }
        let mut unique = names.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), names.len(), "a name is used twice");
        for unit in END_TO_END.iter().map(|m| m.unit).chain(layers.iter().map(|m| m.unit)) {
            assert!(is_unit(unit), "bad unit {unit}");
        }
        for w in Workload::ALL {
            assert!(w.why().len() <= 200 && !w.why().contains('\n'), "{}", w.name());
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        for m in &END_TO_END {
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
        }
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").expect("setup_s");
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
        assert!(COMMAND.len() <= 32 && (1..=60).contains(&RUN_SECONDS));
    }

    /// Both directions at once: every declared name is in the committed
    /// file and every name in the file is declared, because the file *is*
    /// the rendered table.
    #[test]
    fn benchmark_json_is_the_rendered_manifest() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert!(text.len() <= 64 * 1024);
        let Json(committed) = serde_json::from_str(&text).expect("BENCHMARK.json parses");
        assert_eq!(committed, manifest(), "regenerate with `hanayo-benchmark manifest`");
        let keys: Vec<&str> =
            committed.as_map().expect("object").iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            ["command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"]
        );
        let listed = field(&committed, "per_layer").unwrap().as_seq().unwrap().len();
        assert_eq!(listed, per_layer().len());
    }
}
