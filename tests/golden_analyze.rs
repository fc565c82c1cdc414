//! Golden static-analysis snapshots: the analyzer's verdicts, DAG shape,
//! exact memory bound and critical-path lower bound for every golden
//! scheme at `(P=8, M=8)` are frozen under `tests/golden/`, so a change
//! to the happens-before construction, the liveness replay or the edge
//! weights fails loudly instead of silently re-deciding feasibility.
//!
//! Every snapshot is additionally cross-checked against a live simulation
//! before it is compared or written: the static peak must equal the
//! simulated peak exactly and the critical path must lower-bound the
//! simulated iteration time — a golden file can never freeze a claim the
//! simulator refutes.
//!
//! To regenerate after an intentional analyzer change:
//!
//! ```text
//! GOLDEN_UPDATE=1 cargo test --test golden_analyze
//! ```

use hanayo::analyze::analyze;
use hanayo::cluster::topology::fc_full_nvlink;
use hanayo::core::config::{PipelineConfig, Scheme};
use hanayo::core::schedule::build_schedule;
use hanayo::model::{CostTable, ModelConfig};
use hanayo::sim::{try_simulate_traced, SimOptions};
use std::fmt::Write as _;
use std::fs;
use std::path::PathBuf;

fn golden_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests").join("golden")
}

fn golden_schemes() -> Vec<(&'static str, Scheme)> {
    vec![
        ("gpipe", Scheme::GPipe),
        ("dapple", Scheme::Dapple),
        ("interleaved2", Scheme::Interleaved { chunks: 2 }),
        ("chimera", Scheme::Chimera),
        ("hanayo_w1", Scheme::Hanayo { waves: 1 }),
        ("hanayo_w2", Scheme::Hanayo { waves: 2 }),
        ("hanayo_w4", Scheme::Hanayo { waves: 4 }),
    ]
}

fn render(name: &str, scheme: Scheme) -> String {
    let cfg = PipelineConfig::new(8, 8, scheme).unwrap();
    let schedule = build_schedule(&cfg).unwrap();
    let cost = CostTable::build(&ModelConfig::bert64(), cfg.stages(), 1);
    let cluster = fc_full_nvlink(8);
    let report = analyze(&schedule, &cost, &cluster)
        .unwrap_or_else(|e| panic!("{name}: analyzer rejected a golden scheme: {e}"));

    // Never freeze a claim the simulator refutes: the cross-checks run on
    // both the update and the verify path.
    let sim = try_simulate_traced(&schedule, &cost, &cluster, SimOptions::default()).unwrap().0;
    assert_eq!(report.peak_mem, sim.peak_mem, "{name}: static peak != simulated peak");
    assert!(
        report.critical_path_s <= sim.iteration_time * (1.0 + 1e-9),
        "{name}: critical path {} above simulated {}",
        report.critical_path_s,
        sim.iteration_time
    );

    let gb = |v: &[u64]| {
        v.iter().map(|&b| format!("{:.4}", b as f64 / 1e9)).collect::<Vec<_>>().join(", ")
    };
    let mut out = String::new();
    writeln!(out, "static analysis: {name} (P=8, B=8, Bert-64L, fc)").unwrap();
    writeln!(
        out,
        "verdicts: deadlock_free={} comm_well_formed={} fifo_consistent={}",
        report.deadlock_free, report.comm_well_formed, report.fifo_consistent
    )
    .unwrap();
    writeln!(
        out,
        "dag: nodes={} edges={} messages={} batched_comms={}",
        report.dag.nodes, report.dag.edges, report.dag.messages, report.dag.batched_comms
    )
    .unwrap();
    writeln!(out, "static peak GB/device:  [{}]", gb(&report.peak_mem)).unwrap();
    writeln!(out, "static stash GB/device: [{}]", gb(&report.stash_peak)).unwrap();
    writeln!(out, "critical path bound: {:.6} ms", report.critical_path_s * 1e3).unwrap();
    writeln!(out, "simulated makespan:  {:.6} ms", sim.iteration_time * 1e3).unwrap();
    writeln!(
        out,
        "bound tightness:     {:.2}%",
        100.0 * report.critical_path_s / sim.iteration_time
    )
    .unwrap();
    out
}

#[test]
fn golden_static_analysis_snapshots() {
    for (name, scheme) in golden_schemes() {
        let rendered = render(name, scheme);
        let path = golden_dir().join(format!("analyze_{name}_p8_m8.txt"));

        if std::env::var_os("GOLDEN_UPDATE").is_some() {
            fs::create_dir_all(golden_dir()).unwrap();
            fs::write(&path, &rendered).unwrap();
            continue;
        }

        let golden = fs::read_to_string(&path).unwrap_or_else(|e| {
            panic!(
                "missing golden analysis snapshot {path:?} ({e}); \
                 regenerate with GOLDEN_UPDATE=1 cargo test --test golden_analyze"
            )
        });
        assert_eq!(
            rendered, golden,
            "{name}: static analysis drifted from {path:?}; if the change is \
             intentional, regenerate with GOLDEN_UPDATE=1 cargo test --test golden_analyze"
        );
    }
}
