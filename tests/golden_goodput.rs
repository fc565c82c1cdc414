//! Golden goodput tables: the failure/recovery cost model's verdict for
//! every benchmark scheme at `(P = 8, B = 8)` on TACC with a 1-day
//! per-device MTBF, at two checkpoint intervals, is frozen under
//! `tests/golden/ckpt_goodput_*` — so recovery-model drift (checkpoint
//! stall, restart cost, fleet MTBF, efficiency, goodput, the Young–Daly
//! optimum) fails loudly instead of silently re-ranking plans.
//!
//! To regenerate after an intentional model change:
//!
//! ```text
//! GOLDEN_UPDATE=1 cargo test --test golden_goodput
//! ```

use hanayo::ckpt::recovery::{young_daly_interval_s, RecoveryOptions};
use hanayo::cluster::topology::lonestar6;
use hanayo::model::{ModelConfig, Recompute};
use hanayo::sim::plan::{evaluate_plan, Method, ParallelPlan};
use hanayo::sim::tuner::plan_recovery_eval;
use hanayo::sim::SimOptions;
use std::fmt::Write as _;
use std::fs;
use std::path::PathBuf;

const INTERVALS: [u32; 2] = [4, 16];
const DEVICE_MTBF_S: f64 = 86_400.0; // one day per device — failures bite
const RESTART_LATENCY_S: f64 = 30.0;

fn golden_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests").join("golden")
}

fn render(name: &str, method: Method) -> String {
    let model = ModelConfig::bert64();
    let mut cluster = lonestar6(8);
    cluster.device_mtbf_s = DEVICE_MTBF_S;
    let plan = ParallelPlan {
        method,
        dp: 1,
        pp: 8,
        micro_batches: 8,
        micro_batch_size: 1,
        recompute: Recompute::None,
    };
    let result = evaluate_plan(&plan, &model, &cluster, SimOptions::default()).unwrap();
    let state_bytes = result.group_report.weight_mem.iter().copied().max().unwrap_or(0);
    let opts = RecoveryOptions { restart_latency_s: RESTART_LATENCY_S };

    let mut out = String::new();
    writeln!(out, "goodput table: {name} (P=8, B=8, TACC, mtbf/device={DEVICE_MTBF_S}s)").unwrap();
    writeln!(out, "iteration time s:     {:.6}", result.iteration_time).unwrap();
    writeln!(out, "throughput seq/s:     {:.6}", result.throughput).unwrap();
    writeln!(out, "ckpt state bytes:     {state_bytes}").unwrap();
    for k in INTERVALS {
        let e = plan_recovery_eval(&result, &cluster, k, &opts);
        writeln!(
            out,
            "interval {k:>3}: write {:.6} s, restart {:.6} s, mtbf {:.1} s, \
             efficiency {:.6}, goodput {:.6} seq/s",
            e.checkpoint_write_s, e.restart_s, e.cluster_mtbf_s, e.efficiency, e.goodput_seq_per_s
        )
        .unwrap();
        writeln!(
            out,
            "young-daly optimum:   {:.6} s",
            young_daly_interval_s(e.checkpoint_write_s, e.cluster_mtbf_s, e.restart_s)
        )
        .unwrap();
    }
    out
}

fn check_snapshot(name: &str, method: Method) {
    let rendered = render(name, method);
    let path = golden_dir().join(format!("ckpt_goodput_{name}.txt"));

    if std::env::var_os("GOLDEN_UPDATE").is_some() {
        fs::create_dir_all(golden_dir()).unwrap();
        fs::write(&path, &rendered).unwrap();
        return;
    }

    let golden = fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden goodput snapshot {path:?} ({e}); \
             regenerate with GOLDEN_UPDATE=1 cargo test --test golden_goodput"
        )
    });
    assert_eq!(
        rendered, golden,
        "{name}: goodput table drifted from {path:?}; if the change is intentional, \
         regenerate with GOLDEN_UPDATE=1 cargo test --test golden_goodput"
    );
}

#[test]
fn golden_goodput_gpipe() {
    check_snapshot("gpipe_p8_m8", Method::GPipe);
}

#[test]
fn golden_goodput_dapple() {
    check_snapshot("dapple_p8_m8", Method::Dapple);
}

#[test]
fn golden_goodput_chimera() {
    check_snapshot("chimera_p8_m8", Method::ChimeraNative);
}

#[test]
fn golden_goodput_hanayo_w1() {
    check_snapshot("hanayo_w1_p8_m8", Method::Hanayo { waves: 1 });
}

#[test]
fn golden_goodput_hanayo_w2() {
    check_snapshot("hanayo_w2_p8_m8", Method::Hanayo { waves: 2 });
}

#[test]
fn golden_goodput_hanayo_w4() {
    check_snapshot("hanayo_w4_p8_m8", Method::Hanayo { waves: 4 });
}
