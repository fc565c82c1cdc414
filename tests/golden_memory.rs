//! Golden memory-profile snapshots: the per-device memory accounting of
//! every scheduler at `(P=8, M=8)` — Fig. 3 units from the abstract
//! replay plus BERT-64L bytes from the simulator — is frozen under
//! `tests/golden/` for both recompute modes, so memory-model drift fails
//! loudly instead of silently re-ranking plans.
//!
//! To regenerate after an intentional memory-model change:
//!
//! ```text
//! GOLDEN_UPDATE=1 cargo test --test golden_memory
//! ```

use hanayo::cluster::topology::fc_full_nvlink;
use hanayo::core::config::{PipelineConfig, Scheme};
use hanayo::core::memory::unit_profile_with;
use hanayo::core::schedule::{build_compute_schedule, build_schedule};
use hanayo::model::{CostTable, ModelConfig, Recompute};
use hanayo::repro::memfig::stash_units;
use hanayo::sim::{try_simulate_traced, SimOptions};
use std::fmt::Write as _;
use std::fs;
use std::path::PathBuf;

fn golden_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests").join("golden")
}

fn render(name: &str, scheme: Scheme, mode: Recompute) -> String {
    let model = ModelConfig::bert64();
    let cfg = PipelineConfig::new(8, 8, scheme).unwrap();
    let cs = build_compute_schedule(&cfg).unwrap();
    let schedule = build_schedule(&cfg).unwrap();
    let prof = unit_profile_with(&cs, stash_units(&model, 8, cfg.stages(), mode));
    let cost = CostTable::build_with(&model, cfg.stages(), 1, mode);
    let report =
        try_simulate_traced(&schedule, &cost, &fc_full_nvlink(8), SimOptions::default()).unwrap().0;

    let fmt_units = |v: &[f64]| v.iter().map(|x| format!("{x:.4}")).collect::<Vec<_>>().join(", ");
    let gb: Vec<String> =
        report.peak_mem.iter().map(|&b| format!("{:.4}", b as f64 / 1e9)).collect();
    let wgb: Vec<String> =
        report.weight_mem.iter().map(|&b| format!("{:.4}", b as f64 / 1e9)).collect();

    let mut out = String::new();
    writeln!(out, "memory profile: {name} (P=8, B=8, recompute={mode})").unwrap();
    writeln!(out, "Mw units/device:      [{}]", fmt_units(&prof.mw_units)).unwrap();
    writeln!(out, "Ma peak units/device: [{}]", fmt_units(&prof.ma_peak_units)).unwrap();
    writeln!(out, "highest peak units:   {:.4}", prof.highest_peak().unwrap()).unwrap();
    writeln!(out, "variance units^2:     {:.4}", prof.variance_total).unwrap();
    writeln!(out, "sim peak GB/device (Bert-64L): [{}]", gb.join(", ")).unwrap();
    writeln!(out, "sim weight GB/device:          [{}]", wgb.join(", ")).unwrap();
    writeln!(out, "highest peak GB:      {:.4}", report.highest_peak() as f64 / 1e9).unwrap();
    writeln!(out, "variance GB^2:        {:.4}", report.peak_variance_gb2()).unwrap();
    out
}

fn check_snapshot(name: &str, scheme: Scheme) {
    for mode in Recompute::ALL {
        let rendered = render(name, scheme, mode);
        let path = golden_dir().join(format!("mem_{name}_{}.txt", mode.label()));

        if std::env::var_os("GOLDEN_UPDATE").is_some() {
            fs::create_dir_all(golden_dir()).unwrap();
            fs::write(&path, &rendered).unwrap();
            continue;
        }

        let golden = fs::read_to_string(&path).unwrap_or_else(|e| {
            panic!(
                "missing golden memory snapshot {path:?} ({e}); \
                 regenerate with GOLDEN_UPDATE=1 cargo test --test golden_memory"
            )
        });
        assert_eq!(
            rendered, golden,
            "{name}/{mode}: memory profile drifted from {path:?}; if the change is \
             intentional, regenerate with GOLDEN_UPDATE=1 cargo test --test golden_memory"
        );
    }
}

#[test]
fn golden_memory_gpipe() {
    check_snapshot("gpipe_p8_m8", Scheme::GPipe);
}

#[test]
fn golden_memory_dapple() {
    check_snapshot("dapple_p8_m8", Scheme::Dapple);
}

#[test]
fn golden_memory_interleaved() {
    check_snapshot("interleaved2_p8_m8", Scheme::Interleaved { chunks: 2 });
}

#[test]
fn golden_memory_chimera() {
    check_snapshot("chimera_p8_m8", Scheme::Chimera);
}

#[test]
fn golden_memory_hanayo_w1() {
    check_snapshot("hanayo_w1_p8_m8", Scheme::Hanayo { waves: 1 });
}

#[test]
fn golden_memory_hanayo_w2() {
    check_snapshot("hanayo_w2_p8_m8", Scheme::Hanayo { waves: 2 });
}

#[test]
fn golden_memory_hanayo_w4() {
    check_snapshot("hanayo_w4_p8_m8", Scheme::Hanayo { waves: 4 });
}
