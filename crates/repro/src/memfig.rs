//! The memory figure: §5.1's "highest peak memory" and per-device
//! variance statistics for every scheme, under both activation
//! stash policies, in both Fig. 3 units and concrete BERT bytes.
//!
//! The paper's memory argument is two numbers per scheme: the *highest*
//! per-device peak (which decides whether a configuration fits a cluster
//! at all) and the *variance* of per-device peaks (which quantifies the
//! imbalance DAPPLE suffers and Hanayo's waves smooth out). This module
//! computes both twice — once by replaying the compute schedule in Fig. 3
//! units ([`hanayo_core::memory::unit_profile_with`]) and once by running
//! the discrete-event simulator against the BERT-64L cost table — and for
//! each of the two [`Recompute`] modes, producing the table the `memfig`
//! binary emits as JSON.

use hanayo_cluster::topology::fc_full_nvlink;
use hanayo_core::config::{PipelineConfig, Scheme};
use hanayo_core::memory::unit_profile_with;
use hanayo_core::schedule::{build_compute_schedule, build_schedule};
use hanayo_model::{costs, CostTable, ModelConfig, Recompute};
use hanayo_sim::{try_simulate_traced, SimOptions};
use serde::Serialize;

/// Pipeline width of the figure.
pub const DEVICES: u32 = 8;
/// Micro-batches per iteration.
pub const MICRO_BATCHES: u32 = 8;

/// One row of the table: one scheme under one stash policy.
#[derive(Debug, Clone, Serialize)]
pub struct MemRow {
    /// Scheme display name.
    pub scheme: String,
    /// Figure label (`G`, `D`, `C2`, `H-2`, ...).
    pub label: String,
    /// Stash policy (`none` / `full`).
    pub recompute: String,
    /// Largest per-device weight share, Fig. 3 units (Chimera: 2).
    pub max_weight_units: f64,
    /// Highest per-device peak (`Mw + Ma`), Fig. 3 units.
    pub highest_peak_units: f64,
    /// Population variance of per-device peak totals, units².
    pub variance_units: f64,
    /// Highest per-device peak in GB, BERT-64L on the simulator.
    pub highest_peak_gb: f64,
    /// Population variance of per-device peaks, GB².
    pub variance_gb2: f64,
}

/// The document the `memfig` binary prints.
#[derive(Debug, Clone, Serialize)]
pub struct MemTable {
    /// Model driving the byte columns.
    pub model: String,
    /// Pipeline width.
    pub devices: u32,
    /// Micro-batches per iteration.
    pub micro_batches: u32,
    /// One row per scheme × recompute mode.
    pub rows: Vec<MemRow>,
}

/// The schemes of the figure: Hanayo w ∈ {1, 2, 4} vs the baselines.
fn schemes() -> Vec<(&'static str, Scheme)> {
    vec![
        ("GPipe", Scheme::GPipe),
        ("DAPPLE", Scheme::Dapple),
        ("Chimera", Scheme::Chimera),
        ("Hanayo(W=1)", Scheme::Hanayo { waves: 1 }),
        ("Hanayo(W=2)", Scheme::Hanayo { waves: 2 }),
        ("Hanayo(W=4)", Scheme::Hanayo { waves: 4 }),
    ]
}

fn label_of(scheme: Scheme) -> String {
    match scheme {
        Scheme::GPipe => "G".into(),
        Scheme::Dapple => "D".into(),
        Scheme::Chimera => "C2".into(),
        Scheme::Hanayo { waves } => format!("H-{waves}"),
        other => format!("{other}"),
    }
}

/// Weight of one stage stash in Fig. 3 activation units for `model` under
/// `mode`. One activation unit is the stash of one micro-batch across
/// `model/P` worth of layers; a checkpointed stage keeps only its input
/// boundary tensor, which for a real transformer is a tiny fraction of a
/// unit.
pub fn stash_units(model: &ModelConfig, devices: u32, stages: u32, mode: Recompute) -> f64 {
    match mode {
        Recompute::None => devices as f64 / stages as f64,
        Recompute::Full => {
            let unit_bytes =
                costs::act_bytes_per_layer(model, 1) as f64 * model.layers as f64 / devices as f64;
            costs::boundary_bytes(model, 1) as f64 / unit_bytes
        }
    }
}

/// All rows: 6 schemes × 2 recompute modes.
pub fn data() -> MemTable {
    let model = ModelConfig::bert64();
    let cluster = fc_full_nvlink(DEVICES as usize);
    let mut rows = Vec::new();
    for (name, scheme) in schemes() {
        let cfg = PipelineConfig::new(DEVICES, MICRO_BATCHES, scheme).expect("valid");
        let cs = build_compute_schedule(&cfg).expect("schedulable");
        let schedule = build_schedule(&cfg).expect("schedulable");
        for mode in Recompute::ALL {
            let units = stash_units(&model, DEVICES, cfg.stages(), mode);
            let prof = unit_profile_with(&cs, units);
            let cost = CostTable::build_with(&model, cfg.stages(), 1, mode);
            let (report, _) =
                try_simulate_traced(&schedule, &cost, &cluster, SimOptions::default())
                    .expect("simulable");
            rows.push(MemRow {
                scheme: name.to_string(),
                label: label_of(scheme),
                recompute: mode.label().to_string(),
                max_weight_units: prof.mw_units.iter().cloned().fold(0.0, f64::max),
                highest_peak_units: prof.highest_peak().expect("non-empty profile"),
                variance_units: prof.variance_total,
                highest_peak_gb: report.highest_peak() as f64 / 1e9,
                variance_gb2: report.peak_variance_gb2(),
            });
        }
    }
    MemTable { model: model.name.clone(), devices: DEVICES, micro_batches: MICRO_BATCHES, rows }
}

/// Render the table as pretty JSON (the `memfig` binary's output).
pub fn run() -> String {
    serde_json::to_string_pretty(&data()).expect("table serialises")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn twelve_rows_cover_the_grid() {
        let t = data();
        assert_eq!(t.rows.len(), 12);
        for (name, _) in schemes() {
            for mode in Recompute::ALL {
                assert!(
                    t.rows.iter().any(|r| r.scheme == name && r.recompute == mode.label()),
                    "missing {name}/{mode}"
                );
            }
        }
    }

    #[test]
    fn checkpointing_lowers_every_scheme_peak() {
        let t = data();
        for (name, _) in schemes() {
            let of = |mode: &str| {
                t.rows.iter().find(|r| r.scheme == name && r.recompute == mode).unwrap()
            };
            let (none, full) = (of("none"), of("full"));
            assert!(
                full.highest_peak_gb < none.highest_peak_gb,
                "{name}: {} !< {}",
                full.highest_peak_gb,
                none.highest_peak_gb
            );
            assert!(full.highest_peak_units < none.highest_peak_units, "{name} units");
            // Weights are untouched by the stash policy.
            assert_eq!(full.max_weight_units, none.max_weight_units);
        }
    }

    #[test]
    fn chimera_is_the_only_doubled_weight_row() {
        for r in data().rows {
            if r.scheme == "Chimera" {
                assert_eq!(r.max_weight_units, 2.0);
            } else {
                assert!(
                    (r.max_weight_units - 1.0).abs() < 1e-9,
                    "{}: {}",
                    r.scheme,
                    r.max_weight_units
                );
            }
        }
    }

    #[test]
    fn hanayo_balances_what_dapple_skews() {
        // §5.1's variance claim, visible in both unit and byte statistics.
        let t = data();
        let of =
            |name: &str| t.rows.iter().find(|r| r.scheme == name && r.recompute == "none").unwrap();
        assert!(of("Hanayo(W=2)").variance_units < of("DAPPLE").variance_units);
        assert!(of("Hanayo(W=2)").variance_gb2 < of("DAPPLE").variance_gb2);
    }

    #[test]
    fn output_is_json_with_the_documented_keys() {
        let text = run();
        for key in [
            "\"model\"",
            "\"rows\"",
            "\"recompute\"",
            "\"highest_peak_units\"",
            "\"variance_units\"",
            "\"highest_peak_gb\"",
            "\"variance_gb2\"",
        ] {
            assert!(text.contains(key), "missing {key} in {text}");
        }
    }
}
