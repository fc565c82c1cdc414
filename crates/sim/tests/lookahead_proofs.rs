//! The wide sweep proves its deeper-lookahead variants instead of
//! simulating them. One test on purpose: it reads the process-wide metrics
//! registry, which a concurrent test in the same binary would also write.

use hanayo_cluster::topology::{lonestar6, pc_partial_nvlink};
use hanayo_cluster::ClusterSpec;
use hanayo_metrics::{SeriesValue, Snapshot};
use hanayo_model::ModelConfig;
use hanayo_sim::tuner::{tune_serial_with, TuneContext, TuneOptions};

fn counter(snap: &Snapshot, name: &str, label: Option<(&str, &str)>) -> Option<u64> {
    snap.series
        .iter()
        .filter(|s| s.name == name)
        .filter(|s| label.is_none_or(|(k, v)| s.labels.iter().any(|(a, b)| a == k && b == v)))
        .map(|s| match s.value {
            SeriesValue::Counter(v) => v,
            _ => 0,
        })
        .reduce(|a, b| a + b)
}

#[test]
fn the_wide_sweep_simulates_only_what_it_cannot_prove() {
    // The benchmark's `sweep_wide` shape: bert64 at 8 bytes per parameter,
    // 8 TACC GPUs, 16 micro-batches of 1, `--wide`.
    let model = ModelConfig::bert64().with_train_bytes_per_param(8);
    let sweep = |cluster: &ClusterSpec, batch: u32, opts: &TuneOptions| {
        hanayo_metrics::reset();
        hanayo_metrics::set_enabled(true);
        tune_serial_with(&model, cluster, batch, 1, opts, &TuneContext::default()).unwrap();
        let snap = hanayo_metrics::snapshot();
        hanayo_metrics::set_enabled(false);
        hanayo_metrics::reset();
        snap
    };
    let tacc = lonestar6(8);
    let wide = sweep(&tacc, 16, &TuneOptions::default().wide());
    // 576 group reports, 288 of them lookahead-2/4 variants, every one
    // proven equal to its lookahead-1 run.
    assert_eq!(counter(&wide, "hanayo_sim_runs_total", None), Some(288));
    let proofs = "hanayo_tuner_lookahead_proofs_total";
    assert_eq!(counter(&wide, proofs, Some(("outcome", "proven"))), Some(288));
    assert_eq!(counter(&wide, proofs, Some(("outcome", "simulated"))), None);

    // 32 PC GPUs at batch 8: 16 variants whose windows equal the
    // lookahead-1 windows are proven at once, and 8 the proof refuses are
    // simulated.
    let pc = sweep(&pc_partial_nvlink(32), 8, &TuneOptions::default().wide());
    assert_eq!(counter(&pc, "hanayo_sim_runs_total", None), Some(176));
    assert_eq!(counter(&pc, proofs, Some(("outcome", "proven"))), Some(160));
    assert_eq!(counter(&pc, proofs, Some(("outcome", "simulated"))), Some(8));

    // A sweep without lookahead variants checks nothing.
    let narrow = sweep(&tacc, 16, &TuneOptions::default());
    assert_eq!(counter(&narrow, proofs, None), None);
    assert!(counter(&narrow, "hanayo_sim_runs_total", None).is_some_and(|n| n > 0));
}
