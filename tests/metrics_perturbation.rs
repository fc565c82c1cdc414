//! The zero-perturbation contract, held end to end: turning on the
//! metrics registry *and* the structured-logging facade (at its most
//! verbose, `trace`) must not change a single bit of any result — the
//! per-iteration losses, the measured stash peaks, the checkpoint
//! byte-stream, or the tuner's full ranked/rejected tables. The
//! instrumented paths only ever *read* the values the computation
//! already produced; this test is the proof the claim rests on.

use hanayo::cluster::topology::fc_full_nvlink;
use hanayo::core::config::{PipelineConfig, Scheme};
use hanayo::core::schedule::build_schedule;
use hanayo::metrics;
use hanayo::model::builders::MicroModel;
use hanayo::model::ModelConfig;
use hanayo::runtime::trainer::{synthetic_data, try_train, TrainerConfig};
use hanayo::runtime::{checkpoint_of, LossKind};
use hanayo::sim::{tune_serial_with, tune_with, TuneContext, TuneOptions};

/// Everything a training run decides, flattened to comparable bytes:
/// bit-patterns of the losses, both per-device peak vectors, and the
/// checkpoint JSON (which hashes every weight into its CRC).
fn train_fingerprint() -> (Vec<u32>, Vec<usize>, Vec<usize>, String) {
    let cfg = PipelineConfig::new(8, 8, Scheme::Hanayo { waves: 2 }).unwrap();
    let schedule = build_schedule(&cfg).unwrap();
    let stages_n = schedule.stage_map.stages;
    let stages =
        MicroModel { width: 8, total_blocks: stages_n as usize, seed: 11 }.build_stages(stages_n);
    let data = synthetic_data(5, 2, 8, 2, 8);
    let trainer = TrainerConfig::new(schedule, stages, 0.05, LossKind::Mse);
    let out = try_train(&trainer, &data).unwrap();
    let ckpt = checkpoint_of(&trainer, &out, data.len() as u32, 1);
    (
        out.losses.iter().map(|l| l.to_bits()).collect(),
        out.peak_stash_bytes.clone(),
        out.peak_mailbox_parked.clone(),
        ckpt.to_json().unwrap(),
    )
}

/// One test function on purpose: the registry and the log facade are
/// process-global, so a concurrently running test would race the
/// enable/disable toggles below.
#[test]
fn metrics_and_logging_do_not_perturb_results() {
    metrics::reset();
    metrics::set_enabled(false);

    let model = ModelConfig::bert64();
    let cluster = fc_full_nvlink(8);
    let opts = TuneOptions { waves: vec![1, 2], min_pp: 4, ..Default::default() };

    // Baseline: everything off.
    let quiet = train_fingerprint();
    let quiet_tuning = serde_json::to_string(
        &tune_serial_with(&model, &cluster, 8, 1, &opts, &TuneContext::default()).unwrap(),
    )
    .unwrap();

    // Everything on: the registry plus the log facade at trace level
    // (capture sink, so the test output stays clean).
    metrics::log::set_config("trace", metrics::log::Format::Json, metrics::log::Sink::Capture);
    metrics::set_enabled(true);
    let loud = train_fingerprint();
    let loud_serial = serde_json::to_string(
        &tune_serial_with(&model, &cluster, 8, 1, &opts, &TuneContext::default()).unwrap(),
    )
    .unwrap();
    let loud_parallel = serde_json::to_string(
        &tune_with(&model, &cluster, 8, 1, &opts, &TuneContext::default()).unwrap(),
    )
    .unwrap();
    metrics::set_enabled(false);
    metrics::log::set_config("", metrics::log::Format::Logfmt, metrics::log::Sink::Stderr);
    let _ = metrics::log::take_capture();
    metrics::reset();

    assert_eq!(quiet.0, loud.0, "losses diverged with metrics+logging enabled");
    assert_eq!(quiet.1, loud.1, "stash peaks diverged with metrics+logging enabled");
    // Parked peaks are scheduling-dependent in *value* but must agree in
    // shape — instrumentation can never change how many devices report.
    assert_eq!(quiet.2.len(), loud.2.len(), "parked-peak vector changed shape");
    assert_eq!(quiet.3, loud.3, "checkpoint bytes diverged with metrics+logging enabled");
    assert_eq!(quiet_tuning, loud_serial, "serial sweep diverged with metrics+logging enabled");
    assert_eq!(loud_serial, loud_parallel, "tune != tune_serial with metrics enabled");
}
