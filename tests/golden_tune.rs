//! Golden snapshot of the widened strategy sweep: the document
//! `hanayo tune --cluster tacc --gpus 8 --batch 16 --micro-batch-size 4
//! --wide --compact` prints (and `POST /v1/tune` serves), frozen byte for
//! byte under `tests/golden/`. The space holds statically pruned OOMs,
//! simulated OOMs, shape rejections and every simulator ablation, so a
//! drift in any ranked figure, rejection record or tie-break shows here —
//! including one that moves the parallel and serial sweeps the same way.
//!
//! To regenerate after an intentional tuner/simulator change:
//!
//! ```text
//! GOLDEN_UPDATE=1 cargo test --test golden_tune
//! ```

use hanayo::serve::schema::{run_tune, TuneRequest};
use hanayo::sim::TuneContext;
use std::fs;
use std::path::PathBuf;

const GOLDEN: &str = "tune_wide_tacc_g8_b16_m4.json";

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests").join("golden").join(GOLDEN)
}

/// The flags above, as the `hanayo tune` defaults they override.
fn request(serial: bool) -> TuneRequest {
    TuneRequest {
        model: "bert64".to_string(),
        cluster: "tacc".to_string(),
        gpus: 8,
        batch: 16,
        micro_batch_size: 4,
        train_bytes_per_param: 8,
        min_pp: 2,
        waves: vec![1, 2, 4, 8],
        recompute: None,
        wide: true,
        serial,
        top: None,
    }
}

/// What `--compact` writes to stdout: one JSON line.
fn stdout_of(req: &TuneRequest) -> String {
    let doc = run_tune(req, &TuneContext::default()).expect("a default context never cancels");
    serde_json::to_string(&doc).expect("the sweep table encodes") + "\n"
}

#[test]
fn wide_sweep_matches_the_golden_bytes() {
    let parallel = stdout_of(&request(false));
    let path = golden_path();
    if std::env::var_os("GOLDEN_UPDATE").is_some() {
        fs::write(&path, &parallel).unwrap();
        return;
    }
    let golden = fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden snapshot {path:?} ({e}); \
             regenerate with GOLDEN_UPDATE=1 cargo test --test golden_tune"
        )
    });
    for (label, bytes) in [("parallel", parallel), ("serial", stdout_of(&request(true)))] {
        assert!(
            bytes == golden,
            "{label} wide sweep drifted from {path:?}; if the change is intentional, \
             regenerate with GOLDEN_UPDATE=1 cargo test --test golden_tune"
        );
    }
}
