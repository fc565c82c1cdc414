//! Golden snapshots of the widened strategy sweep: the documents
//! `hanayo tune ... --wide --compact` prints (and `POST /v1/tune` serves)
//! for two shapes, frozen byte for byte under `tests/golden/`:
//!
//! * `--cluster tacc --gpus 8 --batch 16 --micro-batch-size 4`: the space
//!   holds statically pruned OOMs, simulated OOMs, shape rejections and
//!   every simulator ablation, so a drift in any ranked figure, rejection
//!   record or tie-break shows here;
//! * `--cluster pc --gpus 32 --batch 8`: lookahead variants whose prefetch
//!   windows equal the lookahead-1 windows, and variants the lookahead
//!   proof refuses and the engine simulates.
//!
//! Both include drifts that move the parallel and serial sweeps the same
//! way. To regenerate after an intentional tuner/simulator change:
//!
//! ```text
//! GOLDEN_UPDATE=1 cargo test --test golden_tune
//! ```

use hanayo::serve::schema::{run_tune, TuneRequest};
use hanayo::sim::TuneContext;
use std::fs;
use std::path::PathBuf;

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests").join("golden").join(name)
}

/// `hanayo tune --cluster <cluster> --gpus <gpus> --batch <batch>
/// --micro-batch-size <micro_batch_size> --wide`, as the defaults it
/// overrides.
fn request(cluster: &str, gpus: usize, batch: u32, micro_batch_size: u32) -> TuneRequest {
    TuneRequest {
        model: "bert64".to_string(),
        cluster: cluster.to_string(),
        gpus,
        batch,
        micro_batch_size,
        train_bytes_per_param: 8,
        min_pp: 2,
        waves: vec![1, 2, 4, 8],
        recompute: None,
        wide: true,
        serial: false,
        top: None,
    }
}

/// What `--compact` writes to stdout: one JSON line.
fn stdout_of(req: &TuneRequest) -> String {
    let doc = run_tune(req, &TuneContext::default()).expect("a default context never cancels");
    serde_json::to_string(&doc).expect("the sweep table encodes") + "\n"
}

fn matches_the_golden_bytes(golden: &str, req: TuneRequest) {
    let parallel = stdout_of(&req);
    let path = golden_path(golden);
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
    let serial = stdout_of(&TuneRequest { serial: true, ..req });
    for (label, bytes) in [("parallel", parallel), ("serial", serial)] {
        assert!(
            bytes == golden,
            "{label} wide sweep drifted from {path:?}; if the change is intentional, \
             regenerate with GOLDEN_UPDATE=1 cargo test --test golden_tune"
        );
    }
}

#[test]
fn wide_sweep_matches_the_golden_bytes() {
    matches_the_golden_bytes("tune_wide_tacc_g8_b16_m4.json", request("tacc", 8, 16, 4));
}

#[test]
fn wide_pc_sweep_matches_the_golden_bytes() {
    matches_the_golden_bytes("tune_wide_pc_g32_b8.json", request("pc", 32, 8, 1));
}
