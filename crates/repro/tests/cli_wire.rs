//! `hanayo tune` and `hanayo analyze` print, with `--compact`, exactly the
//! body the planning service answers the same request with: the flags are
//! the request's fields, and both paths build the document through
//! `hanayo_serve::schema`.

use hanayo_model::Recompute;
use hanayo_serve::schema::{AnalyzeRequest, TuneRequest};
use hanayo_serve::{serve, Client};
use std::process::Command;

fn cli_stdout(argv: &[&str]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_hanayo")).args(argv).output().expect("spawn");
    assert!(out.status.success(), "hanayo {argv:?}: {}", String::from_utf8_lossy(&out.stderr));
    String::from_utf8(out.stdout).expect("utf-8 stdout")
}

#[test]
fn tune_stdout_is_the_served_body() {
    let server = serve("127.0.0.1:0").expect("bind");
    let client = Client::new(server.addr());
    let request = TuneRequest {
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
        serial: false,
        top: None,
    };
    let served = client.tune(&request).expect("served tune");
    let printed = cli_stdout(&[
        "tune",
        "--cluster",
        "tacc",
        "--gpus",
        "8",
        "--batch",
        "16",
        "--micro-batch-size",
        "4",
        "--wide",
        "--compact",
    ]);
    assert_eq!(printed, served);
    server.stop();
}

#[test]
fn analyze_stdout_is_the_served_body() {
    let server = serve("127.0.0.1:0").expect("bind");
    let client = Client::new(server.addr());
    let request = AnalyzeRequest {
        model: "bert64".to_string(),
        cluster: "fc".to_string(),
        gpus: 8,
        scheme: "hanayo_w2".to_string(),
        micro_batches: 8,
        micro_batch_size: 1,
        recompute: Recompute::None,
    };
    let served = client.analyze(&request).expect("served analyze");
    assert_eq!(cli_stdout(&["analyze", "--compact"]), served);
    server.stop();
}
