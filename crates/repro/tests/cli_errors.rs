//! The one-shot CLIs resolve `--cluster` through `hanayo_serve::schema`,
//! so an oversized cluster is a typed error (exit 1, the limit on stderr),
//! never the topology preset's assert (exit 101).

use std::process::Command;

fn assert_rejects_oversized_tc(bin: &str, args: &[&str]) {
    let out = Command::new(bin).args(args).output().expect("spawn binary");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{bin} {args:?}: {stderr}");
    assert!(stderr.contains("cluster tc has 8 GPUs, gpus 16 exceeds it"), "{bin}: {stderr}");
}

#[test]
fn ckpt_rejects_oversized_tc_cluster() {
    assert_rejects_oversized_tc(
        env!("CARGO_BIN_EXE_ckpt"),
        &["--mode", "goodput", "--cluster", "tc", "--gpus", "16"],
    );
}

#[test]
fn search_rejects_oversized_tc_cluster() {
    assert_rejects_oversized_tc(
        env!("CARGO_BIN_EXE_search"),
        &["--model", "bert64", "--cluster", "tc", "--gpus", "16", "--micro-batches", "4"],
    );
}

#[test]
fn trace_rejects_oversized_tc_cluster() {
    assert_rejects_oversized_tc(
        env!("CARGO_BIN_EXE_trace"),
        &["--engine", "sim", "--cluster", "tc", "--devices", "16"],
    );
}
