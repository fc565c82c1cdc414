//! The one-shot CLIs fail with a typed error (exit 1, the reason on
//! stderr), never a panic (exit 101). They resolve `--cluster` and
//! `--scheme` through `hanayo_serve::schema`, so an oversized cluster or
//! an unknown scheme is rejected the same way on every binary.

use std::process::Command;

fn assert_fails_with(bin: &str, args: &[&str], message: &str) {
    let out = Command::new(bin).args(args).output().expect("spawn binary");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{bin} {args:?}: {stderr}");
    assert!(stderr.contains(message), "{bin}: {stderr}");
}

fn assert_rejects_oversized_tc(bin: &str, args: &[&str]) {
    assert_fails_with(bin, args, "cluster tc has 8 GPUs, gpus 16 exceeds it");
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

#[test]
fn unknown_scheme_names_the_accepted_forms() {
    let accepted = "(expected gpipe, dapple, chimera, pipedream, interleaved<C> or hanayo_w<W>)";
    assert_fails_with(
        env!("CARGO_BIN_EXE_trace"),
        &["--engine", "sim", "--scheme", "hanayo2"],
        &format!("unknown scheme hanayo2 {accepted}"),
    );
    assert_fails_with(
        env!("CARGO_BIN_EXE_ckpt"),
        &["--mode", "run", "--scheme", "wave"],
        &format!("unknown scheme wave {accepted}"),
    );
}

#[test]
fn chimera_on_the_runtime_is_a_typed_error() {
    let message = "the threaded runtime rejects replicated (chimera) schedules";
    assert_fails_with(
        env!("CARGO_BIN_EXE_trace"),
        &["--engine", "runtime", "--scheme", "chimera"],
        message,
    );
    assert_fails_with(
        env!("CARGO_BIN_EXE_ckpt"),
        &["--mode", "run", "--scheme", "chimera"],
        message,
    );
}

#[cfg(unix)]
#[test]
fn repro_reports_an_unwritable_output_directory() {
    assert_fails_with(
        env!("CARGO_BIN_EXE_repro"),
        &["fig1", "--out", "/dev/null/x"],
        "creating output directory /dev/null/x: ",
    );
}
