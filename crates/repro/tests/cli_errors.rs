//! The `hanayo` command line's exits: `--help` is a success, and a bad
//! flag, an unknown subcommand or a rejected input fails with a typed
//! error (exit 1, the reason on stderr), never a panic (exit 101).
//! `--cluster` and `--scheme` resolve through `hanayo_serve::schema`, so
//! an oversized cluster or an unknown scheme is rejected the same way by
//! every subcommand.

use std::process::Command;

const OVERSIZED_TC: &str = "cluster tc has 8 GPUs, gpus 16 exceeds it";
const NO_CHIMERA: &str = "the threaded runtime rejects replicated (chimera) schedules";
const RESTART: &str = "--restart-s must be finite and non-negative";

/// `(argv, exit code, stderr fragment)`.
const CASES: &[(&[&str], i32, &str)] = &[
    (&["--help"], 0, "SUBCOMMANDS:"),
    (&["tune", "--help"], 0, "hanayo tune — "),
    (&["analyze", "--help"], 0, "hanayo analyze — "),
    (&["search", "--help"], 0, "hanayo search — "),
    (&["trace", "--help"], 0, "hanayo trace — "),
    (&["ckpt", "--help"], 0, "hanayo ckpt — "),
    (&["fig", "--help"], 0, "hanayo fig — "),
    (&["memfig", "--help"], 0, "hanayo memfig — "),
    (&["metrics", "--help"], 0, "hanayo metrics — "),
    (&["serve", "--help"], 0, "hanayo serve — "),
    (&[], 1, "SUBCOMMANDS:"),
    (&["sweep"], 1, "unknown subcommand sweep"),
    (&["tune", "--bogus"], 1, "unknown flag --bogus"),
    (&["tune", "--gpus", "x"], 1, "--gpus: invalid digit"),
    (&["serve", "--mode", "client"], 1, "unknown flag --mode"),
    (&["fig", "fig1", "--out"], 1, "--out expects a value"),
    (&["fig", "fig1", "--out", "/dev/null/x"], 1, "creating output directory /dev/null/x: "),
    (&["ckpt", "--mode", "goodput", "--cluster", "tc", "--gpus", "16"], 1, OVERSIZED_TC),
    (
        &["search", "--model", "bert64", "--cluster", "tc", "--gpus", "16", "--micro-batches", "4"],
        1,
        OVERSIZED_TC,
    ),
    (&["trace", "--engine", "sim", "--cluster", "tc", "--devices", "16"], 1, OVERSIZED_TC),
    (
        &["trace", "--engine", "sim", "--scheme", "hanayo2"],
        1,
        "unknown scheme hanayo2 (expected gpipe, dapple, chimera, pipedream, interleaved<C> or \
         hanayo_w<W>)",
    ),
    (
        &["ckpt", "--mode", "run", "--scheme", "wave"],
        1,
        "unknown scheme wave (expected gpipe, dapple, chimera, pipedream, interleaved<C> or \
         hanayo_w<W>)",
    ),
    (&["trace", "--engine", "runtime", "--scheme", "chimera"], 1, NO_CHIMERA),
    (&["ckpt", "--mode", "run", "--scheme", "chimera"], 1, NO_CHIMERA),
    (&["ckpt", "--mode", "run", "--width", "0"], 1, "--width: number would be zero"),
    (&["ckpt", "--mode", "run", "--rows", "0"], 1, "--rows: number would be zero"),
    (&["ckpt", "--mode", "goodput", "--mtbf-hours", "0"], 1, "--mtbf-hours must be positive"),
    (&["ckpt", "--mode", "goodput", "--mtbf-hours", "nan"], 1, "--mtbf-hours must be positive"),
    (&["ckpt", "--mode", "goodput", "--restart-s", "-5"], 1, RESTART),
    (&["ckpt", "--mode", "goodput", "--restart-s", "nan"], 1, RESTART),
];

#[test]
fn every_exit_is_a_success_or_a_typed_error() {
    for &(argv, code, fragment) in CASES {
        let out = Command::new(env!("CARGO_BIN_EXE_hanayo")).args(argv).output().expect("spawn");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(code), "hanayo {argv:?}: {stderr}");
        assert!(stderr.contains(fragment), "hanayo {argv:?}: {stderr}");
    }
}

/// The fields of a JSON log line this test reads.
#[derive(serde::Deserialize)]
struct Event {
    level: String,
    target: String,
    msg: String,
}

#[test]
fn a_malformed_thread_count_is_logged_through_the_facade() {
    let out = Command::new(env!("CARGO_BIN_EXE_hanayo"))
        .args(["tune", "--compact", "--top", "1"])
        .env("HANAYO_THREADS", "abc")
        .env("HANAYO_LOG", "warn")
        .env("HANAYO_LOG_FORMAT", "json")
        .output()
        .expect("spawn");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{stderr}");
    let events: Vec<Event> = stderr
        .lines()
        .map(|line| serde_json::from_str(line).unwrap_or_else(|e| panic!("{e}: {line:?}")))
        .collect();
    let warned = events.iter().any(|event| {
        event.level == "warn" && event.target == "pool" && event.msg.contains("HANAYO_THREADS")
    });
    assert!(warned, "no pool warning naming HANAYO_THREADS: {stderr}");
}
