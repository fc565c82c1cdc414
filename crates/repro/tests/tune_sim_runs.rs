//! A parallel `hanayo tune --wide` simulates exactly the group runs a
//! `--serial` one does. Every candidate that resolves to one schedule
//! shape runs in one sweep task, so two executors never both miss the
//! same report memo entry and simulate it twice. Counted through
//! `--metrics`, over 20 parallel runs per shape on a four-executor pool.

use std::process::Command;

/// `hanayo_sim_runs_total` after one `hanayo tune` run.
fn sim_runs(argv: &[&str], tag: &str) -> u64 {
    let path = format!("{}/tune_sim_runs_{tag}.prom", env!("CARGO_TARGET_TMPDIR"));
    let out = Command::new(env!("CARGO_BIN_EXE_hanayo"))
        .args(argv)
        .args(["--compact", "--metrics", &path])
        .env("HANAYO_THREADS", "4")
        .output()
        .expect("spawn");
    assert!(out.status.success(), "hanayo {argv:?}: {}", String::from_utf8_lossy(&out.stderr));
    let text = std::fs::read_to_string(&path).expect("metrics file");
    let runs = text.lines().find_map(|line| line.strip_prefix("hanayo_sim_runs_total "));
    runs.and_then(|v| v.trim().parse().ok()).expect("hanayo_sim_runs_total in the exposition")
}

#[test]
fn parallel_wide_sweeps_simulate_what_serial_ones_do() {
    let shapes: [(&str, &[&str], u64); 3] = [
        // The benchmark's `sweep_wide` shape.
        ("bench", &["tune", "--wide"], 288),
        ("pc32", &["tune", "--cluster", "pc", "--gpus", "32", "--batch", "8", "--wide"], 176),
        // The shape of tests/golden/tune_wide_tacc_g8_b16_m4.json.
        ("tacc_m4", &["tune", "--micro-batch-size", "4", "--wide"], 154),
    ];
    for (tag, argv, expected) in shapes {
        let serial = sim_runs(&[argv, &["--serial"]].concat(), tag);
        assert_eq!(serial, expected, "{tag}: serial group runs");
        for run in 0..20 {
            assert_eq!(sim_runs(argv, tag), serial, "{tag}: parallel run {run}");
        }
    }
}
