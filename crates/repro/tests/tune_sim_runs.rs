//! A parallel `hanayo tune --wide` simulates exactly the group runs a
//! `--serial` one does. Every candidate that resolves to one schedule
//! shape runs in one sweep task, so two executors never both miss the
//! same report memo entry and simulate it twice. Counted through
//! `--metrics`, over 20 parallel runs per shape on a four-executor pool.
//! A `--top` sweep's rounds group their candidates by shape the same
//! way, so it too simulates in parallel what it does serially. The same
//! expositions show that the static pre-pass decides every OOM rejection.

use std::process::Command;

/// One `hanayo tune --compact` run on a four-executor pool: its stdout
/// and its metrics exposition.
fn tune(argv: &[&str], tag: &str) -> (String, String) {
    let path = format!("{}/tune_sim_runs_{tag}.prom", env!("CARGO_TARGET_TMPDIR"));
    let out = Command::new(env!("CARGO_BIN_EXE_hanayo"))
        .args(argv)
        .args(["--compact", "--metrics", &path])
        .env("HANAYO_THREADS", "4")
        .output()
        .expect("spawn");
    assert!(out.status.success(), "hanayo {argv:?}: {}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8(out.stdout).expect("utf-8 stdout");
    (stdout, std::fs::read_to_string(&path).expect("metrics file"))
}

/// An unlabelled counter's value in an exposition (0 when it never
/// counted).
fn counter(exposition: &str, name: &str) -> u64 {
    let value = exposition.lines().find_map(|line| line.strip_prefix(name)?.strip_prefix(' '));
    value.map_or(0, |v| v.trim().parse().expect("a counter value"))
}

/// `hanayo_sim_runs_total` after one `hanayo tune` run.
fn sim_runs(argv: &[&str], tag: &str) -> u64 {
    let runs = counter(&tune(argv, tag).1, "hanayo_sim_runs_total");
    assert!(runs > 0, "hanayo_sim_runs_total in the exposition");
    runs
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

#[test]
fn parallel_top_k_sweeps_simulate_what_serial_ones_do() {
    // The benchmark's `sweep_wide` shape asked for its 5 best rows: the
    // full table above runs the engine 288 times.
    let argv: &[&str] = &["tune", "--wide", "--top", "5"];
    let (document, exposition) = tune(&[argv, &["--serial"]].concat(), "bench_top5");
    let serial = counter(&exposition, "hanayo_sim_runs_total");
    assert_eq!(serial, 6, "serial group runs");
    // The pre-pass bounds each plan once for all its simulator variants:
    // 144 critical paths computed, 20 reused (656 probes when every
    // candidate was bounded).
    let probes = |exposition: &str| {
        ["hits", "misses"].map(|outcome| {
            let name = format!("hanayo_tuner_cache_{outcome}_total{{cache=\"critical_paths\"}}");
            counter(exposition, &name)
        })
    };
    assert_eq!(probes(&exposition), [20, 144], "serial critical-path probes");
    for run in 0..20 {
        let (stdout, exposition) = tune(argv, "bench_top5");
        assert_eq!(stdout, document, "parallel run {run}");
        assert_eq!(counter(&exposition, "hanayo_sim_runs_total"), serial, "parallel run {run}");
        assert_eq!(probes(&exposition), [20, 144], "parallel run {run}");
    }
}

/// The part of a tune document this test reads.
#[derive(serde::Deserialize)]
struct Document {
    rejected_oom: Vec<OomRow>,
}

#[derive(serde::Deserialize)]
struct OomRow {}

#[test]
fn every_oom_rejection_is_a_static_prune() {
    let goldens: [(&str, &[&str]); 2] = [
        (
            "tacc_golden",
            &[
                "tune",
                "--cluster",
                "tacc",
                "--gpus",
                "8",
                "--batch",
                "16",
                "--micro-batch-size",
                "4",
            ],
        ),
        ("pc_golden", &["tune", "--cluster", "pc", "--gpus", "32", "--batch", "8"]),
    ];
    for (tag, argv) in goldens {
        for serial in [false, true] {
            let argv = [argv, &["--wide"], if serial { &["--serial"] } else { &[] }].concat();
            let (stdout, exposition) = tune(&argv, tag);
            let doc: Document = serde_json::from_str(&stdout).expect("a tune document");
            let ooms = doc.rejected_oom.len() as u64;
            let prunes = counter(&exposition, "hanayo_tuner_static_prunes_total");
            assert_eq!(
                prunes, ooms,
                "{tag} (serial={serial}): OOM rejections not pruned statically"
            );
        }
    }
}
