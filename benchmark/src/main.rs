//! The repo's benchmark: five workloads, each run in a fresh process as
//! set-up → timed phase (or traced phase) → one JSON result line.
//!
//! ```text
//! hanayo-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1> [--quick] [--out <file>]
//! hanayo-benchmark suite --out <file> --seeds 1,2,3 [--seconds <s>] [--trace <0|1>]
//! hanayo-benchmark compare <a.jsonl> <b.jsonl>
//! hanayo-benchmark manifest | pools
//! ```
//!
//! See `benchmark/README.md` for what each workload and metric means.

mod compare;
mod http;
mod report;
mod run;
mod serve;
mod spans;
mod spec;
mod stats;
mod sweep;
mod train;

use report::{Json, Metric, RunResult};
use run::{Bench, Timed};
use spans::SpanLog;
use spec::Workload;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

/// A timed run repeats the set-up and reports the median as `setup_s`:
/// five times, or three once they have taken `SETUP_BUDGET_S` together.
const SETUP_REPS: usize = 5;
const SETUP_BUDGET_S: f64 = 4.0;

const USAGE: &str = "\
usage: hanayo-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1> [--quick] [--out <file>]
       hanayo-benchmark suite --out <file> --seeds <n,n,..> [--seconds <s>] [--trace <0|1>]
       hanayo-benchmark compare <a.jsonl> <b.jsonl>
       hanayo-benchmark manifest      print BENCHMARK.json from the built-in table
       hanayo-benchmark pools         write the request pools to benchmark/workloads/
workloads: train_gemm train_orch sweep_wide serve_mix serve_tune
--quick   smoke run: about one second timed plus a shortened traced phase, every metric printed
--out     append the result, with its environment block, to a JSON-lines result set
";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    quick: bool,
    out: Option<String>,
}

fn parse_run_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (1u64, spec::RUN_SECONDS as f64, false);
    let (mut quick, mut out) = (false, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} expects a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload =
                    Some(Workload::parse(name).ok_or_else(|| format!("unknown workload {name}"))?);
            }
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".to_string());
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace expects 0 or 1, got {other}")),
                }
            }
            "--quick" => quick = true,
            "--out" => out = Some(value()?.clone()),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Args { workload, seed, seconds, trace, quick, out })
}

fn benchmark_dir() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

fn end_to_end(timed: &Timed, setup_s: &[f64]) -> Vec<Metric> {
    let (p50, p90, work_per_s) = timed.windowed();
    let values = [p50, p90, work_per_s, stats::median(setup_s), run::peak_rss_mb()];
    spec::END_TO_END
        .iter()
        .zip(values)
        .map(|(m, value)| Metric { name: m.name.to_string(), value, unit: m.unit.to_string() })
        .collect()
}

/// Every declared per-layer metric, in declared order; a layer the
/// workload does not execute reads 0.
fn per_layer(layers: &run::Layers) -> Result<Vec<Metric>, String> {
    let declared = spec::per_layer();
    if let Some((name, _)) = layers.0.iter().find(|(n, _)| !declared.iter().any(|d| d.name == *n)) {
        return Err(format!("traced phase reported undeclared metric {name}"));
    }
    Ok(declared
        .iter()
        .map(|d| Metric {
            value: layers.0.iter().find(|(n, _)| *n == d.name).map_or(0.0, |(_, v)| *v),
            name: d.name.clone(),
            unit: d.unit.to_string(),
        })
        .collect())
}

/// The `--quick` view; layers the workload does not execute (0) are left out.
fn print_table(title: &str, metrics: &[Metric]) {
    println!("== {title} ==");
    for m in metrics.iter().filter(|m| m.value != 0.0) {
        println!("  {:<36} {:>16.6} {}", m.name, m.value, m.unit);
    }
}

/// Set up (several times in a timed run), measure, tear down.
fn drive<B: Bench>(args: &Args, make: impl Fn() -> Result<B, String>) -> Result<RunResult, String> {
    let setups = if args.trace || args.quick { 1 } else { SETUP_REPS };
    let mut setup_s = Vec::new();
    let mut bench: Option<B> = None;
    for rep in 0..setups {
        if rep >= 3 && setup_s.iter().sum::<f64>() > SETUP_BUDGET_S {
            break;
        }
        // The previous instance (a server, on the served workloads) is
        // gone before the next set-up is timed.
        drop(bench.take());
        let t = Instant::now();
        bench = Some(make()?);
        setup_s.push(t.elapsed().as_secs_f64());
    }
    let mut bench = bench.ok_or("no set-up ran")?;

    let mut result = RunResult { correct: true, attempted: 1, failed: 0, metrics: Vec::new() };
    if !args.trace || args.quick {
        let timed = bench.timed(if args.quick { args.seconds.min(1.0) } else { args.seconds });
        if timed.ops.is_empty() {
            return Err("no timed op succeeded".to_string());
        }
        if timed.ops.len() < 200 && !args.quick {
            eprintln!("warning: only {} timed ops; p90 wants at least 200", timed.ops.len());
        }
        result.attempted = timed.attempted;
        result.failed = timed.failed;
        result.correct = timed.failed == 0;
        result.metrics = end_to_end(&timed, &setup_s);
        if args.quick {
            print_table("end to end", &result.metrics);
        }
    }
    if args.trace || args.quick {
        let scale = if args.quick { 0.05 } else { args.seconds / spec::RUN_SECONDS as f64 };
        let mut log = SpanLog::new(Instant::now());
        let layers = bench.traced(scale.min(1.0), &mut log);
        log.write_json(&out_stem(args).with_extension("spans.json"))?;
        let metrics = per_layer(&layers?)?;
        if args.quick {
            print_table("per layer", &metrics);
        } else {
            result.metrics = metrics;
        }
    }
    Ok(result)
}

fn out_stem(args: &Args) -> PathBuf {
    benchmark_dir().join("out").join(format!("{}-seed{}", args.workload.name(), args.seed))
}

fn run(args: &Args) -> Result<RunResult, String> {
    let load = report::load_average();
    eprintln!(
        "hanayo-benchmark: {} seed {} seconds {} trace {} | nproc {} load {load}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        report::nproc(),
    );
    let stem = out_stem(args);
    std::fs::create_dir_all(benchmark_dir().join("out"))
        .map_err(|e| format!("creating benchmark/out: {e}"))?;
    let seed = args.seed;
    let _keepers = run::IdleKeepers::start();
    if matches!(args.workload, Workload::TrainGemm | Workload::TrainOrch) {
        // Two device threads already fill the two cores. With the gemm
        // pool at its default (one more worker) three runnable threads
        // share them and the iteration time wanders between 30 and 48 ms
        // within one run; the pool reads this once, when first used.
        std::env::set_var("HANAYO_THREADS", "1");
    }
    let result = match args.workload {
        Workload::TrainGemm => drive(args, || train::Train::setup(train::GEMM, seed, stem.clone())),
        Workload::TrainOrch => drive(args, || train::Train::setup(train::ORCH, seed, stem.clone())),
        Workload::SweepWide => drive(args, sweep::Sweep::setup),
        Workload::ServeMix => drive(args, || serve::Serve::setup(serve::Mode::Mix, seed)),
        Workload::ServeTune => drive(args, || serve::Serve::setup(serve::Mode::Tune, seed)),
    }?;
    if let Some(path) = &args.out {
        let line = report::record_line(
            args.workload.name(),
            args.seed,
            args.trace,
            args.seconds,
            report::environment(load),
            &result,
        );
        let mut file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .map_err(|e| format!("{path}: {e}"))?;
        writeln!(file, "{line}").map_err(|e| format!("{path}: {e}"))?;
    }
    Ok(result)
}

/// Run every workload at every seed, each in a fresh process (the served
/// workloads flip the process-global metrics switch), appending to `--out`.
fn suite(args: &[String]) -> Result<(), String> {
    let mut seeds: Vec<u64> = Vec::new();
    let mut pass: Vec<String> = Vec::new();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} expects a value"));
        match flag.as_str() {
            "--seeds" => {
                seeds = value()?
                    .split(',')
                    .map(|s| s.trim().parse().map_err(|e| format!("--seeds: {e}")))
                    .collect::<Result<_, _>>()?
            }
            "--out" | "--seconds" | "--trace" => {
                pass.push(flag.clone());
                pass.push(value()?.clone());
            }
            "--quick" => pass.push(flag.clone()),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if seeds.is_empty() || !pass.iter().any(|f| f == "--out") {
        return Err("suite needs --seeds and --out".to_string());
    }
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    for seed in seeds {
        for workload in Workload::ALL {
            let status = std::process::Command::new(&exe)
                .args(["--workload", workload.name(), "--seed", &seed.to_string()])
                .args(&pass)
                .stdout(std::process::Stdio::null())
                .status()
                .map_err(|e| format!("spawning {}: {e}", workload.name()))?;
            if !status.success() {
                return Err(format!("{} seed {seed} exited with {status}", workload.name()));
            }
        }
    }
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        None | Some("--help") | Some("-h") => {
            eprint!("{USAGE}");
            return if args.is_empty() { ExitCode::FAILURE } else { ExitCode::SUCCESS };
        }
        Some("manifest") => {
            let json = serde_json::to_string_pretty(&Json(spec::manifest())).unwrap_or_default();
            println!("{json}");
            Ok(())
        }
        Some("pools") => serve::write_pools(&benchmark_dir().join("workloads")),
        Some("compare") => match &args[1..] {
            [a, b] => compare::run(a, b),
            _ => Err("compare expects two result-set files".to_string()),
        },
        Some("suite") => suite(&args[1..]),
        Some(run::KEEPER_ARG) => {
            run::keep_idle();
            Ok(())
        }
        Some(_) => parse_run_args(&args).and_then(|a| run(&a)).map(|result| {
            println!("{}", result.to_json());
        }),
    };
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("error: {msg}");
            ExitCode::FAILURE
        }
    }
}
