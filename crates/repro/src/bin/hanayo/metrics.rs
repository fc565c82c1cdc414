//! `hanayo metrics` — exercise every instrumented layer on one seeded
//! scenario and emit the registry, as Prometheus text or the
//! `hanayo-metrics-v1` JSON document.
//!
//! This is the observability smoke test and the scrape-format reference:
//! the counters it prints are a pure function of the workload (the clock
//! is pinned, the sweep is serial), so two runs emit byte-identical
//! documents — the golden suite holds it to that.

use crate::cli::{flag, Arg, Command, Flag, Output};
use hanayo_repro::metricsio::{demo_scenario, write_metrics};

pub(crate) struct Args {
    format: Format,
    out: Option<String>,
    validate: bool,
    quiet: bool,
}

/// The `--format` of stdout.
#[derive(PartialEq)]
enum Format {
    Prom,
    Json,
}

impl Arg for Format {
    fn parse(v: &str) -> Result<Self, String> {
        match v {
            "prom" => Ok(Format::Prom),
            "json" => Ok(Format::Json),
            other => Err(format!("expected prom or json, got {other}")),
        }
    }
}

impl Command for Args {
    const ABOUT: &'static str = "run the seeded observability scenario and emit the registry";
    const USAGE: &'static str = "USAGE: hanayo metrics [FLAGS]\n";

    fn defaults() -> Self {
        Args { format: Format::Prom, out: None, validate: false, quiet: false }
    }

    fn flags() -> Vec<Flag<Self>> {
        vec![
            flag("--format", "<prom|json>", "exposition format for stdout [prom]", |a| {
                &mut a.format
            }),
            flag(
                "--out",
                "<path>",
                "also write the exposition to a file (.prom extension selects Prometheus \
                 text, anything else the JSON document)",
                |a| &mut a.out,
            ),
            flag(
                "--validate",
                "",
                "check the Prometheus rendering against the exposition grammar and print the \
                 sample count",
                |a| &mut a.validate,
            ),
            flag("--quiet", "", "suppress the exposition on stdout", |a| &mut a.quiet),
        ]
    }

    fn run(self, _: &Output) -> Result<(), String> {
        // The pinned clock makes every duration histogram deterministic
        // (each observation lands in the first bucket), which is what lets
        // the emitted document be byte-stable across runs and machines.
        hanayo_metrics::set_clock(hanayo_metrics::ClockMode::Fixed(1_700_000_000_000_000_000));
        hanayo_metrics::set_enabled(true);
        demo_scenario().map_err(|msg| format!("scenario failed: {msg}"))?;

        let snap = hanayo_metrics::snapshot();
        let prom = hanayo_metrics::expo::prometheus(&snap);
        if self.validate {
            let samples = hanayo_metrics::expo::validate_prometheus(&prom)
                .map_err(|msg| format!("invalid prometheus exposition: {msg}"))?;
            eprintln!(
                "validated: {} series, {samples} samples, prometheus grammar ok",
                snap.series.len()
            );
        }
        if let Some(path) = &self.out {
            let n = write_metrics(path)?;
            eprintln!("wrote {n} series to {path}");
        }
        if !self.quiet {
            let json = self.format == Format::Json;
            print!("{}", if json { hanayo_metrics::expo::json(&snap) } else { prom });
        }
        Ok(())
    }
}
