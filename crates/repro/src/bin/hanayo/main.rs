//! `hanayo` — the repository's command line: one binary, one subcommand
//! per tool.
//!
//! ```text
//! hanayo tune --cluster tacc --wide --top 10      # rank every strategy
//! hanayo analyze --scheme hanayo_w2               # static verification
//! hanayo search --cluster pc --gpus 4             # schedule-space search
//! hanayo trace --engine sim --chrome /tmp/t.json  # execution trace
//! hanayo ckpt --mode goodput --cluster tacc       # checkpoint / goodput
//! hanayo fig all --out DIR                        # every figure's table
//! hanayo memfig                                   # §5.1 memory statistics
//! hanayo metrics --validate                       # seeded metrics scenario
//! hanayo serve --addr 127.0.0.1:7411              # the planning service
//! ```
//!
//! Each subcommand is a flag table over one parser ([`cli`]); `hanayo
//! <subcommand> --help` prints its flags and defaults. `tune` and
//! `analyze` read their flags into the request types the planning service
//! deserialises and build their documents through `hanayo_serve::schema`,
//! so their `--compact` stdout is the body `/v1/tune` and `/v1/analyze`
//! answer with.

mod analyze;
mod ckpt;
mod cli;
mod fig;
mod metrics;
mod search;
mod serve;
mod trace;
mod tune;

use cli::{run, Command};
use hanayo_serve::schema::TuneRequest;
use std::process::ExitCode;

type Runner = fn(&str, std::env::Args) -> ExitCode;

/// Every subcommand: its name, its summary and its runner.
const COMMANDS: [(&str, &str, Runner); 9] = [
    ("tune", TuneRequest::ABOUT, run::<TuneRequest>),
    ("analyze", analyze::Args::ABOUT, run::<analyze::Args>),
    ("search", search::Args::ABOUT, run::<search::Args>),
    ("trace", trace::Args::ABOUT, run::<trace::Args>),
    ("ckpt", ckpt::Args::ABOUT, run::<ckpt::Args>),
    ("fig", fig::Fig::ABOUT, run::<fig::Fig>),
    ("memfig", fig::Memfig::ABOUT, run::<fig::Memfig>),
    ("metrics", metrics::Args::ABOUT, run::<metrics::Args>),
    ("serve", serve::Args::ABOUT, run::<serve::Args>),
];

fn usage() -> String {
    let rows = COMMANDS.iter().map(|&(name, about, _)| (name.to_string(), about));
    format!(
        "hanayo — Hanayo pipeline-parallel planning, training and figures\n\n\
         USAGE: hanayo <SUBCOMMAND> [FLAGS]\n       hanayo <SUBCOMMAND> --help\n\n\
         SUBCOMMANDS:\n{}",
        cli::columns(rows)
    )
}

fn main() -> ExitCode {
    let mut argv = std::env::args();
    argv.next();
    let sub = argv.next().unwrap_or_default();
    if let Some(&(name, _, runner)) = COMMANDS.iter().find(|c| c.0 == sub) {
        // The pool reports its start-up trouble; the log facade prints it.
        for warning in rayon::pool_warnings() {
            hanayo_metrics::log::event(hanayo_metrics::log::Level::Warn, "pool", warning, &[]);
        }
        return runner(name, argv);
    }
    match sub.as_str() {
        "--help" | "-h" => {
            eprint!("{}", usage());
            ExitCode::SUCCESS
        }
        "" => {
            eprint!("{}", usage());
            ExitCode::FAILURE
        }
        other => {
            eprintln!("error: unknown subcommand {other}\n\n{}", usage());
            ExitCode::FAILURE
        }
    }
}
