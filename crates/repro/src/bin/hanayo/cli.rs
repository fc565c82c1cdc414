//! What every subcommand shares: one flag parser, one usage renderer, one
//! `--compact` / `--metrics` output path and one error-to-exit convention.
//!
//! A subcommand is a [`Command`]: its arguments, starting from
//! [`Command::defaults`], and a table of [`Flag`] rows, each a flag, its
//! value placeholder, its help text and the setter that stores the value.

use hanayo_model::Recompute;
use serde::Serialize;
use std::num::NonZeroUsize;
use std::process::ExitCode;

/// One subcommand.
pub(crate) trait Command: Sized {
    /// One-line summary, shown in `hanayo --help` and the subcommand's own usage.
    const ABOUT: &'static str;
    /// Usage lines, and any notes, printed between the summary and the flags.
    const USAGE: &'static str;
    /// The arguments before any flag is read.
    fn defaults() -> Self;
    /// The flag table, in usage order.
    fn flags() -> Vec<Flag<Self>>;
    /// Take one positional argument; no subcommand takes any unless it says so.
    fn positional(&mut self, arg: String) -> Result<(), String> {
        Err(format!("unknown flag {arg}"))
    }
    /// Do the work, printing documents through `out`.
    fn run(self, out: &Output) -> Result<(), String>;
}

type Setter<C> = Box<dyn Fn(&mut C, &mut Output, &str) -> Result<(), String>>;

/// One row of a flag table.
pub(crate) struct Flag<C> {
    name: &'static str,
    /// The value's placeholder in the usage; empty for a switch, which
    /// takes no value.
    value: &'static str,
    help: &'static str,
    set: Setter<C>,
}

/// A row whose value [`Arg::parse`] stores in the field `field` selects.
pub(crate) fn flag<C: 'static, T: Arg + 'static>(
    name: &'static str,
    value: &'static str,
    help: &'static str,
    field: fn(&mut C) -> &mut T,
) -> Flag<C> {
    let set: Setter<C> = Box::new(move |cmd, _, v| {
        *field(cmd) = T::parse(v)?;
        Ok(())
    });
    Flag { name, value, help, set }
}

/// The `--compact` row: print single-line JSON.
pub(crate) fn compact<C>() -> Flag<C> {
    let set: Setter<C> = Box::new(|_, out, _| {
        out.compact = true;
        Ok(())
    });
    Flag { name: "--compact", value: "", help: "single-line JSON (default pretty)", set }
}

/// The `--metrics <path>` row: record the run in the metrics registry and
/// write the exposition to `path` on exit.
pub(crate) fn metrics<C>() -> Flag<C> {
    let set: Setter<C> = Box::new(|_, out, v| {
        out.metrics = Some(v.to_string());
        Ok(())
    });
    let help = "enable the metrics registry and write its exposition there on exit \
                (.prom selects Prometheus text, anything else JSON)";
    Flag { name: "--metrics", value: "<path>", help, set }
}

/// A flag value's type: how the text after the flag becomes a field.
pub(crate) trait Arg: Sized {
    /// Parse one value. The error is reported after the flag's name.
    fn parse(v: &str) -> Result<Self, String>;
}

macro_rules! from_str_args {
    ($($t:ty),*) => {$(
        impl Arg for $t {
            fn parse(v: &str) -> Result<Self, String> {
                v.parse().map_err(|e: <$t as std::str::FromStr>::Err| e.to_string())
            }
        }
    )*};
}
from_str_args!(String, u32, u64, usize, f32, f64, NonZeroUsize);

/// A switch: present means on.
impl Arg for bool {
    fn parse(_: &str) -> Result<Self, String> {
        Ok(true)
    }
}

impl<T: Arg> Arg for Option<T> {
    fn parse(v: &str) -> Result<Self, String> {
        T::parse(v).map(Some)
    }
}

/// A comma-separated list.
impl<T: Arg> Arg for Vec<T> {
    fn parse(v: &str) -> Result<Self, String> {
        v.split(',').map(|x| T::parse(x.trim())).collect()
    }
}

/// Resolved by the modes' own labels, so a future variant is parseable
/// the day it joins `Recompute::ALL`.
impl Arg for Recompute {
    fn parse(v: &str) -> Result<Self, String> {
        Recompute::ALL
            .into_iter()
            .find(|m| m.label() == v)
            .ok_or_else(|| format!("unknown mode {v}"))
    }
}

/// Where a subcommand's documents go, as `--compact` and `--metrics` set it.
#[derive(Default)]
pub(crate) struct Output {
    compact: bool,
    metrics: Option<String>,
}

impl Output {
    /// Print one JSON document on stdout: one line with `--compact`, else pretty.
    pub(crate) fn emit<T: Serialize>(&self, doc: &T) -> Result<(), String> {
        let json = if self.compact {
            serde_json::to_string(doc)
        } else {
            serde_json::to_string_pretty(doc)
        };
        println!("{}", json.map_err(|e| e.to_string())?);
        Ok(())
    }
}

/// Read `argv` into the subcommand's arguments; `None` means `--help`.
fn parse<C: Command>(
    flags: &[Flag<C>],
    mut argv: std::env::Args,
) -> Result<Option<(C, Output)>, String> {
    let (mut cmd, mut out) = (C::defaults(), Output::default());
    while let Some(arg) = argv.next() {
        if arg == "--help" || arg == "-h" {
            return Ok(None);
        }
        let Some(flag) = flags.iter().find(|f| f.name == arg) else {
            if arg.starts_with('-') {
                return Err(format!("unknown flag {arg}"));
            }
            cmd.positional(arg)?;
            continue;
        };
        let value = match flag.value {
            "" => String::new(),
            _ => argv.next().ok_or_else(|| format!("{arg} expects a value"))?,
        };
        (flag.set)(&mut cmd, &mut out, &value).map_err(|e| format!("{arg}: {e}"))?;
    }
    Ok(Some((cmd, out)))
}

/// Lay out `rows` as a two-column list, wrapping the right column.
pub(crate) fn columns<'a>(rows: impl Iterator<Item = (String, &'a str)> + Clone) -> String {
    let width = rows.clone().map(|(left, _)| left.len()).max().unwrap_or(0);
    let room = 78usize.saturating_sub(width + 4).max(30);
    let mut text = String::new();
    for (left, help) in rows {
        let mut lines: Vec<String> = Vec::new();
        for word in help.split_whitespace() {
            match lines.last_mut() {
                Some(line) if line.len() + 1 + word.len() <= room => {
                    line.push(' ');
                    line.push_str(word);
                }
                _ => lines.push(word.to_string()),
            }
        }
        for (i, line) in lines.iter().enumerate() {
            let left = if i == 0 { left.as_str() } else { "" };
            text += &format!("  {left:<width$}  {line}\n");
        }
    }
    text
}

fn usage<C: Command>(name: &str, flags: &[Flag<C>]) -> String {
    let rows =
        flags.iter().map(|f| (format!("{} {}", f.name, f.value).trim_end().to_string(), f.help));
    let help = [("--help".to_string(), "this text")];
    format!("hanayo {name} — {}\n\n{}\nFLAGS:\n{}", C::ABOUT, C::USAGE, columns(rows.chain(help)))
}

/// Run one subcommand on the arguments after its name. Usage goes to
/// stderr; `--help` exits 0, and a bad flag or a failed run exits 1 with
/// the reason.
pub(crate) fn run<C: Command>(name: &str, argv: std::env::Args) -> ExitCode {
    let flags = C::flags();
    let (cmd, out) = match parse(&flags, argv) {
        Ok(Some(parsed)) => parsed,
        Ok(None) => {
            eprint!("{}", usage(name, &flags));
            return ExitCode::SUCCESS;
        }
        Err(msg) => {
            eprintln!("error: {msg}\n\n{}", usage(name, &flags));
            return ExitCode::FAILURE;
        }
    };
    // On before the work, so the run's first event counts like its last.
    if out.metrics.is_some() {
        hanayo_metrics::set_enabled(true);
    }
    let outcome = cmd.run(&out).and_then(|()| {
        let Some(path) = &out.metrics else { return Ok(()) };
        let n = hanayo_repro::metricsio::write_metrics(path)?;
        eprintln!("metrics: wrote {n} series to {path}");
        Ok(())
    });
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("error: {msg}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::{columns, Command};
    use crate::{analyze, ckpt, fig, metrics, search, serve, trace};
    use hanayo_serve::schema::TuneRequest;

    fn names<C: Command>() -> Vec<&'static str> {
        C::flags().iter().map(|f| f.name).collect()
    }

    /// The command line's options, per subcommand: adding or removing a
    /// flag is a deliberate change to this table.
    #[test]
    fn every_subcommand_has_its_flags_once() {
        let tables = [
            ("tune", names::<TuneRequest>(), 14),
            ("analyze", names::<analyze::Args>(), 9),
            ("search", names::<search::Args>(), 12),
            ("trace", names::<trace::Args>(), 14),
            ("ckpt", names::<ckpt::Args>(), 26),
            ("fig", names::<fig::Fig>(), 1),
            ("memfig", names::<fig::Memfig>(), 1),
            ("metrics", names::<metrics::Args>(), 4),
            ("serve", names::<serve::Args>(), 2),
        ];
        for (name, mut flags, count) in tables {
            assert_eq!(flags.len(), count, "{name}: {flags:?}");
            assert!(!flags.contains(&"--help"), "{name} shadows --help");
            flags.sort();
            flags.dedup();
            assert_eq!(flags.len(), count, "{name} repeats a flag");
        }
    }

    #[test]
    fn usage_wraps_help_without_losing_a_word() {
        let help = "one two three four five six seven eight nine ten ".repeat(8);
        let text = columns([("--flag <V>".to_string(), help.as_str())].into_iter());
        let lines: Vec<&str> = text.lines().collect();
        assert!(lines.len() > 1 && lines.iter().all(|l| l.len() <= 80), "{text}");
        assert!(lines[0].starts_with("  --flag <V>  one two"), "{text}");
        assert!(lines[1..].iter().all(|l| l.starts_with(&" ".repeat(14))), "{text}");
        let words: Vec<&str> = lines.iter().flat_map(|l| l.split_whitespace()).skip(2).collect();
        assert_eq!(words, help.split_whitespace().collect::<Vec<_>>());
    }
}
