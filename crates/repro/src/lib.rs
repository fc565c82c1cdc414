//! # hanayo-repro
//!
//! Regeneration harness for every table and figure in the paper's
//! evaluation. Each `figN` module exposes
//!
//! * a `data()` function returning the structured rows/series, and
//! * a `run()` function rendering them as the text table printed by
//!   `hanayo fig figN` (`cargo run -p hanayo-repro -- fig figN`).
//!
//! The crate's one binary, `hanayo`, is the repository's command line:
//! `fig`, `memfig`, `tune`, `analyze`, `search`, `trace`, `ckpt`,
//! `metrics` and `serve` (`hanayo --help` lists them).
//!
//! Workload parameters (micro-batch counts and sizes) are fixed presets
//! chosen to reproduce the paper's *shapes* — who wins, by what factor,
//! which cells OOM — and are documented per experiment in `EXPERIMENTS.md`.

pub mod common;
pub mod fig1;
mod fig10;
pub mod fig11;
pub mod fig12;
mod fig2;
mod fig3;
mod fig4;
pub mod fig5;
mod fig6;
mod fig7;
mod fig8;
pub mod fig9;
pub mod memfig;
pub mod metricsio;

/// A figure's id plus the function that renders its table.
pub type FigureRunner = (&'static str, fn() -> String);

/// All figure ids in order, with their runner.
pub fn all_figures() -> Vec<FigureRunner> {
    vec![
        ("fig1", fig1::run as fn() -> String),
        ("fig2", fig2::run),
        ("fig3", fig3::run),
        ("fig4", fig4::run),
        ("fig5", fig5::run),
        ("fig6", fig6::run),
        ("fig7", fig7::run),
        ("fig8", fig8::run),
        ("fig9", fig9::run),
        ("fig10", fig10::run),
        ("fig11", fig11::run),
        ("fig12", fig12::run),
        // Not a numbered paper figure: the §5.1 memory statistics table
        // (also as JSON, `hanayo memfig`).
        ("memfig", memfig::run),
    ]
}
