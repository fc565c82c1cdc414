//! `hanayo fig` — the paper figures' tables (`fig fig1`, `fig all --out
//! DIR`), and `hanayo memfig` — the §5.1 memory statistics as JSON.

use crate::cli::{compact, flag, Command, Flag, Output};
use std::fs;
use std::path::Path;

pub(crate) struct Fig {
    targets: Vec<String>,
    out: Option<String>,
}

impl Command for Fig {
    const ABOUT: &'static str = "print the paper figures' tables";
    const USAGE: &'static str = "USAGE: hanayo fig <fig1..fig12|memfig|all>... [--out DIR]\n";

    fn defaults() -> Self {
        Fig { targets: Vec::new(), out: None }
    }

    fn flags() -> Vec<Flag<Self>> {
        vec![flag("--out", "<DIR>", "also write each table to DIR/<name>.txt", |f| &mut f.out)]
    }

    fn positional(&mut self, arg: String) -> Result<(), String> {
        self.targets.push(arg);
        Ok(())
    }

    fn run(self, _: &Output) -> Result<(), String> {
        let figures = hanayo_repro::all_figures();
        let names: Vec<&str> = figures.iter().map(|(name, _)| *name).collect();
        let known = format!("try one of {} or all", names.join(", "));
        if self.targets.is_empty() {
            return Err(format!("name a figure: {known}"));
        }
        let find = |t: &String| {
            figures.iter().find(|(n, _)| n == t).ok_or(format!("unknown figure '{t}'; {known}"))
        };
        let run_list: Vec<_> = if self.targets.iter().any(|t| t == "all") {
            figures.iter().collect()
        } else {
            self.targets.iter().map(find).collect::<Result<_, _>>()?
        };

        if let Some(dir) = &self.out {
            fs::create_dir_all(dir).map_err(|e| format!("creating output directory {dir}: {e}"))?;
        }
        for (name, runner) in run_list {
            let text = runner();
            println!("{text}");
            if let Some(dir) = &self.out {
                let path = Path::new(dir).join(format!("{name}.txt"));
                fs::write(&path, &text).map_err(|e| format!("writing {}: {e}", path.display()))?;
                eprintln!("wrote {}", path.display());
            }
        }
        Ok(())
    }
}

/// Per-scheme highest peak and variance (Fig. 3 units *and* BERT-64L
/// bytes) for Hanayo w ∈ {1, 2, 4} vs GPipe / DAPPLE / Chimera, under both
/// activation stash policies.
pub(crate) struct Memfig;

impl Command for Memfig {
    const ABOUT: &'static str = "per-scheme highest-peak / variance memory table as JSON";
    const USAGE: &'static str = "USAGE: hanayo memfig [--compact]\n";

    fn defaults() -> Self {
        Memfig
    }

    fn flags() -> Vec<Flag<Self>> {
        vec![compact()]
    }

    fn run(self, out: &Output) -> Result<(), String> {
        out.emit(&hanayo_repro::memfig::data())
    }
}
