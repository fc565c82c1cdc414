//! The figure-regeneration binary.
//!
//! ```text
//! repro fig1            # print one figure's table
//! repro all             # print every figure
//! repro all --out DIR   # also write each table to DIR/figN.txt
//! ```

use std::env;
use std::fs;
use std::path::Path;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = env::args().skip(1).collect();
    let figures = hanayo_repro::all_figures();

    let mut targets: Vec<String> = Vec::new();
    let mut out_dir: Option<String> = None;
    let mut it = args.into_iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--out" => out_dir = it.next(),
            _ => targets.push(a),
        }
    }

    if targets.is_empty() {
        eprintln!("usage: repro <fig1..fig12|all> [--out DIR]");
        eprintln!("available figures:");
        for (name, _) in &figures {
            eprintln!("  {name}");
        }
        return ExitCode::FAILURE;
    }

    let run_list: Vec<&hanayo_repro::FigureRunner> = if targets.iter().any(|t| t == "all") {
        figures.iter().collect()
    } else {
        let mut list = Vec::new();
        for t in &targets {
            match figures.iter().find(|(n, _)| n == t) {
                Some(f) => list.push(f),
                None => {
                    eprintln!("unknown figure '{t}'; try one of fig1..fig12 or 'all'");
                    return ExitCode::FAILURE;
                }
            }
        }
        list
    };

    if let Some(dir) = &out_dir {
        if let Err(e) = fs::create_dir_all(dir) {
            eprintln!("error: creating output directory {dir}: {e}");
            return ExitCode::FAILURE;
        }
    }
    for (name, runner) in run_list {
        let text = runner();
        println!("{text}");
        if let Some(dir) = &out_dir {
            let path = Path::new(dir).join(format!("{name}.txt"));
            if let Err(e) = fs::write(&path, &text) {
                eprintln!("error: writing {}: {e}", path.display());
                return ExitCode::FAILURE;
            }
            eprintln!("wrote {}", path.display());
        }
    }
    ExitCode::SUCCESS
}
