//! The repo's panic-freedom gate for library code, run by `cargo test`.
//!
//! Scans the non-test sources of every library crate (everything except
//! `hanayo-repro`, the figures and the command line) for the panicking
//! idioms: `.unwrap()`, `.expect(`, `panic!`, `assert!(`, `assert_eq!(`
//! and `assert_ne!(` (`debug_assert*` is compiled out of release builds
//! and not counted). Lines inside `#[cfg(test)]` modules and comment
//! lines are excluded.
//!
//! The committed baseline (`lint-baseline.txt` at the repo root) freezes
//! the per-file hit counts that remain after the burn-down; any *new* hit
//! fails the gate, and a removed hit fails it too, with a message to
//! regenerate — so the baseline can only shrink deliberately:
//!
//! ```text
//! cargo test -p hanayo-repro --test panic_lint                  # gate
//! LINT_UPDATE=1 cargo test -p hanayo-repro --test panic_lint    # rewrite baseline
//! ```
//!
//! The same walk, widened to the vendored shims (`shims/*/src`), also
//! holds the library code to one output channel: outside the log facade
//! (`crates/metrics/src/log.rs`) it never prints or takes a handle on
//! stdout or stderr.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};

/// Crates whose library sources the gate covers, relative to the repo
/// root. Benches, shims and `hanayo-repro` are out of scope: a panic
/// there aborts a developer tool, not a tuning or training run.
const SCOPES: [&str; 12] = [
    "crates/analyze/src",
    "crates/ckpt/src",
    "crates/cluster/src",
    "crates/core/src",
    "crates/metrics/src",
    "crates/model/src",
    "crates/runtime/src",
    "crates/serve/src",
    "crates/sim/src",
    "crates/tensor/src",
    "crates/trace/src",
    "src",
];

/// The panicking idioms the gate counts. `unwrap_or*` combinators do not
/// match `.unwrap()` and are fine.
const PATTERNS: [&str; 6] =
    [".unwrap()", ".expect(", "panic!", "assert!(", "assert_eq!(", "assert_ne!("];

/// Direct writes to the process's standard streams. A library crate
/// reports through return values, metrics and the log facade instead.
const PRINT_PATTERNS: [&str; 6] =
    ["print!(", "println!(", "eprint!(", "eprintln!(", "stdout()", "stderr()"];

/// The one library file allowed to write to stderr: the log facade's sink.
const LOG_FACADE: &str = "crates/metrics/src/log.rs";

/// Occurrences of `pattern` in `line`. A pattern that starts with an
/// identifier character must not continue a longer name (`debug_assert!(`
/// is compiled out of release builds). `.unwrap()` and `.expect(` follow
/// an identifier by design.
fn count_pattern(line: &str, pattern: &str) -> usize {
    let is_ident = |c: char| c.is_alphanumeric() || c == '_';
    if !pattern.starts_with(is_ident) {
        return line.matches(pattern).count();
    }
    line.match_indices(pattern)
        .filter(|&(i, _)| !line[..i].chars().next_back().is_some_and(is_ident))
        .count()
}

fn repo_root() -> PathBuf {
    // CARGO_MANIFEST_DIR is crates/repro; the repo root is two levels up.
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).parent().unwrap().parent().unwrap().to_path_buf()
}

fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let path = entry?.path();
        if path.is_dir() {
            rust_files(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Count `patterns` in one file, skipping comment lines and
/// `#[cfg(test)]` modules (tracked by brace depth from the `mod` line).
fn count_hits(text: &str, patterns: &[&str]) -> usize {
    let mut hits = 0usize;
    let mut in_test_mod = false;
    let mut test_depth = 0i64;
    let mut pending_cfg_test = false;
    for line in text.lines() {
        let trimmed = line.trim_start();
        if trimmed.starts_with("//") {
            continue;
        }
        if in_test_mod {
            test_depth += line.matches('{').count() as i64;
            test_depth -= line.matches('}').count() as i64;
            if test_depth <= 0 {
                in_test_mod = false;
            }
            continue;
        }
        if trimmed.starts_with("#[cfg(test)]") {
            pending_cfg_test = true;
            continue;
        }
        if pending_cfg_test {
            pending_cfg_test = false;
            if trimmed.starts_with("mod ") || trimmed.starts_with("pub mod ") {
                test_depth = line.matches('{').count() as i64 - line.matches('}').count() as i64;
                in_test_mod = test_depth > 0;
                continue;
            }
        }
        hits += patterns.iter().map(|p| count_pattern(line, p)).sum::<usize>();
    }
    hits
}

/// Scan every file under `scopes` for `patterns` and return `relative
/// path -> hit count`, omitting clean files so the baseline only lists
/// offenders.
fn scan(
    root: &Path,
    scopes: &[&str],
    patterns: &[&str],
) -> Result<BTreeMap<String, usize>, String> {
    let mut counts = BTreeMap::new();
    for &scope in scopes {
        let dir = root.join(scope);
        let mut files = Vec::new();
        rust_files(&dir, &mut files).map_err(|e| format!("walking {scope}: {e}"))?;
        for file in files {
            let text = std::fs::read_to_string(&file)
                .map_err(|e| format!("reading {}: {e}", file.display()))?;
            let hits = count_hits(&text, patterns);
            if hits > 0 {
                let rel = file
                    .strip_prefix(root)
                    .map_err(|e| format!("{}: {e}", file.display()))?
                    .to_string_lossy()
                    .replace('\\', "/");
                counts.insert(rel, hits);
            }
        }
    }
    Ok(counts)
}

fn render(counts: &BTreeMap<String, usize>) -> String {
    let total: usize = counts.values().sum();
    let mut out = String::new();
    writeln!(out, "# Panic-freedom baseline for the workspace's library crates.").unwrap();
    writeln!(
        out,
        "# Counts `.unwrap()` / `.expect(` / `panic!` / `assert!(` / `assert_eq!(` / \
         `assert_ne!(` outside tests and comments."
    )
    .unwrap();
    writeln!(out, "# Regenerate with: LINT_UPDATE=1 cargo test -p hanayo-repro --test panic_lint")
        .unwrap();
    writeln!(out, "# total {total}").unwrap();
    for (path, hits) in counts {
        writeln!(out, "{hits:4} {path}").unwrap();
    }
    out
}

fn parse_baseline(text: &str) -> Result<BTreeMap<String, usize>, String> {
    let mut counts = BTreeMap::new();
    for line in text.lines() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let (hits, path) =
            line.split_once(' ').ok_or_else(|| format!("malformed baseline line: {line}"))?;
        let hits = hits.trim().parse().map_err(|e| format!("baseline line {line:?}: {e}"))?;
        counts.insert(path.trim().to_string(), hits);
    }
    Ok(counts)
}

fn gate() -> Result<(), String> {
    let root = repo_root();
    let counts = scan(&root, &SCOPES, &PATTERNS)?;
    let baseline_path = root.join("lint-baseline.txt");

    if std::env::var_os("LINT_UPDATE").is_some() {
        std::fs::write(&baseline_path, render(&counts))
            .map_err(|e| format!("writing {}: {e}", baseline_path.display()))?;
        println!(
            "baseline rewritten: {} hits across {} files",
            counts.values().sum::<usize>(),
            counts.len()
        );
        return Ok(());
    }

    let baseline_text = std::fs::read_to_string(&baseline_path).map_err(|e| {
        format!(
            "missing baseline {} ({e}); generate with LINT_UPDATE=1 cargo test -p \
             hanayo-repro --test panic_lint",
            baseline_path.display()
        )
    })?;
    let baseline = parse_baseline(&baseline_text)?;

    let mut problems = Vec::new();
    for (path, &hits) in &counts {
        match baseline.get(path) {
            None => problems
                .push(format!("{path}: {hits} new panicking call(s) in a previously clean file")),
            Some(&base) if hits > base => {
                problems.push(format!("{path}: {hits} panicking call(s), baseline allows {base}"))
            }
            Some(&base) if hits < base => problems.push(format!(
                "{path}: {hits} panicking call(s), baseline records {base} — burn-down! \
                 regenerate the baseline to lock in the improvement"
            )),
            Some(_) => {}
        }
    }
    for path in baseline.keys() {
        if !counts.contains_key(path) {
            problems.push(format!(
                "{path}: baseline lists it but it is now clean (or gone) — regenerate \
                 the baseline to lock in the improvement"
            ));
        }
    }
    if !problems.is_empty() {
        return Err(format!("panic-freedom gate failed:\n  {}", problems.join("\n  ")));
    }
    println!(
        "ok: {} panicking call(s) across {} files, all within the committed baseline",
        counts.values().sum::<usize>(),
        counts.len()
    );
    Ok(())
}

#[test]
fn counts_every_panicking_idiom_but_not_debug_asserts() {
    let counted = "a.unwrap();\nb.expect(\"x\");\nself.c.d.unwrap();\n\
                   panic!(\"e\");\nassert!(f);\nassert_eq!(g, h);\nassert_ne!(i, j);";
    assert_eq!(count_hits(counted, &PATTERNS), 7);
    let skipped = "debug_assert!(f);\ndebug_assert_eq!(g, h);\ndebug_assert_ne!(i, j);\n\
                   a.unwrap_or(0);\nb.unwrap_or_default();\n// c.unwrap();";
    assert_eq!(count_hits(skipped, &PATTERNS), 0);
}

#[test]
fn library_code_stays_within_the_panic_baseline() {
    if let Err(msg) = gate() {
        panic!("{msg}");
    }
}

#[test]
fn library_crates_print_only_through_the_log_facade() {
    let printing = "print!(\"a\");\nprintln!(\"b\");\neprint!(\"c\");\neprintln!(\"d\");\n\
                    let out = std::io::stdout().lock();\nlet err = io::stderr();";
    assert_eq!(count_hits(printing, &PRINT_PATTERNS), 6);
    assert_eq!(count_hits("// eprintln!(\"x\");\nlet s = format!(\"y\");", &PRINT_PATTERNS), 0);

    let root = repo_root();
    let shims: Vec<String> = std::fs::read_dir(root.join("shims"))
        .unwrap()
        .map(|shim| format!("shims/{}/src", shim.unwrap().file_name().to_string_lossy()))
        .collect();
    let scopes: Vec<&str> = SCOPES.into_iter().chain(shims.iter().map(String::as_str)).collect();
    assert!(scopes.contains(&"shims/rayon/src"), "the print gate covers the shims: {scopes:?}");
    let mut counts = scan(&root, &scopes, &PRINT_PATTERNS).unwrap_or_else(|e| panic!("{e}"));
    counts.remove(LOG_FACADE);
    assert!(
        counts.is_empty(),
        "library code writes to stdout/stderr outside {LOG_FACADE} (path -> sites): {counts:?}"
    );
}
