//! The README's metric catalogue names exactly the series the library
//! emits, its structured-logging paragraph exactly the `HANAYO_LOG`
//! targets the library logs under, and its text exactly the `HANAYO_*`
//! environment variables the code reads; run by `cargo test`.
//!
//! All three read the non-test sources of every crate and shim: each
//! `.rs` file under `crates/*/src` and `shims/*/src` above its first
//! column-0 `#[cfg(test)]`, comment lines skipped.
//!
//! Emitted names are the `"hanayo_..."` string literals there. Scheme
//! names (`hanayo_w`, `hanayo_w2`, ...) share the prefix and are not
//! metrics. Catalogued names are the backticked `hanayo_...` names in the
//! rows of the README table under `**Metric catalogue.**`.
//!
//! Logged targets are the target literals of the `log::event(` and
//! `log_enabled(` calls there. Listed targets are the backticked names in
//! the README sentence that begins `The code logs under exactly the
//! targets`.
//!
//! Read variables are the `HANAYO_...` literals passed to `env::var(`.
//! Documented variables are the backticked `HANAYO_...` names anywhere in
//! the README.
//!
//! Each set must hold the other: a new series, target or variable needs a
//! README entry, and an entry needs a series, target or variable.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

const PREFIX: &str = "hanayo_";

const ENV_PREFIX: &str = "HANAYO_";

fn repo_root() -> PathBuf {
    // CARGO_MANIFEST_DIR is crates/repro; the repo root is two levels up.
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).parent().unwrap().parent().unwrap().to_path_buf()
}

fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in std::fs::read_dir(dir).unwrap() {
        let path = entry.unwrap().path();
        if path.is_dir() {
            rust_files(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// Every `prefix`-led name that follows `open` in `text` and runs until a
/// character that cannot continue a metric or variable name.
fn names_after(text: &str, open: &str, prefix: &str) -> Vec<String> {
    let needle = format!("{open}{prefix}");
    text.match_indices(&needle)
        .map(|(i, _)| {
            let rest = &text[i + open.len()..];
            let end =
                rest.find(|c: char| !(c.is_ascii_alphanumeric() || c == '_')).unwrap_or(rest.len());
            rest[..end].to_string()
        })
        .collect()
}

fn is_scheme_name(name: &str) -> bool {
    name.strip_prefix("hanayo_w").is_some_and(|w| w.chars().all(|c| c.is_ascii_digit()))
}

/// The non-test, non-comment lines of every crate's and shim's sources,
/// one string per file.
fn sources(root: &Path) -> Vec<String> {
    let mut files = Vec::new();
    for dir in ["crates", "shims"] {
        for krate in std::fs::read_dir(root.join(dir)).unwrap() {
            let src = krate.unwrap().path().join("src");
            if src.is_dir() {
                rust_files(&src, &mut files);
            }
        }
    }
    files
        .iter()
        .map(|file| {
            let text = std::fs::read_to_string(file).unwrap();
            let lines = text.lines().take_while(|l| !l.starts_with("#[cfg(test)]"));
            lines.filter(|l| !l.trim_start().starts_with("//")).collect::<Vec<_>>().join("\n")
        })
        .collect()
}

fn emitted(root: &Path) -> BTreeSet<String> {
    let mut names = BTreeSet::new();
    for text in sources(root) {
        names.extend(names_after(&text, "\"", PREFIX).into_iter().filter(|n| !is_scheme_name(n)));
    }
    names
}

/// The target of every `log::event(` / `log_enabled(` call in `text`: its
/// second argument, which must be a string literal (the first is the
/// level). The facade's own definition and forwarding, whose first
/// argument is its `level` parameter, are skipped.
fn log_targets_in(text: &str) -> Vec<String> {
    ["log::event(", "log_enabled("]
        .iter()
        .flat_map(|call| text.match_indices(call).map(move |(i, _)| &text[i + call.len()..]))
        .filter(|args| !args.starts_with("level"))
        .map(|args| {
            let (_, rest) = args.split_once(',').expect("a log call has a target argument");
            let literal = rest.trim_start().strip_prefix('"').unwrap_or_else(|| {
                panic!("a log target must be a string literal: {}", &rest[..rest.len().min(40)])
            });
            literal[..literal.find('"').unwrap()].to_string()
        })
        .collect()
}

fn logged(root: &Path) -> BTreeSet<String> {
    sources(root).iter().flat_map(|text| log_targets_in(text)).collect()
}

fn listed_targets(root: &Path) -> BTreeSet<String> {
    let readme = std::fs::read_to_string(root.join("README.md")).unwrap();
    let readme = readme.split_whitespace().collect::<Vec<_>>().join(" ");
    let (_, rest) = readme
        .split_once("The code logs under exactly the targets")
        .expect("README lists the HANAYO_LOG targets");
    let sentence = &rest[..rest.find('.').unwrap_or(rest.len())];
    sentence.split('`').skip(1).step_by(2).map(str::to_string).collect()
}

fn catalogued(root: &Path) -> BTreeSet<String> {
    let readme = std::fs::read_to_string(root.join("README.md")).unwrap();
    let (_, section) =
        readme.split_once("**Metric catalogue.**").expect("README has a metric catalogue");
    section
        .lines()
        .skip_while(|l| !l.starts_with('|'))
        .take_while(|l| l.starts_with('|'))
        .flat_map(|row| names_after(row, "`", PREFIX))
        .collect()
}

fn env_read(root: &Path) -> BTreeSet<String> {
    sources(root).iter().flat_map(|text| names_after(text, "env::var(\"", ENV_PREFIX)).collect()
}

fn env_documented(root: &Path) -> BTreeSet<String> {
    let readme = std::fs::read_to_string(root.join("README.md")).unwrap();
    names_after(&readme, "`", ENV_PREFIX).into_iter().collect()
}

#[test]
fn readme_catalogue_equals_the_emitted_series() {
    let root = repo_root();
    let emitted = emitted(&root);
    let catalogued = catalogued(&root);
    let missing: Vec<_> = emitted.difference(&catalogued).collect();
    let stale: Vec<_> = catalogued.difference(&emitted).collect();
    assert!(
        missing.is_empty() && stale.is_empty(),
        "README metric catalogue out of step with the code:\n  emitted but not catalogued: \
         {missing:?}\n  catalogued but never emitted: {stale:?}"
    );
    assert!(!catalogued.is_empty(), "no rows parsed from the README catalogue");
}

#[test]
fn readme_log_targets_equal_the_logged_targets() {
    let root = repo_root();
    let logged = logged(&root);
    let listed = listed_targets(&root);
    let missing: Vec<_> = logged.difference(&listed).collect();
    let stale: Vec<_> = listed.difference(&logged).collect();
    assert!(
        missing.is_empty() && stale.is_empty(),
        "README HANAYO_LOG targets out of step with the code:\n  logged but not listed: \
         {missing:?}\n  listed but never logged: {stale:?}"
    );
    assert!(!logged.is_empty(), "no log call found in the sources");
}

#[test]
fn readme_env_vars_equal_the_read_env_vars() {
    let root = repo_root();
    let read = env_read(&root);
    let documented = env_documented(&root);
    let missing: Vec<_> = read.difference(&documented).collect();
    let stale: Vec<_> = documented.difference(&read).collect();
    assert!(
        missing.is_empty() && stale.is_empty(),
        "README HANAYO_* variables out of step with the code:\n  read but not documented: \
         {missing:?}\n  documented but never read: {stale:?}"
    );
    assert!(!read.is_empty(), "no env::var(\"HANAYO_...\") read found in the sources");
}

#[test]
fn a_log_target_is_the_literal_after_the_level() {
    let text = "if log::log_enabled(Level::Info, \"calibrate\") {\n    log::event(\n        \
                Level::Warn,\n        \"metrics\",\n        \"msg\",\n    );\n}\n\
                pub fn log_enabled(level: Level, target: &str) -> bool {\n\
                if !log_enabled(level, target) {";
    assert_eq!(log_targets_in(text), ["metrics", "calibrate"]);
}

#[test]
fn names_stop_at_the_first_non_name_character() {
    let line = r#"counter_add("hanayo_a_total", &[]); "hanayo_w2"; `hanayo_b_ns` / `_x`"#;
    assert_eq!(names_after(line, "\"", PREFIX), ["hanayo_a_total", "hanayo_w2"]);
    assert_eq!(names_after(line, "`", PREFIX), ["hanayo_b_ns"]);
    let env = r#"std::env::var("HANAYO_LOG").ok(); `HANAYO_THREADS=1` `HANAYO_LOG_FORMAT`"#;
    assert_eq!(names_after(env, "env::var(\"", ENV_PREFIX), ["HANAYO_LOG"]);
    assert_eq!(names_after(env, "`", ENV_PREFIX), ["HANAYO_THREADS", "HANAYO_LOG_FORMAT"]);
    assert!(is_scheme_name("hanayo_w") && is_scheme_name("hanayo_w16"));
    assert!(!is_scheme_name("hanayo_worker_ops_total"));
}
