//! The README's metric catalogue names exactly the series the library
//! emits, run by `cargo test`.
//!
//! Emitted names are the `"hanayo_..."` string literals in the non-test
//! sources of every crate (each `.rs` file under `crates/*/src` above its
//! first column-0 `#[cfg(test)]`, comment lines skipped). Scheme names
//! (`hanayo_w`, `hanayo_w2`, ...) share the prefix and are not metrics.
//! Catalogued names are the backticked `hanayo_...` names in the rows of
//! the README table under `**Metric catalogue.**`. Each set must hold the
//! other: a new series needs a row, and a row needs a series.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

const PREFIX: &str = "hanayo_";

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

/// Every `hanayo_`-prefixed name that follows `open` in `text` and runs
/// until a character that cannot continue a metric name.
fn names_after(text: &str, open: &str) -> Vec<String> {
    let needle = format!("{open}{PREFIX}");
    text.match_indices(&needle)
        .map(|(i, _)| {
            let rest = &text[i + open.len()..];
            let end = rest
                .find(|c: char| !(c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_'))
                .unwrap_or(rest.len());
            rest[..end].to_string()
        })
        .collect()
}

fn is_scheme_name(name: &str) -> bool {
    name.strip_prefix("hanayo_w").is_some_and(|w| w.chars().all(|c| c.is_ascii_digit()))
}

fn emitted(root: &Path) -> BTreeSet<String> {
    let mut files = Vec::new();
    for krate in std::fs::read_dir(root.join("crates")).unwrap() {
        let src = krate.unwrap().path().join("src");
        if src.is_dir() {
            rust_files(&src, &mut files);
        }
    }
    let mut names = BTreeSet::new();
    for file in files {
        let text = std::fs::read_to_string(&file).unwrap();
        for line in text.lines().take_while(|l| !l.starts_with("#[cfg(test)]")) {
            if line.trim_start().starts_with("//") {
                continue;
            }
            names.extend(names_after(line, "\"").into_iter().filter(|n| !is_scheme_name(n)));
        }
    }
    names
}

fn catalogued(root: &Path) -> BTreeSet<String> {
    let readme = std::fs::read_to_string(root.join("README.md")).unwrap();
    let (_, section) =
        readme.split_once("**Metric catalogue.**").expect("README has a metric catalogue");
    section
        .lines()
        .skip_while(|l| !l.starts_with('|'))
        .take_while(|l| l.starts_with('|'))
        .flat_map(|row| names_after(row, "`"))
        .collect()
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
fn names_stop_at_the_first_non_name_character() {
    let line = r#"counter_add("hanayo_a_total", &[]); "hanayo_w2"; `hanayo_b_ns` / `_x`"#;
    assert_eq!(names_after(line, "\""), ["hanayo_a_total", "hanayo_w2"]);
    assert_eq!(names_after(line, "`"), ["hanayo_b_ns"]);
    assert!(is_scheme_name("hanayo_w") && is_scheme_name("hanayo_w16"));
    assert!(!is_scheme_name("hanayo_worker_ops_total"));
}
