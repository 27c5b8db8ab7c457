//! Doc drift: the span, counter, gauge and event names that the
//! workspace crates emit must match the taxonomy in
//! `docs/OBSERVABILITY.md`, in both directions.
//!
//! - every `span!`/`counter`/`gauge`/`event!` name literal in the
//!   non-test, non-comment sources under `crates/*/src` appears in
//!   the document in backticks, spelled out in full;
//! - every name in the document's tables under a prefix the code
//!   emits (`exec.`, `serve.`, `workload.`, ...) is a string literal
//!   in those sources. A row whose meaning starts with `reserved:`
//!   names a telemetry slot no code emits yet, and is exempt.
//!
//! `crates/bench` is left out: it reads recorded counters back by
//! name, it does not emit them.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

const SKIPPED_CRATES: [&str; 1] = ["bench"];
const EMITTERS: [&str; 4] = ["span!(", "counter(", "gauge(", "event!("];
const DOC: &str = "docs/OBSERVABILITY.md";

/// Every `.rs` file under `dir`, recursively, sorted.
fn rust_files(dir: &Path) -> Vec<PathBuf> {
    let mut out = Vec::new();
    for entry in std::fs::read_dir(dir).unwrap_or_else(|e| panic!("{}: {e}", dir.display())) {
        let path = entry.unwrap().path();
        if path.is_dir() {
            out.extend(rust_files(&path));
        } else if path.extension().is_some_and(|x| x == "rs") {
            out.push(path);
        }
    }
    out.sort();
    out
}

/// The non-test source of every `.rs` file under `crates/*/src`: each
/// file up to its `#[cfg(test)] mod` block, without comment lines (doc
/// examples emit nothing).
fn sources() -> Vec<(String, String)> {
    let crates = Path::new(env!("CARGO_MANIFEST_DIR")).join("crates");
    let mut dirs: Vec<PathBuf> = std::fs::read_dir(&crates)
        .unwrap()
        .map(|entry| entry.unwrap().path())
        .filter(|p| !SKIPPED_CRATES.iter().any(|s| p.ends_with(s)))
        .map(|p| p.join("src"))
        .filter(|p| p.is_dir())
        .collect();
    dirs.sort();
    let mut out = Vec::new();
    for path in dirs.iter().flat_map(|d| rust_files(d)) {
        let text = std::fs::read_to_string(&path).unwrap();
        let cut = text.find("#[cfg(test)]\nmod ").unwrap_or(text.len());
        let code: String = text[..cut]
            .lines()
            .filter(|l| !l.trim_start().starts_with("//"))
            .flat_map(|l| [l, "\n"])
            .collect();
        out.push((path.display().to_string(), code));
    }
    out
}

/// The first dotted segment of every emitted name (`serve` for
/// `serve.query`): the prefixes whose documented names are checked.
fn emitted_prefixes(sources: &[(String, String)]) -> BTreeSet<String> {
    sources
        .iter()
        .flat_map(|(_, s)| emitted_names(s))
        .filter_map(|name| name.split_once('.').map(|(p, _)| format!("{p}.")))
        .collect()
}

/// The string literal starting at the first non-blank byte of `s`,
/// if there is one.
fn leading_literal(s: &str) -> Option<&str> {
    let rest = s.trim_start().strip_prefix('"')?;
    rest.find('"').map(|end| &rest[..end])
}

/// Name literals passed to a telemetry emitter.
fn emitted_names(source: &str) -> BTreeSet<String> {
    let mut names = BTreeSet::new();
    for emitter in EMITTERS {
        for (at, _) in source.match_indices(emitter) {
            if let Some(name) = leading_literal(&source[at + emitter.len()..]) {
                names.insert(name.to_string());
            }
        }
    }
    names
}

/// Every name under one of `prefixes` in the table rows of `text`,
/// skipping rows marked reserved.
fn documented_names(text: &str, prefixes: &BTreeSet<String>) -> BTreeSet<String> {
    let mut names = BTreeSet::new();
    let rows = text
        .lines()
        .filter(|l| l.starts_with('|') && !l.contains("| reserved:"));
    for line in rows {
        let bytes = line.as_bytes();
        for prefix in prefixes {
            for (at, _) in line.match_indices(prefix) {
                let joined = at > 0
                    && (bytes[at - 1].is_ascii_alphanumeric() || b"_./-".contains(&bytes[at - 1]));
                if joined {
                    continue;
                }
                let in_name =
                    |c: char| c.is_ascii_lowercase() || c.is_ascii_digit() || "_.".contains(c);
                let len = line[at..].find(|c| !in_name(c)).unwrap_or(line.len() - at);
                names.insert(line[at..at + len].trim_end_matches('.').to_string());
            }
        }
    }
    names
}

fn doc() -> String {
    std::fs::read_to_string(Path::new(env!("CARGO_MANIFEST_DIR")).join(DOC)).unwrap()
}

#[test]
fn emitted_names_are_documented() {
    let doc = doc();
    let mut missing = Vec::new();
    for (path, source) in sources() {
        for name in emitted_names(&source) {
            if !doc.contains(&format!("`{name}`")) {
                missing.push(format!("{name} ({path})"));
            }
        }
    }
    assert!(
        missing.is_empty(),
        "names emitted but not in {DOC}: {missing:#?}"
    );
}

#[test]
fn documented_names_are_emitted() {
    let sources = sources();
    let prefixes = emitted_prefixes(&sources);
    for expected in ["exec.", "serve.", "workload.", "data.", "fault.", "repro."] {
        assert!(prefixes.contains(expected), "{expected} not emitted: {prefixes:?}");
    }
    let code: String = sources.into_iter().map(|(_, s)| s).collect();
    let stale: Vec<String> = documented_names(&doc(), &prefixes)
        .into_iter()
        .filter(|name| !code.contains(&format!("\"{name}\"")))
        .collect();
    assert!(
        stale.is_empty(),
        "{DOC} lists names no code emits: {stale:#?}"
    );
}

#[test]
fn name_extraction_sees_multiline_calls_and_slash_forms() {
    let src = "qcat_obs::counter(\n    \"a.b\",\n    1);\nspan!(\"c.d\", x = 1);\nevent!(name);";
    let names: Vec<String> = emitted_names(src).into_iter().collect();
    assert_eq!(names, ["a.b", "c.d"]);
    let doc = "| `serve.cache.hit/miss` | counter |\n| `serve.x` | event | reserved: later |";
    let prefixes = BTreeSet::from(["serve.".to_string()]);
    let names: Vec<String> = documented_names(doc, &prefixes).into_iter().collect();
    assert_eq!(
        names,
        ["serve.cache.hit"],
        "slash forms name their first half only"
    );
}
