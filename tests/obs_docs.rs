//! Doc drift: the span, counter, gauge and event names that the
//! execution and serving layers emit must match the taxonomy in
//! `docs/OBSERVABILITY.md`, in both directions.
//!
//! - every `span!`/`counter`/`gauge`/`event!` name literal in the
//!   non-test sources of `qcat-exec` and `qcat-serve` appears in the
//!   document in backticks, spelled out in full;
//! - every `exec.*`/`serve.*` name in the document's tables is a
//!   string literal in those sources. A row whose meaning starts with
//!   `reserved:` names a telemetry slot no code emits yet, and is
//!   exempt.

use std::collections::BTreeSet;
use std::path::Path;

const CRATES: [&str; 2] = ["crates/qcat-exec/src", "crates/qcat-serve/src"];
const EMITTERS: [&str; 4] = ["span!(", "counter(", "gauge(", "event!("];
const DOC: &str = "docs/OBSERVABILITY.md";

/// The non-test source of every `.rs` file of both crates: each file
/// up to its `#[cfg(test)] mod` block.
fn sources() -> Vec<(String, String)> {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut out = Vec::new();
    for dir in CRATES {
        let mut paths: Vec<_> = std::fs::read_dir(root.join(dir))
            .unwrap_or_else(|e| panic!("{dir}: {e}"))
            .map(|entry| entry.unwrap().path())
            .filter(|p| p.extension().is_some_and(|x| x == "rs"))
            .collect();
        paths.sort();
        for path in paths {
            let text = std::fs::read_to_string(&path).unwrap();
            let cut = text.find("#[cfg(test)]\nmod ").unwrap_or(text.len());
            out.push((path.display().to_string(), text[..cut].to_string()));
        }
    }
    out
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

/// Every `exec.*` / `serve.*` name in the table rows of `text`,
/// skipping rows marked reserved.
fn documented_names(text: &str) -> BTreeSet<String> {
    let mut names = BTreeSet::new();
    let rows = text
        .lines()
        .filter(|l| l.starts_with('|') && !l.contains("| reserved:"));
    for line in rows {
        let bytes = line.as_bytes();
        for prefix in ["exec.", "serve."] {
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
    let code: String = sources().into_iter().map(|(_, s)| s).collect();
    let stale: Vec<String> = documented_names(&doc())
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
    let names: Vec<String> = documented_names(doc).into_iter().collect();
    assert_eq!(
        names,
        ["serve.cache.hit"],
        "slash forms name their first half only"
    );
}
