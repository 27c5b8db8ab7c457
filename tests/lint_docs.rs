//! Doc drift: the rule IDs in `docs/LINTS.md` match the code, in both
//! directions, and the clippy lints it names are configured.
//!
//! - every live `qcat_lint::Rule` ID has a rule row (a table row whose
//!   first cell is the backticked ID), and every rule row names a live
//!   ID. The live IDs are read from the arms of `Rule::id`, an
//!   exhaustive match, so a new `Rule` variant cannot escape the check;
//! - every row of the "Moved to clippy" table (first cell a bare ID,
//!   a `clippy::` lint in the row) names a rule that is no longer a
//!   `Rule` variant, every `clippy::` lint it names has a level in the
//!   root `Cargo.toml`'s `[workspace.lints.clippy]` table, and every
//!   banned method it names is a `disallowed-methods` path in the
//!   root `clippy.toml`.

use std::collections::BTreeSet;
use std::path::Path;

fn read(rel: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join(rel);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

fn is_rule_id(s: &str) -> bool {
    let mut chars = s.chars();
    matches!(chars.next(), Some('L' | 'A' | 'T'))
        && !chars.as_str().is_empty()
        && chars.all(|c| c.is_ascii_digit())
}

/// The string literals of `Rule::id`'s match arms (`Rule::X => "ID",`).
fn live_ids() -> BTreeSet<String> {
    let diag = read("crates/qcat-lint/src/diag.rs");
    let code = &diag[..diag.find("#[cfg(test)]").unwrap_or(diag.len())];
    let ids: BTreeSet<String> = code
        .lines()
        .map(str::trim)
        .filter(|l| l.starts_with("Rule::"))
        .filter_map(|l| l.split_once("=> \""))
        .map(|(_, rest)| rest.trim_end_matches("\",").to_string())
        .collect();
    assert!(ids.iter().all(|id| is_rule_id(id)), "unexpected rule ids {ids:?}");
    assert!(ids.len() > 10, "Rule::id arms not found in diag.rs: {ids:?}");
    ids
}

/// Markdown table rows of `docs/LINTS.md` whose first cell is a rule
/// ID, as (first cell, whole row).
fn id_rows() -> Vec<(String, String)> {
    read("docs/LINTS.md")
        .lines()
        .filter(|l| l.starts_with("| "))
        .filter_map(|l| {
            let first = l.split('|').nth(1)?.trim();
            is_rule_id(first.trim_matches('`')).then(|| (first.to_string(), l.to_string()))
        })
        .collect()
}

/// The backticked spans of `row` that start with `prefix`.
fn backticked<'a>(row: &'a str, prefix: &'a str) -> impl Iterator<Item = &'a str> + 'a {
    row.split('`').skip(1).step_by(2).filter(move |s| s.starts_with(prefix))
}

#[test]
fn every_live_rule_has_a_row_and_every_row_a_live_rule() {
    let live = live_ids();
    let mut documented = BTreeSet::new();
    for (first, _) in id_rows().iter().filter(|(first, _)| first.starts_with('`')) {
        let id = first.trim_matches('`').to_string();
        assert!(documented.insert(id.clone()), "{id} has two rule rows");
    }
    let undocumented: Vec<_> = live.difference(&documented).collect();
    let stale: Vec<_> = documented.difference(&live).collect();
    assert!(undocumented.is_empty(), "rules with no row in docs/LINTS.md: {undocumented:?}");
    assert!(stale.is_empty(), "docs/LINTS.md rows naming no live rule: {stale:?}");
}

#[test]
fn every_clippy_lint_the_docs_name_is_configured() {
    let live = live_ids();
    let manifest = read("Cargo.toml");
    let table = manifest
        .split("[workspace.lints.clippy]")
        .nth(1)
        .and_then(|rest| rest.split("\n[").next())
        .expect("a [workspace.lints.clippy] table in Cargo.toml");
    let configured: BTreeSet<&str> = table
        .lines()
        .map(str::trim)
        .filter(|l| !l.starts_with('#'))
        .filter_map(|l| l.split_once('='))
        .filter(|(_, level)| level.trim().trim_matches('"') != "allow")
        .map(|(name, _)| name.trim())
        .collect();
    let clippy_toml = read("clippy.toml");
    let moved: Vec<(String, String)> = id_rows()
        .into_iter()
        .filter(|(first, row)| !first.starts_with('`') && row.contains("clippy::"))
        .collect();
    assert!(!moved.is_empty(), "no \"enforced by clippy\" rows in docs/LINTS.md");
    for (id, row) in &moved {
        assert!(!live.contains(id), "{id} is a live Rule and also listed as moved to clippy");
        for lint in backticked(row, "clippy::") {
            let name = lint.trim_start_matches("clippy::");
            assert!(configured.contains(name), "{id}: `{lint}` has no level in Cargo.toml");
        }
        if row.contains("disallowed_methods") {
            for method in backticked(row, "std::") {
                assert!(
                    clippy_toml.contains(&format!("path = \"{method}\"")),
                    "{id}: `{method}` is not a disallowed-methods path in clippy.toml"
                );
            }
        }
    }
}
