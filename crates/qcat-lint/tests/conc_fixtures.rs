//! Engine 2 liveness gate: every semantic rule must fire on its
//! seeded fixture under `tests/fixtures/` and stay silent on the
//! fixture's clean twin.
//!
//! The fixtures are realistic source files (modeled on the PR 4
//! double-LRU serve-cache deadlock) that are analyzed, never
//! compiled. A rule that silently stops firing — a lexer regression,
//! a resolution change that severs the call graph, a scope-tracking
//! bug — fails here long before it fails to catch a real bug.

use qcat_lint::{analyze_sources, Diagnostic, SourceFile};

fn analyze(name: &str, krate: &str) -> (String, Vec<Diagnostic>) {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name);
    let text = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("fixture {name}: {e}"));
    let diags = analyze_sources(&[SourceFile {
        path: name.to_string(),
        krate: krate.to_string(),
        text: text.clone(),
    }]);
    (text, diags)
}

/// Analyze the `bench_laundered.rs` library fixture together with its
/// caller `bench_caller.rs`, placed at `caller_path` in `caller_crate`.
fn analyze_with_caller(caller_path: &str, caller_crate: &str) -> (String, Vec<Diagnostic>) {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures");
    let read = |name: &str| {
        std::fs::read_to_string(dir.join(name)).unwrap_or_else(|e| panic!("fixture {name}: {e}"))
    };
    let lib = read("bench_laundered.rs");
    let diags = analyze_sources(&[
        SourceFile {
            path: "crates/qcat-serve/src/bench_laundered.rs".to_string(),
            krate: "qcat-serve".to_string(),
            text: lib.clone(),
        },
        SourceFile {
            path: caller_path.to_string(),
            krate: caller_crate.to_string(),
            text: read("bench_caller.rs"),
        },
    ]);
    (lib, diags)
}

/// 1-based line of the unique occurrence of `needle` in `text`.
fn line_of(text: &str, needle: &str) -> usize {
    let pos = text.find(needle).unwrap_or_else(|| panic!("fixture lost `{needle}`"));
    assert_eq!(
        text[pos + 1..].find(needle),
        None,
        "`{needle}` must be unique in the fixture"
    );
    text[..pos].matches('\n').count() + 1
}

#[test]
fn l8_fires_on_the_serve_cache_inversion_and_names_both_sites() {
    let (text, diags) = analyze("serve_cache_inversion.rs", "fix-serve");
    let ids: Vec<&str> = diags.iter().map(|d| d.rule.id()).collect();
    assert_eq!(ids, vec!["L8"], "{diags:?}");
    let msg = &diags[0].message;
    assert!(
        msg.contains("fix-serve::results") && msg.contains("fix-serve::trees"),
        "cycle must name both locks: {msg}"
    );
    // Both conflicting acquisition sites must be cited, so whoever
    // reads the diagnostic can fix either side of the inversion.
    let serve_acq = line_of(&text, "let trees = self.lock_trees();");
    let evict_acq = line_of(&text, "let mut results = self.lock_results();");
    assert!(
        msg.contains(&format!("serve_cache_inversion.rs:{serve_acq}")),
        "must cite the serve-path acquisition (line {serve_acq}): {msg}"
    );
    assert!(
        msg.contains(&format!("serve_cache_inversion.rs:{evict_acq}")),
        "must cite the evict-path acquisition (line {evict_acq}): {msg}"
    );
}

#[test]
fn l8_stays_silent_when_guards_release_before_reacquire() {
    let (_, diags) = analyze("serve_cache_release.rs", "fix-serve");
    assert_eq!(diags, vec![], "clean twin must not fire: {diags:?}");
}

#[test]
fn l8_fires_on_the_single_flight_scrutinee_relock() {
    let (text, diags) = analyze("single_flight_relock.rs", "fix-serve");
    let ids: Vec<&str> = diags.iter().map(|d| d.rule.id()).collect();
    assert_eq!(ids, vec!["L8"], "{diags:?}");
    let msg = &diags[0].message;
    assert!(msg.contains("self-deadlock"), "{msg}");
    // Both sites: the message cites the scrutinee acquisition, the
    // diagnostic itself anchors on the re-acquisition in the arm.
    let first = line_of(&text, "match self.lock_fills()");
    assert!(
        msg.contains(&format!("single_flight_relock.rs:{first}")),
        "must cite the scrutinee acquisition (line {first}): {msg}"
    );
    let second = line_of(&text, "let mut fills = self.lock_fills();");
    assert_eq!(diags[0].line, second, "must anchor on the re-acquisition: {diags:?}");
}

#[test]
fn l9_fires_on_the_unpolled_loop_but_not_its_polled_twin() {
    let (_, diags) = analyze("checkpoint_gap.rs", "qcat-exec");
    let ids: Vec<&str> = diags.iter().map(|d| d.rule.id()).collect();
    assert_eq!(ids, vec!["L9"], "{diags:?}");
    let msg = &diags[0].message;
    assert!(msg.contains("`sum_rows`"), "{msg}");
    assert!(!msg.contains("sum_rows_polled"), "{msg}");
}

#[test]
fn l9_fires_on_an_unpolled_walk_of_a_category_slice() {
    let (text, diags) = analyze("tuples_gap.rs", "qcat-core");
    let ids: Vec<&str> = diags.iter().map(|d| d.rule.id()).collect();
    assert_eq!(ids, vec!["L9"], "{diags:?}");
    let msg = &diags[0].message;
    assert!(msg.contains("`count_matches`"), "{msg}");
    assert!(!msg.contains("count_matches_polled"), "{msg}");
    let unpolled = text.find("fn count_matches(").expect("fixture lost the seeded fn");
    let loop_line = text[..unpolled].matches('\n').count()
        + 1
        + text[unpolled..]
            .lines()
            .position(|l| l.contains("for &row in tree.tuples(id)"))
            .expect("fixture lost the seeded loop");
    assert_eq!(diags[0].line, loop_line, "{diags:?}");
}

#[test]
fn l10_fires_on_the_blind_alloc_but_not_its_charged_twin() {
    let (text, diags) = analyze("budget_blind.rs", "qcat-serve");
    let ids: Vec<&str> = diags.iter().map(|d| d.rule.id()).collect();
    assert_eq!(ids, vec!["L10"], "{diags:?}");
    let blind = line_of(&text, "/// BUG (seeded): a budget-blind allocation.");
    assert_eq!(
        diags[0].line,
        blind + 2,
        "must flag the allocation inside `build`: {diags:?}"
    );
}

#[test]
fn l10_ignores_heap_accounting_in_benchmarks_and_binaries() {
    for (path, krate) in [
        ("crates/bench/src/bin/bench_probe.rs", "qcat-bench"),
        ("crates/bench/src/lib.rs", "qcat-bench"),
        ("crates/qcat-study/src/bin/probe.rs", "qcat-study"),
        ("crates/qcat-lint/src/main.rs", "qcat-lint"),
        ("examples/probe.rs", "qcat"),
    ] {
        let (text, diags) = analyze_with_caller(path, krate);
        let ids: Vec<&str> = diags.iter().map(|d| d.rule.id()).collect();
        assert_eq!(ids, vec!["L10"], "caller at {path}: {diags:?}");
        let seeded = line_of(&text, "/// BUG (seeded): the benchmark's accounting is laundered");
        assert_eq!(diags[0].line, seeded + 2, "must flag `probe_keys`: {diags:?}");
        assert!(diags[0].message.contains("`probe_keys`"), "{}", diags[0].message);
    }
    // The same caller in library code does account for its callee.
    let (_, diags) = analyze_with_caller("crates/qcat-study/src/probe.rs", "qcat-study");
    assert_eq!(diags, vec![], "a library caller's accounting counts: {diags:?}");
}
