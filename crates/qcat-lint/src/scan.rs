//! Engine 1: per-file rules L1, L2, L5, L6, L7 over the lexer's
//! token stream.
//!
//! The preprocessing pass reconstructs each line from the real
//! tokens ([`crate::lexer`]): comments disappear, and string/char
//! literal contents are blanked (their tokens carry empty text), so
//! the rule passes work on clean text where substring searches
//! cannot be fooled by `"panic!"` inside a string, an `unwrap()` in
//! a comment, a raw string `r#"…"#`, or a nested `/* /* */ */`. A
//! second pass masks `#[cfg(test)]` / `#[test]` regions by brace
//! matching.

use crate::diag::{Diagnostic, Rule};
use crate::lexer::{lex, Lexed};

/// Which rule families to run on a file. The workspace driver sets
/// these per crate/file; tests set them directly.
#[derive(Debug, Clone, Copy, Default)]
pub struct ScanOptions {
    /// L1: flag `unwrap()`/`expect()`/`panic!` outside test code.
    pub check_panics: bool,
    /// L2: flag `partial_cmp().unwrap()` anywhere in the file and
    /// float `==`/`!=` (this half only fires when
    /// [`ScanOptions::float_eq_sensitive`] is also set).
    pub check_float_cmp: bool,
    /// L2 (second half): the file is cost/order/rank/partition code,
    /// where float `==`/`!=` is banned outright.
    pub float_eq_sensitive: bool,
    /// L5: flag raw console output (`println!`, `eprintln!`,
    /// `print!`, `eprint!`, `dbg!`) outside test code.
    pub check_prints: bool,
    /// L6: flag raw `std::thread` spawning (`thread::spawn`,
    /// `thread::scope`, `thread::Builder`) outside test code.
    pub check_spawns: bool,
    /// L7: flag `.lock().unwrap()` / `.lock().expect(` outside test
    /// code — poison must be recovered, not re-panicked.
    pub check_locks: bool,
}

/// Source text after comment/literal blanking, with per-line facts
/// the rule passes need.
#[derive(Debug)]
pub struct CleanSource {
    /// The code with comments and literal contents replaced by
    /// spaces; same line count and column positions as the input.
    pub lines: Vec<String>,
    /// Line lies inside a `#[cfg(test)]` item or `#[test]` function.
    pub test_line: Vec<bool>,
}

impl CleanSource {
    /// Preprocess `source`.
    pub fn parse(source: &str) -> CleanSource {
        Self::from_lexed(source, &lex(source))
    }

    /// Preprocess from an existing lex of the same `source` (the
    /// workspace driver lexes once and shares the stream with the
    /// Engine 2 symbol table).
    pub fn from_lexed(source: &str, lexed: &Lexed) -> CleanSource {
        // Rebuild each line as spaces, then place every token's text
        // back at its original byte column. Comments produce no
        // tokens and literal tokens carry empty text, so both end up
        // blank while code keeps its exact positions.
        let mut lines: Vec<Vec<u8>> = source
            .split('\n')
            .map(|l| vec![b' '; l.len()])
            .collect();
        for t in &lexed.tokens {
            if t.text.is_empty() {
                continue;
            }
            let Some(line) = lines.get_mut(t.line - 1) else {
                continue;
            };
            for (k, &byte) in t.text.as_bytes().iter().enumerate() {
                if let Some(slot) = line.get_mut(t.col + k) {
                    *slot = byte;
                }
            }
        }
        let lines: Vec<String> = lines
            .into_iter()
            .map(|v| String::from_utf8_lossy(&v).into_owned())
            .collect();
        let test_line = mark_test_regions(&lines);
        CleanSource { lines, test_line }
    }
}

/// Mark lines inside `#[cfg(test)]`-gated items and `#[test]`
/// functions by brace matching from the attribute.
fn mark_test_regions(lines: &[String]) -> Vec<bool> {
    let mut test = vec![false; lines.len()];
    let mut idx = 0;
    while idx < lines.len() {
        let t = lines[idx].trim_start();
        let is_test_attr = t.starts_with("#[cfg(test)]")
            || t.starts_with("#[cfg(all(test")
            || t.starts_with("#[cfg(any(test")
            || t.starts_with("#[test]");
        if !is_test_attr {
            idx += 1;
            continue;
        }
        // Mark from the attribute through the end of the item it
        // gates: the first `{` onward until braces balance, or a `;`
        // before any `{` (e.g. `mod tests;`).
        let start = idx;
        let mut depth = 0i32;
        let mut opened = false;
        let mut end = lines.len() - 1;
        'item: for (j, line) in lines.iter().enumerate().skip(start) {
            for c in line.chars() {
                match c {
                    '{' => {
                        opened = true;
                        depth += 1;
                    }
                    '}' => {
                        depth -= 1;
                        if opened && depth == 0 {
                            end = j;
                            break 'item;
                        }
                    }
                    ';' if !opened => {
                        end = j;
                        break 'item;
                    }
                    _ => {}
                }
            }
        }
        for flag in test.iter_mut().take(end + 1).skip(start) {
            *flag = true;
        }
        idx = end + 1;
    }
    test
}

/// Run the enabled rule passes over one file.
pub fn lint_source(path: &str, source: &str, opts: ScanOptions) -> Vec<Diagnostic> {
    lint_lexed(path, source, &lex(source), opts)
}

/// [`lint_source`] over an existing lex of the same `source`.
pub fn lint_lexed(path: &str, source: &str, lexed: &Lexed, opts: ScanOptions) -> Vec<Diagnostic> {
    let clean = CleanSource::from_lexed(source, lexed);
    let mut diags = Vec::new();
    if opts.check_panics {
        lint_panics(path, &clean, &mut diags);
    }
    if opts.check_float_cmp {
        lint_partial_cmp_unwrap(path, &clean, &mut diags);
        if opts.float_eq_sensitive {
            lint_float_eq(path, &clean, &mut diags);
        }
    }
    if opts.check_prints {
        lint_prints(path, &clean, &mut diags);
    }
    if opts.check_spawns {
        lint_spawns(path, &clean, &mut diags);
    }
    if opts.check_locks {
        lint_lock_unwraps(path, &clean, &mut diags);
    }
    diags.sort_by(|a, b| (a.line, a.rule.id()).cmp(&(b.line, b.rule.id())));
    diags
}

/// L1: panic-capable calls in non-test code.
fn lint_panics(path: &str, clean: &CleanSource, diags: &mut Vec<Diagnostic>) {
    for (idx, line) in clean.lines.iter().enumerate() {
        if clean.test_line[idx] {
            continue;
        }
        for (needle, what) in [
            (".unwrap()", "call to unwrap()"),
            (".expect(", "call to expect()"),
            ("panic!", "panic! invocation"),
        ] {
            for pos in find_all(line, needle) {
                // `panic!` must not be the tail of a longer macro name.
                if needle == "panic!" && pos > 0 {
                    let prev = line.as_bytes()[pos - 1];
                    if prev.is_ascii_alphanumeric() || prev == b'_' {
                        continue;
                    }
                }
                diags.push(Diagnostic::at(path, idx + 1, Rule::L1Panic, what));
            }
        }
    }
}

/// L5: raw console writes in non-test library code. Progress and
/// diagnostics belong in `qcat-obs` events (recorder-gated, silent by
/// default) or on a caller-supplied sink; a library that prints
/// unconditionally corrupts `QCAT_TRACE=json` streams and cannot be
/// silenced. The macro name must start at an identifier boundary so
/// `eprintln!` is one finding, not also a `println!` finding.
fn lint_prints(path: &str, clean: &CleanSource, diags: &mut Vec<Diagnostic>) {
    const NEEDLES: &[&str] = &["println!", "eprintln!", "print!", "eprint!", "dbg!"];
    for (idx, line) in clean.lines.iter().enumerate() {
        if clean.test_line[idx] {
            continue;
        }
        for needle in NEEDLES {
            for pos in find_all(line, needle) {
                if pos > 0 {
                    let prev = line.as_bytes()[pos - 1];
                    if prev.is_ascii_alphanumeric() || prev == b'_' {
                        continue; // tail of a longer name, e.g. e|println!
                    }
                }
                diags.push(Diagnostic::at(
                    path,
                    idx + 1,
                    Rule::L5RawPrint,
                    format!(
                        "raw `{needle}` in library code; emit a qcat-obs \
                         event or take a caller-supplied sink"
                    ),
                ));
            }
        }
    }
}

/// L6: raw `std::thread` spawning in non-test code. All parallelism
/// goes through `qcat_pool::ThreadPool`: ad-hoc threads ignore
/// `QCAT_THREADS`/`CategorizeConfig::threads` sizing, drop the
/// qcat-obs recorder (their metrics vanish), and reintroduce
/// scheduling-dependent result order. The pool crate itself is the
/// one place these primitives are legal; the workspace driver exempts
/// it. Matched at an identifier boundary so a method named
/// `my_thread::spawn`-alike cannot slip through while `spawner` etc.
/// stay clean.
fn lint_spawns(path: &str, clean: &CleanSource, diags: &mut Vec<Diagnostic>) {
    const NEEDLES: &[&str] = &["thread::spawn", "thread::scope", "thread::Builder"];
    for (idx, line) in clean.lines.iter().enumerate() {
        if clean.test_line[idx] {
            continue;
        }
        for needle in NEEDLES {
            for pos in find_all(line, needle) {
                if pos > 0 {
                    let prev = line.as_bytes()[pos - 1];
                    if prev.is_ascii_alphanumeric() || prev == b'_' {
                        continue; // tail of a longer path segment
                    }
                }
                diags.push(Diagnostic::at(
                    path,
                    idx + 1,
                    Rule::L6RawSpawn,
                    format!("raw `{needle}` outside qcat-pool; use qcat_pool::ThreadPool"),
                ));
            }
        }
    }
}

/// L7: `.lock().unwrap()` / `.lock().expect(` in non-test code. Once
/// any thread panics while holding a mutex, the mutex is poisoned and
/// every subsequent `.lock().unwrap()` panics too — a single injected
/// fault cascades into a permanently wedged server. Lock through a
/// designated poison-recovery helper instead
/// (`.lock().unwrap_or_else(|e| e.into_inner())`, see
/// `lock_recover` in qcat-serve), which this rule's needles
/// deliberately do not match.
fn lint_lock_unwraps(path: &str, clean: &CleanSource, diags: &mut Vec<Diagnostic>) {
    const NEEDLES: &[&str] = &[".lock().unwrap()", ".lock().expect("];
    for (idx, line) in clean.lines.iter().enumerate() {
        if clean.test_line[idx] {
            continue;
        }
        for needle in NEEDLES {
            for _pos in find_all(line, needle) {
                diags.push(Diagnostic::at(
                    path,
                    idx + 1,
                    Rule::L7LockUnwrap,
                    format!(
                        "`{needle}…` re-panics on a poisoned mutex; recover with \
                         `.lock().unwrap_or_else(|e| e.into_inner())` via a \
                         designated helper"
                    ),
                ));
            }
        }
    }
}

/// L2 (first half): `.partial_cmp(..).unwrap()` — NaN panics at a
/// distance. Matched across line breaks.
fn lint_partial_cmp_unwrap(path: &str, clean: &CleanSource, diags: &mut Vec<Diagnostic>) {
    // Concatenate with newlines so offsets map back to lines.
    let text = clean.lines.join("\n");
    let line_of = |byte: usize| text[..byte].bytes().filter(|&c| c == b'\n').count();
    for pos in find_all(&text, ".partial_cmp") {
        if clean.test_line[line_of(pos)] {
            continue;
        }
        let b = text.as_bytes();
        let mut j = pos + ".partial_cmp".len();
        // Skip the argument list.
        while j < b.len() && (b[j] as char).is_whitespace() {
            j += 1;
        }
        if b.get(j) != Some(&b'(') {
            continue;
        }
        let mut depth = 0i32;
        while j < b.len() {
            match b[j] {
                b'(' => depth += 1,
                b')' => {
                    depth -= 1;
                    if depth == 0 {
                        j += 1;
                        break;
                    }
                }
                _ => {}
            }
            j += 1;
        }
        while j < b.len() && (b[j] as char).is_whitespace() {
            j += 1;
        }
        if text[j..].starts_with(".unwrap()") || text[j..].starts_with(".expect(") {
            diags.push(Diagnostic::at(
                path,
                line_of(pos) + 1,
                Rule::L2FloatCmp,
                "partial_cmp().unwrap() panics on NaN; use f64::total_cmp",
            ));
        }
    }
}

/// L2 (second half): `==` / `!=` where either operand is visibly a
/// float — a float literal, an `f64::` constant, an `f32`/`f64`-
/// suffixed number, or an identifier annotated `: f64`/`: f32`
/// somewhere in the same file (parameters, lets, fields).
fn lint_float_eq(path: &str, clean: &CleanSource, diags: &mut Vec<Diagnostic>) {
    let float_ids = float_annotated_idents(clean);
    let floaty = |tok: &str| {
        is_float_token(tok) || {
            let last = tok.rsplit(|c| c == '.' || c == ':').next().unwrap_or(tok);
            float_ids.contains(last)
        }
    };
    for (idx, line) in clean.lines.iter().enumerate() {
        if clean.test_line[idx] {
            continue;
        }
        let b = line.as_bytes();
        for op in ["==", "!="] {
            for pos in find_all(line, op) {
                // Exclude `<=`, `>=`, `=>`, `===`-ish neighbors.
                if pos > 0 && matches!(b[pos - 1], b'=' | b'!' | b'<' | b'>') {
                    continue;
                }
                if b.get(pos + 2) == Some(&b'=') {
                    continue;
                }
                let before = trailing_token(&line[..pos]);
                let after = leading_token(&line[pos + 2..]);
                if floaty(before) || floaty(after) {
                    diags.push(Diagnostic::at(
                        path,
                        idx + 1,
                        Rule::L2FloatCmp,
                        format!(
                            "float `{op}` comparison ({}) in cost/order/rank/partition code; \
                             use qcat_core::float::{{same, approx_eq}}",
                            if floaty(before) { before } else { after }
                        ),
                    ));
                }
            }
        }
    }
}

/// Identifiers annotated `: f64` / `: f32` anywhere in the file —
/// function parameters, `let` bindings, struct fields. Purely
/// lexical, so a float that arrives via iteration or destructuring is
/// invisible; the rule errs toward missing those rather than
/// flagging integer comparisons.
fn float_annotated_idents(clean: &CleanSource) -> std::collections::HashSet<String> {
    let mut ids = std::collections::HashSet::new();
    for line in &clean.lines {
        for marker in [": f64", ": f32"] {
            for pos in find_all(line, marker) {
                let next = line.as_bytes().get(pos + marker.len());
                if matches!(next, Some(c) if c.is_ascii_alphanumeric() || *c == b'_') {
                    continue; // e.g. `: f64x4`
                }
                let ident = trailing_token(&line[..pos]);
                if !ident.is_empty()
                    && ident
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || c == '_')
                    && !ident.starts_with(|c: char| c.is_ascii_digit())
                {
                    ids.insert(ident.to_string());
                }
            }
        }
    }
    ids
}

/// The maximal operand-ish token ending `s` (after trailing spaces).
fn trailing_token(s: &str) -> &str {
    let s = s.trim_end();
    let start = s
        .rfind(|c: char| !(c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | ':')))
        .map(|p| p + 1)
        .unwrap_or(0);
    &s[start..]
}

/// The maximal operand-ish token starting `s` (after leading spaces),
/// allowing a unary minus.
fn leading_token(s: &str) -> &str {
    let s = s.trim_start();
    let body = s.strip_prefix('-').unwrap_or(s);
    let end = body
        .find(|c: char| !(c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | ':')))
        .unwrap_or(body.len());
    let taken = s.len() - body.len() + end;
    &s[..taken]
}

/// True when `tok` is visibly a float expression: a float literal
/// (`0.0`, `1.`, `1e9`, `2f64`), an `f64::`/`f32::` path, or a
/// `.fract()`-style tail ending in a float literal.
fn is_float_token(tok: &str) -> bool {
    let tok = tok.strip_prefix('-').unwrap_or(tok);
    if tok.starts_with("f64::") || tok.starts_with("f32::") {
        return true;
    }
    // The literal may be the last path/field segment: `x.y` splits as
    // idents, but `bounds[idx]` was already cut at `]`. Examine the
    // final segment after any `::`.
    let last = tok.rsplit("::").next().unwrap_or(tok);
    float_literal(last)
}

/// Does `s` parse as a Rust float literal?
fn float_literal(s: &str) -> bool {
    let (s, suffixed) = match s.strip_suffix("f64").or_else(|| s.strip_suffix("f32")) {
        Some(body) => (body, true),
        None => (s, false),
    };
    let b = s.as_bytes();
    if b.is_empty() || !b[0].is_ascii_digit() {
        return false;
    }
    let mut i = 0;
    while i < b.len() && (b[i].is_ascii_digit() || b[i] == b'_') {
        i += 1;
    }
    if i == b.len() {
        // Pure digits: only floaty with an explicit f32/f64 suffix.
        return suffixed;
    }
    let mut has_point_or_exp = false;
    if b[i] == b'.' {
        has_point_or_exp = true;
        i += 1;
        while i < b.len() && (b[i].is_ascii_digit() || b[i] == b'_') {
            i += 1;
        }
    }
    if i < b.len() && (b[i] == b'e' || b[i] == b'E') {
        has_point_or_exp = true;
        i += 1;
        if i < b.len() && (b[i] == b'+' || b[i] == b'-') {
            i += 1;
        }
        if i == b.len() || !b[i].is_ascii_digit() {
            return false;
        }
        while i < b.len() && b[i].is_ascii_digit() {
            i += 1;
        }
    }
    has_point_or_exp && i == b.len()
}

/// All byte offsets where `needle` occurs in `hay`.
fn find_all(hay: &str, needle: &str) -> Vec<usize> {
    let mut out = Vec::new();
    let mut from = 0;
    while let Some(p) = hay[from..].find(needle) {
        out.push(from + p);
        from += p + needle.len();
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rules(src: &str, opts: ScanOptions) -> Vec<(usize, &'static str)> {
        lint_source("t.rs", src, opts)
            .into_iter()
            .map(|d| (d.line, d.rule.id()))
            .collect()
    }

    const ALL: ScanOptions = ScanOptions {
        check_panics: true,
        check_float_cmp: true,
        float_eq_sensitive: true,
        check_prints: false,
        check_spawns: false,
        check_locks: false,
    };

    #[test]
    fn l1_flags_unwrap_expect_panic() {
        let src = "fn f() {\n    let x = y.unwrap();\n    z.expect(\"msg\");\n    panic!(\"boom\");\n}\n";
        assert_eq!(rules(src, ALL), vec![(2, "L1"), (3, "L1"), (4, "L1")]);
    }

    #[test]
    fn l1_ignores_strings_comments_and_tests() {
        let src = concat!(
            "fn f() {\n",
            "    // this .unwrap() is a comment\n",
            "    let s = \"panic! .unwrap()\";\n",
            "    let c = '\"'; let u = s.trim(); // ' tricky\n",
            "}\n",
            "#[cfg(test)]\n",
            "mod tests {\n",
            "    #[test]\n",
            "    fn t() { x.unwrap(); panic!(); }\n",
            "}\n",
        );
        assert_eq!(rules(src, ALL), vec![]);
    }

    #[test]
    fn l1_ignores_unwrap_variants_and_doc_examples() {
        let src = concat!(
            "/// call .unwrap() like this: `x.unwrap()`\n",
            "fn f() {\n",
            "    let a = lock.read().unwrap_or_else(|e| e.into_inner());\n",
            "    let b = x.unwrap_or(0); let c = y.unwrap_or_default();\n",
            "    let d = debug_panic_flag; // not a panic! call\n",
            "}\n",
        );
        assert_eq!(rules(src, ALL), vec![]);
    }

    #[test]
    fn l1_raw_strings_do_not_confuse() {
        let src = "fn f() {\n    let s = r#\"contains \"quotes\" and .unwrap()\"#;\n    real.unwrap();\n}\n";
        assert_eq!(rules(src, ALL), vec![(3, "L1")]);
    }

    #[test]
    fn l2_partial_cmp_unwrap_even_across_lines() {
        let src = "fn f() {\n    v.sort_by(|a, b| a.partial_cmp(b).unwrap());\n    let o = x.partial_cmp(&y)\n        .unwrap();\n}\n";
        let r = rules(
            src,
            ScanOptions {
                check_panics: false,
                ..ALL
            },
        );
        assert_eq!(r, vec![(2, "L2"), (3, "L2")]);
    }

    #[test]
    fn l2_float_eq_flags_literals_and_constants() {
        let src = concat!(
            "fn f(x: f64) {\n",
            "    if x == 0.0 { }\n",
            "    if x != 1e-9 { }\n",
            "    if x == f64::INFINITY { }\n",
            "    if x.fract() == 0.0 { }\n",
            "    if 2f64 == x { }\n",
            "}\n",
        );
        let r = rules(
            src,
            ScanOptions {
                check_panics: false,
                ..ALL
            },
        );
        assert_eq!(
            r,
            vec![(2, "L2"), (3, "L2"), (4, "L2"), (5, "L2"), (6, "L2")]
        );
    }

    #[test]
    fn l2_float_eq_ignores_ints_and_non_sensitive_files() {
        let src = concat!(
            "fn f(i: usize, s: &str) {\n",
            "    if i == 0 { }\n",
            "    if i + 1 == names.len() { }\n",
            "    if s == \"0.0\" { }\n",
            "    if i <= 9 || i >= 2 { }\n",
            "}\n",
        );
        assert_eq!(
            rules(
                src,
                ScanOptions {
                    check_panics: false,
                    ..ALL
                }
            ),
            vec![]
        );
        // Same float code, but the file is not cost/order/rank/partition.
        let floaty = "fn f(x: f64) { if x == 0.0 { } }\n";
        let r = rules(
            floaty,
            ScanOptions {
                check_panics: false,
                check_float_cmp: true,
                float_eq_sensitive: false,
                ..ScanOptions::default()
            },
        );
        assert_eq!(r, vec![]);
    }

    #[test]
    fn l2_float_eq_tracks_f64_annotations() {
        let src = concat!(
            "fn f(vmin: f64, vmax: f64, n: usize) {\n",
            "    let hi: f64 = pick();\n",
            "    if hi == vmax { }\n",
            "    if n == 3 { }\n",
            "}\n",
        );
        let r = rules(
            src,
            ScanOptions {
                check_panics: false,
                ..ALL
            },
        );
        assert_eq!(r, vec![(3, "L2")]);
    }

    #[test]
    fn l2_total_cmp_is_clean() {
        let src = "fn f() {\n    v.sort_by(|a, b| a.total_cmp(b));\n    let m = xs.iter().copied().fold(f64::MIN, f64::max);\n}\n";
        assert_eq!(
            rules(
                src,
                ScanOptions {
                    check_panics: false,
                    ..ALL
                }
            ),
            vec![]
        );
    }

    const PRINTS: ScanOptions = ScanOptions {
        check_panics: false,
        check_float_cmp: false,
        float_eq_sensitive: false,
        check_prints: true,
        check_spawns: false,
        check_locks: false,
    };

    #[test]
    fn l5_flags_each_print_macro_once() {
        let src = concat!(
            "fn f() {\n",
            "    println!(\"out\");\n",
            "    eprintln!(\"err\");\n",
            "    print!(\"out\");\n",
            "    eprint!(\"err\");\n",
            "    dbg!(x);\n",
            "}\n",
        );
        assert_eq!(
            rules(src, PRINTS),
            vec![(2, "L5"), (3, "L5"), (4, "L5"), (5, "L5"), (6, "L5")]
        );
    }

    #[test]
    fn l5_ignores_tests_strings_comments_and_sinks() {
        let src = concat!(
            "fn f(w: &mut impl std::io::Write) {\n",
            "    // a println! in a comment\n",
            "    let s = \"println!\";\n",
            "    writeln!(w, \"through a sink\").ok();\n",
            "    let debug_flag = true; // dbg! mention\n",
            "}\n",
            "#[cfg(test)]\n",
            "mod tests {\n",
            "    #[test]\n",
            "    fn t() { println!(\"fine in tests\"); dbg!(1); }\n",
            "}\n",
        );
        assert_eq!(rules(src, PRINTS), vec![]);
    }

    #[test]
    fn l5_path_qualified_macros_still_fire() {
        let src = "fn f() {\n    std::println!(\"x\");\n}\n";
        assert_eq!(rules(src, PRINTS), vec![(2, "L5")]);
    }

    const SPAWNS: ScanOptions = ScanOptions {
        check_panics: false,
        check_float_cmp: false,
        float_eq_sensitive: false,
        check_prints: false,
        check_spawns: true,
        check_locks: false,
    };

    #[test]
    fn l6_flags_every_spawn_primitive() {
        let src = concat!(
            "fn f() {\n",
            "    let h = std::thread::spawn(|| 1);\n",
            "    thread::scope(|s| { });\n",
            "    let b = thread::Builder::new();\n",
            "}\n",
        );
        assert_eq!(rules(src, SPAWNS), vec![(2, "L6"), (3, "L6"), (4, "L6")]);
    }

    #[test]
    fn l6_ignores_tests_strings_comments_and_lookalikes() {
        let src = concat!(
            "fn f() {\n",
            "    // thread::spawn in a comment\n",
            "    let s = \"thread::spawn\";\n",
            "    my_thread::spawn();\n",
            "    pool.map(&items, |_, it| work(it));\n",
            "}\n",
            "#[cfg(test)]\n",
            "mod tests {\n",
            "    #[test]\n",
            "    fn t() { std::thread::spawn(|| 1).join().unwrap(); }\n",
            "}\n",
        );
        assert_eq!(rules(src, SPAWNS), vec![]);
    }

    const LOCKS: ScanOptions = ScanOptions {
        check_panics: false,
        check_float_cmp: false,
        float_eq_sensitive: false,
        check_prints: false,
        check_spawns: false,
        check_locks: true,
    };

    #[test]
    fn l7_flags_lock_unwrap_and_expect() {
        let src = concat!(
            "fn f(m: &std::sync::Mutex<u32>) {\n",
            "    let a = m.lock().unwrap();\n",
            "    let b = m.lock().expect(\"poisoned\");\n",
            "}\n",
        );
        assert_eq!(rules(src, LOCKS), vec![(2, "L7"), (3, "L7")]);
    }

    #[test]
    fn l7_accepts_poison_recovery_tests_and_lookalikes() {
        let src = concat!(
            "fn f(m: &std::sync::Mutex<u32>) {\n",
            "    // m.lock().unwrap() in a comment\n",
            "    let s = \".lock().unwrap()\";\n",
            "    let g = m.lock().unwrap_or_else(|e| e.into_inner());\n",
            "    let r = result.unwrap(); // not a lock\n",
            "}\n",
            "#[cfg(test)]\n",
            "mod tests {\n",
            "    #[test]\n",
            "    fn t(m: &std::sync::Mutex<u32>) { m.lock().unwrap(); }\n",
            "}\n",
        );
        assert_eq!(rules(src, LOCKS), vec![]);
    }

    #[test]
    fn test_region_ends_at_matching_brace() {
        let src = concat!(
            "#[cfg(test)]\n",
            "mod tests {\n",
            "    fn t() { x.unwrap(); }\n",
            "}\n",
            "fn after() { y.unwrap(); }\n",
        );
        assert_eq!(rules(src, ALL), vec![(5, "L1")]);
    }

    #[test]
    fn lifetimes_are_not_char_literals() {
        let src = "fn f<'a>(x: &'a str) -> &'a str {\n    x\n}\nfn g() { h.unwrap(); }\n";
        assert_eq!(rules(src, ALL), vec![(4, "L1")]);
    }

    /// Adversarial corpus for the lexer-backed rules: every needle
    /// the engine knows, hidden where only a real lexer can see it is
    /// not code — multi-hash raw strings, nested block comments, and
    /// lifetime-heavy generics — with one live violation after each
    /// hiding place to prove scanning resumes at the right byte.
    #[test]
    fn adversarial_hiding_places_fool_no_rule() {
        let opts = ScanOptions {
            check_prints: true,
            check_spawns: true,
            check_locks: true,
            ..ALL
        };
        // Needles inside a multi-hash raw string spanning lines.
        let src = concat!(
            "fn f() {\n",
            "    let s = r##\"x.unwrap() println!() thread::spawn(|| 1)\n",
            "        .lock().unwrap() \"# still inside \"#\"##;\n",
            "    live.unwrap();\n",
            "}\n",
        );
        assert_eq!(rules(src, opts), vec![(4, "L1")]);
        // Needles inside a nested block comment; code resumes on the
        // closing line.
        let src = concat!(
            "fn f() {\n",
            "    /* outer /* println!(\"hidden\"); x.unwrap(); */\n",
            "       thread::spawn still hidden */ live.unwrap();\n",
            "}\n",
        );
        assert_eq!(rules(src, opts), vec![(3, "L1")]);
        // Lifetimes next to char literals: `'a` must not open a char
        // and swallow the needle after it.
        let src = concat!(
            "fn f<'a, 'b>(x: &'a str, c: char) -> &'b str {\n",
            "    if c == 'u' { y.unwrap(); }\n",
            "    x\n",
            "}\n",
        );
        assert_eq!(rules(src, opts), vec![(2, "L1")]);
    }

    #[test]
    fn float_literal_matcher() {
        for good in ["0.0", "1.", "1.5e3", "1e9", "1E-9", "2f64", "3.25f32", "1_000.0"] {
            assert!(float_literal(good), "{good}");
        }
        for bad in ["0", "10", "x", "len", "1_000", "v0", "e9", "1.2.3"] {
            assert!(!float_literal(bad), "{bad}");
        }
    }
}
