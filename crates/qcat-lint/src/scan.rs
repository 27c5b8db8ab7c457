//! Tests of the per-file source rules L1, L2 and L5–L7, which clippy
//! enforces (see `docs/LINTS.md`, "Moved to clippy").
//!
//! Each case scans a source snippet, or a fixture under
//! `tests/fixtures/clippy/`, with `clippy-driver` as a library crate.
//! The lint levels are read from the root `Cargo.toml`'s
//! `[workspace.lints.clippy]` table and `CLIPPY_CONF_DIR` points at
//! the repo root, so the real configuration is exercised rather than a
//! copy of it. The findings must equal the expected `(line, lint)`
//! pairs exactly: a missing finding and an extra one both fail.

use qcat_obs::json::{self, JsonValue};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

fn repo_root() -> PathBuf {
    // crates/qcat-lint/ → repo root.
    let mut p = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    p.pop();
    p.pop();
    p
}

/// `-D clippy::name`-style flags for every entry of the workspace's
/// `[workspace.lints.clippy]` table.
fn workspace_lint_flags(root: &Path) -> Vec<String> {
    let toml = std::fs::read_to_string(root.join("Cargo.toml")).expect("root Cargo.toml");
    let mut in_table = false;
    let mut flags = Vec::new();
    for line in toml.lines().map(str::trim) {
        if line.starts_with('[') {
            in_table = line == "[workspace.lints.clippy]";
            continue;
        }
        if !in_table || line.is_empty() || line.starts_with('#') {
            continue;
        }
        let (name, level) = line.split_once('=').expect("`name = \"level\"`");
        let flag = match level.trim().trim_matches('"') {
            "forbid" => "-F",
            "deny" => "-D",
            "warn" => "-W",
            "allow" => "-A",
            other => panic!("unsupported lint level `{other}` for `{name}`"),
        };
        flags.push(flag.to_string());
        flags.push(format!("clippy::{}", name.trim()));
    }
    assert!(!flags.is_empty(), "no [workspace.lints.clippy] table in Cargo.toml");
    flags
}

/// The toolchain's `clippy-driver`: next to the `cargo` that built
/// this test, else whatever `PATH` finds.
fn clippy_driver() -> PathBuf {
    let beside_cargo = Path::new(env!("CARGO")).with_file_name("clippy-driver");
    if beside_cargo.is_file() {
        beside_cargo
    } else {
        PathBuf::from("clippy-driver")
    }
}

/// `(line, lint)` for every diagnostic clippy reports on `source`,
/// compiled as the library crate `crate_name`, sorted. A diagnostic
/// with no lint code (a compile error) reports its message instead,
/// so it can never match an expected lint.
fn lints_in(crate_name: &str, source: &str) -> Vec<(usize, String)> {
    let root = repo_root();
    let out_file =
        std::env::temp_dir().join(format!("qcat-lint-{}-{crate_name}.rmeta", std::process::id()));
    let mut child = Command::new(clippy_driver())
        .env("CLIPPY_CONF_DIR", &root)
        .args(["--edition", "2021", "--crate-type", "lib", "--emit=metadata"])
        .args(["--crate-name", crate_name, "-o"])
        .arg(&out_file)
        .args(workspace_lint_flags(&root))
        .args(["--error-format=json", "-"])
        .stdin(Stdio::piped())
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .expect("clippy-driver runs (is the clippy component installed?)");
    child
        .stdin
        .take()
        .expect("piped stdin")
        .write_all(source.as_bytes())
        .expect("source written to clippy-driver");
    let out = child.wait_with_output().expect("clippy-driver finishes");
    let _ = std::fs::remove_file(&out_file);
    let stderr = String::from_utf8_lossy(&out.stderr);
    let mut found = Vec::new();
    for line in stderr.lines().filter(|l| l.starts_with('{')) {
        let diag = json::parse(line).unwrap_or_else(|e| panic!("{e}: {line}"));
        let Some(JsonValue::Arr(spans)) = diag.get("spans") else {
            continue;
        };
        let Some(primary) = spans
            .iter()
            .find(|s| s.get("is_primary") == Some(&JsonValue::Bool(true)))
        else {
            continue; // the closing "aborting due to N errors" summary
        };
        let line_no = primary.get("line_start").and_then(JsonValue::as_f64).unwrap_or(0.0);
        let name = match diag.get("code").and_then(|c| c.get("code")).and_then(JsonValue::as_str) {
            Some(code) => code.trim_start_matches("clippy::").to_string(),
            None => format!("{:?}", diag.get("message")),
        };
        found.push((line_no as usize, name));
    }
    found.sort();
    found
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Scans `source` (named after the calling test, so concurrent
    /// scans write distinct outputs) and compares with `expected`.
    #[track_caller]
    fn assert_lints(test: &str, source: &str, expected: &[(usize, &str)]) {
        let expected: Vec<(usize, String)> =
            expected.iter().map(|&(line, lint)| (line, lint.to_string())).collect();
        assert_eq!(lints_in(test, source), expected, "{test}: clippy findings");
    }

    /// `(line, lint)` for every `//~ lint ...` mark trailing code in
    /// `text`, sorted.
    fn marks(text: &str) -> Vec<(usize, String)> {
        let mut marks: Vec<(usize, String)> = text
            .lines()
            .enumerate()
            .filter(|(_, line)| !line.trim_start().starts_with("//"))
            .filter_map(|(i, line)| line.split_once("//~").map(|(_, names)| (i + 1, names)))
            .flat_map(|(line, names)| names.split_whitespace().map(move |n| (line, n.to_string())))
            .collect();
        marks.sort();
        marks
    }

    /// The fixture's clippy findings equal its `//~` marks.
    fn assert_fixture(fixture: &str) {
        let path = repo_root().join("crates/qcat-lint/tests/fixtures/clippy").join(fixture);
        let text = std::fs::read_to_string(path).expect("fixture");
        let expected = marks(&text);
        assert!(!expected.is_empty(), "{fixture} seeds nothing");
        let crate_name = fixture.trim_end_matches(".rs");
        assert_eq!(lints_in(crate_name, &text), expected, "{fixture}: clippy findings vs `//~` marks");
    }

    #[test]
    fn l1_fires_on_panic_sites_only() {
        assert_fixture("l1_panic.rs");
    }

    #[test]
    fn l2_fires_on_strict_float_comparisons_only() {
        assert_fixture("l2_float_cmp.rs");
    }

    #[test]
    fn l5_fires_on_raw_prints_only() {
        assert_fixture("l5_raw_print.rs");
    }

    #[test]
    fn l6_fires_on_raw_threads_only() {
        assert_fixture("l6_raw_spawn.rs");
    }

    #[test]
    fn l7_fires_on_locks_outside_the_helper_only() {
        assert_fixture("l7_lock.rs");
    }

    #[test]
    fn l1_flags_unwrap_expect_panic() {
        let src = concat!(
            "pub fn f(y: Option<u32>, z: Result<u32, String>) -> u32 {\n",
            "    let x = y.unwrap();\n",
            "    let w = z.expect(\"msg\");\n",
            "    if x > w { panic!(\"boom\"); }\n",
            "    x\n",
            "}\n",
        );
        assert_lints(
            "l1_flags_unwrap_expect_panic",
            src,
            &[(2, "unwrap_used"), (3, "expect_used"), (4, "panic")],
        );
    }

    #[test]
    fn l1_ignores_strings_comments_and_tests() {
        let src = concat!(
            "pub fn f() -> usize {\n",
            "    // this .unwrap() is a comment\n",
            "    let s = \"panic! .unwrap()\";\n",
            "    let c = '\"'; let u = s.trim(); // ' tricky\n",
            "    u.len() + c.len_utf8()\n",
            "}\n",
            "#[cfg(test)]\n",
            "mod tests {\n",
            "    #[test]\n",
            "    fn t() { Some(1).unwrap(); panic!(); }\n",
            "}\n",
        );
        assert_lints("l1_ignores_strings_comments_and_tests", src, &[]);
    }

    #[test]
    fn l1_ignores_unwrap_variants_and_doc_examples() {
        let src = concat!(
            "/// call .unwrap() like this: `x.unwrap()`\n",
            "pub fn f(lock: &std::sync::RwLock<u32>, x: Option<u32>, y: Option<u32>) -> u32 {\n",
            "    let a = *lock.read().unwrap_or_else(|e| e.into_inner());\n",
            "    let b = x.unwrap_or(0); let c = y.unwrap_or_default();\n",
            "    let debug_panic_flag = 1; // not a panic! call\n",
            "    a + b + c + debug_panic_flag\n",
            "}\n",
        );
        assert_lints("l1_ignores_unwrap_variants_and_doc_examples", src, &[]);
    }

    #[test]
    fn l1_raw_strings_do_not_confuse() {
        let src = concat!(
            "pub fn f(real: Option<&str>) -> usize {\n",
            "    let s = r#\"contains \"quotes\" and .unwrap()\"#;\n",
            "    real.unwrap().len() + s.len()\n",
            "}\n",
        );
        assert_lints("l1_raw_strings_do_not_confuse", src, &[(3, "unwrap_used")]);
    }

    #[test]
    fn l2_partial_cmp_unwrap_even_across_lines() {
        let src = concat!(
            "pub fn f(v: &mut [f64], x: f64, y: f64) -> std::cmp::Ordering {\n",
            "    v.sort_by(|a, b| a.partial_cmp(b).unwrap());\n",
            "    x.partial_cmp(&y)\n",
            "        .unwrap()\n",
            "}\n",
        );
        assert_lints(
            "l2_partial_cmp_unwrap_even_across_lines",
            src,
            &[(2, "unwrap_used"), (3, "unwrap_used")],
        );
    }

    /// Literals fire; `float_cmp` admits exact comparisons with zero
    /// and with infinity, which the lexical L2 flagged.
    #[test]
    fn l2_float_eq_flags_literals_and_constants() {
        let src = concat!(
            "pub fn f(x: f64) -> bool {\n",
            "    x == 0.0\n",
            "        || x != 1e-9\n",
            "        || x == f64::INFINITY\n",
            "        || x.fract() == 0.0\n",
            "        || 2f64 == x\n",
            "}\n",
        );
        assert_lints(
            "l2_float_eq_flags_literals_and_constants",
            src,
            &[(3, "float_cmp"), (6, "float_cmp")],
        );
    }

    /// Integer and string comparisons never fire. The lexical L2's
    /// per-file exemption is gone: code that compares floats exactly
    /// on purpose says so with one reasoned allow, and is then clean.
    #[test]
    fn l2_float_eq_ignores_ints_and_non_sensitive_files() {
        let src = concat!(
            "pub fn f(i: usize, s: &str, names: &[&str]) -> bool {\n",
            "    i == 0\n",
            "        || i + 1 == names.len()\n",
            "        || s == \"0.0\"\n",
            "        || i <= 9 || i >= 2\n",
            "}\n",
            "#[allow(clippy::float_cmp, reason = \"an exact bound test\")]\n",
            "pub fn g(x: f64, y: f64) -> bool { x == y }\n",
        );
        assert_lints("l2_float_eq_ignores_ints_and_non_sensitive_files", src, &[]);
    }

    #[test]
    fn l2_float_eq_tracks_f64_annotations() {
        let src = concat!(
            "pub fn f(vmin: f64, vmax: f64, n: usize, pick: fn() -> f64) -> bool {\n",
            "    let hi: f64 = pick();\n",
            "    hi == vmax\n",
            "        || n == 3\n",
            "        || vmin.is_nan()\n",
            "}\n",
        );
        assert_lints("l2_float_eq_tracks_f64_annotations", src, &[(3, "float_cmp")]);
    }

    #[test]
    fn l2_total_cmp_is_clean() {
        let src = concat!(
            "pub fn f(v: &mut [f64], xs: &[f64]) -> f64 {\n",
            "    v.sort_by(|a, b| a.total_cmp(b));\n",
            "    xs.iter().copied().fold(f64::MIN, f64::max)\n",
            "}\n",
        );
        assert_lints("l2_total_cmp_is_clean", src, &[]);
    }

    #[test]
    fn l5_flags_each_print_macro_once() {
        let src = concat!(
            "pub fn f(x: u32) -> u32 {\n",
            "    println!(\"out\");\n",
            "    eprintln!(\"err\");\n",
            "    print!(\"out\");\n",
            "    eprint!(\"err\");\n",
            "    dbg!(x)\n",
            "}\n",
        );
        assert_lints(
            "l5_flags_each_print_macro_once",
            src,
            &[
                (2, "print_stdout"),
                (3, "print_stderr"),
                (4, "print_stdout"),
                (5, "print_stderr"),
                (6, "dbg_macro"),
            ],
        );
    }

    #[test]
    fn l5_ignores_tests_strings_comments_and_sinks() {
        let src = concat!(
            "pub fn f(w: &mut impl std::io::Write) {\n",
            "    // a println! in a comment\n",
            "    let s = \"println!\";\n",
            "    writeln!(w, \"through a sink {s}\").ok();\n",
            "    let debug_flag = true; // dbg! mention\n",
            "    writeln!(w, \"{debug_flag}\").ok();\n",
            "}\n",
            "#[cfg(test)]\n",
            "mod tests {\n",
            "    #[test]\n",
            "    fn t() { println!(\"fine in tests\"); dbg!(1); }\n",
            "}\n",
        );
        assert_lints("l5_ignores_tests_strings_comments_and_sinks", src, &[]);
    }

    #[test]
    fn l5_path_qualified_macros_still_fire() {
        let src = "pub fn f() {\n    std::println!(\"x\");\n}\n";
        assert_lints("l5_path_qualified_macros_still_fire", src, &[(2, "print_stdout")]);
    }

    #[test]
    fn l6_flags_every_spawn_primitive() {
        let src = concat!(
            "use std::thread;\n",
            "pub fn f() {\n",
            "    let _h = std::thread::spawn(|| 1);\n",
            "    thread::scope(|_| {});\n",
            "    let _b = thread::Builder::new();\n",
            "}\n",
        );
        assert_lints(
            "l6_flags_every_spawn_primitive",
            src,
            &[
                (3, "disallowed_methods"),
                (4, "disallowed_methods"),
                (5, "disallowed_methods"),
            ],
        );
    }

    #[test]
    fn l6_ignores_tests_strings_comments_and_lookalikes() {
        let src = concat!(
            "mod my_thread { pub fn spawn() {} }\n",
            "pub fn f(items: &[u32]) -> u32 {\n",
            "    // thread::spawn in a comment\n",
            "    let s = \"thread::spawn\";\n",
            "    my_thread::spawn();\n",
            "    items.iter().map(|it| it + 1).sum::<u32>() + s.len() as u32\n",
            "}\n",
            "#[cfg(test)]\n",
            "mod tests {\n",
            "    #[test]\n",
            "    fn t() { std::thread::spawn(|| 1).join().unwrap(); }\n",
            "}\n",
        );
        assert_lints("l6_ignores_tests_strings_comments_and_lookalikes", src, &[]);
    }

    #[test]
    fn l7_flags_lock_unwrap_and_expect() {
        let src = concat!(
            "pub fn f(m: &std::sync::Mutex<u32>) -> u32 {\n",
            "    let a = *m.lock().unwrap();\n",
            "    let b = *m.lock().expect(\"poisoned\");\n",
            "    a + b\n",
            "}\n",
        );
        assert_lints(
            "l7_flags_lock_unwrap_and_expect",
            src,
            &[
                (2, "disallowed_methods"),
                (2, "unwrap_used"),
                (3, "disallowed_methods"),
                (3, "expect_used"),
            ],
        );
    }

    /// Poison recovery is accepted inside the one helper that carries
    /// a reasoned allow. A non-lock `unwrap` is L1's business only.
    #[test]
    fn l7_accepts_poison_recovery_tests_and_lookalikes() {
        let src = concat!(
            "use std::sync::{Mutex, MutexGuard};\n",
            "pub fn f(m: &Mutex<u32>, result: Result<u32, ()>) -> u32 {\n",
            "    // m.lock().unwrap() in a comment\n",
            "    let s = \".lock().unwrap()\";\n",
            "    let g = *lock_recover(m);\n",
            "    let r = result.unwrap(); // not a lock\n",
            "    g + r + s.len() as u32\n",
            "}\n",
            "#[allow(clippy::disallowed_methods, reason = \"the poison-recovering lock helper\")]\n",
            "fn lock_recover<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {\n",
            "    m.lock().unwrap_or_else(|e| e.into_inner())\n",
            "}\n",
            "#[cfg(test)]\n",
            "mod tests {\n",
            "    #[test]\n",
            "    fn t() { std::sync::Mutex::new(1).lock().unwrap(); }\n",
            "}\n",
        );
        assert_lints("l7_accepts_poison_recovery_tests_and_lookalikes", src, &[(6, "unwrap_used")]);
    }

    /// A `#[cfg(test)]` module is compiled out, and the code after it
    /// is linted again.
    #[test]
    fn test_region_ends_at_matching_brace() {
        let src = concat!(
            "#[cfg(test)]\n",
            "mod tests {\n",
            "    fn t() { Some(1).unwrap(); }\n",
            "}\n",
            "pub fn after(y: Option<u32>) -> u32 { y.unwrap() }\n",
        );
        assert_lints("test_region_ends_at_matching_brace", src, &[(5, "unwrap_used")]);
    }

    #[test]
    fn lifetimes_are_not_char_literals() {
        let src = concat!(
            "pub fn f<'a>(x: &'a str, _y: &str) -> &'a str {\n",
            "    x\n",
            "}\n",
            "pub fn g(h: Option<u32>) -> u32 { h.unwrap() }\n",
        );
        assert_lints("lifetimes_are_not_char_literals", src, &[(4, "unwrap_used")]);
    }

    /// Every needle of the old lexical rules hidden where only a real
    /// parser can see it is not code — multi-hash raw strings, nested
    /// block comments, lifetimes next to char literals — with one live
    /// violation after each hiding place.
    #[test]
    fn adversarial_hiding_places_fool_no_rule() {
        // Needles inside a multi-hash raw string spanning lines.
        let src = concat!(
            "pub fn f(live: Option<u32>) -> u32 {\n",
            "    let s = r##\"x.unwrap() println!() thread::spawn(|| 1)\n",
            "        .lock().unwrap() \"# still inside \"#\"##;\n",
            "    live.unwrap() + s.len() as u32\n",
            "}\n",
        );
        assert_lints("adversarial_raw_string", src, &[(4, "unwrap_used")]);
        // Needles inside a nested block comment; code resumes on the
        // closing line.
        let src = concat!(
            "pub fn f(live: Option<u32>) -> u32 {\n",
            "    /* outer /* println!(\"hidden\"); x.unwrap(); */\n",
            "       thread::spawn still hidden */ live.unwrap()\n",
            "}\n",
        );
        assert_lints("adversarial_block_comment", src, &[(3, "unwrap_used")]);
        // Lifetimes next to char literals.
        let src = concat!(
            "pub fn f<'a, 'b: 'a>(x: &'a str, c: char, y: Option<&'b str>) -> &'a str {\n",
            "    if c == 'u' { return y.unwrap(); }\n",
            "    x\n",
            "}\n",
        );
        assert_lints("adversarial_lifetimes", src, &[(2, "unwrap_used")]);
    }
}
