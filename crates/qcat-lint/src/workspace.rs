//! Walking the real workspace: applies the source rules to the right
//! crates/files, the layering rule to every manifest, and the
//! cross-file semantic rules (L8–L10) to the whole tree at once.
//!
//! Every source file is read once and lexed once; the per-file work
//! (lexing plus all Engine 1 rules, with the per-file rule selection
//! merged into a single [`ScanOptions`]) fans out across
//! `qcat-pool`, and the token streams then feed the Engine 2 symbol
//! table serially.

use crate::conc;
use crate::diag::Diagnostic;
use crate::lexer::{lex, Lexed};
use crate::manifest::check_layering;
use crate::scan::{lint_lexed, ScanOptions};
use crate::syms::SymbolTable;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// Crates whose sources are scanned for L1/L2 (the library layers
/// the cost model's correctness rests on, plus the observability
/// substrate every other crate calls into). `(crate name,
/// repo-relative source dir)`.
pub const SCANNED_CRATES: &[(&str, &str)] = &[
    ("qcat-core", "crates/core"),
    ("qcat-data", "crates/qcat-data"),
    ("qcat-sql", "crates/qcat-sql"),
    ("qcat-exec", "crates/qcat-exec"),
    ("qcat-obs", "crates/qcat-obs"),
    ("qcat-serve", "crates/qcat-serve"),
];

/// How a workspace scan went, for wall-time reporting.
#[derive(Debug, Clone, Copy)]
pub struct ScanStats {
    /// Source files read, lexed, and analyzed.
    pub files: usize,
    /// Pool threads the per-file pass fanned out across.
    pub threads: usize,
}

/// One file's scan job: everything the parallel pass needs.
struct FileJob {
    rel: String,
    pkg: String,
    source: String,
    opts: ScanOptions,
}

/// Run Engines 1 and 2 (L1–L10) over the workspace rooted at `root`.
/// Returns the diagnostics; an empty vector means the tree is clean.
pub fn lint_workspace(root: &Path) -> io::Result<Vec<Diagnostic>> {
    lint_workspace_with_stats(root).map(|(diags, _)| diags)
}

/// [`lint_workspace`], also reporting scan statistics.
pub fn lint_workspace_with_stats(root: &Path) -> io::Result<(Vec<Diagnostic>, ScanStats)> {
    // A root with no crates/ would "pass" by scanning zero files;
    // refuse it instead so a mistyped --root is an error, not a
    // silent clean run.
    if !root.join("crates").is_dir() {
        return Err(io::Error::new(
            io::ErrorKind::NotFound,
            format!("{} has no crates/ directory", root.display()),
        ));
    }

    // Serial I/O: enumerate and read every source file once.
    let mut jobs = Vec::new();
    let crates_dir = root.join("crates");
    let mut crate_dirs: Vec<PathBuf> = fs::read_dir(&crates_dir)?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.is_dir())
        .collect();
    crate_dirs.sort();
    for dir in &crate_dirs {
        let manifest = dir.join("Cargo.toml");
        let pkg = if manifest.is_file() {
            package_name(&fs::read_to_string(&manifest)?)
        } else {
            None
        };
        let dir_name = dir
            .file_name()
            .map(|n| n.to_string_lossy().into_owned())
            .unwrap_or_default();
        let pkg = pkg.unwrap_or_else(|| dir_name.clone());
        for file in rust_files(&dir.join("src"))? {
            let rel = relative(root, &file);
            jobs.push(FileJob {
                opts: options_for_file(&dir_name, &rel),
                rel,
                pkg: pkg.clone(),
                source: fs::read_to_string(&file)?,
            });
        }
    }
    // The facade crate's own src/ (package `qcat`).
    for file in rust_files(&root.join("src"))? {
        let rel = relative(root, &file);
        jobs.push(FileJob {
            opts: options_for_file("", &rel),
            rel,
            pkg: "qcat".to_string(),
            source: fs::read_to_string(&file)?,
        });
    }

    // Parallel per-file pass: one lex, all Engine 1 rules.
    let pool = qcat_pool::ThreadPool::new(0);
    let per_file: Vec<(Vec<Diagnostic>, Lexed)> = pool.map(&jobs, |_, job| {
        let lexed = lex(&job.source);
        let diags = lint_lexed(&job.rel, &job.source, &lexed, job.opts);
        (diags, lexed)
    });

    // Serial: fold the token streams into the Engine 2 symbol table.
    let mut diags = Vec::new();
    let mut table = SymbolTable::default();
    for (job, (file_diags, lexed)) in jobs.iter().zip(per_file) {
        diags.extend(file_diags);
        table.add_lexed(&job.rel, &job.pkg, lexed.tokens);
    }
    diags.extend(conc::analyze_table(&table));
    diags.extend(lint_manifests(root)?);
    diags.sort_by(|a, b| (a.file.clone(), a.line).cmp(&(b.file.clone(), b.line)));
    let stats = ScanStats {
        files: jobs.len(),
        threads: pool.threads(),
    };
    Ok((diags, stats))
}

/// The union of every Engine 1 rule's file selection, as one merged
/// option set:
///
/// - L1/L2 only in [`SCANNED_CRATES`], via [`options_for`];
/// - L5 everywhere except `qcat-obs` (the sanctioned exporter) and
///   binary entry points (`src/bin/`, `main.rs`), which own
///   stdout/stderr;
/// - L6 everywhere except `qcat-pool`, the one crate sanctioned to
///   create threads (binaries are NOT exempt — an ad-hoc thread in a
///   binary bypasses `QCAT_THREADS` sizing and recorder propagation
///   just as thoroughly);
/// - L7 everywhere, binaries included — poison recovery is expected
///   wherever a mutex is shared, and the sanctioned pattern
///   (`.lock().unwrap_or_else(|e| e.into_inner())` inside a
///   designated helper such as `lock_recover`) does not match the
///   rule's needles.
fn options_for_file(crate_dir: &str, rel_path: &str) -> ScanOptions {
    let scanned = SCANNED_CRATES
        .iter()
        .any(|(_, dir)| rel_path.starts_with(&format!("{dir}/src/")));
    let mut opts = if scanned {
        options_for(rel_path)
    } else {
        ScanOptions::default()
    };
    opts.check_prints = crate_dir != "qcat-obs"
        && !rel_path.contains("/bin/")
        && !rel_path.ends_with("/main.rs");
    opts.check_spawns = crate_dir != "qcat-pool";
    opts.check_locks = true;
    opts
}

/// Rule selection for one [`SCANNED_CRATES`] file: L1 everywhere; the
/// float-equality half of L2 only in cost/order/rank/partition code.
fn options_for(rel_path: &str) -> ScanOptions {
    let filename = rel_path.rsplit('/').next().unwrap_or(rel_path);
    let sensitive = ["cost", "order", "rank", "partition"]
        .iter()
        .any(|k| filename_mentions(filename, k) || rel_path.contains("/partition/"));
    ScanOptions {
        check_panics: true,
        check_float_cmp: true,
        float_eq_sensitive: sensitive,
        check_prints: false, // merged in by options_for_file
        check_spawns: false,
        check_locks: false,
    }
}

/// Does `file` mention `key` starting at a word boundary? Plain
/// `contains` would make `recorder.rs` ordering-sensitive (it
/// contains "order" mid-word); `sibling_order.rs` still matches.
fn filename_mentions(file: &str, key: &str) -> bool {
    let bytes = file.as_bytes();
    let mut from = 0;
    while let Some(p) = file[from..].find(key) {
        let pos = from + p;
        if pos == 0 || !bytes[pos - 1].is_ascii_alphabetic() {
            return true;
        }
        from = pos + 1;
    }
    false
}

/// L3 over every crate manifest in `crates/*`.
fn lint_manifests(root: &Path) -> io::Result<Vec<Diagnostic>> {
    let mut diags = Vec::new();
    let crates_dir = root.join("crates");
    if !crates_dir.is_dir() {
        return Ok(diags);
    }
    let mut entries: Vec<PathBuf> = fs::read_dir(&crates_dir)?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .collect();
    entries.sort();
    for dir in entries {
        let manifest = dir.join("Cargo.toml");
        if !manifest.is_file() {
            continue;
        }
        let toml = fs::read_to_string(&manifest)?;
        let name = package_name(&toml).unwrap_or_default();
        diags.extend(check_layering(&name, &relative(root, &manifest), &toml));
    }
    Ok(diags)
}

/// The `[package] name` of a manifest.
fn package_name(toml: &str) -> Option<String> {
    let mut in_package = false;
    for raw in toml.lines() {
        let line = raw.trim();
        if line.starts_with('[') {
            in_package = line == "[package]";
            continue;
        }
        if in_package {
            if let Some(rest) = line.strip_prefix("name") {
                let rest = rest.trim_start();
                if let Some(value) = rest.strip_prefix('=') {
                    return Some(value.trim().trim_matches('"').to_string());
                }
            }
        }
    }
    None
}

/// All `.rs` files under `dir`, recursively, in sorted order.
fn rust_files(dir: &Path) -> io::Result<Vec<PathBuf>> {
    let mut out = Vec::new();
    if !dir.is_dir() {
        return Ok(out);
    }
    let mut stack = vec![dir.to_path_buf()];
    while let Some(d) = stack.pop() {
        let mut entries: Vec<PathBuf> = fs::read_dir(&d)?
            .filter_map(|e| e.ok().map(|e| e.path()))
            .collect();
        entries.sort();
        for path in entries {
            if path.is_dir() {
                stack.push(path);
            } else if path.extension().is_some_and(|e| e == "rs") {
                out.push(path);
            }
        }
    }
    out.sort();
    Ok(out)
}

/// `path` relative to `root`, with `/` separators, for display.
fn relative(root: &Path, path: &Path) -> String {
    path.strip_prefix(root)
        .unwrap_or(path)
        .components()
        .map(|c| c.as_os_str().to_string_lossy())
        .collect::<Vec<_>>()
        .join("/")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sensitive_file_selection() {
        assert!(options_for("crates/core/src/cost.rs").float_eq_sensitive);
        assert!(options_for("crates/core/src/order.rs").float_eq_sensitive);
        assert!(options_for("crates/core/src/rank.rs").float_eq_sensitive);
        assert!(
            options_for("crates/core/src/partition/numeric.rs").float_eq_sensitive
        );
        assert!(options_for("crates/core/src/sibling_order.rs").float_eq_sensitive);
        assert!(!options_for("crates/core/src/tree.rs").float_eq_sensitive);
        assert!(!options_for("crates/qcat-sql/src/parser.rs").float_eq_sensitive);
        // "recorder" contains "order" only mid-word: not ordering code.
        assert!(!options_for("crates/qcat-obs/src/recorder.rs").float_eq_sensitive);
    }

    #[test]
    fn merged_options_cover_every_engine1_rule() {
        // A scanned library file gets everything.
        let o = options_for_file("core", "crates/core/src/cost.rs");
        assert!(o.check_panics && o.check_float_cmp);
        assert!(o.check_prints && o.check_spawns && o.check_locks);
        // qcat-obs: prints are its job; everything else still applies.
        let o = options_for_file("qcat-obs", "crates/qcat-obs/src/recorder.rs");
        assert!(!o.check_prints && o.check_spawns && o.check_locks);
        assert!(o.check_panics, "qcat-obs is a scanned crate");
        // qcat-pool: the sanctioned home of raw threads.
        let o = options_for_file("qcat-pool", "crates/qcat-pool/src/lib.rs");
        assert!(o.check_prints && !o.check_spawns && o.check_locks);
        assert!(!o.check_panics, "qcat-pool is not L1-scanned");
        // Binaries own stdout but not threads or locks.
        let o = options_for_file("qcat-lint", "crates/qcat-lint/src/main.rs");
        assert!(!o.check_prints && o.check_spawns && o.check_locks);
        let o = options_for_file("", "src/bin/qcat-bench.rs");
        assert!(!o.check_prints && o.check_spawns && o.check_locks);
    }

    #[test]
    fn missing_root_is_an_error_not_a_clean_run() {
        let err = lint_workspace(Path::new("/nonexistent-qcat-root"))
            .expect_err("a root with no crates/ must not lint clean");
        assert_eq!(err.kind(), std::io::ErrorKind::NotFound);
    }

    #[test]
    fn package_name_parses() {
        assert_eq!(
            package_name("[package]\nname = \"qcat-data\"\nversion = \"0.1\"\n").as_deref(),
            Some("qcat-data")
        );
        assert_eq!(package_name("[workspace]\nmembers = []\n"), None);
    }
}
