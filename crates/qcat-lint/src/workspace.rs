//! Walking the real workspace: applies the layering rule (L3) to every
//! manifest and the cross-file semantic rules (L8–L10) to the whole
//! tree at once.
//!
//! Every source file is read once and lexed once; the lexing fans out
//! across `qcat-pool`, and the token streams then feed the Engine 2
//! symbol table serially.

use crate::conc;
use crate::diag::Diagnostic;
use crate::lexer::{lex, Lexed};
use crate::manifest::check_layering;
use crate::syms::SymbolTable;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// How a workspace scan went, for wall-time reporting.
#[derive(Debug, Clone, Copy)]
pub struct ScanStats {
    /// Source files read, lexed, and analyzed.
    pub files: usize,
    /// Pool threads the per-file pass fanned out across.
    pub threads: usize,
}

/// One source file to lex.
struct FileJob {
    rel: String,
    pkg: String,
    source: String,
}

/// Run Engines 1 and 2 (L3, L8–L10) over the workspace rooted at `root`.
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
        let pkg = pkg.unwrap_or_else(|| {
            dir.file_name()
                .map(|n| n.to_string_lossy().into_owned())
                .unwrap_or_default()
        });
        for file in rust_files(&dir.join("src"))? {
            jobs.push(FileJob {
                rel: relative(root, &file),
                pkg: pkg.clone(),
                source: fs::read_to_string(&file)?,
            });
        }
    }
    // The facade crate's own src/ (package `qcat`).
    for file in rust_files(&root.join("src"))? {
        jobs.push(FileJob {
            rel: relative(root, &file),
            pkg: "qcat".to_string(),
            source: fs::read_to_string(&file)?,
        });
    }

    // Parallel per-file pass: one lex per file.
    let pool = qcat_pool::ThreadPool::new(0);
    let per_file: Vec<Lexed> = pool.map(&jobs, |_, job| lex(&job.source));

    // Serial: fold the token streams into the Engine 2 symbol table.
    let mut table = SymbolTable::default();
    for (job, lexed) in jobs.iter().zip(per_file) {
        table.add_lexed(&job.rel, &job.pkg, lexed.tokens);
    }
    let mut diags = conc::analyze_table(&table);
    diags.extend(lint_manifests(root)?);
    diags.sort_by(|a, b| (&a.file, a.line).cmp(&(&b.file, b.line)));
    let stats = ScanStats {
        files: jobs.len(),
        threads: pool.threads(),
    };
    Ok((diags, stats))
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
