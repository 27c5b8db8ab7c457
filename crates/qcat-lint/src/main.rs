//! The qcat-lint driver.
//!
//! `cargo run -p qcat-lint -- --workspace` (or `cargo lint`) runs
//! the layering, semantic, and audit engines against the repository
//! and exits nonzero when any rule fires. Diagnostics print as
//! `file:line: [RULE] message`, one per line, so editors and CI logs
//! can jump to them.

#![allow(
    clippy::print_stdout,
    clippy::print_stderr,
    reason = "L5: a binary owns its stdout and stderr"
)]

use qcat_core::label::CategoryLabel;
use qcat_core::tree::{CategoryTree, NodeId};
use qcat_data::{AttrId, AttrType, Field, RelationBuilder, Schema};
use qcat_lint::{audit, workspace, Diagnostic};
use qcat_sql::NumericRange;
use std::path::PathBuf;
use std::process::ExitCode;

fn main() -> ExitCode {
    let mut root: Option<PathBuf> = None;
    let mut run_workspace = false;
    let mut trace_paths: Vec<PathBuf> = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--workspace" => run_workspace = true,
            "--root" => match args.next() {
                Some(p) => root = Some(PathBuf::from(p)),
                None => return usage("--root needs a path"),
            },
            "--audit-trace" => match args.next() {
                Some(p) => trace_paths.push(PathBuf::from(p)),
                None => return usage("--audit-trace needs a path"),
            },
            "--help" | "-h" => {
                println!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            other => return usage(&format!("unknown argument `{other}`")),
        }
    }
    if !run_workspace && trace_paths.is_empty() {
        return usage("nothing to do");
    }

    let mut diags = Vec::new();
    if run_workspace {
        let root = root.unwrap_or_else(default_root);
        let started = std::time::Instant::now();
        match workspace::lint_workspace_with_stats(&root) {
            Ok((d, stats)) => {
                eprintln!(
                    "qcat-lint: scanned {} files on {} pool thread(s) in {:.1?}",
                    stats.files,
                    stats.threads,
                    started.elapsed()
                );
                diags.extend(d);
            }
            Err(e) => {
                eprintln!("qcat-lint: cannot scan {}: {e}", root.display());
                return ExitCode::from(2);
            }
        }
        diags.extend(audit_self_check());
    }
    for path in &trace_paths {
        let text = match std::fs::read_to_string(path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("qcat-lint: cannot read trace {}: {e}", path.display());
                return ExitCode::from(2);
            }
        };
        diags.extend(qcat_lint::audit_trace(&path.display().to_string(), &text));
    }

    for d in &diags {
        println!("{d}");
    }
    if diags.is_empty() {
        let what = match (run_workspace, trace_paths.is_empty()) {
            (true, true) => "workspace clean (L3, L8-L10 + audit self-check)",
            (true, false) => "workspace and trace(s) clean (L3, L8-L10 + audit self-check + T1-T5)",
            _ => "trace(s) clean (T1-T5)",
        };
        println!("qcat-lint: {what}");
        ExitCode::SUCCESS
    } else {
        println!("qcat-lint: {} violation(s)", diags.len());
        ExitCode::FAILURE
    }
}

const USAGE: &str = "usage: qcat-lint [--workspace] [--root <repo-root>] [--audit-trace <trace.jsonl>]

--workspace runs the layering lint (L3), the cross-file semantic
lints (L8 lock-order, L9 checkpoint coverage, L10 budget-blind
allocation), and the cost-model auditor self-check. The per-file
source rules L1, L2 and L5-L7 are clippy lints: run `cargo clippy
--workspace --lib --bins -- -D warnings`. --audit-trace
checks a QCAT_TRACE=json capture for schema validity, span balance,
duration consistency, governance-event enclosure, and causal parent
links (T1-T5); it may
repeat. Exits 0 when clean, 1 on violations, 2 on I/O or usage
errors. See docs/LINTS.md.";

fn usage(problem: &str) -> ExitCode {
    eprintln!("qcat-lint: {problem}\n{USAGE}");
    ExitCode::from(2)
}

/// Repo root when invoked through `cargo run -p qcat-lint`: two
/// levels above this crate's manifest; otherwise the current
/// directory.
fn default_root() -> PathBuf {
    match std::env::var_os("CARGO_MANIFEST_DIR") {
        Some(dir) => {
            let mut p = PathBuf::from(dir);
            p.pop();
            p.pop();
            p
        }
        None => PathBuf::from("."),
    }
}

/// Engine 3 smoke test: the auditor must pass a known-good tree and
/// catch a seeded violation. Guards against the auditor itself
/// silently degrading into a yes-machine.
fn audit_self_check() -> Vec<Diagnostic> {
    let schema = match Schema::new(vec![Field::new("v", AttrType::Float)]) {
        Ok(s) => s,
        Err(e) => return vec![self_check_failure(&format!("schema: {e:?}"))],
    };
    let mut b = RelationBuilder::new(schema);
    for i in 0..8 {
        if let Err(e) = b.push_row(&[(f64::from(i)).into()]) {
            return vec![self_check_failure(&format!("row: {e:?}"))];
        }
    }
    let rel = match b.finish() {
        Ok(r) => r,
        Err(e) => return vec![self_check_failure(&format!("relation: {e:?}"))],
    };
    let mut tree = CategoryTree::new(rel, (0..8).collect());
    tree.push_level(AttrId(0));
    let kid = tree.add_child(
        NodeId::ROOT,
        CategoryLabel::range(AttrId(0), NumericRange::half_open(0.0, 4.0)),
        &(0..4).collect::<Vec<u32>>(),
        0.5,
    );
    tree.add_child(
        NodeId::ROOT,
        CategoryLabel::range(AttrId(0), NumericRange::closed(4.0, 7.0)),
        &(4..8).collect::<Vec<u32>>(),
        0.5,
    );
    tree.set_p_showtuples(NodeId::ROOT, 0.5);

    let mut out = audit::audit(&tree, 1.0, 0.5);
    // Seed a violation and require the auditor to see it.
    tree.raw_node_mut(kid).p_explore = 2.0;
    if audit::audit_tree(&tree).is_empty() {
        out.push(self_check_failure("auditor missed a seeded Pw violation"));
    }
    out
}

fn self_check_failure(msg: &str) -> Diagnostic {
    Diagnostic::file_level(
        "<audit-self-check>",
        qcat_lint::Rule::A1Probability,
        msg.to_string(),
    )
}
