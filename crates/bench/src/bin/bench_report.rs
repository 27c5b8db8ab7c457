//! The perf observatory CLI: read every committed `BENCH_pr<N>.json`,
//! print per-kind trajectory tables (a metric per row, a PR per
//! column), and — under `--check` — fail on cross-PR regressions.
//!
//! ```text
//! bench_report [--dir PATH] [--check] [--max-regression PCT] [--out PATH]
//! ```
//!
//! `--dir` defaults to the repo root (resolved from the crate
//! manifest under `cargo run`, else the current directory). `--check`
//! compares the newest PR against the previous one per bench kind;
//! duration metrics gate upward, speedups downward, differential
//! mismatches absolutely. The threshold is
//! [`qcat_bench::report::DEFAULT_MAX_REGRESSION_PCT`] unless
//! overridden. Exits 0 when clean, 1 on regressions, 2 on I/O or
//! usage errors. `--out` additionally writes the rendered tables to a
//! file (the CI artifact).

#![allow(
    clippy::print_stdout,
    clippy::print_stderr,
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    reason = "L5, L1: a benchmark binary owns its console and fails loudly on a broken setup"
)]

use qcat_bench::report::{check, parse_bench_file, render, DEFAULT_MAX_REGRESSION_PCT};
use std::path::PathBuf;
use std::process::ExitCode;

struct Args {
    dir: PathBuf,
    check: bool,
    max_regression_pct: f64,
    out: Option<PathBuf>,
}

fn default_dir() -> PathBuf {
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

fn usage(problem: &str) -> ExitCode {
    eprintln!(
        "bench_report: {problem}\n\
         usage: bench_report [--dir PATH] [--check] [--max-regression PCT] [--out PATH]"
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let mut args = Args {
        dir: default_dir(),
        check: false,
        max_regression_pct: DEFAULT_MAX_REGRESSION_PCT,
        out: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--dir" => match it.next() {
                Some(v) => args.dir = PathBuf::from(v),
                None => return usage("--dir needs a path"),
            },
            "--check" => args.check = true,
            "--max-regression" => match it.next().and_then(|v| v.parse().ok()) {
                Some(v) => args.max_regression_pct = v,
                None => return usage("--max-regression needs a number (percent)"),
            },
            "--out" => match it.next() {
                Some(v) => args.out = Some(PathBuf::from(v)),
                None => return usage("--out needs a path"),
            },
            other => return usage(&format!("unknown flag: {other}")),
        }
    }

    let entries = match std::fs::read_dir(&args.dir) {
        Ok(e) => e,
        Err(e) => return usage(&format!("cannot read {}: {e}", args.dir.display())),
    };
    let mut names: Vec<String> = entries
        .filter_map(|e| e.ok())
        .filter_map(|e| e.file_name().into_string().ok())
        .filter(|n| qcat_bench::report::parse_pr_number(n).is_some())
        .collect();
    names.sort();
    let mut files = Vec::new();
    for name in &names {
        let path = args.dir.join(name);
        let text = match std::fs::read_to_string(&path) {
            Ok(t) => t,
            Err(e) => return usage(&format!("cannot read {}: {e}", path.display())),
        };
        match parse_bench_file(name, &text) {
            Ok(f) => files.push(f),
            Err(e) => return usage(&e),
        }
    }
    if files.is_empty() {
        return usage(&format!(
            "no BENCH_pr<N>.json reports in {}",
            args.dir.display()
        ));
    }

    let table = render(&files);
    print!("{table}");
    if let Some(out) = &args.out {
        if let Err(e) = std::fs::write(out, &table) {
            return usage(&format!("cannot write {}: {e}", out.display()));
        }
        println!("wrote {}", out.display());
    }

    if !args.check {
        return ExitCode::SUCCESS;
    }
    let findings = check(&files, args.max_regression_pct);
    if findings.is_empty() {
        println!(
            "bench_report: no regressions beyond {:.0}% across {} report(s)",
            args.max_regression_pct,
            files.len()
        );
        ExitCode::SUCCESS
    } else {
        for f in &findings {
            println!("REGRESSION {f}");
        }
        println!("bench_report: {} regression(s)", findings.len());
        ExitCode::FAILURE
    }
}
