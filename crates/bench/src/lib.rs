//! First-party benchmark harness: fixtures and summary statistics for
//! the hermetic `bench_categorize` binary.
//!
//! No criterion — the tier-1 build resolves offline, so measurement is
//! `std::time::Instant` around whole categorize calls plus the
//! qcat-obs span profile for the per-phase breakdown. See
//! docs/PERFORMANCE.md for the methodology and the `BENCH_*.json`
//! schema.

#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    reason = "L1: benchmark fixtures fail loudly on a broken setup"
)]

use qcat_exec::{ExecOptions, ResultSet};
use qcat_sql::NormalizedQuery;
use qcat_study::{broaden_query, StudyEnv, StudyScale};
use qcat_workload::WorkloadStatistics;

pub mod report;

/// Schema version stamped into every `BENCH_*.json` report. Version 2
/// added `schema_version` and `git` provenance fields; version 3 added
/// the categorize report's per-run bucket medians (`run_medians_ms`)
/// and its serial-vs-auto `paired` section. Version 1 reports predate
/// the stamp (and parse as before — `bench_report` does not require
/// it).
pub const BENCH_SCHEMA_VERSION: u32 = 3;

/// The current `git describe --always --dirty` of the working tree,
/// or `"unknown"` when git is unavailable (hermetic build
/// environments without a repo). Provenance only — never parsed.
pub fn git_describe() -> String {
    std::process::Command::new("git")
        .args(["describe", "--always", "--dirty"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// A benchmark environment: generated dataset, workload statistics,
/// and a set of broadened queries with their results.
pub struct BenchEnv {
    /// The study environment (relation, log, geography, config).
    pub env: StudyEnv,
    /// Statistics over the full log.
    pub stats: WorkloadStatistics,
    /// `(broadened query, result)` cases spanning a range of result
    /// sizes.
    pub cases: Vec<(NormalizedQuery, ResultSet)>,
}

/// Build the Smoke-scale benchmark environment: deterministic for a
/// given `seed`, capped at `max_cases` oversized result sets.
pub fn bench_env(seed: u64, max_cases: usize) -> BenchEnv {
    bench_env_at(StudyScale::Smoke, seed, max_cases)
}

/// Rows / queries / shard size of the `scale: large` bench tier:
/// paper volume by default, shrinkable through environment variables
/// so CI can smoke the same code path in seconds. Returns
/// `(rows, queries, shard_rows)`.
pub fn large_tier_dims() -> (usize, usize, usize) {
    (
        env_usize("QCAT_LARGE_ROWS", StudyScale::Paper.home_rows()),
        env_usize("QCAT_LARGE_QUERIES", StudyScale::Paper.workload_queries()),
        env_usize("QCAT_LARGE_SHARD_ROWS", 65_536),
    )
}

fn env_usize(name: &str, default: usize) -> usize {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|&v| v > 0)
        .unwrap_or(default)
}

/// [`bench_env`] at an explicit [`StudyScale`] (the `scale: large`
/// tier runs `StudyScale::Custom` at paper volume).
pub fn bench_env_at(scale: StudyScale, seed: u64, max_cases: usize) -> BenchEnv {
    let env = StudyEnv::generate(scale, seed);
    let stats = env.stats_for(&env.log);
    let schema = env.relation.schema().clone();
    let mut cases = Vec::new();
    for w in env.log.queries() {
        if cases.len() >= max_cases {
            break;
        }
        let Some(qw) = broaden_query(w, &schema, &env.geography) else {
            continue;
        };
        let Ok(result) = qcat_exec::execute(&env.relation, &qw, &ExecOptions::default()) else {
            continue;
        };
        if result.len() > env.config.max_leaf_tuples {
            cases.push((qw, result));
        }
    }
    assert!(!cases.is_empty(), "bench fixture produced no cases");
    BenchEnv { env, stats, cases }
}

/// Mean / median / p95 over a set of durations, in milliseconds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Arithmetic mean.
    pub mean_ms: f64,
    /// 50th percentile (nearest-rank).
    pub median_ms: f64,
    /// 95th percentile (nearest-rank).
    pub p95_ms: f64,
}

/// Summarize a sample of durations in nanoseconds. Empty samples
/// summarize to zeros.
pub fn summarize(samples_ns: &[u64]) -> Summary {
    if samples_ns.is_empty() {
        return Summary {
            mean_ms: 0.0,
            median_ms: 0.0,
            p95_ms: 0.0,
        };
    }
    let mut sorted = samples_ns.to_vec();
    sorted.sort_unstable();
    let mean = sorted.iter().sum::<u64>() as f64 / sorted.len() as f64;
    Summary {
        mean_ms: mean / 1e6,
        median_ms: quantile_ns(&sorted, 0.50) / 1e6,
        p95_ms: quantile_ns(&sorted, 0.95) / 1e6,
    }
}

/// Nearest-rank quantile of an ascending-sorted sample.
fn quantile_ns(sorted: &[u64], q: f64) -> f64 {
    let rank = ((sorted.len() as f64) * q).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1] as f64
}

/// FNV-1a over a row-id list; the determinism sections of bench
/// reports pin that every (layout, access path, thread width)
/// combination hashed identical rows.
pub fn fnv1a_rows(rows: &[u32]) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for &r in rows {
        for b in r.to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x100000001b3);
        }
    }
    h
}

/// Write a bench binary's report and return the path written: `out`
/// when given, else `target/BENCH_<bench>_<scale>.json`, so committed
/// `BENCH_pr<N>.json` history is only ever written through an explicit
/// `--out`. Creates the report's directory.
pub fn write_report(out: Option<&str>, bench: &str, scale: &str, json: &str) -> String {
    let path = out.map_or_else(|| format!("target/BENCH_{bench}_{scale}.json"), str::to_string);
    if let Some(dir) = std::path::Path::new(&path).parent() {
        if !dir.as_os_str().is_empty() {
            std::fs::create_dir_all(dir).expect("create the report directory");
        }
    }
    std::fs::write(&path, json).expect("write bench report");
    path
}

/// Escape a string for inclusion in a JSON string literal.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Format an `f64` for JSON: finite numbers as-is, everything else as
/// `null` (JSON has no NaN/Infinity).
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:.6}")
    } else {
        "null".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_of_known_sample() {
        // 1..=100 ms in ns.
        let ns: Vec<u64> = (1..=100u64).map(|i| i * 1_000_000).collect();
        let s = summarize(&ns);
        assert!((s.mean_ms - 50.5).abs() < 1e-9);
        assert!((s.median_ms - 50.0).abs() < 1e-9);
        assert!((s.p95_ms - 95.0).abs() < 1e-9);
    }

    #[test]
    fn empty_sample_is_zero() {
        assert_eq!(summarize(&[]).mean_ms, 0.0);
    }

    #[test]
    fn escaping_and_numbers() {
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(json_num(f64::NAN), "null");
        assert!(json_num(1.5).starts_with("1.5"));
    }

    #[test]
    fn fixture_produces_oversized_cases() {
        let b = bench_env(1234, 4);
        assert!(!b.cases.is_empty());
        for (_, r) in &b.cases {
            assert!(r.len() > b.env.config.max_leaf_tuples);
        }
        assert!(b.stats.n_queries() > 0);
    }
}
