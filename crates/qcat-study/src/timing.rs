//! Execution-time study (paper Figure 13): average categorization
//! wall-clock vs the `M` parameter.
//!
//! Beyond the paper's mean, each `M` reports the exact median and p95
//! over per-query timings (means are skew-sensitive at the small query
//! counts the scaled config produces), and the whole sweep carries a
//! per-phase profile: the categorizer's span histograms — elimination,
//! partitioning, cost estimation, selection — collected through
//! `qcat-obs`, attributing the wall-clock the way the paper's
//! "dominated by partitioning" claim requires.

use crate::broaden::broaden_query;
use crate::env::StudyEnv;
use crate::report::{fnum, TextTable};
use qcat_core::Categorizer;
use qcat_exec::{execute, ExecOptions};
use qcat_obs::Snapshot;
use std::time::Instant;

fn in_window(size: usize, config: &TimingConfig) -> bool {
    size >= config.result_size_range.0 && size <= config.result_size_range.1
}

/// Timing-study shape.
#[derive(Debug, Clone)]
pub struct TimingConfig {
    /// The `M` values to sweep (paper: 10, 20, 50, 100).
    pub m_values: Vec<usize>,
    /// How many queries to average over (paper: 100).
    pub queries: usize,
    /// Accept queries whose result size falls in this window (the
    /// paper's sample averaged ≈ 2000 tuples).
    pub result_size_range: (usize, usize),
    /// Give up hunting for in-window queries after executing this many
    /// candidates (broadened region queries repeat, and at large data
    /// scales small windows may simply not exist — without a cap the
    /// collection phase would scan the whole workload).
    pub max_candidates: usize,
    /// Worker-thread counts to sweep; every `M` is measured once per
    /// entry. `0` means "resolve from the environment" (see
    /// `qcat_core::CategorizerConfig::threads`), so the default sweep
    /// measures exactly what a production call would run.
    pub thread_counts: Vec<usize>,
}

impl Default for TimingConfig {
    fn default() -> Self {
        TimingConfig {
            m_values: vec![10, 20, 50, 100],
            queries: 100,
            result_size_range: (500, 5_000),
            max_candidates: 2_000,
            thread_counts: vec![0],
        }
    }
}

impl TimingConfig {
    /// Scale the acceptance window to the relation: the paper's ~2000
    /// average over 1.7 M rows is ~0.12 %; accept 0.02 %–1 % so the
    /// sweep finds comparable queries at any scale.
    pub fn scaled_to(mut self, relation_rows: usize) -> Self {
        self.result_size_range = (
            (relation_rows / 5_000).max(50),
            (relation_rows / 50).max(5_000),
        );
        self.max_candidates = 5_000;
        self
    }
}

/// One row of Figure 13.
#[derive(Debug, Clone, Copy)]
pub struct TimingRow {
    /// The `M` value.
    pub m: usize,
    /// The configured worker-thread count (0 = resolved from the
    /// environment).
    pub threads: usize,
    /// Average categorization time in milliseconds.
    pub avg_ms: f64,
    /// Exact median per-query time in milliseconds.
    pub median_ms: f64,
    /// Exact 95th-percentile per-query time in milliseconds.
    pub p95_ms: f64,
    /// Queries measured.
    pub queries: usize,
    /// Average result-set size of those queries.
    pub avg_result_size: f64,
}

/// The timing sweep's output: one [`TimingRow`] per `(M, thread
/// count)` pair, plus the per-phase metrics the categorizer recorded
/// while the sweep ran.
#[derive(Debug, Clone)]
pub struct TimingStudy {
    /// Figure 13 rows: `m_values` outer, `thread_counts` inner.
    pub rows: Vec<TimingRow>,
    /// Span histograms and counters covering exactly the measurement
    /// loops (render with [`render_phase_profile`]).
    pub profile: Snapshot,
}

/// Exact rank-`ceil(q·n)` order statistic of an ascending-sorted
/// slice; 0.0 when empty.
fn sorted_quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Run the sweep. Queries come from the workload, broadened the same
/// way the simulated study broadens them, filtered to the configured
/// result-size window.
///
/// Phase metrics go to the already-current `qcat-obs` recorder when
/// one is installed (so a `QCAT_TRACE=json` run keeps its single event
/// stream and the profile is a before/after snapshot delta); otherwise
/// the sweep installs a private metrics-only recorder for its own
/// duration.
pub fn run_timing_study(env: &StudyEnv, config: &TimingConfig) -> TimingStudy {
    let schema = env.relation.schema().clone();
    let stats = env.stats_for(&env.log);
    // Collect measurement queries: raw workload queries whose result
    // size falls in the window (the paper times "100 queries taken
    // from the workload", average result ≈ 2000). If raw queries are
    // too selective at small data scales, broadened region queries
    // backfill. The hunt is capped so large scales cannot degenerate
    // into a full workload scan.
    let mut cases = Vec::with_capacity(config.queries);
    for (candidates, w) in env.log.queries().iter().enumerate() {
        if cases.len() >= config.queries || candidates >= config.max_candidates {
            break;
        }
        let Ok(result) = execute(&env.relation, w, &ExecOptions::default()) else {
            continue;
        };
        if in_window(result.len(), config) {
            cases.push((w.clone(), result));
        }
    }
    if cases.len() < config.queries {
        let mut seen: std::collections::HashSet<String> = std::collections::HashSet::new();
        for w in env.log.queries() {
            if cases.len() >= config.queries {
                break;
            }
            let Some(qw) = broaden_query(w, &schema, &env.geography) else {
                continue;
            };
            if !seen.insert(format!("{:?}", qw.conditions)) {
                continue;
            }
            let Ok(result) = execute(&env.relation, &qw, &ExecOptions::default()) else {
                continue;
            };
            if in_window(result.len(), config) {
                cases.push((qw, result));
            }
        }
    }
    let avg_size = if cases.is_empty() {
        0.0
    } else {
        cases.iter().map(|(_, r)| r.len() as f64).sum::<f64>() / cases.len() as f64
    };
    let measure = || {
        let _span = qcat_obs::span!("study.timing.sweep", cases = cases.len());
        let mut rows = Vec::with_capacity(config.m_values.len() * config.thread_counts.len());
        for &m in &config.m_values {
            for &threads in &config.thread_counts {
                let cat_config = env.config.with_max_leaf_tuples(m).with_threads(threads);
                let categorizer = Categorizer::new(&stats, cat_config);
                let mut per_query_ms = Vec::with_capacity(cases.len());
                for (qw, result) in &cases {
                    let start = Instant::now();
                    let tree = categorizer.categorize(result, Some(qw));
                    per_query_ms.push(start.elapsed().as_secs_f64() * 1_000.0);
                    std::hint::black_box(tree.node_count());
                }
                let n = per_query_ms.len();
                let mut sorted = per_query_ms;
                sorted.sort_by(f64::total_cmp);
                rows.push(TimingRow {
                    m,
                    threads,
                    avg_ms: if n == 0 {
                        0.0
                    } else {
                        sorted.iter().sum::<f64>() / n as f64
                    },
                    median_ms: sorted_quantile(&sorted, 0.50),
                    p95_ms: sorted_quantile(&sorted, 0.95),
                    queries: n,
                    avg_result_size: avg_size,
                });
            }
        }
        rows
    };
    match qcat_obs::current_recorder() {
        Some(rec) => {
            let baseline = rec.snapshot();
            let rows = measure();
            TimingStudy {
                rows,
                profile: rec.snapshot().delta(&baseline),
            }
        }
        None => {
            let rec = qcat_obs::Recorder::metrics_only();
            let rows = qcat_obs::with_recorder(&rec, measure);
            TimingStudy {
                rows,
                profile: rec.snapshot(),
            }
        }
    }
}

/// Render Figure 13 as a text table.
pub fn render_figure13(rows: &[TimingRow]) -> TextTable {
    let mut t = TextTable::new(vec![
        "M",
        "Threads",
        "Avg time (ms)",
        "Median (ms)",
        "p95 (ms)",
        "Queries",
        "Avg result size",
    ]);
    for r in rows {
        t.row(vec![
            r.m.to_string(),
            if r.threads == 0 {
                "auto".to_string()
            } else {
                r.threads.to_string()
            },
            fnum(r.avg_ms, 2),
            fnum(r.median_ms, 2),
            fnum(r.p95_ms, 2),
            r.queries.to_string(),
            fnum(r.avg_result_size, 0),
        ]);
    }
    t
}

/// Render the sweep's per-phase breakdown: every `categorize*` span
/// with count, p50/p95, total time, and share of the root span's
/// total — the "where do the seconds go" companion to Figure 13.
pub fn render_phase_profile(profile: &Snapshot) -> TextTable {
    let mut t = TextTable::new(vec![
        "Phase",
        "Count",
        "p50 (ms)",
        "p95 (ms)",
        "Total (ms)",
        "Share",
    ]);
    let stats: Vec<_> = profile
        .span_stats()
        .into_iter()
        .filter(|s| s.name.starts_with("categorize"))
        .collect();
    let whole: u64 = stats
        .iter()
        .find(|s| s.name == "categorize")
        .map_or(0, |s| s.total_ns);
    for s in &stats {
        let share = if whole == 0 {
            "-".to_string()
        } else {
            format!("{:.1}%", s.total_ns as f64 * 100.0 / whole as f64)
        };
        t.row(vec![
            s.name.clone(),
            s.count.to_string(),
            fnum(s.p50_ns as f64 / 1e6, 3),
            fnum(s.p95_ns as f64 / 1e6, 3),
            fnum(s.total_ns as f64 / 1e6, 1),
            share,
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::env::StudyScale;

    #[test]
    fn sweep_produces_a_row_per_m() {
        let env = StudyEnv::generate(StudyScale::Smoke, 31);
        let config = TimingConfig {
            m_values: vec![10, 50],
            queries: 5,
            result_size_range: (50, 6_000),
            thread_counts: vec![1, 2],
            ..Default::default()
        };
        let study = run_timing_study(&env, &config);
        // One row per (M, thread count): m_values outer, threads inner.
        assert_eq!(study.rows.len(), 4);
        assert_eq!(
            study
                .rows
                .iter()
                .map(|r| (r.m, r.threads))
                .collect::<Vec<_>>(),
            vec![(10, 1), (10, 2), (50, 1), (50, 2)]
        );
        for r in &study.rows {
            assert!(r.queries > 0, "no measurement queries found");
            assert!(r.avg_ms > 0.0);
            assert!(r.median_ms > 0.0);
            // Order statistics bracket sensibly.
            assert!(r.median_ms <= r.p95_ms + 1e-12);
            assert!(r.avg_result_size > 0.0);
        }
        let rendered = render_figure13(&study.rows).render();
        assert!(rendered.contains("Avg time"));
        assert!(rendered.contains("Median"));
        assert!(rendered.contains("p95"));
        // The sweep profiled the categorizer's phases.
        let names: Vec<_> = study.profile.spans.keys().cloned().collect();
        assert!(names.iter().any(|n| n == "categorize"), "{names:?}");
        assert!(
            names.iter().any(|n| n == "categorize.level.partition"),
            "{names:?}"
        );
        let table = render_phase_profile(&study.profile).render();
        assert!(table.contains("categorize.level.cost"), "{table}");
        assert!(table.contains('%'), "{table}");
    }

    #[test]
    fn quantile_of_sorted_slice_is_exact() {
        let v = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0];
        assert_eq!(sorted_quantile(&v, 0.50), 5.0);
        assert_eq!(sorted_quantile(&v, 0.95), 10.0);
        assert_eq!(sorted_quantile(&v, 1.0), 10.0);
        assert_eq!(sorted_quantile(&v, 0.0), 1.0);
        assert_eq!(sorted_quantile(&[], 0.5), 0.0);
    }

    #[test]
    fn empty_case_handled() {
        let env = StudyEnv::generate(StudyScale::Smoke, 32);
        let config = TimingConfig {
            m_values: vec![20],
            queries: 5,
            // Impossible window → no cases.
            result_size_range: (usize::MAX - 1, usize::MAX),
            ..Default::default()
        };
        let study = run_timing_study(&env, &config);
        assert_eq!(study.rows[0].queries, 0);
        assert_eq!(study.rows[0].avg_ms, 0.0);
        assert_eq!(study.rows[0].median_ms, 0.0);
        assert_eq!(study.rows[0].p95_ms, 0.0);
    }
}
