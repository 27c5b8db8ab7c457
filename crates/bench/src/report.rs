//! The perf-trajectory observatory: parse every committed
//! `BENCH_pr<N>.json`, line the headline metrics up per PR, and flag
//! cross-PR regressions.
//!
//! Two report kinds exist (the `"bench"` key): `categorize`
//! (per-thread-count totals, speedups, and the Figure-13 phase
//! breakdown) and `pipeline` (access-path, serve cold/warm, chaos).
//! Each kind gets its own trajectory table — a metric per row, a PR
//! per column — so "partitioning dominates" and "the index path held
//! its speedup" are one glance, not an archaeology dig.
//!
//! Regression checking compares the newest PR against the one before
//! it, per kind: duration metrics (`*_ms`) regress upward, speedup
//! metrics regress downward. The default gate is deliberately loose —
//! the corpus is measured on whatever machine each PR landed on, and
//! cross-session noise above 100% is real (see `BENCH_pr4` vs
//! `BENCH_pr5`); the gate exists to catch order-of-magnitude cliffs,
//! not millisecond jitter.

use qcat_obs::json::{parse, JsonValue};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Regressions beyond this percentage fail `--check` by default.
/// Chosen above the observed cross-machine noise floor of the
/// committed corpus (~150%) but far below a real cliff (10x = 900%).
pub const DEFAULT_MAX_REGRESSION_PCT: f64 = 300.0;

/// One parsed benchmark report file.
#[derive(Debug, Clone)]
pub struct BenchFile {
    /// PR number parsed from the `BENCH_pr<N>.json` filename.
    pub pr: u32,
    /// The filename the report came from (diagnostics only).
    pub name: String,
    /// The `"bench"` kind: `categorize` or `pipeline`.
    pub kind: String,
    /// Flattened `(metric name, value)` pairs extracted from the
    /// report, in a stable order.
    pub metrics: Vec<(String, f64)>,
}

/// Parse the PR number out of a `BENCH_pr<N>.json` filename; `None`
/// for anything else.
pub fn parse_pr_number(filename: &str) -> Option<u32> {
    let rest = filename.strip_prefix("BENCH_pr")?;
    let digits = rest.strip_suffix(".json")?;
    if digits.is_empty() || !digits.bytes().all(|b| b.is_ascii_digit()) {
        return None;
    }
    digits.parse().ok()
}

/// Parse one report file's text into a [`BenchFile`]. Errors carry
/// the filename for context.
pub fn parse_bench_file(name: &str, text: &str) -> Result<BenchFile, String> {
    let pr = parse_pr_number(name).ok_or_else(|| {
        format!("{name}: not a BENCH_pr<N>.json filename")
    })?;
    let v = parse(text).map_err(|e| format!("{name}: {e}"))?;
    let base_kind = v
        .get("bench")
        .and_then(JsonValue::as_str)
        .ok_or_else(|| format!("{name}: missing \"bench\" kind"))?
        .to_string();
    let metrics = match base_kind.as_str() {
        "categorize" => categorize_metrics(&v),
        "pipeline" => pipeline_metrics(&v),
        other => return Err(format!("{name}: unknown bench kind `{other}`")),
    };
    if metrics.is_empty() {
        return Err(format!("{name}: no metrics extracted — schema drift?"));
    }
    // Non-smoke tiers get their own trajectory kind (`pipeline.large`)
    // so a paper-scale report never gates against a smoke baseline:
    // the numbers differ by orders of magnitude by design.
    let scale = v.get("scale").and_then(JsonValue::as_str).unwrap_or("smoke");
    let kind = if scale == "smoke" {
        base_kind
    } else {
        format!("{base_kind}.{scale}")
    };
    Ok(BenchFile {
        pr,
        name: name.to_string(),
        kind,
        metrics,
    })
}

fn num(v: &JsonValue, key: &str) -> Option<f64> {
    v.get(key).and_then(JsonValue::as_f64)
}

fn summary_metrics(out: &mut Vec<(String, f64)>, prefix: &str, s: &JsonValue) {
    for stat in ["mean_ms", "median_ms", "p95_ms"] {
        if let Some(v) = num(s, stat) {
            out.push((format!("{prefix}.{stat}"), v));
        }
    }
}

/// Metrics of a `"bench": "categorize"` report: per-thread-count
/// totals and speedups, plus the serial (first) entry's per-phase
/// breakdown.
fn categorize_metrics(v: &JsonValue) -> Vec<(String, f64)> {
    let mut out = Vec::new();
    let Some(JsonValue::Arr(threads)) = v.get("threads") else {
        return out;
    };
    for (i, t) in threads.iter().enumerate() {
        let label = match num(t, "threads") {
            Some(n) => format!("t{n}"),
            None => format!("entry{i}"),
        };
        if let Some(total) = t.get("total") {
            summary_metrics(&mut out, &format!("total.{label}"), total);
        }
        if let Some(s) = num(t, "speedup_vs_serial") {
            out.push((format!("speedup.{label}"), s));
        }
    }
    // Phase trajectory from the first (serial) entry, where phase
    // timings are not interleaved with pool scheduling.
    if let Some(JsonValue::Arr(phases)) = threads.first().and_then(|t| t.get("phases")) {
        for p in phases {
            let Some(name) = p.get("name").and_then(JsonValue::as_str) else {
                continue;
            };
            for stat in ["median_ms", "total_ms"] {
                if let Some(v) = num(p, stat) {
                    out.push((format!("phase.{name}.{stat}"), v));
                }
            }
        }
    }
    out
}

/// Metrics of a `"bench": "pipeline"` report: access-path, serve
/// cold/warm, and the differential/chaos counters.
fn pipeline_metrics(v: &JsonValue) -> Vec<(String, f64)> {
    let mut out = Vec::new();
    if let Some(JsonValue::Arr(paths)) = v.get("access_path") {
        for p in paths {
            let Some(path) = p.get("path").and_then(JsonValue::as_str) else {
                continue;
            };
            if let Some(s) = p.get("summary") {
                summary_metrics(&mut out, &format!("access.{path}"), s);
            }
            if let Some(s) = num(p, "speedup_vs_scan") {
                out.push((format!("speedup.access.{path}"), s));
            }
        }
    }
    if let Some(serve) = v.get("serve") {
        for leg in ["cold", "warm"] {
            if let Some(s) = serve.get(leg) {
                summary_metrics(&mut out, &format!("serve.{leg}"), s);
            }
        }
        if let Some(s) = num(serve, "warm_speedup") {
            out.push(("speedup.serve.warm".to_string(), s));
        }
    }
    // Large-tier thread sweeps: index build and full scan, one entry
    // per (layout, thread width), plus each entry's speedup over the
    // serial single-shard baseline.
    for section in ["index_build", "scan"] {
        if let Some(JsonValue::Arr(entries)) = v.get(section) {
            for e in entries {
                let mode = e.get("mode").and_then(JsonValue::as_str).unwrap_or("?");
                let label = match num(e, "threads") {
                    Some(t) => format!("{section}.{mode}.t{t}"),
                    None => format!("{section}.{mode}"),
                };
                if let Some(s) = e.get("summary") {
                    summary_metrics(&mut out, &label, s);
                }
                if let Some(s) = num(e, "speedup_vs_serial") {
                    if let Some(t) = num(e, "threads") {
                        out.push((format!("speedup.{section}.t{t}"), s));
                    }
                }
            }
        }
    }
    if let Some(pruning) = v.get("pruning") {
        for key in ["queries_pruned", "shards_pruned_total"] {
            if let Some(m) = num(pruning, key) {
                out.push((format!("pruning.{key}"), m));
            }
        }
    }
    if let Some(det) = v.get("determinism") {
        if let Some(m) = num(det, "mismatches") {
            out.push(("determinism.mismatches".to_string(), m));
        }
    }
    if let Some(diff) = v.get("differential") {
        if let Some(m) = num(diff, "mismatches") {
            out.push(("differential.mismatches".to_string(), m));
        }
    }
    if let Some(chaos) = v.get("chaos") {
        for key in ["ok", "degraded", "shed", "errors"] {
            if let Some(m) = num(chaos, key) {
                out.push((format!("chaos.{key}"), m));
            }
        }
    }
    // Refinement-tier drill-down classes: the containment summary is
    // the headline (serve.containment.* is the trajectory the roadmap
    // tracks), and containment.mismatches gates absolutely via the
    // blanket `*mismatches` rule.
    if let Some(refine) = v.get("refinement") {
        for (class, prefix) in [
            ("exact_hit", "serve.exact"),
            ("containment_hit", "serve.containment"),
            ("cold", "serve.refine_cold"),
        ] {
            if let Some(s) = refine.get(class) {
                summary_metrics(&mut out, prefix, s);
            }
        }
        if let Some(counts) = refine.get("counts") {
            for key in ["exact_hit", "containment_hit", "cold", "other"] {
                if let Some(m) = num(counts, key) {
                    out.push((format!("refinement.count.{key}"), m));
                }
            }
        }
        if let Some(s) = num(refine, "containment_speedup") {
            out.push(("speedup.serve.containment".to_string(), s));
        }
    }
    if let Some(contain) = v.get("containment") {
        if let Some(m) = num(contain, "mismatches") {
            out.push(("containment.mismatches".to_string(), m));
        }
    }
    // Ingest-tier append/invalidation telemetry: append latency,
    // eviction counters, retention, and `ingest.mismatches` — which
    // gates absolutely via the blanket `*mismatches` rule. Reports up
    // to BENCH_pr20 also ran a whole-table epoch-bump baseline server
    // (`append_epoch`, `epoch_live`); those keys are still read so the
    // committed trajectory keeps its history.
    if let Some(ing) = v.get("ingest") {
        for (key, prefix) in [("append", "ingest.append"), ("append_epoch", "ingest.append_epoch")] {
            if let Some(s) = ing.get(key) {
                summary_metrics(&mut out, prefix, s);
            }
        }
        for key in ["appends", "rows_appended", "evicted", "kept", "mismatches"] {
            if let Some(m) = num(ing, key) {
                out.push((format!("ingest.{key}"), m));
            }
        }
        // Commit latency per base size: one series per point, so the
        // trajectory shows whether append cost stays flat in base size.
        if let Some(JsonValue::Arr(points)) = ing.get("commit_sweep") {
            for p in points {
                let Some(rows) = num(p, "base_rows") else {
                    continue;
                };
                let prefix = format!("ingest.commit_{rows}");
                if let Some(s) = p.get("commit") {
                    summary_metrics(&mut out, &prefix, s);
                }
                if let Some(noise) = num(p, "noise_ms") {
                    out.push((format!("{prefix}.noise_ms"), noise));
                }
            }
        }
    }
    if let Some(ret) = v.get("retention") {
        for key in ["selective_live", "epoch_live"] {
            if let Some(m) = num(ret, key) {
                out.push((format!("retention.{key}"), m));
            }
        }
    }
    if let Some(spec) = v.get("speculation") {
        for key in [
            "considered",
            "filled",
            "already_cached",
            "degraded",
            "tree_hits_after",
        ] {
            if let Some(m) = num(spec, key) {
                out.push((format!("speculation.{key}"), m));
            }
        }
    }
    out
}

/// The trajectory of one metric across PRs: `(pr, value)` ascending
/// by PR.
pub type Trajectory = Vec<(u32, f64)>;

/// Group parsed reports into per-kind metric trajectories. Reports
/// sort by PR; a PR appearing twice for one kind keeps the later
/// file (lexicographically) and is a corpus bug anyway.
pub fn trajectories(files: &[BenchFile]) -> BTreeMap<String, BTreeMap<String, Trajectory>> {
    let mut sorted: Vec<&BenchFile> = files.iter().collect();
    sorted.sort_by(|a, b| (a.pr, &a.name).cmp(&(b.pr, &b.name)));
    let mut out: BTreeMap<String, BTreeMap<String, Trajectory>> = BTreeMap::new();
    for f in sorted {
        let per_kind = out.entry(f.kind.clone()).or_default();
        for (metric, value) in &f.metrics {
            let t = per_kind.entry(metric.clone()).or_default();
            if let Some(last) = t.last_mut() {
                if last.0 == f.pr {
                    last.1 = *value;
                    continue;
                }
            }
            t.push((f.pr, *value));
        }
    }
    out
}

/// Render the trajectory tables as text: one table per kind, a
/// metric per row, a PR per column, `-` where a PR lacks the metric.
///
/// PR numbers between the first and last measured PR of a kind that
/// have *no committed report at all* still get a column — headed
/// `pr<N>*` with every cell `-`, and a footnote naming the missing
/// file. Without the placeholder, a skipped PR would silently shift
/// the columns and make its neighbors look adjacent; the gap is a
/// fact about the corpus, not a regression.
pub fn render(files: &[BenchFile]) -> String {
    let groups = trajectories(files);
    let mut out = String::new();
    for (kind, metrics) in &groups {
        let mut measured: Vec<u32> = metrics
            .values()
            .flat_map(|t| t.iter().map(|(pr, _)| *pr))
            .collect();
        measured.sort_unstable();
        measured.dedup();
        let (lo, hi) = match (measured.first(), measured.last()) {
            (Some(&lo), Some(&hi)) => (lo, hi),
            _ => continue,
        };
        let prs: Vec<(u32, bool)> = (lo..=hi)
            .map(|pr| (pr, measured.binary_search(&pr).is_ok()))
            .collect();
        let gaps: Vec<u32> = prs.iter().filter(|(_, m)| !m).map(|(pr, _)| *pr).collect();
        let name_w = metrics
            .keys()
            .map(String::len)
            .max()
            .unwrap_or(6)
            .max("metric".len());
        let _ = writeln!(out, "== bench: {kind} ==");
        let _ = write!(out, "{:<name_w$}", "metric");
        for (pr, present) in &prs {
            let head = if *present {
                format!("pr{pr}")
            } else {
                format!("pr{pr}*")
            };
            let _ = write!(out, " {head:>12}");
        }
        out.push('\n');
        for (metric, t) in metrics {
            let _ = write!(out, "{metric:<name_w$}");
            for (pr, _) in &prs {
                match t.iter().find(|(p, _)| p == pr) {
                    Some((_, v)) => {
                        let _ = write!(out, " {v:>12.6}");
                    }
                    None => {
                        let _ = write!(out, " {:>12}", "-");
                    }
                }
            }
            out.push('\n');
        }
        for pr in &gaps {
            let _ = writeln!(
                out,
                "* pr{pr}: no BENCH_pr{pr}.json committed — gap, not a regression"
            );
        }
        out.push('\n');
    }
    if groups.is_empty() {
        out.push_str("no BENCH_pr<N>.json reports found\n");
    }
    out
}

/// One cross-PR regression: `metric` moved the wrong way by
/// `pct` percent between `from_pr` and `to_pr`.
#[derive(Debug, Clone, PartialEq)]
pub struct Regression {
    /// The bench kind the metric belongs to.
    pub kind: String,
    /// The metric that regressed.
    pub metric: String,
    /// The older PR (baseline).
    pub from_pr: u32,
    /// The newer PR (measured).
    pub to_pr: u32,
    /// Regression magnitude in percent (always positive).
    pub pct: f64,
}

impl std::fmt::Display for Regression {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "[{}] {} regressed {:.1}% from pr{} to pr{}",
            self.kind, self.metric, self.pct, self.from_pr, self.to_pr
        )
    }
}

/// Direction-aware regression check of the newest PR against the one
/// before it, per kind. Median duration metrics (ending
/// `.median_ms`) regress when they grow; `speedup.*` metrics regress
/// when they shrink; correctness counters (any metric ending
/// `mismatches` — differential or determinism) regress when they
/// become nonzero.
/// Means and p95s are informational only — at sub-millisecond scale
/// their cross-machine noise (500%+ on the index probe's p95) would
/// drown any real signal.
pub fn check(files: &[BenchFile], max_regression_pct: f64) -> Vec<Regression> {
    let mut findings = Vec::new();
    for (kind, metrics) in trajectories(files) {
        for (metric, t) in metrics {
            let [.., (prev_pr, prev), (last_pr, last)] = t.as_slice() else {
                // Mismatches are absolute even with no baseline.
                if metric.ends_with("mismatches") {
                    if let Some(&(pr, v)) = t.last() {
                        if v > 0.0 {
                            findings.push(Regression {
                                kind: kind.clone(),
                                metric,
                                from_pr: pr,
                                to_pr: pr,
                                pct: 100.0 * v,
                            });
                        }
                    }
                }
                continue;
            };
            let (prev_pr, prev, last_pr, last) = (*prev_pr, *prev, *last_pr, *last);
            if metric.ends_with("mismatches") {
                if last > 0.0 {
                    findings.push(Regression {
                        kind: kind.clone(),
                        metric,
                        from_pr: prev_pr,
                        to_pr: last_pr,
                        pct: 100.0 * last,
                    });
                }
                continue;
            }
            let pct = if metric.ends_with(".median_ms") && prev > 0.0 {
                (last / prev - 1.0) * 100.0
            } else if metric.starts_with("speedup.") && last > 0.0 && prev > 0.0 {
                (prev / last - 1.0) * 100.0
            } else {
                continue;
            };
            if pct.is_finite() && pct > max_regression_pct {
                findings.push(Regression {
                    kind: kind.clone(),
                    metric,
                    from_pr: prev_pr,
                    to_pr: last_pr,
                    pct,
                });
            }
        }
    }
    findings
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pipeline_fixture(pr: u32, cold_median: f64, warm_speedup: f64) -> BenchFile {
        let text = format!(
            "{{\"bench\": \"pipeline\", \"serve\": {{\
               \"cold\": {{\"mean_ms\": {m}, \"median_ms\": {m}, \"p95_ms\": {m}}},\
               \"warm\": {{\"mean_ms\": 0.01, \"median_ms\": 0.01, \"p95_ms\": 0.02}},\
               \"warm_speedup\": {s}}},\
               \"differential\": {{\"mismatches\": 0}}}}",
            m = cold_median,
            s = warm_speedup
        );
        parse_bench_file(&format!("BENCH_pr{pr}.json"), &text).expect("fixture parses")
    }

    #[test]
    fn filenames_parse_to_pr_numbers() {
        assert_eq!(parse_pr_number("BENCH_pr3.json"), Some(3));
        assert_eq!(parse_pr_number("BENCH_pr12.json"), Some(12));
        assert_eq!(parse_pr_number("BENCH_pr.json"), None);
        assert_eq!(parse_pr_number("BENCH_prX.json"), None);
        assert_eq!(parse_pr_number("bench_pr3.json"), None);
        assert_eq!(parse_pr_number("BENCH_pr3.json.bak"), None);
    }

    #[test]
    fn committed_schema_extracts_metrics() {
        let cat = "{\"bench\": \"categorize\", \"threads\": [\
            {\"threads\": 1, \"total\": {\"mean_ms\": 2.0, \"median_ms\": 1.5, \"p95_ms\": 5.0},\
             \"speedup_vs_serial\": 1.0,\
             \"phases\": [{\"name\": \"categorize.level.partition\", \"median_ms\": 0.3, \"total_ms\": 90.0}]},\
            {\"threads\": 8, \"total\": {\"mean_ms\": 0.5, \"median_ms\": 0.4, \"p95_ms\": 1.2},\
             \"speedup_vs_serial\": 3.7}]}";
        let f = parse_bench_file("BENCH_pr3.json", cat).expect("parses");
        assert_eq!(f.kind, "categorize");
        let get = |k: &str| f.metrics.iter().find(|(m, _)| m == k).map(|(_, v)| *v);
        assert_eq!(get("total.t1.median_ms"), Some(1.5));
        assert_eq!(get("total.t8.median_ms"), Some(0.4));
        assert_eq!(get("speedup.t8"), Some(3.7));
        assert_eq!(get("phase.categorize.level.partition.total_ms"), Some(90.0));
    }

    #[test]
    fn render_lines_up_prs_as_columns() {
        let files = vec![
            pipeline_fixture(4, 0.30, 30.0),
            pipeline_fixture(5, 0.41, 28.0),
        ];
        let table = render(&files);
        assert!(table.contains("== bench: pipeline =="), "{table}");
        assert!(table.contains("pr4"), "{table}");
        assert!(table.contains("pr5"), "{table}");
        assert!(table.contains("serve.cold.median_ms"), "{table}");
    }

    #[test]
    fn check_is_direction_aware_and_thresholded() {
        // 2x slower cold serve = +100%: passes at 300, fails at 50.
        let files = vec![
            pipeline_fixture(4, 0.30, 30.0),
            pipeline_fixture(5, 0.60, 30.0),
        ];
        assert_eq!(check(&files, DEFAULT_MAX_REGRESSION_PCT), vec![]);
        let findings = check(&files, 50.0);
        assert_eq!(findings.len(), 1, "{findings:?}"); // median only; mean/p95 informational
        assert_eq!(findings[0].metric, "serve.cold.median_ms");
        assert_eq!(findings[0].from_pr, 4);
        assert_eq!(findings[0].to_pr, 5);

        // A *faster* latest PR is never a regression.
        let files = vec![
            pipeline_fixture(4, 0.60, 30.0),
            pipeline_fixture(5, 0.30, 30.0),
        ];
        assert_eq!(check(&files, 50.0), vec![]);

        // Speedups regress downward: 30x -> 6x is an 400% regression.
        let files = vec![
            pipeline_fixture(4, 0.30, 30.0),
            pipeline_fixture(5, 0.30, 6.0),
        ];
        let findings = check(&files, DEFAULT_MAX_REGRESSION_PCT);
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert_eq!(findings[0].metric, "speedup.serve.warm");
    }

    #[test]
    fn mismatches_fail_absolutely() {
        let text = "{\"bench\": \"pipeline\", \"differential\": {\"mismatches\": 2}}";
        let f = parse_bench_file("BENCH_pr6.json", text).expect("parses");
        let findings = check(&[f], f64::INFINITY);
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].metric, "differential.mismatches");
    }

    #[test]
    fn absent_prs_render_as_labeled_gap_columns() {
        // pr4 and pr7 committed pipeline reports, pr5/pr6 did not: the
        // table must still show four columns, with the gaps starred
        // and footnoted rather than silently collapsed.
        let files = vec![
            pipeline_fixture(4, 0.30, 30.0),
            pipeline_fixture(7, 0.31, 29.0),
        ];
        let table = render(&files);
        assert!(table.contains("pr4"), "{table}");
        assert!(table.contains("pr5*"), "{table}");
        assert!(table.contains("pr6*"), "{table}");
        assert!(table.contains("pr7"), "{table}");
        assert!(
            table.contains("* pr6: no BENCH_pr6.json committed — gap, not a regression"),
            "{table}"
        );
        // Gap columns carry no values anywhere.
        for line in table.lines().filter(|l| l.starts_with("serve.")) {
            let cells: Vec<&str> = line.split_whitespace().collect();
            assert_eq!(cells.len(), 5, "{line}");
            assert_eq!(cells[2], "-", "pr5 gap cell: {line}");
            assert_eq!(cells[3], "-", "pr6 gap cell: {line}");
        }
    }

    #[test]
    fn large_scale_reports_key_their_own_kind() {
        let large = "{\"bench\": \"pipeline\", \"scale\": \"large\",\
            \"index_build\": [\
              {\"mode\": \"single\", \"threads\": 1, \"summary\": {\"mean_ms\": 900.0, \"median_ms\": 880.0, \"p95_ms\": 950.0}},\
              {\"mode\": \"sharded\", \"threads\": 8, \"summary\": {\"mean_ms\": 300.0, \"median_ms\": 290.0, \"p95_ms\": 340.0}, \"speedup_vs_serial\": 3.03}],\
            \"scan\": [\
              {\"mode\": \"sharded\", \"threads\": 2, \"summary\": {\"mean_ms\": 20.0, \"median_ms\": 19.0, \"p95_ms\": 24.0}, \"speedup_vs_serial\": 1.8}],\
            \"pruning\": {\"queries\": 50, \"queries_pruned\": 12, \"shards_pruned_total\": 40},\
            \"determinism\": {\"mismatches\": 0},\
            \"differential\": {\"mismatches\": 0}}";
        let f = parse_bench_file("BENCH_pr8.json", large).expect("parses");
        assert_eq!(f.kind, "pipeline.large");
        let get = |k: &str| f.metrics.iter().find(|(m, _)| m == k).map(|(_, v)| *v);
        assert_eq!(get("index_build.single.t1.median_ms"), Some(880.0));
        assert_eq!(get("index_build.sharded.t8.median_ms"), Some(290.0));
        assert_eq!(get("speedup.index_build.t8"), Some(3.03));
        assert_eq!(get("scan.sharded.t2.median_ms"), Some(19.0));
        assert_eq!(get("speedup.scan.t2"), Some(1.8));
        assert_eq!(get("pruning.queries_pruned"), Some(12.0));
        assert_eq!(get("determinism.mismatches"), Some(0.0));

        // A large report never gates against a smoke baseline: the
        // kinds differ, so this pair produces no findings even at a
        // zero-tolerance threshold (large medians are ~2000x smoke's).
        let smoke = pipeline_fixture(7, 0.30, 30.0);
        assert_eq!(check(&[smoke, f], 0.1), vec![]);
    }

    #[test]
    fn refinement_reports_key_their_own_kind() {
        let refine = "{\"bench\": \"pipeline\", \"scale\": \"refinement\",\
            \"refinement\": {\
              \"counts\": {\"exact_hit\": 200, \"containment_hit\": 160, \"cold\": 40, \"other\": 0},\
              \"exact_hit\": {\"mean_ms\": 0.009, \"median_ms\": 0.008, \"p95_ms\": 0.016},\
              \"containment_hit\": {\"mean_ms\": 0.29, \"median_ms\": 0.20, \"p95_ms\": 0.77},\
              \"cold\": {\"mean_ms\": 1.56, \"median_ms\": 1.40, \"p95_ms\": 2.28},\
              \"containment_speedup\": 7.0},\
            \"containment\": {\"queries\": 150, \"mismatches\": 0, \"status\": \"ok\"},\
            \"speculation\": {\"considered\": 398, \"filled\": 8, \"already_cached\": 0,\
              \"degraded\": 0, \"tree_hits_after\": 8, \"status\": \"ok\"}}";
        let f = parse_bench_file("BENCH_pr9.json", refine).expect("parses");
        assert_eq!(f.kind, "pipeline.refinement");
        let get = |k: &str| f.metrics.iter().find(|(m, _)| m == k).map(|(_, v)| *v);
        assert_eq!(get("serve.containment.median_ms"), Some(0.20));
        assert_eq!(get("serve.containment.p95_ms"), Some(0.77));
        assert_eq!(get("serve.exact.median_ms"), Some(0.008));
        assert_eq!(get("serve.refine_cold.median_ms"), Some(1.40));
        assert_eq!(get("refinement.count.containment_hit"), Some(160.0));
        assert_eq!(get("speedup.serve.containment"), Some(7.0));
        assert_eq!(get("containment.mismatches"), Some(0.0));
        assert_eq!(get("speculation.filled"), Some(8.0));
        assert_eq!(get("speculation.tree_hits_after"), Some(8.0));

        // A refinement report never gates against a smoke baseline:
        // the kinds differ, so this pair produces no findings.
        let smoke = pipeline_fixture(7, 0.30, 30.0);
        assert_eq!(check(&[smoke, f], 0.1), vec![]);
    }

    #[test]
    fn ingest_reports_key_their_own_kind() {
        let ingest = "{\"bench\": \"pipeline\", \"scale\": \"ingest\",\
            \"warmed\": 120, \"batch_rows\": 32,\
            \"ingest\": {\
              \"appends\": 12, \"rows_appended\": 384,\
              \"append\": {\"mean_ms\": 0.9, \"median_ms\": 0.8, \"p95_ms\": 1.4},\
              \"append_epoch\": {\"mean_ms\": 0.5, \"median_ms\": 0.4, \"p95_ms\": 0.8},\
              \"evicted\": 40, \"kept\": 80, \"mismatches\": 0, \"status\": \"ok\"},\
            \"retention\": {\"queries\": 120, \"selective_live\": 80, \"epoch_live\": 0, \"status\": \"ok\"}}";
        let f = parse_bench_file("BENCH_pr10.json", ingest).expect("parses");
        assert_eq!(f.kind, "pipeline.ingest");
        let get = |k: &str| f.metrics.iter().find(|(m, _)| m == k).map(|(_, v)| *v);
        assert_eq!(get("ingest.append.median_ms"), Some(0.8));
        assert_eq!(get("ingest.append_epoch.median_ms"), Some(0.4));
        assert_eq!(get("ingest.evicted"), Some(40.0));
        assert_eq!(get("ingest.kept"), Some(80.0));
        assert_eq!(get("ingest.mismatches"), Some(0.0));
        assert_eq!(get("retention.selective_live"), Some(80.0));
        assert_eq!(get("retention.epoch_live"), Some(0.0));

        // An ingest report never gates against a smoke baseline.
        let smoke = pipeline_fixture(7, 0.30, 30.0);
        assert_eq!(check(&[smoke, f], 0.1), vec![]);

        // A one-server report (no epoch-bump baseline) yields the same
        // keys minus the baseline's.
        let one_server = "{\"bench\": \"pipeline\", \"scale\": \"ingest\",\
            \"warmed\": 60, \"batch_rows\": 32,\
            \"ingest\": {\
              \"appends\": 2, \"rows_appended\": 64,\
              \"append\": {\"mean_ms\": 0.2, \"median_ms\": 0.1, \"p95_ms\": 0.3},\
              \"evicted\": 19, \"kept\": 101, \"mismatches\": 0, \"status\": \"ok\"},\
            \"retention\": {\"queries\": 60, \"selective_live\": 57, \"status\": \"ok\"}}";
        let g = parse_bench_file("BENCH_pr21.json", one_server).expect("parses");
        assert_eq!(g.kind, "pipeline.ingest");
        let get = |k: &str| g.metrics.iter().find(|(m, _)| m == k).map(|(_, v)| *v);
        assert_eq!(get("ingest.append.median_ms"), Some(0.1));
        assert_eq!(get("ingest.appends"), Some(2.0));
        assert_eq!(get("ingest.rows_appended"), Some(64.0));
        assert_eq!(get("ingest.evicted"), Some(19.0));
        assert_eq!(get("ingest.kept"), Some(101.0));
        assert_eq!(get("ingest.mismatches"), Some(0.0));
        assert_eq!(get("retention.selective_live"), Some(57.0));
        assert!(g.metrics.iter().all(|(m, _)| !m.contains("epoch")), "{:?}", g.metrics);
    }

    #[test]
    fn ingest_commit_sweep_is_one_series_per_base_size() {
        let text = "{\"bench\": \"pipeline\", \"scale\": \"ingest\",\
            \"ingest\": {\"appends\": 12, \"commit_sweep\": [\
              {\"base_rows\": 6000, \"runs\": 12, \"commit\": {\"mean_ms\": 0.2, \"median_ms\": 0.2, \"p95_ms\": 0.3}, \"noise_ms\": 0.01},\
              {\"base_rows\": 600000, \"runs\": 12, \"commit\": {\"mean_ms\": 0.3, \"median_ms\": 0.25, \"p95_ms\": 0.4}, \"noise_ms\": 0.02}],\
              \"mismatches\": 0, \"status\": \"ok\"}}";
        let f = parse_bench_file("BENCH_pr20.json", text).expect("parses");
        let get = |k: &str| f.metrics.iter().find(|(m, _)| m == k).map(|(_, v)| *v);
        assert_eq!(get("ingest.commit_6000.median_ms"), Some(0.2));
        assert_eq!(get("ingest.commit_600000.median_ms"), Some(0.25));
        assert_eq!(get("ingest.commit_600000.noise_ms"), Some(0.02));
        assert_eq!(get("ingest.appends"), Some(12.0));
    }

    #[test]
    fn ingest_mismatches_fail_absolutely() {
        let text = "{\"bench\": \"pipeline\", \"scale\": \"ingest\",\
            \"ingest\": {\"appends\": 12, \"mismatches\": 1, \"status\": \"stale\"}}";
        let f = parse_bench_file("BENCH_pr10.json", text).expect("parses");
        let findings = check(&[f], f64::INFINITY);
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].metric, "ingest.mismatches");
        assert_eq!(findings[0].kind, "pipeline.ingest");
    }

    #[test]
    fn containment_mismatches_fail_absolutely() {
        let text = "{\"bench\": \"pipeline\", \"scale\": \"refinement\",\
            \"containment\": {\"queries\": 150, \"mismatches\": 2, \"status\": \"fail\"}}";
        let f = parse_bench_file("BENCH_pr9.json", text).expect("parses");
        let findings = check(&[f], 0.1);
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].metric, "containment.mismatches");
    }

    #[test]
    fn determinism_mismatches_fail_absolutely() {
        let text = "{\"bench\": \"pipeline\", \"scale\": \"large\",\
            \"scan\": [{\"mode\": \"single\", \"threads\": 1, \"summary\": {\"median_ms\": 1.0}}],\
            \"determinism\": {\"mismatches\": 3}}";
        let f = parse_bench_file("BENCH_pr8.json", text).expect("parses");
        let findings = check(&[f], f64::INFINITY);
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].metric, "determinism.mismatches");
        assert_eq!(findings[0].kind, "pipeline.large");
    }

    #[test]
    fn only_the_latest_pair_is_gated() {
        // pr3 -> pr4 regressed badly, but pr4 -> pr5 recovered: clean.
        let files = vec![
            pipeline_fixture(3, 0.10, 30.0),
            pipeline_fixture(4, 10.0, 30.0),
            pipeline_fixture(5, 0.12, 30.0),
        ];
        assert_eq!(check(&files, 50.0), vec![]);
    }
}
