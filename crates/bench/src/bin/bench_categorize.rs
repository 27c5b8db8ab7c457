//! Hermetic categorization benchmark: times `Categorizer::categorize`
//! over a study fixture serially and at the auto width, alternating the
//! two run by run, and writes a `BENCH_*.json` report.
//!
//! Everything is std-only — no criterion, no registry access — so this
//! runs inside the tier-1 gate. Methodology and the JSON schema are
//! documented in docs/PERFORMANCE.md.
//!
//! ```text
//! bench_categorize [--runs N] [--cases N] [--seed S]
//!                  [--scale smoke|standard|large] [--out PATH]
//! ```
//!
//! The report goes to `target/BENCH_categorize_<scale>.json` unless
//! `--out` names a path, so committing a `BENCH_pr<N>.json` is always
//! an explicit choice.

#![allow(
    clippy::print_stdout,
    clippy::print_stderr,
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    reason = "L5, L1: a benchmark binary owns its console and fails loudly on a broken setup"
)]

use qcat_bench::{
    bench_env_at, json_escape, json_num, large_tier_dims, summarize, write_report, BenchEnv,
    Summary,
};
use qcat_core::Categorizer;
use qcat_study::StudyScale;
use std::time::Instant;

/// Upper bounds of the result-set size buckets; the last bucket is
/// open-ended. Smoke-scale oversized results land in the first two;
/// the standard and large fixtures fill the rest.
const SIZE_BUCKET_BOUNDS: &[usize] = &[1_000, 2_000, 5_000, 10_000, 20_000];

fn bucket_label(size: usize) -> String {
    let mut lo = 0usize;
    for &hi in SIZE_BUCKET_BOUNDS {
        if size <= hi {
            return format!("{}-{}", lo + 1, hi);
        }
        lo = hi;
    }
    format!(">{lo}")
}

struct Args {
    runs: usize,
    cases: usize,
    seed: u64,
    out: Option<String>,
    scale: String,
}

fn parse_args() -> Args {
    let mut args = Args {
        runs: 5,
        cases: 8,
        seed: 1234,
        out: None,
        scale: "smoke".to_string(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .unwrap_or_else(|| panic!("{name} needs a value"))
        };
        match flag.as_str() {
            "--runs" => args.runs = value("--runs").parse().expect("--runs: not a number"),
            "--cases" => args.cases = value("--cases").parse().expect("--cases: not a number"),
            "--seed" => args.seed = value("--seed").parse().expect("--seed: not a number"),
            "--out" => args.out = Some(value("--out")),
            "--scale" => {
                args.scale = value("--scale");
                assert!(
                    ["smoke", "standard", "large"].contains(&args.scale.as_str()),
                    "--scale: smoke, standard, or large"
                );
            }
            "--help" | "-h" => {
                println!(
                    "bench_categorize [--runs N] [--cases N] [--seed S] \
                     [--scale smoke|standard|large] [--out PATH]"
                );
                std::process::exit(0);
            }
            other => {
                eprintln!("unknown flag: {other}");
                std::process::exit(2);
            }
        }
    }
    args
}

/// Wall-clock samples for one thread count: overall and per size
/// bucket, plus the categorizer's span profile for the same calls.
struct ThreadResult {
    /// `"serial"` or `"auto"`: which sweep entry this is. Both are
    /// always emitted, even when they resolve to the same width, so
    /// report consumers never have to guess which one is missing.
    mode: &'static str,
    threads: usize,
    total: Summary,
    /// Per bucket: label, cases, summary over every run, and the
    /// bucket's median in each run (the paired comparison's input).
    buckets: Vec<(String, usize, Summary, Vec<f64>)>,
    phases: Vec<qcat_obs::SpanStats>,
}

/// One sweep entry while it is being measured.
struct Entry<'a> {
    mode: &'static str,
    threads: usize,
    categorizer: Categorizer<'a>,
    rec: qcat_obs::Recorder,
    /// Per bucket label: one sample vector per run.
    by_bucket: Vec<(String, Vec<Vec<u64>>)>,
}

impl Entry<'_> {
    /// One pass over every case under this entry's recorder; `run` is
    /// `None` for the untimed warmup.
    fn pass(&mut self, env: &BenchEnv, run: Option<usize>) {
        let Entry { categorizer, rec, by_bucket, .. } = self;
        qcat_obs::with_recorder(rec, || {
            for (qw, result) in &env.cases {
                let start = Instant::now();
                let tree = categorizer.categorize(result, Some(qw));
                let ns = start.elapsed().as_nanos() as u64;
                std::hint::black_box(tree.node_count());
                let Some(run) = run else { continue };
                let label = bucket_label(result.len());
                let i = match by_bucket.iter().position(|(l, _)| *l == label) {
                    Some(i) => i,
                    None => {
                        by_bucket.push((label, Vec::new()));
                        by_bucket.len() - 1
                    }
                };
                let runs = &mut by_bucket[i].1;
                runs.resize_with(runs.len().max(run + 1), Vec::new);
                runs[run].push(ns);
            }
        });
    }
}

/// Time every case at each sweep width. The entries alternate run by
/// run, and the order flips every run, so host drift over the
/// measurement lands on both entries alike instead of on whichever
/// ran second.
fn run_sweep(env: &BenchEnv, sweep: &[(&'static str, usize)], runs: usize) -> Vec<ThreadResult> {
    let mut entries: Vec<Entry<'_>> = sweep
        .iter()
        .map(|&(mode, threads)| Entry {
            mode,
            threads,
            categorizer: Categorizer::new(&env.stats, env.env.config.with_threads(threads)),
            rec: qcat_obs::Recorder::metrics_only(),
            by_bucket: Vec::new(),
        })
        .collect();
    // One untimed warmup pass each so lazy allocator growth and cache
    // warming do not land in the first run's samples; the span profile
    // is the post-warmup delta for the same reason.
    for e in &mut entries {
        e.pass(env, None);
    }
    let warm: Vec<qcat_obs::Snapshot> = entries.iter().map(|e| e.rec.snapshot()).collect();
    for run in 0..runs {
        for k in 0..entries.len() {
            let k = if run % 2 == 0 { k } else { entries.len() - 1 - k };
            entries[k].pass(env, Some(run));
        }
    }
    entries
        .into_iter()
        .zip(warm)
        .map(|(e, warm)| {
            let phases = e
                .rec
                .snapshot()
                .delta(&warm)
                .span_stats()
                .into_iter()
                .filter(|s| s.name.starts_with("categorize"))
                .collect();
            let all: Vec<u64> = e.by_bucket.iter().flat_map(|(_, r)| r.concat()).collect();
            ThreadResult {
                mode: e.mode,
                threads: e.threads,
                total: summarize(&all),
                buckets: e
                    .by_bucket
                    .into_iter()
                    .map(|(label, per_run)| {
                        let all: Vec<u64> = per_run.concat();
                        let medians = per_run.iter().map(|r| summarize(r).median_ms).collect();
                        (label, all.len() / runs, summarize(&all), medians)
                    })
                    .collect(),
                phases,
            }
        })
        .collect()
}

/// The serial-vs-auto verdict for one size bucket.
struct Paired {
    bucket: String,
    cases: usize,
    /// Median over runs of `auto median / serial median` in the same
    /// run.
    auto_over_serial: f64,
    /// Interquartile range of those per-run ratios: how far the
    /// paired comparison moves between runs on its own, so the
    /// smallest difference this sweep can tell from noise.
    noise_floor: f64,
}

impl Paired {
    fn auto_slower(&self) -> bool {
        self.auto_over_serial - 1.0 > self.noise_floor
    }
}

/// Nearest-rank quantile; NaN for an empty sample.
fn quantile(v: &[f64], q: f64) -> f64 {
    let mut v = v.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((v.len() as f64) * q).ceil() as usize;
    v.get(rank.clamp(1, v.len().max(1)) - 1).copied().unwrap_or(f64::NAN)
}

fn paired(serial: &ThreadResult, auto: &ThreadResult) -> Vec<Paired> {
    serial
        .buckets
        .iter()
        .filter_map(|(label, cases, _, s_runs)| {
            let (_, _, _, a_runs) = auto.buckets.iter().find(|b| b.0 == *label)?;
            let ratios: Vec<f64> = s_runs.iter().zip(a_runs).map(|(s, a)| a / s).collect();
            Some(Paired {
                bucket: label.clone(),
                cases: *cases,
                auto_over_serial: quantile(&ratios, 0.5),
                noise_floor: quantile(&ratios, 0.75) - quantile(&ratios, 0.25),
            })
        })
        .collect()
}

fn ms_list(v: &[f64]) -> String {
    v.iter().map(|&x| json_num(x)).collect::<Vec<_>>().join(", ")
}

fn summary_json(s: &Summary) -> String {
    format!(
        "{{\"mean_ms\": {}, \"median_ms\": {}, \"p95_ms\": {}}}",
        json_num(s.mean_ms),
        json_num(s.median_ms),
        json_num(s.p95_ms)
    )
}

fn render_json(
    args: &Args,
    env: &BenchEnv,
    cores: usize,
    results: &[ThreadResult],
    pairs: &[Paired],
) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str(&format!(
        "  \"bench\": \"categorize\",\n  \"scale\": \"{}\",\n",
        json_escape(&args.scale)
    ));
    out.push_str(&format!(
        "  \"schema_version\": {}, \"git\": \"{}\",\n",
        qcat_bench::BENCH_SCHEMA_VERSION,
        json_escape(&qcat_bench::git_describe())
    ));
    out.push_str(&format!(
        "  \"seed\": {}, \"runs\": {}, \"cases\": {}, \"cores\": {},\n",
        args.seed,
        args.runs,
        env.cases.len(),
        cores
    ));
    // One visible core means the "auto" entry measured a serial run:
    // any speedup column is meaningless, and consumers must not read
    // this report as evidence about the parallel pool.
    out.push_str(&format!(
        "  \"degraded\": {},\n",
        if cores <= 1 { "true" } else { "false" }
    ));
    let serial_mean = results
        .iter()
        .find(|r| r.mode == "serial")
        .map(|r| r.total.mean_ms);
    out.push_str("  \"threads\": [\n");
    for (i, r) in results.iter().enumerate() {
        out.push_str(&format!(
            "    {{\n      \"mode\": \"{}\",\n      \"threads\": {},\n",
            json_escape(r.mode),
            r.threads
        ));
        out.push_str(&format!("      \"total\": {},\n", summary_json(&r.total)));
        if let Some(serial) = serial_mean {
            let speedup = if r.total.mean_ms > 0.0 {
                serial / r.total.mean_ms
            } else {
                f64::NAN
            };
            out.push_str(&format!(
                "      \"speedup_vs_serial\": {},\n",
                json_num(speedup)
            ));
        }
        out.push_str("      \"size_buckets\": [\n");
        for (j, (label, cases, s, medians)) in r.buckets.iter().enumerate() {
            out.push_str(&format!(
                "        {{\"bucket\": \"{}\", \"cases\": {}, \"summary\": {}, \"run_medians_ms\": [{}]}}{}\n",
                json_escape(label),
                cases,
                summary_json(s),
                ms_list(medians),
                if j + 1 < r.buckets.len() { "," } else { "" }
            ));
        }
        out.push_str("      ],\n      \"phases\": [\n");
        for (j, p) in r.phases.iter().enumerate() {
            out.push_str(&format!(
                "        {{\"name\": \"{}\", \"count\": {}, \"mean_ms\": {}, \"median_ms\": {}, \"p95_ms\": {}, \"total_ms\": {}}}{}\n",
                json_escape(&p.name),
                p.count,
                json_num(p.mean_ns / 1e6),
                json_num(p.p50_ns as f64 / 1e6),
                json_num(p.p95_ns as f64 / 1e6),
                json_num(p.total_ns as f64 / 1e6),
                if j + 1 < r.phases.len() { "," } else { "" }
            ));
        }
        out.push_str("      ]\n");
        out.push_str(&format!(
            "    }}{}\n",
            if i + 1 < results.len() { "," } else { "" }
        ));
    }
    out.push_str("  ],\n");
    // Per size bucket: auto vs serial paired run by run, against the
    // serial entry's own run-to-run spread.
    out.push_str("  \"paired\": [\n");
    for (j, p) in pairs.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"bucket\": \"{}\", \"cases\": {}, \"auto_over_serial\": {}, \"noise_floor\": {}, \"auto_slower_beyond_noise\": {}}}{}\n",
            json_escape(&p.bucket),
            p.cases,
            json_num(p.auto_over_serial),
            json_num(p.noise_floor),
            p.auto_slower(),
            if j + 1 < pairs.len() { "," } else { "" }
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

fn main() {
    let args = parse_args();
    // Detect hardware parallelism exactly once; everything downstream
    // (sweep, JSON, warnings) keys off this one observation.
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "bench_categorize: {} fixture, seed {}, {} runs, {} cores",
        args.scale, args.seed, args.runs, cores
    );
    if cores <= 1 {
        println!(
            "  WARNING: only one core visible — the \"auto\" entry runs \
             serially and the report is marked \"degraded\": true"
        );
    }
    let scale = match args.scale.as_str() {
        "large" => {
            let (rows, queries, _) = large_tier_dims();
            println!("  large tier: {rows} rows, {queries} workload queries");
            StudyScale::Custom { rows, queries }
        }
        "standard" => StudyScale::Standard,
        _ => StudyScale::Smoke,
    };
    let env = bench_env_at(scale, args.seed, args.cases);
    println!(
        "  {} oversized cases (sizes {:?})",
        env.cases.len(),
        env.cases.iter().map(|(_, r)| r.len()).collect::<Vec<_>>()
    );
    // Serial baseline, then the environment-resolved width (the
    // production default). Both entries are always emitted — on a
    // single-core host they coincide, and the "degraded" flag says so.
    let sweep = [("serial", 1), ("auto", qcat_pool::resolve_threads(0))];
    let results = run_sweep(&env, &sweep, args.runs);
    for r in &results {
        println!(
            "  {}(threads={}): mean {:.2} ms, median {:.2} ms, p95 {:.2} ms",
            r.mode, r.threads, r.total.mean_ms, r.total.median_ms, r.total.p95_ms
        );
    }
    let [serial, auto] = &results[..] else {
        unreachable!("the sweep has two entries")
    };
    if auto.threads > 1 {
        println!(
            "  speedup threads={} vs serial: {:.2}x",
            auto.threads,
            serial.total.mean_ms / auto.total.mean_ms
        );
    }
    let pairs = paired(serial, auto);
    for p in &pairs {
        println!(
            "  bucket {:>10} ({} cases): auto/serial {:.3}, noise floor {:.3}{}",
            p.bucket,
            p.cases,
            p.auto_over_serial,
            p.noise_floor,
            if p.auto_slower() { "  SLOWER beyond noise" } else { "" }
        );
    }
    let json = render_json(&args, &env, cores, &results, &pairs);
    let path = write_report(args.out.as_deref(), "categorize", &args.scale, &json);
    println!("  wrote {path}");
}
