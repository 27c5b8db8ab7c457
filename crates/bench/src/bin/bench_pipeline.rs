//! Hermetic end-to-end pipeline benchmark, two tiers:
//!
//! - `--scale smoke` (default): parse → execute → categorize over the
//!   Smoke fixture, comparing the scan and index access paths and the
//!   cold/warm serving path. Besides timings, the report carries a
//!   `differential` section: every sampled workload query is executed
//!   along scan, auto, and forced-index paths and the row sets must
//!   be identical — `"status": "ok"` is asserted by
//!   `scripts/check.sh`. A `chaos` section replays serves against a
//!   budgeted server under a deterministic fault plan and records how
//!   every request ended (ok / degraded / shed / structured error);
//!   nothing may fall through unaccounted.
//!
//! - `--scale refinement`: the drill-down serving tier. Builds
//!   chains of progressively narrowed queries (conjunct prefixes of
//!   multi-conjunct workload queries — dropping a conjunct always
//!   widens, so each prefix provably subsumes the next), replays them
//!   against a server with answer containment enabled, and reports
//!   per-class latency summaries (exact hit / containment hit /
//!   cold), the containment-vs-cold speedup, a byte-identical
//!   containment differential (`containment.mismatches` is gated
//!   absolutely by `bench_report --check`), and a speculative
//!   precomputation section.
//!
//! - `--scale large`: the paper-scale data plane. Generates millions
//!   of rows and a six-figure workload (shrinkable via
//!   `QCAT_LARGE_ROWS` / `QCAT_LARGE_QUERIES` /
//!   `QCAT_LARGE_SHARD_ROWS` for CI smokes), reshards the relation
//!   into pool-sized morsels, and measures index build and full scans
//!   across a thread sweep against the single-shard serial baseline —
//!   plus per-phase span breakdowns, shard-pruning counters, a
//!   layout/path/width differential, and a row-hash determinism
//!   section. Report schema in docs/PERFORMANCE.md.
//!
//! - `--scale ingest`: the mutable-tail serving tier. Warms one
//!   server with distinct workload queries, then runs append rounds
//!   through `Server::append_rows` and replays the warm set. It
//!   reports the append latency summary, how many cached entries the
//!   appends kept alive (at least one must still be an exact hit),
//!   and `ingest.mismatches`: every answer the surviving
//!   caches serve must be byte-identical to a from-scratch recompute
//!   (gated absolutely by `bench_report --check`). A commit-latency
//!   sweep closes the run: the same 32-row batch committed to indexed
//!   6k / 60k / 600k-row tables, at least 5 timed commits each, with
//!   the interquartile range as the noise floor (`commit_sweep`).
//!
//! Std-only like `bench_categorize` (same schema conventions).
//!
//! ```text
//! bench_pipeline [--scale smoke|refinement|large|ingest] [--runs N] [--seed S] [--queries N] [--out PATH]
//! ```
//!
//! The report goes to `target/BENCH_pipeline_<scale>.json` unless
//! `--out` names a path, so committing a `BENCH_pr<N>.json` is always
//! an explicit choice.

use qcat_bench::{
    bench_env, fnv1a_rows, json_escape, json_num, large_tier_dims, summarize, write_report,
    Summary,
};
use qcat_data::Schema;
use qcat_exec::{execute, plan, AccessPath, ExecOptions};
use qcat_serve::{ServeOutcome, Server, ServerConfig, SpeculateConfig};
use qcat_sql::normalize::{AttrCondition, NormalizedQuery};
use qcat_study::{StudyEnv, StudyScale};
use std::fmt::Write as _;
use std::time::Instant;

struct Args {
    runs: Option<usize>,
    seed: u64,
    queries: usize,
    out: Option<String>,
    scale: String,
}

impl Args {
    /// Runs default 30 at smoke scale (sub-ms probes need samples),
    /// 10 at refinement scale (each run replays every chain twice),
    /// 5 at large scale (each run is a multi-second full pass), and
    /// 12 at ingest scale (each run is one append round per server).
    fn runs(&self) -> usize {
        self.runs.unwrap_or(match self.scale.as_str() {
            "large" => 5,
            "refinement" => 10,
            "ingest" => 12,
            _ => 30,
        })
    }

    fn write_report(&self, json: &str) {
        let path = write_report(self.out.as_deref(), "pipeline", &self.scale, json);
        println!("  wrote {path}");
    }
}

fn parse_args() -> Args {
    let mut args = Args {
        runs: None,
        seed: 1234,
        queries: 200,
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
            "--runs" => args.runs = Some(value("--runs").parse().expect("--runs: not a number")),
            "--seed" => args.seed = value("--seed").parse().expect("--seed: not a number"),
            "--queries" => {
                args.queries = value("--queries").parse().expect("--queries: not a number")
            }
            "--out" => args.out = Some(value("--out")),
            "--scale" => {
                args.scale = value("--scale");
                assert!(
                    ["smoke", "refinement", "large", "ingest"].contains(&args.scale.as_str()),
                    "--scale: smoke, refinement, large, or ingest"
                );
            }
            "--help" | "-h" => {
                println!(
                    "bench_pipeline [--scale smoke|refinement|large|ingest] [--runs N] \
                     [--seed S] [--queries N] [--out PATH]"
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

/// Render a normalized query back to the SQL subset, so the serving
/// layer (which takes SQL strings) can replay workload queries.
fn sql_of(query: &NormalizedQuery, schema: &Schema) -> String {
    let mut conjuncts = Vec::new();
    for (attr, cond) in &query.conditions {
        let name = schema.name_of(*attr);
        match cond {
            AttrCondition::InStr(values) => {
                let list = values
                    .iter()
                    .map(|v| format!("'{}'", v.replace('\'', "''")))
                    .collect::<Vec<_>>()
                    .join(",");
                conjuncts.push(format!("{name} IN ({list})"));
            }
            AttrCondition::InNum(values) => {
                let list = values
                    .iter()
                    .map(|v| format!("{v}"))
                    .collect::<Vec<_>>()
                    .join(",");
                conjuncts.push(format!("{name} IN ({list})"));
            }
            AttrCondition::Range(r) => {
                if let Some(lo) = r.finite_lo() {
                    let op = if r.lo_inclusive { ">=" } else { ">" };
                    conjuncts.push(format!("{name} {op} {lo}"));
                }
                if let Some(hi) = r.finite_hi() {
                    let op = if r.hi_inclusive { "<=" } else { "<" };
                    conjuncts.push(format!("{name} {op} {hi}"));
                }
            }
        }
    }
    let mut sql = format!("SELECT * FROM {}", query.table);
    if !conjuncts.is_empty() {
        let _ = write!(sql, " WHERE {}", conjuncts.join(" AND "));
    }
    sql
}

/// Execution options along `path` at `threads` (`0` = auto), no donor.
fn opts(path: AccessPath, threads: usize) -> ExecOptions<'static> {
    ExecOptions {
        path,
        threads,
        donor: None,
    }
}

fn time_ns(mut f: impl FnMut()) -> u64 {
    let start = Instant::now();
    f();
    start.elapsed().as_nanos() as u64
}

fn summary_json(s: &Summary) -> String {
    format!(
        "{{\"mean_ms\": {}, \"median_ms\": {}, \"p95_ms\": {}}}",
        json_num(s.mean_ms),
        json_num(s.median_ms),
        json_num(s.p95_ms)
    )
}

fn main() {
    let args = parse_args();
    match args.scale.as_str() {
        "large" => run_large(&args),
        "refinement" => run_refinement(&args),
        "ingest" => run_ingest(&args),
        _ => run_smoke(&args),
    }
}

fn run_smoke(args: &Args) {
    let runs = args.runs();
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "bench_pipeline: smoke fixture, seed {}, {} runs, {} cores",
        args.seed, runs, cores
    );
    let env = bench_env(args.seed, 8);
    let relation = env.env.relation.clone();
    let schema = relation.schema().clone();
    let n = relation.len();
    relation.build_indexes();
    let index_bytes: usize = relation
        .shards()
        .iter()
        .filter_map(|s| s.indexes())
        .map(|ix| ix.heap_bytes())
        .sum();
    println!("  {} rows, index heap {} bytes", n, index_bytes);

    // ---- Differential: scan / auto / forced-index row-set equality
    // over a slice of real workload queries.
    let sample: Vec<&NormalizedQuery> =
        env.env.log.queries().iter().take(args.queries).collect();
    let mut mismatches = 0usize;
    for q in &sample {
        let scan = execute(&relation, q, &opts(AccessPath::ForceScan, 0))
            .expect("scan path failed");
        for path in [AccessPath::Auto, AccessPath::ForceIndex] {
            let other =
                execute(&relation, q, &opts(path, 0)).expect("index path failed");
            if other.rows() != scan.rows() {
                mismatches += 1;
                eprintln!("  MISMATCH ({path:?}): {}", sql_of(q, &schema));
            }
        }
    }
    let diff_status = if mismatches == 0 { "ok" } else { "mismatch" };
    println!(
        "  differential: {} queries x 2 paths, {} mismatches ({})",
        sample.len(),
        mismatches,
        diff_status
    );

    // ---- Two probes from the selective (<5%) workload slice. The
    // exec probe is the *most* selective query — where the index
    // path's advantage over a full scan is the point being measured.
    // The serve probe is the *largest* result still under 5%, so the
    // cold path (execute + categorize + render) does representative
    // work for the cold/warm cache comparison.
    let selective: Vec<(&NormalizedQuery, usize)> = sample
        .iter()
        .filter_map(|q| {
            let rs = execute(&relation, q, &opts(AccessPath::ForceScan, 0)).ok()?;
            let len = rs.len();
            (len > 0 && (len as f64) < 0.05 * n as f64).then_some((*q, len))
        })
        .collect();
    let &(exec_probe, exec_rows) = selective
        .iter()
        .min_by_key(|&&(_, len)| len)
        .expect("no selective non-empty workload query in the sample");
    let &(serve_probe, serve_rows) = selective
        .iter()
        .max_by_key(|&&(_, len)| len)
        .expect("no selective non-empty workload query in the sample");
    let exec_sel = exec_rows as f64 / n as f64;
    let serve_sel = serve_rows as f64 / n as f64;
    println!(
        "  exec probe:  {} ({} rows, {:.2}% selectivity)",
        sql_of(exec_probe, &schema),
        exec_rows,
        100.0 * exec_sel
    );
    println!(
        "  serve probe: {} ({} rows, {:.2}% selectivity)",
        sql_of(serve_probe, &schema),
        serve_rows,
        100.0 * serve_sel
    );

    let mut scan_ns = Vec::with_capacity(runs);
    let mut index_ns = Vec::with_capacity(runs);
    for _ in 0..runs {
        scan_ns.push(time_ns(|| {
            let rs = execute(&relation, exec_probe, &opts(AccessPath::ForceScan, 0))
                .expect("scan failed");
            std::hint::black_box(rs.len());
        }));
        index_ns.push(time_ns(|| {
            let rs = execute(&relation, exec_probe, &ExecOptions::default())
                .expect("index failed");
            std::hint::black_box(rs.len());
        }));
    }
    let scan = summarize(&scan_ns);
    let index = summarize(&index_ns);
    // Speedups are median-based: on a busy single-core host one
    // scheduler hiccup in N runs can double a mean, and the summary
    // already reports mean/median/p95 for anyone who wants the rest.
    let index_speedup = scan.median_ms / index.median_ms;
    println!(
        "  exec scan median {:.4} ms | index median {:.4} ms | speedup {:.1}x",
        scan.median_ms, index.median_ms, index_speedup
    );

    // ---- Serving: cold (caches cleared every run) vs. warm (tree
    // cache hit) on the same probe query.
    let server = Server::new(ServerConfig::default());
    server
        .register_table(
            &serve_probe.table,
            relation.clone(),
            env.env.log.clone(),
            env.env.prep.clone(),
        )
        .expect("register study table");
    let probe_sql = sql_of(serve_probe, &schema);
    let mut cold_ns = Vec::with_capacity(runs);
    let mut warm_ns = Vec::with_capacity(runs);
    for _ in 0..runs {
        server.clear_caches();
        cold_ns.push(time_ns(|| {
            let served = server.serve(&probe_sql).expect("cold serve");
            assert_eq!(served.outcome, ServeOutcome::Cold);
            std::hint::black_box(served.rows);
        }));
        warm_ns.push(time_ns(|| {
            let served = server.serve(&probe_sql).expect("warm serve");
            assert_eq!(served.outcome, ServeOutcome::TreeCacheHit);
            std::hint::black_box(served.rows);
        }));
    }
    let cold = summarize(&cold_ns);
    let warm = summarize(&warm_ns);
    let warm_speedup = cold.median_ms / warm.median_ms;
    println!(
        "  serve cold median {:.4} ms | warm median {:.4} ms | speedup {:.1}x",
        cold.median_ms, warm.median_ms, warm_speedup
    );

    // ---- Chaos: the serving path under a tight budget and a
    // deterministic fault plan. Caches are cleared before every serve
    // so each request exercises the full fill; every request must end
    // in one of the accounted buckets or the report is marked bad.
    let chaos_queries = sample.len().min(40);
    let mut chaos_config = ServerConfig::default();
    chaos_config.budget = qcat_fault::Budget::UNLIMITED.with_max_nodes(6);
    let chaos_server = Server::new(chaos_config);
    chaos_server
        .register_table(
            &serve_probe.table,
            relation.clone(),
            env.env.log.clone(),
            env.env.prep.clone(),
        )
        .expect("register chaos table");
    let plan = qcat_fault::FaultPlan::parse(&format!(
        "pool.task:error:p=0.25:seed={seed};serve.fill:error:p=0.15:seed={seed}",
        seed = args.seed
    ))
    .expect("chaos fault plan");
    let (mut chaos_ok, mut chaos_degraded, mut chaos_errors) = (0usize, 0usize, 0usize);
    for q in sample.iter().take(chaos_queries) {
        chaos_server.clear_caches();
        let sql = sql_of(q, &schema);
        match qcat_fault::with_plan(&plan, || chaos_server.serve(&sql)) {
            Ok(served) if served.tree.degraded().is_some() => chaos_degraded += 1,
            Ok(_) => chaos_ok += 1,
            Err(_) => chaos_errors += 1,
        }
    }
    let chaos_shed = 0usize; // single-threaded replay: admission never trips
    let chaos_status = if chaos_ok + chaos_degraded + chaos_shed + chaos_errors == chaos_queries
        && chaos_ok > 0
    {
        "ok"
    } else {
        "unaccounted"
    };
    println!(
        "  chaos: {} queries -> {} ok, {} degraded, {} shed, {} errors ({})",
        chaos_queries, chaos_ok, chaos_degraded, chaos_shed, chaos_errors, chaos_status
    );

    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"bench\": \"pipeline\",\n  \"scale\": \"smoke\",\n");
    let _ = write!(
        out,
        "  \"schema_version\": {}, \"git\": \"{}\",\n",
        qcat_bench::BENCH_SCHEMA_VERSION,
        json_escape(&qcat_bench::git_describe())
    );
    let _ = write!(
        out,
        "  \"seed\": {}, \"runs\": {}, \"cores\": {}, \"rows\": {},\n",
        args.seed, runs, cores, n
    );
    let _ = write!(out, "  \"index_heap_bytes\": {},\n", index_bytes);
    let _ = write!(
        out,
        "  \"exec_probe\": {{\"rows\": {}, \"selectivity\": {}}},\n",
        exec_rows,
        json_num(exec_sel)
    );
    let _ = write!(
        out,
        "  \"serve_probe\": {{\"rows\": {}, \"selectivity\": {}}},\n",
        serve_rows,
        json_num(serve_sel)
    );
    out.push_str("  \"access_path\": [\n");
    let _ = write!(
        out,
        "    {{\"path\": \"scan\", \"summary\": {}}},\n",
        summary_json(&scan)
    );
    let _ = write!(
        out,
        "    {{\"path\": \"index\", \"summary\": {}, \"speedup_vs_scan\": {}}}\n",
        summary_json(&index),
        json_num(index_speedup)
    );
    out.push_str("  ],\n");
    out.push_str("  \"serve\": {\n");
    let _ = write!(out, "    \"cold\": {},\n", summary_json(&cold));
    let _ = write!(
        out,
        "    \"warm\": {},\n    \"warm_speedup\": {}\n",
        summary_json(&warm),
        json_num(warm_speedup)
    );
    out.push_str("  },\n");
    let _ = write!(
        out,
        "  \"differential\": {{\"queries\": {}, \"paths\": [\"auto\", \"force_index\"], \"mismatches\": {}, \"status\": \"{}\"}},\n",
        sample.len(),
        mismatches,
        diff_status
    );
    let _ = write!(
        out,
        "  \"chaos\": {{\"queries\": {}, \"ok\": {}, \"degraded\": {}, \"shed\": {}, \"errors\": {}, \"status\": \"{}\"}}\n",
        chaos_queries, chaos_ok, chaos_degraded, chaos_shed, chaos_errors, chaos_status
    );
    out.push_str("}\n");
    args.write_report(&out);
    if mismatches > 0 || chaos_status != "ok" {
        std::process::exit(1);
    }
}

/// The drill-down serving tier: chains of progressively narrowed
/// queries replayed against a containment-enabled server, classified
/// into exact hits, containment hits, and cold fills — plus a
/// byte-identical containment differential and a speculative
/// precomputation section.
fn run_refinement(args: &Args) {
    let runs = args.runs();
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "bench_pipeline: refinement tier, seed {}, {} runs, {} cores",
        args.seed, runs, cores
    );
    let env = StudyEnv::generate(
        StudyScale::Custom {
            rows: 60_000,
            queries: 400,
        },
        args.seed,
    );
    let relation = env.relation.clone();
    let schema = relation.schema().clone();
    let n = relation.len();
    relation.build_indexes();
    println!("  {} rows", n);

    // ---- Drill-down chains, the paper's exploration pattern: start
    // broad, keep adding constraints. Each chain conjoins four
    // *individually broad* conjuncts (15–70% selective) harvested
    // from the workload, one new attribute per step; every prefix
    // provably subsumes the next. Broad conjuncts are the
    // interesting case for containment: the planner's best index on
    // the cold path still yields a large candidate set, while the
    // containment donor is the (much smaller) running conjunction.
    let mut template = env
        .log
        .queries()
        .first()
        .expect("non-empty workload")
        .clone();
    template.projection = None;
    template.order_by.clear();
    template.limit = None;
    let mut by_attr: std::collections::BTreeMap<_, Vec<_>> = Default::default();
    let mut seen_conj = std::collections::HashSet::new();
    for q in env.log.queries() {
        for (attr, cond) in &q.conditions {
            let mut single = template.clone();
            single.conditions = [(*attr, cond.clone())].into_iter().collect();
            if !seen_conj.insert(qcat_serve::fingerprint(&single)) {
                continue;
            }
            let bucket = by_attr.entry(*attr).or_insert_with(Vec::new);
            if bucket.len() >= 4 {
                continue;
            }
            let rows = execute(&relation, &single, &opts(AccessPath::ForceScan, 0))
                .expect("conjunct probe")
                .len();
            let sel = rows as f64 / n as f64;
            if (0.25..=0.5).contains(&sel) {
                bucket.push(cond.clone());
            }
        }
    }
    by_attr.retain(|_, conds| !conds.is_empty());
    let attrs: Vec<_> = by_attr.keys().copied().collect();
    assert!(
        attrs.len() >= 6,
        "need 6 attributes with broad workload conjuncts, found {}",
        attrs.len()
    );
    // Fingerprints are globally deduplicated so each class stays
    // honest: a head shared between chains would turn the second
    // chain's cold leg into a tree hit.
    let mut seen = std::collections::HashSet::new();
    let mut chains: Vec<Vec<NormalizedQuery>> = Vec::new();
    for i in 0..10usize {
        let mut query = template.clone();
        query.conditions.clear();
        let mut chain = Vec::new();
        // The head already carries three conjuncts: a user who has
        // refined twice is the one who keeps refining, and it keeps
        // every timed step's donor (the running conjunction) well
        // below the cold planner's best single-attribute candidate
        // set.
        for step in 0..6usize {
            let attr = attrs[(i + step) % attrs.len()];
            let conds = &by_attr[&attr];
            query
                .conditions
                .insert(attr, conds[i % conds.len()].clone());
            if step >= 2 {
                chain.push(query.clone());
            }
        }
        if chain
            .iter()
            .all(|c| seen.insert(qcat_serve::fingerprint(c)))
        {
            chains.push(chain);
        }
    }
    let total_queries: usize = chains.iter().map(Vec::len).sum();
    assert!(
        !chains.is_empty(),
        "no multi-conjunct workload queries to build drill-down chains from"
    );
    println!(
        "  {} chains, {} distinct queries ({} refinement steps)",
        chains.len(),
        total_queries,
        total_queries - chains.len()
    );

    let table = chains[0][0].table.clone();
    let server = Server::new(ServerConfig::default());
    server
        .register_table(&table, relation.clone(), env.log.clone(), env.prep.clone())
        .expect("register warm table");
    // The cold baseline server never keeps donors: its caches are
    // cleared before every serve, so it measures the full fill for
    // the *same* queries the warm server answers by containment.
    let cold_server = Server::new(ServerConfig::default());
    cold_server
        .register_table(&table, relation.clone(), env.log.clone(), env.prep.clone())
        .expect("register cold table");

    let rec = qcat_obs::Recorder::metrics_only();
    let mut exact_ns = Vec::new();
    let mut contain_ns = Vec::new();
    let mut cold_ns = Vec::new();
    let (mut exact_hits, mut containment_hits, mut colds, mut other) = (0usize, 0, 0, 0);
    let mut classify = |outcome: ServeOutcome| match outcome {
        ServeOutcome::TreeCacheHit | ServeOutcome::ResultCacheHit => exact_hits += 1,
        ServeOutcome::ContainmentHit => containment_hits += 1,
        ServeOutcome::Cold => colds += 1,
        _ => other += 1,
    };
    let mut mismatches = 0usize;
    let mut checked = 0usize;
    qcat_obs::with_recorder(&rec, || {
        for _ in 0..runs {
            server.clear_caches();
            for chain in &chains {
                // Chain head: cold by construction.
                let served = server
                    .serve(&sql_of(&chain[0], &schema))
                    .expect("head serve");
                classify(served.outcome);
                for tight in &chain[1..] {
                    let sql = sql_of(tight, &schema);
                    let mut warm_served = None;
                    contain_ns.push(time_ns(|| {
                        warm_served = Some(server.serve(&sql).expect("refined serve"));
                    }));
                    let warm_served = warm_served.expect("timed serve ran");
                    classify(warm_served.outcome);
                    cold_server.clear_caches();
                    let mut cold_served = None;
                    cold_ns.push(time_ns(|| {
                        cold_served = Some(cold_server.serve(&sql).expect("cold serve"));
                    }));
                    let cold_served = cold_served.expect("timed serve ran");
                    checked += 1;
                    if warm_served.rendered != cold_served.rendered
                        || warm_served.rows != cold_served.rows
                    {
                        mismatches += 1;
                        eprintln!("  CONTAINMENT MISMATCH: {sql}");
                    }
                }
            }
            // Second pass: every chain query repeats as an exact hit.
            for q in chains.iter().flatten() {
                let sql = sql_of(q, &schema);
                let mut served = None;
                exact_ns.push(time_ns(|| {
                    served = Some(server.serve(&sql).expect("repeat serve"));
                }));
                classify(served.expect("timed serve ran").outcome);
            }
        }
    });
    let exact = summarize(&exact_ns);
    let contain = summarize(&contain_ns);
    let cold = summarize(&cold_ns);
    let containment_speedup = cold.median_ms / contain.median_ms;
    let contain_status = if mismatches == 0 && containment_hits > 0 {
        "ok"
    } else {
        "mismatch"
    };
    println!(
        "  classes: {} exact, {} containment, {} cold, {} other",
        exact_hits, containment_hits, colds, other
    );
    println!(
        "  cold median {:.4} ms | containment median {:.4} ms | speedup {:.1}x",
        cold.median_ms, contain.median_ms, containment_speedup
    );
    println!(
        "  exact median {:.4} ms | differential: {} checked, {} mismatches ({})",
        exact.median_ms, checked, mismatches, contain_status
    );

    // ---- Speculation: an idle pass on a fresh server precomputes
    // the hottest workload queries; serving the whole distinct
    // workload afterwards must produce exactly `filled` tree hits.
    let spec_server = Server::new(ServerConfig::default());
    spec_server
        .register_table(&table, relation.clone(), env.log.clone(), env.prep.clone())
        .expect("register speculation table");
    let spec_cfg = SpeculateConfig {
        max_fills: 8,
        ..SpeculateConfig::default()
    };
    let report = spec_server
        .speculate(&table, &spec_cfg)
        .expect("speculation pass");
    let mut distinct = std::collections::HashSet::new();
    let mut spec_tree_hits = 0usize;
    for q in env.log.queries() {
        if !distinct.insert(qcat_serve::fingerprint(q)) {
            continue;
        }
        let served = spec_server.serve(&sql_of(q, &schema)).expect("post-spec serve");
        if served.outcome == ServeOutcome::TreeCacheHit {
            spec_tree_hits += 1;
        }
    }
    let spec_status = if report.filled > 0 && spec_tree_hits == report.filled {
        "ok"
    } else {
        "bad"
    };
    println!(
        "  speculation: {} considered, {} filled, {} degraded -> {} first-serve tree hits ({})",
        report.considered, report.filled, report.degraded, spec_tree_hits, spec_status
    );

    let snap = rec.snapshot();
    let counter = |name: &str| snap.counters.get(name).copied().unwrap_or(0);

    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"bench\": \"pipeline\",\n  \"scale\": \"refinement\",\n");
    let _ = write!(
        out,
        "  \"schema_version\": {}, \"git\": \"{}\",\n",
        qcat_bench::BENCH_SCHEMA_VERSION,
        json_escape(&qcat_bench::git_describe())
    );
    let _ = write!(
        out,
        "  \"seed\": {}, \"runs\": {}, \"cores\": {}, \"rows\": {},\n",
        args.seed, runs, cores, n
    );
    let _ = write!(
        out,
        "  \"chains\": {}, \"chain_queries\": {},\n",
        chains.len(),
        total_queries
    );
    out.push_str("  \"refinement\": {\n");
    let _ = write!(
        out,
        "    \"counts\": {{\"exact_hit\": {}, \"containment_hit\": {}, \"cold\": {}, \"other\": {}}},\n",
        exact_hits, containment_hits, colds, other
    );
    let _ = write!(out, "    \"exact_hit\": {},\n", summary_json(&exact));
    let _ = write!(out, "    \"containment_hit\": {},\n", summary_json(&contain));
    let _ = write!(out, "    \"cold\": {},\n", summary_json(&cold));
    let _ = write!(
        out,
        "    \"containment_speedup\": {}\n  }},\n",
        json_num(containment_speedup)
    );
    let _ = write!(
        out,
        "  \"containment\": {{\"queries\": {}, \"mismatches\": {}, \"status\": \"{}\"}},\n",
        checked, mismatches, contain_status
    );
    let _ = write!(
        out,
        "  \"speculation\": {{\"considered\": {}, \"filled\": {}, \"already_cached\": {}, \"degraded\": {}, \"tree_hits_after\": {}, \"status\": \"{}\"}},\n",
        report.considered,
        report.filled,
        report.already_cached,
        report.degraded,
        spec_tree_hits,
        spec_status
    );
    let _ = write!(
        out,
        "  \"counters\": {{\"serve.cache.containment_hit\": {}, \"serve.containment.rows_donor\": {}, \"serve.containment.rows_out\": {}, \"serve.cache.result.miss\": {}, \"serve.cache.hit\": {}}}\n",
        counter("serve.cache.containment_hit"),
        counter("serve.containment.rows_donor"),
        counter("serve.containment.rows_out"),
        counter("serve.cache.result.miss"),
        counter("serve.cache.hit")
    );
    out.push_str("}\n");
    args.write_report(&out);
    if contain_status != "ok" || spec_status != "ok" {
        std::process::exit(1);
    }
}

/// The mutable-tail serving tier: a warmed server takes append
/// rounds, then replays the warm set. Appends must leave some exact
/// cache hits alive, and nothing the surviving caches serve may
/// differ from a from-scratch recompute.
fn run_ingest(args: &Args) {
    let runs = args.runs();
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "bench_pipeline: ingest tier, seed {}, {} append rounds, {} cores",
        args.seed, runs, cores
    );
    let env = StudyEnv::generate(
        StudyScale::Custom {
            rows: 60_000,
            queries: 400,
        },
        args.seed,
    );
    let relation = env.relation.clone();
    let schema = relation.schema().clone();
    let n = relation.len();
    relation.build_indexes();
    println!("  {} rows", n);

    // Distinct workload queries form the warm set the server caches
    // before any append lands.
    let mut seen = std::collections::HashSet::new();
    let sample: Vec<&NormalizedQuery> = env
        .log
        .queries()
        .iter()
        .filter(|q| seen.insert(qcat_serve::fingerprint(q)))
        .take(args.queries)
        .collect();
    assert!(!sample.is_empty(), "empty distinct workload");
    let table = sample[0].table.clone();

    let server = Server::new(ServerConfig::default());
    server
        .register_table(&table, relation.clone(), env.log.clone(), env.prep.clone())
        .expect("register table");

    let mut warmed = 0usize;
    for q in &sample {
        server.serve(&sql_of(q, &schema)).expect("warm serve");
        warmed += 1;
    }
    println!("  warmed {} distinct queries", warmed);

    // Every append round lands the same narrow batch: copies of row 0,
    // so the delta's per-column footprint is one point and the
    // workload's predicates split cleanly into provably-disjoint
    // (keepable) and possibly-intersecting (must-evict) entries.
    let template_row = relation.row(0).expect("row 0 of the study relation");
    let batch: Vec<Vec<qcat_data::Value>> = (0..32).map(|_| template_row.clone()).collect();

    let mut append_ns = Vec::with_capacity(runs);
    let (mut evicted_total, mut kept_total) = (0usize, 0usize);
    let mut rows_appended = 0usize;
    for _ in 0..runs {
        let mut outcome = None;
        append_ns.push(time_ns(|| {
            outcome = Some(server.append_rows(&table, &batch).expect("append"));
        }));
        let outcome = outcome.expect("timed append ran");
        assert_eq!(outcome.added, batch.len());
        evicted_total += outcome.evicted;
        kept_total += outcome.kept;
        rows_appended += outcome.added;
    }
    assert_eq!(
        server.generation(&table),
        Some(runs as u64),
        "every append round advanced the generation"
    );
    let append = summarize(&append_ns);
    println!("  append median: {:.4} ms", append.median_ms);
    println!(
        "  invalidation: {} entries evicted, {} kept across {} rounds",
        evicted_total, kept_total, runs
    );

    // Retention replay: the first post-append serve of each warmed
    // query. Only exact hits count as "retained" — a containment hit
    // could come from a donor refilled moments earlier in this same
    // pass, and a server that evicted every entry would still score
    // those. A whole-table flush keeps 0 exact hits, so any retained
    // entry shows the appends evicted selectively.
    let retained = |outcome: ServeOutcome| {
        matches!(
            outcome,
            ServeOutcome::TreeCacheHit | ServeOutcome::ResultCacheHit
        )
    };
    let mut selective_live = 0usize;
    for q in &sample {
        if retained(server.serve(&sql_of(q, &schema)).expect("replay").outcome) {
            selective_live += 1;
        }
    }
    let retention_status = if selective_live > 0 { "ok" } else { "bad" };
    println!(
        "  retention: {} of {} warmed entries still exact hits ({})",
        selective_live, warmed, retention_status
    );

    // Zero-staleness differential: whatever the surviving caches
    // answer must match a recompute from flushed caches, byte for
    // byte — rows and rendered tree both.
    let mut cached_pass = Vec::with_capacity(sample.len());
    for q in &sample {
        let served = server.serve(&sql_of(q, &schema)).expect("cached pass");
        cached_pass.push((served.rows, served.rendered));
    }
    server.clear_caches();
    let mut mismatches = 0usize;
    for (q, (rows, rendered)) in sample.iter().zip(&cached_pass) {
        let sql = sql_of(q, &schema);
        let fresh = server.serve(&sql).expect("fresh pass");
        if fresh.rows != *rows || fresh.rendered != *rendered {
            mismatches += 1;
            eprintln!("  STALE ANSWER: {sql}");
        }
    }
    let ingest_status = if mismatches == 0 { "ok" } else { "stale" };
    println!(
        "  staleness: {} queries checked, {} mismatches ({})",
        sample.len(),
        mismatches,
        ingest_status
    );

    let sweep = commit_sweep(args.seed, runs.max(COMMIT_SWEEP_MIN_RUNS));

    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"bench\": \"pipeline\",\n  \"scale\": \"ingest\",\n");
    let _ = write!(
        out,
        "  \"schema_version\": {}, \"git\": \"{}\",\n",
        qcat_bench::BENCH_SCHEMA_VERSION,
        json_escape(&qcat_bench::git_describe())
    );
    let _ = write!(
        out,
        "  \"seed\": {}, \"runs\": {}, \"cores\": {}, \"rows\": {},\n",
        args.seed, runs, cores, n
    );
    let _ = write!(
        out,
        "  \"warmed\": {}, \"batch_rows\": {},\n",
        warmed,
        batch.len()
    );
    out.push_str("  \"ingest\": {\n");
    let _ = write!(
        out,
        "    \"appends\": {}, \"rows_appended\": {},\n",
        runs, rows_appended
    );
    let _ = write!(out, "    \"append\": {},\n", summary_json(&append));
    out.push_str("    \"commit_sweep\": [\n");
    for (i, e) in sweep.iter().enumerate() {
        let _ = write!(
            out,
            "      {{\"base_rows\": {}, \"runs\": {}, \"commit\": {}, \"noise_ms\": {}}}{}\n",
            e.base_rows,
            e.runs,
            summary_json(&e.commit),
            json_num(e.noise_ms),
            if i + 1 < sweep.len() { "," } else { "" }
        );
    }
    out.push_str("    ],\n");
    let _ = write!(
        out,
        "    \"evicted\": {}, \"kept\": {}, \"mismatches\": {}, \"status\": \"{}\"\n",
        evicted_total, kept_total, mismatches, ingest_status
    );
    out.push_str("  },\n");
    let _ = write!(
        out,
        "  \"retention\": {{\"queries\": {}, \"selective_live\": {}, \"status\": \"{}\"}}\n",
        warmed, selective_live, retention_status
    );
    out.push_str("}\n");
    args.write_report(&out);
    if ingest_status != "ok" || retention_status != "ok" {
        std::process::exit(1);
    }
}

/// Base sizes of the commit-latency sweep: a 32-row append should
/// cost the same on each, since a commit copies only the open tail.
const COMMIT_SWEEP_ROWS: [usize; 3] = [6_000, 60_000, 600_000];
/// Fewest timed commits per sweep point, whatever `--runs` says.
const COMMIT_SWEEP_MIN_RUNS: usize = 5;

/// One point of the commit-latency sweep.
struct CommitPoint {
    base_rows: usize,
    runs: usize,
    commit: Summary,
    /// Interquartile range of the timed commits: the noise floor a
    /// difference between points must clear.
    noise_ms: f64,
}

/// Time `runs` commits of the same 32-row batch against indexed,
/// unsharded tables of each `COMMIT_SWEEP_ROWS` size, one table per
/// size (the tail grows by 32 rows per commit, as it does in
/// service). One untimed commit first opens the tail.
fn commit_sweep(seed: u64, runs: usize) -> Vec<CommitPoint> {
    let mut points = Vec::with_capacity(COMMIT_SWEEP_ROWS.len());
    for rows in COMMIT_SWEEP_ROWS {
        let env = StudyEnv::generate(StudyScale::Custom { rows, queries: 50 }, seed);
        env.relation.build_indexes();
        let row = env.relation.row(0).expect("row 0 of the sweep table");
        let batch: Vec<Vec<qcat_data::Value>> = (0..32).map(|_| row.clone()).collect();
        let table = qcat_data::IngestTable::new(env.relation);
        table.append_rows(&batch).expect("opening commit");
        let mut samples: Vec<u64> = (0..runs)
            .map(|_| {
                time_ns(|| {
                    table.append_rows(&batch).expect("timed commit");
                })
            })
            .collect();
        samples.sort_unstable();
        let quartile = |q: usize| samples[(samples.len() - 1) * q / 4] as f64 / 1e6;
        let point = CommitPoint {
            base_rows: rows,
            runs,
            commit: summarize(&samples),
            noise_ms: quartile(3) - quartile(1),
        };
        println!(
            "  commit sweep: {:>7} base rows: median {:.4} ms (noise floor {:.4} ms, {} runs)",
            rows, point.commit.median_ms, point.noise_ms, runs
        );
        points.push(point);
    }
    points
}

/// One timed sweep entry of the large tier: a layout/thread-width
/// combination with its summary and (for non-baseline entries) the
/// median speedup over the serial single-shard baseline.
struct SweepEntry {
    mode: &'static str,
    threads: usize,
    summary: Summary,
    speedup_vs_serial: Option<f64>,
}

fn sweep_json(entries: &[SweepEntry]) -> String {
    let mut out = String::new();
    for (i, e) in entries.iter().enumerate() {
        let _ = write!(
            out,
            "    {{\"mode\": \"{}\", \"threads\": {}, \"summary\": {}",
            e.mode,
            e.threads,
            summary_json(&e.summary)
        );
        if let Some(s) = e.speedup_vs_serial {
            let _ = write!(out, ", \"speedup_vs_serial\": {}", json_num(s));
        }
        out.push_str(if i + 1 < entries.len() { "},\n" } else { "}\n" });
    }
    out
}

/// The paper-scale data-plane tier: sharded relation, morsel-parallel
/// scans and index builds vs. the single-shard serial baseline.
fn run_large(args: &Args) {
    let runs = args.runs();
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let (rows_target, queries_target, shard_rows) = large_tier_dims();
    println!(
        "bench_pipeline: large tier, target {} rows / {} queries, shard_rows {}, \
         seed {}, {} runs, {} cores",
        rows_target, queries_target, shard_rows, args.seed, runs, cores
    );
    if cores <= 1 {
        println!(
            "  WARNING: only one core visible — thread-sweep entries share \
             one CPU and the report is marked \"degraded\": true"
        );
    }
    let gen_start = Instant::now();
    let env = StudyEnv::generate(
        StudyScale::Custom {
            rows: rows_target,
            queries: queries_target,
        },
        args.seed,
    );
    let gen_seconds = gen_start.elapsed().as_secs_f64();
    let single = env.relation.clone();
    let n = single.len();
    let workload_queries = env.log.len();
    println!(
        "  generated in {:.1}s: {} rows, {} parsed workload queries",
        gen_seconds, n, workload_queries
    );
    let sharded = single.resharded(shard_rows).expect("reshard relation");
    let shards = sharded.shards().shard_count();
    println!("  sharded layout: {} shards of <= {} rows", shards, shard_rows);
    // Thread sweep: serial, a middle width, and the widest. Always
    // emitted even on narrow hosts so report columns line up; the
    // cores field says how honest each width is.
    let sweep: [usize; 3] = [1, 2, 8];

    // ---- Index build: serial single-shard baseline, then per-shard
    // morsel builds across the sweep. Fresh (index-free) clones of the
    // same columns each run; clone cost stays outside the timer.
    let rec = qcat_obs::Recorder::metrics_only();
    let mut build_entries: Vec<SweepEntry> = Vec::new();
    let mut scan_entries: Vec<SweepEntry> = Vec::new();
    let mut det_hash: Option<u64> = None;
    let mut det_mismatches = 0usize;
    let mut broad_rows = 0usize;
    let mut sel_rows = 0usize;
    let mut auto_summary = Summary {
        mean_ms: 0.0,
        median_ms: 0.0,
        p95_ms: 0.0,
    };
    let mut sel_scan_summary = auto_summary;
    let sample: Vec<&NormalizedQuery> = env.log.queries().iter().take(args.queries).collect();
    qcat_obs::with_recorder(&rec, || {
        let serial_ns: Vec<u64> = (0..runs)
            .map(|_| {
                let fresh = single.resharded(0).expect("reshard");
                time_ns(|| {
                    fresh.try_build_indexes(1).expect("serial index build");
                })
            })
            .collect();
        let serial = summarize(&serial_ns);
        println!(
            "  index build single-shard serial: median {:.1} ms",
            serial.median_ms
        );
        build_entries.push(SweepEntry {
            mode: "single",
            threads: 1,
            summary: serial,
            speedup_vs_serial: None,
        });
        for &t in &sweep {
            let ns: Vec<u64> = (0..runs)
                .map(|_| {
                    let fresh = single.resharded(shard_rows).expect("reshard");
                    time_ns(|| {
                        fresh.try_build_indexes(t).expect("sharded index build");
                    })
                })
                .collect();
            let s = summarize(&ns);
            let speedup = serial.median_ms / s.median_ms;
            println!(
                "  index build sharded threads={t}: median {:.1} ms ({:.2}x vs serial)",
                s.median_ms, speedup
            );
            build_entries.push(SweepEntry {
                mode: "sharded",
                threads: t,
                summary: s,
                speedup_vs_serial: Some(speedup),
            });
        }

        // Both layouts keep cached indexes from here on.
        single.build_indexes();
        sharded.build_indexes();

        // ---- Probe selection from the workload sample: the broadest
        // query stresses the scan path, the most selective non-empty
        // query stresses the index path.
        let lens: Vec<usize> = sample
            .iter()
            .map(|q| {
                execute(&single, q, &opts(AccessPath::ForceScan, 0))
                    .expect("probe scan")
                    .len()
            })
            .collect();
        let bi = (0..lens.len())
            .max_by_key(|&i| lens[i])
            .expect("empty workload sample");
        let si = (0..lens.len())
            .filter(|&i| lens[i] > 0)
            .min_by_key(|&i| lens[i])
            .expect("no non-empty workload query");
        let (broad_probe, sel_probe) = (sample[bi], sample[si]);
        (broad_rows, sel_rows) = (lens[bi], lens[si]);
        println!(
            "  broad probe {} rows ({:.1}%), selective probe {} rows ({:.3}%)",
            broad_rows,
            100.0 * broad_rows as f64 / n as f64,
            sel_rows,
            100.0 * sel_rows as f64 / n as f64
        );

        // ---- Full-scan sweep on the broad probe: single-shard serial
        // baseline vs. morsel-parallel sharded scans. Every run's row
        // ids are hashed; all hashes must collide into one value.
        let mut hash_check = |rows: &[u32]| {
            let h = fnv1a_rows(rows);
            match det_hash {
                None => det_hash = Some(h),
                Some(expect) if expect != h => det_mismatches += 1,
                Some(_) => {}
            }
        };
        let serial_scan_ns: Vec<u64> = (0..runs)
            .map(|_| {
                time_ns(|| {
                    let rs = execute(&single, broad_probe, &opts(AccessPath::ForceScan, 1))
                        .expect("serial scan");
                    hash_check(rs.rows());
                })
            })
            .collect();
        let serial_scan = summarize(&serial_scan_ns);
        println!(
            "  scan single-shard serial: median {:.1} ms",
            serial_scan.median_ms
        );
        scan_entries.push(SweepEntry {
            mode: "single",
            threads: 1,
            summary: serial_scan,
            speedup_vs_serial: None,
        });
        for &t in &sweep {
            let ns: Vec<u64> = (0..runs)
                .map(|_| {
                    time_ns(|| {
                        let rs = execute(&sharded, broad_probe, &opts(AccessPath::ForceScan, t))
                            .expect("sharded scan");
                        hash_check(rs.rows());
                    })
                })
                .collect();
            let s = summarize(&ns);
            let speedup = serial_scan.median_ms / s.median_ms;
            println!(
                "  scan sharded threads={t}: median {:.1} ms ({:.2}x vs serial)",
                s.median_ms, speedup
            );
            scan_entries.push(SweepEntry {
                mode: "sharded",
                threads: t,
                summary: s,
                speedup_vs_serial: Some(speedup),
            });
        }

        // ---- Index probe on the selective query: sharded serial scan
        // vs. the planner's pruned index path.
        let sel_scan_ns: Vec<u64> = (0..runs)
            .map(|_| {
                time_ns(|| {
                    let rs = execute(&sharded, sel_probe, &opts(AccessPath::ForceScan, 1))
                        .expect("selective scan");
                    std::hint::black_box(rs.len());
                })
            })
            .collect();
        sel_scan_summary = summarize(&sel_scan_ns);
        let auto_ns: Vec<u64> = (0..runs)
            .map(|_| {
                time_ns(|| {
                    let rs = execute(&sharded, sel_probe, &opts(AccessPath::Auto, 1))
                        .expect("auto path");
                    std::hint::black_box(rs.len());
                })
            })
            .collect();
        auto_summary = summarize(&auto_ns);
    });
    let index_bytes: usize = sharded
        .shards()
        .iter()
        .filter_map(|s| s.indexes())
        .map(|ix| ix.heap_bytes())
        .sum();
    let index_speedup = sel_scan_summary.median_ms / auto_summary.median_ms;
    let sel_probe = sample
        .iter()
        .copied()
        .find(|q| {
            execute(&single, q, &opts(AccessPath::ForceScan, 0))
                .map(|rs| rs.len() == sel_rows && sel_rows > 0)
                .unwrap_or(false)
        })
        .expect("selective probe recoverable");
    let (_, sel_explain) =
        plan::select_rows(&sharded, sel_probe, &ExecOptions::default()).expect("explain probe");
    println!(
        "  selective probe: scan median {:.2} ms | index median {:.2} ms | \
         speedup {:.1}x | {} of {} shards pruned",
        sel_scan_summary.median_ms,
        auto_summary.median_ms,
        index_speedup,
        sel_explain.shards_pruned,
        shards
    );

    // ---- Differential + pruning: every sampled query, sharded layout
    // vs. the single-shard scan truth, across paths and widths.
    let mut mismatches = 0usize;
    let mut shards_pruned_total = 0usize;
    let mut queries_pruned = 0usize;
    for q in &sample {
        let truth = execute(&single, q, &opts(AccessPath::ForceScan, 0))
            .expect("truth scan");
        for t in [1usize, 8] {
            for path in [AccessPath::Auto, AccessPath::ForceScan, AccessPath::ForceIndex] {
                let (rows, explain) =
                    plan::select_rows(&sharded, q, &opts(path, t)).expect("sharded path");
                if rows.as_slice() != truth.rows() {
                    mismatches += 1;
                    eprintln!("  MISMATCH ({path:?}, threads={t})");
                }
                if path == AccessPath::Auto && t == 1 {
                    shards_pruned_total += explain.shards_pruned;
                    if explain.shards_pruned > 0 {
                        queries_pruned += 1;
                    }
                }
            }
        }
    }
    let diff_status = if mismatches == 0 { "ok" } else { "mismatch" };
    let det_status = if det_mismatches == 0 { "ok" } else { "mismatch" };
    println!(
        "  differential: {} queries x 3 paths x 2 widths, {} mismatches ({})",
        sample.len(),
        mismatches,
        diff_status
    );
    println!(
        "  pruning: {}/{} sampled queries pruned shards ({} shard-skips total)",
        queries_pruned,
        sample.len(),
        shards_pruned_total
    );

    let phases: Vec<qcat_obs::SpanStats> = rec
        .snapshot()
        .span_stats()
        .into_iter()
        .filter(|s| s.name.starts_with("exec.") || s.name.starts_with("data.index"))
        .collect();

    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"bench\": \"pipeline\",\n  \"scale\": \"large\",\n");
    let _ = write!(
        out,
        "  \"schema_version\": {}, \"git\": \"{}\",\n",
        qcat_bench::BENCH_SCHEMA_VERSION,
        json_escape(&qcat_bench::git_describe())
    );
    let _ = write!(
        out,
        "  \"seed\": {}, \"runs\": {}, \"cores\": {}, \"degraded\": {},\n",
        args.seed,
        runs,
        cores,
        // One visible core means every multi-thread sweep entry ran on
        // shared hardware: emit the columns, but flag the report.
        cores <= 1
    );
    let _ = write!(
        out,
        "  \"rows\": {}, \"workload_queries\": {}, \"shard_rows\": {}, \"shards\": {},\n",
        n, workload_queries, shard_rows, shards
    );
    let _ = write!(
        out,
        "  \"gen_seconds\": {}, \"index_heap_bytes\": {},\n",
        json_num(gen_seconds),
        index_bytes
    );
    let _ = write!(
        out,
        "  \"broad_probe\": {{\"rows\": {}, \"selectivity\": {}}},\n",
        broad_rows,
        json_num(broad_rows as f64 / n as f64)
    );
    let _ = write!(
        out,
        "  \"exec_probe\": {{\"rows\": {}, \"selectivity\": {}}},\n",
        sel_rows,
        json_num(sel_rows as f64 / n as f64)
    );
    out.push_str("  \"index_build\": [\n");
    out.push_str(&sweep_json(&build_entries));
    out.push_str("  ],\n  \"scan\": [\n");
    out.push_str(&sweep_json(&scan_entries));
    out.push_str("  ],\n  \"access_path\": [\n");
    let _ = write!(
        out,
        "    {{\"path\": \"scan\", \"summary\": {}}},\n",
        summary_json(&sel_scan_summary)
    );
    let _ = write!(
        out,
        "    {{\"path\": \"index\", \"summary\": {}, \"speedup_vs_scan\": {}, \"shards_pruned\": {}}}\n",
        summary_json(&auto_summary),
        json_num(index_speedup),
        sel_explain.shards_pruned
    );
    out.push_str("  ],\n");
    let _ = write!(
        out,
        "  \"pruning\": {{\"queries\": {}, \"queries_pruned\": {}, \"shards_pruned_total\": {}}},\n",
        sample.len(),
        queries_pruned,
        shards_pruned_total
    );
    let _ = write!(
        out,
        "  \"determinism\": {{\"scan_runs_hashed\": {}, \"mismatches\": {}, \"row_hash\": \"{:#018x}\", \"status\": \"{}\"}},\n",
        (1 + sweep.len()) * runs,
        det_mismatches,
        det_hash.unwrap_or(0),
        det_status
    );
    let _ = write!(
        out,
        "  \"differential\": {{\"queries\": {}, \"paths\": [\"auto\", \"force_scan\", \"force_index\"], \"threads\": [1, 8], \"mismatches\": {}, \"status\": \"{}\"}},\n",
        sample.len(),
        mismatches,
        diff_status
    );
    out.push_str("  \"phases\": [\n");
    for (j, p) in phases.iter().enumerate() {
        let _ = write!(
            out,
            "    {{\"name\": \"{}\", \"count\": {}, \"mean_ms\": {}, \"median_ms\": {}, \"p95_ms\": {}, \"total_ms\": {}}}{}\n",
            json_escape(&p.name),
            p.count,
            json_num(p.mean_ns / 1e6),
            json_num(p.p50_ns as f64 / 1e6),
            json_num(p.p95_ns as f64 / 1e6),
            json_num(p.total_ns as f64 / 1e6),
            if j + 1 < phases.len() { "," } else { "" }
        );
    }
    out.push_str("  ]\n}\n");
    args.write_report(&out);
    if mismatches > 0 || det_mismatches > 0 {
        std::process::exit(1);
    }
}
