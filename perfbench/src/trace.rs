//! The traced run: replay a finished run's operations on a fresh
//! server with the benchmark's spans on and a metrics-only `qcat-obs`
//! recorder installed around each timed call, then decompose cold
//! serves by calling every layer directly. Spans are the benchmark's
//! own, around public calls; nothing inside the program is changed.

use crate::drive::{class_of, execute, Op, Outcome, Phase, Run, CLASSES};
use crate::fixture::{Fixture, TABLE};
use crate::report::{json_num, json_str, mean, median, ratio, Metric, Summary};
use qcat_core::{render_tree, CategorizeConfig, Categorizer};
use qcat_data::IngestTable;
use qcat_exec::{execute_normalized_with, AccessPath};
use qcat_obs::Recorder;
use qcat_serve::{ServeOutcome, Server, ServerConfig};
use qcat_sql::{normalize::normalize, parse_select};
use qcat_workload::WorkloadStatistics;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

/// Distinct cold queries decomposed layer by layer, at most.
const DECOMPOSE_MAX: usize = 400;
/// Fresh builds timed for the set-up layers.
const BUILD_REPEATS: usize = 3;

/// One span: a timed interval of the benchmark's own code.
struct Span {
    name: &'static str,
    request: u32,
    parent: Option<usize>,
    start_ns: u64,
    end_ns: u64,
}

/// In-memory span recorder for the single client thread.
struct Tracer {
    t0: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Tracer {
    fn new() -> Tracer {
        Tracer {
            t0: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    fn now(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    fn open(&mut self, name: &'static str, request: u32) -> usize {
        let id = self.spans.len();
        let start_ns = self.now();
        self.spans.push(Span {
            name,
            request,
            parent: self.stack.last().copied(),
            start_ns,
            end_ns: start_ns,
        });
        self.stack.push(id);
        id
    }

    fn close(&mut self, id: usize) {
        assert_eq!(self.stack.pop(), Some(id), "spans close innermost first");
        self.spans[id].end_ns = self.now();
    }

    /// Run `f` inside a span named `name`; returns its result and the
    /// span's duration in ms.
    fn time<T>(&mut self, name: &'static str, request: u32, f: impl FnOnce() -> T) -> (T, f64) {
        let id = self.open(name, request);
        let out = f();
        self.close(id);
        (out, self.ms(id))
    }

    fn ms(&self, id: usize) -> f64 {
        (self.spans[id].end_ns - self.spans[id].start_ns) as f64 / 1e6
    }

    /// Self time of every span: its duration minus what its children
    /// cover (children run sequentially inside their parent).
    fn self_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(|s| s.end_ns - s.start_ns).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] = own[p].saturating_sub(s.end_ns - s.start_ns);
            }
        }
        own
    }
}

/// Per-operation measurements of the replay.
#[derive(Default)]
struct Replay {
    classes: [usize; 6],
    replay_class_mismatches: usize,
    timed_traced_ms: f64,
    timed_untraced_ms: f64,
    /// `serve.cache` sizes when the timed phase ended.
    cache: Option<((usize, usize), (usize, usize))>,
    cold: Vec<usize>,
    append_ms: Vec<f64>,
    commit_ms: Vec<f64>,
    sweep_ms: Vec<f64>,
    absorb_ms: Vec<f64>,
    kept: usize,
    evicted: usize,
}

/// What the traced run produces.
pub struct Traced {
    /// The per-layer metrics.
    pub metrics: Vec<Metric>,
    /// Decomposed answers that differ from the served ones.
    pub problems: Vec<String>,
}

/// Replay `run` traced, decompose its cold serves, and write the span
/// dump and the per-layer table under `out_dir`.
pub fn traced(fx: &Fixture, run: &Run, workload: &str, out_dir: &Path, provenance: &str) -> Traced {
    let mut tr = Tracer::new();
    let mut problems = Vec::new();

    // Set-up layers, each on fresh copies.
    let mut index_ms = Vec::new();
    let mut stats_ms = Vec::new();
    for _ in 0..BUILD_REPEATS {
        let copy = fx.fresh_relation();
        index_ms.push(
            tr.time("qcat-data.build_indexes", 0, || {
                copy.build_indexes();
            })
            .1,
        );
        stats_ms.push(
            tr.time("qcat-workload.stats_build", 0, || {
                WorkloadStatistics::build(&fx.log, copy.schema(), &fx.prep)
            })
            .1,
        );
    }

    let relation = fx.fresh_relation();
    let server = Server::new(ServerConfig::default());
    server
        .register_table(TABLE, relation.clone(), fx.log.clone(), fx.prep.clone())
        .expect("register the replay table");
    // The benchmark's mirror of the table and its statistics, advanced
    // by the same writes: commits are timed on it, and layers are
    // called directly against its statistics.
    let mirror = IngestTable::new(relation);
    let mut stats = WorkloadStatistics::build(&fx.log, mirror.pin().relation().schema(), &fx.prep);

    let rec = Recorder::metrics_only();
    let recorded = |f: &mut dyn FnMut()| qcat_obs::with_recorder(&rec, f);
    let mut rp = Replay::default();
    for (req, &(op, phase, untraced_ms)) in run.ops.iter().enumerate() {
        let req = req as u32;
        if phase == Phase::Probe && rp.cache.is_none() {
            rp.cache = Some((server.cache_sizes(), server.cache_bytes()));
            // The untraced run's output check left the caches empty
            // before its write probe.
            server.clear_caches();
        }
        let timed = phase == Phase::Timed;
        let root = tr.open("request", req);
        let call = tr.open(
            match op {
                Op::Serve(_) => "qcat-serve.serve",
                Op::Append(_) => "qcat-serve.append_rows",
                Op::Absorb(_) => "qcat-serve.log_queries",
            },
            req,
        );
        let (ms, outcome) = if timed {
            execute(&server, fx, op, &recorded)
        } else {
            execute(&server, fx, op, &crate::drive::plain)
        };
        tr.close(call);
        if timed {
            rp.timed_traced_ms += ms;
            rp.timed_untraced_ms += untraced_ms;
        }
        match (op, outcome) {
            (Op::Serve(i), Outcome::Served(Ok(s))) => {
                if timed {
                    rp.classes[class_of(s.outcome)] += 1;
                    if s.outcome == ServeOutcome::Cold {
                        rp.cold.push(i as usize);
                    }
                }
            }
            (Op::Append(i), Outcome::Appended(Ok(a))) => {
                let rows = fx.batch(i as usize);
                let (committed, commit_ms) =
                    tr.time("qcat-data.append_commit", req, || mirror.append_rows(&rows));
                committed.expect("mirror append");
                rp.append_ms.push(ms);
                rp.commit_ms.push(commit_ms);
                rp.sweep_ms.push(ms - commit_ms);
                rp.kept += a.kept;
                rp.evicted += a.evicted;
            }
            (Op::Absorb(i), Outcome::Absorbed(Ok(()))) => {
                rp.absorb_ms.push(ms);
                stats.absorb(&fx.absorb(i as usize)).expect("mirror absorb");
            }
            (op, _) => problems.push(format!("replayed {op:?} failed")),
        }
        tr.close(root);
    }
    if rp.cache.is_none() {
        rp.cache = Some((server.cache_sizes(), server.cache_bytes()));
    }
    for (k, c) in CLASSES.iter().enumerate() {
        if rp.classes[k] != run.classes[k] {
            rp.replay_class_mismatches += 1;
            println!(
                "trace: replay served {} {c} against {} untraced",
                rp.classes[k], run.classes[k]
            );
        }
    }
    if rp.replay_class_mismatches == 0 {
        println!("trace: replay serve classes equal the untraced run's exactly");
    }
    let counters = rec.snapshot().counters;
    let count = |name: &str| counters.get(name).copied().unwrap_or(0) as f64;

    // Layer-by-layer decomposition of distinct cold serves at the
    // final state: a cleared-cache serve and a tree hit, then the
    // same query through each layer's public entry point. The order
    // alternates so neither side always runs on warm CPU caches.
    // The layers read the server's own current relation (its catalog
    // holds it), so both sides of the comparison touch the same memory;
    // the mirror must agree with it.
    let relation = &server.catalog().get(TABLE).expect("registered table");
    if relation.len() != mirror.pin().relation().len() {
        problems.push("the mirror table diverged from the server's".to_string());
    }
    let categorizer = Categorizer::new(&stats, CategorizeConfig::default());
    let mut seen = std::collections::HashSet::new();
    let cold: Vec<usize> = rp
        .cold
        .iter()
        .copied()
        .filter(|i| seen.insert(*i))
        .take(DECOMPOSE_MAX)
        .collect();
    let mut layer_ms: BTreeMap<&'static str, f64> = BTreeMap::new();
    let (mut serve_cold_ms, mut tree_hit_us) = (0.0, Vec::new());
    let base_req = run.ops.len() as u32;
    for (k, &i) in cold.iter().enumerate() {
        let req = base_req + k as u32;
        let sql = &fx.distinct[i];
        let root = tr.open("decompose", req);
        let mut served_text = None;
        let mut layered_text = None;
        for step in 0..2 {
            if (step == 0) == (k % 2 == 0) {
                server.clear_caches();
                let (s, ms) = tr.time("qcat-serve.serve.cold", req, || server.serve(sql));
                let s = s.expect("cold serve");
                if s.outcome != ServeOutcome::Cold {
                    problems.push(format!("decomposed serve was {:?}: {sql}", s.outcome));
                }
                serve_cold_ms += ms;
                let (hit, ms) = tr.time("qcat-serve.serve.tree_hit", req, || server.serve(sql));
                if hit.ok().map(|h| h.outcome) == Some(ServeOutcome::TreeCacheHit) {
                    tree_hit_us.push(ms * 1e3);
                }
                served_text = Some(s.rendered);
            } else {
                let layers = tr.open("layers", req);
                let (ast, ms) = tr.time("qcat-sql.parse", req, || parse_select(sql));
                *layer_ms.entry("qcat-sql.parse").or_default() += ms;
                let ast = ast.expect("parse");
                let (query, ms) = tr.time("qcat-sql.normalize", req, || {
                    normalize(&ast, relation.schema())
                });
                *layer_ms.entry("qcat-sql.normalize").or_default() += ms;
                let query = query.expect("normalize");
                let (result, ms) = tr.time("qcat-exec.execute", req, || {
                    execute_normalized_with(relation, &query, AccessPath::Auto)
                });
                *layer_ms.entry("qcat-exec.execute").or_default() += ms;
                let result = result.expect("execute");
                let (tree, ms) = tr.time("qcat-core.categorize", req, || {
                    categorizer.categorize(&result, Some(&query))
                });
                *layer_ms.entry("qcat-core.categorize").or_default() += ms;
                let (text, ms) =
                    tr.time("qcat-core.render", req, || render_tree(&tree, usize::MAX));
                *layer_ms.entry("qcat-core.render").or_default() += ms;
                tr.close(layers);
                layered_text = Some(text);
            }
        }
        tr.close(root);
        if served_text.as_deref().map(String::as_str) != layered_text.as_deref() {
            problems.push(format!(
                "layer-by-layer tree differs from the served one: {sql}"
            ));
        }
    }
    server.clear_caches();

    // Parse and normalize alone, over every distinct query served.
    let (mut parse_us, mut normalize_us) = (Vec::new(), Vec::new());
    let schema = relation.schema();
    for (k, i) in run.served().into_iter().enumerate() {
        let req = base_req + cold.len() as u32 + k as u32;
        let root = tr.open("sql", req);
        let (ast, ms) = tr.time("qcat-sql.parse", req, || parse_select(&fx.distinct[i]));
        parse_us.push(ms * 1e3);
        let ast = ast.expect("parse");
        let (_, ms) = tr.time("qcat-sql.normalize", req, || normalize(&ast, schema));
        normalize_us.push(ms * 1e3);
        tr.close(root);
    }

    let layers_total: f64 = layer_ms.values().sum();
    let n_cold = cold.len().max(1) as f64;
    let served_timed: usize = rp.classes.iter().sum();
    let trees_built = (rp.classes[1] + rp.classes[2] + rp.classes[3]) as f64;
    let share = |k: usize| ratio(rp.classes[k] as f64, served_timed as f64);
    let ((_, tree_entries), (result_bytes, tree_bytes)) = rp.cache.expect("cache sizes taken");
    let answers: Vec<_> = run.answers.iter().flatten().collect();
    let lookups = count("workload.occ_lookups")
        + count("workload.occ_bulk_lookups")
        + count("workload.overlap_value_lookups")
        + count("workload.overlap_range_lookups")
        + count("workload.splitpoint_lookups");
    let mib = |b: usize| b as f64 / (1024.0 * 1024.0);
    let cold_note = format!("{} distinct cold serves", cold.len());
    let m = |name: &'static str, value: f64, unit: &'static str, note: &str| Metric {
        name,
        value,
        unit,
        note: note.to_string(),
    };
    let timed_note = format!("{served_timed} timed serves");
    let append_note = format!("{} appends", rp.append_ms.len());
    let append = Summary::of(&run.append_ms);
    let metrics = vec![
        m(
            "sql.parse_us",
            mean(&parse_us),
            "us",
            &format!("mean of {}", parse_us.len()),
        ),
        m(
            "sql.normalize_us",
            mean(&normalize_us),
            "us",
            &format!("mean of {}", normalize_us.len()),
        ),
        m(
            "serve.tree_hit_us",
            median(&tree_hit_us),
            "us",
            &format!("median of {}", tree_hit_us.len()),
        ),
        m("serve.tree_hit_ratio", share(0), "ratio", &timed_note),
        m("serve.result_hit_ratio", share(1), "ratio", &timed_note),
        m(
            "serve.containment_hit_ratio",
            share(2),
            "ratio",
            &timed_note,
        ),
        m("serve.cold_ratio", share(3), "ratio", &timed_note),
        m(
            "serve.tree_cache_entries",
            tree_entries as f64,
            "count",
            "end of timed phase",
        ),
        m(
            "serve.tree_cache_mb",
            mib(tree_bytes),
            "MiB",
            "end of timed phase",
        ),
        m(
            "serve.result_cache_mb",
            mib(result_bytes),
            "MiB",
            "end of timed phase",
        ),
        m(
            "serve.containment_rows_ratio",
            ratio(
                count("serve.containment.rows_out"),
                count("serve.containment.rows_donor"),
            ),
            "ratio",
            "rows_out / rows_donor",
        ),
        m(
            "serve.invalidate_kept_ratio",
            ratio(rp.kept as f64, (rp.kept + rp.evicted) as f64),
            "ratio",
            &format!("{} kept, {} evicted", rp.kept, rp.evicted),
        ),
        m(
            "serve.append_p50_ms",
            append.map_or(0.0, |a| a.p50),
            "ms",
            &format!("untraced run: median of {}", run.append_ms.len()),
        ),
        m(
            "serve.append_tail_ms",
            append.map_or(0.0, |a| a.tail),
            "ms",
            &append.map_or(String::new(), |a| {
                format!(
                    "untraced run: p{} of {}, {} beyond",
                    a.tail_pct, a.n, a.beyond
                )
            }),
        ),
        m("serve.sweep_ms", median(&rp.sweep_ms), "ms", &append_note),
        m(
            "serve.unattributed_share",
            ratio(serve_cold_ms - layers_total, serve_cold_ms),
            "ratio",
            &cold_note,
        ),
        m(
            "exec.execute_ms",
            layer_ms.get("qcat-exec.execute").copied().unwrap_or(0.0) / n_cold,
            "ms",
            &cold_note,
        ),
        m(
            "exec.share",
            ratio(
                layer_ms.get("qcat-exec.execute").copied().unwrap_or(0.0),
                layers_total,
            ),
            "ratio",
            &cold_note,
        ),
        m(
            "exec.rows_scanned_per_match",
            ratio(count("exec.rows_scanned"), count("exec.rows_matched")),
            "ratio",
            "counters",
        ),
        m(
            "exec.index_used_ratio",
            ratio(
                count("exec.index.used"),
                count("exec.index.used") + count("exec.plan.scan_fallback"),
            ),
            "ratio",
            "counters",
        ),
        m(
            "exec.residual_rows_in_per_match",
            ratio(
                count("exec.residual.rows_in"),
                count("exec.residual.rows_matched"),
            ),
            "ratio",
            "counters",
        ),
        m(
            "core.categorize_ms",
            layer_ms.get("qcat-core.categorize").copied().unwrap_or(0.0) / n_cold,
            "ms",
            &cold_note,
        ),
        m(
            "core.categorize_share",
            ratio(
                layer_ms.get("qcat-core.categorize").copied().unwrap_or(0.0),
                layers_total,
            ),
            "ratio",
            &cold_note,
        ),
        m(
            "core.render_ms",
            layer_ms.get("qcat-core.render").copied().unwrap_or(0.0) / n_cold,
            "ms",
            &cold_note,
        ),
        m(
            "core.tree_nodes",
            mean(&answers.iter().map(|a| a.nodes as f64).collect::<Vec<_>>()),
            "count",
            &format!("mean over {} distinct answers", answers.len()),
        ),
        m(
            "core.cost_evals_per_tree",
            ratio(count("categorize.cost_evals"), trees_built),
            "count",
            "counters",
        ),
        m(
            "core.tree_heap_kb",
            mean(
                &answers
                    .iter()
                    .map(|a| a.heap_bytes as f64 / 1024.0)
                    .collect::<Vec<_>>(),
            ),
            "KiB",
            &format!("mean over {} distinct answers", answers.len()),
        ),
        m(
            "data.index_build_ms",
            median(&index_ms),
            "ms",
            &format!("median of {BUILD_REPEATS}"),
        ),
        m(
            "data.append_commit_ms",
            median(&rp.commit_ms),
            "ms",
            &append_note,
        ),
        m(
            "data.rss_per_append_mb",
            ratio(
                run.rss_appends.1 - run.rss_appends.0.unwrap_or(0.0),
                run.append_ms.len() as f64,
            ),
            "MiB",
            "untraced run: VmRSS growth from the first append to the last, per append",
        ),
        m(
            "workload.stats_build_ms",
            median(&stats_ms),
            "ms",
            &format!("median of {BUILD_REPEATS}"),
        ),
        m(
            "workload.absorb_ms",
            median(&rp.absorb_ms),
            "ms",
            &format!("{} absorbs", rp.absorb_ms.len()),
        ),
        m(
            "workload.lookups_per_tree",
            ratio(lookups, trees_built),
            "count",
            "counters",
        ),
        m(
            "pool.tasks_per_tree",
            ratio(count("pool.tasks"), trees_built),
            "count",
            "counters",
        ),
        m(
            "bench.trace_overhead_ratio",
            ratio(rp.timed_traced_ms, rp.timed_untraced_ms),
            "ratio",
            "traced / untraced server-call time, timed ops",
        ),
    ];

    write_artifact(
        &tr,
        &metrics,
        &rp,
        &layer_ms,
        serve_cold_ms,
        workload,
        out_dir,
        provenance,
    );
    Traced { metrics, problems }
}

/// Write `spans.jsonl` (every span) and `layers.json` (self times by
/// span name, the cold-serve layer table and the per-layer metrics).
#[allow(clippy::too_many_arguments)]
fn write_artifact(
    tr: &Tracer,
    metrics: &[Metric],
    rp: &Replay,
    layer_ms: &BTreeMap<&'static str, f64>,
    serve_cold_ms: f64,
    workload: &str,
    out_dir: &Path,
    provenance: &str,
) {
    let own = tr.self_ns();
    let mut dump = String::new();
    for (id, s) in tr.spans.iter().enumerate() {
        let _ = writeln!(
            dump,
            "{{\"id\": {id}, \"name\": {}, \"request\": {}, \"parent\": {}, \"start_ns\": {}, \"end_ns\": {}, \"self_ns\": {}}}",
            json_str(s.name),
            s.request,
            s.parent.map_or("null".to_string(), |p| p.to_string()),
            s.start_ns,
            s.end_ns,
            own[id]
        );
    }

    // Self time by span name.
    let mut by_name: BTreeMap<&str, (usize, u64, u64)> = BTreeMap::new();
    for (id, s) in tr.spans.iter().enumerate() {
        let e = by_name.entry(s.name).or_default();
        e.0 += 1;
        e.1 += s.end_ns - s.start_ns;
        e.2 += own[id];
    }
    let layers_total: f64 = layer_ms.values().sum();
    println!("trace: span self times");
    println!(
        "  {:<28} {:>8} {:>12} {:>12}",
        "span", "count", "total_ms", "self_ms"
    );
    let mut spans_json = Vec::new();
    for (name, (n, total, selfns)) in &by_name {
        println!(
            "  {:<28} {:>8} {:>12.3} {:>12.3}",
            name,
            n,
            *total as f64 / 1e6,
            *selfns as f64 / 1e6
        );
        spans_json.push(format!(
            "{{\"name\": {}, \"count\": {n}, \"total_ms\": {}, \"self_ms\": {}}}",
            json_str(name),
            json_num(*total as f64 / 1e6),
            json_num(*selfns as f64 / 1e6)
        ));
    }
    println!("trace: cold serve by layer ({serve_cold_ms:.3} ms served cold)");
    let mut layers_json = Vec::new();
    for (name, ms) in layer_ms {
        println!(
            "  {:<28} {:>12.3} ms {:>7.2}%",
            name,
            ms,
            100.0 * ratio(*ms, serve_cold_ms)
        );
        layers_json.push(format!(
            "{{\"layer\": {}, \"ms\": {}, \"share_of_serve\": {}}}",
            json_str(name),
            json_num(*ms),
            json_num(ratio(*ms, serve_cold_ms))
        ));
    }
    println!(
        "  {:<28} {:>12.3} ms {:>7.2}%",
        "unattributed",
        serve_cold_ms - layers_total,
        100.0 * ratio(serve_cold_ms - layers_total, serve_cold_ms)
    );
    let metrics_json: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "{{\"name\": {}, \"value\": {}, \"unit\": {}, \"note\": {}}}",
                json_str(m.name),
                json_num(m.value),
                json_str(m.unit),
                json_str(&m.note)
            )
        })
        .collect();
    let table = format!(
        "{{\"workload\": {}, \"provenance\": {provenance}, \"replay_class_mismatches\": {}, \"spans\": [{}], \"cold_serve_layers\": [{}], \"serve_cold_ms\": {}, \"per_layer\": [{}]}}\n",
        json_str(workload),
        rp.replay_class_mismatches,
        spans_json.join(", "),
        layers_json.join(", "),
        json_num(serve_cold_ms),
        metrics_json.join(", ")
    );
    let written = std::fs::create_dir_all(out_dir)
        .and_then(|()| std::fs::write(out_dir.join("spans.jsonl"), dump))
        .and_then(|()| std::fs::write(out_dir.join("layers.json"), table));
    match written {
        Ok(()) => println!(
            "trace: wrote {}/spans.jsonl and layers.json",
            out_dir.display()
        ),
        Err(e) => eprintln!("trace: could not write {}: {e}", out_dir.display()),
    }
}
