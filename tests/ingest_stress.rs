//! PR-10 chaos harness for the mutable-tail ingest layer: concurrent
//! appenders and readers under an injected fault storm. The contract
//! under test is snapshot isolation with all-or-nothing appends:
//!
//! - every successful read is **byte-identical** to a serial replay of
//!   the committed batches at the reader's pinned generation;
//! - a failed append (validation error or injected fault) leaves the
//!   table byte-identical to pre-batch — later reads never see a
//!   half-applied batch;
//! - no thread wedges: the scope joins, every request accounts for
//!   itself.
//!
//! Executed at thread widths {1, 2, 8} (or the width in
//! `QCAT_THREADS`, for the CI smoke matrix).

use qcat::data::{
    AttrType, Field, IngestTable, Relation, RelationBuilder, Schema, Value, SEGMENT_ROWS,
};
use qcat::exec::{execute_normalized_with, execute_normalized_with_threads, AccessPath};
use qcat::fault::FaultPlan;
use qcat::serve::{Server, ServerConfig};
use qcat::sql::parse_and_normalize;
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread;

const HOODS: [&str; 4] = ["Redmond", "Bellevue", "Issaquah", "Kirkland"];

const READ_QUERIES: &[&str] = &[
    "SELECT * FROM homes WHERE neighborhood IN ('Redmond','Kirkland')",
    "SELECT * FROM homes WHERE price BETWEEN 120000 AND 400000",
    "SELECT * FROM homes WHERE bedroomcount >= 3 AND price <= 900000",
    "SELECT * FROM homes",
];

/// Thread widths to sweep: the CI smoke pins one width through
/// `QCAT_THREADS`; a bare `cargo test` sweeps the acceptance matrix.
fn thread_widths() -> Vec<usize> {
    match std::env::var("QCAT_THREADS").ok().and_then(|v| v.parse().ok()) {
        Some(w) => vec![w],
        None => vec![1, 2, 8],
    }
}

fn schema() -> Schema {
    Schema::new(vec![
        Field::new("neighborhood", AttrType::Categorical),
        Field::new("price", AttrType::Float),
        Field::new("bedroomcount", AttrType::Int),
    ])
    .unwrap()
}

/// Deterministic row content: a pure function of a single counter, so
/// a serial replay regenerates exactly the rows a batch committed.
fn make_row(i: i64) -> Vec<Value> {
    vec![
        HOODS[(i % 4) as usize].into(),
        (100_000.0 + (i % 800) as f64 * 1_000.0).into(),
        (1 + i % 5).into(),
    ]
}

fn seed(rows: i64, shard_rows: usize) -> Relation {
    let mut b = RelationBuilder::with_capacity(schema(), rows as usize)
        .with_shard_rows(shard_rows)
        .with_indexes();
    for i in 0..rows {
        b.push_row(&make_row(i)).unwrap();
    }
    b.finish().unwrap()
}

/// A batch is identified by `(thread, attempt)` and its rows derive
/// from that identity alone — committed or rolled back, the content is
/// reproducible.
fn make_batch(thread: usize, attempt: usize) -> Vec<Vec<Value>> {
    let base = (thread as i64) * 10_000 + (attempt as i64) * 100;
    (0..8).map(|j| make_row(base + j)).collect()
}

/// Silence only the panics the fault injector raises on purpose.
fn mute_injected_panics() {
    let prev = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let payload = info
            .payload()
            .downcast_ref::<String>()
            .map(String::as_str)
            .or_else(|| info.payload().downcast_ref::<&str>().copied())
            .unwrap_or("");
        if !payload.contains("injected fault panic") {
            prev(info);
        }
    }));
}

/// The core isolation proof: hammer one `IngestTable` with appenders
/// (some fault-injected) and readers that pin snapshots and execute
/// real queries at several thread widths. Afterwards, replay the
/// committed batches serially and check **every** recorded read
/// byte-for-byte against the replayed relation at its pinned
/// generation.
#[test]
fn concurrent_reads_match_serial_replay_at_pinned_generation() {
    mute_injected_panics();
    let table = IngestTable::new(seed(120, 30));
    let queries: Vec<_> = READ_QUERIES
        .iter()
        .map(|sql| parse_and_normalize(sql, &schema()).unwrap())
        .collect();

    // generation → the batch that produced it (committed appends only).
    let committed: Mutex<HashMap<u64, Vec<Vec<Value>>>> = Mutex::new(HashMap::new());
    // (pinned generation, query index, threads, row ids) per read.
    let reads: Mutex<Vec<(u64, usize, usize, Vec<u32>)>> = Mutex::new(Vec::new());
    let append_failures = AtomicUsize::new(0);
    let widths = thread_widths();

    const APPENDERS: usize = 3;
    const READERS: usize = 5;
    const ROUNDS: usize = 12;
    thread::scope(|s| {
        for t in 0..APPENDERS {
            let (table, committed, append_failures) = (&table, &committed, &append_failures);
            s.spawn(move || {
                // Thread 0 appends clean; the others storm both tail
                // fault sites with errors and panics deterministically.
                let plan = match t % 3 {
                    1 => Some(format!(
                        "data.append:error:p=0.4:seed={t};data.index.delta:error:p=0.3:seed={t}"
                    )),
                    2 => Some(format!("data.append:panic:p=0.3:seed={t}")),
                    _ => None,
                };
                let plan = plan.map(|spec| FaultPlan::parse(&spec).unwrap());
                for attempt in 0..ROUNDS {
                    let batch = make_batch(t, attempt);
                    let append = || match table.append_rows(&batch) {
                        Ok(receipt) => {
                            let mut map = committed.lock().unwrap();
                            map.insert(receipt.snapshot.generation(), batch.clone());
                        }
                        Err(e) => {
                            assert!(!e.to_string().is_empty());
                            append_failures.fetch_add(1, Ordering::Relaxed);
                        }
                    };
                    match &plan {
                        // A panicking append unwinds through the table
                        // lock; catching it here models a caller that
                        // survives and retries. Poison recovery inside
                        // IngestTable keeps the snapshot consistent.
                        Some(p) => {
                            let r = std::panic::catch_unwind(
                                std::panic::AssertUnwindSafe(|| {
                                    qcat::fault::with_plan(p, append)
                                }),
                            );
                            if r.is_err() {
                                append_failures.fetch_add(1, Ordering::Relaxed);
                            }
                        }
                        None => append(),
                    }
                }
            });
        }
        for t in 0..READERS {
            let (table, reads, queries, widths) = (&table, &reads, &queries, &widths);
            s.spawn(move || {
                for round in 0..ROUNDS {
                    let snap = table.pin();
                    let qi = (t + round) % queries.len();
                    let threads = widths[(t + round) % widths.len()];
                    let got = execute_normalized_with_threads(
                        snap.relation(),
                        &queries[qi],
                        AccessPath::Auto,
                        threads,
                    )
                    .unwrap();
                    reads.lock().unwrap().push((
                        snap.generation(),
                        qi,
                        threads,
                        got.rows().to_vec(),
                    ));
                }
            });
        }
    });

    // Quiesce. The scope joined: zero wedged threads. Now replay.
    let committed = committed.into_inner().unwrap();
    let reads = reads.into_inner().unwrap();
    let final_gen = table.generation();
    assert_eq!(
        committed.len() as u64,
        final_gen,
        "every generation step corresponds to exactly one committed batch"
    );
    assert!(
        append_failures.load(Ordering::Relaxed) > 0,
        "the fault storm must actually reject some appends"
    );
    assert_eq!(reads.len(), READERS * ROUNDS, "every read accounted for");

    // Serial replay: apply committed batches in generation order,
    // snapshotting the relation at every generation.
    let mut replayed: Vec<Relation> = vec![seed(120, 30)];
    for g in 1..=final_gen {
        let batch = committed
            .get(&g)
            .unwrap_or_else(|| panic!("generation {g} has no committed batch"));
        let mut tail = replayed.last().unwrap().begin_append();
        for row in batch {
            tail.push_row(row).unwrap();
        }
        replayed.push(tail.commit().unwrap().relation);
    }

    // Every read must equal the serial ground truth at its pinned
    // generation — regardless of which faults raged around it and at
    // which thread width it executed.
    for (generation, qi, threads, rows) in &reads {
        let truth = execute_normalized_with(
            &replayed[*generation as usize],
            &queries[*qi],
            AccessPath::ForceScan,
        )
        .unwrap();
        assert_eq!(
            rows.as_slice(),
            truth.rows(),
            "read diverged from serial replay: gen={generation} query={} threads={threads}",
            READ_QUERIES[*qi]
        );
    }

    // Rollback byte-identity: the live table equals the replay at the
    // final generation on every column of every row.
    let live = table.pin();
    let truth = replayed.last().unwrap();
    assert_eq!(live.relation().len(), truth.len());
    for q in &queries {
        let a = execute_normalized_with(live.relation(), q, AccessPath::ForceScan).unwrap();
        let b = execute_normalized_with(truth, q, AccessPath::ForceScan).unwrap();
        assert_eq!(a.rows(), b.rows());
    }
}

/// The serve-layer face of the same storm: concurrent serves and
/// `Server::append_rows` with selective invalidation on. After the
/// chaos, every cached answer that survived must be byte-identical to
/// a from-scratch recompute — zero stale answers.
#[test]
fn append_invalidation_never_serves_stale_answers_under_storm() {
    mute_injected_panics();
    let relation = seed(200, 50);
    let log = qcat::workload::WorkloadLog::parse(
        READ_QUERIES.iter().copied(),
        &schema(),
        None,
    );
    let prep = qcat::workload::PreprocessConfig::new().infer_missing(&relation, 20);
    let server = Server::new(ServerConfig::default());
    server.register_table("homes", relation, log, prep).unwrap();

    let serves_ok = AtomicUsize::new(0);
    let serve_errors = AtomicUsize::new(0);
    const WRITERS: usize = 2;
    const SERVERS: usize = 6;
    const ROUNDS: usize = 10;
    thread::scope(|s| {
        for t in 0..WRITERS {
            let server = &server;
            s.spawn(move || {
                let plan = (t == 1).then(|| {
                    FaultPlan::parse(&format!("data.append:error:p=0.5:seed={t}")).unwrap()
                });
                for attempt in 0..ROUNDS {
                    let batch = make_batch(t, attempt);
                    let append = || {
                        // Failed appends are fine (structured, rolled
                        // back); successful ones must invalidate.
                        let _ = server.append_rows("homes", &batch);
                    };
                    match &plan {
                        Some(p) => qcat::fault::with_plan(p, append),
                        None => append(),
                    }
                }
            });
        }
        for t in 0..SERVERS {
            let (server, serves_ok, serve_errors) = (&server, &serves_ok, &serve_errors);
            s.spawn(move || {
                for round in 0..ROUNDS {
                    let sql = READ_QUERIES[(t + round) % READ_QUERIES.len()];
                    match server.serve(sql) {
                        Ok(served) => {
                            assert!(!served.rendered.is_empty());
                            serves_ok.fetch_add(1, Ordering::Relaxed);
                        }
                        Err(e) => {
                            assert!(!e.to_string().is_empty());
                            serve_errors.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                }
            });
        }
    });
    assert_eq!(
        serves_ok.load(Ordering::Relaxed) + serve_errors.load(Ordering::Relaxed),
        SERVERS * ROUNDS,
        "every serve accounts for itself"
    );
    assert!(server.generation("homes").unwrap() > 0, "some appends landed");

    // Zero-staleness check: whatever the caches still hold must match
    // a recompute from flushed caches, byte for byte.
    let mut cached_pass = Vec::new();
    for sql in READ_QUERIES {
        let served = server.serve(sql).unwrap();
        cached_pass.push((served.rows, served.rendered));
    }
    server.clear_caches();
    for (sql, (rows, rendered)) in READ_QUERIES.iter().zip(&cached_pass) {
        let fresh = server.serve(sql).unwrap();
        assert_eq!(fresh.rows, *rows, "stale row count for {sql}");
        assert_eq!(&fresh.rendered, rendered, "stale tree for {sql}");
    }
}

/// An unsharded table grown through `IngestTable` by 40 batches — one
/// of them empty, the tail sealing exactly at `SEGMENT_ROWS` on the
/// way — reads exactly like a fresh one-segment build of the same rows
/// after 1, 2 and 40 appends, on every access path and thread width.
#[test]
fn unsharded_ingest_reads_match_fresh_builds() {
    let base = (SEGMENT_ROWS - 96) as i64;
    let table = IngestTable::new(seed(base, 0));
    let log = qcat::workload::WorkloadLog::parse(READ_QUERIES.iter().copied(), &schema(), None);
    let prep = qcat::workload::PreprocessConfig::new().infer_missing(table.pin().relation(), 20);
    let stats = qcat::workload::WorkloadStatistics::build(&log, &schema(), &prep);
    // Every partitioner over the answer: cost-based categorical and
    // numeric splits (plain and with tail grouping), and the equi-width
    // No-cost / Attr-cost baselines. Reads after the first append
    // straddle the base/tail segment boundary.
    let trees = |stats: &qcat::workload::WorkloadStatistics,
                 result: &qcat::exec::ResultSet,
                 q: &qcat::sql::NormalizedQuery,
                 threads: usize| {
        let config = qcat::core::CategorizeConfig::default().with_threads(threads);
        let baseline = qcat::core::BaselineConfig::new(schema().attr_ids().collect(), &config);
        let render = |t: &qcat::core::CategoryTree| qcat::core::render_tree(t, usize::MAX);
        [
            render(&qcat::core::Categorizer::new(stats, config).categorize(result, Some(q))),
            render(
                &qcat::core::Categorizer::new(stats, config.with_categorical_grouping(2, 1))
                    .categorize(result, Some(q)),
            ),
            render(&qcat::core::no_cost_categorize(stats, &baseline, result)),
            render(&qcat::core::attr_cost_categorize(stats, &baseline, result)),
        ]
    };
    let queries: Vec<_> = READ_QUERIES
        .iter()
        .map(|sql| parse_and_normalize(sql, &schema()).unwrap())
        .collect();
    let mut rows = base;
    for n in 1..=40 {
        let batch: Vec<Vec<Value>> = match n {
            5 => Vec::new(),
            _ => (0..8).map(|j| make_row(rows + j)).collect(),
        };
        rows += batch.len() as i64;
        let receipt = table.append_rows(&batch).unwrap();
        assert_eq!(receipt.commit.added, batch.len());
        if ![1, 2, 40].contains(&n) {
            continue;
        }
        let grown = table.pin().relation().clone();
        let fresh = seed(rows, 0);
        assert_eq!(grown.len(), fresh.len());
        for q in &queries {
            let truth = execute_normalized_with(&fresh, q, AccessPath::ForceScan).unwrap();
            let want = trees(&stats, &truth, q, 1);
            for path in [AccessPath::Auto, AccessPath::ForceScan, AccessPath::ForceIndex] {
                for &threads in &thread_widths() {
                    let got = execute_normalized_with_threads(&grown, q, path, threads).unwrap();
                    assert_eq!(got.rows(), truth.rows(), "after {n} appends: {path:?} threads={threads}");
                    assert_eq!(trees(&stats, &got, q, threads), want, "after {n} appends: {path:?}");
                }
            }
        }
    }
    let grown = table.pin();
    let sealed = grown.relation().shards().bounds(0);
    assert_eq!(sealed, (0, SEGMENT_ROWS), "the tail sealed exactly at the segment size");
    assert_eq!(grown.relation().shards().shard_count(), 2);
}

/// Pinning every generation of a 60k-row indexed table across 50
/// appends of 32 rows costs O(appended rows), never a table copy per
/// generation: sealed segments (columns, index, summary) are shared by
/// `Arc`, and each generation owns only its tail. Both layouts.
#[test]
fn pinned_generations_share_sealed_segments() {
    const BASE: i64 = 60_000;
    const BATCH: i64 = 32;
    for shard_rows in [0, 6_000] {
        let mut generations = vec![seed(BASE, shard_rows)];
        for g in 0..50 {
            let mut tail = generations[g as usize].begin_append();
            for i in 0..BATCH {
                tail.push_row(&make_row(BASE + g * BATCH + i)).unwrap();
            }
            generations.push(tail.commit().unwrap().relation);
        }
        // Every base segment is sealed, so every later generation
        // shares all of them: chunks, index and summary alike.
        let base = &generations[0];
        for gen in &generations[1..] {
            assert!(gen.has_indexes(), "appends keep the table indexed");
            for (s, seg) in base.shards().iter().enumerate() {
                let same = &gen.shards()[s];
                assert!(Arc::ptr_eq(seg, same), "shard_rows={shard_rows}: segment {s}");
                for (a, b) in seg.chunks().iter().zip(same.chunks()) {
                    assert!(std::ptr::eq(a, b), "columns are shared, not copied");
                }
                assert!(std::ptr::eq(seg.indexes().unwrap(), same.indexes().unwrap()));
                assert!(std::ptr::eq(seg.summary(), same.summary()));
            }
            assert_eq!(gen.shards().shard_count(), base.shards().shard_count() + 1, "one tail");
        }
        // Unique heap over all 51 live generations, each shared
        // segment counted once: generation k owns only its 32k-row
        // tail (twice that, for slack), and all of them together cost
        // less than one more copy of the table.
        let mut seen = std::collections::HashSet::new();
        let unique: usize = generations
            .iter()
            .flat_map(|g| g.shards().iter())
            .filter(|seg| seen.insert(Arc::as_ptr(seg)))
            .map(|seg| seg.heap_bytes())
            .sum();
        let table = base.heap_bytes();
        let per_row = table / BASE as usize;
        let tails: usize = (1..=50).map(|k| k * BATCH as usize).sum();
        let growth = unique - table;
        assert!(growth <= 2 * per_row * tails, "shard_rows={shard_rows}: {growth} B over {tails} tail rows");
        assert!(growth < table, "shard_rows={shard_rows}: 50 generations cost more than a copy");
    }
}
