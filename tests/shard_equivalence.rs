//! Pinning tests: the segment layout is a scheduling decision, never a
//! semantic one. A relation split into segments — by the builder, or
//! by appends sealing tails — scanned as pool morsels, indexed per
//! segment, pruned by summaries, must return byte-identical rows and
//! byte-identical category trees to a one-segment build of the same
//! rows, at every thread width and on every access path.

use qcat::core::{
    attr_cost_categorize, no_cost_categorize, render_tree, BaselineConfig, Categorizer,
};
use qcat::data::{AttrId, AttrType, Field, Relation, RelationBuilder, Schema, Value, SEGMENT_ROWS};
use qcat::exec::{execute_normalized_with, execute_normalized_with_threads, AccessPath};
use qcat::serve::{ServeOutcome, Server, ServerConfig};
use qcat::sql::parse_and_normalize;
use qcat::study::{StudyEnv, StudyScale};

const THREAD_WIDTHS: [usize; 3] = [1, 2, 8];
const PATHS: [AccessPath; 3] = [AccessPath::Auto, AccessPath::ForceScan, AccessPath::ForceIndex];

/// 90 rows of three neighborhoods with clustered prices, so shard
/// layouts can make shards that summaries actually prune.
fn fixture(rows: i64, shard_rows: usize, indexed: bool) -> Relation {
    let schema = Schema::new(vec![
        Field::new("neighborhood", AttrType::Categorical),
        Field::new("price", AttrType::Float),
        Field::new("bedroomcount", AttrType::Int),
    ])
    .unwrap();
    let hoods = ["Redmond", "Bellevue", "Issaquah"];
    let mut b = RelationBuilder::with_capacity(schema, rows as usize).with_shard_rows(shard_rows);
    for i in 0..rows {
        // Neighborhoods rotate per row; prices grow with the row id so
        // each shard covers a distinct [min, max] band.
        b.push_row(&[
            hoods[(i % 3) as usize].into(),
            (100_000.0 + i as f64 * 1_000.0).into(),
            (1 + i % 5).into(),
        ])
        .unwrap();
    }
    if indexed {
        b = b.with_indexes();
    }
    b.finish().unwrap()
}

/// Rows for `sql` on the single-shard unindexed scan path: the ground
/// truth every other (layout, path, width) combination must equal.
fn ground_truth(relation: &Relation, sql: &str) -> Vec<u32> {
    let q = parse_and_normalize(sql, relation.schema()).unwrap();
    execute_normalized_with(relation, &q, AccessPath::ForceScan)
        .unwrap()
        .rows()
        .to_vec()
}

/// Assert every (shard layout, indexed, path, threads) combination
/// returns exactly `expect` rows for `sql` over `rows`-row data.
fn assert_equivalent(rows: i64, shard_layouts: &[usize], sql: &str, expect_len: usize) {
    let baseline = fixture(rows, 0, false);
    let truth = ground_truth(&baseline, sql);
    assert_eq!(truth.len(), expect_len, "ground-truth cardinality for {sql}");
    for &shard_rows in shard_layouts {
        for indexed in [false, true] {
            let rel = fixture(rows, shard_rows, indexed);
            let q = parse_and_normalize(sql, rel.schema()).unwrap();
            for path in PATHS {
                for threads in THREAD_WIDTHS {
                    let got = execute_normalized_with_threads(&rel, &q, path, threads).unwrap();
                    assert_eq!(
                        got.rows(),
                        truth.as_slice(),
                        "{sql}: shard_rows={shard_rows} indexed={indexed} \
                         {path:?} threads={threads}"
                    );
                }
            }
        }
    }
}

#[test]
fn rows_exactly_divisible_by_shard_size() {
    // 90 rows / 30-row shards = 3 full shards, no remainder.
    let rel = fixture(90, 30, false);
    assert_eq!(rel.shards().shard_count(), 3);
    assert_eq!(rel.shards().bounds(2), (60, 90));
    assert_equivalent(
        90,
        &[30],
        "SELECT * FROM homes WHERE neighborhood IN ('Redmond') AND bedroomcount >= 3",
        18,
    );
    // A range landing exactly on a shard boundary row.
    assert_equivalent(90, &[30], "SELECT * FROM homes WHERE price >= 130000", 60);
    assert_equivalent(90, &[30], "SELECT * FROM homes WHERE price > 130000", 59);
}

#[test]
fn last_shard_holds_a_single_row() {
    // 91 rows / 30-row shards: shards of 30, 30, 30, 1.
    let rel = fixture(91, 30, false);
    assert_eq!(rel.shards().shard_count(), 4);
    assert_eq!(rel.shards().bounds(3), (90, 91));
    assert_equivalent(91, &[30], "SELECT * FROM homes WHERE price >= 190000", 1);
    assert_equivalent(91, &[30], "SELECT * FROM homes", 91);
}

#[test]
fn empty_relation_queries_cleanly_at_any_layout() {
    for shard_rows in [0, 8] {
        for indexed in [false, true] {
            let rel = fixture(0, shard_rows, indexed);
            assert!(rel.is_empty());
            assert_eq!(rel.shards().shard_count(), 1, "empty = one empty shard");
            let q = parse_and_normalize(
                "SELECT * FROM homes WHERE price > 0",
                rel.schema(),
            )
            .unwrap();
            for path in PATHS {
                for threads in THREAD_WIDTHS {
                    let got =
                        execute_normalized_with_threads(&rel, &q, path, threads).unwrap();
                    assert!(got.is_empty(), "{path:?} threads={threads}");
                }
            }
        }
    }
}

#[test]
fn matches_confined_to_one_shard_survive_pruning() {
    // Prices grow with row id, so `price >= 170000` (rows 70..90) sits
    // entirely in the last 30-row shard; the other two must be pruned,
    // and pruning must not cost a single row.
    let rel = fixture(90, 30, false);
    let q = parse_and_normalize("SELECT * FROM homes WHERE price >= 170000", rel.schema())
        .unwrap();
    let (rows, explain) =
        qcat::exec::plan::select_rows(&rel, &q, AccessPath::Auto).unwrap();
    assert_eq!(rows.len(), 20);
    assert_eq!(rows.first(), Some(&70));
    assert_eq!(explain.shards_pruned, 2, "two shards proven priced below 170k");
    assert_equivalent(90, &[30], "SELECT * FROM homes WHERE price >= 170000", 20);
}

/// Value clustering is the satellite that makes categorical pruning
/// real: the rotating fixture puts every neighborhood in every shard
/// (nothing prunable), while `cluster_by` reorders rows so each
/// neighborhood occupies contiguous shards the code-presence summaries
/// can skip wholesale.
#[test]
fn value_clustering_enables_categorical_pruning() {
    let sql = "SELECT * FROM homes WHERE neighborhood IN ('Redmond')";
    // Baseline: neighborhoods rotate per row, so every 30-row shard
    // contains all three values and nothing can be pruned.
    let rotating = fixture(90, 30, false);
    let q = parse_and_normalize(sql, rotating.schema()).unwrap();
    let (base_rows, base_explain) =
        qcat::exec::plan::select_rows(&rotating, &q, AccessPath::Auto).unwrap();
    assert_eq!(base_rows.len(), 30);
    assert_eq!(base_explain.shards_pruned, 0, "rotating layout is unprunable");

    // Clustered: same 90 rows, reordered by neighborhood at freeze
    // time. One value spans exactly one 30-row shard.
    let schema = rotating.schema().clone();
    let hoods = ["Redmond", "Bellevue", "Issaquah"];
    let mut b = RelationBuilder::with_capacity(schema, 90)
        .with_shard_rows(30)
        .cluster_by(AttrId(0));
    for i in 0..90i64 {
        b.push_row(&[
            hoods[(i % 3) as usize].into(),
            (100_000.0 + i as f64 * 1_000.0).into(),
            (1 + i % 5).into(),
        ])
        .unwrap();
    }
    let clustered = b.finish().unwrap();
    let (rows, explain) =
        qcat::exec::plan::select_rows(&clustered, &q, AccessPath::Auto).unwrap();
    assert_eq!(rows.len(), 30, "clustering must not change the answer cardinality");
    assert!(
        explain.shards_pruned > 0,
        "value-clustered shards must prune: {explain:?}"
    );
    // Same answer by value, not by row id (clustering reorders rows):
    // every matched row is Redmond and the price multiset is intact.
    let (dict, codes) = clustered.column(AttrId(0)).categorical().unwrap();
    let redmond = dict.lookup("Redmond").unwrap();
    assert!(rows.iter().all(|&r| codes[r as usize] == redmond));
    let price = |rel: &Relation, rows: &[u32]| -> f64 {
        rows.iter()
            .map(|&r| rel.column(AttrId(1)).numeric_at(r as usize).unwrap())
            .sum()
    };
    assert_eq!(price(&clustered, &rows), price(&rotating, &base_rows));
}

/// Tail shards appended after freeze are planned, pruned, and scanned
/// exactly like built-in shards: an appended relation must be
/// byte-identical to a from-scratch build of the same rows on every
/// access path and thread width — and a selective query whose matches
/// predate the tail must prune the appended shards via summaries.
#[test]
fn appended_tail_plans_and_prunes_like_a_fresh_build() {
    let hoods = ["Redmond", "Bellevue", "Issaquah"];
    let row = |i: i64| -> Vec<qcat::data::Value> {
        vec![
            hoods[(i % 3) as usize].into(),
            (100_000.0 + i as f64 * 1_000.0).into(),
            (1 + i % 5).into(),
        ]
    };
    // 90 base rows + 30 appended, vs 120 rows built in one shot.
    let appended = {
        let base = fixture(90, 30, true);
        let mut tail = base.begin_append();
        for i in 90..120 {
            tail.push_row(&row(i)).unwrap();
        }
        tail.commit().unwrap().relation
    };
    let fresh = fixture(120, 30, true);
    assert_eq!(appended.len(), 120);
    assert_eq!(
        appended.shards().shard_count(),
        fresh.shards().shard_count(),
        "appends preserve the shard policy"
    );
    for sql in [
        "SELECT * FROM homes WHERE neighborhood IN ('Bellevue') AND bedroomcount >= 2",
        "SELECT * FROM homes WHERE price >= 195000",
        "SELECT * FROM homes WHERE price < 115000",
        "SELECT * FROM homes",
    ] {
        let q = parse_and_normalize(sql, appended.schema()).unwrap();
        let truth = execute_normalized_with(&fresh, &q, AccessPath::ForceScan).unwrap();
        for path in PATHS {
            for threads in THREAD_WIDTHS {
                let got =
                    execute_normalized_with_threads(&appended, &q, path, threads).unwrap();
                assert_eq!(got.rows(), truth.rows(), "{sql}: {path:?} threads={threads}");
            }
        }
    }
    // Matches confined to the pre-append prefix prune the tail shard,
    // and matches confined to the tail prune the base shards — the
    // incremental summaries work in both directions.
    let old_only =
        parse_and_normalize("SELECT * FROM homes WHERE price < 115000", appended.schema())
            .unwrap();
    let (rows, explain) =
        qcat::exec::plan::select_rows(&appended, &old_only, AccessPath::Auto).unwrap();
    assert_eq!(rows.len(), 15);
    assert!(explain.shards_pruned >= 1, "tail shard must be pruned: {explain:?}");
    let new_only =
        parse_and_normalize("SELECT * FROM homes WHERE price >= 195000", appended.schema())
            .unwrap();
    let (rows, explain) =
        qcat::exec::plan::select_rows(&appended, &new_only, AccessPath::Auto).unwrap();
    assert_eq!(rows.len(), 25);
    assert!(explain.shards_pruned >= 2, "base shards must be pruned: {explain:?}");
}

/// The real-workload guarantee: a smoke-scale study relation resharded
/// into pool-sized morsels serves byte-identical trees through
/// qcat-serve, cold and cached, with the cache/epoch interplay
/// untouched by sharding.
#[test]
fn sharded_serving_pins_trees_and_cache_outcomes() {
    let env = StudyEnv::generate(StudyScale::Smoke, 7777);
    let schema = env.relation.schema().clone();
    env.relation.build_indexes();
    let stats = env.stats_for(&env.log);

    let sql = "SELECT * FROM listproperty WHERE neighborhood IN \
               ('Bellevue','Redmond','Kirkland','Issaquah') \
               AND price BETWEEN 150000 AND 500000";
    let query = parse_and_normalize(sql, &schema).unwrap();
    let scan = execute_normalized_with(&env.relation, &query, AccessPath::ForceScan).unwrap();
    assert!(scan.len() > 50, "probe query too narrow: {}", scan.len());
    let categorizer = Categorizer::new(&stats, env.config);
    let want_tree = render_tree(&categorizer.categorize(&scan, Some(&query)), usize::MAX);

    // Reshard the same bytes into 512-row shards and index per shard.
    let sharded = env.relation.resharded(512).unwrap();
    assert!(sharded.shards().shard_count() > 4);
    sharded.build_indexes();
    for path in PATHS {
        for threads in THREAD_WIDTHS {
            let got =
                execute_normalized_with_threads(&sharded, &query, path, threads).unwrap();
            assert_eq!(got.rows(), scan.rows(), "{path:?} threads={threads}");
        }
    }

    let mut config = ServerConfig::default();
    config.categorize = env.config;
    let server = Server::new(config);
    server
        .register_table("listproperty", sharded, env.log.clone(), env.prep.clone())
        .unwrap();
    let cold = server.serve(sql).unwrap();
    assert_eq!(cold.outcome, ServeOutcome::Cold);
    assert_eq!(*cold.rendered, want_tree, "sharded serve diverged from scan tree");
    let cached = server.serve(sql).unwrap();
    assert_eq!(cached.outcome, ServeOutcome::TreeCacheHit);
    assert_eq!(cold.rendered, cached.rendered);
    assert_eq!(cold.rows, scan.len());
}

/// Sweep real workload queries over the resharded smoke relation: the
/// planner (with pruning) and morsel scans must match the single-shard
/// scan on every query.
#[test]
fn workload_sweep_matches_across_layouts() {
    let env = StudyEnv::generate(StudyScale::Smoke, 4242);
    env.relation.build_indexes();
    let sharded = env.relation.resharded(700).unwrap();
    sharded.build_indexes();
    let mut checked = 0;
    let mut pruned_total = 0usize;
    for query in env.log.queries().iter().take(120) {
        let scan =
            execute_normalized_with(&env.relation, query, AccessPath::ForceScan).unwrap();
        for path in [AccessPath::Auto, AccessPath::ForceIndex] {
            let (rows, explain) =
                qcat::exec::plan::select_rows(&sharded, query, path).unwrap();
            assert_eq!(rows.as_slice(), scan.rows(), "{path:?} diverged on {query:?}");
            pruned_total += explain.shards_pruned;
        }
        checked += 1;
    }
    assert!(checked >= 100, "workload sweep too small: {checked}");
    assert!(
        pruned_total > 0,
        "a real workload over banded data should prune at least one shard"
    );
}

/// `rel`'s first `base` rows frozen under `shard_rows`, indexed, then
/// its remaining rows appended in `batches` near-equal batches: the
/// same bytes as `rel`, laid out by appends instead of one build.
fn regrown(rel: &Relation, base: usize, batches: usize, shard_rows: usize) -> Relation {
    let row = |r: usize| rel.row(r).unwrap();
    let mut b = RelationBuilder::new(rel.schema().clone()).with_shard_rows(shard_rows);
    for r in 0..base {
        b.push_row(&row(r)).unwrap();
    }
    let mut grown = b.with_indexes().finish().unwrap();
    let per = (rel.len() - base).div_ceil(batches.max(1)).max(1);
    for start in (base..rel.len()).step_by(per) {
        let mut tail = grown.begin_append();
        for r in start..(start + per).min(rel.len()) {
            tail.push_row(&row(r)).unwrap();
        }
        grown = tail.commit().unwrap().relation;
    }
    grown
}

/// Everything a query produces on `rel`: the matched rows and the
/// rendered trees of every technique — cost-based (categorical and
/// numeric splits, with and without categorical tail grouping),
/// No-cost and Attr-cost (equi-width numeric buckets) — on every
/// access path and thread width.
fn transcript(env: &StudyEnv, rel: &Relation, sql: &str) -> Vec<String> {
    let stats = env.stats_for(&env.log);
    let q = parse_and_normalize(sql, rel.schema()).unwrap();
    let baseline = BaselineConfig::new(env.baseline_attrs(), &env.config);
    let mut out = Vec::new();
    for path in PATHS {
        for threads in THREAD_WIDTHS {
            let result = execute_normalized_with_threads(rel, &q, path, threads).unwrap();
            out.push(format!("{path:?}/{threads}: {:?}", result.rows()));
            let plain = env.config.with_threads(threads);
            for config in [plain, plain.with_categorical_grouping(4, 2)] {
                let tree = Categorizer::new(&stats, config).categorize(&result, Some(&q));
                out.push(render_tree(&tree, usize::MAX));
            }
            out.push(render_tree(
                &no_cost_categorize(&stats, &baseline, &result),
                usize::MAX,
            ));
            out.push(render_tree(
                &attr_cost_categorize(&stats, &baseline, &result),
                usize::MAX,
            ));
        }
    }
    out
}

/// Queries whose answers straddle segment boundaries of the regrown
/// smoke relation (bases below and above `SEGMENT_ROWS`).
const STRADDLING: [&str; 3] = [
    "SELECT * FROM listproperty WHERE neighborhood IN \
     ('Bellevue','Redmond','Kirkland','Issaquah') AND price BETWEEN 150000 AND 500000",
    "SELECT * FROM listproperty WHERE bedroomcount >= 3 AND square_footage >= 1500",
    "SELECT * FROM listproperty WHERE price <= 400000",
];

/// An unsharded base grown by 1, 2 and 40 appends reads exactly like
/// the one-segment build of the same rows: rows and every technique's
/// tree, on every path and thread width. The bases sit above and below
/// the seal size, so the appended tails seal mid-sequence.
#[test]
fn unsharded_appends_match_a_fresh_build() {
    let env = StudyEnv::generate(StudyScale::Smoke, 2020);
    env.relation.build_indexes();
    assert!(env.relation.len() > SEGMENT_ROWS && env.relation.len() < 2 * SEGMENT_ROWS);
    let want: Vec<Vec<String>> = STRADDLING
        .iter()
        .map(|sql| transcript(&env, &env.relation, sql))
        .collect();
    for (base, batches) in [(4_500, 1), (4_500, 2), (4_500, 40), (1_000, 40)] {
        let grown = regrown(&env.relation, base, batches, 0);
        assert_eq!(grown.len(), env.relation.len());
        assert_eq!(
            grown.shards().shard_rows(),
            0,
            "appends keep the unsharded policy"
        );
        assert!(
            grown.shards().shard_count() >= 2,
            "the appended rows live in their own segment"
        );
        for (sql, want) in STRADDLING.iter().zip(&want) {
            let result = execute_normalized_with(
                &grown,
                &parse_and_normalize(sql, grown.schema()).unwrap(),
                AccessPath::Auto,
            )
            .unwrap();
            let boundary = grown.shards().bounds(0).1 as u32;
            assert!(
                result.rows().iter().any(|&r| r < boundary)
                    && result.rows().iter().any(|&r| r >= boundary),
                "{sql} must straddle the first segment boundary (base={base})"
            );
            assert_eq!(
                &transcript(&env, &grown, sql),
                want,
                "base={base} batches={batches}: {sql}"
            );
        }
    }
}

/// A tail that reaches the seal size exactly becomes a sealed segment:
/// the next append starts a new tail and carries it by `Arc`. Sharded
/// layouts seal at their own segment size the same way. An empty
/// append changes nothing at all.
#[test]
fn tail_seals_exactly_at_the_segment_size() {
    for (shard_rows, base, added, seal) in [(0, SEGMENT_ROWS - 96, 96, SEGMENT_ROWS), (30, 60, 30, 30)] {
        let full = fixture((base + added) as i64, 0, true);
        let grown = regrown(&full, base, 1, shard_rows);
        let sealed_count = grown.shards().shard_count();
        assert_eq!(
            grown.shards().bounds(sealed_count - 1).1 - grown.shards().bounds(sealed_count - 1).0,
            seal
        );
        // An empty append shares every segment and the row count.
        let empty = grown.begin_append().commit().unwrap();
        assert_eq!(empty.added, 0);
        assert_eq!(empty.relation.len(), grown.len());
        for (a, b) in grown.shards().iter().zip(empty.relation.shards().iter()) {
            assert!(
                std::sync::Arc::ptr_eq(a, b),
                "an empty append copies nothing"
            );
        }
        // The next row opens a new tail; the exactly-full one is sealed.
        let mut tail = grown.begin_append();
        tail.push_row(&full.row(0).unwrap()).unwrap();
        let next = tail.commit().unwrap().relation;
        assert_eq!(
            next.shards().shard_count(),
            sealed_count + 1,
            "shard_rows={shard_rows}"
        );
        assert!(std::sync::Arc::ptr_eq(
            &grown.shards()[sealed_count - 1],
            &next.shards()[sealed_count - 1]
        ));
        // Reads equal a one-shot build of the same rows.
        let mut rows: Vec<Vec<Value>> = (0..full.len()).map(|r| full.row(r).unwrap()).collect();
        rows.push(full.row(0).unwrap());
        let mut b = RelationBuilder::new(full.schema().clone());
        for r in &rows {
            b.push_row(r).unwrap();
        }
        let fresh = b.finish().unwrap();
        for sql in [
            "SELECT * FROM homes WHERE neighborhood IN ('Redmond') AND price >= 150000",
            "SELECT * FROM homes WHERE bedroomcount IN (1, 5)",
        ] {
            let q = parse_and_normalize(sql, fresh.schema()).unwrap();
            let truth = execute_normalized_with(&fresh, &q, AccessPath::ForceScan).unwrap();
            for path in PATHS {
                for threads in THREAD_WIDTHS {
                    let got = execute_normalized_with_threads(&next, &q, path, threads).unwrap();
                    assert_eq!(
                        got.rows(),
                        truth.rows(),
                        "{sql}: {path:?} threads={threads}"
                    );
                }
            }
        }
    }
}

/// `r.resharded(r.shards().shard_rows())` is a true copy of `r`'s
/// layout: the copy keeps the layout policy, and after the same
/// appends both plan, answer and render byte-identically, with the
/// same segment bounds.
#[test]
fn layout_preserving_copy_appends_plans_and_renders_identically() {
    let env = StudyEnv::generate(StudyScale::Smoke, 3030);
    for original in [env.relation.clone(), env.relation.resharded(1_000).unwrap()] {
        let copy = original.resharded(original.shards().shard_rows()).unwrap();
        assert_eq!(copy.shards().shard_rows(), original.shards().shard_rows());
        let (mut a, mut b) = (original.clone(), copy);
        a.build_indexes();
        b.build_indexes();
        for batch in 0..3 {
            let rows: Vec<Vec<Value>> = (0..32)
                .map(|i| env.relation.row(batch * 32 + i).unwrap())
                .collect();
            let grow = |r: &Relation| {
                let mut tail = r.begin_append();
                for row in &rows {
                    tail.push_row(row).unwrap();
                }
                tail.commit().unwrap().relation
            };
            (a, b) = (grow(&a), grow(&b));
        }
        let bounds = |r: &Relation| {
            (0..r.shards().shard_count())
                .map(|s| r.shards().bounds(s))
                .collect::<Vec<_>>()
        };
        assert_eq!(bounds(&a), bounds(&b));
        for sql in STRADDLING {
            let q = parse_and_normalize(sql, a.schema()).unwrap();
            let (ra, ea) = qcat::exec::plan::select_rows(&a, &q, AccessPath::Auto).unwrap();
            let (rb, eb) = qcat::exec::plan::select_rows(&b, &q, AccessPath::Auto).unwrap();
            assert_eq!((ra, ea), (rb, eb), "{sql}");
            assert_eq!(
                transcript(&env, &a, sql),
                transcript(&env, &b, sql),
                "{sql}"
            );
        }
    }
}
