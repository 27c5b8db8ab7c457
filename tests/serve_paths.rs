//! PR-4 pinning tests: the access-path planner and the serving caches
//! must be invisible in the output. Rows selected through the index
//! path, and trees served out of the cache, are byte-identical to
//! what the scan path produces.

use qcat::core::{render_tree, Categorizer};
use qcat::data::{AttrType, Field, RelationBuilder, Schema};
use qcat::exec::{execute, AccessPath, ExecOptions};
use qcat::serve::{ServeOutcome, Server, ServerConfig};
use qcat::sql::parse_and_normalize;
use qcat::study::{StudyEnv, StudyScale};

/// Execution options along `path` at `threads` (`0` = auto), no donor.
fn opts(path: AccessPath, threads: usize) -> ExecOptions<'static> {
    ExecOptions {
        path,
        threads,
        donor: None,
    }
}

fn env() -> StudyEnv {
    StudyEnv::generate(StudyScale::Smoke, 7777)
}

/// The tentpole guarantee, end to end: one query rendered through
/// (a) scan + direct categorization, (b) forced index + direct
/// categorization, and (c) the qcat-serve cold path and (d) its
/// cached path — all four strings must be byte-identical.
#[test]
fn scan_index_and_cached_trees_are_byte_identical() {
    let env = env();
    let schema = env.relation.schema().clone();
    env.relation.build_indexes();
    let stats = env.stats_for(&env.log);

    let sql = "SELECT * FROM listproperty WHERE neighborhood IN \
               ('Bellevue','Redmond','Kirkland','Issaquah') \
               AND price BETWEEN 150000 AND 500000";
    let query = parse_and_normalize(sql, &schema).unwrap();

    let scan = execute(&env.relation, &query, &opts(AccessPath::ForceScan, 0)).unwrap();
    let index = execute(&env.relation, &query, &opts(AccessPath::ForceIndex, 0)).unwrap();
    assert!(scan.len() > 50, "probe query too narrow: {}", scan.len());
    assert_eq!(scan.rows(), index.rows(), "index path diverged from scan");

    let categorizer = Categorizer::new(&stats, env.config);
    let scan_tree = render_tree(&categorizer.categorize(&scan, Some(&query)), usize::MAX);
    let index_tree = render_tree(&categorizer.categorize(&index, Some(&query)), usize::MAX);
    assert_eq!(scan_tree, index_tree);

    let mut config = ServerConfig::default();
    config.categorize = env.config;
    let server = Server::new(config);
    server
        .register_table(
            "listproperty",
            env.relation.clone(),
            env.log.clone(),
            env.prep.clone(),
        )
        .unwrap();
    let cold = server.serve(sql).unwrap();
    assert_eq!(cold.outcome, ServeOutcome::Cold);
    let cached = server.serve(sql).unwrap();
    assert_eq!(cached.outcome, ServeOutcome::TreeCacheHit);

    assert_eq!(*cold.rendered, scan_tree, "served tree diverged from scan tree");
    assert_eq!(cold.rendered, cached.rendered, "cached tree diverged from cold tree");
    assert_eq!(cold.rows, scan.len());
}

/// Planner output equals the scan row set across a sweep of real
/// workload queries, on both Auto and ForceIndex.
#[test]
fn planner_matches_scan_across_the_workload() {
    let env = env();
    env.relation.build_indexes();
    let mut checked = 0;
    for query in env.log.queries().iter().take(150) {
        let scan =
            execute(&env.relation, query, &opts(AccessPath::ForceScan, 0)).unwrap();
        for path in [AccessPath::Auto, AccessPath::ForceIndex] {
            let other = execute(&env.relation, query, &opts(path, 0)).unwrap();
            assert_eq!(scan.rows(), other.rows(), "{path:?} diverged on {query:?}");
        }
        checked += 1;
    }
    assert!(checked >= 100, "workload sweep too small: {checked}");
}

/// Execution edge cases behave identically through scan and index:
/// empty results, predicates selecting every row, degenerate ranges,
/// and a single-distinct-value attribute.
#[test]
fn edge_case_queries_agree_on_every_path() {
    let schema = Schema::new(vec![
        Field::new("city", AttrType::Categorical),
        Field::new("neighborhood", AttrType::Categorical),
        Field::new("price", AttrType::Float),
    ])
    .unwrap();
    let mut builder = RelationBuilder::new(schema.clone()).with_indexes();
    let hoods = ["Redmond", "Bellevue", "Issaquah"];
    for i in 0..90i64 {
        builder
            .push_row(&[
                "Seattle".into(), // single distinct value
                hoods[(i % 3) as usize].into(),
                (100_000.0 + i as f64 * 1_000.0).into(),
            ])
            .unwrap();
    }
    let relation = builder.finish().unwrap();

    let cases: &[(&str, usize)] = &[
        // Empty result: no such dictionary value.
        ("SELECT * FROM homes WHERE neighborhood IN ('Nowhere')", 0),
        // Every row matches: the single-distinct-value attribute.
        ("SELECT * FROM homes WHERE city IN ('Seattle')", 90),
        // Degenerate (empty) range.
        ("SELECT * FROM homes WHERE price BETWEEN 500000 AND 100000", 0),
        // Point range on a numeric column.
        ("SELECT * FROM homes WHERE price BETWEEN 100000 AND 100000", 1),
        // Range covering everything, plus an all-rows conjunct.
        (
            "SELECT * FROM homes WHERE city IN ('Seattle') AND price >= 0",
            90,
        ),
    ];
    for (sql, expect) in cases {
        let query = parse_and_normalize(sql, &schema).unwrap();
        let scan =
            execute(&relation, &query, &opts(AccessPath::ForceScan, 0)).unwrap();
        assert_eq!(scan.len(), *expect, "scan cardinality for {sql}");
        for path in [AccessPath::Auto, AccessPath::ForceIndex] {
            let other = execute(&relation, &query, &opts(path, 0)).unwrap();
            assert_eq!(scan.rows(), other.rows(), "{path:?} diverged on {sql}");
        }
    }
}
