//! Property-based tests across crate boundaries: random small tables
//! and workloads must always yield structurally valid trees with
//! consistent cost semantics.

// Requires the non-vendored `proptest` dev-dependency; enabled only
// with `--features slow-tests` (see docs/LINTS.md).
#![cfg(feature = "slow-tests")]

use proptest::prelude::*;
use qcat::core::{cost_all, cost_one, CategorizeConfig, Categorizer};
use qcat::data::{AttrType, Field, Relation, RelationBuilder, Schema};
use qcat::exec::{execute, ExecOptions, ResultSet};
use qcat::explore::{actual_cost_all, RelevanceJudge};
use qcat::sql::parse_and_normalize;
use qcat::workload::{PreprocessConfig, WorkloadLog, WorkloadStatistics};

const HOODS: [&str; 6] = ["Alpha", "Beta", "Gamma", "Delta", "Epsilon", "Zeta"];

fn schema() -> Schema {
    Schema::new(vec![
        Field::new("neighborhood", AttrType::Categorical),
        Field::new("price", AttrType::Float),
        Field::new("beds", AttrType::Int),
    ])
    .unwrap()
}

/// Strategy: a relation of 30–200 rows with skewed values.
fn arb_relation() -> impl Strategy<Value = Relation> {
    proptest::collection::vec((0usize..6, 0u32..200, 1i64..6), 30..200).prop_map(|rows| {
        let mut b = RelationBuilder::new(schema());
        for (h, p, beds) in rows {
            b.push_row(&[
                HOODS[h].into(),
                (100_000.0 + p as f64 * 1_000.0).into(),
                beds.into(),
            ])
            .unwrap();
        }
        b.finish().unwrap()
    })
}

/// Strategy: a workload of 10–60 queries over the same schema.
fn arb_workload() -> impl Strategy<Value = Vec<String>> {
    proptest::collection::vec(
        prop_oneof![
            (0usize..6, 0usize..6).prop_map(|(a, b)| {
                format!(
                    "SELECT * FROM t WHERE neighborhood IN ('{}','{}')",
                    HOODS[a], HOODS[b]
                )
            }),
            (0u32..150, 10u32..100).prop_map(|(lo, w)| {
                format!(
                    "SELECT * FROM t WHERE price BETWEEN {} AND {}",
                    100_000 + lo * 1_000,
                    100_000 + (lo + w) * 1_000
                )
            }),
            (1i64..5).prop_map(|b| format!("SELECT * FROM t WHERE beds >= {b}")),
            (0usize..6, 0u32..150).prop_map(|(a, lo)| {
                format!(
                    "SELECT * FROM t WHERE neighborhood IN ('{}') AND price BETWEEN {} AND {}",
                    HOODS[a],
                    100_000 + lo * 1_000,
                    100_000 + (lo + 30) * 1_000
                )
            }),
        ],
        10..60,
    )
}

fn build_stats(relation: &Relation, workload: &[String]) -> WorkloadStatistics {
    let s = relation.schema().clone();
    let log = WorkloadLog::parse(workload.iter().map(String::as_str), &s, None);
    let prep = PreprocessConfig::new()
        .with_interval(s.resolve("price").unwrap(), 5_000.0)
        .with_interval(s.resolve("beds").unwrap(), 1.0);
    WorkloadStatistics::build(&log, &s, &prep)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Any relation × workload × M yields a tree satisfying every
    /// structural invariant, and estimated costs are finite and
    /// ordered (CostOne ≤ CostAll).
    #[test]
    fn categorizer_always_produces_valid_trees(
        relation in arb_relation(),
        workload in arb_workload(),
        m in 2usize..40,
    ) {
        let stats = build_stats(&relation, &workload);
        let config = CategorizeConfig::default()
            .with_max_leaf_tuples(m)
            .with_attr_threshold(0.0);
        let result = ResultSet::whole(relation.clone());
        let tree = Categorizer::new(&stats, config).categorize(&result, None);
        prop_assert!(tree.check_invariants().is_ok(),
            "{:?}", tree.check_invariants());
        let all = cost_all(&tree, 1.0).total();
        let one = cost_one(&tree, 1.0, 0.5).total();
        prop_assert!(all.is_finite() && one.is_finite());
        prop_assert!(one <= all + 1e-9);
        prop_assert!(all <= relation.len() as f64 + 1e-9 ||
            tree.node(tree.root()).is_leaf() ||
            all <= 2.0 * relation.len() as f64,
            "estimated {all} vs {} rows", relation.len());
    }

    /// The oracle ALL replay finds exactly the relevant tuples that a
    /// full scan would, for any workload query used as the need —
    /// category trees never hide results from a user who follows
    /// overlapping labels.
    #[test]
    fn oracle_exploration_is_lossless(
        relation in arb_relation(),
        workload in arb_workload(),
        need_idx in 0usize..1000,
    ) {
        prop_assume!(!workload.is_empty());
        let stats = build_stats(&relation, &workload);
        let s = relation.schema().clone();
        let need_sql = &workload[need_idx % workload.len()];
        let need = parse_and_normalize(need_sql, &s).unwrap();
        let config = CategorizeConfig::default()
            .with_max_leaf_tuples(5)
            .with_attr_threshold(0.0);
        let result = ResultSet::whole(relation.clone());
        let tree = Categorizer::new(&stats, config).categorize(&result, None);
        let judge = RelevanceJudge::from_query(&need, &relation).unwrap();
        let replay = actual_cost_all(&tree, &need, &judge);
        let expected = judge.count_relevant(&relation, result.rows());
        prop_assert_eq!(replay.relevant_found, expected);
        // And never costs more than labels-for-everything plus a scan.
        prop_assert!(replay.items() <= relation.len() + tree.node_count());
    }

    /// Executing a query then categorizing its result keeps every
    /// result row in exactly one leaf.
    #[test]
    fn result_rows_partition_into_leaves(
        relation in arb_relation(),
        workload in arb_workload(),
        lo in 0u32..100,
    ) {
        let stats = build_stats(&relation, &workload);
        let s = relation.schema().clone();
        let q = parse_and_normalize(
            &format!("SELECT * FROM t WHERE price >= {}", 100_000 + lo * 1_000),
            &s,
        ).unwrap();
        let result = execute(&relation, &q, &ExecOptions::default()).unwrap();
        prop_assume!(!result.is_empty());
        let config = CategorizeConfig::default()
            .with_max_leaf_tuples(8)
            .with_attr_threshold(0.0);
        let tree = Categorizer::new(&stats, config).categorize(&result, Some(&q));
        let mut leaf_rows: Vec<u32> = tree
            .dfs()
            .into_iter()
            .filter(|&id| tree.node(id).is_leaf())
            .flat_map(|id| tree.tuples(id).to_vec())
            .collect();
        leaf_rows.sort_unstable();
        let mut expected = result.rows().to_vec();
        expected.sort_unstable();
        prop_assert_eq!(leaf_rows, expected);
    }
}
