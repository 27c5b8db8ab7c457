//! Property tests across crate boundaries: random small tables and
//! workloads must always yield structurally valid trees with
//! consistent cost semantics, whatever the segment layout or the
//! order of the answer.

use qcat::core::{cost_all, cost_one, render_tree, CategorizeConfig, Categorizer};
use qcat::data::{AttrType, Field, Relation, RelationBuilder, Schema};
use qcat::datagen::{prop, Rng};
use qcat::exec::{execute, ExecOptions, ResultSet};
use qcat::explore::{actual_cost_all, RelevanceJudge};
use qcat::sql::parse_and_normalize;
use qcat::workload::{PreprocessConfig, WorkloadLog, WorkloadStatistics};
use qcat_lint::audit;

const HOODS: [&str; 6] = ["Alpha", "Beta", "Gamma", "Delta", "Epsilon", "Zeta"];

/// Cases per property, and the largest relation they draw.
const CASES: u32 = 48;
const MAX_ROWS: usize = 199;

fn schema() -> Schema {
    Schema::new(vec![
        Field::new("neighborhood", AttrType::Categorical),
        Field::new("price", AttrType::Float),
        Field::new("beds", AttrType::Int),
    ])
    .unwrap()
}

/// A relation of 30 to `size` rows with skewed values.
fn arb_relation(rng: &mut Rng, size: usize) -> Relation {
    let mut b = RelationBuilder::new(schema());
    for _ in 0..rng.gen_range(30..=size.max(30)) {
        let (h, p, beds) = (
            rng.gen_range(0..6usize),
            rng.gen_range(0..200u32),
            rng.gen_range(1..6i64),
        );
        b.push_row(&[
            HOODS[h].into(),
            (100_000.0 + p as f64 * 1_000.0).into(),
            beds.into(),
        ])
        .unwrap();
    }
    b.finish().unwrap()
}

/// A workload of 10–59 queries over the same schema.
fn arb_workload(rng: &mut Rng) -> Vec<String> {
    prop::vec(rng, 10, 59, |rng| match rng.gen_range(0..4) {
        0 => format!(
            "SELECT * FROM t WHERE neighborhood IN ('{}','{}')",
            HOODS[rng.gen_range(0..6usize)],
            HOODS[rng.gen_range(0..6usize)]
        ),
        1 => {
            let (lo, w) = (rng.gen_range(0..150u32), rng.gen_range(10..100u32));
            format!(
                "SELECT * FROM t WHERE price BETWEEN {} AND {}",
                100_000 + lo * 1_000,
                100_000 + (lo + w) * 1_000
            )
        }
        2 => format!("SELECT * FROM t WHERE beds >= {}", rng.gen_range(1..5i64)),
        _ => {
            let (a, lo) = (rng.gen_range(0..6usize), rng.gen_range(0..150u32));
            format!(
                "SELECT * FROM t WHERE neighborhood IN ('{}') AND price BETWEEN {} AND {}",
                HOODS[a],
                100_000 + lo * 1_000,
                100_000 + (lo + 30) * 1_000
            )
        }
    })
}

fn build_stats(relation: &Relation, workload: &[String]) -> WorkloadStatistics {
    let s = relation.schema().clone();
    let log = WorkloadLog::parse(workload.iter().map(String::as_str), &s, None);
    let prep = PreprocessConfig::new()
        .with_interval(s.resolve("price").unwrap(), 5_000.0)
        .with_interval(s.resolve("beds").unwrap(), 1.0);
    WorkloadStatistics::build(&log, &s, &prep)
}

/// Execute `sql` over `relation` and categorize the answer: the
/// rendered tree and every node's rows, in presentation order.
fn categorize_sql(
    relation: &Relation,
    stats: &WorkloadStatistics,
    sql: &str,
) -> (String, Vec<Vec<u32>>) {
    let q = parse_and_normalize(sql, relation.schema()).unwrap();
    let result = execute(relation, &q, &ExecOptions::default()).unwrap();
    let config = CategorizeConfig::default()
        .with_max_leaf_tuples(8)
        .with_attr_threshold(0.0);
    let tree = Categorizer::new(stats, config).categorize(&result, Some(&q));
    let rows = tree
        .dfs()
        .into_iter()
        .map(|id| tree.tuples(id).to_vec())
        .collect();
    (render_tree(&tree, usize::MAX), rows)
}

/// Any relation × workload × M yields a tree satisfying every
/// structural invariant and the A1–A7 audit (Equation 1 checked by
/// brute force at every node), and estimated costs are finite and
/// ordered (CostOne ≤ CostAll).
#[test]
fn categorizer_always_produces_valid_trees() {
    prop::check(
        "categorizer_always_produces_valid_trees",
        CASES,
        MAX_ROWS,
        |rng, size| {
            let relation = arb_relation(rng, size);
            let workload = arb_workload(rng);
            let m = rng.gen_range(2..40usize);
            let stats = build_stats(&relation, &workload);
            let config = CategorizeConfig::default()
                .with_max_leaf_tuples(m)
                .with_attr_threshold(0.0);
            let result = ResultSet::whole(relation.clone());
            let tree = Categorizer::new(&stats, config).categorize(&result, None);
            assert!(
                tree.check_invariants().is_ok(),
                "{:?}",
                tree.check_invariants()
            );
            let diags = audit::audit(&tree, 1.0, 0.5);
            assert!(diags.is_empty(), "M = {m}: {diags:?}");
            let all = cost_all(&tree, 1.0).total();
            let one = cost_one(&tree, 1.0, 0.5).total();
            assert!(all.is_finite() && one.is_finite());
            assert!(one <= all + 1e-9, "one {one} > all {all}");
            assert!(
                all <= relation.len() as f64 + 1e-9
                    || tree.node(tree.root()).is_leaf()
                    || all <= 2.0 * relation.len() as f64,
                "estimated {all} vs {} rows",
                relation.len()
            );
            Ok(())
        },
    );
}

/// The oracle ALL replay finds exactly the relevant tuples that a full
/// scan would, for any workload query used as the need — category
/// trees never hide results from a user who follows overlapping labels.
#[test]
fn oracle_exploration_is_lossless() {
    prop::check(
        "oracle_exploration_is_lossless",
        CASES,
        MAX_ROWS,
        |rng, size| {
            let relation = arb_relation(rng, size);
            let workload = arb_workload(rng);
            let stats = build_stats(&relation, &workload);
            let need_sql = &workload[rng.gen_range(0..workload.len())];
            let need = parse_and_normalize(need_sql, relation.schema()).unwrap();
            let config = CategorizeConfig::default()
                .with_max_leaf_tuples(5)
                .with_attr_threshold(0.0);
            let result = ResultSet::whole(relation.clone());
            let tree = Categorizer::new(&stats, config).categorize(&result, None);
            let judge = RelevanceJudge::from_query(&need, &relation).unwrap();
            let replay = actual_cost_all(&tree, &need, &judge);
            let expected = judge.count_relevant(&relation, result.rows());
            assert_eq!(replay.relevant_found, expected, "need {need_sql}");
            // And never costs more than labels-for-everything plus a scan.
            assert!(replay.items() <= relation.len() + tree.node_count());
            Ok(())
        },
    );
}

/// Executing a query then categorizing its result keeps every result
/// row in exactly one leaf.
#[test]
fn result_rows_partition_into_leaves() {
    prop::check(
        "result_rows_partition_into_leaves",
        CASES,
        MAX_ROWS,
        |rng, size| {
            let relation = arb_relation(rng, size);
            let workload = arb_workload(rng);
            let lo = rng.gen_range(0..100u32);
            let stats = build_stats(&relation, &workload);
            let sql = format!("SELECT * FROM t WHERE price >= {}", 100_000 + lo * 1_000);
            let q = parse_and_normalize(&sql, relation.schema()).unwrap();
            let result = execute(&relation, &q, &ExecOptions::default()).unwrap();
            if result.is_empty() {
                return Ok(());
            }
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
            assert_eq!(leaf_rows, expected, "{sql}");
            Ok(())
        },
    );
}

/// The segment layout changes how a query runs, never its tree: a
/// workload query categorized over the relation resharded into small
/// segments renders byte-identically, over the same rows per node.
#[test]
fn sharded_answers_render_identically() {
    prop::check(
        "sharded_answers_render_identically",
        CASES,
        MAX_ROWS,
        |rng, size| {
            let relation = arb_relation(rng, size);
            let workload = arb_workload(rng);
            let stats = build_stats(&relation, &workload);
            let sql = &workload[rng.gen_range(0..workload.len())];
            let want = categorize_sql(&relation, &stats, sql);
            for shard_rows in [7, 32] {
                let sharded = relation.resharded(shard_rows).unwrap();
                assert_eq!(
                    categorize_sql(&sharded, &stats, sql),
                    want,
                    "{sql} over {shard_rows}-row segments"
                );
            }
            Ok(())
        },
    );
}

/// An `ORDER BY` answer is the same set as the unordered one, so its
/// tree renders byte-identically, over the same rows per node.
#[test]
fn order_by_leaves_the_tree_unchanged() {
    prop::check(
        "order_by_leaves_the_tree_unchanged",
        CASES,
        MAX_ROWS,
        |rng, size| {
            let relation = arb_relation(rng, size);
            let workload = arb_workload(rng);
            let stats = build_stats(&relation, &workload);
            let sql = &workload[rng.gen_range(0..workload.len())];
            let ordered = format!("{sql} ORDER BY price DESC");
            assert_eq!(
                categorize_sql(&relation, &stats, &ordered),
                categorize_sql(&relation, &stats, sql),
                "{ordered}"
            );
            Ok(())
        },
    );
}
