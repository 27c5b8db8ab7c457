//! Synthetic explorations (paper Section 6.2).
//!
//! A held-out workload query `W` plays the user: she drills into
//! exactly the categories of `T` whose labels overlap `W`'s selection
//! conditions and ignores the rest. At a node whose subcategorizing
//! attribute is unconstrained by `W`, every subcategory would overlap,
//! so she browses the tuples instead (SHOWTUPLES) — the behavioral
//! assumption behind the paper's `Pw` estimator, applied
//! deterministically.

use crate::relevance::RelevanceJudge;
use crate::trace::ExplorationStats;
use qcat_core::{CategoryTree, NodeId};
use qcat_sql::NormalizedQuery;

/// Replay the `ALL` scenario: the user examines everything needed to
/// find every relevant tuple reachable through categories she judges
/// interesting.
pub fn actual_cost_all(
    tree: &CategoryTree,
    need: &NormalizedQuery,
    judge: &RelevanceJudge,
) -> ExplorationStats {
    let mut span = qcat_obs::span!("explore.all");
    let mut stats = ExplorationStats::default();
    explore_all(tree, NodeId::ROOT, need, judge, &mut stats);
    if qcat_obs::active() {
        span.set("nodes_explored", stats.nodes_explored);
        span.set("tuples_examined", stats.tuples_examined);
        span.set("relevant_found", stats.relevant_found);
    }
    stats
}

fn explore_all(
    tree: &CategoryTree,
    id: NodeId,
    need: &NormalizedQuery,
    judge: &RelevanceJudge,
    stats: &mut ExplorationStats,
) {
    let node = tree.node(id);
    stats.nodes_explored += 1;
    let showcat = !node.is_leaf() && wants_showcat(tree, id, need);
    if !showcat {
        // SHOWTUPLES: examine every tuple of tset(C).
        stats.showtuples_choices += 1;
        stats.tuples_examined += node.tuple_count();
        stats.relevant_found += judge.count_relevant(tree.relation(), &node.tset);
        return;
    }
    for &child in &node.children {
        stats.labels_examined += 1;
        let label = tree
            .node(child)
            .label
            .as_ref()
            .expect("non-root nodes are labeled");
        if label.query_overlaps(need) {
            explore_all(tree, child, need, judge, stats);
        }
    }
}

/// Replay the `ONE` scenario: the user stops at the first relevant
/// tuple she recognizes. Returns the stats; `relevant_found` is 1 when
/// she succeeded.
pub fn actual_cost_one(
    tree: &CategoryTree,
    need: &NormalizedQuery,
    judge: &RelevanceJudge,
) -> ExplorationStats {
    let mut span = qcat_obs::span!("explore.one");
    let mut stats = ExplorationStats::default();
    explore_one(tree, NodeId::ROOT, need, judge, &mut stats);
    if qcat_obs::active() {
        span.set("nodes_explored", stats.nodes_explored);
        span.set("tuples_examined", stats.tuples_examined);
        span.set("found", stats.relevant_found > 0);
    }
    stats
}

fn explore_one(
    tree: &CategoryTree,
    id: NodeId,
    need: &NormalizedQuery,
    judge: &RelevanceJudge,
    stats: &mut ExplorationStats,
) -> bool {
    let node = tree.node(id);
    stats.nodes_explored += 1;
    let showcat = !node.is_leaf() && wants_showcat(tree, id, need);
    if !showcat {
        stats.showtuples_choices += 1;
        for &row in &node.tset {
            stats.tuples_examined += 1;
            if judge.is_relevant(tree.relation(), row) {
                stats.relevant_found = 1;
                return true;
            }
        }
        return false;
    }
    for &child in &node.children {
        stats.labels_examined += 1;
        let label = tree
            .node(child)
            .label
            .as_ref()
            .expect("non-root nodes are labeled");
        if label.query_overlaps(need)
            && explore_one(tree, child, need, judge, stats)
        {
            // Paper model: once a drilled-into subcategory yields the
            // tuple, the remaining sibling labels go unread.
            return true;
        }
    }
    false
}

/// The user chooses SHOWCAT iff her query constrains the node's
/// subcategorizing attribute (she can then skip categories); otherwise
/// every label would interest her and she browses.
fn wants_showcat(tree: &CategoryTree, id: NodeId, need: &NormalizedQuery) -> bool {
    tree.subcategorizing_attr(id)
        .is_some_and(|attr| need.constrains(attr))
}

/// The `ONE` scenario with ranked tuple presentation — quantifies the
/// paper's claim that ranking *complements* categorization: wherever
/// the user falls back to SHOWTUPLES, tuples are scanned in the order
/// `order` produces (e.g. `qcat-core`'s `WorkloadRanker`) instead of
/// table order.
pub fn actual_cost_one_ordered(
    tree: &CategoryTree,
    need: &NormalizedQuery,
    judge: &RelevanceJudge,
    order: &dyn Fn(&[u32]) -> Vec<u32>,
) -> ExplorationStats {
    let mut stats = ExplorationStats::default();
    explore_one_ordered(tree, NodeId::ROOT, need, judge, order, &mut stats);
    stats
}

fn explore_one_ordered(
    tree: &CategoryTree,
    id: NodeId,
    need: &NormalizedQuery,
    judge: &RelevanceJudge,
    order: &dyn Fn(&[u32]) -> Vec<u32>,
    stats: &mut ExplorationStats,
) -> bool {
    let node = tree.node(id);
    stats.nodes_explored += 1;
    let showcat = !node.is_leaf() && wants_showcat(tree, id, need);
    if !showcat {
        stats.showtuples_choices += 1;
        for row in order(&node.tset) {
            stats.tuples_examined += 1;
            if judge.is_relevant(tree.relation(), row) {
                stats.relevant_found = 1;
                return true;
            }
        }
        return false;
    }
    for &child in &node.children {
        stats.labels_examined += 1;
        let label = tree
            .node(child)
            .label
            .as_ref()
            .expect("non-root nodes are labeled");
        if label.query_overlaps(need)
            && explore_one_ordered(tree, child, need, judge, order, stats)
        {
            return true;
        }
    }
    false
}

/// The `No categorization` baseline, ALL scenario: the user scans the
/// whole result set.
pub fn no_categorization_all(
    result_rows: &[u32],
    relation: &qcat_data::Relation,
    judge: &RelevanceJudge,
) -> ExplorationStats {
    ExplorationStats {
        tuples_examined: result_rows.len(),
        relevant_found: judge.count_relevant(relation, result_rows),
        nodes_explored: 1,
        showtuples_choices: 1,
        ..Default::default()
    }
}

/// The `No categorization` baseline, ONE scenario: scan until the
/// first relevant tuple.
pub fn no_categorization_one(
    result_rows: &[u32],
    relation: &qcat_data::Relation,
    judge: &RelevanceJudge,
) -> ExplorationStats {
    let mut stats = ExplorationStats {
        nodes_explored: 1,
        showtuples_choices: 1,
        ..Default::default()
    };
    for &row in result_rows {
        stats.tuples_examined += 1;
        if judge.is_relevant(relation, row) {
            stats.relevant_found = 1;
            break;
        }
    }
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use qcat_core::{CategorizeConfig, Categorizer};
    use qcat_data::{AttrId, AttrType, Field, Relation, RelationBuilder, Schema};
    use qcat_exec::{execute, ExecOptions};
    use qcat_sql::parse_and_normalize;
    use qcat_workload::{PreprocessConfig, WorkloadLog, WorkloadStatistics};

    /// 90 homes across 3 neighborhoods with rising prices.
    fn setup() -> (Relation, WorkloadStatistics) {
        let schema = Schema::new(vec![
            Field::new("neighborhood", AttrType::Categorical),
            Field::new("price", AttrType::Float),
        ])
        .unwrap();
        let mut b = RelationBuilder::new(schema.clone());
        let hoods = ["Redmond", "Bellevue", "Seattle"];
        for i in 0..90 {
            b.push_row(&[
                hoods[i % 3].into(),
                (200_000.0 + (i as f64) * 1_000.0).into(),
            ])
            .unwrap();
        }
        let rel = b.finish().unwrap();
        let mut w = Vec::new();
        for _ in 0..40 {
            w.push("SELECT * FROM t WHERE neighborhood IN ('Redmond')".to_string());
        }
        for i in 0..40 {
            let lo = 200_000 + (i % 8) * 10_000;
            w.push(format!(
                "SELECT * FROM t WHERE price BETWEEN {lo} AND {}",
                lo + 20_000
            ));
        }
        let log = WorkloadLog::parse(w.iter().map(String::as_str), &schema, None);
        let cfg = PreprocessConfig::new().with_interval(AttrId(1), 5_000.0);
        (rel.clone(), WorkloadStatistics::build(&log, &schema, &cfg))
    }

    fn tree_for(rel: &Relation, stats: &WorkloadStatistics) -> qcat_core::CategoryTree {
        let q = parse_and_normalize("SELECT * FROM t WHERE price >= 200000", rel.schema()).unwrap();
        let result = execute(rel, &q, &ExecOptions::default()).unwrap();
        let config = CategorizeConfig::default()
            .with_max_leaf_tuples(10)
            .with_attr_threshold(0.1);
        Categorizer::new(stats, config).categorize(&result, Some(&q))
    }

    #[test]
    fn all_scenario_finds_every_relevant_tuple() {
        let (rel, stats) = setup();
        let tree = tree_for(&rel, &stats);
        let w = parse_and_normalize(
            "SELECT * FROM t WHERE neighborhood IN ('Redmond') AND price BETWEEN 210000 AND 240000",
            rel.schema(),
        )
        .unwrap();
        let judge = RelevanceJudge::from_query(&w, &rel).unwrap();
        let s = actual_cost_all(&tree, &w, &judge);
        // Ground truth.
        let expected = judge.count_relevant(&rel, &rel.all_row_ids());
        assert!(expected > 0);
        assert_eq!(s.relevant_found, expected);
        // Categorization must beat scanning all 90 tuples.
        assert!(s.items() < 90, "expected savings, got {} items", s.items());
    }

    #[test]
    fn unconstrained_attrs_trigger_showtuples() {
        let (rel, stats) = setup();
        let tree = tree_for(&rel, &stats);
        // W constrains nothing the tree categorizes on → SHOWTUPLES at
        // the root, examining everything.
        let w = parse_and_normalize("SELECT * FROM t", rel.schema()).unwrap();
        let judge = RelevanceJudge::from_query(&w, &rel).unwrap();
        let s = actual_cost_all(&tree, &w, &judge);
        assert_eq!(s.tuples_examined, 90);
        assert_eq!(s.labels_examined, 0);
        assert_eq!(s.showtuples_choices, 1);
    }

    #[test]
    fn one_scenario_stops_early() {
        let (rel, stats) = setup();
        let tree = tree_for(&rel, &stats);
        let w = parse_and_normalize(
            "SELECT * FROM t WHERE price BETWEEN 230000 AND 260000",
            rel.schema(),
        )
        .unwrap();
        let judge = RelevanceJudge::from_query(&w, &rel).unwrap();
        let one = actual_cost_one(&tree, &w, &judge);
        let all = actual_cost_all(&tree, &w, &judge);
        assert_eq!(one.relevant_found, 1);
        assert!(one.items() <= all.items());
    }

    #[test]
    fn one_scenario_backtracks_on_empty_category() {
        // Tree on neighborhood; W names two neighborhoods but only the
        // second contains a relevant (set-judged) tuple: the user
        // drills into the first, fails, and continues.
        let (rel, stats) = setup();
        let tree = tree_for(&rel, &stats);
        let w = parse_and_normalize(
            "SELECT * FROM t WHERE neighborhood IN ('Redmond','Bellevue')",
            rel.schema(),
        )
        .unwrap();
        // Relevant tuple: row 1 is Bellevue (i%3==1).
        let judge = RelevanceJudge::from_set([1u32]);
        let s = actual_cost_one(&tree, &w, &judge);
        assert_eq!(s.relevant_found, 1, "must eventually find row 1");
    }

    #[test]
    fn no_categorization_baselines() {
        let (rel, _) = setup();
        let rows = rel.all_row_ids();
        let judge = RelevanceJudge::from_set([5u32, 50u32]);
        let all = no_categorization_all(&rows, &rel, &judge);
        assert_eq!(all.tuples_examined, 90);
        assert_eq!(all.relevant_found, 2);
        let one = no_categorization_one(&rows, &rel, &judge);
        assert_eq!(one.tuples_examined, 6); // rows 0..5 inclusive
        assert_eq!(one.relevant_found, 1);
    }

    #[test]
    fn irrelevant_need_examines_labels_only() {
        let (rel, stats) = setup();
        let tree = tree_for(&rel, &stats);
        // Constrains both attributes (so the user SHOWCATs) with
        // values nothing in the data matches: no label overlaps.
        let w = parse_and_normalize(
            "SELECT * FROM t WHERE neighborhood IN ('Atlantis') AND price BETWEEN 1 AND 2",
            rel.schema(),
        )
        .unwrap();
        let judge = RelevanceJudge::from_query(&w, &rel).unwrap();
        let s = actual_cost_all(&tree, &w, &judge);
        assert_eq!(s.relevant_found, 0);
        assert_eq!(s.tuples_examined, 0);
        assert!(s.labels_examined > 0);
    }
}
