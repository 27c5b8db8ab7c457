//! Integration tests for the opt-in extensions: ranking + ONE-scenario
//! complementarity, query refinement round trips, persistence through
//! the facade, and conditional probabilities end to end.

use qcat::core::{
    refine_query, refined_sql, CategorizeConfig, Categorizer, OrderingMode, WorkloadRanker,
};
use qcat::exec::{execute, ExecOptions};
use qcat::explore::{actual_cost_one, actual_cost_one_ordered, RelevanceJudge};
use qcat::sql::parse_and_normalize;
use qcat::study::{StudyEnv, StudyScale, Technique};
use qcat::workload::{load_statistics, save_statistics, WorkloadStatistics};

fn env() -> StudyEnv {
    StudyEnv::generate(StudyScale::Smoke, 909)
}

#[test]
fn ranking_complements_categorization_in_the_one_scenario() {
    // Deterministic construction: 95 cold-valued rows precede 5
    // hot-valued ones in table order. A user hunting the hot value
    // scans 96 tuples in table order but 1 in workload-ranked order.
    use qcat::data::{AttrType, Field, RelationBuilder, Schema};
    use qcat::workload::{PreprocessConfig, WorkloadLog};
    let schema = Schema::new(vec![Field::new("color", AttrType::Categorical)]).unwrap();
    let mut b = RelationBuilder::new(schema.clone());
    for i in 0..100 {
        b.push_row(&[if i < 95 { "beige" } else { "red" }.into()])
            .unwrap();
    }
    let rel = b.finish().unwrap();
    let w: Vec<String> = (0..40)
        .map(|i| {
            if i % 10 == 0 {
                "SELECT * FROM t WHERE color IN ('beige')".to_string()
            } else {
                "SELECT * FROM t WHERE color IN ('red')".to_string()
            }
        })
        .collect();
    let log = WorkloadLog::parse(w.iter().map(String::as_str), &schema, None);
    let stats = qcat::workload::WorkloadStatistics::build(&log, &schema, &PreprocessConfig::new());
    // A flat tree (root only): the user has no categories to skip, so
    // presentation order is everything.
    let tree = qcat::core::CategoryTree::new(rel.clone(), rel.all_row_ids());
    let need = parse_and_normalize("SELECT * FROM t WHERE color IN ('red')", &schema).unwrap();
    let judge = RelevanceJudge::from_query(&need, &rel).unwrap();
    let table = actual_cost_one(&tree, &need, &judge);
    assert_eq!(table.tuples_examined, 96, "first red sits at position 96");
    let ranker = WorkloadRanker::new(&stats);
    let order = |rows: &[u32]| ranker.rank(&rel, rows);
    let ranked = actual_cost_one_ordered(&tree, &need, &judge, &order);
    assert_eq!(ranked.tuples_examined, 1, "hot values rank to the front");
    assert_eq!(ranked.relevant_found, 1);
}

#[test]
fn refinement_round_trips_through_the_whole_stack() {
    let env = env();
    let stats = env.stats_for(&env.log);
    let schema = env.relation.schema().clone();
    let sql = "SELECT * FROM listproperty WHERE neighborhood IN \
               ('Bellevue','Redmond','Seattle') AND price BETWEEN 200000 AND 600000";
    let query = parse_and_normalize(sql, &schema).unwrap();
    let result = execute(&env.relation, &query, &ExecOptions::default()).unwrap();
    let tree = env.categorize(&stats, Technique::CostBased, &result, Some(&query));
    // Drill two levels deep and reformulate.
    let l1 = tree.node(tree.root()).children[0];
    let node = tree.node(l1).children.first().copied().unwrap_or(l1);
    let refined = refine_query(&tree, node, Some(&query), "listproperty");
    let narrowed = execute(&env.relation, &refined, &ExecOptions::default()).unwrap();
    let mut got = narrowed.rows().to_vec();
    let mut want = tree.tuples(node).to_vec();
    got.sort_unstable();
    want.sort_unstable();
    assert_eq!(got, want, "refined query must select exactly the category");
    // And the SQL text survives a full parse → normalize → execute.
    let text = refined_sql(&tree, node, Some(&query), "listproperty");
    let reparsed = parse_and_normalize(&text, &schema).unwrap();
    let re_result = execute(&env.relation, &reparsed, &ExecOptions::default()).unwrap();
    assert_eq!(re_result.len(), narrowed.len(), "{text}");
}

#[test]
fn persisted_statistics_survive_the_facade_round_trip() {
    let env = env();
    let stats = env.stats_for(&env.log);
    let mut buf = Vec::new();
    save_statistics(&stats, &mut buf).unwrap();
    let loaded = load_statistics(buf.as_slice(), env.relation.schema()).unwrap();
    let schema = env.relation.schema().clone();
    let query = parse_and_normalize(
        "SELECT * FROM listproperty WHERE neighborhood IN ('Bellevue','Redmond')",
        &schema,
    )
    .unwrap();
    let result = execute(&env.relation, &query, &ExecOptions::default()).unwrap();
    let config = CategorizeConfig::default().with_attr_threshold(0.3);
    let a = Categorizer::new(&stats, config).categorize(&result, Some(&query));
    let b = Categorizer::new(&loaded, config).categorize(&result, Some(&query));
    assert_eq!(a.node_count(), b.node_count());
    assert_eq!(a.level_attrs(), b.level_attrs());
    for (x, y) in a.dfs().iter().zip(b.dfs().iter()) {
        assert_eq!(a.tuples(*x), b.tuples(*y));
        assert_eq!(a.node(*x).p_explore, b.node(*y).p_explore);
    }
}

#[test]
fn conditional_probabilities_work_end_to_end() {
    let env = env();
    let stats =
        WorkloadStatistics::build_with_correlation(&env.log, env.relation.schema(), &env.prep);
    let schema = env.relation.schema().clone();
    let query = parse_and_normalize(
        "SELECT * FROM listproperty WHERE neighborhood IN \
         ('Bellevue','Redmond','Kirkland','SoHo','Harlem','Midtown')",
        &schema,
    )
    .unwrap();
    let result = execute(&env.relation, &query, &ExecOptions::default()).unwrap();
    let config = CategorizeConfig::default()
        .with_attr_threshold(0.3)
        .with_conditional_probabilities(true)
        .with_ordering(OrderingMode::OptimalOne);
    let tree = Categorizer::new(&stats, config).categorize(&result, Some(&query));
    tree.check_invariants().unwrap();
    assert!(tree.node_count() > 1);
}
