//! Cross-crate integration: datagen → storage → SQL → executor →
//! workload statistics → categorizer → exploration, exercised through
//! the `qcat` facade.

use qcat::core::{cost_all, cost_one, CategorizeConfig, Categorizer};
use qcat::data::csv::{read_csv, write_csv, CsvOptions};
use qcat::exec::{execute, execute_sql, ExecOptions};
use qcat::explore::{actual_cost_all, actual_cost_one, no_categorization_all, RelevanceJudge};
use qcat::sql::parse_and_normalize;
use qcat::study::{broaden_query, StudyEnv, StudyScale, Technique};

fn env() -> StudyEnv {
    StudyEnv::generate(StudyScale::Smoke, 4242)
}

#[test]
fn full_pipeline_from_generated_data() {
    let env = env();
    let schema = env.relation.schema().clone();
    let stats = env.stats_for(&env.log);

    // SQL path through the catalog.
    let catalog = qcat::data::Catalog::new();
    catalog
        .register("listproperty", env.relation.clone())
        .unwrap();
    let result = execute_sql(
        &catalog,
        "SELECT * FROM ListProperty WHERE neighborhood IN \
         ('Bellevue','Redmond','Kirkland','Issaquah','Sammamish','Seattle') \
         AND price BETWEEN 150000 AND 500000",
    )
    .unwrap();
    assert!(result.len() > 50, "result too small: {}", result.len());

    // Cost-based categorization on the result.
    let query = parse_and_normalize(
        "SELECT * FROM listproperty WHERE neighborhood IN \
         ('Bellevue','Redmond','Kirkland','Issaquah','Sammamish','Seattle') \
         AND price BETWEEN 150000 AND 500000",
        &schema,
    )
    .unwrap();
    let tree = Categorizer::new(&stats, env.config).categorize(&result, Some(&query));
    tree.check_invariants().unwrap();
    assert!(tree.depth() >= 1);

    // Estimated costs behave.
    let all = cost_all(&tree, env.config.label_cost).total();
    let one = cost_one(&tree, env.config.label_cost, env.config.frac).total();
    assert!(all > 0.0 && one > 0.0 && one <= all);
    assert!(
        all < result.len() as f64,
        "categorization should beat a full scan on average: {all} vs {}",
        result.len()
    );

    // A user with a narrow need explores it cheaply.
    let need = parse_and_normalize(
        "SELECT * FROM listproperty WHERE neighborhood IN ('Redmond') \
         AND price BETWEEN 250000 AND 300000",
        &schema,
    )
    .unwrap();
    let judge = RelevanceJudge::from_query(&need, &env.relation).unwrap();
    let replay = actual_cost_all(&tree, &need, &judge);
    let scan = no_categorization_all(result.rows(), &env.relation, &judge);
    assert_eq!(
        replay.relevant_found, scan.relevant_found,
        "oracle exploration must find every relevant tuple in the result"
    );
    assert!(replay.items() < scan.items());

    // ONE scenario is cheaper than ALL.
    let one_replay = actual_cost_one(&tree, &need, &judge);
    if scan.relevant_found > 0 {
        assert_eq!(one_replay.relevant_found, 1);
    }
    assert!(one_replay.items() <= replay.items());
}

#[test]
fn all_three_techniques_produce_valid_trees_on_broadened_queries() {
    let env = env();
    let schema = env.relation.schema().clone();
    let stats = env.stats_for(&env.log);
    let mut tested = 0;
    for w in env.log.queries() {
        if tested >= 5 {
            break;
        }
        let Some(qw) = broaden_query(w, &schema, &env.geography) else {
            continue;
        };
        let result = execute(&env.relation, &qw, &ExecOptions::default()).unwrap();
        if result.len() <= env.config.max_leaf_tuples {
            continue;
        }
        tested += 1;
        for t in Technique::ALL {
            let tree = env.categorize(&stats, t, &result, Some(&qw));
            tree.check_invariants()
                .unwrap_or_else(|e| panic!("{t:?}: {e}"));
            // The tree covers exactly the result.
            assert_eq!(tree.node(tree.root()).tuple_count(), result.len());
        }
    }
    assert_eq!(tested, 5, "not enough broadened queries");
}

#[test]
fn csv_roundtrip_of_generated_listings() {
    let env = env();
    // Round-trip a slice of the generated table through CSV.
    let mut buf = Vec::new();
    write_csv(&mut buf, &env.relation, CsvOptions::default()).unwrap();
    let text = String::from_utf8(buf).unwrap();
    let back = read_csv(
        text.as_bytes(),
        env.relation.schema().clone(),
        CsvOptions::default(),
    )
    .unwrap();
    assert_eq!(back.len(), env.relation.len());
    for i in (0..env.relation.len()).step_by(503) {
        assert_eq!(back.row(i).unwrap(), env.relation.row(i).unwrap());
    }
}

#[test]
fn m_parameter_bounds_leaves_when_attributes_suffice() {
    let env = env();
    let stats = env.stats_for(&env.log);
    let schema = env.relation.schema().clone();
    let query = parse_and_normalize(
        "SELECT * FROM listproperty WHERE neighborhood IN \
         ('Bellevue','Redmond','Kirkland') AND price BETWEEN 100000 AND 900000",
        &schema,
    )
    .unwrap();
    let result = execute(&env.relation, &query, &ExecOptions::default()).unwrap();
    assert!(result.len() > 100);
    for m in [20usize, 50] {
        let config = CategorizeConfig::default()
            .with_max_leaf_tuples(m)
            .with_attr_threshold(0.3);
        let tree = Categorizer::new(&stats, config).categorize(&result, Some(&query));
        // Not a hard guarantee (paper: "only if there is a sufficient
        // number of attributes"), but with 6 retained attributes the
        // overwhelming majority of leaves must respect M.
        let leaves: Vec<usize> = tree
            .dfs()
            .into_iter()
            .filter(|&id| tree.node(id).is_leaf())
            .map(|id| tree.node(id).tuple_count())
            .collect();
        let oversized = leaves.iter().filter(|&&n| n > m).count();
        assert!(
            (oversized as f64) < 0.2 * leaves.len() as f64,
            "M={m}: {oversized}/{} oversized leaves",
            leaves.len()
        );
    }
}

#[test]
fn estimated_cost_tracks_m() {
    // Larger M → shallower trees → SHOWTUPLES-heavier cost; smaller M
    // refines further. Both must stay below the no-categorization
    // cost for a workload-aligned query.
    let env = env();
    let stats = env.stats_for(&env.log);
    let schema = env.relation.schema().clone();
    let query = parse_and_normalize(
        "SELECT * FROM listproperty WHERE neighborhood IN \
         ('Bellevue','Redmond','Kirkland','Seattle') AND price BETWEEN 150000 AND 700000",
        &schema,
    )
    .unwrap();
    let result = execute(&env.relation, &query, &ExecOptions::default()).unwrap();
    for m in [10usize, 20, 100] {
        let config = env.config.with_max_leaf_tuples(m);
        let tree = Categorizer::new(&stats, config).categorize(&result, Some(&query));
        let cost = cost_all(&tree, config.label_cost).total();
        assert!(
            cost < result.len() as f64,
            "M={m}: estimated {cost} vs scan {}",
            result.len()
        );
    }
}
