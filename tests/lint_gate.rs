//! Tier-1 lint gate: `cargo test -q` from the repo root runs both
//! qcat-lint engines, so a new panic site, NaN-unsafe comparison,
//! layering violation, undocumented `qcat-core` item, or cost-model
//! invariant regression fails the default test run — no separate
//! lint step required (though `cargo lint` runs the same checks with
//! per-site diagnostics).

use qcat_core::label::CategoryLabel;
use qcat_core::tree::{CategoryTree, NodeId};
use qcat_data::{AttrId, AttrType, Field, RelationBuilder, Schema};
use qcat_lint::{audit, lint_workspace, Rule};
use qcat_sql::NumericRange;
use std::path::Path;

#[test]
fn source_lints_pass_on_workspace() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let diags = lint_workspace(root).expect("workspace scan");
    assert!(
        diags.is_empty(),
        "qcat-lint found violations (run `cargo lint` for details):\n{}",
        diags
            .iter()
            .map(|d| d.to_string())
            .collect::<Vec<_>>()
            .join("\n")
    );
}

/// The categorizer pipeline's output must satisfy the paper's
/// invariants end to end, not just hand-built fixtures.
#[test]
fn audit_passes_on_categorizer_output() {
    use qcat_core::{CategorizeConfig, Categorizer};
    use qcat_exec::{execute, ExecOptions};
    use qcat_sql::parse_and_normalize;
    use qcat_workload::{PreprocessConfig, WorkloadLog, WorkloadStatistics};

    let schema = Schema::new(vec![
        Field::new("neighborhood", AttrType::Categorical),
        Field::new("price", AttrType::Float),
    ])
    .expect("schema");
    let mut b = RelationBuilder::new(schema.clone());
    for i in 0..200i64 {
        let n = match i % 4 {
            0 => "Redmond",
            1 => "Bellevue",
            2 => "Seattle",
            _ => "Kirkland",
        };
        b.push_row(&[n.into(), (150_000.0 + 2_500.0 * i as f64).into()])
            .expect("row");
    }
    let homes = b.finish().expect("relation");
    let log = WorkloadLog::parse(
        vec![
            "SELECT * FROM homes WHERE neighborhood IN ('Redmond')",
            "SELECT * FROM homes WHERE price BETWEEN 150000 AND 400000",
            "SELECT * FROM homes WHERE neighborhood IN ('Bellevue') AND price <= 500000",
            "SELECT * FROM homes WHERE price >= 300000",
        ]
        .iter()
        .copied(),
        &schema,
        None,
    );
    let prep = PreprocessConfig::new().infer_missing(&homes, 50);
    let stats = WorkloadStatistics::build(&log, &schema, &prep);
    let q = parse_and_normalize("SELECT * FROM homes WHERE price >= 150000", &schema)
        .expect("query");
    let result = execute(&homes, &q, &ExecOptions::default()).expect("execute");
    let tree = Categorizer::new(&stats, CategorizeConfig::default().with_max_leaf_tuples(20))
        .categorize(&result, Some(&q));
    assert!(tree.node_count() > 1, "categorizer should produce a tree");

    let diags = audit::audit(&tree, 1.0, 0.5);
    assert!(
        diags.is_empty(),
        "categorizer output violates Section 4 invariants:\n{}",
        diags
            .iter()
            .map(|d| d.to_string())
            .collect::<Vec<_>>()
            .join("\n")
    );
}

/// Seeded violations must fail with their specific rule IDs — the
/// auditor is itself under test.
#[test]
fn audit_catches_seeded_violations() {
    let schema = Schema::new(vec![Field::new("v", AttrType::Float)]).expect("schema");
    let mut b = RelationBuilder::new(schema);
    for i in 0..10 {
        b.push_row(&[(f64::from(i)).into()]).expect("row");
    }
    let rel = b.finish().expect("relation");
    let build = || {
        let mut t = CategoryTree::new(rel.clone(), (0..10).collect());
        t.push_level(AttrId(0));
        t.add_child(
            NodeId::ROOT,
            CategoryLabel::range(AttrId(0), NumericRange::half_open(0.0, 5.0)),
            (0..5).collect(),
            0.5,
        );
        t.add_child(
            NodeId::ROOT,
            CategoryLabel::range(AttrId(0), NumericRange::closed(5.0, 9.0)),
            (5..10).collect(),
            0.5,
        );
        t.set_p_showtuples(NodeId::ROOT, 0.4);
        t
    };
    assert_eq!(audit::audit(&build(), 1.0, 0.5), vec![]);

    // Pw > 1 on a node → A1.
    let mut t = build();
    t.raw_node_mut(NodeId::ROOT).p_showtuples = 1.5;
    let rules: Vec<Rule> = audit::audit_tree(&t).iter().map(|d| d.rule).collect();
    assert!(rules.contains(&Rule::A1Probability), "{rules:?}");

    // Overlapping sibling tsets → A3.
    let mut t = build();
    let second = t.node(NodeId::ROOT).children[1];
    t.raw_node_mut(second).tset.push(2);
    let rules: Vec<Rule> = audit::audit_tree(&t).iter().map(|d| d.rule).collect();
    assert!(rules.contains(&Rule::A3TsetDisjoint), "{rules:?}");
}
