//! Tier-1 gate: the layering and semantic engines must pass on the
//! real workspace, and the cost-model auditor must flag seeded
//! violations.
//!
//! This test is what makes `cargo test -q` fail when a layering
//! violation, lock-order cycle, checkpoint gap, budget-blind
//! allocation or cost-model invariant regression lands — without
//! anyone having to remember to run the binary. The clippy-enforced
//! source rules (L1, L2, L5–L7) are gated by the root
//! `tests/lint_gate.rs`.

use qcat_core::label::CategoryLabel;
use qcat_core::tree::{CategoryTree, NodeId};
use qcat_data::{AttrId, AttrType, Field, Relation, RelationBuilder, Schema};
use qcat_lint::{audit, lint_workspace, Rule};
use qcat_sql::NumericRange;
use std::path::PathBuf;

fn repo_root() -> PathBuf {
    // crates/qcat-lint/ → repo root.
    let mut p = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    p.pop();
    p.pop();
    p
}

#[test]
fn engine1_workspace_is_clean() {
    let diags = lint_workspace(&repo_root()).expect("workspace scan");
    assert!(
        diags.is_empty(),
        "source lints must pass on the committed tree:\n{}",
        diags
            .iter()
            .map(|d| d.to_string())
            .collect::<Vec<_>>()
            .join("\n")
    );
}

fn relation(n: usize) -> Relation {
    let schema = Schema::new(vec![Field::new("price", AttrType::Float)]).expect("schema");
    let mut b = RelationBuilder::with_capacity(schema, n);
    for i in 0..n {
        b.push_row(&[(i as f64).into()]).expect("row");
    }
    b.finish().expect("relation")
}

fn two_bucket_tree(n: usize) -> CategoryTree {
    let mid = (n / 2) as u32;
    let mut t = CategoryTree::new(relation(n), (0..n as u32).collect());
    t.push_level(AttrId(0));
    t.add_child(
        NodeId::ROOT,
        CategoryLabel::range(AttrId(0), NumericRange::half_open(0.0, mid as f64)),
        &(0..mid).collect::<Vec<u32>>(),
        0.6,
    );
    t.add_child(
        NodeId::ROOT,
        CategoryLabel::range(AttrId(0), NumericRange::closed(mid as f64, (n - 1) as f64)),
        &(mid..n as u32).collect::<Vec<u32>>(),
        0.4,
    );
    t.set_p_showtuples(NodeId::ROOT, 0.3);
    t
}

#[test]
fn engine2_accepts_valid_tree_and_flags_perturbations() {
    let t = two_bucket_tree(12);
    assert_eq!(audit::audit(&t, 1.0, 0.5), vec![], "valid tree must audit clean");

    // Each perturbation must surface its specific rule id.
    let mut broken = two_bucket_tree(12);
    let kid = broken.node(NodeId::ROOT).children[0];
    broken.raw_node_mut(kid).p_explore = 1.25;
    assert!(audit::audit_tree(&broken)
        .iter()
        .any(|d| d.rule == Rule::A1Probability));

    let mut broken = two_bucket_tree(12);
    let kid = broken.node(NodeId::ROOT).children[1];
    broken.raw_node_mut(kid).range.start -= 1; // overlaps the first child
    assert!(audit::audit_tree(&broken)
        .iter()
        .any(|d| d.rule == Rule::A3TsetDisjoint));
}

#[test]
fn engine2_brute_force_check_guards_cost_all() {
    use qcat_core::cost::{cost_all, CostReport};
    let t = two_bucket_tree(16);
    let good = cost_all(&t, 2.0);
    assert_eq!(audit::audit_cost_all(&t, &good, 2.0), vec![]);

    let mut costs: Vec<f64> = (0..t.node_count())
        .map(|i| good.cost(qcat_core::tree::NodeId(i as u32)))
        .collect();
    costs[0] *= 1.01;
    let diags = audit::audit_cost_all(&t, &CostReport::from_costs(costs), 2.0);
    assert!(diags.iter().any(|d| d.rule == Rule::A7CostEq1), "{diags:?}");
}
