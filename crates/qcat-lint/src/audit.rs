//! Engine 2: the cost-model invariant auditor (rules A1–A7).
//!
//! Verifies the Section 4 invariants of any built [`CategoryTree`]
//! and, for a [`CostReport`], that the production `cost_all` evaluator
//! agrees with an independent brute-force re-evaluation of Eq. 1:
//!
//! - **A1** `P(C)` and `Pw(C)` lie in `[0, 1]` (and are not NaN);
//! - **A2** leaves have `Pw = 1` (SHOWTUPLES is forced at leaves);
//! - **A3** sibling tuple-sets are pairwise disjoint;
//! - **A4** sibling tuple-sets cover the parent's exactly;
//! - **A5** every tuple satisfies the conjunction of labels on the
//!   path root→C (paper §3.1: a category's contents are its path
//!   predicate's answers);
//! - **A6** every reported cost is finite and ≥ 0;
//! - **A7** the report matches brute-force Eq. 1 within `1e-9`.
//!
//! A3 and A4 compare the rows of sibling slices of the tree's row
//! permutation as sets, independently of
//! [`CategoryTree::check_invariants`], which checks that the children's
//! ranges tile the parent's range.
//!
//! The auditor never trusts the evaluator under test: A7 recomputes
//! CostAll by direct recursion over the tree (differential testing),
//! so a bug in the shared fold cannot mask itself.

use crate::diag::{Diagnostic, Rule};
use qcat_core::cost::CostReport;
use qcat_core::tree::{CategoryTree, NodeId};

/// Tolerance for A7: |report − brute force| per node.
pub const COST_TOLERANCE: f64 = 1e-9;

/// Pseudo-file used in audit diagnostics (there is no source file).
const TREE: &str = "<tree>";

/// Audit the structural/probability invariants A1–A5 of `tree`.
pub fn audit_tree(tree: &CategoryTree) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    for &id in &tree.dfs() {
        let node = tree.node(id);
        check_probabilities(id, node.p_explore, node.p_showtuples, &mut diags);
        if node.is_leaf() && node.p_showtuples.total_cmp(&1.0).is_ne() {
            diags.push(Diagnostic::file_level(
                TREE,
                Rule::A2LeafPw,
                format!("leaf {id} has Pw = {}, must be exactly 1", node.p_showtuples),
            ));
        }
        if !node.children.is_empty() {
            check_partition(tree, id, &mut diags);
        }
        check_label_path(tree, id, &mut diags);
    }
    diags
}

fn check_probabilities(id: NodeId, p: f64, pw: f64, diags: &mut Vec<Diagnostic>) {
    for (name, v) in [("P", p), ("Pw", pw)] {
        if !(0.0..=1.0).contains(&v) || v.is_nan() {
            diags.push(Diagnostic::file_level(
                TREE,
                Rule::A1Probability,
                format!("{name}({id}) = {v} is outside [0, 1]"),
            ));
        }
    }
}

/// A3 + A4: the children of `id` partition its tuple-set.
fn check_partition(tree: &CategoryTree, id: NodeId, diags: &mut Vec<Diagnostic>) {
    let node = tree.node(id);
    let mut union: Vec<u32> = Vec::with_capacity(node.tuple_count());
    for &c in &node.children {
        union.extend_from_slice(tree.tuples(c));
    }
    union.sort_unstable();
    if let Some(w) = union.windows(2).find(|w| w[0] == w[1]) {
        diags.push(Diagnostic::file_level(
            TREE,
            Rule::A3TsetDisjoint,
            format!("children of {id} overlap: row {} appears in two siblings", w[0]),
        ));
        union.dedup();
    }
    let mut parent = tree.tuples(id).to_vec();
    parent.sort_unstable();
    if union != parent {
        diags.push(Diagnostic::file_level(
            TREE,
            Rule::A4TsetCover,
            format!(
                "children of {id} cover {} of its {} tuples",
                union.iter().filter(|r| parent.binary_search(r).is_ok()).count(),
                parent.len()
            ),
        ));
    }
}

/// A5: every row of `id` satisfies each label on the path root→id.
fn check_label_path(tree: &CategoryTree, id: NodeId, diags: &mut Vec<Diagnostic>) {
    let path = tree.path_labels(id);
    if path.is_empty() {
        return;
    }
    for &row in tree.tuples(id) {
        if let Some(label) = path.iter().find(|l| !l.matches_row(tree.relation(), row)) {
            diags.push(Diagnostic::file_level(
                TREE,
                Rule::A5LabelPath,
                format!(
                    "row {row} of {id} violates the path label on attribute {:?}",
                    label.attr
                ),
            ));
            break; // one finding per node keeps the report readable
        }
    }
}

/// Audit a CostAll report against `tree`: A6 sign/finiteness on every
/// node plus the A7 brute-force Eq. 1 comparison.
pub fn audit_cost_all(tree: &CategoryTree, report: &CostReport, label_cost: f64) -> Vec<Diagnostic> {
    let mut diags = audit_cost_signs(tree, report, "CostAll");
    if report.len() != tree.node_count() {
        return diags; // size mismatch already reported; indices unsafe
    }
    for &id in &tree.dfs() {
        let expected = brute_force_cost_all(tree, id, label_cost);
        let got = report.cost(id);
        if (got - expected).abs() > COST_TOLERANCE || got.is_nan() != expected.is_nan() {
            diags.push(Diagnostic::file_level(
                TREE,
                Rule::A7CostEq1,
                format!(
                    "CostAll({id}) = {got} but brute-force Eq. 1 gives {expected} \
                     (|Δ| > {COST_TOLERANCE})"
                ),
            ));
        }
    }
    diags
}

/// Audit a CostOne report: A6 sign/finiteness only (Eq. 2 has no
/// independent re-evaluation here; its sanity bound is CostOne ≤
/// CostAll, checked by the caller when both reports exist).
pub fn audit_cost_one(tree: &CategoryTree, report: &CostReport) -> Vec<Diagnostic> {
    audit_cost_signs(tree, report, "CostOne")
}

fn audit_cost_signs(tree: &CategoryTree, report: &CostReport, what: &str) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    if report.len() != tree.node_count() {
        diags.push(Diagnostic::file_level(
            TREE,
            Rule::A6CostSign,
            format!(
                "{what} report covers {} nodes, tree has {}",
                report.len(),
                tree.node_count()
            ),
        ));
        return diags;
    }
    for &id in &tree.dfs() {
        let c = report.cost(id);
        if !c.is_finite() || c < 0.0 {
            diags.push(Diagnostic::file_level(
                TREE,
                Rule::A6CostSign,
                format!("{what}({id}) = {c}, must be finite and ≥ 0"),
            ));
        }
    }
    diags
}

/// Independent Eq. 1 evaluation by direct recursion (no shared code
/// with `qcat_core::cost::cost_all`, which folds a DFS vector).
fn brute_force_cost_all(tree: &CategoryTree, id: NodeId, label_cost: f64) -> f64 {
    let node = tree.node(id);
    let tuples = node.tuple_count() as f64;
    if node.is_leaf() {
        return tuples;
    }
    let n = node.children.len() as f64;
    let explore: f64 = node
        .children
        .iter()
        .map(|&c| tree.node(c).p_explore * brute_force_cost_all(tree, c, label_cost))
        .sum();
    node.p_showtuples * tuples + (1.0 - node.p_showtuples) * (label_cost * n + explore)
}

/// Run the full audit: structure (A1–A5) plus freshly evaluated
/// CostAll/CostOne reports (A6–A7) at label cost `label_cost` and
/// CostOne fraction `frac`.
pub fn audit(tree: &CategoryTree, label_cost: f64, frac: f64) -> Vec<Diagnostic> {
    let mut diags = audit_tree(tree);
    let all = qcat_core::cost::cost_all(tree, label_cost);
    let one = qcat_core::cost::cost_one(tree, label_cost, frac);
    diags.extend(audit_cost_all(tree, &all, label_cost));
    diags.extend(audit_cost_one(tree, &one));
    // Cross-model sanity: finding one tuple is no harder than all.
    if frac <= 1.0 && one.total() > all.total() + COST_TOLERANCE {
        diags.push(Diagnostic::file_level(
            TREE,
            Rule::A6CostSign,
            format!(
                "CostOne(root) = {} exceeds CostAll(root) = {} at frac = {frac}",
                one.total(),
                all.total()
            ),
        ));
    }
    diags
}

#[cfg(test)]
mod tests {
    use super::*;
    use qcat_core::label::CategoryLabel;
    use qcat_core::tree::NodeId;
    use qcat_data::{AttrId, AttrType, Field, Relation, RelationBuilder, Schema};
    use qcat_sql::NumericRange;

    /// Relation with one numeric attribute, rows valued by index.
    fn numeric_relation(n: usize) -> Relation {
        let schema = Schema::new(vec![
            Field::new("price", AttrType::Float),
            Field::new("sqft", AttrType::Float),
        ])
        .expect("schema");
        let mut b = RelationBuilder::with_capacity(schema, n);
        for i in 0..n {
            b.push_row(&[(i as f64).into(), ((i % 5) as f64).into()])
                .expect("row");
        }
        b.finish().expect("relation")
    }

    /// A valid two-level tree over 20 rows: root → [0,10) (split by
    /// sqft into two grandchildren) and [10,20).
    fn valid_tree() -> CategoryTree {
        let rel = numeric_relation(20);
        let mut t = CategoryTree::new(rel, (0..20).collect());
        t.push_level(AttrId(0));
        let a = t.add_child(
            NodeId::ROOT,
            CategoryLabel::range(AttrId(0), NumericRange::half_open(0.0, 10.0)),
            &(0..10).collect::<Vec<u32>>(),
            0.7,
        );
        t.add_child(
            NodeId::ROOT,
            CategoryLabel::range(AttrId(0), NumericRange::closed(10.0, 19.0)),
            &(10..20).collect::<Vec<u32>>(),
            0.3,
        );
        t.push_level(AttrId(1));
        // sqft = row % 5: rows 0,1,5,6 have sqft < 2, the rest 2..=4.
        t.add_child(
            a,
            CategoryLabel::range(AttrId(1), NumericRange::half_open(0.0, 2.0)),
            &[0, 1, 5, 6],
            0.5,
        );
        t.add_child(
            a,
            CategoryLabel::range(AttrId(1), NumericRange::closed(2.0, 4.0)),
            &[2, 3, 4, 7, 8, 9],
            0.5,
        );
        t.set_p_showtuples(NodeId::ROOT, 0.3);
        t.set_p_showtuples(a, 0.6);
        t
    }

    /// A smaller, exactly-valid tree used by most tests: one level,
    /// two leaves.
    fn flat_tree() -> CategoryTree {
        let rel = numeric_relation(10);
        let mut t = CategoryTree::new(rel, (0..10).collect());
        t.push_level(AttrId(0));
        t.add_child(
            NodeId::ROOT,
            CategoryLabel::range(AttrId(0), NumericRange::half_open(0.0, 6.0)),
            &(0..6).collect::<Vec<u32>>(),
            0.8,
        );
        t.add_child(
            NodeId::ROOT,
            CategoryLabel::range(AttrId(0), NumericRange::closed(6.0, 9.0)),
            &(6..10).collect::<Vec<u32>>(),
            0.2,
        );
        t.set_p_showtuples(NodeId::ROOT, 0.25);
        t
    }

    fn ids(diags: &[Diagnostic]) -> Vec<&'static str> {
        diags.iter().map(|d| d.rule.id()).collect()
    }

    #[test]
    fn valid_tree_audits_clean() {
        let t = flat_tree();
        assert_eq!(audit(&t, 1.0, 0.5), vec![]);
    }

    #[test]
    fn a1_probability_out_of_range() {
        let mut t = flat_tree();
        let kid = t.node(NodeId::ROOT).children[0];
        t.raw_node_mut(kid).p_explore = 1.5;
        assert!(ids(&audit_tree(&t)).contains(&"A1"));
        let mut t = flat_tree();
        let kid = t.node(NodeId::ROOT).children[0];
        t.raw_node_mut(kid).p_explore = f64::NAN;
        assert!(ids(&audit_tree(&t)).contains(&"A1"));
    }

    #[test]
    fn a2_leaf_pw_must_be_one() {
        let mut t = flat_tree();
        let kid = t.node(NodeId::ROOT).children[1];
        t.raw_node_mut(kid).p_showtuples = 0.9;
        let diags = audit_tree(&t);
        assert_eq!(ids(&diags), vec!["A2"]);
        assert!(diags[0].message.contains("Pw"), "{}", diags[0].message);
    }

    #[test]
    fn a3_overlapping_siblings() {
        let mut t = flat_tree();
        let kid = t.node(NodeId::ROOT).children[1];
        // Reach back over row 5, which belongs to the first child [0,6).
        t.raw_node_mut(kid).range.start -= 1;
        let diags = audit_tree(&t);
        // Overlap also breaks exact cover and the second child's
        // label (row 5 < 6.0), so A3 must be present; the others may
        // fire too.
        assert!(ids(&diags).contains(&"A3"), "{diags:?}");
    }

    #[test]
    fn a4_children_must_cover() {
        let mut t = flat_tree();
        let kid = t.node(NodeId::ROOT).children[1];
        t.raw_node_mut(kid).range.end -= 1;
        let diags = audit_tree(&t);
        assert_eq!(ids(&diags), vec!["A4"]);
    }

    #[test]
    fn a5_label_conjunction() {
        let mut t = flat_tree();
        let kid = t.node(NodeId::ROOT).children[0];
        // Reach over row 6, which violates the child's own range label.
        t.raw_node_mut(kid).range.end += 1;
        let diags = audit_tree(&t);
        assert!(ids(&diags).contains(&"A5"), "{diags:?}");
    }

    #[test]
    fn a6_negative_and_nonfinite_costs() {
        let t = flat_tree();
        let mut costs = vec![1.0; t.node_count()];
        costs[1] = -2.0;
        let bad = CostReport::from_costs(costs);
        let diags = audit_cost_one(&t, &bad);
        assert_eq!(ids(&diags), vec!["A6"]);
        let nan = CostReport::from_costs(vec![f64::NAN; t.node_count()]);
        assert_eq!(
            audit_cost_one(&t, &nan).len(),
            t.node_count(),
            "every NaN entry reported"
        );
        // Size mismatch is also A6.
        let short = CostReport::from_costs(vec![1.0]);
        assert_eq!(ids(&audit_cost_one(&t, &short)), vec!["A6"]);
    }

    #[test]
    fn a7_corrupted_cost_all_detected() {
        let t = flat_tree();
        let good = qcat_core::cost::cost_all(&t, 1.0);
        assert_eq!(audit_cost_all(&t, &good, 1.0), vec![]);
        let mut costs: Vec<f64> = (0..t.node_count())
            .map(|i| good.cost(NodeId(i as u32)))
            .collect();
        costs[0] += 1e-6; // outside the 1e-9 tolerance
        let bad = CostReport::from_costs(costs);
        let diags = audit_cost_all(&t, &bad, 1.0);
        assert_eq!(ids(&diags), vec!["A7"]);
        assert!(diags[0].message.contains("brute-force"), "{}", diags[0].message);
    }

    #[test]
    fn a7_tolerates_rounding_noise() {
        let t = flat_tree();
        let good = qcat_core::cost::cost_all(&t, 1.0);
        let jitter: Vec<f64> = (0..t.node_count())
            .map(|i| good.cost(NodeId(i as u32)) + 1e-12)
            .collect();
        assert_eq!(audit_cost_all(&t, &CostReport::from_costs(jitter), 1.0), vec![]);
    }

    #[test]
    fn deep_tree_audits_clean_and_brute_force_agrees() {
        let t = valid_tree();
        assert_eq!(audit(&t, 2.0, 0.5), vec![]);
        let report = qcat_core::cost::cost_all(&t, 2.0);
        for &id in &t.dfs() {
            assert!(
                (report.cost(id) - brute_force_cost_all(&t, id, 2.0)).abs() <= COST_TOLERANCE
            );
        }
    }

    #[test]
    fn audit_clean_across_parameters() {
        let t = flat_tree();
        for label_cost in [0.0, 0.25, 1.0, 5.0] {
            for frac in [0.1, 0.5, 1.0] {
                assert_eq!(audit(&t, label_cost, frac), vec![], "K={label_cost} frac={frac}");
            }
        }
    }
}
