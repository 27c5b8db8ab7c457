//! The analytical cost models (paper Section 4.1).
//!
//! `CostAll` (Equation 1) is the expected number of items a user
//! examines to find **all** relevant tuples; `CostOne` (Equation 2)
//! the expected number to find the **first** relevant tuple:
//!
//! ```text
//! CostAll(C) = Pw·|tset(C)| + (1−Pw)·( K·n + Σᵢ P(Cᵢ)·CostAll(Cᵢ) )
//! CostOne(C) = Pw·frac·|tset(C)|
//!            + (1−Pw)·Σᵢ [ Πⱼ₍ⱼ₌₁..ᵢ₋₁₎ (1−P(Cⱼ)) ] · P(Cᵢ) · ( K·i + CostOne(Cᵢ) )
//! ```
//!
//! with `Pw = 1` at leaves, so the leaf cases `|tset|` and
//! `frac·|tset|` fall out of the same formulas.

use crate::tree::{CategoryTree, NodeId};

/// Per-node cost table for one tree.
#[derive(Debug, Clone)]
pub struct CostReport {
    costs: Vec<f64>,
}

impl CostReport {
    /// Build a report from a raw per-node cost table (indexed by
    /// `NodeId`). Exists so auditors and tests can construct reports —
    /// including deliberately corrupted ones — without running the
    /// evaluators; production code should use [`cost_all`]/[`cost_one`].
    pub fn from_costs(costs: Vec<f64>) -> Self {
        CostReport { costs }
    }

    /// Cost of the subtree rooted at `id`.
    pub fn cost(&self, id: NodeId) -> f64 {
        self.costs[id.index()]
    }

    /// Number of per-node entries (equals the tree's node count).
    pub fn len(&self) -> usize {
        self.costs.len()
    }

    /// True when the report covers no nodes.
    pub fn is_empty(&self) -> bool {
        self.costs.is_empty()
    }

    /// Cost of the whole tree, `Cost(root)`.
    pub fn total(&self) -> f64 {
        self.costs[NodeId::ROOT.index()]
    }
}

/// Evaluate `CostAll` for every node of `tree` with label cost `K`.
pub fn cost_all(tree: &CategoryTree, label_cost: f64) -> CostReport {
    let mut costs = vec![0.0; tree.node_count()];
    // dfs() yields parents before children; fold in reverse.
    for &id in tree.dfs().iter().rev() {
        let node = tree.node(id);
        let tuples = node.tuple_count() as f64;
        costs[id.index()] = if node.is_leaf() {
            tuples
        } else {
            let n = node.children.len() as f64;
            let showcat: f64 = label_cost * n
                + node
                    .children
                    .iter()
                    .map(|&c| tree.node(c).p_explore * costs[c.index()])
                    .sum::<f64>();
            node.p_showtuples * tuples + (1.0 - node.p_showtuples) * showcat
        };
    }
    CostReport { costs }
}

/// Evaluate `CostOne` for every node of `tree` with label cost `K` and
/// the `frac(C)` estimate.
pub fn cost_one(tree: &CategoryTree, label_cost: f64, frac: f64) -> CostReport {
    let mut costs = vec![0.0; tree.node_count()];
    for &id in tree.dfs().iter().rev() {
        let node = tree.node(id);
        let tuples = node.tuple_count() as f64;
        costs[id.index()] = if node.is_leaf() {
            frac * tuples
        } else {
            let mut showcat = 0.0;
            let mut none_before = 1.0; // Π (1 − P(Cj)) for j < i
            for (i, &c) in node.children.iter().enumerate() {
                let child = tree.node(c);
                let position_cost = label_cost * (i + 1) as f64;
                showcat += none_before * child.p_explore * (position_cost + costs[c.index()]);
                none_before *= 1.0 - child.p_explore;
            }
            node.p_showtuples * frac * tuples + (1.0 - node.p_showtuples) * showcat
        };
    }
    CostReport { costs }
}

/// The one-level `CostAll` of a *prospective* partitioning, before any
/// nodes are added to a tree: children are treated as leaves. This is
/// the quantity `CostAll(Tree(C, A))` that the level-by-level
/// algorithm (Figure 6) minimizes when choosing the categorizing
/// attribute, and that the automatic-`m` extension minimizes when
/// choosing the bucket count.
///
/// `children` is `(P(Ci), |tset(Ci)|)` in presentation order.
pub fn one_level_cost_all(
    parent_tuples: usize,
    p_showtuples: f64,
    label_cost: f64,
    children: &[(f64, usize)],
) -> f64 {
    if children.is_empty() {
        return parent_tuples as f64;
    }
    let showcat: f64 = label_cost * children.len() as f64
        + children
            .iter()
            .map(|&(p, size)| p * size as f64)
            .sum::<f64>();
    p_showtuples * parent_tuples as f64 + (1.0 - p_showtuples) * showcat
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::label::CategoryLabel;
    use qcat_data::{AttrId, AttrType, Field, Relation, RelationBuilder, Schema};
    use qcat_datagen::prop;
    use qcat_sql::NumericRange;

    /// Relation with one numeric attribute, rows 0..n valued by index.
    fn numeric_relation(n: usize) -> Relation {
        let schema = Schema::new(vec![Field::new("price", AttrType::Float)]).unwrap();
        let mut b = RelationBuilder::with_capacity(schema, n);
        for i in 0..n {
            b.push_row(&[(i as f64).into()]).unwrap();
        }
        b.finish().unwrap()
    }

    /// Root with `sizes.len()` leaf children of the given sizes and
    /// exploration probabilities.
    fn one_level_tree(sizes: &[usize], probs: &[f64], pw_root: f64) -> CategoryTree {
        let total: usize = sizes.iter().sum();
        let rel = numeric_relation(total);
        let mut t = CategoryTree::new(rel, (0..total as u32).collect());
        t.push_level(AttrId(0));
        let mut next = 0u32;
        for (&size, &p) in sizes.iter().zip(probs) {
            let lo = next as f64;
            let hi = (next + size as u32) as f64;
            let label = CategoryLabel::range(AttrId(0), NumericRange::half_open(lo, hi));
            let tset: Vec<u32> = (next..next + size as u32).collect();
            t.add_child(NodeId::ROOT, label, &tset, p);
            next += size as u32;
        }
        t.set_p_showtuples(NodeId::ROOT, pw_root);
        t
    }

    #[test]
    fn leaf_cost_is_tuple_count() {
        let rel = numeric_relation(7);
        let t = CategoryTree::new(rel, (0..7).collect());
        assert_eq!(cost_all(&t, 1.0).total(), 7.0);
        assert_eq!(cost_one(&t, 1.0, 0.5).total(), 3.5);
    }

    #[test]
    fn example_4_1_hand_check() {
        // Paper Example 4.1 flavor: root with 3 children; the user
        // pays 3 labels plus whatever she drills into. Deterministic
        // version: Pw(root)=0, child probs 1/0/0, child sizes 20/5/5.
        let t = one_level_tree(&[20, 5, 5], &[1.0, 0.0, 0.0], 0.0);
        // CostAll = 3·K + 1·20 = 23.
        assert_eq!(cost_all(&t, 1.0).total(), 23.0);
    }

    #[test]
    fn showtuples_dominates_when_pw_is_one() {
        let t = one_level_tree(&[10, 10], &[1.0, 1.0], 1.0);
        assert_eq!(cost_all(&t, 1.0).total(), 20.0);
        assert_eq!(cost_one(&t, 1.0, 0.5).total(), 10.0);
    }

    #[test]
    fn cost_all_mixes_by_pw() {
        // Pw=0.5: half the users scan 20 tuples, half read 2 labels
        // and explore child 0 (p=1, 10 tuples).
        let t = one_level_tree(&[10, 10], &[1.0, 0.0], 0.5);
        let expected = 0.5 * 20.0 + 0.5 * (2.0 + 10.0);
        assert_eq!(cost_all(&t, 1.0).total(), expected);
    }

    #[test]
    fn cost_one_position_matters() {
        // First child explored with p=1: user reads 1 label + child
        // cost. frac=0.5, child size 10 → 1 + 5 = 6.
        let t = one_level_tree(&[10, 10], &[1.0, 0.5], 0.0);
        assert_eq!(cost_one(&t, 1.0, 0.5).total(), 6.0);
        // If only the *second* child can be explored (p1=0, p2=1):
        // user reads 2 labels + child cost = 2 + 5 = 7.
        let t = one_level_tree(&[10, 10], &[0.0, 1.0], 0.0);
        assert_eq!(cost_one(&t, 1.0, 0.5).total(), 7.0);
    }

    #[test]
    fn cost_one_geometric_weighting() {
        // Children with p=0.5 each, sizes 4 and 4, K=1, frac=0.5:
        // i=1 term: 0.5·(1+2)=1.5 ; i=2: 0.5·0.5·(2+2)=1.0 → 2.5
        let t = one_level_tree(&[4, 4], &[0.5, 0.5], 0.0);
        assert!((cost_one(&t, 1.0, 0.5).total() - 2.5).abs() < 1e-12);
    }

    #[test]
    fn two_level_recursion() {
        // Root → A (10 tuples, split by attr b into 2 leaves of 5),
        //       B (10 tuples, leaf).
        let schema = Schema::new(vec![
            Field::new("a", AttrType::Float),
            Field::new("b", AttrType::Float),
        ])
        .unwrap();
        let mut b2 = RelationBuilder::new(schema);
        for i in 0..20 {
            b2.push_row(&[(i as f64).into(), ((i % 10) as f64).into()])
                .unwrap();
        }
        let rel = b2.finish().unwrap();
        let mut t = CategoryTree::new(rel, (0..20).collect());
        t.push_level(AttrId(0));
        let a = t.add_child(
            NodeId::ROOT,
            CategoryLabel::range(AttrId(0), NumericRange::half_open(0.0, 10.0)),
            &(0..10).collect::<Vec<u32>>(),
            1.0,
        );
        t.add_child(
            NodeId::ROOT,
            CategoryLabel::range(AttrId(0), NumericRange::closed(10.0, 19.0)),
            &(10..20).collect::<Vec<u32>>(),
            0.0,
        );
        t.push_level(AttrId(1));
        t.add_child(
            a,
            CategoryLabel::range(AttrId(1), NumericRange::half_open(0.0, 5.0)),
            &(0..5).collect::<Vec<u32>>(),
            1.0,
        );
        t.add_child(
            a,
            CategoryLabel::range(AttrId(1), NumericRange::closed(5.0, 9.0)),
            &(5..10).collect::<Vec<u32>>(),
            0.0,
        );
        t.set_p_showtuples(NodeId::ROOT, 0.0);
        t.set_p_showtuples(a, 0.0);
        t.check_invariants().unwrap();
        // CostAll(a) = 2 labels + 1·5 = 7 ; CostAll(root) = 2 + 1·7 = 9.
        let report = cost_all(&t, 1.0);
        assert_eq!(report.cost(a), 7.0);
        assert_eq!(report.total(), 9.0);
    }

    #[test]
    fn one_level_helper_matches_tree_eval() {
        let sizes = [12usize, 7, 3];
        let probs = [0.8, 0.3, 0.1];
        let t = one_level_tree(&sizes, &probs, 0.25);
        let helper = one_level_cost_all(
            22,
            0.25,
            1.0,
            &sizes
                .iter()
                .zip(&probs)
                .map(|(&s, &p)| (p, s))
                .collect::<Vec<_>>(),
        );
        assert!((cost_all(&t, 1.0).total() - helper).abs() < 1e-12);
    }

    #[test]
    fn empty_children_helper_degenerates_to_tuples() {
        assert_eq!(one_level_cost_all(42, 0.3, 1.0, &[]), 42.0);
    }

    /// CostAll is bounded below by the pure-SHOWTUPLES component and
    /// CostOne never exceeds CostAll for the same tree when frac ≤ 1
    /// (finding one tuple is no harder than finding all).
    #[test]
    fn prop_cost_sanity() {
        prop::check("cost_sanity", 64, 5, |rng, size| {
            let sizes = prop::vec(rng, 1, size, |rng| rng.gen_range(1..40usize));
            let probs: Vec<f64> = sizes.iter().map(|_| rng.gen_range(0.0..1.0)).collect();
            let (pw, k) = (rng.gen_range(0.0..1.0), rng.gen_range(0.0..3.0));
            let t = one_level_tree(&sizes, &probs, pw);
            let all = cost_all(&t, k).total();
            let one = cost_one(&t, k, 0.5).total();
            assert!(all >= 0.0 && one >= 0.0, "one={one} all={all}");
            assert!(
                one <= all + 1e-9,
                "one={one} all={all} sizes={sizes:?} probs={probs:?} pw={pw}"
            );
            Ok(())
        });
    }
}
