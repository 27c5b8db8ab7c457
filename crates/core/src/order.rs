//! Category presentation order (paper Section 5.1.2 and Appendix A).
//!
//! Appendix A proves that presenting sibling categories in increasing
//! `1/P(Cᵢ) + CostOne(Cᵢ)` minimizes `CostOne` of the parent. Because
//! `CostOne(Cᵢ)` of an unbuilt subtree is unknown during construction,
//! the paper's multilevel heuristic keeps only the first term —
//! decreasing `P(Cᵢ)` — which is what the categorical partitioner's
//! `occ(v)` ordering implements. This module provides both the exact
//! criterion (for finished one-level trees) and the heuristic.

use crate::cost::cost_one;
use crate::tree::{CategoryTree, NodeId};

/// Sort indices `0..n` by increasing key with a deterministic tie
/// break on the original index.
fn sort_permutation_by<F: Fn(usize) -> f64>(n: usize, key: F) -> Vec<usize> {
    let mut idx: Vec<usize> = (0..n).collect();
    idx.sort_by(|&a, &b| key(a).total_cmp(&key(b)).then(a.cmp(&b)));
    idx
}

/// Reorder the children of `parent` by the Appendix-A optimal
/// criterion, using the tree's current subtree costs: increasing
/// `1/P(Cᵢ) + CostOne(Cᵢ)` (categories with `P = 0` sort last).
pub fn apply_optimal_one_order(
    tree: &mut CategoryTree,
    parent: NodeId,
    label_cost: f64,
    frac: f64,
) {
    let report = cost_one(tree, label_cost, frac);
    let children = tree.node(parent).children.clone();
    if children.len() < 2 {
        return;
    }
    let keys: Vec<f64> = children
        .iter()
        .map(|&c| {
            let p = tree.node(c).p_explore;
            if p <= 0.0 {
                f64::INFINITY
            } else {
                1.0 / p + report.cost(c)
            }
        })
        .collect();
    let perm = sort_permutation_by(children.len(), |i| keys[i]);
    let order: Vec<NodeId> = perm.into_iter().map(|i| children[i]).collect();
    tree.reorder_children(parent, order);
}

/// Reorder the children of `parent` by the multilevel heuristic:
/// decreasing `P(Cᵢ)`.
pub fn apply_probability_order(tree: &mut CategoryTree, parent: NodeId) {
    let children = tree.node(parent).children.clone();
    if children.len() < 2 {
        return;
    }
    let keys: Vec<f64> = children.iter().map(|&c| -tree.node(c).p_explore).collect();
    let perm = sort_permutation_by(children.len(), |i| keys[i]);
    let order: Vec<NodeId> = perm.into_iter().map(|i| children[i]).collect();
    tree.reorder_children(parent, order);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::label::CategoryLabel;
    use qcat_data::{AttrId, AttrType, Field, Relation, RelationBuilder, Schema};
    use qcat_datagen::prop;
    use qcat_sql::NumericRange;

    fn numeric_relation(n: usize) -> Relation {
        let schema = Schema::new(vec![Field::new("v", AttrType::Float)]).unwrap();
        let mut b = RelationBuilder::with_capacity(schema, n);
        for i in 0..n {
            b.push_row(&[(i as f64).into()]).unwrap();
        }
        b.finish().unwrap()
    }

    fn one_level_tree(sizes: &[usize], probs: &[f64]) -> CategoryTree {
        let total: usize = sizes.iter().sum();
        let rel = numeric_relation(total);
        let mut t = CategoryTree::new(rel, (0..total as u32).collect());
        t.push_level(AttrId(0));
        let mut next = 0u32;
        for (i, (&size, &p)) in sizes.iter().zip(probs).enumerate() {
            let lo = next as f64;
            let hi = (next + size as u32) as f64;
            let range = if i + 1 == sizes.len() {
                NumericRange::closed(lo, hi)
            } else {
                NumericRange::half_open(lo, hi)
            };
            t.add_child(
                NodeId::ROOT,
                CategoryLabel::range(AttrId(0), range),
                &(next..next + size as u32).collect::<Vec<u32>>(),
                p,
            );
            next += size as u32;
        }
        t.set_p_showtuples(NodeId::ROOT, 0.0);
        t
    }

    #[test]
    fn high_probability_first() {
        let mut t = one_level_tree(&[10, 10, 10], &[0.1, 0.9, 0.5]);
        apply_probability_order(&mut t, NodeId::ROOT);
        let probs: Vec<f64> = t
            .node(NodeId::ROOT)
            .children
            .iter()
            .map(|&c| t.node(c).p_explore)
            .collect();
        assert_eq!(probs, vec![0.9, 0.5, 0.1]);
    }

    #[test]
    fn optimal_order_accounts_for_subtree_cost() {
        // Same P, very different sizes → smaller subtree first.
        let mut t = one_level_tree(&[100, 4], &[0.5, 0.5]);
        apply_optimal_one_order(&mut t, NodeId::ROOT, 1.0, 0.5);
        let sizes: Vec<usize> = t
            .node(NodeId::ROOT)
            .children
            .iter()
            .map(|&c| t.node(c).tuple_count())
            .collect();
        assert_eq!(sizes, vec![4, 100]);
    }

    #[test]
    fn zero_probability_sorts_last() {
        let mut t = one_level_tree(&[5, 5, 5], &[0.0, 0.4, 0.0]);
        apply_optimal_one_order(&mut t, NodeId::ROOT, 1.0, 0.5);
        let probs: Vec<f64> = t
            .node(NodeId::ROOT)
            .children
            .iter()
            .map(|&c| t.node(c).p_explore)
            .collect();
        assert_eq!(probs[0], 0.4);
    }

    #[test]
    fn single_child_untouched() {
        let mut t = one_level_tree(&[5], &[0.5]);
        let before = t.node(NodeId::ROOT).children.clone();
        apply_optimal_one_order(&mut t, NodeId::ROOT, 1.0, 0.5);
        apply_probability_order(&mut t, NodeId::ROOT);
        assert_eq!(t.node(NodeId::ROOT).children, before);
    }

    /// Brute-force check of the Appendix-A theorem: the optimal order
    /// beats (or ties) every permutation of the children.
    #[test]
    fn optimal_order_beats_all_permutations() {
        let sizes = [30usize, 4, 12, 50];
        let probs = [0.2, 0.9, 0.5, 0.05];
        let mut t = one_level_tree(&sizes, &probs);
        apply_optimal_one_order(&mut t, NodeId::ROOT, 1.0, 0.5);
        let best = cost_one(&t, 1.0, 0.5).total();
        let children = t.node(NodeId::ROOT).children.clone();
        let perms = permutations(&children);
        for p in perms {
            t.reorder_children(NodeId::ROOT, p);
            let c = cost_one(&t, 1.0, 0.5).total();
            assert!(best <= c + 1e-9, "best {best} > perm {c}");
        }
    }

    fn permutations(items: &[NodeId]) -> Vec<Vec<NodeId>> {
        if items.len() <= 1 {
            return vec![items.to_vec()];
        }
        let mut out = Vec::new();
        for i in 0..items.len() {
            let mut rest = items.to_vec();
            let head = rest.remove(i);
            for mut tail in permutations(&rest) {
                tail.insert(0, head);
                out.push(tail);
            }
        }
        out
    }

    /// Appendix A as a property: for random sibling sets, the
    /// 1/P + CostOne ordering is never beaten by a random permutation.
    #[test]
    fn prop_appendix_a() {
        prop::check("appendix_a", 64, 5, |rng, size| {
            let sizes = prop::vec(rng, 2, size, |rng| rng.gen_range(1..40usize));
            let probs: Vec<f64> = sizes.iter().map(|_| rng.gen_range(0.01..1.0)).collect();
            let mut t = one_level_tree(&sizes, &probs);
            apply_optimal_one_order(&mut t, NodeId::ROOT, 1.0, 0.5);
            let best = cost_one(&t, 1.0, 0.5).total();
            // A uniform random permutation (Fisher–Yates).
            let mut order = t.node(NodeId::ROOT).children.clone();
            for i in (1..order.len()).rev() {
                order.swap(i, rng.gen_range(0..=i));
            }
            t.reorder_children(NodeId::ROOT, order);
            let shuffled = cost_one(&t, 1.0, 0.5).total();
            assert!(
                best <= shuffled + 1e-9,
                "{best} > {shuffled}: sizes {sizes:?} probs {probs:?}"
            );
            Ok(())
        });
    }
}
