//! ASCII rendering of category trees — the library's stand-in for the
//! paper's treeview UI.

use crate::tree::{CategoryTree, NodeId};
use std::fmt::Write as _;

/// Render `tree` as an indented ASCII outline.
///
/// Shows each category's label, tuple count, and (at non-leaves) the
/// estimated probabilities. `max_depth` limits how deep the rendering
/// descends (`usize::MAX` for everything).
pub fn render_tree(tree: &CategoryTree, max_depth: usize) -> String {
    let mut out = String::new();
    render_node(tree, NodeId::ROOT, 0, max_depth, &mut out);
    if let Some(reason) = tree.degraded() {
        let _ = writeln!(out, "(degraded: {reason} — best-effort prefix)");
    }
    out
}

fn render_node(tree: &CategoryTree, id: NodeId, depth: usize, max_depth: usize, out: &mut String) {
    let node = tree.node(id);
    let indent = "  ".repeat(depth);
    let label = match &node.label {
        None => "ALL".to_string(),
        Some(l) => l.render(tree.relation()),
    };
    let _ = write!(out, "{indent}{label} [{} tuples", node.tuple_count());
    if !node.is_leaf() {
        let _ = write!(
            out,
            ", P={:.2}, Pw={:.2}",
            node.p_explore, node.p_showtuples
        );
    } else if id != NodeId::ROOT {
        let _ = write!(out, ", P={:.2}", node.p_explore);
    }
    out.push_str("]\n");
    if depth >= max_depth {
        if !node.children.is_empty() {
            let _ = writeln!(out, "{indent}  … {} subcategories", node.children.len());
        }
        return;
    }
    for &child in &node.children {
        render_node(tree, child, depth + 1, max_depth, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qcat_data::{AttrId, AttrType, Field, RelationBuilder, Schema};

    fn tree() -> CategoryTree {
        let schema = Schema::new(vec![Field::new("n", AttrType::Categorical)]).unwrap();
        let mut b = RelationBuilder::new(schema);
        for v in ["a", "a", "b"] {
            b.push_row(&[v.into()]).unwrap();
        }
        let rel = b.finish().unwrap();
        let col = crate::label::CategoricalCol::of(&rel, AttrId(0)).unwrap();
        let label_a = col.label_of_value("a").unwrap();
        let label_b = col.label_of_value("b").unwrap();
        let mut t = CategoryTree::new(rel, vec![0, 1, 2]);
        t.push_level(AttrId(0));
        t.add_child(NodeId::ROOT, label_a, &[0, 1], 0.75);
        t.add_child(NodeId::ROOT, label_b, &[2], 0.25);
        t.set_p_showtuples(NodeId::ROOT, 0.3);
        t
    }

    #[test]
    fn renders_labels_counts_and_probabilities() {
        let s = render_tree(&tree(), usize::MAX);
        assert!(s.contains("ALL [3 tuples, P=1.00, Pw=0.30]"), "{s}");
        assert!(s.contains("  n: a [2 tuples, P=0.75]"), "{s}");
        assert!(s.contains("  n: b [1 tuples, P=0.25]"), "{s}");
    }

    #[test]
    fn depth_limit_elides_subtrees() {
        let s = render_tree(&tree(), 0);
        assert!(s.contains("… 2 subcategories"), "{s}");
        assert!(!s.contains("n: a ["), "{s}");
    }

    #[test]
    fn degraded_trees_carry_a_footer() {
        let mut t = tree();
        assert!(!render_tree(&t, usize::MAX).contains("degraded"));
        t.mark_degraded(crate::tree::DegradeReason::Deadline);
        let s = render_tree(&t, usize::MAX);
        assert!(s.ends_with("(degraded: deadline — best-effort prefix)\n"), "{s}");
    }
}
