//! The category tree (paper Section 3.1).
//!
//! An arena of nodes rooted at the implicit "ALL" node over one
//! permutation of the result's row ids. Children partition their
//! parent's tuple-set, so every node's tuple-set is one contiguous
//! interval of that permutation: a node carries its label, its range,
//! and the two workload-derived probabilities the cost model needs:
//! `P(C)` (exploration probability, fixed at creation) and `Pw(C)`
//! (SHOWTUPLES probability, fixed when the node's children are
//! attached because it depends on the subcategorizing attribute; 1 for
//! leaves).

use crate::label::CategoryLabel;
use crate::partition::Partitioning;
use qcat_data::{AttrId, Relation};
use std::fmt;
use std::ops::Range;

/// Index of a node in its [`CategoryTree`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub u32);

impl NodeId {
    /// The root's id.
    pub const ROOT: NodeId = NodeId(0);

    /// As a usable index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// One category.
#[derive(Debug, Clone)]
pub struct Node {
    /// The label; `None` only for the root.
    pub label: Option<CategoryLabel>,
    /// Parent id; `None` only for the root.
    pub parent: Option<NodeId>,
    /// Children in presentation order (the order the user examines).
    pub children: Vec<NodeId>,
    /// The node's interval of the tree's row permutation: `tset(C)`
    /// is [`CategoryTree::tuples`]. A leaf's rows are in table order;
    /// an internal node's are grouped by child.
    pub range: Range<u32>,
    /// Depth: root is level 0, its categories level 1, …
    pub level: usize,
    /// `P(C)`: probability the user explores this node upon examining
    /// its label. 1.0 for the root (the user always starts there).
    pub p_explore: f64,
    /// `Pw(C)`: probability of SHOWTUPLES given exploration. 1.0 for
    /// leaves; otherwise `1 − NAttr(SA(C))/N`.
    pub p_showtuples: f64,
}

impl Node {
    /// True when the node has no subcategories.
    pub fn is_leaf(&self) -> bool {
        self.children.is_empty()
    }

    /// `|tset(C)|`.
    pub fn tuple_count(&self) -> usize {
        self.range.len()
    }
}

/// Why a tree is a degraded (best-effort) answer rather than the full
/// Figure-6 categorization. Degradation happens only at serial level
/// boundaries: a partially built level is discarded wholesale, so the
/// surviving prefix is exactly what an unbudgeted run would have built
/// for those levels — at any thread count.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DegradeReason {
    /// The wall-clock deadline expired.
    Deadline,
    /// The result-row cap was exceeded.
    Rows,
    /// The tree-node cap was exceeded.
    Nodes,
    /// The label cap was exceeded.
    Labels,
    /// The estimated-heap cap was exceeded.
    Heap,
    /// The budget was cancelled explicitly.
    Cancelled,
    /// The server shed this request under admission control before
    /// categorization started.
    Shed,
    /// A worker failed (panic or injected fault); the completed prefix
    /// is still sound.
    Internal,
}

impl DegradeReason {
    /// Stable lowercase name, used in renders, traces, and JSON.
    pub fn as_str(self) -> &'static str {
        match self {
            DegradeReason::Deadline => "deadline",
            DegradeReason::Rows => "rows",
            DegradeReason::Nodes => "nodes",
            DegradeReason::Labels => "labels",
            DegradeReason::Heap => "heap",
            DegradeReason::Cancelled => "cancelled",
            DegradeReason::Shed => "shed",
            DegradeReason::Internal => "internal",
        }
    }
}

impl fmt::Display for DegradeReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

impl From<qcat_fault::BudgetExceeded> for DegradeReason {
    fn from(e: qcat_fault::BudgetExceeded) -> Self {
        use qcat_fault::BudgetExceeded as B;
        match e {
            B::Deadline => DegradeReason::Deadline,
            B::Rows => DegradeReason::Rows,
            B::Nodes => DegradeReason::Nodes,
            B::Labels => DegradeReason::Labels,
            B::Heap => DegradeReason::Heap,
            B::Cancelled => DegradeReason::Cancelled,
        }
    }
}

/// Structural diagnostics produced by [`CategoryTree::summary`].
#[derive(Debug, Clone, PartialEq)]
pub struct TreeSummary {
    /// Depth of the deepest node (root = 0).
    pub depth: usize,
    /// Total nodes including the root.
    pub node_count: usize,
    /// Number of leaves.
    pub leaf_count: usize,
    /// Node count at each level, `0..=depth`.
    pub nodes_per_level: Vec<usize>,
    /// Mean fan-out of non-leaf nodes at each level.
    pub avg_fanout: Vec<f64>,
    /// Largest leaf tuple-set.
    pub max_leaf_size: usize,
    /// Median leaf tuple-set size.
    pub median_leaf_size: usize,
}

/// A labeled hierarchical categorization of one result set.
#[derive(Debug, Clone)]
pub struct CategoryTree {
    relation: Relation,
    /// The row permutation every node's range indexes.
    rows: Vec<u32>,
    nodes: Vec<Node>,
    /// `level_attrs[l]` is the categorizing attribute of level `l+1`
    /// (the attribute whose values partition level-`l` nodes).
    level_attrs: Vec<AttrId>,
    /// `Some` when the builder stopped early (budget/fault); the tree
    /// then holds the completed level prefix. A root-only degraded
    /// tree is the flat-listing fallback.
    degraded: Option<DegradeReason>,
}

impl CategoryTree {
    /// A tree containing only the root ("ALL") node over `rows`, put
    /// in table order once if they arrived in another (`ORDER BY`)
    /// order.
    pub fn new(relation: Relation, mut rows: Vec<u32>) -> Self {
        if !rows.is_sorted() {
            rows.sort_unstable();
        }
        CategoryTree {
            relation,
            nodes: vec![Node {
                label: None,
                parent: None,
                children: Vec::new(),
                range: 0..rows.len() as u32,
                level: 0,
                p_explore: 1.0,
                p_showtuples: 1.0,
            }],
            rows,
            level_attrs: Vec::new(),
            degraded: None,
        }
    }

    /// `tset(C)` of `id`: its rows, in table order for a leaf and
    /// grouped by child for an internal node.
    pub fn tuples(&self, id: NodeId) -> &[u32] {
        let range = &self.node(id).range;
        &self.rows[range.start as usize..range.end as usize]
    }

    /// Why this tree is a best-effort prefix, or `None` for a full
    /// categorization.
    pub fn degraded(&self) -> Option<DegradeReason> {
        self.degraded
    }

    /// Mark this tree as a degraded (best-effort) answer. The first
    /// reason sticks; later calls are ignored.
    pub fn mark_degraded(&mut self, reason: DegradeReason) {
        self.degraded.get_or_insert(reason);
    }

    /// The base relation.
    pub fn relation(&self) -> &Relation {
        &self.relation
    }

    /// The root node id.
    pub fn root(&self) -> NodeId {
        NodeId::ROOT
    }

    /// Immutable node access.
    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id.index()]
    }

    /// Mutable node access that bypasses every construction-time
    /// invariant (probability clamping, range/label consistency). This
    /// exists so auditors and tests can *seed* violations and verify
    /// they are detected — production code must build trees through
    /// [`CategoryTree::add_child`] and friends instead.
    pub fn raw_node_mut(&mut self, id: NodeId) -> &mut Node {
        &mut self.nodes[id.index()]
    }

    /// Number of nodes including the root.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Number of leaves.
    pub fn leaf_count(&self) -> usize {
        self.nodes.iter().filter(|n| n.is_leaf()).count()
    }

    /// Estimated owned heap footprint in bytes: the node arena, the
    /// row permutation, every node's child list, and the B-tree nodes
    /// of `In` labels (each entry holds a code plus an interned
    /// `Arc<str>` handle; the string bytes themselves are shared with
    /// the relation's dictionary and not counted). The relation handle
    /// is shared and likewise excluded. Used by the serving layer's
    /// byte-budgeted answer cache.
    pub fn heap_bytes(&self) -> usize {
        use crate::label::LabelKind;
        use std::mem::size_of;
        // A `BTreeMap` allocates whole nodes of up to 11 entries, so
        // even a one-value label (the shape the cost-based partitioner
        // builds) holds a full node: parent link, 11 keys, 11 values
        // and two lengths.
        const IN_NODE_BYTES: usize = size_of::<usize>()
            + 11 * (size_of::<u32>() + size_of::<std::sync::Arc<str>>())
            + 2 * size_of::<u16>();
        let mut bytes = self.nodes.capacity() * std::mem::size_of::<Node>()
            + self.rows.capacity() * std::mem::size_of::<u32>()
            + self.level_attrs.capacity() * std::mem::size_of::<AttrId>();
        for node in &self.nodes {
            bytes += node.children.capacity() * std::mem::size_of::<NodeId>();
            if let Some(label) = &node.label {
                bytes += match &label.kind {
                    LabelKind::In(entries) => entries.len().div_ceil(11) * IN_NODE_BYTES,
                    LabelKind::Range(_) => 0,
                };
            }
        }
        bytes
    }

    /// Depth of the deepest node (root = 0).
    pub fn depth(&self) -> usize {
        self.nodes.iter().map(|n| n.level).max().unwrap_or(0)
    }

    /// The categorizing attribute of `level` (1-based: level 1 nodes
    /// partition the root).
    pub fn level_attr(&self, level: usize) -> Option<AttrId> {
        if level == 0 {
            None
        } else {
            self.level_attrs.get(level - 1).copied()
        }
    }

    /// All categorizing attributes, level 1 outward.
    pub fn level_attrs(&self) -> &[AttrId] {
        &self.level_attrs
    }

    /// The subcategorizing attribute of `id` — the categorizing
    /// attribute of its children's level, if that level exists.
    pub fn subcategorizing_attr(&self, id: NodeId) -> Option<AttrId> {
        self.level_attr(self.node(id).level + 1)
    }

    /// Declare the categorizing attribute of the next level. Must be
    /// called once per level before children at that level are added;
    /// repeating an attribute violates the paper's 1:1
    /// level↔attribute association and panics.
    pub fn push_level(&mut self, attr: AttrId) {
        assert!(
            !self.level_attrs.contains(&attr),
            "attribute {attr:?} already categorizes an earlier level"
        );
        self.level_attrs.push(attr);
    }

    /// Attach `partitioning` under `parent`: `rows` is the parent's
    /// rows regrouped part by part (`partition::scatter`),
    /// and part `k` becomes a child over its next `size` rows. This is
    /// how every categorizer grows a level.
    pub fn attach(&mut self, parent: NodeId, partitioning: Partitioning, rows: &[u32]) {
        let mut rest = rows;
        for part in partitioning.parts {
            let (head, tail) = rest.split_at(part.size);
            self.add_child(parent, part.label, head, part.p_explore);
            rest = tail;
        }
    }

    /// Attach a child category under `parent` over `rows`, which are
    /// written over the parent's range just past its last child's.
    ///
    /// The child's level must be the most recently pushed level, its
    /// label's attribute must be that level's categorizing attribute,
    /// and `p_explore` is `P(C)` from the workload estimator.
    pub fn add_child(
        &mut self,
        parent: NodeId,
        label: CategoryLabel,
        rows: &[u32],
        p_explore: f64,
    ) -> NodeId {
        let node = self.node(parent);
        let level = node.level + 1;
        assert_eq!(
            Some(label.attr),
            self.level_attr(level),
            "child label attribute must match the level's categorizing attribute"
        );
        let start = node
            .children
            .last()
            .map_or(node.range.start, |&c| self.node(c).range.end);
        let range = start..start + rows.len() as u32;
        assert!(
            range.end <= node.range.end,
            "children cannot hold more rows than their parent"
        );
        self.rows[range.start as usize..range.end as usize].copy_from_slice(rows);
        let id = NodeId(self.nodes.len() as u32);
        self.nodes.push(Node {
            label: Some(label),
            parent: Some(parent),
            children: Vec::new(),
            range,
            level,
            p_explore: p_explore.clamp(0.0, 1.0),
            p_showtuples: 1.0,
        });
        self.nodes[parent.index()].children.push(id);
        id
    }

    /// Set `Pw` of a node (done by the builder when the node gains
    /// children; leaves keep 1.0).
    pub fn set_p_showtuples(&mut self, id: NodeId, pw: f64) {
        self.nodes[id.index()].p_showtuples = pw.clamp(0.0, 1.0);
    }

    /// Reorder the children of `id` (used by the ordering heuristics;
    /// `order` must be a permutation of the current children).
    pub fn reorder_children(&mut self, id: NodeId, order: Vec<NodeId>) {
        let current = &self.nodes[id.index()].children;
        assert_eq!(order.len(), current.len(), "order must be a permutation");
        debug_assert!({
            let mut a = order.clone();
            let mut b = current.clone();
            a.sort_unstable();
            b.sort_unstable();
            a == b
        });
        self.nodes[id.index()].children = order;
    }

    /// Node ids at `level`.
    pub fn nodes_at_level(&self, level: usize) -> Vec<NodeId> {
        (0..self.nodes.len() as u32)
            .map(NodeId)
            .filter(|&id| self.node(id).level == level)
            .collect()
    }

    /// All node ids in depth-first, presentation order (the order a
    /// top-to-bottom rendering shows them).
    pub fn dfs(&self) -> Vec<NodeId> {
        let mut out = Vec::with_capacity(self.nodes.len());
        let mut stack = vec![NodeId::ROOT];
        while let Some(id) = stack.pop() {
            out.push(id);
            // Push children reversed so the first child pops first.
            for &c in self.node(id).children.iter().rev() {
                stack.push(c);
            }
        }
        out
    }

    /// The conjunction of labels from the root to `id` (exclusive of
    /// the root): the node's full path predicate.
    pub fn path_labels(&self, id: NodeId) -> Vec<&CategoryLabel> {
        let mut labels = Vec::new();
        let mut cur = Some(id);
        while let Some(c) = cur {
            let node = self.node(c);
            if let Some(l) = &node.label {
                labels.push(l);
            }
            cur = node.parent;
        }
        labels.reverse();
        labels
    }

    /// Structural diagnostics for one tree: per-level node counts and
    /// fan-out, leaf-size distribution — the numbers an operator wants
    /// when judging whether a configuration produces browsable trees.
    pub fn summary(&self) -> TreeSummary {
        let depth = self.depth();
        let mut nodes_per_level = vec![0usize; depth + 1];
        let mut fanout_sum = vec![0usize; depth + 1];
        let mut parents_per_level = vec![0usize; depth + 1];
        let mut leaf_sizes = Vec::new();
        for node in &self.nodes {
            nodes_per_level[node.level] += 1;
            if node.is_leaf() {
                leaf_sizes.push(node.tuple_count());
            } else {
                fanout_sum[node.level] += node.children.len();
                parents_per_level[node.level] += 1;
            }
        }
        leaf_sizes.sort_unstable();
        let avg_fanout = (0..=depth)
            .map(|l| {
                if parents_per_level[l] == 0 {
                    0.0
                } else {
                    fanout_sum[l] as f64 / parents_per_level[l] as f64
                }
            })
            .collect();
        TreeSummary {
            depth,
            node_count: self.node_count(),
            leaf_count: leaf_sizes.len(),
            nodes_per_level,
            avg_fanout,
            max_leaf_size: leaf_sizes.last().copied().unwrap_or(0),
            median_leaf_size: leaf_sizes.get(leaf_sizes.len() / 2).copied().unwrap_or(0),
        }
    }

    /// Verify the structural invariants of Section 3.1; used by tests
    /// and debug builds. Returns a description of the first violation.
    pub fn check_invariants(&self) -> Result<(), String> {
        for (i, node) in self.nodes.iter().enumerate() {
            let id = NodeId(i as u32);
            // Children partition the parent's tset: sorted by start,
            // their ranges tile the parent's range.
            let mut ranges: Vec<&Range<u32>> = Vec::with_capacity(node.children.len());
            for &c in &node.children {
                let child = self.node(c);
                if child.parent != Some(id) {
                    return Err(format!("{c} has wrong parent"));
                }
                if child.level != node.level + 1 {
                    return Err(format!("{c} has wrong level"));
                }
                ranges.push(&child.range);
            }
            ranges.sort_by_key(|r| r.start);
            let tiled = ranges.iter().try_fold(node.range.start, |at, r| {
                (r.start == at && r.start <= r.end).then_some(r.end)
            });
            if !node.is_leaf() && tiled != Some(node.range.end) {
                return Err(format!(
                    "children of {id} overlap or do not cover its range {:?}",
                    node.range
                ));
            }
            if node.is_leaf() && !self.tuples(id).is_sorted_by(|a, b| a < b) {
                return Err(format!("leaf {id} is not in table order"));
            }
            // Labels match levels.
            match (&node.label, node.level) {
                (None, 0) => {}
                (Some(l), lv) if lv >= 1 => {
                    if Some(l.attr) != self.level_attr(lv) {
                        return Err(format!("{id} label attr mismatches level {lv}"));
                    }
                    // Every tuple in tset satisfies the label.
                    for &row in self.tuples(id) {
                        if !l.matches_row(&self.relation, row) {
                            return Err(format!("{id} contains row {row} violating its label"));
                        }
                    }
                }
                _ => return Err(format!("{id} has inconsistent label/level")),
            }
            // Probability sanity.
            if !(0.0..=1.0).contains(&node.p_explore) || !(0.0..=1.0).contains(&node.p_showtuples) {
                return Err(format!("{id} has probabilities outside [0,1]"));
            }
            if node.is_leaf() && !crate::float::same(node.p_showtuples, 1.0) {
                return Err(format!("leaf {id} must have Pw = 1"));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qcat_data::{AttrType, Field, RelationBuilder, Schema};
    use qcat_datagen::prop;
    use qcat_sql::NumericRange;

    fn homes() -> Relation {
        let schema = Schema::new(vec![
            Field::new("neighborhood", AttrType::Categorical),
            Field::new("price", AttrType::Float),
        ])
        .unwrap();
        let mut b = RelationBuilder::new(schema);
        for (n, p) in [
            ("Redmond", 210_000.0),
            ("Bellevue", 260_000.0),
            ("Seattle", 305_000.0),
            ("Redmond", 220_000.0),
        ] {
            b.push_row(&[n.into(), p.into()]).unwrap();
        }
        b.finish().unwrap()
    }

    fn hood(rel: &Relation, v: &str) -> CategoryLabel {
        crate::label::CategoricalCol::of(rel, AttrId(0))
            .unwrap()
            .label_of_value(v)
            .unwrap()
    }

    /// Build: root → {Redmond(0,3), Bellevue(1), Seattle(2)}; Redmond
    /// further split by price.
    fn sample_tree() -> CategoryTree {
        let rel = homes();
        let (red, bel, sea) = (
            hood(&rel, "Redmond"),
            hood(&rel, "Bellevue"),
            hood(&rel, "Seattle"),
        );
        let mut t = CategoryTree::new(rel, vec![0, 1, 2, 3]);
        t.push_level(AttrId(0));
        let r = t.add_child(NodeId::ROOT, red, &[0, 3], 0.6);
        t.add_child(NodeId::ROOT, bel, &[1], 0.3);
        t.add_child(NodeId::ROOT, sea, &[2], 0.1);
        t.push_level(AttrId(1));
        t.add_child(
            r,
            CategoryLabel::range(AttrId(1), NumericRange::half_open(200_000.0, 215_000.0)),
            &[0],
            0.5,
        );
        t.add_child(
            r,
            CategoryLabel::range(AttrId(1), NumericRange::closed(215_000.0, 230_000.0)),
            &[3],
            0.5,
        );
        t.set_p_showtuples(NodeId::ROOT, 0.2);
        t.set_p_showtuples(r, 0.4);
        t
    }

    #[test]
    fn heap_bytes_grows_with_structure() {
        let rel = homes();
        let root_only = CategoryTree::new(rel, vec![0, 1, 2, 3]);
        let full = sample_tree();
        assert!(root_only.heap_bytes() >= 4 * 4, "root tset is counted");
        assert!(
            full.heap_bytes() > root_only.heap_bytes(),
            "children, labels, and level attrs add footprint"
        );
    }

    #[test]
    fn structure_accessors() {
        let t = sample_tree();
        assert_eq!(t.node_count(), 6);
        assert_eq!(t.leaf_count(), 4);
        assert_eq!(t.depth(), 2);
        assert_eq!(t.level_attr(1), Some(AttrId(0)));
        assert_eq!(t.level_attr(2), Some(AttrId(1)));
        assert_eq!(t.level_attr(0), None);
        assert_eq!(t.level_attr(3), None);
        assert_eq!(t.subcategorizing_attr(NodeId::ROOT), Some(AttrId(0)));
        assert_eq!(t.nodes_at_level(1).len(), 3);
        assert_eq!(t.nodes_at_level(2).len(), 2);
    }

    #[test]
    fn invariants_hold_on_sample() {
        let t = sample_tree();
        t.check_invariants().unwrap();
    }

    #[test]
    fn dfs_is_presentation_order() {
        let t = sample_tree();
        let order = t.dfs();
        // root, Redmond, its two price children, Bellevue, Seattle.
        assert_eq!(order.len(), 6);
        assert_eq!(order[0], NodeId::ROOT);
        assert_eq!(t.tuples(order[1]), [0, 3]);
        assert_eq!(t.tuples(order[2]), [0]);
        assert_eq!(t.tuples(order[3]), [3]);
        assert_eq!(t.tuples(order[4]), [1]);
    }

    #[test]
    fn path_labels_conjunction() {
        let t = sample_tree();
        let deep = t.nodes_at_level(2)[0];
        let path = t.path_labels(deep);
        assert_eq!(path.len(), 2);
        assert_eq!(path[0].attr, AttrId(0));
        assert_eq!(path[1].attr, AttrId(1));
        assert!(t.path_labels(NodeId::ROOT).is_empty());
    }

    #[test]
    fn reorder_children() {
        let mut t = sample_tree();
        let mut kids = t.node(NodeId::ROOT).children.clone();
        kids.reverse();
        t.reorder_children(NodeId::ROOT, kids.clone());
        assert_eq!(t.node(NodeId::ROOT).children, kids);
        t.check_invariants().unwrap();
    }

    #[test]
    #[should_panic(expected = "permutation")]
    fn reorder_requires_permutation() {
        let mut t = sample_tree();
        t.reorder_children(NodeId::ROOT, vec![NodeId(1)]);
    }

    #[test]
    #[should_panic(expected = "already categorizes")]
    fn repeated_level_attr_panics() {
        let rel = homes();
        let mut t = CategoryTree::new(rel, vec![0, 1, 2, 3]);
        t.push_level(AttrId(0));
        t.push_level(AttrId(0));
    }

    #[test]
    #[should_panic(expected = "categorizing attribute")]
    fn label_attr_must_match_level() {
        let rel = homes();
        let mut t = CategoryTree::new(rel, vec![0, 1, 2, 3]);
        t.push_level(AttrId(0));
        t.add_child(
            NodeId::ROOT,
            CategoryLabel::range(AttrId(1), NumericRange::closed(0.0, 1.0)),
            &[0],
            1.0,
        );
    }

    #[test]
    fn invariant_checker_catches_violations() {
        let rel = homes();
        let red = hood(&rel, "Redmond");
        // Children that do not cover the root tset.
        let mut t = CategoryTree::new(rel.clone(), vec![0, 1]);
        t.push_level(AttrId(0));
        t.add_child(NodeId::ROOT, red.clone(), &[0], 1.0);
        let err = t.check_invariants().unwrap_err();
        assert!(err.contains("cover"), "{err}");

        // A tuple that violates its label.
        let mut t = CategoryTree::new(rel, vec![0, 1]);
        t.push_level(AttrId(0));
        t.add_child(
            NodeId::ROOT,
            red,
            &[0, 1], // row 1 is Bellevue
            1.0,
        );
        let err = t.check_invariants().unwrap_err();
        assert!(err.contains("violating"), "{err}");

        // Sibling ranges that overlap, or leave a gap in the parent's.
        let mut t = sample_tree();
        let kids = t.node(NodeId::ROOT).children.clone();
        t.raw_node_mut(kids[1]).range.start -= 1;
        let err = t.check_invariants().unwrap_err();
        assert!(err.contains("overlap"), "{err}");
        let mut t = sample_tree();
        t.raw_node_mut(kids[2]).range.end -= 1;
        let err = t.check_invariants().unwrap_err();
        assert!(err.contains("cover"), "{err}");

        // A leaf whose rows left table order.
        let rel = homes();
        let mut t = CategoryTree::new(rel.clone(), vec![0, 1, 3]);
        t.push_level(AttrId(0));
        t.add_child(NodeId::ROOT, hood(&rel, "Redmond"), &[3, 0], 1.0);
        t.add_child(NodeId::ROOT, hood(&rel, "Bellevue"), &[1], 1.0);
        t.set_p_showtuples(NodeId::ROOT, 0.5);
        let err = t.check_invariants().unwrap_err();
        assert!(err.contains("table order"), "{err}");
    }

    #[test]
    fn rows_are_held_once_and_roots_are_table_ordered() {
        // Root → two halves → four quarters over `n` rows: every level
        // lives in the one permutation, so only the rows themselves
        // grow the footprint with `n`.
        let tree = |n: u32| {
            let schema = Schema::new(vec![
                Field::new("a", AttrType::Float),
                Field::new("b", AttrType::Float),
            ])
            .unwrap();
            let mut b = RelationBuilder::new(schema);
            for i in 0..n {
                b.push_row(&[f64::from(i).into(), f64::from(i % 2).into()])
                    .unwrap();
            }
            let rel = b.finish().unwrap();
            // ORDER BY a DESC: the root is put back in table order.
            let mut t = CategoryTree::new(rel, (0..n).rev().collect());
            assert_eq!(t.tuples(NodeId::ROOT), (0..n).collect::<Vec<u32>>());
            t.push_level(AttrId(0));
            let half = n / 2;
            let halves = [(0, half), (half, n)].map(|(lo, hi)| {
                let label = CategoryLabel::range(
                    AttrId(0),
                    NumericRange::half_open(f64::from(lo), f64::from(hi)),
                );
                let rows: Vec<u32> = (lo..hi).collect();
                (t.add_child(NodeId::ROOT, label, &rows, 0.5), lo, hi)
            });
            t.push_level(AttrId(1));
            for (id, lo, hi) in halves {
                for parity in [0, 1] {
                    let label = CategoryLabel::range(
                        AttrId(1),
                        NumericRange::closed(f64::from(parity), f64::from(parity)),
                    );
                    let rows: Vec<u32> = (lo..hi).filter(|r| r % 2 == parity).collect();
                    t.add_child(id, label, &rows, 0.5);
                }
                t.set_p_showtuples(id, 0.5);
            }
            t.set_p_showtuples(NodeId::ROOT, 0.5);
            t.check_invariants().unwrap();
            // Internal nodes are grouped by child.
            let first = halves[0].0;
            assert_eq!(t.tuples(first)[..3], [0, 2, 4]);
            t
        };
        let (small, large) = (tree(40), tree(400));
        assert_eq!(small.node_count(), large.node_count());
        assert_eq!(large.heap_bytes() - small.heap_bytes(), 360 * 4);
    }

    /// Random two-level trees built through the public API always
    /// satisfy the invariants, and dfs() visits every node exactly once
    /// with parents before children.
    #[test]
    fn prop_random_trees_are_valid() {
        prop::check("random_trees_are_valid", 64, 5, |rng, size| {
            let splits = prop::vec(rng, 1, size, |rng| rng.gen_range(1..5usize));
            let probs: Vec<f64> = (0..32).map(|_| rng.gen_range(0.0..1.0)).collect();
            // One numeric attribute per level; rows valued by index.
            let total: usize = splits.iter().sum::<usize>().max(1) * 4;
            let schema = Schema::new(vec![
                Field::new("a", AttrType::Float),
                Field::new("b", AttrType::Float),
            ])
            .unwrap();
            let mut b = RelationBuilder::new(schema);
            for i in 0..total {
                b.push_row(&[(i as f64).into(), ((i % 7) as f64).into()])
                    .unwrap();
            }
            let rel = b.finish().unwrap();
            let mut t = CategoryTree::new(rel, (0..total as u32).collect());
            t.push_level(AttrId(0));
            // Level 1: contiguous index ranges sized 4·splits[k].
            let mut next = 0u32;
            let mut level1 = Vec::new();
            for (k, &s) in splits.iter().enumerate() {
                let size = (4 * s) as u32;
                let lo = next as f64;
                let hi = (next + size) as f64;
                let range = if k + 1 == splits.len() {
                    NumericRange::closed(lo, total as f64)
                } else {
                    NumericRange::half_open(lo, hi)
                };
                let id = t.add_child(
                    NodeId::ROOT,
                    CategoryLabel::range(AttrId(0), range),
                    &(next..next + size).collect::<Vec<u32>>(),
                    probs[k % probs.len()],
                );
                level1.push(id);
                next += size;
            }
            t.set_p_showtuples(NodeId::ROOT, probs[splits.len() % probs.len()]);
            assert!(t.check_invariants().is_ok(), "{:?}", t.check_invariants());
            // dfs is a permutation with parents first.
            let order = t.dfs();
            assert_eq!(order.len(), t.node_count());
            let mut seen = vec![false; t.node_count()];
            for id in &order {
                assert!(!seen[id.index()]);
                seen[id.index()] = true;
                if let Some(p) = t.node(*id).parent {
                    assert!(seen[p.index()], "parent after child");
                }
            }
            // Levels are consistent with level_attr bookkeeping.
            for &id in &level1 {
                assert_eq!(t.node(id).level, 1);
                assert_eq!(t.level_attr(1), Some(AttrId(0)));
                assert!(t.subcategorizing_attr(id).is_none());
            }
            Ok(())
        });
    }

    #[test]
    fn summary_reports_shape() {
        let t = sample_tree();
        let s = t.summary();
        assert_eq!(s.depth, 2);
        assert_eq!(s.node_count, 6);
        assert_eq!(s.leaf_count, 4);
        assert_eq!(s.nodes_per_level, vec![1, 3, 2]);
        // Root fans out to 3; the one non-leaf level-1 node to 2.
        assert!((s.avg_fanout[0] - 3.0).abs() < 1e-12);
        assert!((s.avg_fanout[1] - 2.0).abs() < 1e-12);
        assert_eq!(s.max_leaf_size, 1);
        assert_eq!(s.median_leaf_size, 1);
        // A root-only tree.
        let rel = homes();
        let flat = CategoryTree::new(rel, vec![0, 1]);
        let fs = flat.summary();
        assert_eq!(fs.depth, 0);
        assert_eq!(fs.leaf_count, 1);
        assert_eq!(fs.max_leaf_size, 2);
    }

    #[test]
    fn probabilities_clamped() {
        let rel = homes();
        let red = hood(&rel, "Redmond");
        let mut t = CategoryTree::new(rel, vec![0, 3]);
        t.push_level(AttrId(0));
        let c = t.add_child(NodeId::ROOT, red, &[0, 3], 1.7);
        assert_eq!(t.node(c).p_explore, 1.0);
        t.set_p_showtuples(NodeId::ROOT, -0.5);
        assert_eq!(t.node(NodeId::ROOT).p_showtuples, 0.0);
    }
}
