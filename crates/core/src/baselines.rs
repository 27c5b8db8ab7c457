//! The comparison techniques of Section 6.1.
//!
//! - **No cost**: the same level-by-level loop as Figure 6, but the
//!   categorizing attribute is taken arbitrarily (without replacement)
//!   from a predefined set; categorical partitionings are single-value
//!   categories in arbitrary (dictionary) order; numeric partitionings
//!   are equi-width buckets of width 5× the separation interval, with
//!   empty buckets removed.
//! - **Attr-cost**: picks the *attribute* with minimum cost per level,
//!   but only among the partitionings the No-cost technique considers
//!   — isolating the value of cost-based attribute selection from
//!   cost-based partitioning.
//!
//! Both attach the same workload-estimated probabilities to nodes, so
//! estimated costs of baseline trees are comparable to cost-based
//! trees.

use crate::config::CategorizeConfig;
use crate::cost::one_level_cost_all;
use crate::label::CategoricalCol;
use crate::partition::categorical::{CategoricalPlan, ValueOrder};
use crate::partition::equiwidth::equiwidth_split;
use crate::partition::numeric::single_bucket;
use crate::partition::Partitioning;
use crate::probability::ProbCache;
use crate::tree::{CategoryTree, NodeId};
use qcat_data::{AttrId, AttrType, Relation};
use qcat_exec::ResultSet;
use qcat_workload::WorkloadStatistics;

/// Configuration shared by the two baselines.
#[derive(Debug, Clone)]
pub struct BaselineConfig {
    /// The predefined candidate attribute set (the paper uses
    /// neighborhood, property-type, bedroomcount, price, year-built,
    /// square-footage).
    pub attrs: Vec<AttrId>,
    /// `M` — same role as in the cost-based configuration.
    pub max_leaf_tuples: usize,
    /// Equi-width bucket width per numeric attribute is 5× this
    /// multiple of the attribute's separation interval.
    pub width_multiple: f64,
    /// The paper's No-cost technique picks attributes *arbitrarily*
    /// from the predefined set. `Some(seed)` makes "arbitrary" a
    /// deterministic pseudo-random order that varies per result set;
    /// `None` consumes `attrs` front to back.
    pub shuffle_seed: Option<u64>,
}

impl BaselineConfig {
    /// Baseline config with the paper's defaults (`M` from `config`,
    /// width 5× the interval, seeded arbitrary order).
    pub fn new(attrs: Vec<AttrId>, config: &CategorizeConfig) -> Self {
        BaselineConfig {
            attrs,
            max_leaf_tuples: config.max_leaf_tuples,
            width_multiple: 5.0,
            shuffle_seed: Some(0xA5A5_5A5A),
        }
    }

    /// Use the `attrs` order verbatim instead of shuffling.
    pub fn without_shuffle(mut self) -> Self {
        self.shuffle_seed = None;
        self
    }
}

/// Deterministic Fisher–Yates driven by an LCG — enough randomness for
/// an "arbitrary" ordering without pulling in an RNG dependency.
fn arbitrary_order(attrs: &mut [AttrId], seed: u64) {
    let mut state = seed | 1;
    let mut next = || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (state >> 33) as usize
    };
    for i in (1..attrs.len()).rev() {
        let j = next() % (i + 1);
        attrs.swap(i, j);
    }
}

/// One node's materialized partitioning: the parts plus the node's
/// rows scattered part by part.
type NodeSplit = (NodeId, Partitioning, Vec<u32>);

/// The winning candidate of one level under the MinCost policy.
type LevelChoice = (f64, AttrId, Vec<NodeSplit>);

/// Attribute-selection policy distinguishing the two baselines.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum AttrPolicy {
    /// Take candidates in the predefined order.
    Arbitrary,
    /// Take the candidate with minimum estimated one-level cost.
    MinCost,
}

/// Build a `No cost` tree.
pub fn no_cost_categorize(
    stats: &WorkloadStatistics,
    baseline: &BaselineConfig,
    result: &ResultSet,
) -> CategoryTree {
    build(stats, baseline, result, AttrPolicy::Arbitrary)
}

/// Build an `Attr-cost` tree.
pub fn attr_cost_categorize(
    stats: &WorkloadStatistics,
    baseline: &BaselineConfig,
    result: &ResultSet,
) -> CategoryTree {
    build(stats, baseline, result, AttrPolicy::MinCost)
}

fn build(
    stats: &WorkloadStatistics,
    baseline: &BaselineConfig,
    result: &ResultSet,
    policy: AttrPolicy,
) -> CategoryTree {
    let relation = result.relation().clone();
    let probs = ProbCache::new(stats);
    let mut tree = CategoryTree::new(relation.clone(), result.rows().to_vec());
    let mut candidates = baseline.attrs.clone();
    if policy == AttrPolicy::Arbitrary {
        if let Some(seed) = baseline.shuffle_seed {
            // "Arbitrary" selection: a per-result pseudo-random order.
            arbitrary_order(&mut candidates, seed ^ result.len() as u64);
        }
    }

    loop {
        let current_level = tree.level_attrs().len();
        let s: Vec<NodeId> = tree
            .nodes_at_level(current_level)
            .into_iter()
            .filter(|&id| tree.node(id).tuple_count() > baseline.max_leaf_tuples)
            .collect();
        if s.is_empty() || candidates.is_empty() {
            break;
        }
        let pick = match policy {
            AttrPolicy::Arbitrary => {
                let attr = candidates[0];
                partition_level(stats, baseline, &tree, &relation, &s, attr, &probs)
                    .map(|parts| (attr, parts))
            }
            AttrPolicy::MinCost => {
                let mut best: Option<LevelChoice> = None;
                for &attr in &candidates {
                    let Some(parts) =
                        partition_level(stats, baseline, &tree, &relation, &s, attr, &probs)
                    else {
                        continue;
                    };
                    let cost = level_cost(&tree, &parts, attr, &probs);
                    if best.as_ref().is_none_or(|(c, _, _)| cost < *c) {
                        best = Some((cost, attr, parts));
                    }
                }
                best.map(|(_, attr, parts)| (attr, parts))
            }
        };
        let Some((attr, parts)) = pick else {
            // No candidate could partition anything; pop the head
            // candidate in arbitrary mode to make progress, otherwise
            // stop.
            if policy == AttrPolicy::Arbitrary && !candidates.is_empty() {
                candidates.remove(0);
                continue;
            }
            break;
        };
        tree.push_level(attr);
        let pw = probs.p_showtuples(attr);
        for (node, partitioning, rows) in parts {
            tree.attach(node, partitioning, &rows);
            tree.set_p_showtuples(node, pw);
        }
        candidates.retain(|&a| a != attr);
    }
    tree
}

/// Partition every node of `s` the No-cost way; `None` when the
/// attribute cannot split any node into ≥ 2 categories.
fn partition_level(
    stats: &WorkloadStatistics,
    baseline: &BaselineConfig,
    tree: &CategoryTree,
    relation: &Relation,
    s: &[NodeId],
    attr: AttrId,
    probs: &ProbCache<'_>,
) -> Option<Vec<NodeSplit>> {
    let mut out = Vec::with_capacity(s.len());
    let mut any_real_split = false;
    match relation.schema().type_of(attr) {
        AttrType::Categorical => {
            let col = CategoricalCol::of(relation, attr)?;
            let plan = CategoricalPlan::build(&col, stats, ValueOrder::Arbitrary);
            for &id in s {
                let rows = tree.tuples(id);
                let (p, rows) = plan.split(&col, rows, None, 0).materialize(&col, rows)?;
                any_real_split |= p.len() >= 2;
                out.push((id, p, rows));
            }
        }
        AttrType::Int | AttrType::Float => {
            let width = baseline.width_multiple
                * stats
                    .splitpoint_table(attr)
                    .map(|t| t.interval())
                    .unwrap_or_else(|| default_interval(relation, attr));
            for &id in s {
                let rows = tree.tuples(id);
                let (p, rows) = equiwidth_split(relation, attr, rows, width, probs)
                    .unwrap_or_else(|| single_bucket(relation, attr, rows, probs));
                any_real_split |= p.len() >= 2;
                out.push((id, p, rows));
            }
        }
    }
    any_real_split.then_some(out)
}

/// Fallback width when no splitpoint table exists: a tenth of the full
/// column spread.
fn default_interval(relation: &Relation, attr: AttrId) -> f64 {
    let rows = relation.all_row_ids();
    match relation.column(attr).numeric_min_max(&rows) {
        Some((lo, hi)) if hi > lo => (hi - lo) / 50.0,
        _ => 1.0,
    }
}

/// `Σ_C P(C)·CostAll(Tree(C, A))` over a level's partitionings.
fn level_cost(
    tree: &CategoryTree,
    parts: &[NodeSplit],
    attr: AttrId,
    probs: &ProbCache<'_>,
) -> f64 {
    let pw = probs.p_showtuples(attr);
    parts
        .iter()
        .map(|(id, partitioning, _)| {
            let node = tree.node(*id);
            let cost = if partitioning.len() < 2 {
                node.tuple_count() as f64
            } else {
                one_level_cost_all(
                    node.tuple_count(),
                    pw,
                    1.0,
                    &partitioning.children_for_pricing(),
                )
            };
            node.p_explore * cost
        })
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use qcat_data::{Field, RelationBuilder, Schema};
    use qcat_workload::{PreprocessConfig, WorkloadLog};

    fn homes(n: usize) -> Relation {
        let schema = Schema::new(vec![
            Field::new("neighborhood", AttrType::Categorical),
            Field::new("price", AttrType::Float),
            Field::new("bedroomcount", AttrType::Int),
        ])
        .unwrap();
        let mut b = RelationBuilder::with_capacity(schema, n);
        let hoods = ["Redmond", "Bellevue", "Seattle"];
        for i in 0..n {
            b.push_row(&[
                hoods[i % 3].into(),
                (200_000.0 + (i as f64 * 997.0) % 90_000.0).into(),
                ((i % 4 + 1) as i64).into(),
            ])
            .unwrap();
        }
        b.finish().unwrap()
    }

    fn stats(rel: &Relation) -> WorkloadStatistics {
        let schema = rel.schema().clone();
        let mut w = Vec::new();
        w.extend(std::iter::repeat_n(
            "SELECT * FROM homes WHERE price BETWEEN 200000 AND 250000",
            50,
        ));
        w.extend(std::iter::repeat_n(
            "SELECT * FROM homes WHERE neighborhood IN ('Redmond')",
            30,
        ));
        let log = WorkloadLog::parse(w.iter().copied(), &schema, None);
        let cfg = PreprocessConfig::new()
            .with_interval(AttrId(1), 5_000.0)
            .with_interval(AttrId(2), 1.0);
        WorkloadStatistics::build(&log, &schema, &cfg)
    }

    fn baseline(rel: &Relation) -> BaselineConfig {
        let cfg = CategorizeConfig::default();
        BaselineConfig::new(rel.schema().attr_ids().collect(), &cfg).without_shuffle()
    }

    #[test]
    fn no_cost_uses_predefined_order() {
        let rel = homes(200);
        let st = stats(&rel);
        let tree = no_cost_categorize(&st, &baseline(&rel), &ResultSet::whole(rel.clone()));
        tree.check_invariants().unwrap();
        // First attribute in the predefined set is neighborhood.
        assert_eq!(tree.level_attr(1), Some(AttrId(0)));
        assert!(tree.depth() >= 1);
    }

    #[test]
    fn no_cost_categorical_order_is_dictionary_order() {
        let rel = homes(200);
        let st = stats(&rel);
        let tree = no_cost_categorize(&st, &baseline(&rel), &ResultSet::whole(rel.clone()));
        let kids = &tree.node(NodeId::ROOT).children;
        let labels: Vec<String> = kids
            .iter()
            .map(|&c| tree.node(c).label.as_ref().unwrap().render(&rel))
            .collect();
        // Dictionary order: Redmond (first row), Bellevue, Seattle.
        assert_eq!(labels[0], "neighborhood: Redmond");
        assert_eq!(labels[1], "neighborhood: Bellevue");
        assert_eq!(labels[2], "neighborhood: Seattle");
    }

    #[test]
    fn attr_cost_picks_cheapest_attribute() {
        let rel = homes(200);
        let st = stats(&rel);
        let tree = attr_cost_categorize(&st, &baseline(&rel), &ResultSet::whole(rel.clone()));
        tree.check_invariants().unwrap();
        // The chosen level-1 attribute should be a candidate and the
        // tree valid; cheapest is workload-dependent, so just check
        // the policy differs from the arbitrary order when costs do.
        assert!(tree.level_attr(1).is_some());
    }

    #[test]
    fn equiwidth_buckets_are_multiples_of_width() {
        let rel = homes(200);
        let st = stats(&rel);
        // Force price first by restricting the candidate set.
        let cfg = CategorizeConfig::default();
        let b = BaselineConfig::new(vec![AttrId(1)], &cfg);
        let tree = no_cost_categorize(&st, &b, &ResultSet::whole(rel.clone()));
        tree.check_invariants().unwrap();
        let kids = &tree.node(NodeId::ROOT).children;
        assert!(kids.len() >= 2);
        for &c in kids.iter().take(kids.len() - 1) {
            let label = tree.node(c).label.as_ref().unwrap();
            if let crate::label::LabelKind::Range(r) = &label.kind {
                // Width = 5 × 5000 = 25000; boundaries are multiples.
                assert_eq!(r.lo.rem_euclid(25_000.0), 0.0, "lo {}", r.lo);
            } else {
                panic!("expected range label");
            }
        }
    }

    #[test]
    fn baselines_terminate_when_attrs_exhausted() {
        let rel = homes(500);
        let st = stats(&rel);
        let cfg = CategorizeConfig::default().with_max_leaf_tuples(1);
        let b = BaselineConfig::new(rel.schema().attr_ids().collect(), &cfg);
        // M=1 is unreachable; the build must still terminate.
        let tree = no_cost_categorize(&st, &b, &ResultSet::whole(rel.clone()));
        tree.check_invariants().unwrap();
        assert!(tree.depth() <= 3);
        let tree = attr_cost_categorize(&st, &b, &ResultSet::whole(rel.clone()));
        tree.check_invariants().unwrap();
    }

    #[test]
    fn arbitrary_order_is_seeded_and_result_dependent() {
        let rel = homes(200);
        let st = stats(&rel);
        let cfg = CategorizeConfig::default();
        let b = BaselineConfig::new(rel.schema().attr_ids().collect(), &cfg);
        assert!(b.shuffle_seed.is_some());
        let t1 = no_cost_categorize(&st, &b, &ResultSet::whole(rel.clone()));
        let t2 = no_cost_categorize(&st, &b, &ResultSet::whole(rel.clone()));
        // Same result set → same arbitrary order.
        assert_eq!(t1.level_attrs(), t2.level_attrs());
        // A different result size usually draws a different order; at
        // minimum the build stays valid.
        let partial = ResultSet::new(rel.clone(), (0..150).collect(), None);
        let t3 = no_cost_categorize(&st, &b, &partial);
        t3.check_invariants().unwrap();
    }

    #[test]
    fn small_result_stays_flat() {
        let rel = homes(10);
        let st = stats(&rel);
        let tree = no_cost_categorize(&st, &baseline(&rel), &ResultSet::whole(rel.clone()));
        assert_eq!(tree.node_count(), 1);
    }
}
