//! Workload-based tuple ranking — the paper's *complementary*
//! technique ("categorization and ranking present two complementary
//! techniques to manage information overload", Section 1; ranked
//! retrieval in relational databases is the cited CIDR'03 line of
//! work).
//!
//! Within a leaf category the paper presents tuples unordered; this
//! module scores each tuple by how strongly the workload demanded its
//! attribute values:
//!
//! ```text
//! score(t) = Σ_attr weight(attr) · demand(attr, t.attr)
//! ```
//!
//! where `weight(attr) = NAttr(attr)/N` (how often the attribute
//! matters at all) and `demand` is the fraction of attribute-queries
//! matching the tuple's value — `occ(v)/NAttr` for categorical values,
//! `NOverlap([v,v])/NAttr` for numeric ones. Tuples whose values were
//! asked for most often rank first, reducing the expected scan length
//! to the first relevant tuple (a data-driven `frac(C)`).

use crate::tree::{CategoryTree, NodeId};
use qcat_data::{AttrType, Relation};
use qcat_sql::NumericRange;
use qcat_workload::WorkloadStatistics;

/// Ranks tuples by aggregate workload demand for their values.
#[derive(Debug, Clone, Copy)]
pub struct WorkloadRanker<'a> {
    stats: &'a WorkloadStatistics,
}

impl<'a> WorkloadRanker<'a> {
    /// Create a ranker over preprocessed statistics.
    pub fn new(stats: &'a WorkloadStatistics) -> Self {
        WorkloadRanker { stats }
    }

    /// The demand score of one tuple (higher = hotter).
    pub fn score(&self, relation: &Relation, row: u32) -> f64 {
        let n = self.stats.n_queries();
        if n == 0 {
            return 0.0;
        }
        let mut total = 0.0;
        for attr in relation.schema().attr_ids() {
            let n_attr = self.stats.n_attr(attr);
            if n_attr == 0 {
                continue;
            }
            let weight = n_attr as f64 / n as f64;
            // A type-confused column or out-of-range row contributes
            // zero demand rather than panicking mid-ranking.
            let demand = match relation.schema().type_of(attr) {
                AttrType::Categorical => {
                    let column = relation.column(attr);
                    column
                        .dictionary()
                        .zip(column.code_at(row as usize))
                        .map_or(0.0, |(dict, code)| {
                            self.stats.occ(attr, dict.value_unchecked(code)) as f64 / n_attr as f64
                        })
                }
                AttrType::Int | AttrType::Float => {
                    match relation.column(attr).numeric_at(row as usize) {
                        Some(v) => {
                            self.stats.n_overlap_range(attr, &NumericRange::closed(v, v)) as f64
                                / n_attr as f64
                        }
                        None => 0.0,
                    }
                }
            };
            total += weight * demand;
        }
        total
    }

    /// Rank `rows` by descending score (stable: ties keep table
    /// order), returning a new ordering.
    pub fn rank(&self, relation: &Relation, rows: &[u32]) -> Vec<u32> {
        let mut scored: Vec<(f64, u32)> =
            rows.iter().map(|&r| (self.score(relation, r), r)).collect();
        scored.sort_by(|a, b| b.0.total_cmp(&a.0).then(a.1.cmp(&b.1)));
        scored.into_iter().map(|(_, r)| r).collect()
    }

    /// Rank the tuples of one category in place-independent form: the
    /// node's tuples reordered hot-first. Combine with
    /// [`crate::render_tree`]-style UIs to present leaves ranked.
    pub fn rank_category(&self, tree: &CategoryTree, node: NodeId) -> Vec<u32> {
        self.rank(tree.relation(), tree.tuples(node))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qcat_data::{AttrId, Field, RelationBuilder, Schema};
    use qcat_workload::{PreprocessConfig, WorkloadLog};

    fn setup() -> (Relation, WorkloadStatistics) {
        let schema = Schema::new(vec![
            Field::new("neighborhood", AttrType::Categorical),
            Field::new("price", AttrType::Float),
        ])
        .unwrap();
        let mut b = RelationBuilder::new(schema.clone());
        for (hood, price) in [
            ("Hot", 100_000.0),  // hot hood, hot price
            ("Hot", 900_000.0),  // hot hood, cold price
            ("Cold", 100_000.0), // cold hood, hot price
            ("Cold", 900_000.0), // cold everything
        ] {
            b.push_row(&[hood.into(), price.into()]).unwrap();
        }
        let rel = b.finish().unwrap();
        let mut w = Vec::new();
        for _ in 0..30 {
            w.push("SELECT * FROM t WHERE neighborhood IN ('Hot')".to_string());
        }
        for _ in 0..20 {
            w.push("SELECT * FROM t WHERE price BETWEEN 90000 AND 120000".to_string());
        }
        w.push("SELECT * FROM t WHERE neighborhood IN ('Cold')".to_string());
        let log = WorkloadLog::parse(w.iter().map(String::as_str), &schema, None);
        let cfg = PreprocessConfig::new().with_interval(AttrId(1), 10_000.0);
        (rel.clone(), WorkloadStatistics::build(&log, &schema, &cfg))
    }

    #[test]
    fn hot_values_rank_first() {
        let (rel, stats) = setup();
        let ranker = WorkloadRanker::new(&stats);
        let order = ranker.rank(&rel, &[0, 1, 2, 3]);
        // Row 0 (hot hood + hot price) must rank first; row 3 (cold
        // everything) last.
        assert_eq!(order[0], 0);
        assert_eq!(order[3], 3);
        // Scores are monotone along the ordering.
        let scores: Vec<f64> = order.iter().map(|&r| ranker.score(&rel, r)).collect();
        assert!(scores.windows(2).all(|w| w[0] >= w[1]), "{scores:?}");
    }

    #[test]
    fn scores_reflect_both_attributes() {
        let (rel, stats) = setup();
        let ranker = WorkloadRanker::new(&stats);
        let s_hot_hot = ranker.score(&rel, 0);
        let s_hot_cold = ranker.score(&rel, 1);
        let s_cold_hot = ranker.score(&rel, 2);
        assert!(s_hot_hot > s_hot_cold);
        assert!(s_hot_hot > s_cold_hot);
        // Hood dominates (30 of 51 queries) over price (20 of 51).
        assert!(s_hot_cold > s_cold_hot);
    }

    #[test]
    fn ties_preserve_table_order() {
        let (rel, stats) = setup();
        let ranker = WorkloadRanker::new(&stats);
        // Two identical rows tie; the earlier row id comes first.
        let order = ranker.rank(&rel, &[3, 1]);
        let s1 = ranker.score(&rel, 1);
        let s3 = ranker.score(&rel, 3);
        if (s1 - s3).abs() < 1e-12 {
            assert_eq!(order, vec![1, 3]);
        } else {
            assert_eq!(order[0], if s1 > s3 { 1 } else { 3 });
        }
    }

    #[test]
    fn empty_workload_scores_zero() {
        let (rel, _) = setup();
        let schema = rel.schema().clone();
        let log = WorkloadLog::parse([], &schema, None);
        let stats = WorkloadStatistics::build(&log, &schema, &PreprocessConfig::new());
        let ranker = WorkloadRanker::new(&stats);
        assert_eq!(ranker.score(&rel, 0), 0.0);
        assert_eq!(ranker.rank(&rel, &[2, 0, 1]), vec![0, 1, 2]);
    }

    #[test]
    fn rank_category_reorders_a_leaf() {
        let (rel, stats) = setup();
        let tree = crate::CategoryTree::new(rel.clone(), vec![0, 1, 2, 3]);
        let ranker = WorkloadRanker::new(&stats);
        let ranked = ranker.rank_category(&tree, tree.root());
        assert_eq!(ranked[0], 0);
        assert_eq!(ranked.len(), 4);
    }
}
