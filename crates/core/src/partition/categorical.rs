//! Single-value categorical partitioning (paper Section 5.1.2).
//!
//! The cost-based partitioner produces one category per attribute
//! value — single-value categories keep labels simple — and presents
//! them in decreasing order of the workload occurrence count `occ(v)`,
//! the paper's heuristic approximation of the optimal
//! `1/P(Cᵢ) + CostOne(Cᵢ)` ordering (Appendix A). The `No cost`
//! baseline instead presents values in arbitrary (dictionary) order.
//!
//! The plan is built from a [`CategoricalCol`] proof — the one place
//! where "is this column categorical?" is decided — and carries, per
//! dictionary code, the interned value, its occurrence count, and the
//! derived `P(C)`; splitting and pricing read those tables instead of
//! consulting the dictionary or the workload again.

use crate::label::{CategoricalCol, CategoryLabel};
use crate::partition::{Part, Partitioning};
use qcat_data::AttrId;
use qcat_workload::WorkloadStatistics;
use std::sync::Arc;

/// Presentation order for single-value categories.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ValueOrder {
    /// Decreasing `occ(v)`, ties broken by dictionary code — the
    /// cost-based order.
    ByOccurrence,
    /// Dictionary-code order — the baseline's "arbitrary" order,
    /// deterministic for reproducibility.
    Arbitrary,
}

/// A plan for one categorical attribute: the sorted single-value
/// category list (the algorithm's `SCL`) plus code-indexed value,
/// occurrence, and probability tables. The occ-sorted order does not
/// depend on the level, so one plan serves a whole categorization
/// (see the per-categorize plan cache in `algorithm.rs`).
#[derive(Debug, Clone)]
pub struct CategoricalPlan {
    attr: AttrId,
    /// Dictionary codes in presentation order.
    order: Vec<u32>,
    /// Interned value per code (code-indexed).
    values: Vec<Arc<str>>,
    /// `occ(v)` per code (code-indexed).
    occ: Vec<usize>,
    /// `NAttr` for the attribute (the `P(C)` denominator).
    n_attr: usize,
}

impl CategoricalPlan {
    /// Build the plan for the proven categorical column `cat`.
    pub fn build(cat: &CategoricalCol<'_>, stats: &WorkloadStatistics, order: ValueOrder) -> Self {
        let attr = cat.attr();
        let dict = cat.dict();
        let occ = stats.occ_by_code(attr, |v| dict.lookup(v), dict.len());
        let mut codes: Vec<u32> = (0..dict.len() as u32).collect();
        if order == ValueOrder::ByOccurrence {
            codes.sort_by(|&a, &b| occ[b as usize].cmp(&occ[a as usize]).then(a.cmp(&b)));
        }
        CategoricalPlan {
            attr,
            order: codes,
            values: dict.values().to_vec(),
            occ,
            n_attr: stats.n_attr(attr),
        }
    }

    /// The attribute being partitioned.
    pub fn attr(&self) -> AttrId {
        self.attr
    }

    /// The presentation order of codes.
    pub fn code_order(&self) -> &[u32] {
        &self.order
    }

    /// `P(C)` for the single-value category of `code` — identical to
    /// what the estimator returns for that label.
    pub fn p_explore_code(&self, code: u32) -> f64 {
        self.p_of_occ(self.occ[code as usize])
    }

    fn p_of_occ(&self, occ_sum: usize) -> f64 {
        if self.n_attr == 0 {
            return 0.0;
        }
        (occ_sum as f64 / self.n_attr as f64).clamp(0.0, 1.0)
    }

    /// Partition one node's tuple-set: one single-value category per
    /// code present in `tset`, in plan order; empty categories are
    /// dropped (Figure 6: "each non-empty cat C' ∈ SCL").
    pub fn split(&self, cat: &CategoricalCol<'_>, tset: &[u32]) -> Partitioning {
        self.split_grouped(cat, tset, None, 0)
    }

    /// Like [`CategoricalPlan::split`], but with optional tail
    /// grouping: when the node would get more than `threshold`
    /// categories, keep the first `top_k` (hottest, in plan order) as
    /// single-value categories and pool the remainder into one
    /// multi-value `A ∈ B` category presented last.
    ///
    /// This extends the paper, whose partitioner is single-value only;
    /// the tail label stays "solely and unambiguously" descriptive
    /// (Section 3.1 allows `A ∈ B` labels), it just lists more values.
    pub fn split_grouped(
        &self,
        cat: &CategoricalCol<'_>,
        tset: &[u32],
        threshold: Option<usize>,
        top_k: usize,
    ) -> Partitioning {
        // Bucket rows by code, preserving table order within buckets.
        // A budget trip abandons the pass: the truncated partitioning
        // can never be attached (see `GasPacer`).
        let mut pacer = super::GasPacer::new();
        let mut buckets: Vec<Vec<u32>> = vec![Vec::new(); self.values.len()];
        'runs: for (codes, start, run) in cat.code_runs(tset) {
            for &row in run {
                if !pacer.checkpoint() {
                    break 'runs;
                }
                buckets[codes[(row - start) as usize] as usize].push(row);
            }
        }
        let counts: Vec<usize> = buckets.iter().map(Vec::len).collect();
        let (singles, tail) = self.layout(&counts, threshold, top_k);
        let mut parts: Vec<Part> = singles
            .iter()
            .map(|&code| Part {
                label: CategoryLabel::single_value(
                    self.attr,
                    code,
                    self.values[code as usize].clone(),
                ),
                tset: std::mem::take(&mut buckets[code as usize]),
                p_explore: self.p_explore_code(code),
            })
            .collect();
        if !tail.is_empty() {
            let mut rows: Vec<u32> = tail
                .iter()
                .flat_map(|&code| std::mem::take(&mut buckets[code as usize]))
                .collect();
            rows.sort_unstable(); // restore table order across pooled values
            parts.push(Part {
                label: CategoryLabel::value_set(
                    self.attr,
                    tail.iter()
                        .map(|&c| (c, self.values[c as usize].clone())),
                ),
                tset: rows,
                p_explore: self.p_of_occ(tail.iter().map(|&c| self.occ[c as usize]).sum()),
            });
        }
        Partitioning {
            attr: self.attr,
            parts,
        }
    }

    /// Price the split without materializing it: `(p_explore, size)`
    /// per would-be part, in the same order [`split_grouped`] would
    /// produce them, from one counting pass over `tset`. This is what
    /// the Figure-6 loop uses for every candidate; only the winning
    /// attribute's partitionings are ever materialized.
    ///
    /// [`split_grouped`]: CategoricalPlan::split_grouped
    pub fn priced_split(
        &self,
        cat: &CategoricalCol<'_>,
        tset: &[u32],
        threshold: Option<usize>,
        top_k: usize,
    ) -> Vec<(f64, usize)> {
        // As in `split_grouped`, a budget trip abandons the counting
        // pass; the mispriced result dies with the discarded level.
        let mut pacer = super::GasPacer::new();
        let mut counts = vec![0usize; self.values.len()];
        'runs: for (codes, start, run) in cat.code_runs(tset) {
            for &row in run {
                if !pacer.checkpoint() {
                    break 'runs;
                }
                counts[codes[(row - start) as usize] as usize] += 1;
            }
        }
        let (singles, tail) = self.layout(&counts, threshold, top_k);
        let mut children: Vec<(f64, usize)> = singles
            .iter()
            .map(|&code| (self.p_explore_code(code), counts[code as usize]))
            .collect();
        if !tail.is_empty() {
            children.push((
                self.p_of_occ(tail.iter().map(|&c| self.occ[c as usize]).sum()),
                tail.iter().map(|&c| counts[c as usize]).sum(),
            ));
        }
        children
    }

    /// Shared layout decision for splitting and pricing: which codes
    /// become single-value categories and which pool into the tail,
    /// given per-code tuple counts. Returns `(singles, tail)` in plan
    /// order; `tail` is empty when grouping is off or not triggered.
    fn layout(
        &self,
        counts: &[usize],
        threshold: Option<usize>,
        top_k: usize,
    ) -> (Vec<u32>, Vec<u32>) {
        let non_empty: Vec<u32> = self
            .order
            .iter()
            .copied()
            .filter(|&code| counts[code as usize] > 0)
            .collect();
        let group_tail = matches!(threshold, Some(t) if non_empty.len() > t) && top_k >= 1;
        let singles = if group_tail {
            top_k.min(non_empty.len())
        } else {
            non_empty.len()
        };
        let tail = non_empty[singles..].to_vec();
        let mut head = non_empty;
        head.truncate(singles);
        (head, tail)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qcat_data::{AttrType, Field, Relation, RelationBuilder, Schema};
    use qcat_workload::{PreprocessConfig, WorkloadLog};

    fn setup() -> (Relation, WorkloadStatistics) {
        let schema = Schema::new(vec![Field::new("neighborhood", AttrType::Categorical)]).unwrap();
        let mut b = RelationBuilder::new(schema.clone());
        for n in [
            "Seattle", "Redmond", "Bellevue", "Redmond", "Seattle", "Seattle",
        ] {
            b.push_row(&[n.into()]).unwrap();
        }
        let rel = b.finish().unwrap();
        // Workload: Bellevue hottest, then Redmond, Seattle cold.
        let log = WorkloadLog::parse(
            [
                "SELECT * FROM t WHERE neighborhood IN ('Bellevue')",
                "SELECT * FROM t WHERE neighborhood IN ('Bellevue','Redmond')",
                "SELECT * FROM t WHERE neighborhood IN ('Bellevue')",
            ],
            &schema,
            None,
        );
        let stats = WorkloadStatistics::build(&log, &schema, &PreprocessConfig::new());
        (rel, stats)
    }

    fn col(rel: &Relation) -> CategoricalCol<'_> {
        CategoricalCol::of(rel, AttrId(0)).unwrap()
    }

    #[test]
    fn occurrence_order_puts_hot_values_first() {
        let (rel, stats) = setup();
        let cat = col(&rel);
        let plan = CategoricalPlan::build(&cat, &stats, ValueOrder::ByOccurrence);
        let p = plan.split(&cat, &[0, 1, 2, 3, 4, 5]);
        let labels: Vec<String> = p.parts.iter().map(|p| p.label.render(&rel)).collect();
        assert_eq!(
            labels,
            vec![
                "neighborhood: Bellevue",
                "neighborhood: Redmond",
                "neighborhood: Seattle"
            ]
        );
        // Tuple-sets keep table order.
        assert_eq!(p.parts[0].tset, vec![2]);
        assert_eq!(p.parts[1].tset, vec![1, 3]);
        assert_eq!(p.parts[2].tset, vec![0, 4, 5]);
        assert_eq!(p.total_tuples(), 6);
        // Carried probabilities: occ Bellevue 3 / NAttr 3 = 1,
        // Redmond 1/3, Seattle 0.
        assert_eq!(p.parts[0].p_explore, 1.0);
        assert_eq!(p.parts[1].p_explore, 1.0 / 3.0);
        assert_eq!(p.parts[2].p_explore, 0.0);
    }

    #[test]
    fn arbitrary_order_is_dictionary_order() {
        let (rel, stats) = setup();
        let cat = col(&rel);
        let plan = CategoricalPlan::build(&cat, &stats, ValueOrder::Arbitrary);
        // Dictionary order = first-seen: Seattle, Redmond, Bellevue.
        let p = plan.split(&cat, &[0, 1, 2, 3, 4, 5]);
        let labels: Vec<String> = p.parts.iter().map(|p| p.label.render(&rel)).collect();
        assert_eq!(
            labels,
            vec![
                "neighborhood: Seattle",
                "neighborhood: Redmond",
                "neighborhood: Bellevue"
            ]
        );
    }

    #[test]
    fn empty_categories_dropped_per_node() {
        let (rel, stats) = setup();
        let cat = col(&rel);
        let plan = CategoricalPlan::build(&cat, &stats, ValueOrder::ByOccurrence);
        // Node containing only Seattle rows.
        let p = plan.split(&cat, &[0, 4]);
        assert_eq!(p.len(), 1);
        assert_eq!(p.parts[0].tset, vec![0, 4]);
    }

    #[test]
    fn empty_tset_gives_empty_partitioning() {
        let (rel, stats) = setup();
        let cat = col(&rel);
        let plan = CategoricalPlan::build(&cat, &stats, ValueOrder::ByOccurrence);
        let p = plan.split(&cat, &[]);
        assert!(p.is_empty());
        assert_eq!(p.len(), 0);
    }

    #[test]
    fn grouping_pools_rare_values_into_a_tail() {
        let (rel, stats) = setup();
        let cat = col(&rel);
        let plan = CategoricalPlan::build(&cat, &stats, ValueOrder::ByOccurrence);
        // 3 distinct values; threshold 2 with top_k 1 → Bellevue stays
        // single, Redmond+Seattle pool.
        let p = plan.split_grouped(&cat, &[0, 1, 2, 3, 4, 5], Some(2), 1);
        assert_eq!(p.len(), 2);
        assert_eq!(p.parts[0].label.render(&rel), "neighborhood: Bellevue");
        let tail = &p.parts[1];
        assert_eq!(tail.label.render(&rel), "neighborhood: Seattle, Redmond");
        // Pooled rows are back in table order.
        assert_eq!(tail.tset, vec![0, 1, 3, 4, 5]);
        assert_eq!(p.total_tuples(), 6);
        // Tail probability is the occ-sum estimate: (1 + 0) / 3.
        assert_eq!(tail.p_explore, 1.0 / 3.0);
    }

    #[test]
    fn grouping_inactive_below_threshold() {
        let (rel, stats) = setup();
        let cat = col(&rel);
        let plan = CategoricalPlan::build(&cat, &stats, ValueOrder::ByOccurrence);
        // 3 distinct values ≤ threshold 3 → plain single-value split.
        let p = plan.split_grouped(&cat, &[0, 1, 2, 3, 4, 5], Some(3), 1);
        assert_eq!(p.len(), 3);
        assert!(p.parts.iter().all(|p| matches!(
            &p.label.kind,
            crate::label::LabelKind::In(codes) if codes.len() == 1
        )));
    }

    #[test]
    fn grouped_rows_satisfy_their_labels() {
        let (rel, stats) = setup();
        let cat = col(&rel);
        let plan = CategoricalPlan::build(&cat, &stats, ValueOrder::ByOccurrence);
        let p = plan.split_grouped(&cat, &[0, 1, 2, 3, 4, 5], Some(1), 1);
        for part in &p.parts {
            for &r in &part.tset {
                assert!(part.label.matches_row(&rel, r), "{}", part.label.render(&rel));
            }
        }
    }

    #[test]
    fn priced_split_matches_materialized_split() {
        let (rel, stats) = setup();
        let cat = col(&rel);
        let plan = CategoricalPlan::build(&cat, &stats, ValueOrder::ByOccurrence);
        for (threshold, top_k) in [(None, 0), (Some(2), 1), (Some(1), 1), (Some(3), 1)] {
            let full = plan.split_grouped(&cat, &[0, 1, 2, 3, 4, 5], threshold, top_k);
            let priced = plan.priced_split(&cat, &[0, 1, 2, 3, 4, 5], threshold, top_k);
            assert_eq!(full.children_for_pricing(), priced, "{threshold:?}/{top_k}");
        }
        // Subsets too (empty categories dropped identically).
        let full = plan.split(&cat, &[0, 4]);
        assert_eq!(full.children_for_pricing(), plan.priced_split(&cat, &[0, 4], None, 0));
    }

    #[test]
    fn ties_break_by_code_for_determinism() {
        let (rel, _) = setup();
        let schema = rel.schema().clone();
        // Workload where Redmond and Seattle tie at 1.
        let log = WorkloadLog::parse(
            [
                "SELECT * FROM t WHERE neighborhood IN ('Redmond')",
                "SELECT * FROM t WHERE neighborhood IN ('Seattle')",
            ],
            &schema,
            None,
        );
        let stats = WorkloadStatistics::build(&log, &schema, &PreprocessConfig::new());
        let cat = col(&rel);
        let plan = CategoricalPlan::build(&cat, &stats, ValueOrder::ByOccurrence);
        // Seattle has code 0, Redmond code 1: tie → Seattle first.
        let p = plan.split(&cat, &[0, 1]);
        let labels: Vec<String> = p.parts.iter().map(|p| p.label.render(&rel)).collect();
        assert_eq!(labels[0], "neighborhood: Seattle");
    }
}
