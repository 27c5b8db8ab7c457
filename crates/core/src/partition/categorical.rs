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
//! dictionary code, the interned value, its occurrence count, the
//! derived `P(C)` and its rank in presentation order; splitting and
//! pricing read those tables instead of consulting the dictionary or
//! the workload again. A node's layout is read off the codes it
//! actually touches, ordered by rank, so its cost follows the node's
//! size rather than the dictionary's.

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
    /// Position of each code in `order` (code-indexed).
    rank: Vec<u32>,
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
        let mut rank = vec![0u32; codes.len()];
        for (r, &code) in codes.iter().enumerate() {
            rank[code as usize] = r as u32;
        }
        CategoricalPlan {
            attr,
            order: codes,
            rank,
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
        // Bucket rows by code, preserving tuple-set order within
        // buckets. A budget trip abandons the pass: the truncated
        // partitioning can never be attached (see `GasPacer`).
        let mut pacer = super::GasPacer::new();
        let empty = Partitioning {
            attr: self.attr,
            parts: Vec::new(),
        };
        let Some(CodeCounts {
            counts: mut slot,
            touched,
        }) = self.count_codes(cat, tset, &mut pacer)
        else {
            return empty;
        };
        // One exactly sized bucket per touched code; `slot` now maps a
        // touched code to its bucket.
        let mut buckets: Vec<Vec<u32>> = Vec::with_capacity(touched.len());
        for &code in &touched {
            buckets.push(Vec::with_capacity(slot[code as usize] as usize));
            slot[code as usize] = buckets.len() as u32 - 1;
        }
        let filled = for_each_code(cat, tset, &mut pacer, |row, code| {
            buckets[slot[code as usize] as usize].push(row);
        });
        if filled.is_none() {
            return empty;
        }
        let singles = self.singles(touched.len(), threshold, top_k);
        let mut buckets = buckets.into_iter();
        let mut parts: Vec<Part> = touched[..singles]
            .iter()
            .zip(buckets.by_ref())
            .map(|(&code, rows)| Part {
                label: CategoryLabel::single_value(
                    self.attr,
                    code,
                    self.values[code as usize].clone(),
                ),
                tset: rows,
                p_explore: self.p_explore_code(code),
            })
            .collect();
        let tail = &touched[singles..];
        if !tail.is_empty() {
            let mut rows: Vec<u32> = buckets.flatten().collect();
            rows.sort_unstable(); // restore table order across pooled values
            parts.push(Part {
                label: CategoryLabel::value_set(
                    self.attr,
                    tail.iter().map(|&c| (c, self.values[c as usize].clone())),
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
        let Some(CodeCounts { counts, touched }) =
            self.count_codes(cat, tset, &mut super::GasPacer::new())
        else {
            return Vec::new();
        };
        let count = |code: u32| counts[code as usize] as usize;
        let singles = self.singles(touched.len(), threshold, top_k);
        let mut children: Vec<(f64, usize)> = touched[..singles]
            .iter()
            .map(|&code| (self.p_explore_code(code), count(code)))
            .collect();
        let tail = &touched[singles..];
        if !tail.is_empty() {
            children.push((
                self.p_of_occ(tail.iter().map(|&c| self.occ[c as usize]).sum()),
                tail.iter().map(|&c| count(c)).sum(),
            ));
        }
        children
    }

    /// The counting pass shared by splitting and pricing: per-code
    /// tuple counts plus the touched codes in plan order. `None` when a
    /// budget trip cut the pass short.
    ///
    /// A node with at least as many tuples as the dictionary has codes
    /// already pays `O(codes)`, so it counts in the tightest loop and
    /// reads the touched codes off the plan order. A smaller node
    /// records each code's first touch instead and orders those codes
    /// by rank through a bitset, so it never scans the dictionary.
    fn count_codes(
        &self,
        cat: &CategoricalCol<'_>,
        tset: &[u32],
        pacer: &mut super::GasPacer,
    ) -> Option<CodeCounts> {
        let mut counts = vec![0u32; self.values.len()];
        if tset.len() >= self.values.len() {
            for_each_code(cat, tset, pacer, |_, code| counts[code as usize] += 1)?;
            let touched = self
                .order
                .iter()
                .copied()
                .filter(|&code| counts[code as usize] > 0)
                .collect();
            return Some(CodeCounts { counts, touched });
        }
        // Every row writes its code at `seen`, which advances only on a
        // first touch, so the loop has no data-dependent branch.
        let mut first_touch = vec![0u32; tset.len() + 1];
        let mut seen = 0;
        for_each_code(cat, tset, pacer, |_, code| {
            let count = &mut counts[code as usize];
            first_touch[seen] = code;
            seen += usize::from(*count == 0);
            *count += 1;
        })?;
        let mut ranks = vec![0u64; self.values.len().div_ceil(64)];
        for &code in &first_touch[..seen] {
            let r = self.rank[code as usize] as usize;
            ranks[r / 64] |= 1 << (r % 64);
        }
        let mut touched = first_touch;
        touched.clear();
        for (w, &word) in ranks.iter().enumerate() {
            let mut bits = word;
            while bits != 0 {
                touched.push(self.order[w * 64 + bits.trailing_zeros() as usize]);
                bits &= bits - 1;
            }
        }
        Some(CodeCounts { counts, touched })
    }

    /// Shared layout decision for splitting and pricing: how many of a
    /// node's `touched` non-empty codes (in plan order) become
    /// single-value categories; the rest pool into the tail, which is
    /// empty when grouping is off or not triggered.
    fn singles(&self, touched: usize, threshold: Option<usize>, top_k: usize) -> usize {
        let group_tail = matches!(threshold, Some(t) if touched > t) && top_k >= 1;
        if group_tail {
            top_k.min(touched)
        } else {
            touched
        }
    }
}

/// One node's per-code tuple counts (code-indexed; zero for codes it
/// did not touch) and its touched codes in plan order.
struct CodeCounts {
    counts: Vec<u32>,
    touched: Vec<u32>,
}

/// Feed every row of `tset` with its code to `f`, in tuple-set order.
/// `None` when a budget trip stopped the pass.
fn for_each_code(
    cat: &CategoricalCol<'_>,
    tset: &[u32],
    pacer: &mut super::GasPacer,
    mut f: impl FnMut(u32, u32),
) -> Option<()> {
    for (codes, start, run) in cat.code_runs(tset) {
        for &row in run {
            if !pacer.checkpoint() {
                return None;
            }
            f(row, codes[(row - start) as usize]);
        }
    }
    Some(())
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
                assert!(
                    part.label.matches_row(&rel, r),
                    "{}",
                    part.label.render(&rel)
                );
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
        assert_eq!(
            full.children_for_pricing(),
            plan.priced_split(&cat, &[0, 4], None, 0)
        );
    }

    #[test]
    fn large_dictionary_layout_follows_plan_order() {
        // 210 codes; the workload heats every third value, so plan
        // order differs from code order, and the node first touches
        // codes in reverse plan order.
        let schema = Schema::new(vec![Field::new("hood", AttrType::Categorical)]).unwrap();
        let names: Vec<String> = (0..210).map(|i| format!("v{i:03}")).collect();
        let mut b = RelationBuilder::new(schema.clone());
        for round in 0..3 {
            for (i, name) in names.iter().enumerate() {
                if round == 0 || i % (round + 1) == 0 {
                    b.push_row(&[name.as_str().into()]).unwrap();
                }
            }
        }
        let rel = b.finish().unwrap();
        let queries: Vec<String> = names
            .iter()
            .enumerate()
            .flat_map(|(i, n)| {
                std::iter::repeat_n(
                    format!("SELECT * FROM t WHERE hood IN ('{n}')"),
                    i % 3 + i % 7,
                )
            })
            .collect();
        let log = WorkloadLog::parse(queries.iter().map(String::as_str), &schema, None);
        let stats = WorkloadStatistics::build(&log, &schema, &PreprocessConfig::new());
        let cat = col(&rel);
        let plan = CategoricalPlan::build(&cat, &stats, ValueOrder::ByOccurrence);
        assert!(plan.code_order().len() >= 200);
        assert_ne!(plan.code_order(), &(0..210).collect::<Vec<u32>>()[..]);
        let code_of = |row: u32| rel.column(AttrId(0)).code_at(row as usize).unwrap();
        // Rows sorted by descending plan rank, then one sparse subset.
        let rank_of = |code: u32| plan.code_order().iter().position(|&c| c == code).unwrap();
        let mut reversed: Vec<u32> = rel.all_row_ids();
        reversed.sort_by_key(|&r| std::cmp::Reverse(rank_of(code_of(r))));
        let sparse: Vec<u32> = reversed.iter().copied().filter(|r| r % 5 == 0).collect();
        for tset in [&reversed, &sparse] {
            // The old layout: scan the whole plan order for codes present.
            let present: Vec<u32> = plan
                .code_order()
                .iter()
                .copied()
                .filter(|&c| tset.iter().any(|&r| code_of(r) == c))
                .collect();
            for (threshold, top_k) in [(None, 0), (Some(12), 5), (Some(500), 5), (Some(0), 1)] {
                let full = plan.split_grouped(&cat, tset, threshold, top_k);
                let priced = plan.priced_split(&cat, tset, threshold, top_k);
                assert_eq!(full.children_for_pricing(), priced, "{threshold:?}/{top_k}");
                assert_eq!(full.total_tuples(), tset.len());
                // Presentation order: single-value parts follow the
                // plan order; a pooled tail holds the rest.
                let grouped = threshold.is_some_and(|t| present.len() > t) && top_k >= 1;
                let singles = if grouped {
                    top_k.min(present.len())
                } else {
                    present.len()
                };
                let codes_of = |p: &Part| -> Vec<u32> {
                    match &p.label.kind {
                        crate::label::LabelKind::In(codes) => codes.keys().copied().collect(),
                        other => panic!("non-categorical label {other:?}"),
                    }
                };
                let single_codes: Vec<u32> =
                    full.parts[..singles].iter().flat_map(codes_of).collect();
                assert_eq!(single_codes, present[..singles], "{threshold:?}/{top_k}");
                let mut tail: Vec<u32> = full.parts[singles..].iter().flat_map(codes_of).collect();
                let mut want_tail = present[singles..].to_vec();
                tail.sort_unstable();
                want_tail.sort_unstable();
                assert_eq!(tail, want_tail, "{threshold:?}/{top_k}");
                // Within a part, rows keep tuple-set order (the pooled
                // tail is restored to table order).
                for part in &full.parts {
                    let expected: Vec<u32> = if part.label.in_values().count() > 1 {
                        let mut rows: Vec<u32> = part.tset.clone();
                        rows.sort_unstable();
                        rows
                    } else {
                        tset.iter()
                            .copied()
                            .filter(|&r| part.label.matches_row(&rel, r))
                            .collect()
                    };
                    assert_eq!(part.tset, expected);
                }
            }
        }
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
