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

    /// Split one node's rows: one single-value category per code
    /// present in `tset`, in plan order; empty categories are dropped
    /// (Figure 6: "each non-empty cat C' ∈ SCL"). With a `threshold`,
    /// a node that would get more categories keeps the first `top_k`
    /// (hottest, in plan order) as single-value categories and pools
    /// the remainder into one multi-value `A ∈ B` category presented
    /// last.
    ///
    /// The tail extends the paper, whose partitioner is single-value
    /// only; its label stays "solely and unambiguously" descriptive
    /// (Section 3.1 allows `A ∈ B` labels), it just lists more values.
    ///
    /// This is one counting pass over `tset`. The Figure-6 loop prices
    /// every candidate from it ([`CatSplit::priced`]) and materializes
    /// only the winner's ([`CatSplit::materialize`]). A budget trip
    /// truncates the counts, like the numeric counting pass: they then
    /// only price a level that can no longer be charged (see
    /// `GasPacer`), and the scatter refuses them.
    pub fn split(
        &self,
        cat: &CategoricalCol<'_>,
        tset: &[u32],
        threshold: Option<usize>,
        top_k: usize,
    ) -> CatSplit<'_> {
        let (counts, touched) = self.count_codes(cat, tset);
        let group_tail = matches!(threshold, Some(t) if touched.len() > t) && top_k >= 1;
        let singles = if group_tail {
            top_k.min(touched.len())
        } else {
            touched.len()
        };
        CatSplit {
            plan: self,
            counts,
            touched,
            singles,
        }
    }

    /// The counting pass behind [`CategoricalPlan::split`]: per-code
    /// tuple counts (code-indexed) plus the touched codes in plan order.
    ///
    /// A node with at least as many tuples as the dictionary has codes
    /// already pays `O(codes)`, so it counts in the tightest loop and
    /// reads the touched codes off the plan order. A smaller node
    /// records each code's first touch instead and orders those codes
    /// by rank through a bitset, so it never scans the dictionary.
    fn count_codes(&self, cat: &CategoricalCol<'_>, tset: &[u32]) -> (Vec<u32>, Vec<u32>) {
        let mut counts = vec![0u32; self.values.len()];
        if tset.len() >= self.values.len() {
            for_each_code(cat, tset, |code| counts[code as usize] += 1);
            let touched = self
                .order
                .iter()
                .copied()
                .filter(|&code| counts[code as usize] > 0)
                .collect();
            return (counts, touched);
        }
        // Every row writes its code at `seen`, which advances only on a
        // first touch, so the loop has no data-dependent branch.
        let mut first_touch = vec![0u32; tset.len() + 1];
        let mut seen = 0;
        for_each_code(cat, tset, |code| {
            let count = &mut counts[code as usize];
            first_touch[seen] = code;
            seen += usize::from(*count == 0);
            *count += 1;
        });
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
        (counts, touched)
    }
}

/// One node's categorical split, read off its counting pass: which
/// codes it touches, how many rows each holds, and how many of them
/// stay single-value categories ahead of the pooled tail.
#[derive(Debug)]
pub struct CatSplit<'p> {
    plan: &'p CategoricalPlan,
    /// Rows per code (code-indexed; zero for untouched codes).
    counts: Vec<u32>,
    /// Touched codes in plan order.
    touched: Vec<u32>,
    /// How many of `touched` become single-value categories; the rest
    /// pool into the tail, which is empty when grouping is off or not
    /// triggered.
    singles: usize,
}

impl CatSplit<'_> {
    /// `(P(C), size)` per would-be part, in presentation order — the
    /// shape Equation 1 pricing consumes, with no label built.
    pub fn priced(&self) -> Vec<(f64, usize)> {
        let plan = self.plan;
        let count = |code: u32| self.counts[code as usize] as usize;
        let mut children: Vec<(f64, usize)> = self.touched[..self.singles]
            .iter()
            .map(|&code| (plan.p_explore_code(code), count(code)))
            .collect();
        let tail = &self.touched[self.singles..];
        if !tail.is_empty() {
            children.push((
                plan.p_of_occ(tail.iter().map(|&c| plan.occ[c as usize]).sum()),
                tail.iter().map(|&c| count(c)).sum(),
            ));
        }
        children
    }

    /// Label the parts and scatter `tset` — the rows this split
    /// counted — by them (see `partition::scatter`). `None` when a
    /// budget trip cut the count or the scatter short.
    pub fn materialize(
        self,
        cat: &CategoricalCol<'_>,
        tset: &[u32],
    ) -> Option<(Partitioning, Vec<u32>)> {
        let (plan, singles) = (self.plan, self.singles);
        let tail = &self.touched[singles..];
        let labels = self.touched[..singles]
            .iter()
            .map(|&code| {
                CategoryLabel::single_value(plan.attr, code, plan.values[code as usize].clone())
            })
            .chain((!tail.is_empty()).then(|| {
                CategoryLabel::value_set(
                    plan.attr,
                    tail.iter().map(|&c| (c, plan.values[c as usize].clone())),
                )
            }));
        let parts: Vec<Part> = labels
            .zip(self.priced())
            .map(|(label, (p_explore, size))| Part {
                label,
                size,
                p_explore,
            })
            .collect();
        // Reuse the count table as each code's part index.
        let mut part_of = self.counts;
        for (i, &code) in self.touched.iter().enumerate() {
            part_of[code as usize] = i.min(singles) as u32;
        }
        let part_of = &part_of;
        let rows = super::scatter(
            parts.iter().map(|p| p.size),
            cat.code_runs(tset).flat_map(|(codes, start, run)| {
                run.iter().map(move |&row| {
                    (
                        row,
                        part_of[codes[(row - start) as usize] as usize] as usize,
                    )
                })
            }),
        )?;
        Some((
            Partitioning {
                attr: plan.attr,
                parts,
            },
            rows,
        ))
    }
}

/// Feed the code of every row of `tset` to `f`, in `tset` order,
/// until a budget trip stops the pass.
fn for_each_code(cat: &CategoricalCol<'_>, tset: &[u32], mut f: impl FnMut(u32)) {
    let mut pacer = super::GasPacer::new();
    for (codes, start, run) in cat.code_runs(tset) {
        for &row in run {
            if !pacer.checkpoint() {
                return;
            }
            f(codes[(row - start) as usize]);
        }
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

    /// `plan.split` materialized, with each part's rows cut out of the
    /// scattered slice.
    fn split(
        plan: &CategoricalPlan,
        cat: &CategoricalCol<'_>,
        tset: &[u32],
        threshold: Option<usize>,
        top_k: usize,
    ) -> (Partitioning, Vec<Vec<u32>>) {
        let (p, rows) = plan
            .split(cat, tset, threshold, top_k)
            .materialize(cat, tset)
            .unwrap();
        let mut rest = rows.as_slice();
        let parts = p
            .parts
            .iter()
            .map(|part| {
                let (head, tail) = rest.split_at(part.size);
                rest = tail;
                head.to_vec()
            })
            .collect();
        (p, parts)
    }

    fn priced(
        plan: &CategoricalPlan,
        cat: &CategoricalCol<'_>,
        tset: &[u32],
        threshold: Option<usize>,
        top_k: usize,
    ) -> Vec<(f64, usize)> {
        plan.split(cat, tset, threshold, top_k).priced()
    }

    #[test]
    fn occurrence_order_puts_hot_values_first() {
        let (rel, stats) = setup();
        let cat = col(&rel);
        let plan = CategoricalPlan::build(&cat, &stats, ValueOrder::ByOccurrence);
        let (p, rows) = split(&plan, &cat, &[0, 1, 2, 3, 4, 5], None, 0);
        let labels: Vec<String> = p.parts.iter().map(|p| p.label.render(&rel)).collect();
        assert_eq!(
            labels,
            vec![
                "neighborhood: Bellevue",
                "neighborhood: Redmond",
                "neighborhood: Seattle"
            ]
        );
        // Parts keep table order.
        assert_eq!(rows, vec![vec![2], vec![1, 3], vec![0, 4, 5]]);
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
        let (p, _) = split(&plan, &cat, &[0, 1, 2, 3, 4, 5], None, 0);
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
        let (p, rows) = split(&plan, &cat, &[0, 4], None, 0);
        assert_eq!(p.len(), 1);
        assert_eq!(rows, vec![vec![0, 4]]);
    }

    #[test]
    fn empty_tset_gives_empty_partitioning() {
        let (rel, stats) = setup();
        let cat = col(&rel);
        let plan = CategoricalPlan::build(&cat, &stats, ValueOrder::ByOccurrence);
        let (p, _) = split(&plan, &cat, &[], None, 0);
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
        let (p, rows) = split(&plan, &cat, &[0, 1, 2, 3, 4, 5], Some(2), 1);
        assert_eq!(p.len(), 2);
        assert_eq!(p.parts[0].label.render(&rel), "neighborhood: Bellevue");
        let tail = &p.parts[1];
        assert_eq!(tail.label.render(&rel), "neighborhood: Seattle, Redmond");
        // The stable scatter keeps pooled rows in table order.
        assert_eq!(rows[1], vec![0, 1, 3, 4, 5]);
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
        let (p, _) = split(&plan, &cat, &[0, 1, 2, 3, 4, 5], Some(3), 1);
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
        let (p, rows) = split(&plan, &cat, &[0, 1, 2, 3, 4, 5], Some(1), 1);
        for (part, rows) in p.parts.iter().zip(&rows) {
            for &r in rows {
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
            let (full, _) = split(&plan, &cat, &[0, 1, 2, 3, 4, 5], threshold, top_k);
            let priced = priced(&plan, &cat, &[0, 1, 2, 3, 4, 5], threshold, top_k);
            assert_eq!(full.children_for_pricing(), priced, "{threshold:?}/{top_k}");
        }
        // Subsets too (empty categories dropped identically).
        let (full, _) = split(&plan, &cat, &[0, 4], None, 0);
        assert_eq!(
            full.children_for_pricing(),
            priced(&plan, &cat, &[0, 4], None, 0)
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
                let (full, rows) = split(&plan, &cat, tset, threshold, top_k);
                let priced = priced(&plan, &cat, tset, threshold, top_k);
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
                // Within a part, pooled tail included, rows keep the
                // node's order.
                for (part, rows) in full.parts.iter().zip(&rows) {
                    let expected: Vec<u32> = tset
                        .iter()
                        .copied()
                        .filter(|&r| part.label.matches_row(&rel, r))
                        .collect();
                    assert_eq!(rows, &expected);
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
        let (p, _) = split(&plan, &cat, &[0, 1], None, 0);
        let labels: Vec<String> = p.parts.iter().map(|p| p.label.render(&rel)).collect();
        assert_eq!(labels[0], "neighborhood: Seattle");
    }
}
