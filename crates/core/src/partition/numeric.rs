//! Cost-based numeric partitioning (paper Section 5.1.3).
//!
//! Splitpoints live on the workload's fixed grid; each carries the
//! goodness score `start_v + end_v`. To produce `m` buckets for a node
//! we walk candidates in decreasing goodness and greedily keep each
//! splitpoint that is *necessary* — both buckets it creates hold at
//! least `min_bucket_size` tuples (Example 5.1's skip rule) — until
//! `m − 1` are selected. Buckets are presented in ascending value
//! order; all are `[lo, hi)` except the last, which closes at `vmax`.
//!
//! Split selection and pricing are decoupled: [`NumericPlan::priced_split_in_window`]
//! runs the same selection but returns only `(P(C), size)` pairs from a
//! counting pass over the node's sorted values, so the Figure-6 loop
//! can price every candidate attribute without materializing losing
//! partitionings.

use crate::config::{BucketCount, CategorizeConfig};
use crate::cost::one_level_cost_all;
use crate::float;
use crate::label::CategoryLabel;
use crate::partition::{Part, Partitioning};
use crate::probability::ProbCache;
use qcat_data::{AttrId, Relation};
use qcat_sql::{NormalizedQuery, NumericRange};
use qcat_workload::WorkloadStatistics;

/// The value window to partition, per the paper: taken from the user
/// query's selection condition on the attribute when present,
/// otherwise from the data.
pub fn value_window(
    relation: &Relation,
    attr: AttrId,
    tset: &[u32],
    query: Option<&NormalizedQuery>,
) -> Option<(f64, f64)> {
    if let Some(q) = query {
        if let Some(cond) = q.condition(attr) {
            if let Some(r) = cond.covering_range() {
                if let (Some(lo), Some(hi)) = (r.finite_lo(), r.finite_hi()) {
                    if lo < hi {
                        return Some((lo, hi));
                    }
                }
            }
        }
    }
    let (lo, hi) = relation.column(attr).numeric_min_max(tset)?;
    (lo < hi).then_some((lo, hi))
}

/// The outcome of splitpoint selection for one node: the accepted
/// splits (sorted ascending), the effective window, and the node's
/// values sorted for `O(log n)` population queries.
struct ChosenSplits {
    splits: Vec<f64>,
    vmin: f64,
    vmax: f64,
    sorted: Vec<f64>,
}

/// A level-wide numeric plan: the candidate splitpoints for the
/// enclosing window, ranked by goodness. Individual nodes select their
/// own necessary subset (Figure 6 does the sort once per level, the
/// necessity filtering per category).
#[derive(Debug, Clone)]
pub struct NumericPlan {
    attr: AttrId,
    /// Candidate splitpoint values in decreasing goodness order.
    candidates: Vec<f64>,
}

impl NumericPlan {
    /// Build the plan for `attr` over the window `(vmin, vmax)`.
    pub fn build(stats: &WorkloadStatistics, attr: AttrId, vmin: f64, vmax: f64) -> Self {
        let candidates = stats
            .splitpoints_by_goodness(attr, vmin, vmax)
            .into_iter()
            .map(|sp| sp.value)
            .collect();
        NumericPlan { attr, candidates }
    }

    /// The attribute being partitioned.
    pub fn attr(&self) -> AttrId {
        self.attr
    }

    /// Candidate values, best first.
    pub fn candidates(&self) -> &[f64] {
        &self.candidates
    }

    /// Partition one node's tuple-set.
    ///
    /// Returns `None` when no split is possible (fewer than two
    /// distinct values, or no necessary splitpoint).
    pub fn split(
        &self,
        relation: &Relation,
        tset: &[u32],
        config: &CategorizeConfig,
        probs: &ProbCache<'_>,
        p_showtuples: f64,
    ) -> Option<Partitioning> {
        self.split_in_window(relation, tset, config, probs, p_showtuples, None)
    }

    /// Like [`NumericPlan::split`], but with an explicit value window
    /// — the paper takes `(vmin, vmax)` from the user query's range
    /// condition when it has one. The window is widened if needed so
    /// every tuple stays covered.
    pub fn split_in_window(
        &self,
        relation: &Relation,
        tset: &[u32],
        config: &CategorizeConfig,
        probs: &ProbCache<'_>,
        p_showtuples: f64,
        window: Option<(f64, f64)>,
    ) -> Option<Partitioning> {
        let chosen = self.choose_splits(relation, tset, config, probs, p_showtuples, window)?;
        Some(build_buckets(
            relation,
            self.attr,
            tset,
            &chosen.splits,
            chosen.vmin,
            chosen.vmax,
            probs,
        ))
    }

    /// Price the split without materializing it: run the same
    /// splitpoint selection as [`NumericPlan::split_in_window`] and
    /// return the `(P(C), size)` pairs its buckets would have, counted
    /// against the node's sorted values. Bucket membership boundaries
    /// are shared with [`build_buckets`], so sizes agree exactly.
    pub fn priced_split_in_window(
        &self,
        relation: &Relation,
        tset: &[u32],
        config: &CategorizeConfig,
        probs: &ProbCache<'_>,
        p_showtuples: f64,
        window: Option<(f64, f64)>,
    ) -> Option<Vec<(f64, usize)>> {
        let chosen = self.choose_splits(relation, tset, config, probs, p_showtuples, window)?;
        let children = bucket_ranges(&chosen.splits, chosen.vmin, chosen.vmax)
            .map(|range| {
                let count = count_in_range(&chosen.sorted, &range);
                (probs.p_explore_range(self.attr, &range), count)
            })
            .filter(|&(_, count)| count > 0)
            .collect();
        Some(children)
    }

    /// Shared front half of splitting and pricing: window resolution,
    /// value sorting, greedy necessary-splitpoint selection, and (for
    /// `Auto` bucket counts) the best-prefix cost search.
    fn choose_splits(
        &self,
        relation: &Relation,
        tset: &[u32],
        config: &CategorizeConfig,
        probs: &ProbCache<'_>,
        p_showtuples: f64,
        window: Option<(f64, f64)>,
    ) -> Option<ChosenSplits> {
        let column = relation.column(self.attr);
        let (dmin, dmax) = column.numeric_min_max(tset)?;
        let (vmin, vmax) = match window {
            Some((wlo, whi)) => (wlo.min(dmin), whi.max(dmax)),
            None => (dmin, dmax),
        };
        if vmin >= vmax {
            return None;
        }
        // Sorted values for O(log n) bucket-population queries.
        let mut sorted: Vec<f64> = Vec::new();
        column.runs(tset).for_each(|(chunk, start, run)| {
            sorted.extend(run.iter().filter_map(|&r| chunk.numeric((r - start) as usize)));
        });
        sorted.sort_unstable_by(f64::total_cmp);

        let max_splits = match config.bucket_count {
            BucketCount::Fixed(m) => m - 1,
            BucketCount::Auto { max } => max - 1,
        };
        let chosen = select_necessary_splits(
            &sorted,
            &self.candidates,
            vmin,
            vmax,
            max_splits,
            config.min_bucket_size,
        );
        if chosen.is_empty() {
            return None;
        }
        let mut splits = match config.bucket_count {
            BucketCount::Fixed(_) => chosen,
            BucketCount::Auto { .. } => best_prefix_by_cost(
                &sorted,
                &chosen,
                vmin,
                vmax,
                self.attr,
                config,
                probs,
                p_showtuples,
            ),
        };
        splits.sort_unstable_by(f64::total_cmp);
        Some(ChosenSplits {
            splits,
            vmin,
            vmax,
            sorted,
        })
    }
}

/// Greedy necessary-splitpoint selection. Returns the accepted
/// splitpoints in **acceptance order** (decreasing goodness), so a
/// prefix of the result is what a smaller `m` would have chosen.
fn select_necessary_splits(
    sorted: &[f64],
    candidates: &[f64],
    vmin: f64,
    vmax: f64,
    max_splits: usize,
    min_bucket: usize,
) -> Vec<f64> {
    let count_in = |lo: f64, hi: f64| -> usize {
        // Population of [lo, hi).
        let a = sorted.partition_point(|&v| v < lo);
        let b = sorted.partition_point(|&v| v < hi);
        b - a
    };
    // Boundaries currently in force, kept sorted; vmax side counts via
    // an inclusive upper sentinel.
    let mut bounds: Vec<f64> = vec![vmin, vmax];
    let mut accepted = Vec::new();
    // A budget trip stops the greedy selection early; the truncated
    // prefix only feeds a level that can no longer be charged.
    let mut pacer = super::GasPacer::new();
    for &v in candidates {
        if accepted.len() >= max_splits || !pacer.checkpoint() {
            break;
        }
        if v <= vmin || v >= vmax {
            continue;
        }
        let idx = bounds.partition_point(|&b| b < v);
        if float::same(bounds[idx], v) {
            continue; // duplicate candidate
        }
        let (lo, hi) = (bounds[idx - 1], bounds[idx]);
        // Left bucket [lo, v); right bucket [v, hi) — except the
        // rightmost bucket also holds values equal to vmax.
        let left = count_in(lo, v);
        let mut right = count_in(v, hi);
        if float::same(hi, vmax) {
            right += sorted.len() - sorted.partition_point(|&x| x < vmax);
        }
        if left >= min_bucket && right >= min_bucket {
            bounds.insert(idx, v);
            accepted.push(v);
        }
    }
    accepted
}

/// For `Auto` bucket counts: evaluate every prefix of the accepted
/// splits with the one-level cost model and keep the cheapest.
#[allow(clippy::too_many_arguments)]
fn best_prefix_by_cost(
    sorted: &[f64],
    accepted: &[f64],
    vmin: f64,
    vmax: f64,
    attr: AttrId,
    config: &CategorizeConfig,
    probs: &ProbCache<'_>,
    p_showtuples: f64,
) -> Vec<f64> {
    let mut best: (f64, usize) = (f64::INFINITY, 1);
    for take in 1..=accepted.len() {
        let mut splits: Vec<f64> = accepted[..take].to_vec();
        splits.sort_unstable_by(f64::total_cmp);
        let children: Vec<(f64, usize)> = bucket_ranges(&splits, vmin, vmax)
            .map(|range| {
                let p = probs.p_explore_range(attr, &range);
                (p, count_in_range(sorted, &range))
            })
            .collect();
        let cost = one_level_cost_all(sorted.len(), p_showtuples, config.label_cost, &children);
        if cost < best.0 {
            best = (cost, take);
        }
    }
    accepted[..best.1].to_vec()
}

/// Population of `range` among `sorted` values. Ranges are contiguous
/// over sorted values, so two binary searches suffice.
fn count_in_range(sorted: &[f64], range: &NumericRange) -> usize {
    let a = sorted.partition_point(|&v| v < range.lo);
    let b = if range.hi_inclusive {
        sorted.partition_point(|&v| v <= range.hi)
    } else {
        sorted.partition_point(|&v| v < range.hi)
    };
    b - a
}

/// Iterate the bucket ranges induced by sorted `splits` over
/// `[vmin, vmax]`: half-open everywhere, closed at the right end.
fn bucket_ranges<'a>(
    splits: &'a [f64],
    vmin: f64,
    vmax: f64,
) -> impl Iterator<Item = NumericRange> + 'a {
    let n = splits.len();
    (0..=n).map(move |i| {
        let lo = if i == 0 { vmin } else { splits[i - 1] };
        if i == n {
            NumericRange::closed(lo, vmax)
        } else {
            NumericRange::half_open(lo, splits[i])
        }
    })
}

/// Materialize the bucket partitioning, preserving table order within
/// buckets. `splits` must be sorted ascending.
fn build_buckets(
    relation: &Relation,
    attr: AttrId,
    tset: &[u32],
    splits: &[f64],
    vmin: f64,
    vmax: f64,
    probs: &ProbCache<'_>,
) -> Partitioning {
    let column = relation.column(attr);
    let mut buckets: Vec<Vec<u32>> = vec![Vec::new(); splits.len() + 1];
    // A budget trip abandons bucketing; the partial partitioning dies
    // with the discarded level (see `GasPacer`).
    let mut pacer = super::GasPacer::new();
    'runs: for (chunk, start, run) in column.runs(tset) {
        for &row in run {
            if !pacer.checkpoint() {
                break 'runs;
            }
            let Some(v) = chunk.numeric((row - start) as usize) else {
                continue; // non-numeric cell: cannot be bucketed
            };
            // Index of the first split > v gives the bucket.
            let idx = splits.partition_point(|&s| s <= v);
            buckets[idx].push(row);
        }
    }
    let parts = bucket_ranges(splits, vmin, vmax)
        .zip(buckets)
        .filter_map(|(range, rows)| {
            (!rows.is_empty()).then(|| Part {
                p_explore: probs.p_explore_range(attr, &range),
                label: CategoryLabel::range(attr, range),
                tset: rows,
            })
        })
        .collect();
    Partitioning { attr, parts }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qcat_data::{AttrType, Field, RelationBuilder, Schema};
    use qcat_workload::{PreprocessConfig, WorkloadLog};

    /// Relation with prices 0..n*step.
    fn price_relation(values: &[f64]) -> Relation {
        let schema = Schema::new(vec![Field::new("price", AttrType::Float)]).unwrap();
        let mut b = RelationBuilder::new(schema);
        for &v in values {
            b.push_row(&[v.into()]).unwrap();
        }
        b.finish().unwrap()
    }

    fn stats_for(queries: &[&str], rel: &Relation) -> WorkloadStatistics {
        let schema = rel.schema().clone();
        let log = WorkloadLog::parse(queries.iter().copied(), &schema, None);
        let cfg = PreprocessConfig::new().with_interval(AttrId(0), 1000.0);
        WorkloadStatistics::build(&log, &schema, &cfg)
    }

    fn all_rows(rel: &Relation) -> Vec<u32> {
        rel.all_row_ids()
    }

    #[test]
    fn example_5_1_selection() {
        // Goodness: 5000 > 8000 > 2000, as in Figure 5(b).
        let values: Vec<f64> = (0..100).map(|i| i as f64 * 100.0).collect(); // 0..9900
        let rel = price_relation(&values);
        let mut queries = Vec::new();
        queries.extend(std::iter::repeat_n(
            "SELECT * FROM t WHERE price BETWEEN 0 AND 5000",
            13,
        ));
        queries.extend(std::iter::repeat_n(
            "SELECT * FROM t WHERE price BETWEEN 8000 AND 9000",
            10,
        ));
        queries.extend(std::iter::repeat_n(
            "SELECT * FROM t WHERE price BETWEEN 2000 AND 3000",
            5,
        ));
        let stats = stats_for(&queries, &rel);
        let probs = ProbCache::new(&stats);
        let plan = NumericPlan::build(&stats, AttrId(0), 0.0, 9900.0);
        // m=3 → 2 splits: 5000 (goodness 13) and 8000 (goodness 10).
        let config = CategorizeConfig::default().with_bucket_count(BucketCount::Fixed(3));
        let p = plan
            .split(&rel, &all_rows(&rel), &config, &probs, 0.5)
            .unwrap();
        assert_eq!(p.len(), 3);
        let labels: Vec<String> = p.parts.iter().map(|p| p.label.render(&rel)).collect();
        assert_eq!(labels[0], "price: 0 - 5000");
        assert_eq!(labels[1], "price: 5000 - 8000");
        assert_eq!(labels[2], "price: 8000 - 9900");
        assert_eq!(p.total_tuples(), 100);
    }

    #[test]
    fn unnecessary_splitpoint_skipped() {
        // All tuples sit in [0, 2000]; a high-goodness splitpoint at
        // 8000 would create an empty right bucket and must be skipped
        // in favor of 1000.
        let values: Vec<f64> = (0..40).map(|i| i as f64 * 50.0).collect(); // 0..1950
        let mut padded = values.clone();
        padded.push(9000.0); // one straggler so vmax=9000
        let rel = price_relation(&padded);
        let mut queries = Vec::new();
        queries.extend(std::iter::repeat_n(
            "SELECT * FROM t WHERE price BETWEEN 8000 AND 9000",
            50,
        ));
        queries.extend(std::iter::repeat_n(
            "SELECT * FROM t WHERE price BETWEEN 0 AND 1000",
            10,
        ));
        let stats = stats_for(&queries, &rel);
        let probs = ProbCache::new(&stats);
        let plan = NumericPlan::build(&stats, AttrId(0), 0.0, 9000.0);
        // Require ≥ 5 tuples per bucket: split at 8000 leaves 1 tuple
        // on the right → unnecessary; 1000 is selected instead.
        let config = CategorizeConfig::default()
            .with_bucket_count(BucketCount::Fixed(2))
            .with_min_bucket_size(5);
        let p = plan
            .split(&rel, &all_rows(&rel), &config, &probs, 0.5)
            .unwrap();
        assert_eq!(p.len(), 2);
        assert_eq!(p.parts[0].label.render(&rel), "price: 0 - 1000");
    }

    #[test]
    fn no_candidates_returns_none() {
        let rel = price_relation(&[1.0, 2.0, 3.0]);
        let stats = stats_for(&[], &rel);
        let probs = ProbCache::new(&stats);
        let plan = NumericPlan::build(&stats, AttrId(0), 1.0, 3.0);
        let config = CategorizeConfig::default();
        assert!(plan
            .split(&rel, &all_rows(&rel), &config, &probs, 0.5)
            .is_none());
    }

    #[test]
    fn degenerate_domain_returns_none() {
        let rel = price_relation(&[5000.0, 5000.0, 5000.0]);
        let stats = stats_for(&["SELECT * FROM t WHERE price BETWEEN 0 AND 5000"], &rel);
        let probs = ProbCache::new(&stats);
        let plan = NumericPlan::build(&stats, AttrId(0), 0.0, 10_000.0);
        let config = CategorizeConfig::default();
        assert!(plan
            .split(&rel, &all_rows(&rel), &config, &probs, 0.5)
            .is_none());
        assert!(plan
            .priced_split_in_window(&rel, &all_rows(&rel), &config, &probs, 0.5, None)
            .is_none());
    }

    #[test]
    fn buckets_partition_and_respect_boundaries() {
        let values: Vec<f64> = vec![0.0, 999.0, 1000.0, 1500.0, 2000.0, 3000.0];
        let rel = price_relation(&values);
        let stats = stats_for(
            &[
                "SELECT * FROM t WHERE price BETWEEN 1000 AND 2000",
                "SELECT * FROM t WHERE price BETWEEN 2000 AND 3000",
            ],
            &rel,
        );
        let probs = ProbCache::new(&stats);
        let plan = NumericPlan::build(&stats, AttrId(0), 0.0, 3000.0);
        let config = CategorizeConfig::default().with_bucket_count(BucketCount::Fixed(3));
        let p = plan
            .split(&rel, &all_rows(&rel), &config, &probs, 0.5)
            .unwrap();
        // Splits at 1000 and 2000. Bucket membership: [0,1000) → rows
        // 0,1; [1000,2000) → 2,3; [2000,3000] → 4,5 (vmax closed).
        assert_eq!(p.parts[0].tset, vec![0, 1]);
        assert_eq!(p.parts[1].tset, vec![2, 3]);
        assert_eq!(p.parts[2].tset, vec![4, 5]);
        // Carried P(C) matches the estimator for each bucket label.
        let est = probs.estimator();
        for part in &p.parts {
            assert_eq!(part.p_explore, est.p_explore(&part.label));
        }
    }

    #[test]
    fn priced_split_matches_materialized_split() {
        let values: Vec<f64> = (0..60).map(|i| i as f64 * 50.0).collect();
        let rel = price_relation(&values);
        let mut queries = vec![];
        queries.extend(std::iter::repeat_n(
            "SELECT * FROM t WHERE price BETWEEN 0 AND 1000",
            20,
        ));
        queries.push("SELECT * FROM t WHERE price BETWEEN 2000 AND 2500");
        let stats = stats_for(&queries, &rel);
        let probs = ProbCache::new(&stats);
        let plan = NumericPlan::build(&stats, AttrId(0), 0.0, 2950.0);
        for config in [
            CategorizeConfig::default().with_bucket_count(BucketCount::Fixed(3)),
            CategorizeConfig::default().with_bucket_count(BucketCount::Auto { max: 6 }),
        ] {
            let full = plan
                .split_in_window(&rel, &all_rows(&rel), &config, &probs, 0.2, None)
                .unwrap();
            let priced = plan
                .priced_split_in_window(&rel, &all_rows(&rel), &config, &probs, 0.2, None)
                .unwrap();
            assert_eq!(full.children_for_pricing(), priced);
        }
    }

    #[test]
    fn auto_bucket_count_prefers_fewer_when_extra_split_useless() {
        // Workload cares only about the 1000 boundary; a second split
        // would add label cost without reducing explored tuples.
        let values: Vec<f64> = (0..60).map(|i| i as f64 * 50.0).collect();
        let rel = price_relation(&values);
        let mut queries = vec![];
        queries.extend(std::iter::repeat_n(
            "SELECT * FROM t WHERE price BETWEEN 0 AND 1000",
            20,
        ));
        queries.push("SELECT * FROM t WHERE price BETWEEN 2000 AND 2500");
        let stats = stats_for(&queries, &rel);
        let probs = ProbCache::new(&stats);
        let plan = NumericPlan::build(&stats, AttrId(0), 0.0, 2950.0);
        let config = CategorizeConfig::default().with_bucket_count(BucketCount::Auto { max: 6 });
        let p = plan
            .split(&rel, &all_rows(&rel), &config, &probs, 0.2)
            .unwrap();
        // The plan must at least keep the dominant 1000 split and stay
        // within the Auto cap.
        assert!(p.len() >= 2 && p.len() <= 6);
        assert!(p
            .parts
            .iter()
            .any(|p| p.label.render(&rel).contains("1000")));
        assert_eq!(p.total_tuples(), 60);
    }

    #[test]
    fn window_comes_from_query_when_present() {
        let rel = price_relation(&[100.0, 5_000.0, 9_000.0]);
        let schema = rel.schema().clone();
        let q = qcat_sql::parse_and_normalize(
            "SELECT * FROM t WHERE price BETWEEN 0 AND 10000",
            &schema,
        )
        .unwrap();
        assert_eq!(
            value_window(&rel, AttrId(0), &all_rows(&rel), Some(&q)),
            Some((0.0, 10_000.0))
        );
        assert_eq!(
            value_window(&rel, AttrId(0), &all_rows(&rel), None),
            Some((100.0, 9_000.0))
        );
        // Unbounded condition falls back to data.
        let q = qcat_sql::parse_and_normalize("SELECT * FROM t WHERE price > 0", &schema).unwrap();
        assert_eq!(
            value_window(&rel, AttrId(0), &all_rows(&rel), Some(&q)),
            Some((100.0, 9_000.0))
        );
    }
}
