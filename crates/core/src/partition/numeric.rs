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
//! One [`NumericPlan`] serves a whole categorization: it ranks every
//! splitpoint of the attribute once, and each node keeps the ones
//! inside its own window. Every population the selection asks for is
//! the count of the node's values below some candidate, so one
//! counting pass per node bins its values between the candidates —
//! with grid arithmetic, no sort — and the greedy selection, the
//! `Auto` prefix search and pricing read those counts in `O(1)`.
//! The Figure-6 loop prices every candidate attribute from that pass
//! ([`NumSplit::parts`]) and materializes only the winner's
//! ([`NumSplit::materialize`]).

use crate::config::{BucketCount, CategorizeConfig};
use crate::cost::one_level_cost_all;
use crate::float;
use crate::label::CategoryLabel;
use crate::partition::{Part, Partitioning};
use crate::probability::ProbCache;
use qcat_data::{AttrId, Chunk, Relation};
use qcat_sql::{NormalizedQuery, NumericRange};
use qcat_workload::WorkloadStatistics;

/// The value window the paper takes from the user query: the finite
/// covering range of its selection condition on `attr`, if any. The
/// root of a categorization partitions this window (widened to cover
/// its data) and keeps only splitpoints strictly inside it; every
/// other node partitions its own data window.
pub fn query_window(attr: AttrId, query: Option<&NormalizedQuery>) -> Option<(f64, f64)> {
    let r = query?.condition(attr)?.covering_range()?;
    let (lo, hi) = (r.finite_lo()?, r.finite_hi()?);
    (lo < hi).then_some((lo, hi))
}

/// Most grid cells a plan's arithmetic binning table may span; wider
/// (or off-grid) candidate sets bin by binary search instead.
const MAX_GRID_CELLS: i64 = 4096;

/// A categorization-wide numeric plan: every candidate splitpoint of
/// the attribute, ranked by goodness, plus the ascending boundaries a
/// node's values are counted between. Individual nodes select their
/// own necessary subset (Figure 6 ranks once, filters per category).
#[derive(Debug, Clone)]
pub struct NumericPlan {
    attr: AttrId,
    /// Candidate splitpoints in decreasing goodness order, each with
    /// its index in `edges`.
    candidates: Vec<(f64, usize)>,
    /// The distinct candidate values, ascending.
    edges: Vec<f64>,
    /// Arithmetic binning over the splitpoint grid, when the edges are
    /// grid points spanning at most [`MAX_GRID_CELLS`] cells.
    grid: Option<Grid>,
}

/// Maps a value to its bin — the number of edges at or below it — by
/// grid arithmetic. Grid cell `k` is `[k·interval, (k+1)·interval)`,
/// with boundaries computed exactly as the splitpoint table computes
/// its values; `rank[k - first]` is the bin of every value in cell `k`
/// for `first ≤ k ≤ last`, the end cells absorbing everything beyond.
#[derive(Debug, Clone)]
struct Grid {
    interval: f64,
    first: i64,
    last: i64,
    rank: Vec<u32>,
}

impl Grid {
    /// The grid for ascending `edges`, or `None` when an edge is off
    /// the grid or the edges span too many cells.
    fn build(edges: &[f64], interval: f64) -> Option<Grid> {
        let cells: Vec<i64> = edges
            .iter()
            .map(|&e| {
                let k = (e / interval).round() as i64;
                float::same(k as f64 * interval, e).then_some(k)
            })
            .collect::<Option<_>>()?;
        // One cell below the lowest edge holds everything under it.
        let first = cells.first()?.checked_sub(1)?;
        let last = *cells.last()?;
        if last.checked_sub(first)? >= MAX_GRID_CELLS {
            return None;
        }
        let mut rank = Vec::with_capacity((last - first + 1) as usize);
        let mut below = 0usize;
        for k in first..=last {
            while cells.get(below).is_some_and(|&c| c <= k) {
                below += 1;
            }
            rank.push(below as u32);
        }
        Some(Grid {
            interval,
            first,
            last,
            rank,
        })
    }

    #[inline]
    fn boundary(&self, k: i64) -> f64 {
        k as f64 * self.interval
    }

    /// The bin of `v`: truncating division lands within a cell or two
    /// of the answer, and comparisons against the exact boundaries
    /// settle it (no `floor`, no search).
    #[inline]
    fn bin(&self, v: f64) -> usize {
        let mut k = ((v / self.interval) as i64).clamp(self.first, self.last);
        // The guess is almost always exact (negative non-integers are
        // one cell high, a rounded quotient can be one off at a
        // boundary), so test it against cell `k`'s bounds with selects
        // and walk only when it misses: fix-up loops run on every
        // value mispredict badly on wide grids.
        let lo = if k > self.first {
            self.boundary(k)
        } else {
            f64::NEG_INFINITY
        };
        let hi = if k < self.last {
            self.boundary(k + 1)
        } else {
            f64::INFINITY
        };
        if v < lo || hi <= v {
            while k > self.first && v < self.boundary(k) {
                k -= 1;
            }
            while k < self.last && self.boundary(k + 1) <= v {
                k += 1;
            }
        }
        self.rank[(k - self.first) as usize] as usize
    }
}

/// One node's values counted against a plan's edges — everything the
/// split selection needs, from a single pass.
#[derive(Debug)]
struct NodeCounts {
    /// Numeric values in the node.
    n: usize,
    /// Smallest value (first seen among equals, as `numeric_min_max`).
    dmin: f64,
    /// Largest value (first seen among equals).
    dmax: f64,
    /// `below[i]` = values `< edges[i]` (one extra trailing entry).
    below: Vec<u32>,
}

/// The outcome of splitpoint selection for one node: the accepted
/// splits (sorted ascending) with their populations below, the
/// effective window, and the node's value count.
#[derive(Debug)]
struct ChosenSplits {
    splits: Vec<f64>,
    below: Vec<usize>,
    vmin: f64,
    vmax: f64,
    n: usize,
}

impl ChosenSplits {
    /// `(range, population)` per bucket, in ascending value order.
    fn buckets(&self) -> impl Iterator<Item = (NumericRange, usize)> + '_ {
        bucket_ranges(&self.splits, self.vmin, self.vmax).zip(bucket_sizes(&self.below, self.n))
    }
}

/// One node's numeric split, read off its counting pass.
#[derive(Debug)]
pub struct NumSplit<'p> {
    plan: &'p NumericPlan,
    /// The node holds at least two distinct values (its data window
    /// is not degenerate).
    pub spread: bool,
    /// The selected splits; `None` when no split is possible.
    chosen: Option<ChosenSplits>,
}

impl NumSplit<'_> {
    /// The non-empty buckets, labeled, in ascending value order;
    /// `None` when no split is possible. Range labels own no heap, so
    /// pricing reads sizes and `P(C)` off the same parts the tree gets.
    pub fn parts<'s>(
        &'s self,
        probs: &'s ProbCache<'s>,
    ) -> Option<impl Iterator<Item = Part> + 's> {
        let attr = self.plan.attr;
        let buckets = self.chosen.as_ref()?.buckets();
        Some(
            buckets
                .filter(|&(_, size)| size > 0)
                .map(move |(range, size)| Part {
                    p_explore: probs.p_explore_range(attr, &range),
                    label: CategoryLabel::range(attr, range),
                    size,
                }),
        )
    }

    /// The [`NumSplit::parts`] plus `tset` — the rows this split
    /// counted — scattered into its buckets (see `partition::scatter`).
    /// `None` when no split is possible or a budget trip cut the
    /// scatter short.
    pub fn materialize(
        &self,
        relation: &Relation,
        tset: &[u32],
        probs: &ProbCache<'_>,
    ) -> Option<(Partitioning, Vec<u32>)> {
        let chosen = self.chosen.as_ref()?;
        let splits = &chosen.splits;
        // Empty buckets get no part but keep their (empty) place in
        // the scatter, so a row's bucket index is its part slot.
        let rows = super::scatter(
            bucket_sizes(&chosen.below, chosen.n),
            (relation.column(self.plan.attr).runs(tset)).flat_map(|(chunk, start, run)| {
                run.iter().filter_map(move |&row| {
                    let v = chunk.numeric((row - start) as usize)?;
                    // Index of the first split > v gives the bucket.
                    Some((row, splits.partition_point(|&s| s <= v)))
                })
            }),
        )?;
        let attr = self.plan.attr;
        let parts = self.parts(probs)?.collect();
        Some((Partitioning { attr, parts }, rows))
    }
}

impl NumericPlan {
    /// Build the plan for `attr`: every splitpoint of its table with a
    /// nonzero goodness score, best first.
    pub fn build(stats: &WorkloadStatistics, attr: AttrId) -> Self {
        let ranked: Vec<f64> = stats
            .splitpoints_by_goodness(attr, f64::NEG_INFINITY, f64::INFINITY)
            .into_iter()
            .map(|sp| sp.value)
            .collect();
        let mut edges = ranked.clone();
        edges.sort_unstable_by(f64::total_cmp);
        edges.dedup_by(|a, b| float::same(*a, *b));
        let candidates = ranked
            .into_iter()
            .map(|v| (v, edges.partition_point(|&e| e.total_cmp(&v).is_lt())))
            .collect();
        let grid = stats
            .splitpoint_table(attr)
            .and_then(|t| Grid::build(&edges, t.interval()));
        NumericPlan {
            attr,
            candidates,
            edges,
            grid,
        }
    }

    /// The attribute being partitioned.
    pub fn attr(&self) -> AttrId {
        self.attr
    }

    /// Split one node's rows: count them against the plan's edges,
    /// then select the necessary splitpoints. `window` is the value
    /// window the paper takes from the user query's range condition
    /// when it has one (see [`query_window`]); it is widened if needed
    /// so every tuple stays covered, and only splitpoints strictly
    /// inside it are considered. Without it the node's own data
    /// window applies.
    pub fn split(
        &self,
        relation: &Relation,
        tset: &[u32],
        config: &CategorizeConfig,
        probs: &ProbCache<'_>,
        p_showtuples: f64,
        window: Option<(f64, f64)>,
    ) -> NumSplit<'_> {
        let Some(counts) = self.count(relation, tset) else {
            return NumSplit {
                plan: self,
                spread: false,
                chosen: None,
            };
        };
        NumSplit {
            plan: self,
            spread: counts.dmin < counts.dmax,
            chosen: self.choose_splits(&counts, config, probs, p_showtuples, window),
        }
    }

    /// The counting pass: bin every value of `tset` between the plan's
    /// edges, tracking the data window on the way. `None` when the
    /// node holds no numeric value.
    fn count(&self, relation: &Relation, tset: &[u32]) -> Option<NodeCounts> {
        match &self.grid {
            Some(grid) => self.count_with(relation, tset, |v| grid.bin(v)),
            None => self.count_with(relation, tset, |v| self.edges.partition_point(|&e| e <= v)),
        }
    }

    fn count_with(
        &self,
        relation: &Relation,
        tset: &[u32],
        bin: impl Fn(f64) -> usize,
    ) -> Option<NodeCounts> {
        let mut hist = vec![0u32; self.edges.len() + 1];
        // Sentinel bounds keep the first value's bits on either side,
        // exactly as `Column::numeric_min_max` seeds from it.
        let (mut dmin, mut dmax) = (f64::INFINITY, f64::NEG_INFINITY);
        let mut n = 0usize;
        let mut visit = |v: f64| {
            n += 1;
            if v < dmin {
                dmin = v;
            }
            if v > dmax {
                dmax = v;
            }
            hist[bin(v)] += 1;
        };
        // A budget trip abandons the pass; the miscounted node dies
        // with the discarded level (see `GasPacer`).
        let mut pacer = super::GasPacer::new();
        'runs: for (chunk, start, run) in relation.column(self.attr).runs(tset) {
            for &row in run {
                if !pacer.checkpoint() {
                    break 'runs;
                }
                let i = (row - start) as usize;
                match chunk {
                    Chunk::Float(values) => {
                        if let Some(&v) = values.get(i) {
                            visit(v);
                        }
                    }
                    Chunk::Int(values) => {
                        if let Some(&v) = values.get(i) {
                            visit(v as f64);
                        }
                    }
                    Chunk::Codes(_) => {}
                }
            }
        }
        if n == 0 {
            return None;
        }
        // Prefix sums in place turn the bins (bin `i`: values with
        // exactly `i` edges at or below them) into `below`.
        let mut acc = 0;
        for h in &mut hist {
            acc += *h;
            *h = acc;
        }
        Some(NodeCounts {
            n,
            dmin,
            dmax,
            below: hist,
        })
    }

    /// The selection half of [`NumericPlan::split`]: window resolution,
    /// greedy necessary-splitpoint selection, and (for `Auto` bucket
    /// counts) the best-prefix cost search — all on the node's counts.
    fn choose_splits(
        &self,
        counts: &NodeCounts,
        config: &CategorizeConfig,
        probs: &ProbCache<'_>,
        p_showtuples: f64,
        window: Option<(f64, f64)>,
    ) -> Option<ChosenSplits> {
        let (vmin, vmax) = match window {
            Some((wlo, whi)) => (wlo.min(counts.dmin), whi.max(counts.dmax)),
            None => (counts.dmin, counts.dmax),
        };
        if vmin >= vmax {
            return None;
        }
        let max_splits = match config.bucket_count {
            BucketCount::Fixed(m) => m - 1,
            BucketCount::Auto { max } => max - 1,
        };
        let chosen = self.select_necessary_splits(
            counts,
            window.unwrap_or((vmin, vmax)),
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
                counts.n,
                &chosen,
                (vmin, vmax),
                self.attr,
                config,
                probs,
                p_showtuples,
            ),
        };
        splits.sort_unstable_by(|a, b| a.0.total_cmp(&b.0));
        Some(ChosenSplits {
            below: splits.iter().map(|&(_, below)| below).collect(),
            splits: splits.into_iter().map(|(v, _)| v).collect(),
            vmin,
            vmax,
            n: counts.n,
        })
    }

    /// Greedy necessary-splitpoint selection over the candidates
    /// strictly inside `allowed`. Returns the accepted splitpoints with
    /// their populations below, in **acceptance order** (decreasing
    /// goodness), so a prefix of the result is what a smaller `m`
    /// would have chosen.
    fn select_necessary_splits(
        &self,
        counts: &NodeCounts,
        allowed: (f64, f64),
        vmin: f64,
        vmax: f64,
        max_splits: usize,
        min_bucket: usize,
    ) -> Vec<(f64, usize)> {
        // Boundaries currently in force, kept sorted, each with its
        // population below. The rightmost bucket also holds values
        // equal to vmax, so vmax counts as an inclusive upper sentinel:
        // every value lies below it.
        let mut bounds: Vec<(f64, usize)> = vec![(vmin, 0), (vmax, counts.n)];
        let mut accepted = Vec::new();
        // A budget trip stops the greedy selection early; the truncated
        // prefix only feeds a level that can no longer be charged.
        let mut pacer = super::GasPacer::new();
        for &(v, edge) in &self.candidates {
            if accepted.len() >= max_splits || !pacer.checkpoint() {
                break;
            }
            if v <= allowed.0 || v >= allowed.1 {
                continue;
            }
            let idx = bounds.partition_point(|&(b, _)| b < v);
            if float::same(bounds[idx].0, v) {
                continue; // duplicate candidate
            }
            let below = counts.below[edge] as usize;
            // Left bucket [lo, v); right bucket [v, hi), or [v, vmax].
            let left = below - bounds[idx - 1].1;
            let right = bounds[idx].1 - below;
            if left >= min_bucket && right >= min_bucket {
                bounds.insert(idx, (v, below));
                accepted.push((v, below));
            }
        }
        accepted
    }
}

/// Fallback single-bucket partitioning for a numeric attribute with no
/// usable splitpoint: the node gets one child covering its full
/// window, keeping it eligible for deeper levels (Figure 6 always
/// creates the level's categories). The rows stay as they are.
pub(crate) fn single_bucket(
    relation: &Relation,
    attr: AttrId,
    tset: &[u32],
    probs: &ProbCache<'_>,
) -> (Partitioning, Vec<u32>) {
    let (lo, hi) = relation
        .column(attr)
        .numeric_min_max(tset)
        .unwrap_or((0.0, 0.0));
    let range = NumericRange::closed(lo, hi);
    let part = Part {
        p_explore: probs.p_explore_range(attr, &range),
        label: CategoryLabel::range(attr, range),
        size: tset.len(),
    };
    let parts = vec![part];
    (Partitioning { attr, parts }, tset.to_vec())
}

/// For `Auto` bucket counts: evaluate every prefix of the accepted
/// splits with the one-level cost model and keep the cheapest.
/// `domain` is the level's `(vmin, vmax)`.
fn best_prefix_by_cost(
    n: usize,
    accepted: &[(f64, usize)],
    domain: (f64, f64),
    attr: AttrId,
    config: &CategorizeConfig,
    probs: &ProbCache<'_>,
    p_showtuples: f64,
) -> Vec<(f64, usize)> {
    let mut best: (f64, usize) = (f64::INFINITY, 1);
    for take in 1..=accepted.len() {
        let mut splits: Vec<(f64, usize)> = accepted[..take].to_vec();
        splits.sort_unstable_by(|a, b| a.0.total_cmp(&b.0));
        let (values, below): (Vec<f64>, Vec<usize>) = splits.into_iter().unzip();
        let children: Vec<(f64, usize)> = bucket_ranges(&values, domain.0, domain.1)
            .zip(bucket_sizes(&below, n))
            .map(|(range, count)| (probs.p_explore_range(attr, &range), count))
            .collect();
        let cost = one_level_cost_all(n, p_showtuples, config.label_cost, &children);
        if cost < best.0 {
            best = (cost, take);
        }
    }
    accepted[..best.1].to_vec()
}

/// Bucket populations for ascending splits whose populations below
/// are `below`, over `n` values: the last bucket closes at `vmax` and
/// so holds everything from the last split up.
fn bucket_sizes(below: &[usize], n: usize) -> impl Iterator<Item = usize> + '_ {
    let lows = std::iter::once(0).chain(below.iter().copied());
    let highs = below.iter().copied().chain(std::iter::once(n));
    lows.zip(highs).map(|(lo, hi)| hi - lo)
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

    /// `plan.split` materialized, with each part's rows cut out of the
    /// scattered slice.
    fn split(
        plan: &NumericPlan,
        rel: &Relation,
        tset: &[u32],
        config: &CategorizeConfig,
        probs: &ProbCache<'_>,
        pw: f64,
        window: Option<(f64, f64)>,
    ) -> Option<(Partitioning, Vec<Vec<u32>>)> {
        let (p, rows) = plan
            .split(rel, tset, config, probs, pw, window)
            .materialize(rel, tset, probs)?;
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
        Some((p, parts))
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
        let plan = NumericPlan::build(&stats, AttrId(0));
        // m=3 → 2 splits: 5000 (goodness 13) and 8000 (goodness 10).
        let config = CategorizeConfig::default().with_bucket_count(BucketCount::Fixed(3));
        let (p, _) = split(&plan, &rel, &all_rows(&rel), &config, &probs, 0.5, None).unwrap();
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
        let plan = NumericPlan::build(&stats, AttrId(0));
        // Require ≥ 5 tuples per bucket: split at 8000 leaves 1 tuple
        // on the right → unnecessary; 1000 is selected instead.
        let config = CategorizeConfig::default()
            .with_bucket_count(BucketCount::Fixed(2))
            .with_min_bucket_size(5);
        let (p, _) = split(&plan, &rel, &all_rows(&rel), &config, &probs, 0.5, None).unwrap();
        assert_eq!(p.len(), 2);
        assert_eq!(p.parts[0].label.render(&rel), "price: 0 - 1000");
    }

    #[test]
    fn no_candidates_returns_none() {
        let rel = price_relation(&[1.0, 2.0, 3.0]);
        let stats = stats_for(&[], &rel);
        let probs = ProbCache::new(&stats);
        let plan = NumericPlan::build(&stats, AttrId(0));
        let config = CategorizeConfig::default();
        assert!(split(&plan, &rel, &all_rows(&rel), &config, &probs, 0.5, None).is_none());
    }

    #[test]
    fn degenerate_domain_returns_none() {
        let rel = price_relation(&[5000.0, 5000.0, 5000.0]);
        let stats = stats_for(&["SELECT * FROM t WHERE price BETWEEN 0 AND 5000"], &rel);
        let probs = ProbCache::new(&stats);
        let plan = NumericPlan::build(&stats, AttrId(0));
        let config = CategorizeConfig::default();
        assert!(split(&plan, &rel, &all_rows(&rel), &config, &probs, 0.5, None).is_none());
        let priced = plan.split(&rel, &all_rows(&rel), &config, &probs, 0.5, None);
        assert!(!priced.spread);
        assert!(priced.parts(&probs).is_none());
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
        let plan = NumericPlan::build(&stats, AttrId(0));
        let config = CategorizeConfig::default().with_bucket_count(BucketCount::Fixed(3));
        let (p, rows) = split(&plan, &rel, &all_rows(&rel), &config, &probs, 0.5, None).unwrap();
        // Splits at 1000 and 2000. Bucket membership: [0,1000) → rows
        // 0,1; [1000,2000) → 2,3; [2000,3000] → 4,5 (vmax closed).
        assert_eq!(rows, vec![vec![0, 1], vec![2, 3], vec![4, 5]]);
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
        let plan = NumericPlan::build(&stats, AttrId(0));
        for config in [
            CategorizeConfig::default().with_bucket_count(BucketCount::Fixed(3)),
            CategorizeConfig::default().with_bucket_count(BucketCount::Auto { max: 6 }),
        ] {
            let (full, _) =
                split(&plan, &rel, &all_rows(&rel), &config, &probs, 0.2, None).unwrap();
            let priced = plan.split(&rel, &all_rows(&rel), &config, &probs, 0.2, None);
            assert!(priced.spread);
            assert_eq!(
                Some(full.children_for_pricing()),
                priced
                    .parts(&probs)
                    .map(|parts| parts.map(|p| (p.p_explore, p.size)).collect())
            );
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
        let plan = NumericPlan::build(&stats, AttrId(0));
        let config = CategorizeConfig::default().with_bucket_count(BucketCount::Auto { max: 6 });
        let (p, _) = split(&plan, &rel, &all_rows(&rel), &config, &probs, 0.2, None).unwrap();
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
        assert_eq!(query_window(AttrId(0), Some(&q)), Some((0.0, 10_000.0)));
        // No query, or an unbounded condition: the node's own data
        // window applies, from its counting pass.
        assert_eq!(query_window(AttrId(0), None), None);
        let q = qcat_sql::parse_and_normalize("SELECT * FROM t WHERE price > 0", &schema).unwrap();
        assert_eq!(query_window(AttrId(0), Some(&q)), None);
    }

    // ---------------------------------------------------------------
    // Differential check against the sort-based selection this module
    // used before the counting pass: per node, sort the values, rank
    // the splitpoints inside the node's window (the query window at
    // the root), and answer every population with binary searches.
    // ---------------------------------------------------------------

    /// The sort-based reference: `(splits ascending, vmin, vmax,
    /// priced children)` or `None` when no split is possible.
    type Reference = Option<(Vec<f64>, f64, f64, Vec<(f64, usize)>)>;

    #[allow(
        clippy::too_many_arguments,
        reason = "the reference takes every input the production pricer does"
    )]
    fn sorted_reference(
        stats: &WorkloadStatistics,
        rel: &Relation,
        attr: AttrId,
        tset: &[u32],
        config: &CategorizeConfig,
        probs: &ProbCache<'_>,
        pw: f64,
        window: Option<(f64, f64)>,
    ) -> Reference {
        let column = rel.column(attr);
        let (dmin, dmax) = column.numeric_min_max(tset)?;
        let level = window.or((dmin < dmax).then_some((dmin, dmax)))?;
        let candidates: Vec<f64> = stats
            .splitpoints_by_goodness(attr, level.0, level.1)
            .into_iter()
            .map(|sp| sp.value)
            .collect();
        let (vmin, vmax) = match window {
            Some((wlo, whi)) => (wlo.min(dmin), whi.max(dmax)),
            None => (dmin, dmax),
        };
        if vmin >= vmax {
            return None;
        }
        let mut sorted: Vec<f64> = tset
            .iter()
            .filter_map(|&r| column.numeric_at(r as usize))
            .collect();
        sorted.sort_unstable_by(f64::total_cmp);
        let pp = |x: f64| sorted.partition_point(|&v| v < x);
        let count_in_range = |r: &NumericRange| {
            let b = if r.hi_inclusive {
                sorted.partition_point(|&v| v <= r.hi)
            } else {
                pp(r.hi)
            };
            b - pp(r.lo)
        };
        let max_splits = match config.bucket_count {
            BucketCount::Fixed(m) => m - 1,
            BucketCount::Auto { max } => max - 1,
        };
        let mut bounds = vec![vmin, vmax];
        let mut accepted = Vec::new();
        for &v in &candidates {
            if accepted.len() >= max_splits {
                break;
            }
            if v <= vmin || v >= vmax {
                continue;
            }
            let idx = bounds.partition_point(|&b| b < v);
            if float::same(bounds[idx], v) {
                continue;
            }
            let (lo, hi) = (bounds[idx - 1], bounds[idx]);
            let left = pp(v) - pp(lo);
            let mut right = pp(hi) - pp(v);
            if float::same(hi, vmax) {
                right += sorted.len() - pp(vmax);
            }
            if left >= config.min_bucket_size && right >= config.min_bucket_size {
                bounds.insert(idx, v);
                accepted.push(v);
            }
        }
        if accepted.is_empty() {
            return None;
        }
        let priced = |splits: &[f64], keep_empty: bool| -> Vec<(f64, usize)> {
            bucket_ranges(splits, vmin, vmax)
                .map(|r| (probs.p_explore_range(attr, &r), count_in_range(&r)))
                .filter(|&(_, c)| keep_empty || c > 0)
                .collect()
        };
        let mut splits = match config.bucket_count {
            BucketCount::Fixed(_) => accepted,
            BucketCount::Auto { .. } => {
                let mut best = (f64::INFINITY, 1);
                for take in 1..=accepted.len() {
                    let mut s = accepted[..take].to_vec();
                    s.sort_unstable_by(f64::total_cmp);
                    let cost =
                        one_level_cost_all(sorted.len(), pw, config.label_cost, &priced(&s, true));
                    if cost < best.0 {
                        best = (cost, take);
                    }
                }
                accepted[..best.1].to_vec()
            }
        };
        splits.sort_unstable_by(f64::total_cmp);
        let children = priced(&splits, false);
        Some((splits, vmin, vmax, children))
    }

    /// Assert that the counting plan and the sort-based reference agree
    /// on the chosen splits, the window, the priced children, the
    /// materialized buckets and the spread flag, bit for bit. Returns
    /// how many of the configurations split the node.
    fn assert_matches_reference(
        stats: &WorkloadStatistics,
        rel: &Relation,
        attr: AttrId,
        tset: &[u32],
        window: Option<(f64, f64)>,
        case: &str,
    ) -> usize {
        let mut split_cases = 0;
        let probs = ProbCache::new(stats);
        let plan = NumericPlan::build(stats, attr);
        for bucket_count in [
            BucketCount::Fixed(2),
            BucketCount::Fixed(5),
            BucketCount::Auto { max: 6 },
        ] {
            for min_bucket in [1, 3] {
                let config = CategorizeConfig::default()
                    .with_bucket_count(bucket_count)
                    .with_min_bucket_size(min_bucket);
                let label = format!("{case} {bucket_count:?} min {min_bucket}");
                let reference =
                    sorted_reference(stats, rel, attr, tset, &config, &probs, 0.3, window);
                let priced = plan.split(rel, tset, &config, &probs, 0.3, window);
                let split = split(&plan, rel, tset, &config, &probs, 0.3, window);
                let spread = rel
                    .column(attr)
                    .numeric_min_max(tset)
                    .is_some_and(|(lo, hi)| lo < hi);
                assert_eq!(priced.spread, spread, "{label}: spread");
                let priced: Option<Vec<(f64, usize)>> = priced
                    .parts(&probs)
                    .map(|parts| parts.map(|p| (p.p_explore, p.size)).collect());
                let Some((splits, vmin, vmax, children)) = reference else {
                    assert_eq!(priced, None, "{label}: priced");
                    assert!(split.is_none(), "{label}: split");
                    continue;
                };
                let bits = |c: &[(f64, usize)]| -> Vec<(u64, usize)> {
                    c.iter().map(|&(p, n)| (p.to_bits(), n)).collect()
                };
                let priced = priced.expect("reference split a node the plan did not");
                assert_eq!(bits(&priced), bits(&children), "{label}: priced children");
                let (split, rows) = split.expect("reference split a node the plan did not");
                assert_eq!(
                    bits(&split.children_for_pricing()),
                    bits(&children),
                    "{label}"
                );
                let expected: Vec<NumericRange> = bucket_ranges(&splits, vmin, vmax)
                    .zip(&split.parts)
                    .map(|(r, _)| r)
                    .collect();
                let got: Vec<NumericRange> = split
                    .parts
                    .iter()
                    .map(|p| match &p.label.kind {
                        crate::label::LabelKind::Range(r) => *r,
                        other => panic!("{label}: non-range label {other:?}"),
                    })
                    .collect();
                if children.len() == splits.len() + 1 {
                    let key = |r: &NumericRange| (r.lo.to_bits(), r.hi.to_bits(), r.hi_inclusive);
                    assert_eq!(
                        got.iter().map(key).collect::<Vec<_>>(),
                        expected.iter().map(key).collect::<Vec<_>>(),
                        "{label}: bucket ranges"
                    );
                }
                // Every row lands in the bucket its label admits, in
                // the node's order.
                for (part, rows) in split.parts.iter().zip(&rows) {
                    let want: Vec<u32> = tset
                        .iter()
                        .copied()
                        .filter(|&r| part.label.matches_row(rel, r))
                        .collect();
                    assert_eq!(rows, &want, "{label}: rows of {part:?}");
                }
                assert_eq!(split.total_tuples(), tset.len(), "{label}: rows kept");
                split_cases += 1;
            }
        }
        split_cases
    }

    /// A one-column relation over `values` with splitpoints from
    /// `ranges` (each range recorded `weight` times) on grid `interval`.
    fn fixture(
        ty: AttrType,
        values: &[f64],
        ranges: &[(f64, f64, usize)],
        interval: f64,
    ) -> (Relation, WorkloadStatistics) {
        let schema = Schema::new(vec![Field::new("x", ty)]).unwrap();
        let mut b = RelationBuilder::new(schema.clone());
        for &v in values {
            let cell: qcat_data::Value = match ty {
                AttrType::Int => (v as i64).into(),
                _ => v.into(),
            };
            b.push_row(&[cell]).unwrap();
        }
        let rel = b.finish().unwrap();
        let queries: Vec<String> = ranges
            .iter()
            .flat_map(|&(lo, hi, w)| {
                std::iter::repeat_n(format!("SELECT * FROM t WHERE x BETWEEN {lo} AND {hi}"), w)
            })
            .collect();
        let log = WorkloadLog::parse(queries.iter().map(String::as_str), &schema, None);
        let cfg = PreprocessConfig::new().with_interval(AttrId(0), interval);
        (rel, WorkloadStatistics::build(&log, &schema, &cfg))
    }

    /// Grid-aligned and off-grid query ranges over `[-500, 500]` with
    /// distinct goodness scores.
    fn signed_ranges() -> Vec<(f64, f64, usize)> {
        vec![
            (-400.0, 0.0, 9),
            (-250.0, 250.0, 7),
            (0.0, 300.0, 6),
            (-100.0, 100.0, 5),
            (50.0, 450.0, 4),
            (-350.0, -150.0, 3),
            (120.0, 130.0, 2),
            (-10.0, 10.0, 1),
        ]
    }

    #[test]
    fn counting_matches_sorting_on_negative_and_signed_zero_values() {
        let mut values: Vec<f64> = (0..120).map(|i| (i as f64 - 60.0) * 7.5).collect();
        // -0.0 next to 0.0, in both orders, so first-seen bits matter.
        values.extend([-0.0, 0.0, 0.0, -0.0]);
        let (rel, stats) = fixture(AttrType::Float, &values, &signed_ranges(), 50.0);
        let rows = all_rows(&rel);
        assert!(assert_matches_reference(&stats, &rel, AttrId(0), &rows, None, "signed") > 0);
        let reversed: Vec<u32> = rows.iter().rev().copied().collect();
        assert!(
            assert_matches_reference(&stats, &rel, AttrId(0), &reversed, None, "signed rev") > 0
        );
        // Nodes whose extreme is a signed zero.
        let zeros: Vec<u32> = (0..rel.len() as u32)
            .filter(|&r| {
                rel.column(AttrId(0))
                    .numeric_at(r as usize)
                    .is_some_and(|v| v <= 0.0)
            })
            .collect();
        assert!(assert_matches_reference(&stats, &rel, AttrId(0), &zeros, None, "nonpositive") > 0);
        let window = Some((-0.0, 400.0));
        assert_eq!(
            assert_matches_reference(&stats, &rel, AttrId(0), &zeros, window, "zero window"),
            0
        );
    }

    #[test]
    fn counting_matches_sorting_on_infinities_and_grid_points() {
        // Values sitting exactly on grid points (and just off them),
        // plus both infinities.
        let mut values: Vec<f64> = Vec::new();
        for k in -8..=8 {
            let g = k as f64 * 50.0;
            values.extend([g, g, g.next_up(), g.next_down(), g - 1e-9]);
        }
        values.extend([f64::INFINITY, f64::NEG_INFINITY, f64::INFINITY]);
        let (rel, stats) = fixture(AttrType::Float, &values, &signed_ranges(), 50.0);
        let rows = all_rows(&rel);
        assert!(assert_matches_reference(&stats, &rel, AttrId(0), &rows, None, "grid+inf") > 0);
        let finite: Vec<u32> = rows
            .iter()
            .copied()
            .filter(|&r| {
                rel.column(AttrId(0))
                    .numeric_at(r as usize)
                    .is_some_and(f64::is_finite)
            })
            .collect();
        assert!(assert_matches_reference(&stats, &rel, AttrId(0), &finite, None, "grid") > 0);
        // Single-valued and empty nodes.
        assert_eq!(
            assert_matches_reference(&stats, &rel, AttrId(0), &rows[..2], None, "constant"),
            0
        );
        assert_eq!(
            assert_matches_reference(&stats, &rel, AttrId(0), &[], None, "empty"),
            0
        );
    }

    #[test]
    fn counting_matches_sorting_on_int_columns() {
        let values: Vec<f64> = (0..200).map(|i| ((i * 37) % 23) as f64 - 5.0).collect();
        let ranges = [(1.0, 4.0, 8), (-3.0, 2.0, 5), (6.0, 12.0, 4), (0.0, 9.0, 2)];
        let (rel, stats) = fixture(AttrType::Int, &values, &ranges, 1.0);
        let rows = all_rows(&rel);
        assert!(assert_matches_reference(&stats, &rel, AttrId(0), &rows, None, "int") > 0);
        assert!(
            assert_matches_reference(&stats, &rel, AttrId(0), &rows[..31], None, "int prefix") > 0
        );
        assert!(
            assert_matches_reference(
                &stats,
                &rel,
                AttrId(0),
                &rows,
                Some((-20.0, 40.0)),
                "int win"
            ) > 0
        );
    }

    #[test]
    fn counting_matches_sorting_under_root_windows() {
        let values: Vec<f64> = (0..150).map(|i| i as f64 * 2.0 - 100.0).collect(); // -100..198
        let (rel, stats) = fixture(AttrType::Float, &values, &signed_ranges(), 50.0);
        let rows = all_rows(&rel);
        // A root window wider than the data: splitpoints outside the
        // data but inside the window may still split.
        assert!(
            assert_matches_reference(
                &stats,
                &rel,
                AttrId(0),
                &rows,
                Some((-450.0, 450.0)),
                "wide"
            ) > 0
        );
        // Data outside the query's covering range: the window widens
        // to the data, but only splitpoints inside the query's range
        // are candidates.
        assert!(
            assert_matches_reference(
                &stats,
                &rel,
                AttrId(0),
                &rows,
                Some((-20.0, 60.0)),
                "narrow"
            ) > 0
        );
        assert_eq!(
            assert_matches_reference(
                &stats,
                &rel,
                AttrId(0),
                &rows,
                Some((150.0, 170.0)),
                "inside"
            ),
            0
        );
        // A single-row node under a wide window: no split can leave
        // both sides non-empty.
        assert_eq!(
            assert_matches_reference(
                &stats,
                &rel,
                AttrId(0),
                &rows[..1],
                Some((-450.0, 450.0)),
                "one"
            ),
            0
        );
    }

    #[test]
    fn counting_matches_sorting_on_multi_segment_rows_in_query_order() {
        let values: Vec<f64> = (0..300)
            .map(|i| ((i * 7919) % 997) as f64 - 400.0)
            .collect();
        let (rel, stats) = fixture(AttrType::Float, &values, &signed_ranges(), 50.0);
        let rel = rel.resharded(64).unwrap();
        assert!(rel.shards().len() > 1);
        // ORDER BY x DESC: rows arrive in descending value order, so
        // consecutive rows hop between segments.
        let mut rows = all_rows(&rel);
        rows.sort_by(|&a, &b| {
            let v = |r: u32| rel.column(AttrId(0)).numeric_at(r as usize).unwrap();
            v(b).total_cmp(&v(a))
        });
        assert!(assert_matches_reference(&stats, &rel, AttrId(0), &rows, None, "desc") > 0);
        let odd: Vec<u32> = rows.iter().copied().filter(|r| r % 2 == 1).collect();
        assert!(
            assert_matches_reference(&stats, &rel, AttrId(0), &odd, Some((-300.0, 300.0)), "odd")
                > 0
        );
    }

    #[test]
    fn off_grid_and_wide_candidate_sets_bin_by_search() {
        // A far-away splitpoint makes the grid too wide for the
        // arithmetic table; results must not change.
        let values: Vec<f64> = (0..100).map(|i| i as f64 * 10.0).collect();
        let mut ranges = signed_ranges();
        ranges.push((0.0, 1e9, 3));
        let (rel, stats) = fixture(AttrType::Float, &values, &ranges, 50.0);
        let plan = NumericPlan::build(&stats, AttrId(0));
        assert!(plan.grid.is_none());
        assert!(
            assert_matches_reference(&stats, &rel, AttrId(0), &all_rows(&rel), None, "wide grid")
                > 0
        );
        let (_, narrow) = fixture(AttrType::Float, &values, &signed_ranges(), 50.0);
        assert!(NumericPlan::build(&narrow, AttrId(0)).grid.is_some());
    }

    #[test]
    fn grid_bins_agree_with_search() {
        let (_, stats) = fixture(AttrType::Float, &[0.0], &signed_ranges(), 50.0);
        let plan = NumericPlan::build(&stats, AttrId(0));
        let grid = plan.grid.as_ref().unwrap();
        let mut probes = vec![
            f64::NEG_INFINITY,
            f64::INFINITY,
            -0.0,
            0.0,
            f64::MAX,
            f64::MIN,
        ];
        for &e in &plan.edges {
            probes.extend([e, e.next_up(), e.next_down()]);
        }
        probes.extend((-1200..1200).map(|i| i as f64 * 0.41));
        for v in probes {
            let search = plan.edges.partition_point(|&e| e <= v);
            assert_eq!(grid.bin(v), search, "value {v}");
        }
    }
}
