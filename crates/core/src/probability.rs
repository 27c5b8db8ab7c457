//! Workload-based probability estimation (paper Section 4.2).

use crate::label::{CategoryLabel, LabelKind};
use qcat_data::AttrId;
use qcat_sql::NumericRange;
use qcat_workload::WorkloadStatistics;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::PoisonError;
use std::sync::RwLock;

/// Estimates `P(C)` and `Pw(C)` from workload statistics.
///
/// - SHOWCAT probability of `C` = `NAttr(SA(C)) / N`: the fraction of
///   past users who constrained the subcategorizing attribute and so
///   would use categories on it to skip irrelevant tuples.
///   `Pw(C) = 1 − NAttr(SA(C))/N`.
/// - `P(C) = NOverlap(C) / NAttr(CA(C))`: among users who constrained
///   the categorizing attribute, the fraction whose condition overlaps
///   this label.
///
/// Categorical labels carry their value strings (see
/// [`crate::label::CategoricalCol`]), so estimation never consults the
/// relation.
#[derive(Debug, Clone, Copy)]
pub struct ProbabilityEstimator<'a> {
    stats: &'a WorkloadStatistics,
}

impl<'a> ProbabilityEstimator<'a> {
    /// Wrap workload statistics.
    pub fn new(stats: &'a WorkloadStatistics) -> Self {
        ProbabilityEstimator { stats }
    }

    /// The underlying statistics.
    pub fn stats(&self) -> &'a WorkloadStatistics {
        self.stats
    }

    /// `Pw(C)` for a node subcategorized by `sub_attr`. With an empty
    /// workload every user is presumed to browse (`Pw = 1`).
    pub fn p_showtuples(&self, sub_attr: AttrId) -> f64 {
        let n = self.stats.n_queries();
        if n == 0 {
            return 1.0;
        }
        (1.0 - self.stats.n_attr(sub_attr) as f64 / n as f64).clamp(0.0, 1.0)
    }

    /// `NOverlap(C)` for a label.
    pub fn n_overlap(&self, label: &CategoryLabel) -> usize {
        match &label.kind {
            LabelKind::In(_) => self.stats.n_overlap_values(label.attr, label.in_values()),
            LabelKind::Range(r) => self.stats.n_overlap_range(label.attr, r),
        }
    }

    /// `P(C) = NOverlap(C) / NAttr(CA(C))`, clamped to `[0, 1]`
    /// (multi-value categorical labels can overcount `NOverlap`, see
    /// `qcat-workload`). When nobody ever constrained the attribute,
    /// no workload user would drill in; `P = 0`.
    pub fn p_explore(&self, label: &CategoryLabel) -> f64 {
        let n_attr = self.stats.n_attr(label.attr);
        if n_attr == 0 {
            return 0.0;
        }
        (self.n_overlap(label) as f64 / n_attr as f64).clamp(0.0, 1.0)
    }

    /// Correlation-aware `P(C | path)` (the paper's future-work
    /// extension): among workload queries overlapping every label on
    /// the node's path, the fraction overlapping this label. Requires
    /// statistics built with
    /// `WorkloadStatistics::build_with_correlation`; falls back to the
    /// unconditional [`ProbabilityEstimator::p_explore`] when the
    /// index is absent or no query matches the path.
    pub fn p_explore_conditional(&self, label: &CategoryLabel, path: &[&CategoryLabel]) -> f64 {
        if let Some(index) = self.stats.correlation_index() {
            let predicate = label.to_predicate();
            let path_preds: Vec<_> = path.iter().map(|l| l.to_predicate()).collect();
            if let Some(p) = index.conditional_p_explore(&predicate, &path_preds) {
                return p.clamp(0.0, 1.0);
            }
        }
        self.p_explore(label)
    }

    /// Correlation-aware `Pw(C | path)`, same fallback rules.
    pub fn p_showtuples_conditional(&self, sub_attr: AttrId, path: &[&CategoryLabel]) -> f64 {
        if let Some(index) = self.stats.correlation_index() {
            let path_preds: Vec<_> = path.iter().map(|l| l.to_predicate()).collect();
            if let Some(pw) = index.conditional_p_showtuples(sub_attr, &path_preds) {
                return pw.clamp(0.0, 1.0);
            }
        }
        self.p_showtuples(sub_attr)
    }
}

/// Cache key for a range probability: the attribute plus the interval
/// identity, with the float bounds compared by bit pattern.
type RangeKey = (AttrId, u64, u64, bool, bool);

/// Hasher for [`RangeKey`]s. The keys are internal bit patterns, not
/// adversarial input, so a rotate-xor-multiply per word plus a
/// splitmix64 finalizer (which folds the float bounds' high bits into
/// the low bits the table indexes by) replaces SipHash.
#[derive(Debug, Default, Clone, Copy)]
struct RangeHasher(u64);

impl RangeHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x517c_c1b7_2722_0a95);
    }
}

impl Hasher for RangeHasher {
    #[inline]
    fn finish(&self) -> u64 {
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.add(u64::from(b));
        }
    }

    #[inline]
    fn write_u8(&mut self, n: u8) {
        self.add(u64::from(n));
    }

    #[inline]
    fn write_u16(&mut self, n: u16) {
        self.add(u64::from(n));
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.add(u64::from(n));
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.add(n);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.add(n as u64);
    }
}

/// Per-categorize memo over [`ProbabilityEstimator`]: `Pw` per
/// attribute precomputed up front, `P(C)` for numeric interval labels
/// cached by interval identity. The numeric partitioner prices the
/// same candidate intervals repeatedly (prefix search, then final
/// bucket construction, then Equation-1 pricing); the cache makes each
/// distinct interval cost one range-index probe per categorization.
///
/// Values are bit-identical to the estimator's (a hit returns exactly
/// what the miss computed), so caching cannot perturb tie-breaking,
/// and the cache is `Sync` — pool workers share one instance.
#[derive(Debug)]
pub struct ProbCache<'a> {
    est: ProbabilityEstimator<'a>,
    p_show: Vec<f64>,
    range_p: RwLock<HashMap<RangeKey, f64, BuildHasherDefault<RangeHasher>>>,
}

impl<'a> ProbCache<'a> {
    /// Build a cache over `stats`, precomputing `Pw` for every
    /// attribute of the schema.
    pub fn new(stats: &'a WorkloadStatistics) -> Self {
        let est = ProbabilityEstimator::new(stats);
        let p_show = stats
            .schema()
            .attr_ids()
            .map(|a| est.p_showtuples(a))
            .collect();
        ProbCache {
            est,
            p_show,
            range_p: RwLock::new(HashMap::default()),
        }
    }

    /// The wrapped estimator.
    pub fn estimator(&self) -> ProbabilityEstimator<'a> {
        self.est
    }

    /// Precomputed `Pw(C)` for a node subcategorized by `sub_attr`.
    pub fn p_showtuples(&self, sub_attr: AttrId) -> f64 {
        match self.p_show.get(sub_attr.0 as usize) {
            Some(&p) => p,
            None => self.est.p_showtuples(sub_attr),
        }
    }

    /// Cached `P(C)` for the numeric interval label `attr ∈ r`.
    pub fn p_explore_range(&self, attr: AttrId, r: &NumericRange) -> f64 {
        let key: RangeKey = (
            attr,
            r.lo.to_bits(),
            r.hi.to_bits(),
            r.lo_inclusive,
            r.hi_inclusive,
        );
        if let Some(&p) = self
            .range_p
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .get(&key)
        {
            return p;
        }
        let p = self.est.p_explore(&CategoryLabel::range(attr, *r));
        self.range_p
            .write()
            .unwrap_or_else(PoisonError::into_inner)
            .insert(key, p);
        p
    }

    /// `P(C)` for any label: numeric intervals go through the cache,
    /// categorical labels straight to the estimator (the categorical
    /// partitioner keeps its own code-indexed table).
    pub fn p_explore(&self, label: &CategoryLabel) -> f64 {
        match &label.kind {
            LabelKind::Range(r) => self.p_explore_range(label.attr, r),
            LabelKind::In(_) => self.est.p_explore(label),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::label::CategoricalCol;
    use qcat_data::{AttrType, Field, Relation, RelationBuilder, Schema};
    use qcat_workload::{PreprocessConfig, WorkloadLog};

    fn setup() -> (Relation, WorkloadStatistics) {
        let schema = Schema::new(vec![
            Field::new("neighborhood", AttrType::Categorical),
            Field::new("price", AttrType::Float),
            Field::new("beds", AttrType::Int),
        ])
        .unwrap();
        let mut b = RelationBuilder::new(schema.clone());
        for (n, p, beds) in [
            ("Redmond", 210_000.0, 3),
            ("Bellevue", 260_000.0, 4),
            ("Seattle", 305_000.0, 2),
        ] {
            b.push_row(&[n.into(), p.into(), i64::from(beds).into()])
                .unwrap();
        }
        let rel = b.finish().unwrap();
        let log = WorkloadLog::parse(
            [
                "SELECT * FROM t WHERE neighborhood IN ('Redmond','Bellevue')",
                "SELECT * FROM t WHERE neighborhood IN ('Redmond') AND price BETWEEN 200000 AND 250000",
                "SELECT * FROM t WHERE price BETWEEN 250000 AND 320000",
                "SELECT * FROM t WHERE beds >= 3",
            ],
            &schema,
            None,
        );
        let cfg = PreprocessConfig::new()
            .with_interval(AttrId(1), 5000.0)
            .with_interval(AttrId(2), 1.0);
        (rel, WorkloadStatistics::build(&log, &schema, &cfg))
    }

    fn hood(rel: &Relation, v: &str) -> CategoryLabel {
        CategoricalCol::of(rel, AttrId(0))
            .unwrap()
            .label_of_value(v)
            .unwrap()
    }

    #[test]
    fn showtuples_probability() {
        let (_, stats) = setup();
        let est = ProbabilityEstimator::new(&stats);
        // neighborhood constrained by 2/4 queries → Pw = 0.5
        assert_eq!(est.p_showtuples(AttrId(0)), 0.5);
        // price by 2/4, beds by 1/4.
        assert_eq!(est.p_showtuples(AttrId(1)), 0.5);
        assert_eq!(est.p_showtuples(AttrId(2)), 0.75);
    }

    #[test]
    fn explore_probability_categorical() {
        let (rel, stats) = setup();
        let est = ProbabilityEstimator::new(&stats);
        // occ(Redmond)=2, NAttr(neighborhood)=2 → P = 1.0
        assert_eq!(est.p_explore(&hood(&rel, "Redmond")), 1.0);
        // occ(Bellevue)=1 → 0.5
        assert_eq!(est.p_explore(&hood(&rel, "Bellevue")), 0.5);
        // Seattle never queried → 0.
        assert_eq!(est.p_explore(&hood(&rel, "Seattle")), 0.0);
    }

    #[test]
    fn explore_probability_numeric() {
        let (_, stats) = setup();
        let est = ProbabilityEstimator::new(&stats);
        // Label [200k, 240k): overlaps query [200k,250k] only → 1/2.
        let l = CategoryLabel::range(AttrId(1), NumericRange::half_open(200_000.0, 240_000.0));
        assert_eq!(est.p_explore(&l), 0.5);
        // Label [240k, 260k): overlaps both price queries → 1.0.
        let l = CategoryLabel::range(AttrId(1), NumericRange::half_open(240_000.0, 260_000.0));
        assert_eq!(est.p_explore(&l), 1.0);
        // Label [400k, 500k): overlaps none.
        let l = CategoryLabel::range(AttrId(1), NumericRange::half_open(400_000.0, 500_000.0));
        assert_eq!(est.p_explore(&l), 0.0);
    }

    #[test]
    fn unconstrained_attr_gives_zero_explore() {
        let (rel, _) = setup();
        // A workload where neighborhood never appears: NAttr = 0.
        let schema = rel.schema().clone();
        let log = WorkloadLog::parse(["SELECT * FROM t WHERE price > 0"], &schema, None);
        let cfg = PreprocessConfig::new().with_interval(AttrId(1), 5000.0);
        let stats2 = WorkloadStatistics::build(&log, &schema, &cfg);
        let est2 = ProbabilityEstimator::new(&stats2);
        assert_eq!(est2.p_explore(&hood(&rel, "Redmond")), 0.0);
    }

    #[test]
    fn empty_workload_defaults() {
        let (rel, _) = setup();
        let schema = rel.schema().clone();
        let log = WorkloadLog::parse([], &schema, None);
        let stats = WorkloadStatistics::build(&log, &schema, &PreprocessConfig::new());
        let est = ProbabilityEstimator::new(&stats);
        assert_eq!(est.p_showtuples(AttrId(0)), 1.0);
        assert_eq!(est.p_explore(&hood(&rel, "Redmond")), 0.0);
    }

    #[test]
    fn multi_value_label_clamps() {
        let (rel, stats) = setup();
        let est = ProbabilityEstimator::new(&stats);
        let l = CategoricalCol::of(&rel, AttrId(0))
            .unwrap()
            .label_of_values(["Redmond", "Bellevue"])
            .unwrap();
        // occ sums to 3 > NAttr=2; clamp to 1.
        assert_eq!(est.p_explore(&l), 1.0);
    }

    #[test]
    fn cache_is_bit_identical_to_the_estimator() {
        let (rel, stats) = setup();
        let est = ProbabilityEstimator::new(&stats);
        let cache = ProbCache::new(&stats);
        for attr in [AttrId(0), AttrId(1), AttrId(2)] {
            assert_eq!(cache.p_showtuples(attr), est.p_showtuples(attr));
        }
        let r = NumericRange::half_open(200_000.0, 240_000.0);
        let direct = est.p_explore(&CategoryLabel::range(AttrId(1), r));
        // Miss, then hit: both must equal the estimator's answer.
        assert_eq!(cache.p_explore_range(AttrId(1), &r), direct);
        assert_eq!(cache.p_explore_range(AttrId(1), &r), direct);
        let l = hood(&rel, "Bellevue");
        assert_eq!(cache.p_explore(&l), est.p_explore(&l));
    }
}
