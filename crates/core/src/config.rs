//! Tuning knobs for the categorizer.

/// How many buckets the numeric partitioner should produce per node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BucketCount {
    /// Exactly `m` buckets (the paper's externally-specified `m`;
    /// fewer if not enough necessary splitpoints exist).
    Fixed(usize),
    /// Choose `m ∈ 2..=max` by minimizing the estimated one-level
    /// `CostAll` — the automatic-`m` extension the paper sketches at
    /// the end of Section 5.1.3.
    Auto {
        /// Upper bound on the bucket count.
        max: usize,
    },
}

impl Default for BucketCount {
    fn default() -> Self {
        BucketCount::Fixed(5)
    }
}

/// How sibling categories are ordered for presentation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum OrderingMode {
    /// The paper's production heuristic: categorical siblings by
    /// decreasing `P(C)` (via `occ(v)`), numeric buckets ascending.
    #[default]
    Heuristic,
    /// After the tree is built, re-sort categorical sibling lists by
    /// the exact Appendix-A criterion, increasing
    /// `1/P(Cᵢ) + CostOne(Cᵢ)` — optimal for `CostOne`, evaluated
    /// bottom-up so subtree costs are final. Numeric buckets stay in
    /// ascending value order (the paper presents them that way
    /// regardless).
    OptimalOne,
}

/// Configuration of the cost-based categorizer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CategorizeConfig {
    /// `M`: a node is partitioned iff it holds more than this many
    /// tuples; guarantees every leaf fits a display screen (paper
    /// default 20).
    pub max_leaf_tuples: usize,
    /// `K`: the cost of examining one category label relative to one
    /// data tuple (Equations 1 and 2).
    pub label_cost: f64,
    /// `frac(C)` estimate: the expected fraction of `tset(C)` a user
    /// scans before the first relevant tuple under SHOWTUPLES (the
    /// paper uses `frac` without fixing an estimator; 0.5 is the
    /// uniform-position expectation).
    pub frac: f64,
    /// `x`: attribute-elimination threshold — attributes constrained
    /// by fewer than this fraction of workload queries are never
    /// categorizing attributes (paper uses 0.4 on MSN House&Home).
    pub attr_threshold: f64,
    /// Numeric bucket-count policy.
    pub bucket_count: BucketCount,
    /// A splitpoint is "unnecessary" when either bucket it creates
    /// would hold fewer than this many tuples (Example 5.1's skip
    /// rule).
    pub min_bucket_size: usize,
    /// Hard cap on tree depth (levels of categorizing attributes); the
    /// number of retained attributes is the natural bound.
    pub max_levels: usize,
    /// Sibling presentation order (see [`OrderingMode`]).
    pub ordering: OrderingMode,
    /// Cap on single-value categorical categories per node: when a
    /// node has more distinct values than this, the partitioner keeps
    /// the `grouping_top_k` hottest values as single-value categories
    /// and pools the rest into one `A ∈ B` tail category (an extension
    /// beyond the paper's single-value-only partitionings; `None`
    /// disables grouping and reproduces the paper exactly).
    pub categorical_group_threshold: Option<usize>,
    /// How many single-value categories to keep when grouping kicks
    /// in.
    pub grouping_top_k: usize,
    /// Use correlation-aware conditional probabilities `P(C | path)`
    /// and `Pw(C | path)` when attaching nodes (the paper's
    /// weakened-independence future work). Requires statistics built
    /// with `WorkloadStatistics::build_with_correlation`; silently
    /// falls back to unconditional estimates otherwise.
    pub conditional_probabilities: bool,
    /// Cap on the threads a Figure-6 level's partition/price and
    /// materialize maps fan out to. Each map's width follows its work
    /// (`qcat_pool::ThreadPool::width_for`): levels lighter than
    /// `qcat_pool::MIN_WORK_PER_WORKER` run inline at any cap.
    /// `0` (the default) resolves through the `QCAT_THREADS`
    /// environment variable, then the machine's available parallelism
    /// (see `qcat_pool::resolve_threads`). The categorization result is
    /// byte-identical at every thread count.
    pub threads: usize,
}

impl Default for CategorizeConfig {
    fn default() -> Self {
        CategorizeConfig {
            max_leaf_tuples: 20,
            label_cost: 1.0,
            frac: 0.5,
            attr_threshold: 0.4,
            bucket_count: BucketCount::default(),
            min_bucket_size: 1,
            max_levels: usize::MAX,
            ordering: OrderingMode::default(),
            categorical_group_threshold: None,
            grouping_top_k: 10,
            conditional_probabilities: false,
            threads: 0,
        }
    }
}

impl CategorizeConfig {
    /// Set `M`.
    pub fn with_max_leaf_tuples(mut self, m: usize) -> Self {
        assert!(m > 0, "M must be positive");
        self.max_leaf_tuples = m;
        self
    }

    /// Set `K`.
    pub fn with_label_cost(mut self, k: f64) -> Self {
        assert!(k >= 0.0 && k.is_finite(), "K must be non-negative");
        self.label_cost = k;
        self
    }

    /// Set the `frac(C)` estimate.
    pub fn with_frac(mut self, frac: f64) -> Self {
        assert!((0.0..=1.0).contains(&frac), "frac must be in [0,1]");
        self.frac = frac;
        self
    }

    /// Set the attribute-elimination threshold `x`.
    pub fn with_attr_threshold(mut self, x: f64) -> Self {
        assert!((0.0..=1.0).contains(&x), "threshold must be in [0,1]");
        self.attr_threshold = x;
        self
    }

    /// Set the numeric bucket-count policy.
    pub fn with_bucket_count(mut self, b: BucketCount) -> Self {
        match b {
            BucketCount::Fixed(m) => assert!(m >= 2, "need at least 2 buckets"),
            BucketCount::Auto { max } => assert!(max >= 2, "need at least 2 buckets"),
        }
        self.bucket_count = b;
        self
    }

    /// Set the minimum bucket population.
    pub fn with_min_bucket_size(mut self, n: usize) -> Self {
        assert!(n >= 1, "buckets must be allowed at least one tuple");
        self.min_bucket_size = n;
        self
    }

    /// Set the level cap.
    pub fn with_max_levels(mut self, levels: usize) -> Self {
        self.max_levels = levels;
        self
    }

    /// Enable correlation-aware conditional probabilities.
    pub fn with_conditional_probabilities(mut self, on: bool) -> Self {
        self.conditional_probabilities = on;
        self
    }

    /// Set the sibling ordering mode.
    pub fn with_ordering(mut self, ordering: OrderingMode) -> Self {
        self.ordering = ordering;
        self
    }

    /// Set the worker-thread cap (`0` = resolve from the
    /// environment/machine).
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Enable tail grouping of rare categorical values: nodes with
    /// more than `threshold` distinct values keep `top_k` single-value
    /// categories and pool the rest.
    pub fn with_categorical_grouping(mut self, threshold: usize, top_k: usize) -> Self {
        assert!(top_k >= 1, "need at least one single-value category");
        assert!(
            threshold > top_k,
            "threshold must exceed top_k or grouping always fires"
        );
        self.categorical_group_threshold = Some(threshold);
        self.grouping_top_k = top_k;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let c = CategorizeConfig::default();
        assert_eq!(c.max_leaf_tuples, 20);
        assert_eq!(c.attr_threshold, 0.4);
        assert_eq!(c.label_cost, 1.0);
        assert_eq!(c.frac, 0.5);
    }

    #[test]
    fn builder_chains() {
        let c = CategorizeConfig::default()
            .with_max_leaf_tuples(50)
            .with_label_cost(2.0)
            .with_frac(0.25)
            .with_attr_threshold(0.3)
            .with_bucket_count(BucketCount::Auto { max: 8 })
            .with_min_bucket_size(3)
            .with_max_levels(2)
            .with_threads(4);
        assert_eq!(c.max_leaf_tuples, 50);
        assert_eq!(c.bucket_count, BucketCount::Auto { max: 8 });
        assert_eq!(c.min_bucket_size, 3);
        assert_eq!(c.max_levels, 2);
        assert_eq!(c.threads, 4);
        assert_eq!(CategorizeConfig::default().threads, 0);
    }

    #[test]
    #[should_panic(expected = "M must be positive")]
    fn zero_m_rejected() {
        let _ = CategorizeConfig::default().with_max_leaf_tuples(0);
    }

    #[test]
    #[should_panic(expected = "at least 2")]
    fn one_bucket_rejected() {
        let _ = CategorizeConfig::default().with_bucket_count(BucketCount::Fixed(1));
    }

    #[test]
    #[should_panic(expected = "frac")]
    fn frac_out_of_range_rejected() {
        let _ = CategorizeConfig::default().with_frac(1.5);
    }
}
