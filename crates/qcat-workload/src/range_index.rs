//! Sorted-endpoint index for numeric `NOverlap` computation.
//!
//! `NOverlap(C)` for a numeric label counts the workload query ranges
//! that overlap the label's interval (paper Section 4.2). Counting by
//! rescanning the workload per category would make tree construction
//! O(categories × workload); this index answers each count with two
//! binary searches:
//!
//! ```text
//! overlap = N − (ranges entirely below the label)
//!             − (ranges entirely above the label)
//! ```
//!
//! which is exact because every recorded range is non-empty.

use qcat_sql::NumericRange;

/// An endpoint multiset as `(value, inclusive)` pairs — the persisted
/// form of one side of the index.
pub type EndpointList = Vec<(f64, bool)>;

/// An endpoint with its inclusivity, ordered so that binary search can
/// express "strictly below x" and "below-or-at x".
#[derive(Debug, Clone, Copy, PartialEq)]
struct Endpoint {
    value: f64,
    inclusive: bool,
}

/// Overlap-count index over the query ranges of one numeric attribute.
#[derive(Debug, Clone, Default)]
pub struct RangeIndex {
    /// Upper endpoints of all ranges, sorted ascending (exclusive
    /// before inclusive at equal values).
    uppers: Vec<Endpoint>,
    /// Lower endpoints of all ranges, sorted ascending (inclusive
    /// before exclusive at equal values — so a suffix count of
    /// "entirely above" is a single partition point).
    lowers: Vec<Endpoint>,
    len: usize,
    sorted: bool,
}

impl RangeIndex {
    /// Empty index.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one (non-empty) query range.
    pub fn record(&mut self, range: &NumericRange) {
        debug_assert!(!range.is_empty(), "empty ranges carry no overlap signal");
        self.uppers.push(Endpoint {
            value: range.hi,
            inclusive: range.hi_inclusive,
        });
        self.lowers.push(Endpoint {
            value: range.lo,
            inclusive: range.lo_inclusive,
        });
        self.len += 1;
        self.sorted = false;
    }

    /// Sort the endpoint arrays; called automatically by queries.
    pub fn seal(&mut self) {
        if self.sorted {
            return;
        }
        // Uppers: at equal values, exclusive (< v) sorts before
        // inclusive (≤ v), because an exclusive upper end is "more
        // below".
        self.uppers.sort_by(|a, b| {
            a.value
                .total_cmp(&b.value)
                .then_with(|| a.inclusive.cmp(&b.inclusive))
        });
        // Lowers: at equal values, inclusive (≥ v) sorts before
        // exclusive (> v), because an exclusive lower end is "more
        // above".
        self.lowers.sort_by(|a, b| {
            a.value
                .total_cmp(&b.value)
                .then_with(|| b.inclusive.cmp(&a.inclusive))
        });
        self.sorted = true;
    }

    /// Number of ranges recorded.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when nothing is recorded.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Count recorded ranges overlapping `label`, sealing first if
    /// needed.
    pub fn count_overlapping(&mut self, label: &NumericRange) -> usize {
        self.seal();
        self.count_overlapping_sealed(label)
    }

    /// Count recorded ranges overlapping `label` on an already-sealed
    /// index (shared access; panics if [`RangeIndex::seal`] has not
    /// run since the last `record`).
    pub fn count_overlapping_sealed(&self, label: &NumericRange) -> usize {
        assert!(
            self.sorted || self.len == 0,
            "RangeIndex::seal must be called before shared queries"
        );
        if label.is_empty() {
            return 0;
        }
        let below = self.count_entirely_below(label);
        let above = self.count_entirely_above(label);
        self.len - below - above
    }

    /// The endpoint multisets `(lowers, uppers)` as
    /// `(value, inclusive)` pairs, for persistence. Overlap counting
    /// depends only on these two multisets, so the original pairing
    /// need not survive a round trip.
    pub fn endpoints(&self) -> (EndpointList, EndpointList) {
        (
            self.lowers.iter().map(|e| (e.value, e.inclusive)).collect(),
            self.uppers.iter().map(|e| (e.value, e.inclusive)).collect(),
        )
    }

    /// Rebuild from persisted endpoint multisets (must be the same
    /// length).
    pub fn from_endpoints(lowers: EndpointList, uppers: EndpointList) -> Self {
        assert_eq!(
            lowers.len(),
            uppers.len(),
            "every range has one lower and one upper endpoint"
        );
        let mut idx = RangeIndex {
            len: lowers.len(),
            lowers: lowers
                .into_iter()
                .map(|(value, inclusive)| Endpoint { value, inclusive })
                .collect(),
            uppers: uppers
                .into_iter()
                .map(|(value, inclusive)| Endpoint { value, inclusive })
                .collect(),
            sorted: false,
        };
        idx.seal();
        idx
    }

    /// Ranges whose every point is `<` the label's start.
    #[allow(
        clippy::float_cmp,
        reason = "L2: exact bound test; -0.0 and 0.0 are one endpoint, which total_cmp would split"
    )]
    fn count_entirely_below(&self, label: &NumericRange) -> usize {
        // A range with upper endpoint (hi, hi_inc) is entirely below a
        // label starting at (lo, lo_inc) iff hi < lo, or hi == lo and
        // the two endpoints cannot both include the shared point.
        self.uppers.partition_point(|e| {
            e.value < label.lo || (e.value == label.lo && !(e.inclusive && label.lo_inclusive))
        })
    }

    /// Ranges whose every point is `>` the label's end.
    #[allow(
        clippy::float_cmp,
        reason = "L2: exact bound test; -0.0 and 0.0 are one endpoint, which total_cmp would split"
    )]
    fn count_entirely_above(&self, label: &NumericRange) -> usize {
        let not_above = self.lowers.partition_point(|e| {
            e.value < label.hi || (e.value == label.hi && e.inclusive && label.hi_inclusive)
        });
        self.len - not_above
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qcat_datagen::{prop, Rng};

    fn closed(lo: f64, hi: f64) -> NumericRange {
        NumericRange::closed(lo, hi)
    }

    #[test]
    fn counts_overlaps_for_half_open_labels() {
        let mut idx = RangeIndex::new();
        idx.record(&closed(0.0, 10.0));
        idx.record(&closed(20.0, 30.0));
        idx.record(&closed(5.0, 25.0));
        // Label [10, 20): overlaps [0,10] (at 10), [5,25]; not [20,30]
        // (label excludes 20).
        let label = NumericRange::half_open(10.0, 20.0);
        assert_eq!(idx.count_overlapping(&label), 2);
        // Label [20, 30]: overlaps [20,30] and [5,25].
        assert_eq!(idx.count_overlapping(&closed(20.0, 30.0)), 2);
        // Label far away.
        assert_eq!(idx.count_overlapping(&closed(100.0, 200.0)), 0);
    }

    #[test]
    fn unbounded_query_ranges_overlap_everything() {
        let mut idx = RangeIndex::new();
        idx.record(&NumericRange::unbounded());
        idx.record(&NumericRange {
            lo: 50.0,
            lo_inclusive: true,
            hi: f64::INFINITY,
            hi_inclusive: false,
        });
        assert_eq!(idx.count_overlapping(&closed(0.0, 10.0)), 1);
        assert_eq!(idx.count_overlapping(&closed(60.0, 70.0)), 2);
    }

    #[test]
    fn empty_label_overlaps_nothing() {
        let mut idx = RangeIndex::new();
        idx.record(&closed(0.0, 10.0));
        assert_eq!(idx.count_overlapping(&NumericRange::half_open(5.0, 5.0)), 0);
    }

    #[test]
    fn exclusive_touching_does_not_overlap() {
        let mut idx = RangeIndex::new();
        // Query range (10, 20] — open at 10.
        idx.record(&NumericRange {
            lo: 10.0,
            lo_inclusive: false,
            hi: 20.0,
            hi_inclusive: true,
        });
        // Label [0, 10] ends exactly where the open range begins.
        assert_eq!(idx.count_overlapping(&closed(0.0, 10.0)), 0);
        // Label [0, 10.5] pokes past the open endpoint.
        assert_eq!(idx.count_overlapping(&closed(0.0, 10.5)), 1);
    }

    #[test]
    fn incremental_record_resorts() {
        let mut idx = RangeIndex::new();
        idx.record(&closed(0.0, 1.0));
        assert_eq!(idx.count_overlapping(&closed(0.0, 5.0)), 1);
        idx.record(&closed(2.0, 3.0));
        assert_eq!(idx.count_overlapping(&closed(0.0, 5.0)), 2);
        assert_eq!(idx.len(), 2);
        assert!(!idx.is_empty());
    }

    /// The index agrees with brute-force overlap counting for arbitrary
    /// closed/open ranges and labels.
    #[test]
    fn prop_matches_bruteforce() {
        prop::check("range_index_matches_bruteforce", 64, 39, |rng, size| {
            let range = |rng: &mut Rng, lo: std::ops::Range<i32>| {
                let lo = rng.gen_range(lo);
                NumericRange {
                    lo: lo as f64,
                    lo_inclusive: rng.gen_bool(0.5),
                    hi: (lo + rng.gen_range(0..40i32)) as f64,
                    hi_inclusive: rng.gen_bool(0.5),
                }
            };
            let ranges: Vec<NumericRange> = prop::vec(rng, 0, size, |rng| range(rng, -50..50))
                .into_iter()
                .filter(|r| !r.is_empty())
                .collect();
            let label = range(rng, -60..60);
            let mut idx = RangeIndex::new();
            for r in &ranges {
                idx.record(r);
            }
            let expected = ranges.iter().filter(|r| r.overlaps(&label)).count();
            assert_eq!(
                idx.count_overlapping(&label),
                expected,
                "{label:?} over {ranges:?}"
            );
            Ok(())
        });
    }
}
