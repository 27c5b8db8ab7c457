//! Segments: the storage unit of a relation.
//!
//! A relation is an ordered list of `Arc<Segment>`s. Each segment owns
//! one [`Chunk`] per attribute for a contiguous run of rows, the
//! [`SegmentSummary`] of those rows, their [`ShardIndexes`] (once
//! built) and its row offset; dictionaries stay at relation level.
//! Sealed segments are immutable, so an append carries them into the
//! next generation by `Arc` and rebuilds only the open tail (see
//! [`crate::TailAppend::commit`]). Scans, index probes and pruning run
//! per segment. Summaries are conservative — they only ever prove "no
//! row in this segment can match" — so pruning changes how much work
//! runs, never which rows come back.

use crate::column::Chunk;
use crate::index::ShardIndexes;
use std::ops::Deref;
use std::sync::{Arc, OnceLock};

/// Rows at which the open tail of an unsharded relation seals into an
/// immutable segment. An unsharded base stays one segment until its
/// first append; after that an append copies at most this many rows,
/// and a pinned generation owns at most this many rows of its own.
pub const SEGMENT_ROWS: usize = 4096;

/// One horizontal slice of a relation: per-attribute chunks plus the
/// summary and indexes of exactly those rows.
#[derive(Debug)]
pub struct Segment {
    start: usize,
    rows: usize,
    pub(crate) chunks: Vec<Chunk>,
    summary: SegmentSummary,
    pub(crate) indexes: OnceLock<ShardIndexes>,
}

impl Segment {
    /// A segment of `chunks` (all the same length) starting at table
    /// row `start`; the summary is built here, the indexes on demand.
    pub(crate) fn new(start: usize, chunks: Vec<Chunk>) -> Segment {
        Segment {
            start,
            rows: chunks.first().map_or(0, Chunk::len),
            summary: SegmentSummary::build(&chunks),
            chunks,
            indexes: OnceLock::new(),
        }
    }

    /// Table row id of the segment's first row.
    pub fn start(&self) -> usize {
        self.start
    }

    /// One past the table row id of the segment's last row.
    pub fn end(&self) -> usize {
        self.start + self.rows
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.rows
    }

    /// True when the segment holds no rows (only an empty relation's
    /// single segment).
    pub fn is_empty(&self) -> bool {
        self.rows == 0
    }

    /// The per-attribute chunks, in schema order.
    pub fn chunks(&self) -> &[Chunk] {
        &self.chunks
    }

    /// The pruning summary of the segment's rows.
    pub fn summary(&self) -> &SegmentSummary {
        &self.summary
    }

    /// The segment's indexes, once built (global row ids).
    pub fn indexes(&self) -> Option<&ShardIndexes> {
        self.indexes.get()
    }

    /// Heap bytes held by the chunks, summary and (built) indexes.
    pub fn heap_bytes(&self) -> usize {
        self.chunks.iter().map(Chunk::heap_bytes).sum::<usize>()
            + self.summary.heap_bytes()
            + self.indexes().map_or(0, ShardIndexes::heap_bytes)
    }
}

/// A relation's segments in row order, plus the layout policy that
/// decides where an append seals them.
#[derive(Debug, Clone)]
pub struct Segments {
    pub(crate) shard_rows: usize,
    pub(crate) list: Vec<Arc<Segment>>,
}

impl Segments {
    /// The requested rows per segment; `0` means unsharded (one base
    /// segment, tails sealing at [`SEGMENT_ROWS`]). Passing it back to
    /// `Relation::resharded` reproduces this layout policy.
    pub fn shard_rows(&self) -> usize {
        self.shard_rows
    }

    /// Rows at which the open tail seals.
    pub(crate) fn seal_rows(&self) -> usize {
        if self.shard_rows == 0 { SEGMENT_ROWS } else { self.shard_rows }
    }

    /// Number of segments (≥ 1; an empty relation has one empty
    /// segment).
    pub fn shard_count(&self) -> usize {
        self.list.len()
    }

    /// Half-open row range `[start, end)` of segment `shard`; an
    /// out-of-range index yields an empty range at the end of the
    /// relation.
    pub fn bounds(&self, shard: usize) -> (usize, usize) {
        let rows = self.list.last().map_or(0, |s| s.end());
        self.list.get(shard).map_or((rows, rows), |s| (s.start, s.end()))
    }
}

impl Deref for Segments {
    type Target = [Arc<Segment>];

    fn deref(&self) -> &[Arc<Segment>] {
        &self.list
    }
}

/// The segment of `segments` (in row order) holding table row `row`.
pub(crate) fn locate(segments: &[Arc<Segment>], row: usize) -> Option<&Arc<Segment>> {
    segments.get(segments.partition_point(|s| s.end() <= row))
}

/// Per-attribute pruning summary of one segment.
#[derive(Debug, Clone)]
enum AttrSummary {
    /// Closed numeric bounds of the segment's values.
    Numeric {
        /// Smallest value in the segment.
        min: f64,
        /// Largest value in the segment.
        max: f64,
    },
    /// Dictionary-code presence bitmap (bit `c` set ⇔ some row of the
    /// segment holds code `c`). Codes past the bitmap are absent, so a
    /// sealed segment's bitmap stays exact as the dictionary grows.
    Codes(Vec<u64>),
    /// The segment holds no rows: nothing can match.
    Empty,
}

/// Pruning summary for every attribute of one set of rows (a segment,
/// or an append delta).
///
/// All queries are value-level — the SQL layer owns the decision
/// logic, this type only answers "could a row with this code / in this
/// interval exist here?".
#[derive(Debug, Clone)]
pub struct SegmentSummary {
    per_attr: Vec<AttrSummary>,
}

impl SegmentSummary {
    /// Summarize every chunk in one pass each.
    pub fn build(chunks: &[Chunk]) -> SegmentSummary {
        SegmentSummary {
            per_attr: chunks.iter().map(summarize).collect(),
        }
    }

    /// Closed `[min, max]` of a numeric attribute; `None` for
    /// categorical attributes, empty row sets, or out-of-range indices
    /// (callers must treat `None` as "cannot prune" unless the rows
    /// are provably empty).
    pub fn numeric_bounds(&self, attr: usize) -> Option<(f64, f64)> {
        match self.per_attr.get(attr)? {
            AttrSummary::Numeric { min, max } => Some((*min, *max)),
            _ => None,
        }
    }

    /// Could a row hold dictionary code `code` on `attr`?
    ///
    /// Conservative: `true` whenever the summary cannot prove absence
    /// (numeric attribute, out-of-range index). Empty row sets prove
    /// absence of everything.
    pub fn may_have_code(&self, attr: usize, code: u32) -> bool {
        match self.per_attr.get(attr) {
            Some(AttrSummary::Codes(words)) => {
                let (w, b) = (code as usize / 64, code as usize % 64);
                words.get(w).is_some_and(|word| word & (1 << b) != 0)
            }
            Some(AttrSummary::Empty) => false,
            _ => true,
        }
    }

    /// Could a row hold *any* of `codes` on `attr`?
    pub fn may_have_any_code(&self, attr: usize, codes: &[u32]) -> bool {
        codes.iter().any(|&c| self.may_have_code(attr, c))
    }

    /// Could a row fall inside the interval described by
    /// `(lo, lo_inclusive, hi, hi_inclusive)` on numeric `attr`?
    ///
    /// Conservative: `true` when no numeric bounds are known, unless
    /// the rows are provably empty.
    #[allow(
        clippy::float_cmp,
        reason = "L2: exact bound test; -0.0 and 0.0 are one endpoint, which total_cmp would split"
    )]
    pub fn may_overlap_range(
        &self,
        attr: usize,
        lo: f64,
        lo_inclusive: bool,
        hi: f64,
        hi_inclusive: bool,
    ) -> bool {
        match self.per_attr.get(attr) {
            Some(AttrSummary::Numeric { min, max }) => {
                let below = hi < *min || (hi == *min && !hi_inclusive);
                let above = lo > *max || (lo == *max && !lo_inclusive);
                !(below || above)
            }
            Some(AttrSummary::Empty) => false,
            _ => true,
        }
    }

    /// Could a row hold any of `values` exactly on numeric `attr`?
    /// Conservative like [`SegmentSummary::may_overlap_range`].
    pub fn may_have_value(&self, attr: usize, values: &[f64]) -> bool {
        match self.per_attr.get(attr) {
            Some(AttrSummary::Numeric { min, max }) => {
                values.iter().any(|v| *min <= *v && *v <= *max)
            }
            Some(AttrSummary::Empty) => false,
            _ => true,
        }
    }

    /// Heap bytes held by the summary.
    pub fn heap_bytes(&self) -> usize {
        self.per_attr
            .iter()
            .map(|s| match s {
                AttrSummary::Codes(words) => words.len() * std::mem::size_of::<u64>(),
                _ => std::mem::size_of::<AttrSummary>(),
            })
            .sum()
    }
}

/// Summarize one chunk.
fn summarize(chunk: &Chunk) -> AttrSummary {
    match chunk {
        _ if chunk.is_empty() => AttrSummary::Empty,
        Chunk::Codes(codes) => {
            let top = codes.iter().max().map_or(0, |&c| c as usize + 1);
            let mut words = vec![0u64; top.div_ceil(64)];
            for &c in codes {
                words[c as usize / 64] |= 1 << (c as usize % 64);
            }
            AttrSummary::Codes(words)
        }
        Chunk::Int(v) => {
            let (mut min, mut max) = (v[0], v[0]);
            for &x in &v[1..] {
                min = min.min(x);
                max = max.max(x);
            }
            AttrSummary::Numeric {
                min: min as f64,
                max: max as f64,
            }
        }
        Chunk::Float(v) => {
            let (mut min, mut max) = (v[0], v[0]);
            for &x in &v[1..] {
                if x < min {
                    min = x;
                }
                if x > max {
                    max = x;
                }
            }
            AttrSummary::Numeric { min, max }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::relation::RelationBuilder;
    use crate::types::{AttrType, Field, Schema};

    fn ints(rows: i64, shard_rows: usize) -> crate::Relation {
        let schema = Schema::new(vec![Field::new("v", AttrType::Int)]).unwrap();
        let mut b = RelationBuilder::new(schema).with_shard_rows(shard_rows);
        for i in 0..rows {
            b.push_row(&[i.into()]).unwrap();
        }
        b.finish().unwrap()
    }

    fn codes(vals: &[u32]) -> Chunk {
        Chunk::Codes(vals.to_vec())
    }

    #[test]
    fn single_map_is_one_shard() {
        let r = ints(100, 0);
        let m = r.shards();
        assert_eq!(m.shard_count(), 1);
        assert_eq!(m.bounds(0), (0, 100));
        assert_eq!(m.bounds(1), (100, 100));
        assert!(Arc::ptr_eq(locate(m, 99).unwrap(), &m[0]));
        assert!(locate(m, 100).is_none());
    }

    #[test]
    fn zero_shard_rows_collapses_to_single() {
        // An unsharded base is one segment of any size, and its layout
        // policy round-trips through `resharded(shard_rows())`.
        let r = ints(50, 0);
        assert_eq!(r.shards().shard_count(), 1);
        assert_eq!(r.shards().shard_rows(), 0);
        let copy = r.resharded(r.shards().shard_rows()).unwrap();
        assert_eq!(copy.shards().shard_rows(), 0);
        assert_eq!(copy.shards().bounds(0), (0, 50));
    }

    #[test]
    fn exact_division() {
        let r = ints(30, 10);
        let m = r.shards();
        assert_eq!(m.shard_count(), 3);
        assert_eq!(m.bounds(0), (0, 10));
        assert_eq!(m.bounds(2), (20, 30));
        assert_eq!(m.bounds(3), (30, 30));
        assert_eq!(locate(m, 10).unwrap().start(), 10);
    }

    #[test]
    fn remainder_shard() {
        let r = ints(31, 10);
        assert_eq!(r.shards().shard_count(), 4);
        assert_eq!(r.shards().bounds(3), (30, 31), "last shard holds 1 row");
    }

    #[test]
    fn empty_relation_has_one_empty_shard() {
        for shard_rows in [0, 10] {
            let r = ints(0, shard_rows);
            assert_eq!(r.shards().shard_count(), 1);
            assert_eq!(r.shards().bounds(0), (0, 0));
            assert!(r.shards()[0].is_empty());
        }
    }

    #[test]
    fn summaries_prune_codes_and_ranges() {
        // Rows a a b | c c c split into two segments.
        let s0 = SegmentSummary::build(&[codes(&[0, 0, 1]), Chunk::Int(vec![1, 2, 3])]);
        let s1 = SegmentSummary::build(&[codes(&[2, 2, 2]), Chunk::Int(vec![10, 11, 12])]);
        // Codes: segment 0 holds {a=0, b=1}, segment 1 holds {c=2}.
        assert!(s0.may_have_code(0, 0));
        assert!(s0.may_have_code(0, 1));
        assert!(!s0.may_have_code(0, 2));
        assert!(!s1.may_have_code(0, 0));
        assert!(s1.may_have_any_code(0, &[0, 2]));
        assert!(!s1.may_have_any_code(0, &[0, 1]));
        // Numeric bounds: segment 0 = [1,3], segment 1 = [10,12].
        assert_eq!(s0.numeric_bounds(1), Some((1.0, 3.0)));
        assert_eq!(s1.numeric_bounds(1), Some((10.0, 12.0)));
        assert!(s0.may_overlap_range(1, 2.0, true, 100.0, true));
        assert!(!s0.may_overlap_range(1, 4.0, true, 9.0, true));
        assert!(s1.may_have_value(1, &[11.0]));
        assert!(!s1.may_have_value(1, &[1.0, 9.5]));
        // Categorical attr has no numeric bounds; numeric attr cannot
        // prove code absence — both stay conservative.
        assert_eq!(s0.numeric_bounds(0), None);
        assert!(s0.may_overlap_range(0, 0.0, true, 0.0, true));
        assert!(s0.may_have_code(1, 7));
        assert!(s0.heap_bytes() > 0);
    }

    #[test]
    fn range_boundary_exclusivity() {
        let s = SegmentSummary::build(&[Chunk::Float(vec![5.0, 7.0])]);
        // Interval touching max only at an exclusive endpoint prunes.
        assert!(!s.may_overlap_range(0, 7.0, false, 9.0, true));
        assert!(s.may_overlap_range(0, 7.0, true, 9.0, true));
        assert!(!s.may_overlap_range(0, 1.0, true, 5.0, false));
        assert!(s.may_overlap_range(0, 1.0, true, 5.0, true));
    }

    #[test]
    fn empty_shard_prunes_everything() {
        let s = SegmentSummary::build(&[codes(&[]), Chunk::Int(vec![])]);
        assert!(!s.may_have_code(0, 0));
        assert!(!s.may_overlap_range(1, f64::NEG_INFINITY, true, f64::INFINITY, true));
        assert!(!s.may_have_value(1, &[0.0]));
    }

    #[test]
    fn out_of_range_lookups_stay_conservative() {
        let s = SegmentSummary::build(&[Chunk::Int(vec![1])]);
        assert!(s.may_have_code(5, 0), "unknown attribute: cannot prune");
        assert!(s.may_overlap_range(9, 0.0, true, 0.0, true));
        assert_eq!(s.numeric_bounds(9), None);
    }
}
