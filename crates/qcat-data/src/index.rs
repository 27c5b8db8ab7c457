//! Per-segment secondary indexes and sorted row-id set kernels.
//!
//! The paper assumes the host DBMS executes the selection query
//! cheaply (Section 5); this module is our access-path layer. Every
//! segment of an indexed relation carries one [`ShardIndexes`], holding:
//!
//! - one **postings index** per categorical column: for every
//!   dictionary code, the ascending list of row ids holding that code
//!   (CSR layout — one `u32` per row plus one offset per code);
//! - one **sorted projection** per numeric column: `(value, row id)`
//!   pairs sorted by value, so any interval maps to a contiguous
//!   slice found by binary search.
//!
//! Row ids are **global** (table row ids, not segment-relative), so a
//! segment's lists concatenate in segment order into globally ascending
//! lists with no merge step: segment row ranges are disjoint and
//! increasing. Segments index independently, so `Relation::build_indexes`
//! fans them out as `qcat-pool` morsels, and an append indexes only the
//! segments it rebuilt: sealed segments keep theirs.
//!
//! All set algebra happens on ascending `u32` row-id lists via the
//! first-party kernels [`intersect_sorted`] (galloping for skewed
//! sizes) and [`union_sorted`] (k-way merge). Row-id order equals
//! table order, so index-produced results are bit-compatible with a
//! full scan's.

use crate::column::Chunk;
use crate::types::AttrId;

/// How much larger one list must be before intersection switches
/// from linear merging to galloping probes into the larger list.
const GALLOP_RATIO: usize = 8;

/// Postings index over one categorical column: row ids grouped by
/// dictionary code, each group ascending.
#[derive(Debug, Clone)]
pub struct PostingsIndex {
    /// `offsets[c]..offsets[c + 1]` bounds code `c`'s rows.
    offsets: Vec<u32>,
    /// Row ids, grouped by code, ascending within each group.
    rows: Vec<u32>,
}

impl PostingsIndex {
    /// Build from per-row dictionary codes (covering codes up to the
    /// largest present); stored row ids are offset by `base` so a
    /// segment starting at table row `base` emits global row ids.
    fn build(codes: &[u32], base: u32) -> PostingsIndex {
        let top = codes.iter().max().map_or(0, |&c| c as usize + 1);
        let mut counts = vec![0u32; top + 1];
        for &c in codes {
            counts[c as usize + 1] += 1;
        }
        for i in 1..counts.len() {
            counts[i] += counts[i - 1];
        }
        let offsets = counts.clone();
        let mut cursor = counts;
        let mut rows = vec![0u32; codes.len()];
        for (row, &c) in codes.iter().enumerate() {
            rows[cursor[c as usize] as usize] = base + row as u32;
            cursor[c as usize] += 1;
        }
        PostingsIndex { offsets, rows }
    }

    /// Ascending row ids holding dictionary code `code` (empty for
    /// out-of-range codes).
    pub fn rows_for_code(&self, code: u32) -> &[u32] {
        let c = code as usize;
        if c + 1 >= self.offsets.len() {
            return &[];
        }
        &self.rows[self.offsets[c] as usize..self.offsets[c + 1] as usize]
    }

    /// Number of rows holding `code` — an exact per-value cardinality,
    /// free of charge for the access-path planner.
    pub fn count_for_code(&self, code: u32) -> usize {
        self.rows_for_code(code).len()
    }

    /// Number of codes the index covers (the largest present + 1).
    pub fn distinct(&self) -> usize {
        self.offsets.len().saturating_sub(1)
    }

    /// Heap bytes held by this index.
    pub fn heap_bytes(&self) -> usize {
        (self.offsets.len() + self.rows.len()) * std::mem::size_of::<u32>()
    }
}

/// Sorted projection of one numeric column: values ascending, row id
/// as tiebreak, answerable by binary search.
#[derive(Debug, Clone)]
pub struct SortedIndex {
    vals: Vec<f64>,
    rows: Vec<u32>,
}

impl SortedIndex {
    /// Build from an `f64` view of the column (NaN is unrepresentable
    /// in qcat columns, so `total_cmp` agrees with `<` here); stored
    /// row ids are offset by `base` for shard builds.
    fn build(values: impl Iterator<Item = f64>, base: u32) -> SortedIndex {
        let mut pairs: Vec<(f64, u32)> = values
            .enumerate()
            .map(|(row, v)| (v, base + row as u32))
            .collect();
        pairs.sort_unstable_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        SortedIndex {
            vals: pairs.iter().map(|p| p.0).collect(),
            rows: pairs.iter().map(|p| p.1).collect(),
        }
    }

    /// Bounds of the slice whose values lie inside the interval
    /// described by `(lo, lo_inclusive, hi, hi_inclusive)`.
    fn bounds(&self, lo: f64, lo_inclusive: bool, hi: f64, hi_inclusive: bool) -> (usize, usize) {
        let start = if lo_inclusive {
            self.vals.partition_point(|&v| v < lo)
        } else {
            self.vals.partition_point(|&v| v <= lo)
        };
        let end = if hi_inclusive {
            self.vals.partition_point(|&v| v <= hi)
        } else {
            self.vals.partition_point(|&v| v < hi)
        };
        (start, end.max(start))
    }

    /// Exact number of rows inside the interval — two binary searches.
    pub fn count_in(&self, lo: f64, lo_inclusive: bool, hi: f64, hi_inclusive: bool) -> usize {
        let (start, end) = self.bounds(lo, lo_inclusive, hi, hi_inclusive);
        end - start
    }

    /// The contiguous projection slice of rows inside the interval,
    /// **borrowed** — no allocation per probe. The slice is ordered by
    /// `(value, row id)`, so it is row-ascending only when it spans a
    /// single value; callers that need table order over a multi-value
    /// interval copy and sort once per probe (see `qcat-exec::plan`).
    pub fn slice_in(&self, lo: f64, lo_inclusive: bool, hi: f64, hi_inclusive: bool) -> &[u32] {
        let (start, end) = self.bounds(lo, lo_inclusive, hi, hi_inclusive);
        &self.rows[start..end]
    }

    /// Exact number of rows equal to `v`.
    pub fn count_eq(&self, v: f64) -> usize {
        self.count_in(v, true, v, true)
    }

    /// Row ids equal to `v`, borrowed. Within one value the sort
    /// tiebreaks on row id, so an equal-range slice is already
    /// **ascending row ids** — usable directly by the merge kernels.
    pub fn slice_eq(&self, v: f64) -> &[u32] {
        self.slice_in(v, true, v, true)
    }

    /// Number of indexed rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True when the column had no rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Heap bytes held by this index.
    pub fn heap_bytes(&self) -> usize {
        self.vals.len() * std::mem::size_of::<f64>()
            + self.rows.len() * std::mem::size_of::<u32>()
    }
}

/// Per-attribute index, matching the column's physical type.
#[derive(Debug, Clone)]
pub enum AttrIndex {
    /// Postings over a categorical column.
    Postings(PostingsIndex),
    /// Sorted projection over a numeric column.
    Sorted(SortedIndex),
}

/// The indexes of one segment: one [`AttrIndex`] per column, covering
/// the segment's rows with global row ids.
#[derive(Debug, Clone)]
pub struct ShardIndexes {
    per_attr: Vec<AttrIndex>,
}

impl ShardIndexes {
    /// Index every chunk of a segment whose first row is table row
    /// `start`.
    pub(crate) fn build(chunks: &[Chunk], start: usize) -> ShardIndexes {
        let base = start as u32;
        let per_attr = chunks
            .iter()
            .map(|chunk| match chunk {
                Chunk::Codes(codes) => AttrIndex::Postings(PostingsIndex::build(codes, base)),
                Chunk::Int(v) => {
                    AttrIndex::Sorted(SortedIndex::build(v.iter().map(|&i| i as f64), base))
                }
                Chunk::Float(v) => AttrIndex::Sorted(SortedIndex::build(v.iter().copied(), base)),
            })
            .collect();
        ShardIndexes { per_attr }
    }

    /// The index on attribute `id`, if `id` is in range.
    pub fn attr(&self, id: AttrId) -> Option<&AttrIndex> {
        self.per_attr.get(id.index())
    }

    /// The postings index on `id`, when `id` is a categorical column.
    pub fn postings(&self, id: AttrId) -> Option<&PostingsIndex> {
        match self.per_attr.get(id.index()) {
            Some(AttrIndex::Postings(p)) => Some(p),
            _ => None,
        }
    }

    /// The sorted projection on `id`, when `id` is a numeric column.
    pub fn sorted(&self, id: AttrId) -> Option<&SortedIndex> {
        match self.per_attr.get(id.index()) {
            Some(AttrIndex::Sorted(s)) => Some(s),
            _ => None,
        }
    }

    /// Heap bytes held by this shard's indexes.
    pub fn heap_bytes(&self) -> usize {
        self.per_attr
            .iter()
            .map(|a| match a {
                AttrIndex::Postings(p) => p.heap_bytes(),
                AttrIndex::Sorted(s) => s.heap_bytes(),
            })
            .sum()
    }
}

/// Intersection of two ascending row-id lists.
///
/// Linear merge for comparable sizes; when one list is more than
/// `GALLOP_RATIO` (8)× the other, gallops (exponential probe + binary
/// search) through the larger list instead, giving
/// `O(small · log large)`.
pub fn intersect_sorted(a: &[u32], b: &[u32]) -> Vec<u32> {
    let (small, large) = if a.len() <= b.len() { (a, b) } else { (b, a) };
    if small.is_empty() {
        return Vec::new();
    }
    let mut out = Vec::with_capacity(small.len());
    if large.len() / GALLOP_RATIO > small.len() {
        let mut lo = 0usize;
        for &x in small {
            lo += gallop_to(&large[lo..], x);
            if lo >= large.len() {
                break;
            }
            if large[lo] == x {
                out.push(x);
                lo += 1;
            }
        }
    } else {
        let (mut i, mut j) = (0usize, 0usize);
        while i < small.len() && j < large.len() {
            match small[i].cmp(&large[j]) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    out.push(small[i]);
                    i += 1;
                    j += 1;
                }
            }
        }
    }
    out
}

/// Offset of the first element of `hay` that is `>= x`, found by
/// exponential probing followed by a binary search of the bracketed
/// window.
fn gallop_to(hay: &[u32], x: u32) -> usize {
    if hay.first().is_none_or(|&h| h >= x) {
        return 0;
    }
    let mut step = 1usize;
    let mut lo = 0usize;
    while lo + step < hay.len() && hay[lo + step] < x {
        lo += step;
        step *= 2;
    }
    let hi = (lo + step + 1).min(hay.len());
    lo + hay[lo..hi].partition_point(|&h| h < x)
}

/// Union of many ascending row-id lists into one ascending,
/// deduplicated list (k-way merge; two-list merges take the linear
/// fast path).
pub fn union_sorted(lists: &[&[u32]]) -> Vec<u32> {
    match lists.len() {
        0 => Vec::new(),
        1 => lists[0].to_vec(),
        2 => union2(lists[0], lists[1]),
        _ => {
            // Repeated pairwise merging, smallest pairs first, keeps
            // total work near O(n log k) without a heap.
            let mut work: Vec<Vec<u32>> = lists.iter().map(|l| l.to_vec()).collect();
            work.sort_by_key(Vec::len);
            while work.len() > 1 {
                let a = work.remove(0);
                let b = work.remove(0);
                let merged = union2(&a, &b);
                let at = work.partition_point(|w| w.len() < merged.len());
                work.insert(at, merged);
            }
            work.pop().unwrap_or_default()
        }
    }
}

fn union2(a: &[u32], b: &[u32]) -> Vec<u32> {
    let mut out = Vec::with_capacity(a.len() + b.len());
    let (mut i, mut j) = (0usize, 0usize);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => {
                out.push(a[i]);
                i += 1;
            }
            std::cmp::Ordering::Greater => {
                out.push(b[j]);
                j += 1;
            }
            std::cmp::Ordering::Equal => {
                out.push(a[i]);
                i += 1;
                j += 1;
            }
        }
    }
    out.extend_from_slice(&a[i..]);
    out.extend_from_slice(&b[j..]);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::relation::{Relation, RelationBuilder};
    use crate::types::{AttrType, Field, Schema};
    use qcat_pool::PoolError;

    /// Codes of `vals`, interned in first-seen order.
    fn cat(vals: &[&str]) -> Chunk {
        let mut dict = crate::Dictionary::new();
        Chunk::Codes(vals.iter().map(|v| dict.intern(v)).collect())
    }

    /// One-segment indexes over `chunks`.
    fn build(chunks: &[Chunk]) -> ShardIndexes {
        ShardIndexes::build(chunks, 0)
    }

    /// A (categorical, int) relation in segments of `shard_rows`.
    fn relation(cats: &[&str], ints: &[i64], shard_rows: usize) -> Relation {
        let schema = Schema::new(vec![
            Field::new("c", AttrType::Categorical),
            Field::new("i", AttrType::Int),
        ])
        .unwrap();
        let mut b = RelationBuilder::new(schema).with_shard_rows(shard_rows);
        for (c, i) in cats.iter().zip(ints) {
            b.push_row(&[(*c).into(), (*i).into()]).unwrap();
        }
        b.finish().unwrap()
    }

    /// Collect a borrowed interval slice into ascending row ids, the
    /// way segment-aware callers do.
    fn rows_in(s: &SortedIndex, lo: f64, li: bool, hi: f64, hi_inc: bool) -> Vec<u32> {
        let mut out = s.slice_in(lo, li, hi, hi_inc).to_vec();
        out.sort_unstable();
        out
    }

    #[test]
    fn postings_group_rows_by_code() {
        let set = build(&[cat(&["a", "b", "a", "c", "b", "a"])]);
        let p = set.postings(AttrId(0)).unwrap();
        assert_eq!(p.distinct(), 3);
        // Codes intern in first-seen order: a=0, b=1, c=2.
        assert_eq!(p.rows_for_code(0), &[0, 2, 5]);
        assert_eq!(p.rows_for_code(1), &[1, 4]);
        assert_eq!(p.rows_for_code(2), &[3]);
        assert_eq!(p.rows_for_code(9), &[] as &[u32]);
        assert_eq!(p.count_for_code(0), 3);
        assert!(p.heap_bytes() > 0);
        assert!(set.sorted(AttrId(0)).is_none());
    }

    #[test]
    fn sorted_index_answers_ranges() {
        let set = build(&[Chunk::Float(vec![5.0, 1.0, 3.0, 3.0, 9.0])]);
        let s = set.sorted(AttrId(0)).unwrap();
        assert_eq!(s.len(), 5);
        assert!(!s.is_empty());
        assert_eq!(rows_in(s, 3.0, true, 5.0, true), vec![0, 2, 3]);
        assert_eq!(rows_in(s, 3.0, false, 5.0, true), vec![0]);
        assert_eq!(rows_in(s, 3.0, true, 5.0, false), vec![2, 3]);
        assert_eq!(s.count_in(f64::NEG_INFINITY, false, f64::INFINITY, false), 5);
        assert_eq!(s.slice_eq(3.0), &[2, 3], "equal range is row-ascending");
        assert_eq!(s.count_eq(7.0), 0);
        // Degenerate (empty) interval.
        assert_eq!(s.count_in(5.0, true, 3.0, true), 0);
        assert_eq!(s.slice_in(5.0, false, 5.0, false), &[] as &[u32]);
    }

    #[test]
    fn slice_probes_borrow_without_allocating() {
        let set = build(&[Chunk::Float(vec![2.0, 1.0, 2.0, 3.0])]);
        let s = set.sorted(AttrId(0)).unwrap();
        // Two probes of the same interval return the same backing
        // slice — pointer equality proves no per-probe copy.
        let a = s.slice_in(1.0, true, 3.0, true);
        let b = s.slice_in(1.0, true, 3.0, true);
        assert_eq!(a.as_ptr(), b.as_ptr());
        assert_eq!(a.len(), 4);
        assert_eq!(s.slice_eq(2.0), &[0, 2]);
    }

    #[test]
    fn int_columns_get_sorted_indexes() {
        let set = build(&[Chunk::Int(vec![4, 2, 2, 8])]);
        let s = set.sorted(AttrId(0)).unwrap();
        assert_eq!(s.slice_eq(2.0), &[1, 2]);
        assert_eq!(rows_in(s, 3.0, true, 10.0, true), vec![0, 3]);
        assert!(set.postings(AttrId(0)).is_none());
        assert!(set.attr(AttrId(1)).is_none());
    }

    #[test]
    fn sharded_build_matches_serial_with_global_ids() {
        let cats = ["a", "b", "a", "c", "b", "a", "c"];
        let ints = [4, 2, 2, 8, 1, 9, 2];
        let serial = relation(&cats, &ints, 3);
        serial.try_build_indexes(1).unwrap();
        for threads in [2, 8] {
            let parallel = relation(&cats, &ints, 3);
            parallel.try_build_indexes(threads).unwrap();
            assert_eq!(parallel.shards().shard_count(), 3, "threads={threads}");
            for (s, (a, b)) in serial
                .shards()
                .iter()
                .zip(parallel.shards().iter())
                .enumerate()
            {
                let (a, b) = (a.indexes().unwrap(), b.indexes().unwrap());
                let (pa, pb) = (
                    a.postings(AttrId(0)).unwrap(),
                    b.postings(AttrId(0)).unwrap(),
                );
                for code in 0..3 {
                    assert_eq!(pa.rows_for_code(code), pb.rows_for_code(code), "shard {s}");
                }
                let (sa, sb) = (a.sorted(AttrId(1)).unwrap(), b.sorted(AttrId(1)).unwrap());
                assert_eq!(
                    sa.slice_in(f64::NEG_INFINITY, true, f64::INFINITY, true),
                    sb.slice_in(f64::NEG_INFINITY, true, f64::INFINITY, true),
                    "shard {s}"
                );
            }
        }
        // Global ids: segment 1 covers rows 3..6; code c=2 appears at 3.
        let p = serial.shards()[1]
            .indexes()
            .unwrap()
            .postings(AttrId(0))
            .unwrap();
        assert_eq!(p.rows_for_code(2), &[3]);
        // Concatenating per-segment eq-slices in segment order is
        // globally ascending (value 2 lives at rows 1, 2, 6).
        let mut concat = Vec::new();
        for seg in serial.shards().iter() {
            concat.extend_from_slice(
                seg.indexes()
                    .unwrap()
                    .sorted(AttrId(1))
                    .unwrap()
                    .slice_eq(2.0),
            );
        }
        assert_eq!(concat, vec![1, 2, 6]);
    }

    #[test]
    fn sharded_build_honors_budget() {
        let ints: Vec<i64> = (0..100).collect();
        let cats = vec!["x"; 100];
        let gas = qcat_fault::Budget::UNLIMITED
            .with_deadline(std::time::Duration::ZERO)
            .start();
        for threads in [1, 4] {
            let r = relation(&cats, &ints, 10);
            let err = qcat_fault::with_budget(&gas, || r.try_build_indexes(threads).unwrap_err());
            assert!(
                matches!(err, PoolError::Cancelled(qcat_fault::BudgetExceeded::Deadline)),
                "threads={threads}"
            );
            assert!(
                !r.has_indexes(),
                "a refused build leaves no partial index set"
            );
        }
    }

    #[test]
    fn empty_relation_builds_one_empty_shard() {
        let r = relation(&[], &[], 0);
        r.build_indexes();
        assert_eq!(r.shards().shard_count(), 1);
        assert!(r.shards()[0]
            .indexes()
            .unwrap()
            .sorted(AttrId(1))
            .unwrap()
            .is_empty());
    }

    #[test]
    fn intersect_merge_and_gallop_agree() {
        let a: Vec<u32> = (0..400).step_by(7).collect();
        let b: Vec<u32> = (0..400).step_by(3).collect();
        let expect: Vec<u32> = (0..400).step_by(21).collect();
        assert_eq!(intersect_sorted(&a, &b), expect);
        // Force the galloping path with a very skewed pair.
        let small = vec![0u32, 21, 42, 399];
        let big: Vec<u32> = (0..400).collect();
        assert_eq!(intersect_sorted(&small, &big), vec![0, 21, 42, 399]);
        assert_eq!(intersect_sorted(&big, &small), vec![0, 21, 42, 399]);
        assert_eq!(intersect_sorted(&[], &big), Vec::<u32>::new());
        assert_eq!(intersect_sorted(&small, &[]), Vec::<u32>::new());
        // Probe beyond the end of the large list.
        assert_eq!(intersect_sorted(&[1000], &big), Vec::<u32>::new());
    }

    #[test]
    fn union_merges_and_dedups() {
        assert_eq!(union_sorted(&[]), Vec::<u32>::new());
        assert_eq!(union_sorted(&[&[1, 3]]), vec![1, 3]);
        assert_eq!(union_sorted(&[&[1, 3], &[2, 3, 5]]), vec![1, 2, 3, 5]);
        let lists: [&[u32]; 4] = [&[9], &[0, 4, 8], &[4, 5], &[1, 9]];
        assert_eq!(union_sorted(&lists), vec![0, 1, 4, 5, 8, 9]);
    }

    #[test]
    fn gallop_to_bounds() {
        let hay: Vec<u32> = vec![2, 4, 6, 8, 10];
        assert_eq!(gallop_to(&hay, 1), 0);
        assert_eq!(gallop_to(&hay, 2), 0);
        assert_eq!(gallop_to(&hay, 5), 2);
        assert_eq!(gallop_to(&hay, 10), 4);
        assert_eq!(gallop_to(&hay, 11), 5);
        assert_eq!(gallop_to(&[], 3), 0);
    }

    #[test]
    fn heap_bytes_accumulate() {
        let set = build(&[cat(&["a", "b"]), Chunk::Int(vec![1, 2])]);
        assert_eq!(
            set.heap_bytes(),
            set.postings(AttrId(0)).unwrap().heap_bytes()
                + set.sorted(AttrId(1)).unwrap().heap_bytes()
        );
        let r = relation(&["a", "b"], &[1, 2], 1);
        r.build_indexes();
        let index_bytes: usize = r
            .shards()
            .iter()
            .map(|s| s.indexes().unwrap().heap_bytes())
            .sum();
        assert!(index_bytes > 0);
        assert!(
            r.heap_bytes() > index_bytes,
            "chunks and summaries count too"
        );
    }
}
