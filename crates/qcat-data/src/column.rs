//! Typed columnar storage.
//!
//! Columns are non-nullable: the paper's evaluation dataset uses the
//! non-null attributes of the listing table, and categorization labels
//! partition the full domain, so the storage layer rejects nulls at
//! build time rather than threading validity bitmaps through every
//! partitioner.

use crate::dictionary::Dictionary;
use crate::error::DataError;
use crate::shard::{locate, Segment};
use crate::types::AttrType;
use crate::value::Value;
use std::borrow::Cow;
use std::ops::Range;
use std::sync::Arc;

/// One attribute's values over one segment's rows.
#[derive(Debug, Clone)]
pub enum Chunk {
    /// Dictionary codes of a categorical attribute (the dictionary
    /// lives at relation level, one per attribute).
    Codes(Vec<u32>),
    /// Integer data.
    Int(Vec<i64>),
    /// Float data.
    Float(Vec<f64>),
}

impl Chunk {
    /// Number of rows.
    pub fn len(&self) -> usize {
        match self {
            Chunk::Codes(v) => v.len(),
            Chunk::Int(v) => v.len(),
            Chunk::Float(v) => v.len(),
        }
    }

    /// True when the chunk has no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Numeric value at chunk offset `i` (`Int` widens to `f64`);
    /// `None` for code chunks or out-of-range offsets.
    #[inline]
    pub fn numeric(&self, i: usize) -> Option<f64> {
        match self {
            Chunk::Codes(_) => None,
            Chunk::Int(v) => v.get(i).map(|&x| x as f64),
            Chunk::Float(v) => v.get(i).copied(),
        }
    }

    /// Dictionary code at chunk offset `i`, for code chunks.
    #[inline]
    pub fn code(&self, i: usize) -> Option<u32> {
        match self {
            Chunk::Codes(v) => v.get(i).copied(),
            _ => None,
        }
    }

    /// The concatenation of row ranges of same-variant chunks, as a
    /// new chunk (an empty list yields an empty code chunk).
    pub(crate) fn concat(parts: &[(&Chunk, Range<usize>)]) -> Chunk {
        let rows = parts.iter().map(|(_, r)| r.len()).sum();
        let mut out = match parts.first() {
            Some((Chunk::Int(_), _)) => Chunk::Int(Vec::with_capacity(rows)),
            Some((Chunk::Float(_), _)) => Chunk::Float(Vec::with_capacity(rows)),
            _ => Chunk::Codes(Vec::with_capacity(rows)),
        };
        for (part, range) in parts {
            match (&mut out, part) {
                (Chunk::Codes(a), Chunk::Codes(b)) => a.extend_from_slice(&b[range.clone()]),
                (Chunk::Int(a), Chunk::Int(b)) => a.extend_from_slice(&b[range.clone()]),
                (Chunk::Float(a), Chunk::Float(b)) => a.extend_from_slice(&b[range.clone()]),
                _ => {}
            }
        }
        out
    }

    /// The value at chunk offset `i`; codes resolve through `dict`.
    pub(crate) fn value(&self, dict: Option<&Dictionary>, i: usize) -> Option<Value> {
        match self {
            Chunk::Codes(v) => Some(Value::Str(dict?.value(*v.get(i)?)?.clone())),
            Chunk::Int(v) => v.get(i).map(|&x| Value::Int(x)),
            Chunk::Float(v) => v.get(i).map(|&x| Value::Float(x)),
        }
    }

    /// Heap bytes held by the values.
    pub fn heap_bytes(&self) -> usize {
        match self {
            Chunk::Codes(v) => std::mem::size_of_val(v.as_slice()),
            Chunk::Int(v) => std::mem::size_of_val(v.as_slice()),
            Chunk::Float(v) => std::mem::size_of_val(v.as_slice()),
        }
    }
}

/// Read view of one attribute of a relation, across its segments.
///
/// Row-at-a-time accessors locate the segment per call; bulk readers
/// split an ascending (or any) row-id list into per-segment
/// [`Column::runs`] and loop over plain chunk slices.
#[derive(Debug, Clone, Copy)]
pub struct Column<'a> {
    pub(crate) attr: usize,
    pub(crate) ty: AttrType,
    pub(crate) dict: Option<&'a Dictionary>,
    pub(crate) segments: &'a [Arc<Segment>],
    pub(crate) rows: usize,
}

impl<'a> Column<'a> {
    /// Number of rows.
    pub fn len(&self) -> usize {
        self.rows
    }

    /// True when the column has no rows.
    pub fn is_empty(&self) -> bool {
        self.rows == 0
    }

    /// Declared type of the column.
    pub fn attr_type(&self) -> AttrType {
        self.ty
    }

    /// The dictionary of a categorical column.
    pub fn dictionary(&self) -> Option<&'a Dictionary> {
        self.dict
    }

    /// The chunk holding `row` and the row's offset in it.
    #[inline]
    fn chunk_at(&self, row: usize) -> Option<(&'a Chunk, usize)> {
        let seg = locate(self.segments, row)?;
        Some((&seg.chunks[self.attr], row - seg.start()))
    }

    /// Cell value at `row` (clones out of the dictionary cheaply).
    pub fn get(&self, row: usize) -> Option<Value> {
        let (chunk, i) = self.chunk_at(row)?;
        chunk.value(self.dict, i)
    }

    /// Numeric value at `row` (`Int` widens to `f64`); `None` for
    /// categorical columns or out-of-range rows.
    #[inline]
    pub fn numeric_at(&self, row: usize) -> Option<f64> {
        let (chunk, i) = self.chunk_at(row)?;
        chunk.numeric(i)
    }

    /// Dictionary code at `row` for categorical columns.
    #[inline]
    pub fn code_at(&self, row: usize) -> Option<u32> {
        let (chunk, i) = self.chunk_at(row)?;
        chunk.code(i)
    }

    /// Split `rows` into maximal runs of consecutive entries that fall
    /// in one segment: `(chunk, first row id of the chunk, run)`. Row
    /// `r` of a run sits at chunk offset `r - start`. Any order is
    /// accepted; ascending rows give one run per segment touched. On a
    /// one-segment relation the only run is `rows` as given, so bulk
    /// readers run the same loop they would over one flat column;
    /// otherwise rows past the end of the relation are skipped.
    pub fn runs<'r>(
        &self,
        rows: &'r [u32],
    ) -> impl Iterator<Item = (&'a Chunk, u32, &'r [u32])> + 'r
    where
        'a: 'r,
    {
        let (attr, segments) = (self.attr, self.segments);
        let mut rest = rows;
        std::iter::from_fn(move || loop {
            let &first = rest.first()?;
            let Some(seg) = locate(segments, first as usize) else {
                rest = &rest[1..];
                continue;
            };
            let (start, len) = (seg.start() as u32, seg.len() as u32);
            let inside = |r: u32| r.wrapping_sub(start) < len;
            let mut n = if segments.len() == 1 { rest.len() } else { 0 };
            // Whole blocks first: a branch-free test per block
            // vectorizes, so the scan stays cheap next to the reader.
            while let Some(block) = rest.get(n..n + 64) {
                if !block.iter().fold(true, |all, &r| all & inside(r)) {
                    break;
                }
                n += 64;
            }
            n += rest[n..].iter().position(|&r| !inside(r)).unwrap_or(rest.len() - n);
            let (run, tail) = rest.split_at(n);
            rest = tail;
            return Some((&seg.chunks[attr], start, run));
        })
    }

    /// All values as one slice: borrowed when the relation is one
    /// segment, otherwise an owned concatenation (O(rows); bulk
    /// readers use [`Column::runs`] instead).
    fn flat<T: Clone>(&self, pick: impl Fn(&'a Chunk) -> Option<&'a [T]>) -> Option<Cow<'a, [T]>> {
        match self.segments {
            [only] => pick(&only.chunks[self.attr]).map(Cow::Borrowed),
            segments => {
                let mut out = Vec::with_capacity(self.rows);
                for seg in segments {
                    out.extend_from_slice(pick(&seg.chunks[self.attr])?);
                }
                Some(Cow::Owned(out))
            }
        }
    }

    /// Dictionary + per-row codes for categorical columns. The codes
    /// are borrowed on a one-segment relation and copied otherwise.
    pub fn categorical(&self) -> Option<(&'a Dictionary, Cow<'a, [u32]>)> {
        let codes = self.flat(|c| match c {
            Chunk::Codes(v) => Some(v.as_slice()),
            _ => None,
        })?;
        Some((self.dict?, codes))
    }

    /// Integer values, for integer columns.
    pub fn ints(&self) -> Option<Cow<'a, [i64]>> {
        self.flat(|c| match c {
            Chunk::Int(v) => Some(v.as_slice()),
            _ => None,
        })
    }

    /// Float values, for float columns.
    pub fn floats(&self) -> Option<Cow<'a, [f64]>> {
        self.flat(|c| match c {
            Chunk::Float(v) => Some(v.as_slice()),
            _ => None,
        })
    }

    /// Minimum and maximum numeric value over a set of rows.
    ///
    /// Returns `None` for categorical columns or an empty row set.
    pub fn numeric_min_max(&self, rows: &[u32]) -> Option<(f64, f64)> {
        let mut bounds: Option<(f64, f64)> = None;
        for (chunk, start, run) in self.runs(rows) {
            let mut it = run.iter().filter_map(|&r| chunk.numeric((r - start) as usize));
            let (mut lo, mut hi) = match bounds.or_else(|| it.next().map(|v| (v, v))) {
                Some(b) => b,
                None => continue,
            };
            for v in it {
                if v < lo {
                    lo = v;
                }
                if v > hi {
                    hi = v;
                }
            }
            bounds = Some((lo, hi));
        }
        bounds
    }
}

/// Incremental, type-checked column construction.
#[derive(Debug)]
pub enum ColumnBuilder {
    /// Builds a categorical column: codes plus their dictionary.
    Categorical {
        /// Dictionary under construction.
        dict: Dictionary,
        /// Codes appended so far.
        codes: Vec<u32>,
    },
    /// Builds an integer column.
    Int(Vec<i64>),
    /// Builds a float column.
    Float(Vec<f64>),
}

impl ColumnBuilder {
    /// Builder for the given type, pre-sized for `capacity` rows.
    pub fn with_capacity(ty: AttrType, capacity: usize) -> Self {
        match ty {
            AttrType::Categorical => ColumnBuilder::Categorical {
                dict: Dictionary::new(),
                codes: Vec::with_capacity(capacity),
            },
            AttrType::Int => ColumnBuilder::Int(Vec::with_capacity(capacity)),
            AttrType::Float => ColumnBuilder::Float(Vec::with_capacity(capacity)),
        }
    }

    /// Append one value, checking type compatibility.
    ///
    /// `Int` values are accepted into `Float` columns (widening);
    /// everything else must match exactly. Nulls are rejected — see the
    /// module docs.
    pub fn push(&mut self, attribute: &str, v: &Value) -> Result<(), DataError> {
        let mismatch = |expected: &'static str| DataError::TypeMismatch {
            attribute: attribute.to_string(),
            expected,
            actual: v.type_name(),
        };
        match self {
            ColumnBuilder::Categorical { dict, codes } => match v {
                Value::Str(s) => {
                    codes.push(dict.intern(s));
                    Ok(())
                }
                _ => Err(mismatch("categorical")),
            },
            ColumnBuilder::Int(out) => match v {
                Value::Int(i) => {
                    out.push(*i);
                    Ok(())
                }
                _ => Err(mismatch("int")),
            },
            ColumnBuilder::Float(out) => match v.as_f64() {
                Some(x) if !x.is_nan() => {
                    out.push(x);
                    Ok(())
                }
                Some(_) => Err(DataError::TypeMismatch {
                    attribute: attribute.to_string(),
                    expected: "float",
                    actual: "NaN (not storable: labels partition a totally ordered domain)",
                }),
                None => Err(mismatch("float")),
            },
        }
    }

    /// Rows appended so far.
    pub fn len(&self) -> usize {
        match self {
            ColumnBuilder::Categorical { codes, .. } => codes.len(),
            ColumnBuilder::Int(v) => v.len(),
            ColumnBuilder::Float(v) => v.len(),
        }
    }

    /// True when nothing has been appended.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Split into the column's dictionary (categorical only) and its
    /// values.
    pub(crate) fn into_parts(self) -> (Option<Dictionary>, Chunk) {
        match self {
            ColumnBuilder::Categorical { dict, codes } => (Some(dict), Chunk::Codes(codes)),
            ColumnBuilder::Int(v) => (None, Chunk::Int(v)),
            ColumnBuilder::Float(v) => (None, Chunk::Float(v)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::relation::{Relation, RelationBuilder};
    use crate::types::{AttrId, Field, Schema};

    /// A one-column relation from `values`, split into segments of
    /// `shard_rows` rows (`0` = one segment).
    fn relation(ty: AttrType, values: &[Value], shard_rows: usize) -> Relation {
        let schema = Schema::new(vec![Field::new("c", ty)]).unwrap();
        let mut b = RelationBuilder::new(schema).with_shard_rows(shard_rows);
        for v in values {
            b.push_row(std::slice::from_ref(v)).unwrap();
        }
        b.finish().unwrap()
    }

    fn strs(vals: &[&str]) -> Vec<Value> {
        vals.iter().map(|&v| v.into()).collect()
    }

    #[test]
    fn categorical_roundtrip() {
        for shard_rows in [0, 3] {
            let r = relation(AttrType::Categorical, &strs(&["a", "b", "a", "c"]), shard_rows);
            let c = r.column(AttrId(0));
            assert_eq!(c.len(), 4);
            assert_eq!(c.attr_type(), AttrType::Categorical);
            assert_eq!(c.get(0), Some(Value::from("a")));
            assert_eq!(c.get(3), Some(Value::from("c")));
            assert_eq!(c.code_at(0), c.code_at(2));
            assert_ne!(c.code_at(0), c.code_at(1));
            assert_eq!(c.get(9), None);
            let (dict, codes) = c.categorical().unwrap();
            assert_eq!(dict.len(), 3);
            assert_eq!(&*codes, &[0, 1, 0, 2]);
        }
    }

    #[test]
    fn int_widens_into_float_column() {
        let mut b = ColumnBuilder::with_capacity(AttrType::Float, 2);
        b.push("price", &Value::Int(200_000)).unwrap();
        b.push("price", &Value::Float(250_000.5)).unwrap();
        let (dict, chunk) = b.into_parts();
        assert!(dict.is_none());
        assert_eq!(chunk.numeric(0), Some(200_000.0));
        assert_eq!(chunk.numeric(1), Some(250_000.5));
        assert_eq!(chunk.len(), 2);
    }

    #[test]
    fn type_mismatch_rejected() {
        let mut b = ColumnBuilder::with_capacity(AttrType::Int, 1);
        let err = b.push("beds", &Value::from("three")).unwrap_err();
        assert!(matches!(err, DataError::TypeMismatch { .. }));
        let err = b.push("beds", &Value::Null).unwrap_err();
        assert!(matches!(err, DataError::TypeMismatch { .. }));
        let err = b.push("beds", &Value::Float(3.0)).unwrap_err();
        assert!(matches!(err, DataError::TypeMismatch { .. }));
    }

    #[test]
    fn numeric_min_max_over_rows() {
        let vals: Vec<Value> = [5, 1, 9, 3].iter().map(|&i: &i64| i.into()).collect();
        for shard_rows in [0, 1, 3] {
            let c = relation(AttrType::Int, &vals, shard_rows);
            let c = c.column(AttrId(0));
            assert_eq!(c.numeric_min_max(&[0, 1, 2, 3]), Some((1.0, 9.0)));
            assert_eq!(c.numeric_min_max(&[3, 2, 0]), Some((3.0, 9.0)), "any order");
            assert_eq!(c.numeric_min_max(&[2]), Some((9.0, 9.0)));
            assert_eq!(c.numeric_min_max(&[]), None);
        }
        let cat = relation(AttrType::Categorical, &strs(&["a"]), 0);
        assert_eq!(cat.column(AttrId(0)).numeric_min_max(&[0]), None);
    }

    #[test]
    fn nan_rejected() {
        let mut b = ColumnBuilder::with_capacity(AttrType::Float, 1);
        assert!(b.push("price", &Value::Float(f64::NAN)).is_err());
        assert!(b.push("price", &Value::Float(f64::INFINITY)).is_ok(), "infinities are ordered");
        assert_eq!(b.len(), 1);
    }

    #[test]
    fn runs_split_rows_by_segment_in_any_order() {
        let vals: Vec<Value> = (0..7i64).map(Value::from).collect();
        let r = relation(AttrType::Int, &vals, 3);
        let c = r.column(AttrId(0));
        let runs: Vec<(u32, Vec<u32>)> = c
            .runs(&[0, 2, 3, 6, 1, 9])
            .map(|(_, s, run)| (s, run.to_vec()))
            .collect();
        assert_eq!(
            runs,
            vec![(0, vec![0, 2]), (3, vec![3]), (6, vec![6]), (0, vec![1])]
        );
        let single = relation(AttrType::Int, &vals, 0);
        assert_eq!(single.column(AttrId(0)).runs(&[5, 1]).count(), 1);
    }
}
