//! Immutable columnar relations and their builder.

use crate::column::{Chunk, Column, ColumnBuilder};
use crate::dictionary::Dictionary;
use crate::error::DataError;
use crate::index::ShardIndexes;
use crate::shard::{locate, Segment, SegmentSummary, Segments};
use crate::types::{AttrId, Schema};
use crate::value::Value;
use qcat_pool::{PoolError, ThreadPool};
use std::fmt;
use std::sync::Arc;

/// An immutable table: a schema, one dictionary per categorical
/// attribute, and an ordered list of [`Segment`]s holding the rows.
///
/// Relations are wrapped in `Arc` internally so cloning is cheap and
/// result sets / category trees can hold a handle without lifetimes.
/// Segments are shared by `Arc` too, so generations produced by
/// appends share every sealed segment.
#[derive(Clone)]
pub struct Relation {
    inner: Arc<RelationInner>,
}

struct RelationInner {
    schema: Schema,
    /// Per-attribute dictionary (`None` for numeric attributes),
    /// append-only across generations: codes never change.
    dicts: Vec<Option<Arc<Dictionary>>>,
    segments: Segments,
    rows: usize,
}

/// Seal `chunks` — rows starting at table row `start` — into segments
/// of at most `step` rows. Rows that fit one segment move without a
/// copy.
fn cut(start: usize, chunks: Vec<Chunk>, step: usize) -> Vec<Segment> {
    let rows = chunks.first().map_or(0, Chunk::len);
    if rows <= step {
        return vec![Segment::new(start, chunks)];
    }
    (0..rows)
        .step_by(step)
        .map(|s| {
            let range = s..(s + step).min(rows);
            let part = chunks.iter().map(|c| Chunk::concat(&[(c, range.clone())])).collect();
            Segment::new(start + s, part)
        })
        .collect()
}

impl Relation {
    /// Build a one-segment relation from pre-built columns; validates
    /// lengths.
    pub fn from_columns(schema: Schema, columns: Vec<ColumnBuilder>) -> Result<Self, DataError> {
        Relation::from_columns_sharded(schema, columns, 0)
    }

    /// Build a relation from pre-built columns, split into segments of
    /// `shard_rows` rows (`0` = one segment). Every segment's pruning
    /// summary is built here, in one pass.
    pub fn from_columns_sharded(
        schema: Schema,
        columns: Vec<ColumnBuilder>,
        shard_rows: usize,
    ) -> Result<Self, DataError> {
        if columns.len() != schema.len() {
            return Err(DataError::ColumnLengthMismatch {
                attribute: "<schema>".into(),
                expected: schema.len(),
                actual: columns.len(),
            });
        }
        let rows = columns.first().map_or(0, ColumnBuilder::len);
        for (field, col) in schema.fields().iter().zip(&columns) {
            if col.len() != rows {
                return Err(DataError::ColumnLengthMismatch {
                    attribute: field.name.clone(),
                    expected: rows,
                    actual: col.len(),
                });
            }
        }
        let (dicts, chunks) = columns
            .into_iter()
            .map(|c| {
                let (dict, chunk) = c.into_parts();
                (dict.map(Arc::new), chunk)
            })
            .unzip();
        Ok(Relation::assemble(schema, dicts, chunks, shard_rows))
    }

    /// Lay whole-table `chunks` out as segments of `shard_rows` rows
    /// (`0` = one segment of every row).
    fn assemble(
        schema: Schema,
        dicts: Vec<Option<Arc<Dictionary>>>,
        chunks: Vec<Chunk>,
        shard_rows: usize,
    ) -> Relation {
        let rows = chunks.first().map_or(0, Chunk::len);
        let step = if shard_rows == 0 { rows } else { shard_rows };
        let list = cut(0, chunks, step).into_iter().map(Arc::new).collect();
        Relation {
            inner: Arc::new(RelationInner {
                schema,
                dicts,
                segments: Segments { shard_rows, list },
                rows,
            }),
        }
    }

    /// Stage an append batch against this relation. Rows pushed into
    /// the returned [`TailAppend`] are invisible until
    /// [`TailAppend::commit`] returns a *new* [`Relation`]; this
    /// handle is never mutated, so abandoning or failing a batch
    /// leaves every existing reader byte-identical to pre-batch state.
    pub fn begin_append(&self) -> TailAppend {
        let builders = self
            .inner
            .schema
            .fields()
            .iter()
            .zip(&self.inner.dicts)
            .map(|(field, dict)| match dict {
                // Seed categorical builders with a clone of the base
                // dictionary so tail rows intern to codes consistent
                // with the base encoding (existing values reuse their
                // code, new values extend the dictionary).
                Some(dict) => ColumnBuilder::Categorical {
                    dict: Dictionary::clone(dict),
                    codes: Vec::new(),
                },
                None => ColumnBuilder::with_capacity(field.ty, 0),
            })
            .collect();
        TailAppend {
            base: self.clone(),
            builders,
        }
    }

    /// The relation's segments, in row order, with their layout
    /// policy.
    pub fn shards(&self) -> &Segments {
        &self.inner.segments
    }

    /// True when every segment carries its indexes.
    pub fn has_indexes(&self) -> bool {
        self.inner.segments.iter().all(|s| s.indexes().is_some())
    }

    /// Build the secondary indexes of every segment that lacks them,
    /// fanning segments out as `qcat-pool` morsels at auto thread
    /// width.
    ///
    /// Idempotent, thread-safe, and infallible: index building is an
    /// idempotent shared investment, so if the morsel build is refused
    /// (tripped budget, injected fault) this falls back to a serial,
    /// checkpoint-free build rather than failing. Budget-aware callers
    /// use [`Relation::try_build_indexes`] to get the refusal instead.
    pub fn build_indexes(&self) {
        if self.try_build_indexes(0).is_err() {
            for seg in self.inner.segments.iter() {
                seg.indexes
                    .get_or_init(|| ShardIndexes::build(&seg.chunks, seg.start()));
            }
        }
    }

    /// Fallible [`Relation::build_indexes`] at an explicit thread
    /// width (`0` = auto): surfaces budget exhaustion and injected
    /// faults from the per-segment morsels instead of falling back.
    /// Morsels are weighed by rows, so a light build runs inline. A
    /// refused build installs nothing.
    pub fn try_build_indexes(&self, threads: usize) -> Result<(), PoolError> {
        let missing: Vec<(usize, &Arc<Segment>)> = (self.inner.segments.iter().enumerate())
            .filter(|(_, s)| s.indexes().is_none())
            .collect();
        if missing.is_empty() {
            return Ok(());
        }
        let rows = missing.iter().map(|(_, s)| s.len() as u64).sum();
        let pool = ThreadPool::new(threads);
        let mut span = qcat_obs::span!(
            "data.index.build",
            columns = self.inner.schema.len(),
            shards = missing.len(),
            threads = pool.width_for(rows)
        );
        let built = pool.try_map_work(&missing, rows, |_, &(i, seg)| {
            let _item = qcat_obs::span!("data.index.shard", shard = i, rows = seg.len());
            ShardIndexes::build(&seg.chunks, seg.start())
        })?;
        for ((_, seg), ix) in missing.iter().zip(built) {
            let _ = seg.indexes.set(ix);
        }
        if qcat_obs::active() {
            span.set("heap_bytes", self.heap_bytes());
        }
        Ok(())
    }

    /// A new relation over copies of this relation's rows, split into
    /// segments of `shard_rows` rows (`0` = one segment). Dictionaries
    /// are shared; indexes do **not** carry over (the result starts
    /// index-free). `r.resharded(r.shards().shard_rows())` copies `r`
    /// under the same layout policy. Benches and equivalence tests use
    /// this to compare layouts over byte-identical data.
    pub fn resharded(&self, shard_rows: usize) -> Result<Relation, DataError> {
        let segments = &self.inner.segments;
        let chunks = (0..self.inner.schema.len())
            .map(|a| {
                let parts: Vec<_> = segments.iter().map(|s| (&s.chunks[a], 0..s.len())).collect();
                Chunk::concat(&parts)
            })
            .collect();
        let (schema, dicts) = (self.inner.schema.clone(), self.inner.dicts.clone());
        Ok(Relation::assemble(schema, dicts, chunks, shard_rows))
    }

    /// The schema.
    pub fn schema(&self) -> &Schema {
        &self.inner.schema
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.inner.rows
    }

    /// True when the relation holds no rows.
    pub fn is_empty(&self) -> bool {
        self.inner.rows == 0
    }

    /// Column of attribute `id`.
    pub fn column(&self, id: AttrId) -> Column<'_> {
        let attr = id.index();
        Column {
            attr,
            ty: self.inner.schema.fields()[attr].ty,
            dict: self.inner.dicts[attr].as_deref(),
            segments: &self.inner.segments,
            rows: self.inner.rows,
        }
    }

    /// Column by attribute name.
    pub fn column_by_name(&self, name: &str) -> Result<Column<'_>, DataError> {
        Ok(self.column(self.inner.schema.resolve(name)?))
    }

    /// Cell value.
    pub fn value(&self, row: usize, id: AttrId) -> Result<Value, DataError> {
        self.column(id).get(row).ok_or(DataError::RowOutOfRange {
            row,
            len: self.inner.rows,
        })
    }

    /// One full row as values, in schema order.
    pub fn row(&self, row: usize) -> Result<Vec<Value>, DataError> {
        let out_of_range = DataError::RowOutOfRange {
            row,
            len: self.inner.rows,
        };
        let Some(seg) = locate(&self.inner.segments, row) else {
            return Err(out_of_range);
        };
        let i = row - seg.start();
        seg.chunks
            .iter()
            .zip(&self.inner.dicts)
            .map(|(chunk, dict)| chunk.value(dict.as_deref(), i).ok_or(out_of_range.clone()))
            .collect()
    }

    /// All row ids, `0..len`, as the `u32` ids used throughout qcat.
    pub fn all_row_ids(&self) -> Vec<u32> {
        (0..self.inner.rows as u32).collect()
    }

    /// True when the two handles share storage.
    pub fn same_table(&self, other: &Relation) -> bool {
        Arc::ptr_eq(&self.inner, &other.inner)
    }

    /// Heap bytes held by the segments (chunks, summaries, built
    /// indexes). Generations share sealed segments; to total several
    /// generations, sum [`Segment::heap_bytes`] once per distinct
    /// segment `Arc`.
    pub fn heap_bytes(&self) -> usize {
        self.inner.segments.iter().map(|s| s.heap_bytes()).sum()
    }
}

impl fmt::Debug for Relation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Relation({} rows x {} cols)",
            self.inner.rows,
            self.inner.schema.len()
        )
    }
}

/// A staged append batch: rows pushed here are invisible until
/// [`TailAppend::commit`] produces a new [`Relation`]. The base
/// relation is never touched, so rollback (dropping this value, or a
/// failed commit) is byte-identical to pre-batch state by construction.
#[derive(Debug)]
pub struct TailAppend {
    base: Relation,
    builders: Vec<ColumnBuilder>,
}

/// The outcome of a committed append: the grown relation plus a
/// digest of exactly what changed, for selective cache invalidation.
#[derive(Debug)]
pub struct AppendCommit {
    /// The relation with the batch applied (base rows first, appended
    /// rows after, in push order).
    pub relation: Relation,
    /// Row id of the first appended row (== base row count).
    pub first_row: usize,
    /// Number of rows the batch appended.
    pub added: usize,
    /// Per-column min/max/code-presence digest of the appended rows.
    /// Codes refer to the *committed* relation's dictionaries.
    pub delta: SegmentSummary,
}

impl TailAppend {
    /// The relation this batch was staged against.
    pub fn base(&self) -> &Relation {
        &self.base
    }

    /// Rows staged so far.
    pub fn staged(&self) -> usize {
        self.builders.first().map_or(0, ColumnBuilder::len)
    }

    /// Stage one row given values in schema order. Validates the whole
    /// row before touching any builder, so a failed push stages
    /// nothing (all columns stay the same length).
    pub fn push_row(&mut self, values: &[Value]) -> Result<(), DataError> {
        let schema = self.base.schema().clone();
        validate_row(&schema, values)?;
        for (i, v) in values.iter().enumerate() {
            self.builders[i].push(&schema.fields()[i].name, v)?;
        }
        Ok(())
    }

    /// Commit the staged batch: assemble a **new** relation holding
    /// base rows plus the tail, in O(tail) work and memory.
    ///
    /// - Every sealed segment of the base carries over by `Arc`:
    ///   columns, summary and indexes, with no copy.
    /// - The open tail (a last segment below the seal size: the
    ///   requested rows per segment, or
    ///   [`SEGMENT_ROWS`](crate::shard::SEGMENT_ROWS) when unsharded)
    ///   is rebuilt from its rows plus the batch and sealed at that
    ///   size. An unsharded base bigger than the seal size is itself
    ///   sealed, so its first append starts a new tail.
    /// - Dictionaries the batch did not extend stay shared.
    /// - Rebuilt segments are indexed only when the base was indexed.
    /// - Fault sites `data.append` (before assembly) and
    ///   `data.index.delta` (before the tail index build) abort the
    ///   commit with [`DataError::Fault`]; the base relation is
    ///   untouched either way.
    pub fn commit(self) -> Result<AppendCommit, DataError> {
        if let Some(fault) = qcat_fault::point("data.append") {
            return Err(DataError::Fault { site: fault.site });
        }
        let base = &self.base.inner;
        let added = self.staged();
        let first_row = base.rows;
        let mut span = qcat_obs::span!("data.append.commit", base_rows = base.rows, added = added);
        let mut dicts = Vec::with_capacity(base.dicts.len());
        let mut delta = Vec::with_capacity(base.dicts.len());
        for (old, builder) in base.dicts.iter().zip(self.builders) {
            let (dict, chunk) = builder.into_parts();
            dicts.push(match (old, dict) {
                (Some(old), Some(d)) if d.len() == old.len() => Some(Arc::clone(old)),
                (_, d) => d.map(Arc::new),
            });
            delta.push(chunk);
        }
        let summary = SegmentSummary::build(&delta);
        let indexed = self.base.has_indexes();
        if indexed {
            if let Some(fault) = qcat_fault::point("data.index.delta") {
                return Err(DataError::Fault { site: fault.site });
            }
        }
        let seal = base.segments.seal_rows();
        let mut list = base.segments.to_vec();
        if added > 0 {
            let open = match list.last() {
                Some(last) if last.len() < seal => list.pop(),
                _ => None,
            };
            let (start, rows) = match open {
                Some(open) => {
                    let rows = open.chunks.iter().zip(&delta);
                    let concat = |(old, new): (&Chunk, &Chunk)| {
                        Chunk::concat(&[(old, 0..old.len()), (new, 0..added)])
                    };
                    (open.start(), rows.map(concat).collect())
                }
                None => (first_row, delta),
            };
            let fresh = cut(start, rows, seal);
            if qcat_obs::active() {
                span.set("dirty_shards", fresh.len());
            }
            for seg in fresh {
                if indexed {
                    let _ = seg.indexes.set(ShardIndexes::build(&seg.chunks, seg.start()));
                }
                list.push(Arc::new(seg));
            }
        }
        let relation = Relation {
            inner: Arc::new(RelationInner {
                schema: base.schema.clone(),
                dicts,
                segments: Segments { shard_rows: base.segments.shard_rows, list },
                rows: first_row + added,
            }),
        };
        Ok(AppendCommit { relation, first_row, added, delta: summary })
    }
}

/// Validate one row of `values` against `schema` without mutating
/// anything — shared by [`RelationBuilder::push_row`] and
/// [`TailAppend::push_row`] so both are all-or-nothing per row.
fn validate_row(schema: &Schema, values: &[Value]) -> Result<(), DataError> {
    if values.len() != schema.len() {
        return Err(DataError::ColumnLengthMismatch {
            attribute: "<row>".into(),
            expected: schema.len(),
            actual: values.len(),
        });
    }
    for (field, v) in schema.fields().iter().zip(values) {
        let ok = matches!(
            (field.ty, v),
            (crate::types::AttrType::Categorical, Value::Str(_))
                | (crate::types::AttrType::Int, Value::Int(_))
                | (
                    crate::types::AttrType::Float,
                    Value::Int(_) | Value::Float(_)
                )
        ) && !matches!(v, Value::Float(x) if x.is_nan());
        if !ok {
            return Err(DataError::TypeMismatch {
                attribute: field.name.clone(),
                expected: field.ty.name(),
                actual: v.type_name(),
            });
        }
    }
    Ok(())
}

/// Row-at-a-time relation construction.
#[derive(Debug)]
pub struct RelationBuilder {
    schema: Schema,
    builders: Vec<ColumnBuilder>,
    build_indexes: bool,
    shard_rows: usize,
    cluster: Option<AttrId>,
}

impl RelationBuilder {
    /// New builder for `schema`.
    pub fn new(schema: Schema) -> Self {
        Self::with_capacity(schema, 0)
    }

    /// New builder pre-sized for `capacity` rows.
    pub fn with_capacity(schema: Schema, capacity: usize) -> Self {
        let builders = schema
            .fields()
            .iter()
            .map(|f| ColumnBuilder::with_capacity(f.ty, capacity))
            .collect();
        RelationBuilder {
            schema,
            builders,
            build_indexes: false,
            shard_rows: 0,
            cluster: None,
        }
    }

    /// Opt in to building the segment indexes when the relation is
    /// frozen, so they are ready before the first query arrives.
    pub fn with_indexes(mut self) -> Self {
        self.build_indexes = true;
        self
    }

    /// Split the frozen relation into segments of `shard_rows` rows
    /// (`0`, the default, keeps it one segment until its first
    /// append). The layout changes how work is scheduled — per-segment
    /// index-build and scan morsels, per-segment pruning — never which
    /// rows any query returns.
    pub fn with_shard_rows(mut self, shard_rows: usize) -> Self {
        self.shard_rows = shard_rows;
        self
    }

    /// Reorder rows by `attr` at freeze time (stable: ties keep input
    /// order), so segment min/max and code-presence summaries cover
    /// narrow, disjoint value ranges and actually prune. Categorical
    /// attributes cluster lexicographically, numeric ones by value.
    /// Row *ids* are assigned after the reorder, so every downstream
    /// guarantee (row id = table order) is untouched — only the
    /// physical placement of tuples changes.
    pub fn cluster_by(mut self, attr: AttrId) -> Self {
        self.cluster = Some(attr);
        self
    }

    /// The schema being built against.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Append one row given values in schema order. The whole row is
    /// validated before any builder mutates, so a failed push cannot
    /// leave columns at different lengths.
    pub fn push_row(&mut self, values: &[Value]) -> Result<(), DataError> {
        validate_row(&self.schema, values)?;
        for (i, v) in values.iter().enumerate() {
            self.builders[i].push(&self.schema.fields()[i].name, v)?;
        }
        Ok(())
    }

    /// Rows appended so far.
    pub fn len(&self) -> usize {
        self.builders.first().map_or(0, ColumnBuilder::len)
    }

    /// True when no rows have been appended.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Freeze into an immutable [`Relation`]. When
    /// [`RelationBuilder::with_indexes`] was requested, the segment
    /// indexes are built here, at freeze time.
    pub fn finish(self) -> Result<Relation, DataError> {
        let mut columns = self.builders;
        if let Some(attr) = self.cluster {
            let key = columns
                .get(attr.index())
                .ok_or(DataError::AttributeIdOutOfRange(attr.index()))?;
            let perm = cluster_permutation(key);
            columns = columns.into_iter().map(|c| gather(c, &perm)).collect();
        }
        let relation = Relation::from_columns_sharded(self.schema, columns, self.shard_rows)?;
        if self.build_indexes {
            relation.build_indexes();
        }
        Ok(relation)
    }
}

/// The row permutation that clusters `col`'s values: row positions
/// sorted by value (categorical: lexicographic by dictionary string;
/// numeric: by value), stable on input order.
fn cluster_permutation(col: &ColumnBuilder) -> Vec<u32> {
    let mut perm: Vec<u32> = (0..col.len() as u32).collect();
    match col {
        ColumnBuilder::Categorical { dict, codes } => {
            // Codes intern in first-seen order, so rank them by their
            // string value first — clustered segments then cover
            // contiguous lexicographic ranges.
            let mut order: Vec<u32> = (0..dict.len() as u32).collect();
            order.sort_unstable_by(|&a, &b| {
                dict.value_unchecked(a).cmp(dict.value_unchecked(b))
            });
            let mut rank = vec![0u32; dict.len()];
            for (i, &c) in order.iter().enumerate() {
                rank[c as usize] = i as u32;
            }
            perm.sort_unstable_by_key(|&r| (rank[codes[r as usize] as usize], r));
        }
        ColumnBuilder::Int(v) => perm.sort_unstable_by_key(|&r| (v[r as usize], r)),
        ColumnBuilder::Float(v) => {
            perm.sort_unstable_by(|&a, &b| v[a as usize].total_cmp(&v[b as usize]).then(a.cmp(&b)))
        }
    }
    perm
}

/// Gather `col`'s rows in `perm` order.
fn gather(col: ColumnBuilder, perm: &[u32]) -> ColumnBuilder {
    match col {
        ColumnBuilder::Categorical { dict, codes } => ColumnBuilder::Categorical {
            dict,
            codes: perm.iter().map(|&r| codes[r as usize]).collect(),
        },
        ColumnBuilder::Int(v) => ColumnBuilder::Int(perm.iter().map(|&r| v[r as usize]).collect()),
        ColumnBuilder::Float(v) => {
            ColumnBuilder::Float(perm.iter().map(|&r| v[r as usize]).collect())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::{AttrType, Field};

    fn schema() -> Schema {
        Schema::new(vec![
            Field::new("neighborhood", AttrType::Categorical),
            Field::new("price", AttrType::Float),
            Field::new("bedroomcount", AttrType::Int),
        ])
        .unwrap()
    }

    fn sample() -> Relation {
        let mut b = RelationBuilder::with_capacity(schema(), 3);
        b.push_row(&["Redmond".into(), 250_000.0.into(), 3.into()])
            .unwrap();
        b.push_row(&["Bellevue".into(), Value::Int(300_000), 4.into()])
            .unwrap();
        b.push_row(&["Seattle".into(), 199_999.5.into(), 2.into()])
            .unwrap();
        b.finish().unwrap()
    }

    #[test]
    fn build_and_read_back() {
        let r = sample();
        assert_eq!(r.len(), 3);
        assert!(!r.is_empty());
        assert_eq!(r.value(0, AttrId(0)).unwrap(), Value::from("Redmond"));
        assert_eq!(r.value(1, AttrId(1)).unwrap(), Value::Float(300_000.0));
        assert_eq!(r.value(2, AttrId(2)).unwrap(), Value::Int(2));
        assert_eq!(
            r.row(1).unwrap(),
            vec![
                Value::from("Bellevue"),
                Value::Float(300_000.0),
                Value::Int(4)
            ]
        );
    }

    #[test]
    fn out_of_range_row_errors() {
        let r = sample();
        assert!(matches!(
            r.row(5),
            Err(DataError::RowOutOfRange { row: 5, len: 3 })
        ));
        assert!(r.value(5, AttrId(0)).is_err());
    }

    #[test]
    fn row_arity_checked() {
        let mut b = RelationBuilder::new(schema());
        let err = b.push_row(&["x".into()]).unwrap_err();
        assert!(matches!(err, DataError::ColumnLengthMismatch { .. }));
    }

    #[test]
    fn bad_row_leaves_builder_consistent() {
        let mut b = RelationBuilder::new(schema());
        b.push_row(&["Redmond".into(), 1.0.into(), 1.into()])
            .unwrap();
        // Second value is the wrong type; third is fine. Nothing may be
        // appended.
        let err = b
            .push_row(&["Bellevue".into(), "oops".into(), 2.into()])
            .unwrap_err();
        assert!(matches!(err, DataError::TypeMismatch { .. }));
        assert_eq!(b.len(), 1);
        let r = b.finish().unwrap();
        assert_eq!(r.len(), 1);
    }

    #[test]
    fn column_by_name_resolves() {
        let r = sample();
        assert_eq!(r.column_by_name("PRICE").unwrap().len(), 3);
        assert!(r.column_by_name("zip").is_err());
    }

    #[test]
    fn mismatched_column_lengths_rejected() {
        let cols = vec![
            ColumnBuilder::Int(vec![1, 2, 3]),
            ColumnBuilder::Float(vec![1.0]),
        ];
        let s = Schema::new(vec![
            Field::new("a", AttrType::Int),
            Field::new("b", AttrType::Float),
        ])
        .unwrap();
        assert!(matches!(
            Relation::from_columns(s, cols),
            Err(DataError::ColumnLengthMismatch { .. })
        ));
    }

    #[test]
    fn wrong_column_count_rejected() {
        let s = Schema::new(vec![Field::new("a", AttrType::Int)]).unwrap();
        assert!(Relation::from_columns(s, vec![]).is_err());
    }

    #[test]
    fn all_row_ids_covers_relation() {
        let r = sample();
        assert_eq!(r.all_row_ids(), vec![0, 1, 2]);
    }

    #[test]
    fn same_table_identity() {
        let r = sample();
        let r2 = r.clone();
        assert!(r.same_table(&r2));
        assert!(!r.same_table(&sample()));
    }

    #[test]
    fn empty_relation() {
        let r = RelationBuilder::new(schema()).finish().unwrap();
        assert!(r.is_empty());
        assert_eq!(r.all_row_ids(), Vec::<u32>::new());
    }

    #[test]
    fn indexes_opt_in_at_freeze() {
        let r = sample();
        assert!(!r.has_indexes(), "plain freeze builds no indexes");
        let mut b = RelationBuilder::with_capacity(schema(), 1);
        b.push_row(&["Redmond".into(), 250_000.0.into(), 3.into()])
            .unwrap();
        let indexed = b.with_indexes().finish().unwrap();
        assert!(indexed.has_indexes());
        assert_eq!(
            indexed.shards()[0]
                .indexes()
                .unwrap()
                .postings(AttrId(0))
                .unwrap()
                .rows_for_code(0),
            &[0]
        );
    }

    #[test]
    fn default_relation_is_single_shard() {
        let r = sample();
        assert_eq!(r.shards().shard_count(), 1);
        assert_eq!(r.shards().shard_rows(), 0);
        assert_eq!(r.shards().bounds(0), (0, 3));
        let s = r.shards()[0].summary();
        assert_eq!(
            s.numeric_bounds(2),
            Some((2.0, 4.0)),
            "one segment, still summarized"
        );
    }

    #[test]
    fn with_shard_rows_splits_and_summarizes() {
        let mut b = RelationBuilder::with_capacity(schema(), 5).with_shard_rows(2);
        for i in 0..5i64 {
            b.push_row(&[
                "Redmond".into(),
                (100_000.0 + i as f64).into(),
                i.into(),
            ])
            .unwrap();
        }
        let r = b.finish().unwrap();
        assert_eq!(r.shards().shard_count(), 3);
        assert_eq!(r.shards().bounds(2), (4, 5), "last shard holds 1 row");
        assert_eq!(r.shards()[0].summary().numeric_bounds(2), Some((0.0, 1.0)));
        assert_eq!(r.shards()[2].summary().numeric_bounds(2), Some((4.0, 4.0)));
        // Reads are unchanged by sharding.
        assert_eq!(r.value(4, AttrId(2)).unwrap(), Value::Int(4));
        assert_eq!(r.row(3).unwrap()[2], Value::Int(3));
        assert_eq!(r.all_row_ids(), vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn sharded_index_build_is_per_shard() {
        let mut b = RelationBuilder::with_capacity(schema(), 4)
            .with_shard_rows(2)
            .with_indexes();
        for i in 0..4i64 {
            b.push_row(&["Redmond".into(), 1.0.into(), i.into()]).unwrap();
        }
        let r = b.finish().unwrap();
        assert_eq!(r.shards().shard_count(), 2);
        // Segment 1's postings carry global row ids.
        let seg1 = r.shards()[1].indexes().unwrap();
        assert_eq!(seg1.postings(AttrId(0)).unwrap().rows_for_code(0), &[2, 3]);
        // try_build_indexes keeps the indexes already built.
        r.try_build_indexes(8).unwrap();
        assert!(std::ptr::eq(seg1, r.shards()[1].indexes().unwrap()));
    }

    #[test]
    fn append_carries_clean_shard_indexes_by_arc() {
        let mut b = RelationBuilder::with_capacity(schema(), 5)
            .with_shard_rows(2)
            .with_indexes();
        for i in 0..5i64 {
            b.push_row(&["Redmond".into(), (10.0 * i as f64).into(), i.into()])
                .unwrap();
        }
        let base = b.finish().unwrap();
        let mut tail = base.begin_append();
        tail.push_row(&["Kirkland".into(), 99.0.into(), 9.into()])
            .unwrap();
        tail.push_row(&["Kirkland".into(), 98.0.into(), 8.into()])
            .unwrap();
        assert_eq!(tail.staged(), 2);
        assert!(tail.base().same_table(&base));
        let commit = tail.commit().unwrap();
        let grown = commit.relation;
        assert_eq!(grown.len(), 7);
        assert_eq!(grown.shards().shard_count(), 4);
        // Segments 0 and 1 are sealed: columns, summary and index are
        // shared by Arc, not copied or rebuilt.
        for s in 0..2 {
            let (old, new) = (&base.shards()[s], &grown.shards()[s]);
            assert!(Arc::ptr_eq(old, new), "sealed segment {s} must carry over");
            assert!(std::ptr::eq(old.indexes().unwrap(), new.indexes().unwrap()));
            assert!(std::ptr::eq(old.summary(), new.summary()));
            assert!(std::ptr::eq(&old.chunks()[1], &new.chunks()[1]));
        }
        // The old open tail (segment 2) and the new segment 3 are
        // freshly built, with global row ids and the grown dictionary.
        let dict = grown.column(AttrId(0)).dictionary().unwrap();
        let kirkland = dict.lookup("Kirkland").unwrap();
        let postings = |s: usize| {
            grown.shards()[s]
                .indexes()
                .unwrap()
                .postings(AttrId(0))
                .unwrap()
        };
        assert_eq!(postings(2).rows_for_code(kirkland), &[5]);
        assert_eq!(postings(3).rows_for_code(kirkland), &[6]);
        // Carried segments report no Kirkland rows.
        assert_eq!(postings(0).rows_for_code(kirkland), &[] as &[u32]);
        // Incrementally maintained state matches a from-scratch build.
        let rebuilt = grown.resharded(2).unwrap();
        rebuilt.build_indexes();
        for s in 0..4 {
            let sorted = |r: &Relation| {
                let ix = r.shards()[s].indexes().unwrap().sorted(AttrId(1)).unwrap();
                ix.slice_in(f64::NEG_INFINITY, true, f64::INFINITY, true)
                    .to_vec()
            };
            assert_eq!(
                sorted(&grown),
                sorted(&rebuilt),
                "shard {s} sorted projection"
            );
        }
        // Tail segment summaries are tight.
        assert_eq!(
            grown.shards()[3].summary().numeric_bounds(1),
            Some((98.0, 98.0))
        );
        assert!(grown.shards()[2].summary().may_have_code(0, kirkland));
        assert!(!grown.shards()[0].summary().may_have_code(0, kirkland));
    }

    #[test]
    fn append_to_unsharded_base_stays_single_shard() {
        let base = sample();
        base.build_indexes();
        let mut tail = base.begin_append();
        tail.push_row(&["Kirkland".into(), 1.0.into(), 1.into()])
            .unwrap();
        let grown = tail.commit().unwrap().relation;
        // A base below the seal size is the open tail: one segment.
        assert_eq!(grown.shards().shard_count(), 1);
        assert_eq!(grown.shards().shard_rows(), 0);
        assert_eq!(grown.len(), 4);
        // The open segment was rebuilt: indexes cover all rows.
        let s = grown.shards()[0]
            .indexes()
            .unwrap()
            .sorted(AttrId(1))
            .unwrap();
        assert_eq!(s.len(), 4);
        assert_eq!(grown.row(3).unwrap()[0], Value::from("Kirkland"));
        // Base relation is untouched.
        assert_eq!(base.len(), 3);
    }

    #[test]
    fn append_without_base_indexes_stays_index_free() {
        let base = sample();
        let mut tail = base.begin_append();
        tail.push_row(&["Kirkland".into(), 1.0.into(), 1.into()])
            .unwrap();
        let grown = tail.commit().unwrap().relation;
        assert!(!grown.has_indexes(), "no indexes to maintain");
    }

    #[test]
    fn cluster_by_reorders_for_tight_shard_summaries() {
        // Interleaved values: without clustering, every shard spans the
        // full value range and nothing prunes.
        let mut b = RelationBuilder::with_capacity(schema(), 8)
            .with_shard_rows(4)
            .cluster_by(AttrId(0));
        for i in 0..8i64 {
            let city = if i % 2 == 0 { "Aurora" } else { "Zenith" };
            b.push_row(&[city.into(), (i as f64).into(), i.into()])
                .unwrap();
        }
        let r = b.finish().unwrap();
        let (dict, codes) = r.column(AttrId(0)).categorical().unwrap();
        // Lexicographic clustering: all Aurora rows first.
        let aurora = dict.lookup("Aurora").unwrap();
        assert!(codes[..4].iter().all(|&c| c == aurora));
        assert!(codes[4..].iter().all(|&c| c != aurora));
        // Ties keep input order: prices stay ascending within a city.
        let prices = r.column(AttrId(1)).floats().unwrap();
        assert_eq!(&*prices, &[0.0, 2.0, 4.0, 6.0, 1.0, 3.0, 5.0, 7.0]);
        // Summaries now prove absence per segment.
        assert!(r.shards()[0].summary().may_have_code(0, aurora));
        assert!(!r.shards()[1].summary().may_have_code(0, aurora));
    }

    #[test]
    fn cluster_by_numeric_sorts_by_value() {
        let mut b = RelationBuilder::with_capacity(schema(), 4).cluster_by(AttrId(1));
        for p in [9.0, 1.0, 5.0, 3.0] {
            b.push_row(&["x".into(), p.into(), 0.into()]).unwrap();
        }
        let r = b.finish().unwrap();
        assert_eq!(
            &*r.column(AttrId(1)).floats().unwrap(),
            &[1.0, 3.0, 5.0, 9.0]
        );
        let mut bad = RelationBuilder::new(schema()).cluster_by(AttrId(9));
        bad.push_row(&["x".into(), 1.0.into(), 0.into()]).unwrap();
        assert!(matches!(
            bad.finish(),
            Err(DataError::AttributeIdOutOfRange(9))
        ));
    }

    #[test]
    fn build_indexes_is_idempotent_and_shared() {
        let r = sample();
        r.build_indexes();
        let first = r.shards()[0].indexes().unwrap() as *const _;
        r.build_indexes();
        assert_eq!(first, r.shards()[0].indexes().unwrap() as *const _);
        let clone = r.clone();
        assert!(clone.has_indexes(), "handles share the indexes");
        let sorted = r.shards()[0].indexes().unwrap().sorted(AttrId(1)).unwrap();
        assert_eq!(sorted.len(), r.len());
    }
}
