#![deny(missing_docs)]

//! In-memory data substrate for the qcat workspace.
//!
//! This crate provides the storage layer that the SIGMOD 2004 paper
//! *Automatic Categorization of Query Results* assumes from the host
//! DBMS: typed schemas, dictionary-encoded categorical columns, numeric
//! columns, immutable columnar relations addressed by row id, and a
//! small thread-safe catalog.
//!
//! Design notes:
//! - Relations are **immutable once built** ([`RelationBuilder`] →
//!   [`RelationBuilder::finish`]); every downstream structure (result
//!   sets, category trees) refers to rows by `u32` row id, so
//!   categorization never copies tuples. A relation is an ordered list of shared
//!   [`Segment`]s (see the [`shard`] module); growth appends by
//!   segment: [`Relation::begin_append`] stages a tail batch and
//!   commits it as a *new* relation that shares every sealed segment
//!   and rebuilds only the open tail, and [`IngestTable`] (see the
//!   [`ingest`] module) layers a generation counter on top for
//!   snapshot-isolated readers and all-or-nothing batch visibility.
//! - Categorical values are interned per attribute in a [`Dictionary`];
//!   all set operations in the categorizer work on `u32` codes.
//! - Numeric attributes may be integer- or float-typed; both expose an
//!   `f64` view because splitpoint partitioning operates on a numeric
//!   line.
//! - Segments can carry opt-in [`ShardIndexes`] (postings per
//!   categorical code, a sorted projection per numeric column) so the
//!   executor can answer selective predicates without scanning; see
//!   the [`index`] module.

pub mod catalog;
pub mod column;
pub mod csv;
pub mod dictionary;
pub mod error;
pub mod index;
pub mod ingest;
pub mod relation;
pub mod shard;
pub mod types;
pub mod value;

pub use catalog::Catalog;
pub use column::{Chunk, Column, ColumnBuilder};
pub use dictionary::Dictionary;
pub use error::DataError;
pub use index::{
    intersect_sorted, union_sorted, AttrIndex, PostingsIndex, ShardIndexes, SortedIndex,
};
pub use ingest::{AppendReceipt, IngestSnapshot, IngestTable};
pub use relation::{AppendCommit, Relation, RelationBuilder, TailAppend};
pub use shard::{Segment, SegmentSummary, Segments, SEGMENT_ROWS};
pub use types::{AttrId, AttrType, Field, Schema};
pub use value::Value;
