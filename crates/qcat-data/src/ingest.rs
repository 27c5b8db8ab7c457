//! Transactional append ingest with snapshot-isolated readers.
//!
//! [`IngestTable`] wraps a [`Relation`] behind a generation counter.
//! Every generation is an immutable relation; consecutive generations
//! share every sealed segment by `Arc`, so a generation owns only its
//! open tail segment and a pinned snapshot keeps O(tail) memory alive,
//! never a copy of the table:
//!
//! - **Readers** call [`IngestTable::pin`] once at query start and run
//!   the whole query against the pinned [`IngestSnapshot`]. The
//!   snapshot is two `Arc` clones — the relation handle and its
//!   generation — so a pin is cheap and never blocks behind an append
//!   for longer than the swap itself.
//! - **Writers** call [`IngestTable::append_rows`]. Appends serialize
//!   on one mutex; each builds a *new* relation via
//!   [`Relation::begin_append`] → [`crate::TailAppend::commit`] and swaps it
//!   in together with `generation + 1` as a single assignment.
//!
//! Atomicity falls out of immutability: the visible relation is never
//! mutated, so a half-applied batch is unrepresentable. A mid-batch
//! failure (type error, or the `data.append` / `data.index.delta`
//! fault sites) returns before the swap, leaving the visible state —
//! and every pinned snapshot — byte-identical to pre-batch. There is
//! nothing to roll back.

use crate::error::DataError;
use crate::relation::{AppendCommit, Relation};
use crate::value::Value;
use std::sync::{Mutex, MutexGuard};

/// A pinned view of an ingest table: one relation at one generation.
///
/// Everything a query touches (rows, indexes, summaries) hangs off the
/// snapshot's relation handle, so a reader holding a snapshot is fully
/// isolated from later commits.
#[derive(Debug, Clone)]
pub struct IngestSnapshot {
    relation: Relation,
    generation: u64,
}

impl IngestSnapshot {
    /// The pinned relation.
    pub fn relation(&self) -> &Relation {
        &self.relation
    }

    /// The generation at which this snapshot was taken. Generation 0
    /// is the initial relation; each committed batch adds one.
    pub fn generation(&self) -> u64 {
        self.generation
    }
}

/// A receipt for one committed batch: the new snapshot plus the
/// change digest callers need for selective cache invalidation.
#[derive(Debug)]
pub struct AppendReceipt {
    /// The table state after the commit (relation + generation).
    pub snapshot: IngestSnapshot,
    /// What the batch changed; see [`AppendCommit`].
    pub commit: AppendCommit,
}

/// A relation that takes transactional appends while being read.
#[derive(Debug)]
pub struct IngestTable {
    state: Mutex<IngestSnapshot>,
}

/// Take the lock, recovering a poisoned mutex. Safe here because the
/// guarded snapshot is only ever replaced by whole-value assignment
/// *after* a batch fully commits — a panic mid-append (e.g. an
/// injected `panic` fault inside [`TailAppend::commit`]) poisons the
/// lock while the snapshot still holds consistent pre-batch state.
///
/// [`TailAppend::commit`]: crate::relation::TailAppend::commit
#[allow(
    clippy::disallowed_methods,
    reason = "L7: the ingest table's one poison-recovering lock helper"
)]
fn lock_recover<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

impl IngestTable {
    /// Wrap `relation` as generation 0.
    pub fn new(relation: Relation) -> IngestTable {
        IngestTable {
            state: Mutex::new(IngestSnapshot {
                relation,
                generation: 0,
            }),
        }
    }

    /// Pin the current snapshot. Queries resolve every read against
    /// the returned snapshot's relation, never the table, so a commit
    /// racing with the query cannot change what it sees.
    pub fn pin(&self) -> IngestSnapshot {
        lock_recover(&self.state).clone()
    }

    /// The current generation (equals `pin().generation()`).
    pub fn generation(&self) -> u64 {
        lock_recover(&self.state).generation
    }

    /// Append a batch of rows with all-or-nothing visibility.
    ///
    /// Appends serialize: the batch is staged and committed under the
    /// table lock, then swapped in with `generation + 1`. On any error
    /// — a row failing validation, or the `data.append` /
    /// `data.index.delta` fault sites firing — nothing becomes
    /// visible and the generation does not advance.
    pub fn append_rows(&self, rows: &[Vec<Value>]) -> Result<AppendReceipt, DataError> {
        let mut guard = lock_recover(&self.state);
        let mut tail = guard.relation.begin_append();
        for row in rows {
            tail.push_row(row)?;
        }
        let commit = tail.commit()?;
        let snapshot = IngestSnapshot {
            relation: commit.relation.clone(),
            generation: guard.generation + 1,
        };
        *guard = snapshot.clone();
        qcat_obs::counter("data.append.committed", 1);
        Ok(AppendReceipt { snapshot, commit })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::relation::RelationBuilder;
    use crate::types::{AttrId, AttrType, Field, Schema};

    fn schema() -> Schema {
        Schema::new(vec![
            Field::new("city", AttrType::Categorical),
            Field::new("price", AttrType::Float),
        ])
        .unwrap()
    }

    fn seed(rows: usize) -> Relation {
        let mut b = RelationBuilder::with_capacity(schema(), rows);
        for i in 0..rows {
            b.push_row(&[
                if i % 2 == 0 { "redmond" } else { "seattle" }.into(),
                (1000.0 + i as f64).into(),
            ])
            .unwrap();
        }
        b.finish().unwrap()
    }

    fn row(city: &str, price: f64) -> Vec<Value> {
        vec![city.into(), price.into()]
    }

    #[test]
    fn commit_advances_generation_and_grows_rows() {
        let table = IngestTable::new(seed(4));
        assert_eq!(table.generation(), 0);
        let receipt = table
            .append_rows(&[row("kirkland", 5000.0), row("redmond", 6000.0)])
            .unwrap();
        assert_eq!(receipt.snapshot.generation(), 1);
        assert_eq!(receipt.snapshot.relation().len(), 6);
        assert_eq!(receipt.commit.first_row, 4);
        assert_eq!(receipt.commit.added, 2);
        assert_eq!(table.generation(), 1);
        assert_eq!(table.pin().relation().len(), 6);
    }

    #[test]
    fn pinned_snapshot_is_isolated_from_later_commits() {
        let table = IngestTable::new(seed(3));
        let pinned = table.pin();
        table.append_rows(&[row("kirkland", 9.0)]).unwrap();
        assert_eq!(pinned.generation(), 0);
        assert_eq!(pinned.relation().len(), 3, "pin sees pre-batch rows");
        assert_eq!(table.pin().relation().len(), 4);
        assert!(
            !pinned.relation().same_table(table.pin().relation()),
            "commit swapped in a new relation"
        );
    }

    #[test]
    fn failed_batch_is_invisible_and_generation_holds() {
        let table = IngestTable::new(seed(3));
        let before = table.pin();
        // Second row fails validation: the first must not leak.
        let err = table
            .append_rows(&[row("kirkland", 9.0), vec!["x".into(), "oops".into()]])
            .unwrap_err();
        assert!(matches!(err, DataError::TypeMismatch { .. }));
        let after = table.pin();
        assert_eq!(after.generation(), 0);
        assert!(after.relation().same_table(before.relation()));
    }

    #[test]
    fn injected_append_fault_rolls_back() {
        let table = IngestTable::new(seed(3));
        for site in ["data.append", "data.index.delta"] {
            // data.index.delta only fires when the base carries indexes.
            table.pin().relation().build_indexes();
            let plan = qcat_fault::FaultPlan::parse(&format!("{site}:error")).unwrap();
            let err = qcat_fault::with_plan(&plan, || {
                table.append_rows(&[row("kirkland", 9.0)]).unwrap_err()
            });
            assert_eq!(err, DataError::Fault { site });
            assert_eq!(table.generation(), 0, "{site}: generation holds");
            assert_eq!(table.pin().relation().len(), 3, "{site}: rows hold");
        }
        // Without the fault the same batch commits.
        assert!(table.append_rows(&[row("kirkland", 9.0)]).is_ok());
    }

    #[test]
    fn delta_digest_summarizes_only_the_batch() {
        let table = IngestTable::new(seed(4));
        let receipt = table
            .append_rows(&[row("kirkland", 50.0), row("kirkland", 60.0)])
            .unwrap();
        let delta = &receipt.commit.delta;
        // Numeric attr 1: bounds cover only appended prices.
        assert_eq!(delta.numeric_bounds(1), Some((50.0, 60.0)));
        // Categorical attr 0: only "kirkland"'s code is present.
        let (dict, _) = receipt
            .snapshot
            .relation()
            .column(AttrId(0))
            .categorical()
            .unwrap();
        let kirkland = dict.lookup("kirkland").unwrap();
        let redmond = dict.lookup("redmond").unwrap();
        assert!(delta.may_have_code(0, kirkland));
        assert!(!delta.may_have_code(0, redmond));
    }

    #[test]
    fn empty_batch_commits_without_visible_change() {
        let table = IngestTable::new(seed(2));
        let receipt = table.append_rows(&[]).unwrap();
        assert_eq!(receipt.commit.added, 0);
        assert_eq!(receipt.snapshot.generation(), 1);
        assert_eq!(receipt.snapshot.relation().len(), 2);
    }
}
