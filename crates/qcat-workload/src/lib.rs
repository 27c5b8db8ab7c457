#![deny(missing_docs)]

//! Workload analysis for the qcat workspace.
//!
//! Section 4.2 of the paper estimates the probabilities that drive the
//! cost model purely from a log of past SQL query strings. The
//! preprocessing phase scans the workload once and materializes:
//!
//! - the **AttributeUsageCounts** table (Figure 4a): for every
//!   attribute `A`, the number `NAttr(A)` of queries containing a
//!   selection condition on `A`;
//! - one **OccurrenceCounts** table per categorical attribute
//!   (Figure 4b): for every value `v`, the number `occ(v)` of queries
//!   whose IN-clause on the attribute contains `v`;
//! - one **SplitPoints** table per numeric attribute (Figure 5b): for
//!   every potential splitpoint `v` on a fixed-interval grid, how many
//!   query ranges start (`start_v`) and end (`end_v`) there, and the
//!   goodness score `start_v + end_v`;
//! - a **range index** per numeric attribute (our addition) so
//!   `NOverlap` for a numeric label is an O(log n) computation instead
//!   of a workload rescan.
//!
//! All of it lives behind [`WorkloadStatistics`].

pub mod config;
pub mod correlation;
pub mod log;
pub mod occurrence;
pub mod persist;
pub mod range_index;
pub mod splitpoints;
pub mod stats;
pub mod usage;

pub use config::PreprocessConfig;
pub use correlation::{CorrelationIndex, LabelPredicate};
pub use log::WorkloadLog;
pub use occurrence::OccurrenceCounts;
pub use persist::{load_statistics, save_statistics, PersistError};
pub use range_index::RangeIndex;
pub use splitpoints::{SplitPoint, SplitPointTable};
pub use stats::WorkloadStatistics;
pub use usage::AttributeUsageCounts;
