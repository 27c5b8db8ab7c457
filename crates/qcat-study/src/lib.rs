#![deny(missing_docs)]

//! Experiment drivers reproducing every table and figure of the
//! paper's evaluation (Section 6).
//!
//! | Paper artifact | Function |
//! |---|---|
//! | Figure 7 (estimated vs actual scatter + trend) | [`simulated::SimulatedStudy::figure7`] |
//! | Table 1 (per-subset Pearson correlation) | [`simulated::SimulatedStudy::table1`] |
//! | Figure 8 (fractional cost per technique) | [`simulated::SimulatedStudy::figure8`] |
//! | Table 2 (per-user correlation) | [`reallife::RealLifeStudy::table2`] |
//! | Table 3 (cost-based vs no categorization) | [`reallife::RealLifeStudy::table3`] |
//! | Figure 9 (avg cost per task) | [`reallife::RealLifeStudy::figure9`] |
//! | Figure 10 (relevant tuples found) | [`reallife::RealLifeStudy::figure10`] |
//! | Figure 11 (normalized cost) | [`reallife::RealLifeStudy::figure11`] |
//! | Figure 12 (cost to first relevant tuple) | [`reallife::RealLifeStudy::figure12`] |
//! | Table 4 (post-study survey) | [`reallife::RealLifeStudy::table4`] |
//! | Figure 13 (execution time vs `M`) | [`timing::run_timing_study`] |
//!
//! The `repro` binary (`cargo run -p qcat-study --release --bin repro`)
//! prints them all.

pub mod ablation;
pub mod broaden;
pub mod env;
pub mod reallife;
pub mod report;
pub mod simulated;
pub mod stats;
pub mod svg;
pub mod timing;

pub use ablation::AblationBatch;
pub use broaden::broaden_query;
pub use env::{StudyEnv, StudyScale, Technique};
pub use reallife::{RealLifeStudy, RealLifeStudyConfig};
pub use simulated::{SimulatedStudy, SimulatedStudyConfig};
pub use stats::{mean, origin_slope, pearson};
pub use svg::ScatterPlot;
pub use timing::{run_timing_study, TimingConfig, TimingRow, TimingStudy};
