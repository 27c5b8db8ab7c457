#![deny(missing_docs)]

//! Exploration simulation: measuring the *actual* information-overload
//! cost of a category tree.
//!
//! The estimated costs in `qcat-core::cost` come from the analytical
//! models of Section 4.1. Validating them (the paper's Experiment 1)
//! requires replaying explorations and counting what a user actually
//! examines. This crate provides:
//!
//! - [`oracle`]: the deterministic *synthetic exploration* of
//!   Section 6.2 — a held-out workload query `W` stands in for a user
//!   who drills into exactly the categories overlapping `W` and
//!   ignores the rest;
//! - [`noisy`]: seeded stochastic users standing in for the 11 human
//!   subjects of Section 6.3 — they misjudge labels, sometimes browse
//!   instead of drilling, overlook relevant tuples, and run out of
//!   patience;
//! - [`relevance`]: tuple-level relevance judgment (predicate-based
//!   for synthetic explorations, set-based for noisy users);
//! - [`trace`]: the counters every replay produces.
//!
//! Estimation (`qcat-core`) and measurement (this crate) deliberately
//! share no code: comparing them is the experiment.

pub mod noisy;
pub mod oracle;
pub mod relevance;
pub mod trace;

pub use noisy::{noisy_explore_all, noisy_explore_one, NoisyUser};
pub use oracle::{
    actual_cost_all, actual_cost_one, actual_cost_one_ordered, no_categorization_all,
    no_categorization_one,
};
pub use relevance::RelevanceJudge;
pub use trace::ExplorationStats;
