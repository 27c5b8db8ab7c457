#![deny(missing_docs)]

//! First-party static analysis for the qcat workspace.
//!
//! Four engines (see `docs/LINTS.md` for the full catalog):
//!
//! - **Engine 1 — source lint** ([`scan`], [`manifest`],
//!   [`workspace`]): per-file rules L1 (no panic sites in library
//!   code), L2 (no NaN-unsafe float comparisons in
//!   cost/order/rank/partition code), L3 (layering, from Cargo.toml),
//!   L5 (no raw `println!`/`eprintln!`/`dbg!` in library code —
//!   progress goes through `qcat-obs`), L6 (no ad-hoc threads outside
//!   `qcat-pool`), L7 (no `.lock().unwrap()`). All rules run over the
//!   [`lexer`] token stream, so string literals and comments can never
//!   produce false positives. (L4, missing docs, is retired: every
//!   library crate denies `missing_docs`, so the compiler checks it.)
//! - **Engine 2 — semantic analysis** ([`lexer`], [`syms`],
//!   [`callgraph`], [`conc`]): a workspace-wide symbol table and call
//!   graph feeding cross-file rules L8 (lock-order cycles), L9
//!   (checkpoint coverage of governed loops in budget regions), and
//!   L10 (budget-blind allocations).
//! - **Engine 3 — invariant auditor** ([`audit`]): given any built
//!   [`qcat_core::CategoryTree`], verifies the paper's Section 4
//!   invariants (A1–A5) and that [`qcat_core::cost::cost_all`] agrees
//!   with an independent brute-force evaluation of Eq. 1 (A6–A7).
//! - **Engine 4 — trace auditor** ([`tracecheck`]): given a
//!   `QCAT_TRACE=json` JSONL capture, verifies schema and `seq` order
//!   (T1), per-thread LIFO span balance (T2), and duration arithmetic
//!   (T3). Run it with `qcat-lint --audit-trace <file>`.
//!
//! The binary (`cargo run -p qcat-lint -- --workspace`, or the
//! `cargo lint` alias) runs the source and semantic engines and exits
//! nonzero on any violation; the integration test under `tests/` does
//! the same so plain `cargo test` gates regressions.

pub mod audit;
pub mod callgraph;
pub mod conc;
pub mod diag;
pub mod lexer;
pub mod manifest;
pub mod scan;
pub mod syms;
pub mod tracecheck;
pub mod workspace;

pub use conc::{analyze_sources, SourceFile};
pub use diag::{Diagnostic, Rule};
pub use scan::{lint_source, CleanSource, ScanOptions};
pub use tracecheck::audit_trace;
pub use workspace::lint_workspace;
