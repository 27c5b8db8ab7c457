#![deny(missing_docs)]

//! First-party static analysis for the qcat workspace.
//!
//! Four engines (see `docs/LINTS.md` for the full catalog):
//!
//! - **Engine 1 — layering** ([`manifest`], [`workspace`]): rule L3
//!   (no forbidden inter-crate dependency), read from every crate's
//!   `Cargo.toml`. The per-file source rules L1, L2 and L5–L7 are
//!   enforced by clippy, which type-checks them (the root
//!   `Cargo.toml`'s `[workspace.lints.clippy]` and `clippy.toml`);
//!   L4, missing docs, is retired in favour of `#![deny(missing_docs)]`.
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
//!   (T1), per-thread LIFO span balance (T2), duration arithmetic
//!   (T3), governance-event enclosure (T4) and causal parent links
//!   (T5). Run it with `qcat-lint --audit-trace <file>`.
//!
//! The binary (`cargo run -p qcat-lint -- --workspace`, or the
//! `cargo lint` alias) runs the layering and semantic engines and
//! exits nonzero on any violation; the root `tests/lint_gate.rs` does
//! the same, and runs clippy, so plain `cargo test` gates regressions.

pub mod audit;
pub mod callgraph;
pub mod conc;
pub mod diag;
pub mod lexer;
pub mod manifest;
#[cfg(test)]
mod scan;
pub mod syms;
pub mod tracecheck;
pub mod workspace;

pub use conc::{analyze_sources, SourceFile};
pub use diag::{Diagnostic, Rule};
pub use tracecheck::audit_trace;
pub use workspace::lint_workspace;
