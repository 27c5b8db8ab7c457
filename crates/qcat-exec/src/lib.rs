#![deny(missing_docs)]

//! Query execution for the qcat workspace.
//!
//! The paper categorizes *the result set of a query Q*. This crate
//! turns a normalized query (or, through [`execute_sql`], a SQL
//! string) into a [`ResultSet`]: the base relation plus the matching
//! row ids, which is precisely the representation the categorizer
//! consumes as the root `tset`. [`execute`] is the one entry point;
//! [`ExecOptions`] picks the access path, the thread width, and an
//! optional [`Donor`] whose rows already contain the answer.

pub mod executor;
pub mod plan;
pub mod result;

pub use executor::{execute, execute_normalized_with, execute_sql, ExecError};
pub use plan::{AccessPath, Donor, ExecOptions, PlanExplain};
pub use result::ResultSet;
