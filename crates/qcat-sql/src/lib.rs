#![deny(missing_docs)]

//! SQL front-end for the qcat workspace.
//!
//! The SIGMOD 2004 categorization paper assumes (Section 4.2) that both
//! the user query and every workload query are selection queries over a
//! single wide table — conjunctions of `IN`-clauses on categorical
//! attributes and range predicates on numeric attributes. This crate
//! implements exactly that subset:
//!
//! ```sql
//! SELECT * FROM listproperty
//! WHERE neighborhood IN ('Redmond', 'Bellevue')
//!   AND price BETWEEN 200000 AND 300000
//!   AND bedroomcount >= 3
//! ```
//!
//! Pipeline: [`lexer`] → [`parser`] → [`ast`] → [`normalize`] (resolve
//! attribute names against a [`qcat_data::Schema`] and fold the
//! conjunction into one [`normalize::AttrCondition`] per attribute) →
//! [`eval`] (columnar evaluation producing matching row ids).
//!
//! The normalized per-attribute view is what the paper's workload
//! preprocessing consumes (`NAttr`, `occ(v)`, query-range start/end
//! counts), and also what the executor evaluates, so parsing happens
//! once per query string.

pub mod ast;
pub mod contain;
pub mod error;
pub mod eval;
pub mod lexer;
pub mod normalize;
pub mod parser;
pub mod token;

pub use ast::{Expr, Literal, Projection, SelectQuery};
pub use contain::{condition_implies, residual_attrs, subsumes};
pub use error::{NormalizeError, ParseError, SqlError};
pub use normalize::{AttrCondition, NormalizedQuery, NumericRange};
pub use parser::parse_select;

/// Parse and normalize in one step.
pub fn parse_and_normalize(
    sql: &str,
    schema: &qcat_data::Schema,
) -> Result<NormalizedQuery, SqlError> {
    let query = {
        let _span = qcat_obs::span!("sql.parse", bytes = sql.len());
        parse_select(sql)?
    };
    let _span = qcat_obs::span!("sql.normalize", has_predicate = query.predicate.is_some());
    Ok(normalize::normalize(&query, schema)?)
}
