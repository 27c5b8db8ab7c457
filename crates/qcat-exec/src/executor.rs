//! The selection executor.

use crate::plan::{self, AccessPath};
use crate::result::ResultSet;
use qcat_data::Relation;
use qcat_data::{Catalog, DataError};
use qcat_sql::{parse_select, NormalizedQuery, SqlError};
use std::fmt;

/// Errors from query execution.
#[derive(Debug, Clone, PartialEq)]
pub enum ExecError {
    /// SQL front-end failure.
    Sql(SqlError),
    /// Catalog or storage failure.
    Data(DataError),
    /// The serve budget was exhausted mid-execution. No partial rows
    /// are returned: a truncated result would silently miscategorize,
    /// so execution-stage exhaustion is a structured refusal (the
    /// categorizer, by contrast, degrades — see docs/ROBUSTNESS.md).
    Budget(qcat_fault::BudgetExceeded),
    /// An injected fault fired at an executor fault point
    /// (`QCAT_FAULT`; chaos testing only).
    Fault(qcat_fault::Fault),
    /// A worker running a scan morsel panicked. This is a bug, not an
    /// operational condition; it is surfaced structurally so one
    /// poisoned shard cannot take down the serving thread.
    Internal(String),
}

impl fmt::Display for ExecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExecError::Sql(e) => write!(f, "sql error: {e}"),
            ExecError::Data(e) => write!(f, "data error: {e}"),
            ExecError::Budget(e) => write!(f, "execution stopped: {e}"),
            ExecError::Fault(e) => write!(f, "execution failed: {e}"),
            ExecError::Internal(msg) => write!(f, "execution failed internally: {msg}"),
        }
    }
}

impl std::error::Error for ExecError {}

impl From<SqlError> for ExecError {
    fn from(e: SqlError) -> Self {
        ExecError::Sql(e)
    }
}

impl From<DataError> for ExecError {
    fn from(e: DataError) -> Self {
        ExecError::Data(e)
    }
}

impl From<qcat_fault::BudgetExceeded> for ExecError {
    fn from(e: qcat_fault::BudgetExceeded) -> Self {
        ExecError::Budget(e)
    }
}

impl From<qcat_fault::Fault> for ExecError {
    fn from(e: qcat_fault::Fault) -> Self {
        ExecError::Fault(e)
    }
}

impl From<qcat_sql::ParseError> for ExecError {
    fn from(e: qcat_sql::ParseError) -> Self {
        ExecError::Sql(e.into())
    }
}

impl From<qcat_sql::NormalizeError> for ExecError {
    fn from(e: qcat_sql::NormalizeError) -> Self {
        ExecError::Sql(e.into())
    }
}

/// Execute a SQL string against a catalog, choosing scan vs. index
/// automatically.
pub fn execute(catalog: &Catalog, sql: &str) -> Result<ResultSet, ExecError> {
    execute_with(catalog, sql, AccessPath::Auto)
}

/// Execute a SQL string against a catalog along a chosen access path.
pub fn execute_with(
    catalog: &Catalog,
    sql: &str,
    path: AccessPath,
) -> Result<ResultSet, ExecError> {
    let ast = {
        let _span = qcat_obs::span!("sql.parse", bytes = sql.len());
        parse_select(sql)?
    };
    let relation = catalog.get(&ast.table)?;
    let normalized = {
        let _span = qcat_obs::span!("sql.normalize", has_predicate = ast.predicate.is_some());
        qcat_sql::normalize::normalize(&ast, relation.schema())?
    };
    execute_normalized_with(&relation, &normalized, path)
}

/// Execute an already-normalized query against its relation, choosing
/// scan vs. index automatically.
pub fn execute_normalized(
    relation: &Relation,
    query: &NormalizedQuery,
) -> Result<ResultSet, ExecError> {
    execute_normalized_with(relation, query, AccessPath::Auto)
}

/// Execute an already-normalized query along a chosen access path.
///
/// All paths produce the same result set; `path` only changes how the
/// matching row ids are found (see [`plan`]).
pub fn execute_normalized_with(
    relation: &Relation,
    query: &NormalizedQuery,
    path: AccessPath,
) -> Result<ResultSet, ExecError> {
    execute_normalized_with_threads(relation, query, path, 0)
}

/// [`execute_normalized_with`] at an explicit thread width (`0` =
/// auto via `QCAT_THREADS`). Thread width only changes how sharded
/// scans are scheduled; the result set is byte-identical at every
/// width.
pub fn execute_normalized_with_threads(
    relation: &Relation,
    query: &NormalizedQuery,
    path: AccessPath,
    threads: usize,
) -> Result<ResultSet, ExecError> {
    let mut span = qcat_obs::span!("exec.execute", rows_total = relation.len());
    if let Some(fault) = qcat_fault::point("exec.execute") {
        return Err(fault.into());
    }
    let (mut rows, explain) = plan::select_rows_with_threads(relation, query, path, threads)?;
    if let Some(gas) = qcat_fault::current_gas() {
        gas.charge_rows(rows.len())?;
    }
    if qcat_obs::active() {
        span.set("rows_matched", rows.len());
        span.set("used_index", explain.used_index);
        if !explain.used_index {
            qcat_obs::counter("exec.rows_scanned", relation.len() as i64);
        }
        qcat_obs::counter("exec.rows_matched", rows.len() as i64);
    }
    if !query.order_by.is_empty() {
        sort_rows(relation, &mut rows, &query.order_by);
    }
    if let Some(n) = query.limit {
        rows.truncate(n);
    }
    Ok(ResultSet::new(
        relation.clone(),
        rows,
        query.projection.clone(),
    ))
}

/// Answer `query` from rows already proven to satisfy a *containing*
/// query: evaluate only the `residual` conjuncts over `cached_rows`,
/// then apply `query`'s ordering and limit.
///
/// This is the serving layer's containment-hit path (see
/// `qcat-serve`): when a cached entry's normalized conjuncts are all
/// implied by `query`'s (`qcat_sql::contain::subsumes`), the cached
/// row ids are a superset of the answer and only the conjuncts listed
/// in `residual` (`qcat_sql::contain::residual_attrs`) still
/// discriminate. The output is byte-identical to a cold
/// [`execute_normalized_with`] of the same query: the post-filter
/// preserves candidate order, rows are restored to table order when no
/// `ORDER BY` is present, and the sort itself is a total order, so the
/// input order never shows through.
///
/// Runs under the ambient budget like every execution: the filter
/// polls the gas every [`CompiledPredicate::CANCEL_STRIDE`] rows and
/// the matched rows are charged, so a containment hit can still refuse
/// cleanly on exhaustion.
pub fn execute_residual(
    relation: &Relation,
    query: &NormalizedQuery,
    cached_rows: &[u32],
    residual: &[qcat_data::AttrId],
) -> Result<ResultSet, ExecError> {
    use qcat_sql::eval::CompiledPredicate;
    let mut span = qcat_obs::span!("exec.residual", rows_in = cached_rows.len());
    if let Some(fault) = qcat_fault::point("exec.residual") {
        return Err(fault.into());
    }
    let predicate = CompiledPredicate::compile_where(query, relation, |a| residual.contains(&a))?;
    let mut rows = match qcat_fault::current_gas() {
        None => predicate.filter(relation, Some(cached_rows)),
        Some(gas) => {
            let mut cancel = || !gas.checkpoint();
            predicate
                .filter_cancellable(relation, Some(cached_rows), &mut cancel)
                .ok_or_else(|| {
                    ExecError::Budget(
                        gas.exceeded()
                            .unwrap_or(qcat_fault::BudgetExceeded::Cancelled),
                    )
                })?
        }
    };
    if let Some(gas) = qcat_fault::current_gas() {
        gas.charge_rows(rows.len())?;
    }
    if qcat_obs::active() {
        span.set("rows_matched", rows.len());
        qcat_obs::counter("exec.residual.rows_in", cached_rows.len() as i64);
        qcat_obs::counter("exec.residual.rows_matched", rows.len() as i64);
    }
    if query.order_by.is_empty() {
        // Donor rows may carry the donor's ordering; the cold path
        // yields table order, so restore it (a no-op when already
        // sorted).
        rows.sort_unstable();
    } else {
        sort_rows(relation, &mut rows, &query.order_by);
    }
    if let Some(n) = query.limit {
        rows.truncate(n);
    }
    Ok(ResultSet::new(
        relation.clone(),
        rows,
        query.projection.clone(),
    ))
}

/// Stable multi-key sort of row ids: numeric columns compare
/// numerically, categorical columns lexicographically by value.
fn sort_rows(relation: &Relation, rows: &mut [u32], keys: &[(qcat_data::AttrId, bool)]) {
    use std::cmp::Ordering;
    rows.sort_by(|&a, &b| {
        for &(attr, desc) in keys {
            let column = relation.column(attr);
            let ord = match column.dictionary() {
                Some(dict) => {
                    let value =
                        |r: u32| column.code_at(r as usize).map(|c| dict.value_unchecked(c));
                    value(a).cmp(&value(b))
                }
                None => {
                    // total_cmp gives missing values (NaN) a stable
                    // position instead of panicking mid-sort.
                    let va = column.numeric_at(a as usize).unwrap_or(f64::NAN);
                    let vb = column.numeric_at(b as usize).unwrap_or(f64::NAN);
                    va.total_cmp(&vb)
                }
            };
            let ord = if desc { ord.reverse() } else { ord };
            if ord != Ordering::Equal {
                return ord;
            }
        }
        a.cmp(&b) // stable tiebreak on table order
    });
}

/// A convenience wrapper owning a catalog; the "database" handle the
/// examples use.
#[derive(Debug, Default)]
pub struct Executor {
    catalog: Catalog,
}

impl Executor {
    /// Empty executor.
    pub fn new() -> Self {
        Self::default()
    }

    /// The underlying catalog.
    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    /// Register a table.
    pub fn register(&self, name: &str, relation: Relation) -> Result<(), DataError> {
        self.catalog.register(name, relation)
    }

    /// Run a query.
    pub fn query(&self, sql: &str) -> Result<ResultSet, ExecError> {
        execute(&self.catalog, sql)
    }

    /// Run a query along a chosen access path.
    pub fn query_with(&self, sql: &str, path: AccessPath) -> Result<ResultSet, ExecError> {
        execute_with(&self.catalog, sql, path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qcat_data::{AttrType, Field, RelationBuilder, Schema, Value};

    fn setup() -> Executor {
        let schema = Schema::new(vec![
            Field::new("neighborhood", AttrType::Categorical),
            Field::new("price", AttrType::Float),
            Field::new("bedroomcount", AttrType::Int),
        ])
        .unwrap();
        let rows: &[(&str, f64, i64)] = &[
            ("Redmond", 210_000.0, 3),
            ("Bellevue", 260_000.0, 4),
            ("Seattle", 305_000.0, 2),
            ("Redmond", 199_000.0, 5),
        ];
        let mut b = RelationBuilder::with_capacity(schema, rows.len());
        for (n, p, beds) in rows {
            b.push_row(&[(*n).into(), (*p).into(), (*beds).into()])
                .unwrap();
        }
        let exec = Executor::new();
        exec.register("listproperty", b.finish().unwrap()).unwrap();
        exec
    }

    #[test]
    fn end_to_end_select() {
        let exec = setup();
        let rs = exec
            .query(
                "SELECT * FROM ListProperty WHERE neighborhood IN ('Redmond') \
                 AND price BETWEEN 200000 AND 300000",
            )
            .unwrap();
        assert_eq!(rs.rows(), &[0]);
        assert_eq!(rs.row_values(0).unwrap()[0], Value::from("Redmond"));
    }

    #[test]
    fn unknown_table_is_data_error() {
        let exec = setup();
        let err = exec.query("SELECT * FROM nope").unwrap_err();
        assert!(matches!(err, ExecError::Data(DataError::UnknownTable(_))));
    }

    #[test]
    fn parse_error_propagates() {
        let exec = setup();
        let err = exec.query("SELEC * FROM t").unwrap_err();
        assert!(matches!(err, ExecError::Sql(SqlError::Parse(_))));
    }

    #[test]
    fn normalize_error_propagates() {
        let exec = setup();
        let err = exec
            .query("SELECT * FROM listproperty WHERE zip = 1")
            .unwrap_err();
        assert!(matches!(err, ExecError::Sql(SqlError::Normalize(_))));
    }

    #[test]
    fn projection_carries_through() {
        let exec = setup();
        let rs = exec
            .query("SELECT price FROM listproperty WHERE bedroomcount >= 4")
            .unwrap();
        assert_eq!(rs.len(), 2);
        assert_eq!(rs.row_values(0).unwrap(), vec![Value::Float(260_000.0)]);
    }

    #[test]
    fn order_by_and_limit() {
        let exec = setup();
        let rs = exec
            .query("SELECT * FROM listproperty ORDER BY price DESC LIMIT 2")
            .unwrap();
        assert_eq!(rs.rows(), &[2, 1]); // 305k, 260k
        let rs = exec
            .query("SELECT * FROM listproperty ORDER BY neighborhood, price")
            .unwrap();
        // Bellevue(260k), Redmond(199k), Redmond(210k), Seattle(305k)
        assert_eq!(rs.rows(), &[1, 3, 0, 2]);
        let rs = exec.query("SELECT * FROM listproperty LIMIT 0").unwrap();
        assert!(rs.is_empty());
        // LIMIT larger than the result is harmless.
        let rs = exec.query("SELECT * FROM listproperty LIMIT 99").unwrap();
        assert_eq!(rs.len(), 4);
    }

    #[test]
    fn bad_order_by_attribute_rejected() {
        let exec = setup();
        let err = exec
            .query("SELECT * FROM listproperty ORDER BY zip")
            .unwrap_err();
        assert!(matches!(err, ExecError::Sql(SqlError::Normalize(_))));
        let err = exec
            .query("SELECT * FROM listproperty LIMIT -3")
            .unwrap_err();
        assert!(matches!(err, ExecError::Sql(SqlError::Parse(_))));
    }

    #[test]
    fn no_where_returns_everything() {
        let exec = setup();
        assert_eq!(exec.query("SELECT * FROM listproperty").unwrap().len(), 4);
    }

    #[test]
    fn row_cap_refuses_large_results() {
        let exec = setup();
        let budget = qcat_fault::Budget::UNLIMITED.with_max_rows(2);
        let gas = budget.start();
        let err = qcat_fault::with_budget(&gas, || {
            exec.query("SELECT * FROM listproperty").unwrap_err()
        });
        assert_eq!(
            err,
            ExecError::Budget(qcat_fault::BudgetExceeded::Rows),
            "4 matching rows must trip a 2-row cap"
        );
        // Under the cap, a fresh gas on the same budget passes.
        let gas = budget.start();
        let ok = qcat_fault::with_budget(&gas, || {
            exec.query("SELECT * FROM listproperty WHERE bedroomcount >= 4")
        });
        assert_eq!(ok.unwrap().len(), 2);
    }

    #[test]
    fn expired_deadline_stops_the_scan() {
        let exec = setup();
        let budget = qcat_fault::Budget::UNLIMITED.with_deadline(std::time::Duration::ZERO);
        let gas = budget.start();
        let err = qcat_fault::with_budget(&gas, || {
            exec.query("SELECT * FROM listproperty WHERE price > 0")
                .unwrap_err()
        });
        assert_eq!(err, ExecError::Budget(qcat_fault::BudgetExceeded::Deadline));
    }

    #[test]
    fn residual_filter_matches_cold_execution() {
        let exec = setup();
        let relation = exec.catalog().get("listproperty").unwrap();
        let schema = relation.schema().clone();
        let wide =
            qcat_sql::parse_and_normalize("SELECT * FROM listproperty WHERE price <= 400000", &schema)
                .unwrap();
        let tight = qcat_sql::parse_and_normalize(
            "SELECT * FROM listproperty WHERE price <= 400000 AND bedroomcount >= 4",
            &schema,
        )
        .unwrap();
        assert!(qcat_sql::subsumes(&wide, &tight));
        let cached = execute_normalized(&relation, &wide).unwrap();
        let residual = qcat_sql::residual_attrs(&wide, &tight);
        let via_cache = execute_residual(&relation, &tight, cached.rows(), &residual).unwrap();
        let cold = execute_normalized(&relation, &tight).unwrap();
        assert_eq!(via_cache.rows(), cold.rows());
        assert_eq!(via_cache.projection(), cold.projection());
    }

    #[test]
    fn residual_restores_table_order_and_applies_limit() {
        let exec = setup();
        let relation = exec.catalog().get("listproperty").unwrap();
        let schema = relation.schema().clone();
        // Donor ordered by price DESC; refinement drops ORDER BY, adds
        // a LIMIT — cold answers come in table order and truncated.
        let wide = qcat_sql::parse_and_normalize(
            "SELECT * FROM listproperty ORDER BY price DESC",
            &schema,
        )
        .unwrap();
        let tight = qcat_sql::parse_and_normalize(
            "SELECT * FROM listproperty WHERE bedroomcount >= 3 LIMIT 2",
            &schema,
        )
        .unwrap();
        assert!(qcat_sql::subsumes(&wide, &tight));
        let cached = execute_normalized(&relation, &wide).unwrap();
        assert_ne!(cached.rows(), &[0, 1, 2, 3], "donor really is reordered");
        let residual = qcat_sql::residual_attrs(&wide, &tight);
        let via_cache = execute_residual(&relation, &tight, cached.rows(), &residual).unwrap();
        let cold = execute_normalized(&relation, &tight).unwrap();
        assert_eq!(via_cache.rows(), cold.rows());
        // And the ordered refinement sorts by the tight query's keys.
        let tight_ord = qcat_sql::parse_and_normalize(
            "SELECT * FROM listproperty WHERE bedroomcount >= 3 ORDER BY price DESC",
            &schema,
        )
        .unwrap();
        let residual = qcat_sql::residual_attrs(&wide, &tight_ord);
        let via_cache = execute_residual(&relation, &tight_ord, cached.rows(), &residual).unwrap();
        let cold = execute_normalized(&relation, &tight_ord).unwrap();
        assert_eq!(via_cache.rows(), cold.rows());
    }

    #[test]
    fn residual_honors_budget_and_faults() {
        let exec = setup();
        let relation = exec.catalog().get("listproperty").unwrap();
        let schema = relation.schema().clone();
        let tight =
            qcat_sql::parse_and_normalize("SELECT * FROM listproperty WHERE price > 0", &schema)
                .unwrap();
        let all: Vec<u32> = relation.all_row_ids();
        let budget = qcat_fault::Budget::UNLIMITED.with_max_rows(2);
        let gas = budget.start();
        let err = qcat_fault::with_budget(&gas, || {
            execute_residual(&relation, &tight, &all, &[qcat_data::AttrId(1)]).unwrap_err()
        });
        assert_eq!(err, ExecError::Budget(qcat_fault::BudgetExceeded::Rows));
        let plan = qcat_fault::FaultPlan::parse("exec.residual:error").unwrap();
        let err = qcat_fault::with_plan(&plan, || {
            execute_residual(&relation, &tight, &all, &[qcat_data::AttrId(1)]).unwrap_err()
        });
        assert!(matches!(err, ExecError::Fault(f) if f.site == "exec.residual"));
    }

    #[test]
    fn injected_faults_surface_as_structured_errors() {
        let exec = setup();
        for site in ["exec.execute", "exec.plan", "exec.scan"] {
            let plan = qcat_fault::FaultPlan::parse(&format!("{site}:error")).unwrap();
            let err = qcat_fault::with_plan(&plan, || {
                exec.query("SELECT * FROM listproperty").unwrap_err()
            });
            assert_eq!(err, ExecError::Fault(qcat_fault::Fault { site }));
            assert!(err.to_string().contains(site), "display names the site");
        }
        // The plan is scoped: outside with_plan the same query succeeds.
        assert_eq!(exec.query("SELECT * FROM listproperty").unwrap().len(), 4);
    }
}
