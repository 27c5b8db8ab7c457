//! The selection executor.

use crate::plan::{self, AccessPath, ExecOptions};
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

/// Parse `sql`, normalize it against its table in `catalog`, and
/// [`execute`] it with default options.
pub fn execute_sql(catalog: &Catalog, sql: &str) -> Result<ResultSet, ExecError> {
    let ast = {
        let _span = qcat_obs::span!("sql.parse", bytes = sql.len());
        parse_select(sql)?
    };
    let relation = catalog.get(&ast.table)?;
    let normalized = {
        let _span = qcat_obs::span!("sql.normalize", has_predicate = ast.predicate.is_some());
        qcat_sql::normalize::normalize(&ast, relation.schema())?
    };
    execute(&relation, &normalized, &ExecOptions::default())
}

/// [`execute`] along `path` with the other options at their defaults.
/// Kept only because the benchmark harness in `perfbench/` imports
/// it; everything else calls [`execute`].
pub fn execute_normalized_with(
    relation: &Relation,
    query: &NormalizedQuery,
    path: AccessPath,
) -> Result<ResultSet, ExecError> {
    execute(relation, query, &ExecOptions { path, ..ExecOptions::default() })
}

/// Execute an already-normalized query: select its rows (see
/// [`plan::select_rows`]), then apply its ordering and limit.
///
/// Every option combination yields the same answer as
/// `ExecOptions::default()`. A cold execution's rows are already in
/// table order. Donor rows may carry the donor's ordering, so with no
/// `ORDER BY` they are restored to table order; the sort itself is a
/// total order, so the input order never shows through.
///
/// Runs under the ambient budget: the matched rows are charged
/// against the row and heap caps, and a budget trip anywhere returns
/// [`ExecError::Budget`] with no rows.
pub fn execute(
    relation: &Relation,
    query: &NormalizedQuery,
    opts: &ExecOptions<'_>,
) -> Result<ResultSet, ExecError> {
    let mut span = match opts.donor {
        None => qcat_obs::span!("exec.execute", rows_total = relation.len()),
        Some(donor) => qcat_obs::span!("exec.residual", rows_in = donor.rows.len()),
    };
    if opts.donor.is_none() {
        if let Some(fault) = qcat_fault::point("exec.execute") {
            return Err(fault.into());
        }
    }
    let (mut rows, explain) = plan::select_rows(relation, query, opts)?;
    if let Some(gas) = qcat_fault::current_gas() {
        gas.charge_rows(rows.len())?;
        // The rows become the categorizer's root tuple set.
        gas.charge_heap(rows.len() * std::mem::size_of::<u32>())?;
    }
    if qcat_obs::active() {
        span.set("rows_matched", rows.len());
        match opts.donor {
            None => {
                span.set("used_index", explain.used_index);
                if !explain.used_index {
                    qcat_obs::counter("exec.rows_scanned", relation.len() as i64);
                }
                qcat_obs::counter("exec.rows_matched", rows.len() as i64);
            }
            Some(donor) => {
                qcat_obs::counter("exec.residual.rows_in", donor.rows.len() as i64);
                qcat_obs::counter("exec.residual.rows_matched", rows.len() as i64);
            }
        }
    }
    if !query.order_by.is_empty() {
        sort_rows(relation, &mut rows, &query.order_by);
    } else if opts.donor.is_some() {
        rows.sort_unstable();
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

#[cfg(test)]
mod tests {
    use super::*;
    use qcat_data::{AttrType, Field, RelationBuilder, Schema, Value};

    fn setup() -> Catalog {
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
        let catalog = Catalog::new();
        catalog.register("listproperty", b.finish().unwrap()).unwrap();
        catalog
    }

    fn execute_cold(relation: &Relation, query: &NormalizedQuery) -> Result<ResultSet, ExecError> {
        execute(relation, query, &ExecOptions::default())
    }

    /// [`execute`] over `donor_rows` with `residual` still to check.
    fn via_donor(
        relation: &Relation,
        query: &NormalizedQuery,
        donor_rows: &[u32],
        residual: &[qcat_data::AttrId],
    ) -> Result<ResultSet, ExecError> {
        let donor = plan::Donor {
            rows: donor_rows,
            residual,
        };
        execute(
            relation,
            query,
            &ExecOptions {
                donor: Some(donor),
                ..ExecOptions::default()
            },
        )
    }

    #[test]
    fn end_to_end_select() {
        let catalog = setup();
        let rs = execute_sql(
                &catalog,
                "SELECT * FROM ListProperty WHERE neighborhood IN ('Redmond') \
                 AND price BETWEEN 200000 AND 300000",
            )
            .unwrap();
        assert_eq!(rs.rows(), &[0]);
        assert_eq!(rs.row_values(0).unwrap()[0], Value::from("Redmond"));
    }

    #[test]
    fn unknown_table_is_data_error() {
        let catalog = setup();
        let err = execute_sql(&catalog, "SELECT * FROM nope").unwrap_err();
        assert!(matches!(err, ExecError::Data(DataError::UnknownTable(_))));
    }

    #[test]
    fn parse_error_propagates() {
        let catalog = setup();
        let err = execute_sql(&catalog, "SELEC * FROM t").unwrap_err();
        assert!(matches!(err, ExecError::Sql(SqlError::Parse(_))));
    }

    #[test]
    fn normalize_error_propagates() {
        let catalog = setup();
        let err = execute_sql(
                &catalog,"SELECT * FROM listproperty WHERE zip = 1")
            .unwrap_err();
        assert!(matches!(err, ExecError::Sql(SqlError::Normalize(_))));
    }

    #[test]
    fn projection_carries_through() {
        let catalog = setup();
        let rs = execute_sql(
                &catalog,"SELECT price FROM listproperty WHERE bedroomcount >= 4")
            .unwrap();
        assert_eq!(rs.len(), 2);
        assert_eq!(rs.row_values(0).unwrap(), vec![Value::Float(260_000.0)]);
    }

    #[test]
    fn order_by_and_limit() {
        let catalog = setup();
        let rs = execute_sql(
                &catalog,"SELECT * FROM listproperty ORDER BY price DESC LIMIT 2")
            .unwrap();
        assert_eq!(rs.rows(), &[2, 1]); // 305k, 260k
        let rs = execute_sql(
                &catalog,"SELECT * FROM listproperty ORDER BY neighborhood, price")
            .unwrap();
        // Bellevue(260k), Redmond(199k), Redmond(210k), Seattle(305k)
        assert_eq!(rs.rows(), &[1, 3, 0, 2]);
        let rs = execute_sql(&catalog, "SELECT * FROM listproperty LIMIT 0").unwrap();
        assert!(rs.is_empty());
        // LIMIT larger than the result is harmless.
        let rs = execute_sql(&catalog, "SELECT * FROM listproperty LIMIT 99").unwrap();
        assert_eq!(rs.len(), 4);
    }

    #[test]
    fn bad_order_by_attribute_rejected() {
        let catalog = setup();
        let err = execute_sql(
                &catalog,"SELECT * FROM listproperty ORDER BY zip")
            .unwrap_err();
        assert!(matches!(err, ExecError::Sql(SqlError::Normalize(_))));
        let err = execute_sql(
                &catalog,"SELECT * FROM listproperty LIMIT -3")
            .unwrap_err();
        assert!(matches!(err, ExecError::Sql(SqlError::Parse(_))));
    }

    #[test]
    fn no_where_returns_everything() {
        let catalog = setup();
        assert_eq!(execute_sql(&catalog, "SELECT * FROM listproperty").unwrap().len(), 4);
    }

    #[test]
    fn row_cap_refuses_large_results() {
        let catalog = setup();
        let budget = qcat_fault::Budget::UNLIMITED.with_max_rows(2);
        let gas = budget.start();
        let err = qcat_fault::with_budget(&gas, || {
            execute_sql(&catalog, "SELECT * FROM listproperty").unwrap_err()
        });
        assert_eq!(
            err,
            ExecError::Budget(qcat_fault::BudgetExceeded::Rows),
            "4 matching rows must trip a 2-row cap"
        );
        // Under the cap, a fresh gas on the same budget passes.
        let gas = budget.start();
        let ok = qcat_fault::with_budget(&gas, || {
            execute_sql(&catalog, "SELECT * FROM listproperty WHERE bedroomcount >= 4")
        });
        assert_eq!(ok.unwrap().len(), 2);
    }

    #[test]
    fn heap_cap_counts_the_answer_rows() {
        let catalog = setup();
        // Four matching row ids hold 16 bytes.
        let sql = "SELECT * FROM listproperty";
        let gas = qcat_fault::Budget::UNLIMITED.with_max_heap_bytes(15).start();
        let err = qcat_fault::with_budget(&gas, || execute_sql(&catalog, sql).unwrap_err());
        assert_eq!(err, ExecError::Budget(qcat_fault::BudgetExceeded::Heap));
        let gas = qcat_fault::Budget::UNLIMITED.with_max_heap_bytes(16).start();
        let ok = qcat_fault::with_budget(&gas, || execute_sql(&catalog, sql));
        assert_eq!(ok.unwrap().len(), 4);
    }

    #[test]
    fn expired_deadline_stops_the_scan() {
        let catalog = setup();
        let budget = qcat_fault::Budget::UNLIMITED.with_deadline(std::time::Duration::ZERO);
        let gas = budget.start();
        let err = qcat_fault::with_budget(&gas, || {
            execute_sql(&catalog, "SELECT * FROM listproperty WHERE price > 0")
                .unwrap_err()
        });
        assert_eq!(err, ExecError::Budget(qcat_fault::BudgetExceeded::Deadline));
    }

    #[test]
    fn residual_filter_matches_cold_execution() {
        let catalog = setup();
        let relation = catalog.get("listproperty").unwrap();
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
        let cached = execute_cold(&relation, &wide).unwrap();
        let residual = qcat_sql::residual_attrs(&wide, &tight);
        let via_cache = via_donor(&relation, &tight, cached.rows(), &residual).unwrap();
        let cold = execute_cold(&relation, &tight).unwrap();
        assert_eq!(via_cache.rows(), cold.rows());
        assert_eq!(via_cache.projection(), cold.projection());
    }

    #[test]
    fn residual_restores_table_order_and_applies_limit() {
        let catalog = setup();
        let relation = catalog.get("listproperty").unwrap();
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
        let cached = execute_cold(&relation, &wide).unwrap();
        assert_ne!(cached.rows(), &[0, 1, 2, 3], "donor really is reordered");
        let residual = qcat_sql::residual_attrs(&wide, &tight);
        let via_cache = via_donor(&relation, &tight, cached.rows(), &residual).unwrap();
        let cold = execute_cold(&relation, &tight).unwrap();
        assert_eq!(via_cache.rows(), cold.rows());
        // And the ordered refinement sorts by the tight query's keys.
        let tight_ord = qcat_sql::parse_and_normalize(
            "SELECT * FROM listproperty WHERE bedroomcount >= 3 ORDER BY price DESC",
            &schema,
        )
        .unwrap();
        let residual = qcat_sql::residual_attrs(&wide, &tight_ord);
        let via_cache = via_donor(&relation, &tight_ord, cached.rows(), &residual).unwrap();
        let cold = execute_cold(&relation, &tight_ord).unwrap();
        assert_eq!(via_cache.rows(), cold.rows());
    }

    #[test]
    fn residual_honors_budget_and_faults() {
        let catalog = setup();
        let relation = catalog.get("listproperty").unwrap();
        let schema = relation.schema().clone();
        let tight =
            qcat_sql::parse_and_normalize("SELECT * FROM listproperty WHERE price > 0", &schema)
                .unwrap();
        let all: Vec<u32> = relation.all_row_ids();
        let budget = qcat_fault::Budget::UNLIMITED.with_max_rows(2);
        let gas = budget.start();
        let err = qcat_fault::with_budget(&gas, || {
            via_donor(&relation, &tight, &all, &[qcat_data::AttrId(1)]).unwrap_err()
        });
        assert_eq!(err, ExecError::Budget(qcat_fault::BudgetExceeded::Rows));
        let plan = qcat_fault::FaultPlan::parse("exec.residual:error").unwrap();
        let err = qcat_fault::with_plan(&plan, || {
            via_donor(&relation, &tight, &all, &[qcat_data::AttrId(1)]).unwrap_err()
        });
        assert!(matches!(err, ExecError::Fault(f) if f.site == "exec.residual"));
    }

    /// Every combination of path, width and donor answers exactly like
    /// a cold default execution, on a multi-segment indexed relation.
    #[test]
    fn option_combinations_match_the_cold_default() {
        let schema = Schema::new(vec![
            Field::new("neighborhood", AttrType::Categorical),
            Field::new("price", AttrType::Float),
            Field::new("bedroomcount", AttrType::Int),
        ])
        .unwrap();
        let hoods = ["Redmond", "Bellevue", "Seattle", "Issaquah", "Kirkland"];
        let mut b = RelationBuilder::with_capacity(schema, 60)
            .with_shard_rows(7)
            .with_indexes();
        for i in 0..60usize {
            let price = 150_000.0 + ((i * 37_117) % 300_000) as f64;
            b.push_row(&[hoods[i * 7 % 5].into(), price.into(), ((i % 5 + 1) as i64).into()])
                .unwrap();
        }
        let relation = b.finish().unwrap();
        assert!(relation.shards().shard_count() > 1);
        let schema = relation.schema().clone();
        let parse = |sql: &str| qcat_sql::parse_and_normalize(sql, &schema).unwrap();

        let wide = "SELECT * FROM homes WHERE price <= 400000";
        let table_order = execute_cold(&relation, &parse(wide)).unwrap();
        let price_desc = execute_cold(&relation, &parse(&format!("{wide} ORDER BY price DESC")))
            .unwrap();
        assert_ne!(table_order.rows(), price_desc.rows(), "the donor orders differ");
        let donors: [Option<&[u32]>; 3] = [None, Some(table_order.rows()), Some(price_desc.rows())];

        for sql in [
            "SELECT * FROM homes WHERE price <= 400000 AND bedroomcount >= 3",
            "SELECT price, neighborhood FROM homes \
             WHERE price <= 300000 AND neighborhood IN ('Redmond', 'Bellevue')",
            "SELECT * FROM homes WHERE price BETWEEN 200000 AND 350000 LIMIT 4",
            "SELECT * FROM homes WHERE price <= 400000 AND bedroomcount IN (2, 4) \
             ORDER BY price DESC LIMIT 5",
            "SELECT neighborhood FROM homes WHERE price < 390000 ORDER BY neighborhood, price",
        ] {
            let query = parse(sql);
            assert!(qcat_sql::subsumes(&parse(wide), &query), "{sql}");
            let residual = qcat_sql::residual_attrs(&parse(wide), &query);
            let expected = execute_cold(&relation, &query).unwrap();
            for path in [AccessPath::Auto, AccessPath::ForceScan, AccessPath::ForceIndex] {
                for threads in [1, 2] {
                    for donor_rows in donors {
                        let opts = ExecOptions {
                            path,
                            threads,
                            donor: donor_rows.map(|rows| plan::Donor {
                                rows,
                                residual: &residual,
                            }),
                        };
                        let got = execute(&relation, &query, &opts).unwrap();
                        let donor = donor_rows.is_some();
                        let case = format!("{sql}: {path:?}, threads={threads}, donor={donor}");
                        assert_eq!(got.rows(), expected.rows(), "{case}");
                        assert_eq!(got.projection(), expected.projection(), "{case}");
                    }
                }
            }
        }
    }

    #[test]
    fn injected_faults_surface_as_structured_errors() {
        let catalog = setup();
        for site in ["exec.execute", "exec.plan", "exec.scan"] {
            let plan = qcat_fault::FaultPlan::parse(&format!("{site}:error")).unwrap();
            let err = qcat_fault::with_plan(&plan, || {
                execute_sql(&catalog, "SELECT * FROM listproperty").unwrap_err()
            });
            assert_eq!(err, ExecError::Fault(qcat_fault::Fault { site }));
            assert!(err.to_string().contains(site), "display names the site");
        }
        // The plan is scoped: outside with_plan the same query succeeds.
        assert_eq!(execute_sql(&catalog, "SELECT * FROM listproperty").unwrap().len(), 4);
    }
}
