//! Query refinement from explored categories.
//!
//! The paper's introduction observes that "after browsing the
//! categorization hierarchy …, users often reformulate the query into
//! a more focused narrower query. Therefore, categorization … \[is\]
//! indirectly useful even for subsequent reformulation." This module
//! closes that loop: any node of a category tree can be turned back
//! into SQL — the original query's conditions conjoined with the
//! node's full path predicate — ready to run as the user's next,
//! narrower query.

use crate::label::LabelKind;
use crate::tree::{CategoryTree, NodeId};
use qcat_sql::ast::{Expr, Literal, Projection, SelectQuery};
use qcat_sql::token::CompareOp;
use qcat_sql::{AttrCondition, NormalizedQuery};
use std::collections::BTreeMap;

/// Build the refined query selecting exactly `tset(node)`: the
/// original query `base` (when given) plus one condition per label on
/// the path from the root to `node`.
///
/// Path labels constrain attributes the base query either does not
/// constrain or constrains more loosely, so conditions are intersected
/// per attribute (via the normalizer's own folding rules).
pub fn refine_query(
    tree: &CategoryTree,
    node: NodeId,
    base: Option<&NormalizedQuery>,
    table: &str,
) -> NormalizedQuery {
    let mut conditions: BTreeMap<_, AttrCondition> =
        base.map(|q| q.conditions.clone()).unwrap_or_default();
    for label in tree.path_labels(node) {
        let cond = match &label.kind {
            // `In` labels carry their value strings, so no dictionary
            // round-trip is needed.
            LabelKind::In(values) => {
                AttrCondition::InStr(values.values().map(|v| v.as_ref().to_string()).collect())
            }
            LabelKind::Range(r) => AttrCondition::Range(*r),
        };
        conditions
            .entry(label.attr)
            .and_modify(|existing| {
                *existing = intersect(existing.clone(), cond.clone());
            })
            .or_insert(cond);
    }
    NormalizedQuery {
        table: table.to_ascii_lowercase(),
        projection: base.and_then(|q| q.projection.clone()),
        conditions,
        order_by: base.map(|q| q.order_by.clone()).unwrap_or_default(),
        limit: None, // a refinement re-examines the whole category
    }
}

/// Intersect two conditions on the same attribute (path labels always
/// narrow, so this mirrors the normalizer's folding).
fn intersect(a: AttrCondition, b: AttrCondition) -> AttrCondition {
    use AttrCondition::*;
    match (a, b) {
        (InStr(x), InStr(y)) => InStr(x.intersection(&y).cloned().collect()),
        (Range(x), Range(y)) => Range(x.intersect(&y)),
        (InNum(x), Range(r)) | (Range(r), InNum(x)) => {
            InNum(x.into_iter().filter(|&v| r.contains(v)).collect())
        }
        (InNum(x), InNum(y)) => InNum(
            x.into_iter()
                .filter(|v| y.binary_search_by(|p| p.total_cmp(v)).is_ok())
                .collect(),
        ),
        // A path label never changes an attribute's kind; fall back to
        // the label side.
        (_, other) => other,
    }
}

/// Render a refined query back to SQL text (a [`SelectQuery`] the
/// parser round-trips).
pub fn refined_sql(
    tree: &CategoryTree,
    node: NodeId,
    base: Option<&NormalizedQuery>,
    table: &str,
) -> String {
    let normalized = refine_query(tree, node, base, table);
    let schema = tree.relation().schema();
    let mut conjuncts = Vec::new();
    for (attr, cond) in &normalized.conditions {
        let name = schema.name_of(*attr).to_string();
        let expr = match cond {
            AttrCondition::InStr(values) => Expr::InList {
                attr: name,
                list: values.iter().map(|v| Literal::Str(v.clone())).collect(),
            },
            AttrCondition::InNum(values) => Expr::InList {
                attr: name,
                list: values.iter().map(|&v| Literal::Float(v)).collect(),
            },
            AttrCondition::Range(r) => match (r.finite_lo(), r.finite_hi()) {
                (Some(lo), Some(hi)) if r.lo_inclusive && r.hi_inclusive => Expr::Between {
                    attr: name,
                    lo: Literal::Float(lo),
                    hi: Literal::Float(hi),
                },
                (Some(lo), Some(hi)) => Expr::And(vec![
                    Expr::Compare {
                        attr: name.clone(),
                        op: if r.lo_inclusive {
                            CompareOp::Ge
                        } else {
                            CompareOp::Gt
                        },
                        literal: Literal::Float(lo),
                    },
                    Expr::Compare {
                        attr: name,
                        op: if r.hi_inclusive {
                            CompareOp::Le
                        } else {
                            CompareOp::Lt
                        },
                        literal: Literal::Float(hi),
                    },
                ]),
                (Some(lo), None) => Expr::Compare {
                    attr: name,
                    op: if r.lo_inclusive {
                        CompareOp::Ge
                    } else {
                        CompareOp::Gt
                    },
                    literal: Literal::Float(lo),
                },
                (None, Some(hi)) => Expr::Compare {
                    attr: name,
                    op: if r.hi_inclusive {
                        CompareOp::Le
                    } else {
                        CompareOp::Lt
                    },
                    literal: Literal::Float(hi),
                },
                (None, None) => continue,
            },
        };
        conjuncts.push(expr);
    }
    let predicate = match conjuncts.len() {
        0 => None,
        1 => conjuncts.pop(),
        _ => Some(Expr::And(conjuncts)),
    };
    SelectQuery::simple(Projection::Star, table, predicate).to_string()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::CategorizeConfig;
    use crate::Categorizer;
    use qcat_data::{AttrId, AttrType, Field, Relation, RelationBuilder, Schema};
    use qcat_exec::{execute, ExecOptions};
    use qcat_sql::{parse_and_normalize, parse_select};
    use qcat_workload::{PreprocessConfig, WorkloadLog, WorkloadStatistics};

    fn setup() -> (Relation, WorkloadStatistics) {
        let schema = Schema::new(vec![
            Field::new("neighborhood", AttrType::Categorical),
            Field::new("price", AttrType::Float),
        ])
        .unwrap();
        let mut b = RelationBuilder::new(schema.clone());
        let hoods = ["Redmond", "Bellevue", "Seattle"];
        for i in 0..150 {
            b.push_row(&[hoods[i % 3].into(), (200_000.0 + (i as f64) * 800.0).into()])
                .unwrap();
        }
        let rel = b.finish().unwrap();
        let mut w = Vec::new();
        for i in 0..60 {
            w.push(format!(
                "SELECT * FROM t WHERE neighborhood IN ('{}')",
                hoods[i % 3]
            ));
            let lo = 200_000 + (i % 6) * 20_000;
            w.push(format!(
                "SELECT * FROM t WHERE price BETWEEN {lo} AND {}",
                lo + 20_000
            ));
        }
        let log = WorkloadLog::parse(w.iter().map(String::as_str), &schema, None);
        let cfg = PreprocessConfig::new().with_interval(AttrId(1), 5_000.0);
        (rel.clone(), WorkloadStatistics::build(&log, &schema, &cfg))
    }

    fn tree_and_query(
        rel: &Relation,
        stats: &WorkloadStatistics,
    ) -> (crate::CategoryTree, NormalizedQuery) {
        let q = parse_and_normalize(
            "SELECT * FROM homes WHERE price BETWEEN 200000 AND 320000",
            rel.schema(),
        )
        .unwrap();
        let result = execute(rel, &q, &ExecOptions::default()).unwrap();
        let config = CategorizeConfig::default()
            .with_max_leaf_tuples(10)
            .with_attr_threshold(0.1);
        (
            Categorizer::new(stats, config).categorize(&result, Some(&q)),
            q,
        )
    }

    #[test]
    fn refined_query_selects_exactly_the_node_tset() {
        let (rel, stats) = setup();
        let (tree, q) = tree_and_query(&rel, &stats);
        // Every node's refined query must select exactly its tset.
        for id in tree.dfs() {
            let refined = refine_query(&tree, id, Some(&q), "homes");
            let selected = execute(&rel, &refined, &ExecOptions::default()).unwrap();
            let mut got = selected.rows().to_vec();
            let mut want = tree.tuples(id).to_vec();
            got.sort_unstable();
            want.sort_unstable();
            assert_eq!(got, want, "node {id}");
        }
    }

    #[test]
    fn refined_sql_round_trips_through_the_parser() {
        let (rel, stats) = setup();
        let (tree, q) = tree_and_query(&rel, &stats);
        for id in tree.dfs().into_iter().take(12) {
            let sql = refined_sql(&tree, id, Some(&q), "homes");
            let ast = parse_select(&sql).unwrap_or_else(|e| panic!("{sql}: {e}"));
            let normalized = qcat_sql::normalize::normalize(&ast, rel.schema()).unwrap();
            let selected = execute(&rel, &normalized, &ExecOptions::default()).unwrap();
            let mut got = selected.rows().to_vec();
            let mut want = tree.tuples(id).to_vec();
            got.sort_unstable();
            want.sort_unstable();
            assert_eq!(got, want, "node {id}: {sql}");
        }
    }

    #[test]
    fn root_refinement_is_the_base_query() {
        let (rel, stats) = setup();
        let (tree, q) = tree_and_query(&rel, &stats);
        let refined = refine_query(&tree, tree.root(), Some(&q), "homes");
        assert_eq!(refined.conditions, q.conditions);
        // Without a base the root query has no conditions at all.
        let bare = refine_query(&tree, tree.root(), None, "homes");
        assert!(bare.conditions.is_empty());
        let sql = refined_sql(&tree, tree.root(), None, "homes");
        assert_eq!(sql, "SELECT * FROM homes");
    }

    #[test]
    fn path_conditions_intersect_with_base() {
        let (rel, stats) = setup();
        let (tree, q) = tree_and_query(&rel, &stats);
        // Find a price-labeled node; its refined price range must sit
        // inside the base [200k, 320k].
        let price = rel.schema().resolve("price").unwrap();
        for id in tree.dfs() {
            let node = tree.node(id);
            let Some(label) = &node.label else { continue };
            if label.attr != price {
                continue;
            }
            let refined = refine_query(&tree, id, Some(&q), "homes");
            let AttrCondition::Range(r) = refined.condition(price).unwrap() else {
                panic!("price condition must stay a range");
            };
            assert!(r.lo >= 200_000.0 - 1e-9 && r.hi <= 320_000.0 + 1e-9);
        }
    }
}
