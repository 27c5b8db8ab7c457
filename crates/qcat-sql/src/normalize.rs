//! Resolve a parsed query against a schema and fold its conjunction
//! into one condition per attribute.
//!
//! The normalized form is the lingua franca of the workspace: the
//! executor evaluates it, the workload preprocessor counts it, the
//! categorizer tests label overlap against it, and the exploration
//! simulators use it as the "information need" of a synthetic user.

use crate::ast::{Expr, Projection, SelectQuery};
use crate::error::NormalizeError;
use crate::token::CompareOp;
use qcat_data::{AttrId, AttrType, Schema};
use std::collections::BTreeMap;
use std::collections::BTreeSet;

/// A numeric interval with independently inclusive/exclusive endpoints.
///
/// Unbounded ends are represented by ±∞, which keeps interval algebra
/// branch-free.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NumericRange {
    /// Lower endpoint (may be `-inf`).
    pub lo: f64,
    /// Whether `lo` itself is included.
    pub lo_inclusive: bool,
    /// Upper endpoint (may be `+inf`).
    pub hi: f64,
    /// Whether `hi` itself is included.
    pub hi_inclusive: bool,
}

impl NumericRange {
    /// The unbounded range `(-inf, +inf)`.
    pub fn unbounded() -> Self {
        NumericRange {
            lo: f64::NEG_INFINITY,
            lo_inclusive: false,
            hi: f64::INFINITY,
            hi_inclusive: false,
        }
    }

    /// Closed interval `[lo, hi]`.
    pub fn closed(lo: f64, hi: f64) -> Self {
        NumericRange {
            lo,
            lo_inclusive: true,
            hi,
            hi_inclusive: true,
        }
    }

    /// Half-open interval `[lo, hi)` — the shape of the paper's numeric
    /// category labels `a1 ≤ A < a2`.
    pub fn half_open(lo: f64, hi: f64) -> Self {
        NumericRange {
            lo,
            lo_inclusive: true,
            hi,
            hi_inclusive: false,
        }
    }

    /// Does `v` fall inside the range?
    #[inline]
    #[allow(
        clippy::float_cmp,
        reason = "L2: exact bound test; -0.0 and 0.0 are one endpoint, which total_cmp would split"
    )]
    pub fn contains(&self, v: f64) -> bool {
        let above = v > self.lo || (self.lo_inclusive && v == self.lo);
        let below = v < self.hi || (self.hi_inclusive && v == self.hi);
        above && below
    }

    /// True when no value can satisfy the range.
    #[allow(
        clippy::float_cmp,
        reason = "L2: exact bound test; -0.0 and 0.0 are one endpoint, which total_cmp would split"
    )]
    pub fn is_empty(&self) -> bool {
        self.lo > self.hi || (self.lo == self.hi && !(self.lo_inclusive && self.hi_inclusive))
    }

    /// Intersection of two ranges.
    pub fn intersect(&self, other: &NumericRange) -> NumericRange {
        let (lo, lo_inclusive) = if self.lo > other.lo {
            (self.lo, self.lo_inclusive)
        } else if other.lo > self.lo {
            (other.lo, other.lo_inclusive)
        } else {
            (self.lo, self.lo_inclusive && other.lo_inclusive)
        };
        let (hi, hi_inclusive) = if self.hi < other.hi {
            (self.hi, self.hi_inclusive)
        } else if other.hi < self.hi {
            (other.hi, other.hi_inclusive)
        } else {
            (self.hi, self.hi_inclusive && other.hi_inclusive)
        };
        NumericRange {
            lo,
            lo_inclusive,
            hi,
            hi_inclusive,
        }
    }

    /// Interval-overlap test, the paper's numeric overlap semantics:
    /// two ranges overlap when some value satisfies both.
    pub fn overlaps(&self, other: &NumericRange) -> bool {
        !self.intersect(other).is_empty()
    }

    /// The finite lower endpoint, if bounded below.
    pub fn finite_lo(&self) -> Option<f64> {
        self.lo.is_finite().then_some(self.lo)
    }

    /// The finite upper endpoint, if bounded above.
    pub fn finite_hi(&self) -> Option<f64> {
        self.hi.is_finite().then_some(self.hi)
    }
}

/// The folded selection condition on one attribute.
#[derive(Debug, Clone, PartialEq)]
pub enum AttrCondition {
    /// Categorical membership: the set of accepted string values.
    InStr(BTreeSet<String>),
    /// Numeric membership: accepted values, sorted and deduplicated.
    InNum(Vec<f64>),
    /// Numeric interval.
    Range(NumericRange),
}

impl AttrCondition {
    /// True when the condition can never match.
    pub fn is_unsatisfiable(&self) -> bool {
        match self {
            AttrCondition::InStr(s) => s.is_empty(),
            AttrCondition::InNum(v) => v.is_empty(),
            AttrCondition::Range(r) => r.is_empty(),
        }
    }

    /// Covering numeric range for stats purposes (see
    /// `qcat-workload`): numeric IN-lists widen to `[min, max]`.
    pub fn covering_range(&self) -> Option<NumericRange> {
        match self {
            AttrCondition::InStr(_) => None,
            AttrCondition::InNum(v) => {
                let (&lo, &hi) = (v.first()?, v.last()?);
                Some(NumericRange::closed(lo, hi))
            }
            AttrCondition::Range(r) => Some(*r),
        }
    }

    /// Intersect with another condition on the same attribute.
    fn intersect(self, other: AttrCondition) -> AttrCondition {
        use AttrCondition::*;
        match (self, other) {
            (InStr(a), InStr(b)) => InStr(a.intersection(&b).cloned().collect()),
            (InNum(a), InNum(b)) => {
                let bset: Vec<f64> = b;
                InNum(
                    a.into_iter()
                        .filter(|x| bset.binary_search_by(|p| p.total_cmp(x)).is_ok())
                        .collect(),
                )
            }
            (InNum(a), Range(r)) | (Range(r), InNum(a)) => {
                InNum(a.into_iter().filter(|&x| r.contains(x)).collect())
            }
            (Range(a), Range(b)) => Range(a.intersect(&b)),
            // Mixed string/numeric conditions on one attribute cannot
            // normalize (callers reject earlier); intersect to nothing.
            (InStr(_), _) | (_, InStr(_)) => InStr(BTreeSet::new()),
        }
    }
}

/// A query resolved against a schema.
#[derive(Debug, Clone, PartialEq)]
pub struct NormalizedQuery {
    /// The `FROM` table name, lower-cased.
    pub table: String,
    /// Projected attributes (`None` = `*`).
    pub projection: Option<Vec<AttrId>>,
    /// One folded condition per constrained attribute, in attribute
    /// order.
    pub conditions: BTreeMap<AttrId, AttrCondition>,
    /// `ORDER BY` keys (attribute, descending), in priority order.
    pub order_by: Vec<(AttrId, bool)>,
    /// `LIMIT`, if any.
    pub limit: Option<usize>,
}

impl NormalizedQuery {
    /// Condition on `attr`, if the query constrains it.
    pub fn condition(&self, attr: AttrId) -> Option<&AttrCondition> {
        self.conditions.get(&attr)
    }

    /// Does the query place any selection condition on `attr`?
    ///
    /// This is the predicate behind the paper's `NAttr` statistic.
    pub fn constrains(&self, attr: AttrId) -> bool {
        self.conditions.contains_key(&attr)
    }
}

/// Resolve `query` against `schema`.
pub fn normalize(query: &SelectQuery, schema: &Schema) -> Result<NormalizedQuery, NormalizeError> {
    let projection = match &query.projection {
        Projection::Star => None,
        Projection::Columns(cols) => {
            let mut ids = Vec::with_capacity(cols.len());
            for c in cols {
                ids.push(
                    schema
                        .resolve(c)
                        .map_err(|_| NormalizeError::UnknownProjection(c.clone()))?,
                );
            }
            Some(ids)
        }
    };
    let mut conditions: BTreeMap<AttrId, AttrCondition> = BTreeMap::new();
    if let Some(pred) = &query.predicate {
        for leaf in pred.conjuncts() {
            let (attr_name, cond) = leaf_condition(leaf, schema)?;
            let id = schema
                .resolve(attr_name)
                .map_err(|_| NormalizeError::UnknownAttribute(attr_name.to_string()))?;
            conditions
                .entry(id)
                .and_modify(|existing| {
                    let prev = std::mem::replace(existing, AttrCondition::InNum(Vec::new()));
                    *existing = prev.intersect(cond.clone());
                })
                .or_insert(cond);
        }
    }
    let mut order_by = Vec::with_capacity(query.order_by.len());
    for item in &query.order_by {
        let id = schema
            .resolve(&item.attr)
            .map_err(|_| NormalizeError::UnknownAttribute(item.attr.clone()))?;
        order_by.push((id, item.descending));
    }
    Ok(NormalizedQuery {
        table: query.table.to_ascii_lowercase(),
        projection,
        conditions,
        order_by,
        limit: query.limit.map(|n| n as usize),
    })
}

/// Translate one leaf of the conjunction into a typed condition.
fn leaf_condition<'a>(
    leaf: &'a Expr,
    schema: &Schema,
) -> Result<(&'a str, AttrCondition), NormalizeError> {
    match leaf {
        Expr::Compare { attr, op, literal } => {
            let ty = attr_type(attr, schema)?;
            match ty {
                AttrType::Categorical => {
                    let s = literal.as_str().ok_or_else(|| {
                        type_mismatch(
                            attr,
                            "a string literal is required for a categorical attribute",
                        )
                    })?;
                    if *op != CompareOp::Eq {
                        return Err(type_mismatch(
                            attr,
                            "only `=` and IN apply to categorical attributes",
                        ));
                    }
                    let mut set = BTreeSet::new();
                    set.insert(s.to_string());
                    Ok((attr, AttrCondition::InStr(set)))
                }
                AttrType::Int | AttrType::Float => {
                    let v = literal.as_f64().ok_or_else(|| {
                        type_mismatch(
                            attr,
                            "a numeric literal is required for a numeric attribute",
                        )
                    })?;
                    let range = match op {
                        CompareOp::Eq => NumericRange::closed(v, v),
                        CompareOp::Lt => NumericRange {
                            lo: f64::NEG_INFINITY,
                            lo_inclusive: false,
                            hi: v,
                            hi_inclusive: false,
                        },
                        CompareOp::Le => NumericRange {
                            lo: f64::NEG_INFINITY,
                            lo_inclusive: false,
                            hi: v,
                            hi_inclusive: true,
                        },
                        CompareOp::Gt => NumericRange {
                            lo: v,
                            lo_inclusive: false,
                            hi: f64::INFINITY,
                            hi_inclusive: false,
                        },
                        CompareOp::Ge => NumericRange {
                            lo: v,
                            lo_inclusive: true,
                            hi: f64::INFINITY,
                            hi_inclusive: false,
                        },
                    };
                    Ok((attr, AttrCondition::Range(range)))
                }
            }
        }
        Expr::InList { attr, list } => {
            let ty = attr_type(attr, schema)?;
            match ty {
                AttrType::Categorical => {
                    let mut set = BTreeSet::new();
                    for l in list {
                        let s = l.as_str().ok_or_else(|| {
                            type_mismatch(
                                attr,
                                "IN list for a categorical attribute must hold strings",
                            )
                        })?;
                        set.insert(s.to_string());
                    }
                    Ok((attr, AttrCondition::InStr(set)))
                }
                AttrType::Int | AttrType::Float => {
                    let mut vals = Vec::with_capacity(list.len());
                    for l in list {
                        vals.push(l.as_f64().ok_or_else(|| {
                            type_mismatch(attr, "IN list for a numeric attribute must hold numbers")
                        })?);
                    }
                    vals.sort_by(f64::total_cmp);
                    vals.dedup();
                    Ok((attr, AttrCondition::InNum(vals)))
                }
            }
        }
        Expr::Between { attr, lo, hi } => {
            let ty = attr_type(attr, schema)?;
            if !ty.is_numeric() {
                return Err(type_mismatch(attr, "BETWEEN applies to numeric attributes"));
            }
            let lo = lo
                .as_f64()
                .ok_or_else(|| type_mismatch(attr, "BETWEEN bounds must be numeric"))?;
            let hi = hi
                .as_f64()
                .ok_or_else(|| type_mismatch(attr, "BETWEEN bounds must be numeric"))?;
            Ok((attr, AttrCondition::Range(NumericRange::closed(lo, hi))))
        }
        Expr::And(_) => unreachable!("conjuncts() never yields And"),
    }
}

fn attr_type(attr: &str, schema: &Schema) -> Result<AttrType, NormalizeError> {
    let id = schema
        .resolve(attr)
        .map_err(|_| NormalizeError::UnknownAttribute(attr.to_string()))?;
    Ok(schema.type_of(id))
}

fn type_mismatch(attr: &str, detail: &str) -> NormalizeError {
    NormalizeError::ConditionTypeMismatch {
        attribute: attr.to_string(),
        detail: detail.to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_select;
    use qcat_data::Field;

    fn schema() -> Schema {
        Schema::new(vec![
            Field::new("neighborhood", AttrType::Categorical),
            Field::new("price", AttrType::Float),
            Field::new("bedroomcount", AttrType::Int),
        ])
        .unwrap()
    }

    fn norm(sql: &str) -> NormalizedQuery {
        normalize(&parse_select(sql).unwrap(), &schema()).unwrap()
    }

    #[test]
    fn folds_homes_query() {
        let q = norm(
            "SELECT * FROM ListProperty WHERE neighborhood IN ('Redmond','Bellevue') \
             AND price >= 200000 AND price <= 300000",
        );
        assert_eq!(q.table, "listproperty");
        assert_eq!(q.conditions.len(), 2);
        match q.condition(AttrId(0)).unwrap() {
            AttrCondition::InStr(s) => {
                assert_eq!(s.len(), 2);
                assert!(s.contains("Redmond"));
            }
            other => panic!("{other:?}"),
        }
        match q.condition(AttrId(1)).unwrap() {
            AttrCondition::Range(r) => {
                assert_eq!((r.lo, r.hi), (200000.0, 300000.0));
                assert!(r.lo_inclusive && r.hi_inclusive);
            }
            other => panic!("{other:?}"),
        }
        assert!(q.constrains(AttrId(0)));
        assert!(!q.constrains(AttrId(2)));
    }

    #[test]
    fn between_is_closed() {
        let q = norm("SELECT * FROM t WHERE bedroomcount BETWEEN 3 AND 4");
        match q.condition(AttrId(2)).unwrap() {
            AttrCondition::Range(r) => {
                assert!(r.contains(3.0) && r.contains(4.0));
                assert!(!r.contains(2.999) && !r.contains(4.001));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn strict_inequalities_are_open() {
        let q = norm("SELECT * FROM t WHERE price < 100 AND price > 50");
        match q.condition(AttrId(1)).unwrap() {
            AttrCondition::Range(r) => {
                assert!(!r.contains(100.0) && !r.contains(50.0));
                assert!(r.contains(75.0));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn categorical_equality_becomes_singleton_in() {
        let q = norm("SELECT * FROM t WHERE neighborhood = 'Seattle'");
        match q.condition(AttrId(0)).unwrap() {
            AttrCondition::InStr(s) => assert_eq!(s.len(), 1),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn repeated_categorical_conditions_intersect() {
        let q = norm(
            "SELECT * FROM t WHERE neighborhood IN ('a','b','c') AND neighborhood IN ('b','c','d')",
        );
        match q.condition(AttrId(0)).unwrap() {
            AttrCondition::InStr(s) => {
                assert_eq!(
                    s.iter().cloned().collect::<Vec<_>>(),
                    vec!["b".to_string(), "c".to_string()]
                );
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn contradictory_ranges_become_unsatisfiable() {
        let q = norm("SELECT * FROM t WHERE price < 10 AND price > 20");
        assert!(q.condition(AttrId(1)).unwrap().is_unsatisfiable());
    }

    #[test]
    fn numeric_in_intersects_with_range() {
        let q = norm("SELECT * FROM t WHERE bedroomcount IN (1,2,3,4) AND bedroomcount >= 3");
        match q.condition(AttrId(2)).unwrap() {
            AttrCondition::InNum(v) => assert_eq!(v, &vec![3.0, 4.0]),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn numeric_equality_is_degenerate_range() {
        let q = norm("SELECT * FROM t WHERE bedroomcount = 3");
        match q.condition(AttrId(2)).unwrap() {
            AttrCondition::Range(r) => {
                assert!(r.contains(3.0));
                assert!(!r.contains(3.5));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn projection_resolution() {
        let q = norm("SELECT price, neighborhood FROM t");
        assert_eq!(q.projection, Some(vec![AttrId(1), AttrId(0)]));
        let err = normalize(&parse_select("SELECT zip FROM t").unwrap(), &schema()).unwrap_err();
        assert!(matches!(err, NormalizeError::UnknownProjection(_)));
    }

    #[test]
    fn type_errors() {
        let bad = [
            "SELECT * FROM t WHERE neighborhood < 'x'",
            "SELECT * FROM t WHERE neighborhood = 3",
            "SELECT * FROM t WHERE price = 'cheap'",
            "SELECT * FROM t WHERE neighborhood BETWEEN 'a' AND 'b'",
            "SELECT * FROM t WHERE price IN ('a')",
            "SELECT * FROM t WHERE bedroomcount IN ('three')",
        ];
        for sql in bad {
            let err = normalize(&parse_select(sql).unwrap(), &schema()).unwrap_err();
            assert!(
                matches!(err, NormalizeError::ConditionTypeMismatch { .. }),
                "{sql} -> {err}"
            );
        }
        let err = normalize(
            &parse_select("SELECT * FROM t WHERE zip = 1").unwrap(),
            &schema(),
        )
        .unwrap_err();
        assert!(matches!(err, NormalizeError::UnknownAttribute(_)));
    }

    #[test]
    fn covering_range_of_numeric_in() {
        let q = norm("SELECT * FROM t WHERE bedroomcount IN (4, 2, 3)");
        let r = q.condition(AttrId(2)).unwrap().covering_range().unwrap();
        assert_eq!((r.lo, r.hi), (2.0, 4.0));
        let q = norm("SELECT * FROM t WHERE neighborhood = 'a'");
        assert!(q.condition(AttrId(0)).unwrap().covering_range().is_none());
    }

    #[test]
    fn range_algebra_edge_cases() {
        let r = NumericRange::half_open(1.0, 2.0);
        assert!(r.contains(1.0) && !r.contains(2.0));
        assert!(NumericRange::closed(1.0, 1.0).contains(1.0));
        assert!(NumericRange::half_open(1.0, 1.0).is_empty());
        let unb = NumericRange::unbounded();
        assert!(unb.contains(f64::MAX) && unb.contains(f64::MIN));
        assert_eq!(unb.finite_lo(), None);
        assert_eq!(NumericRange::closed(0.0, 1.0).finite_hi(), Some(1.0));
    }

    #[test]
    fn overlap_semantics_match_paper() {
        // "the selection condition vmin<=A<=vmax overlaps label a1<=A<a2
        //  iff the two ranges overlap"
        let label = NumericRange::half_open(200_000.0, 225_000.0);
        assert!(NumericRange::closed(100_000.0, 200_000.0).overlaps(&label)); // touches at 200k
        assert!(!NumericRange::closed(225_000.0, 300_000.0).overlaps(&label)); // label excludes 225k
        assert!(NumericRange::closed(210_000.0, 215_000.0).overlaps(&label));
        assert!(!NumericRange::closed(100.0, 200.0).overlaps(&label));
    }

    // Property-based tests live behind the off-by-default `slow-tests`
    // feature: the `proptest` dev-dependency is not vendored, so the
    // default (hermetic) build must not resolve it. See docs/LINTS.md.
    #[cfg(feature = "slow-tests")]
    mod prop {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            /// Intersection is sound: a point is in the intersection iff it
            /// is in both ranges.
            #[test]
            fn prop_range_intersection_pointwise(
                a_lo in -100.0..100.0f64, a_len in 0.0..50.0f64,
                b_lo in -100.0..100.0f64, b_len in 0.0..50.0f64,
                probe in -150.0..150.0f64,
                inc in any::<[bool; 4]>(),
            ) {
                let a = NumericRange { lo: a_lo, lo_inclusive: inc[0], hi: a_lo + a_len, hi_inclusive: inc[1] };
                let b = NumericRange { lo: b_lo, lo_inclusive: inc[2], hi: b_lo + b_len, hi_inclusive: inc[3] };
                let i = a.intersect(&b);
                prop_assert_eq!(i.contains(probe), a.contains(probe) && b.contains(probe));
            }

            /// Overlap is symmetric and consistent with emptiness of the
            /// intersection.
            #[test]
            fn prop_overlap_symmetric(
                a_lo in -100.0..100.0f64, a_len in 0.0..50.0f64,
                b_lo in -100.0..100.0f64, b_len in 0.0..50.0f64,
            ) {
                let a = NumericRange::closed(a_lo, a_lo + a_len);
                let b = NumericRange::closed(b_lo, b_lo + b_len);
                prop_assert_eq!(a.overlaps(&b), b.overlaps(&a));
                prop_assert_eq!(a.overlaps(&b), !a.intersect(&b).is_empty());
            }
        }
    }
}
