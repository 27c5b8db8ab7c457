//! Conjunct dominance: when is one normalized query's answer a
//! superset of another's?
//!
//! The serving layer caches result sets keyed by exact fingerprint. An
//! exploration session, though, mostly *narrows*: the next query is
//! the previous one plus a conjunct, or the same conjunct with a
//! tighter range. Its answer is contained in the cached one, so the
//! cache can serve it by post-filtering instead of rescanning — if it
//! can prove containment.
//!
//! The proof is per-conjunct dominance over the normalized form: query
//! `wide` subsumes query `tight` when every conjunct of `wide` is
//! implied by `tight`'s conjunct on the same attribute (range ⊇ range,
//! IN-set ⊇ IN-set); an attribute `wide` does not constrain dominates
//! trivially. The test is deliberately conservative — a `false` never
//! costs correctness, only a cache opportunity — so mixed shapes that
//! would need value enumeration (an interval inside an IN-list, say)
//! simply fail.

use crate::normalize::{AttrCondition, NormalizedQuery, NumericRange};
use qcat_data::AttrId;

impl NumericRange {
    /// Is `other` entirely inside `self`? Empty ranges are contained
    /// in everything.
    #[allow(
        clippy::float_cmp,
        reason = "L2: exact bound test; -0.0 and 0.0 are one endpoint, which total_cmp would split"
    )]
    pub fn contains_range(&self, other: &NumericRange) -> bool {
        if other.is_empty() {
            return true;
        }
        if self.is_empty() {
            return false;
        }
        let lo_ok = self.lo < other.lo || (self.lo == other.lo && (self.lo_inclusive || !other.lo_inclusive));
        let hi_ok = self.hi > other.hi || (self.hi == other.hi && (self.hi_inclusive || !other.hi_inclusive));
        lo_ok && hi_ok
    }
}

/// Does every row satisfying `tight` also satisfy `wide`?
///
/// Conservative: a `false` only means dominance could not be *proven*
/// cheaply, never that it does not hold.
#[allow(
    clippy::float_cmp,
    reason = "L2: exact bound test; -0.0 and 0.0 are one endpoint, which total_cmp would split"
)]
pub fn condition_implies(tight: &AttrCondition, wide: &AttrCondition) -> bool {
    use AttrCondition::*;
    if tight.is_unsatisfiable() {
        // The empty set is contained in everything.
        return true;
    }
    match (tight, wide) {
        (InStr(t), InStr(w)) => t.is_subset(w),
        (InNum(t), InNum(w)) => t
            .iter()
            .all(|v| w.binary_search_by(|p| p.total_cmp(v)).is_ok()),
        (InNum(t), Range(w)) => t.iter().all(|&v| w.contains(v)),
        (Range(t), Range(w)) => w.contains_range(t),
        // A non-empty interval inside a finite value set only when the
        // interval is the degenerate point [v, v].
        (Range(t), InNum(w)) => {
            t.lo == t.hi
                && t.lo_inclusive
                && t.hi_inclusive
                && w.binary_search_by(|p| p.total_cmp(&t.lo)).is_ok()
        }
        // Mixed string/numeric shapes on one attribute cannot occur
        // for well-typed queries over one schema; refuse dominance.
        (InStr(_), _) | (_, InStr(_)) => false,
    }
}

/// Does `wide`'s answer provably contain `tight`'s answer (same
/// table, row-id semantics)?
///
/// Holds when every conjunct of `wide` is implied by `tight`'s
/// conjunct on the same attribute; attributes `wide` leaves
/// unconstrained dominate trivially. `wide` must carry no `LIMIT` —
/// a truncated answer is not the full region, so nothing can be
/// proven contained in it. (`ORDER BY` and projection do not affect
/// which rows match, so they are free on both sides.)
pub fn subsumes(wide: &NormalizedQuery, tight: &NormalizedQuery) -> bool {
    if wide.table != tight.table || wide.limit.is_some() {
        return false;
    }
    wide.conditions.iter().all(|(attr, wc)| {
        tight
            .condition(*attr)
            .is_some_and(|tc| condition_implies(tc, wc))
    })
}

/// The conjuncts of `tight` that still need evaluating against rows
/// already known to satisfy `wide`: every attribute whose condition
/// is new or differs from `wide`'s. Conjuncts identical on both sides
/// are already proven by membership in `wide`'s answer and are
/// skipped.
///
/// Only meaningful when [`subsumes`]`(wide, tight)` holds.
pub fn residual_attrs(wide: &NormalizedQuery, tight: &NormalizedQuery) -> Vec<AttrId> {
    tight
        .conditions
        .iter()
        .filter(|(attr, tc)| wide.condition(**attr) != Some(tc))
        .map(|(attr, _)| *attr)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse_and_normalize;
    use qcat_data::{AttrType, Field, Schema};

    fn schema() -> Schema {
        Schema::new(vec![
            Field::new("neighborhood", AttrType::Categorical),
            Field::new("price", AttrType::Float),
            Field::new("bedroomcount", AttrType::Int),
        ])
        .unwrap()
    }

    fn q(sql: &str) -> NormalizedQuery {
        parse_and_normalize(sql, &schema()).unwrap()
    }

    #[test]
    fn range_containment_endpoints() {
        let wide = NumericRange::closed(1.0, 10.0);
        assert!(wide.contains_range(&NumericRange::closed(1.0, 10.0)));
        assert!(wide.contains_range(&NumericRange::closed(2.0, 9.0)));
        assert!(wide.contains_range(&NumericRange::half_open(1.0, 10.0)));
        assert!(!wide.contains_range(&NumericRange::closed(0.5, 9.0)));
        assert!(!wide.contains_range(&NumericRange::closed(2.0, 10.5)));
        // Open wide endpoint cannot contain a closed tight one.
        let open = NumericRange::half_open(1.0, 10.0);
        assert!(!open.contains_range(&NumericRange::closed(1.0, 10.0)));
        assert!(open.contains_range(&NumericRange::closed(1.0, 9.0)));
        // Empty is contained everywhere; nothing fits inside empty.
        let empty = NumericRange::half_open(5.0, 5.0);
        assert!(wide.contains_range(&empty));
        assert!(!empty.contains_range(&wide));
        assert!(empty.contains_range(&empty));
        // Unbounded contains everything.
        assert!(NumericRange::unbounded().contains_range(&wide));
        assert!(!wide.contains_range(&NumericRange::unbounded()));
    }

    #[test]
    fn subsumes_tighter_range() {
        let wide = q("SELECT * FROM homes WHERE price <= 300000");
        let tight = q("SELECT * FROM homes WHERE price <= 200000");
        assert!(subsumes(&wide, &tight));
        assert!(!subsumes(&tight, &wide));
        // A query never subsumed by a narrower one on another attr.
        let other = q("SELECT * FROM homes WHERE bedroomcount >= 3");
        assert!(!subsumes(&wide, &other));
    }

    #[test]
    fn subsumes_in_set_shrink() {
        let wide = q("SELECT * FROM homes WHERE neighborhood IN ('A','B','C')");
        let tight = q("SELECT * FROM homes WHERE neighborhood IN ('B')");
        assert!(subsumes(&wide, &tight));
        assert!(!subsumes(&tight, &wide));
        let wide_n = q("SELECT * FROM homes WHERE bedroomcount IN (1,2,3)");
        let tight_n = q("SELECT * FROM homes WHERE bedroomcount IN (2,3)");
        assert!(subsumes(&wide_n, &tight_n));
        assert!(!subsumes(&tight_n, &wide_n));
    }

    #[test]
    fn absent_conjunct_dominates() {
        let wide = q("SELECT * FROM homes WHERE price <= 300000");
        let tight = q("SELECT * FROM homes WHERE price <= 300000 AND bedroomcount >= 3");
        assert!(subsumes(&wide, &tight));
        assert_eq!(residual_attrs(&wide, &tight).len(), 1);
        // The unconstrained wide query subsumes everything on the table.
        let all = q("SELECT * FROM homes");
        assert!(subsumes(&all, &tight));
        assert_eq!(residual_attrs(&all, &tight).len(), 2);
    }

    #[test]
    fn identical_conjuncts_leave_no_residual() {
        let wide = q("SELECT * FROM homes WHERE price <= 300000");
        let tight = q("SELECT * FROM homes WHERE price <= 300000");
        assert!(subsumes(&wide, &tight));
        assert!(residual_attrs(&wide, &tight).is_empty());
    }

    #[test]
    fn limit_on_the_donor_refuses() {
        let wide = q("SELECT * FROM homes WHERE price <= 300000 LIMIT 5");
        let tight = q("SELECT * FROM homes WHERE price <= 200000");
        assert!(!subsumes(&wide, &tight));
        // LIMIT on the *tight* side is fine: the donor's full answer
        // still contains the truncated one.
        let wide = q("SELECT * FROM homes WHERE price <= 300000");
        let tight = q("SELECT * FROM homes WHERE price <= 200000 LIMIT 5");
        assert!(subsumes(&wide, &tight));
    }

    #[test]
    fn tables_must_match() {
        let wide = q("SELECT * FROM homes WHERE price <= 300000");
        let mut tight = q("SELECT * FROM homes WHERE price <= 200000");
        tight.table = "condos".into();
        assert!(!subsumes(&wide, &tight));
    }

    #[test]
    fn numeric_in_inside_range() {
        let wide = q("SELECT * FROM homes WHERE bedroomcount >= 2");
        let tight = q("SELECT * FROM homes WHERE bedroomcount IN (2, 4)");
        assert!(subsumes(&wide, &tight));
        let tight_out = q("SELECT * FROM homes WHERE bedroomcount IN (1, 4)");
        assert!(!subsumes(&wide, &tight_out));
    }

    #[test]
    fn degenerate_range_inside_in_set() {
        let wide = q("SELECT * FROM homes WHERE bedroomcount IN (2, 3, 4)");
        let tight = q("SELECT * FROM homes WHERE bedroomcount = 3");
        assert!(subsumes(&wide, &tight));
        let miss = q("SELECT * FROM homes WHERE bedroomcount = 5");
        assert!(!subsumes(&wide, &miss));
        // A non-degenerate interval is never proven inside a value set.
        let interval = q("SELECT * FROM homes WHERE bedroomcount BETWEEN 2 AND 3");
        assert!(!subsumes(&wide, &interval));
    }

    #[test]
    fn unsatisfiable_tight_is_contained_in_anything() {
        let wide = q("SELECT * FROM homes WHERE neighborhood IN ('A')");
        let tight = q("SELECT * FROM homes WHERE neighborhood IN ('A') AND price < 10 AND price > 20");
        assert!(subsumes(&wide, &tight));
    }

    #[test]
    fn projection_and_order_are_free() {
        let wide = q("SELECT * FROM homes WHERE price <= 300000 ORDER BY price DESC");
        let tight = q("SELECT neighborhood FROM homes WHERE price <= 200000 ORDER BY bedroomcount");
        assert!(subsumes(&wide, &tight));
    }
}
