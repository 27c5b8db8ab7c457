//! Total-order and tolerance helpers for `f64` comparisons.
//!
//! Lint rule L2 (clippy's `float_cmp`, plus `unwrap_used` for
//! `partial_cmp(..).unwrap()`; see `docs/LINTS.md`) bans both in every
//! crate: they silently misbehave on NaN, and NaN *does* arise in the
//! cost model (0/0 goodness ratios, empty-bucket statistics). These
//! helpers make the intended semantics explicit at the call site.

use std::cmp::Ordering;

/// Exact bitwise-class equality under IEEE 754 `totalOrder`: like
/// `==` except NaN equals NaN and `-0.0` differs from `0.0`. Use for
/// "is this the same boundary value" checks where NaN must not
/// silently compare unequal-to-everything.
#[inline]
pub fn same(a: f64, b: f64) -> bool {
    a.total_cmp(&b) == Ordering::Equal
}

/// Tolerance comparison: true when `a` and `b` differ by at most
/// `eps` (absolute). NaN on either side is never approximately equal.
#[inline]
pub fn approx_eq(a: f64, b: f64, eps: f64) -> bool {
    (a - b).abs() <= eps
}

/// Total-order maximum: NaN sorts *last* under `total_cmp`, so a NaN
/// operand wins only when both are NaN. Unlike `f64::max` the result
/// never hides which operand was taken on ties of different sign.
#[inline]
pub fn total_max(a: f64, b: f64) -> f64 {
    if a.total_cmp(&b) == Ordering::Less {
        b
    } else {
        a
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_is_total() {
        assert!(same(1.5, 1.5));
        assert!(!same(1.5, 1.5000001));
        assert!(same(f64::NAN, f64::NAN));
        assert!(!same(f64::NAN, 1.0));
        assert!(!same(-0.0, 0.0));
        assert!(same(f64::INFINITY, f64::INFINITY));
    }

    #[test]
    fn approx_eq_tolerance() {
        assert!(approx_eq(1.0, 1.0 + 1e-12, 1e-9));
        assert!(!approx_eq(1.0, 1.1, 1e-9));
        assert!(!approx_eq(f64::NAN, f64::NAN, 1e-9));
        assert!(!approx_eq(f64::NAN, 1.0, 1e-9));
    }

    #[test]
    fn total_max_orders_nan_last() {
        assert_eq!(total_max(1.0, 2.0), 2.0);
        assert_eq!(total_max(2.0, 1.0), 2.0);
        // NaN is the total_cmp maximum, so it wins; the point is the
        // behavior is *defined*, unlike partial_cmp().unwrap().
        assert!(total_max(f64::NAN, 5.0).is_nan());
        assert!(total_max(5.0, f64::NAN).is_nan());
    }
}
