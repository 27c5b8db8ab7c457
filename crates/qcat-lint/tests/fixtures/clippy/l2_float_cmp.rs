//! L2 seeds: NaN-unsafe float comparisons. Each line marked `//~`
//! must fire exactly the clippy lints it names; every other line must
//! stay clean.

pub fn equal(x: f64, y: f64) -> bool {
    x == y //~ float_cmp
}

pub fn not_equal(lo: f32, hi: f32) -> bool {
    lo != hi //~ float_cmp
}

/// Floats that arrive by iteration or destructuring, with no `: f64`
/// annotation in sight, are still seen.
pub fn via_iteration(xs: &[f64], y: f64) -> usize {
    xs.iter().filter(|&&x| x == y).count() //~ float_cmp
}

pub fn via_destructuring(pair: (f64, f64)) -> bool {
    let (a, b) = pair;
    a == b //~ float_cmp
}

/// `partial_cmp(..).unwrap()` panics on NaN; clippy sees the unwrap.
pub fn sort_partial(v: &mut [f64]) {
    v.sort_by(|a, b| a.partial_cmp(b).unwrap()); //~ unwrap_used
}

pub fn clean(v: &mut [f64], i: usize, s: &str) -> bool {
    v.sort_by(|a, b| a.total_cmp(b));
    let m = v.iter().copied().fold(f64::MIN, f64::max);
    i == 0 || s == "0.0" || m.total_cmp(&1.0).is_eq()
}

/// Not flagged: `float_cmp` admits comparisons with zero and with
/// infinity, which the lexical L2 flagged.
pub fn admitted_constants(x: f64) -> bool {
    x == 0.0 || x != f64::INFINITY
}

/// Not flagged either: clippy takes a function named `eq`, `ne`,
/// `eq_*` or `*_eq` for an equality implementation.
pub fn bounds_eq(a: f64, b: f64) -> bool {
    a == b
}
