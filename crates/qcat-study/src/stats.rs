//! Statistics helpers for the studies.

/// Arithmetic mean; 0 for an empty slice.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// Pearson product-moment correlation coefficient.
///
/// Returns `None` when fewer than two points or either variable has
/// zero variance (the coefficient is undefined there).
pub fn pearson(xs: &[f64], ys: &[f64]) -> Option<f64> {
    assert_eq!(xs.len(), ys.len(), "paired samples required");
    let n = xs.len();
    if n < 2 {
        return None;
    }
    let mx = mean(xs);
    let my = mean(ys);
    let mut sxy = 0.0;
    let mut sxx = 0.0;
    let mut syy = 0.0;
    for (x, y) in xs.iter().zip(ys) {
        let dx = x - mx;
        let dy = y - my;
        sxy += dx * dy;
        sxx += dx * dx;
        syy += dy * dy;
    }
    if sxx == 0.0 || syy == 0.0 {
        return None;
    }
    Some(sxy / (sxx * syy).sqrt())
}

/// Least-squares slope of the best line through the origin,
/// `y ≈ slope · x` — Figure 7's trend line (the paper reports
/// `y = 1.1002x`).
pub fn origin_slope(xs: &[f64], ys: &[f64]) -> Option<f64> {
    assert_eq!(xs.len(), ys.len(), "paired samples required");
    let sxx: f64 = xs.iter().map(|x| x * x).sum();
    if sxx == 0.0 {
        return None;
    }
    let sxy: f64 = xs.iter().zip(ys).map(|(x, y)| x * y).sum();
    Some(sxy / sxx)
}

#[cfg(test)]
mod tests {
    use super::*;
    use qcat_datagen::prop;

    #[test]
    fn mean_basic() {
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(mean(&[2.0, 4.0]), 3.0);
    }

    #[test]
    fn pearson_perfect_correlations() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        let ys: Vec<f64> = xs.iter().map(|x| 3.0 * x + 1.0).collect();
        assert!((pearson(&xs, &ys).unwrap() - 1.0).abs() < 1e-12);
        let neg: Vec<f64> = xs.iter().map(|x| -2.0 * x).collect();
        assert!((pearson(&xs, &neg).unwrap() + 1.0).abs() < 1e-12);
    }

    #[test]
    fn pearson_undefined_cases() {
        assert_eq!(pearson(&[1.0], &[2.0]), None);
        assert_eq!(pearson(&[1.0, 1.0], &[2.0, 3.0]), None);
        assert_eq!(pearson(&[1.0, 2.0], &[5.0, 5.0]), None);
    }

    #[test]
    fn pearson_known_value() {
        // Hand-computed example.
        let xs = [1.0, 2.0, 3.0, 4.0, 5.0];
        let ys = [2.0, 1.0, 4.0, 3.0, 5.0];
        let r = pearson(&xs, &ys).unwrap();
        assert!((r - 0.8).abs() < 1e-12, "{r}");
    }

    #[test]
    fn origin_slope_recovers_proportionality() {
        let xs = [1.0, 2.0, 3.0];
        let ys = [1.1, 2.2, 3.3];
        assert!((origin_slope(&xs, &ys).unwrap() - 1.1).abs() < 1e-12);
        assert_eq!(origin_slope(&[0.0, 0.0], &[1.0, 2.0]), None);
    }

    /// |r| ≤ 1 and r is symmetric in its arguments.
    #[test]
    fn prop_pearson_bounded_and_symmetric() {
        prop::check("pearson_bounded_and_symmetric", 64, 49, |rng, size| {
            let pairs = prop::vec(rng, 2, size, |rng| {
                (rng.gen_range(-100.0..100.0), rng.gen_range(-100.0..100.0))
            });
            let xs: Vec<f64> = pairs.iter().map(|p| p.0).collect();
            let ys: Vec<f64> = pairs.iter().map(|p| p.1).collect();
            if let Some(r) = pearson(&xs, &ys) {
                assert!((-1.0 - 1e-9..=1.0 + 1e-9).contains(&r), "r = {r}");
                let r2 = pearson(&ys, &xs).unwrap();
                assert!((r - r2).abs() < 1e-9, "{r} vs {r2}");
            }
            Ok(())
        });
    }

    /// Correlation is invariant under positive affine transforms.
    #[test]
    fn prop_pearson_affine_invariant() {
        prop::check("pearson_affine_invariant", 64, 29, |rng, size| {
            let pairs = prop::vec(rng, 3, size, |rng| {
                (rng.gen_range(-50.0..50.0), rng.gen_range(-50.0..50.0))
            });
            let (a, b) = (rng.gen_range(0.1..10.0), rng.gen_range(-5.0..5.0));
            let xs: Vec<f64> = pairs.iter().map(|p| p.0).collect();
            let ys: Vec<f64> = pairs.iter().map(|p| p.1).collect();
            let xs2: Vec<f64> = xs.iter().map(|x| a * x + b).collect();
            if let (Some(r1), Some(r2)) = (pearson(&xs, &ys), pearson(&xs2, &ys)) {
                assert!((r1 - r2).abs() < 1e-6, "{r1} vs {r2} at a = {a}, b = {b}");
            }
            Ok(())
        });
    }
}
