//! Preprocessing configuration.

use qcat_data::{AttrId, Relation};
use std::collections::HashMap;

/// Configuration for workload preprocessing.
///
/// The paper fixes a *separation interval* per numeric attribute — the
/// spacing of the potential-splitpoint grid (Section 5.1.3; e.g. 5000
/// for price, 100 for square footage, 5 for year-built). Intervals can
/// be set explicitly or inferred from the data.
#[derive(Debug, Clone, Default)]
pub struct PreprocessConfig {
    intervals: HashMap<AttrId, f64>,
}

impl PreprocessConfig {
    /// Empty configuration; intervals must be set or inferred before
    /// numeric splitpoint tables can be built.
    pub fn new() -> Self {
        Self::default()
    }

    /// Set the separation interval of one attribute.
    pub fn with_interval(mut self, attr: AttrId, interval: f64) -> Self {
        assert!(
            interval > 0.0 && interval.is_finite(),
            "separation interval must be positive and finite"
        );
        self.intervals.insert(attr, interval);
        self
    }

    /// The configured interval for `attr`, if any.
    pub fn interval(&self, attr: AttrId) -> Option<f64> {
        self.intervals.get(&attr).copied()
    }

    /// Infer an interval for every numeric attribute missing one, by
    /// targeting roughly `target_points` grid points across the
    /// attribute's observed domain and snapping to a "nice" step
    /// (1/2/5 × 10^k).
    pub fn infer_missing(mut self, relation: &Relation, target_points: usize) -> Self {
        let all_rows = relation.all_row_ids();
        for attr in relation.schema().attr_ids() {
            if !relation.schema().type_of(attr).is_numeric() || self.intervals.contains_key(&attr) {
                continue;
            }
            if let Some((lo, hi)) = relation.column(attr).numeric_min_max(&all_rows) {
                let span = (hi - lo).max(f64::MIN_POSITIVE);
                let raw = span / target_points.max(1) as f64;
                self.intervals.insert(attr, nice_step(raw));
            }
        }
        self
    }

    /// All configured intervals.
    pub fn intervals(&self) -> &HashMap<AttrId, f64> {
        &self.intervals
    }
}

/// Round `raw` up to the nearest 1, 2, or 5 times a power of ten.
pub fn nice_step(raw: f64) -> f64 {
    assert!(raw > 0.0 && raw.is_finite());
    let exp = raw.log10().floor();
    let base = 10f64.powf(exp);
    let mantissa = raw / base;
    let nice = if mantissa <= 1.0 {
        1.0
    } else if mantissa <= 2.0 {
        2.0
    } else if mantissa <= 5.0 {
        5.0
    } else {
        10.0
    };
    nice * base
}

#[cfg(test)]
mod tests {
    use super::*;
    use qcat_data::{AttrType, Field, RelationBuilder, Schema};
    use qcat_datagen::prop;

    #[test]
    fn nice_steps() {
        assert_eq!(nice_step(1.0), 1.0);
        assert_eq!(nice_step(1.3), 2.0);
        assert_eq!(nice_step(3.0), 5.0);
        assert_eq!(nice_step(7.0), 10.0);
        assert_eq!(nice_step(4500.0), 5000.0);
        assert_eq!(nice_step(0.03), 0.05);
    }

    #[test]
    fn explicit_interval_wins() {
        let cfg = PreprocessConfig::new().with_interval(AttrId(0), 5000.0);
        assert_eq!(cfg.interval(AttrId(0)), Some(5000.0));
        assert_eq!(cfg.interval(AttrId(1)), None);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_interval_panics() {
        let _ = PreprocessConfig::new().with_interval(AttrId(0), 0.0);
    }

    #[test]
    fn infer_covers_numeric_attrs_only() {
        let schema = Schema::new(vec![
            Field::new("n", AttrType::Categorical),
            Field::new("price", AttrType::Float),
        ])
        .unwrap();
        let mut b = RelationBuilder::new(schema);
        for p in [0.0, 1_000_000.0] {
            b.push_row(&["x".into(), p.into()]).unwrap();
        }
        let rel = b.finish().unwrap();
        let cfg = PreprocessConfig::new().infer_missing(&rel, 200);
        assert_eq!(cfg.interval(AttrId(0)), None);
        assert_eq!(cfg.interval(AttrId(1)), Some(5000.0));
    }

    /// nice_step always returns a step in [raw, 10*raw] of the form
    /// {1,2,5}*10^k.
    #[test]
    fn prop_nice_step_bounds() {
        prop::check("nice_step_bounds", 64, 1, |rng, _| {
            let raw = rng.gen_range(1e-6..1e12);
            let s = nice_step(raw);
            assert!(s >= raw * 0.999_999, "{raw} -> {s}");
            assert!(s <= raw * 10.000_001, "{raw} -> {s}");
            let mant = s / 10f64.powf(s.log10().floor());
            let ok = [1.0, 2.0, 5.0, 10.0]
                .iter()
                .any(|m| (mant - m).abs() < 1e-9);
            assert!(ok, "mantissa {mant} of {s}");
            Ok(())
        });
    }
}
