//! The large-scale simulated, cross-validated user study
//! (paper Section 6.2): Figure 7, Table 1, Figure 8.

use crate::broaden::broaden_query;
use crate::env::{StudyEnv, Technique};
use crate::report::{fnum, TextTable};
use crate::stats::{mean, origin_slope, pearson};
use qcat_core::cost::cost_all;
use qcat_exec::{execute, ExecOptions};
use qcat_explore::{actual_cost_all, RelevanceJudge};

/// Study shape: the paper uses 8 mutually disjoint subsets of 100
/// synthetic explorations.
#[derive(Debug, Clone, Copy)]
pub struct SimulatedStudyConfig {
    /// Number of cross-validation subsets.
    pub n_subsets: usize,
    /// Synthetic explorations per subset.
    pub subset_size: usize,
}

impl Default for SimulatedStudyConfig {
    fn default() -> Self {
        SimulatedStudyConfig {
            n_subsets: 8,
            subset_size: 100,
        }
    }
}

/// One synthetic exploration under one technique.
#[derive(Debug, Clone, Copy)]
pub struct Observation {
    /// Cross-validation subset (0-based).
    pub subset: usize,
    /// Technique used to build the tree.
    pub technique: Technique,
    /// Estimated average cost `CostAll(T)`.
    pub estimated: f64,
    /// Actual cost `CostAll(W, T)`: items examined by the synthetic
    /// exploration.
    pub actual: f64,
    /// `|Result(Q_W)|`.
    pub result_size: usize,
}

/// The completed study.
#[derive(Debug, Clone)]
pub struct SimulatedStudy {
    /// All observations (subset × exploration × technique).
    pub observations: Vec<Observation>,
    /// Number of subsets actually run.
    pub n_subsets: usize,
    /// Explorations that were requested but not eligible (workload too
    /// small or too few broadened queries with usable results).
    pub shortfall: usize,
}

impl SimulatedStudy {
    /// Run the study against a generated environment.
    ///
    /// Eligibility of a workload query as a synthetic exploration: it
    /// names neighborhoods (so broadening works), constrains at least
    /// one more attribute (so the exploration is selective), and its
    /// broadened result holds more than `M` tuples (so a tree exists).
    pub fn run(env: &StudyEnv, config: &SimulatedStudyConfig) -> Self {
        let schema = env.relation.schema().clone();
        let wanted = config.n_subsets * config.subset_size;
        // Collect eligible query indices with their broadened form.
        let mut eligible: Vec<usize> = Vec::with_capacity(wanted);
        for (i, w) in env.log.queries().iter().enumerate() {
            if eligible.len() >= wanted {
                break;
            }
            if w.conditions.len() < 2 {
                continue;
            }
            let Some(qw) = broaden_query(w, &schema, &env.geography) else {
                continue;
            };
            let Ok(result) = execute(&env.relation, &qw, &ExecOptions::default()) else {
                continue;
            };
            if result.len() <= env.config.max_leaf_tuples {
                continue;
            }
            eligible.push(i);
        }
        let shortfall = wanted.saturating_sub(eligible.len());
        let mut observations = Vec::with_capacity(eligible.len() * Technique::ALL.len());
        let n_subsets = eligible.len() / config.subset_size.max(1);
        for subset in 0..n_subsets.min(config.n_subsets) {
            let chunk = &eligible[subset * config.subset_size..(subset + 1) * config.subset_size];
            let (held, rest) = env.log.split_held_out(chunk);
            let stats = env.stats_for(&rest);
            for w in &held {
                let qw =
                    broaden_query(w, &schema, &env.geography).expect("eligibility pre-checked");
                let result = execute(&env.relation, &qw, &ExecOptions::default())
                    .expect("eligibility pre-checked");
                let judge =
                    RelevanceJudge::from_query(w, &env.relation).expect("workload query compiles");
                for technique in Technique::ALL {
                    let tree = env.categorize(&stats, technique, &result, Some(&qw));
                    let estimated = cost_all(&tree, env.config.label_cost).total();
                    let actual = actual_cost_all(&tree, w, &judge).items() as f64;
                    observations.push(Observation {
                        subset,
                        technique,
                        estimated,
                        actual,
                        result_size: result.len(),
                    });
                }
            }
        }
        SimulatedStudy {
            observations,
            n_subsets: n_subsets.min(config.n_subsets),
            shortfall,
        }
    }

    fn cost_based(&self) -> impl Iterator<Item = &Observation> {
        self.observations
            .iter()
            .filter(|o| o.technique == Technique::CostBased)
    }

    /// Figure 7's scatter points: (estimated, actual) for the
    /// cost-based technique across all subsets.
    pub fn figure7_points(&self) -> Vec<(f64, f64)> {
        self.cost_based().map(|o| (o.estimated, o.actual)).collect()
    }

    /// The origin-constrained trend slope (paper: 1.1002).
    pub fn figure7_slope(&self) -> Option<f64> {
        let pts = self.figure7_points();
        let xs: Vec<f64> = pts.iter().map(|p| p.0).collect();
        let ys: Vec<f64> = pts.iter().map(|p| p.1).collect();
        origin_slope(&xs, &ys)
    }

    /// Per-tree aggregation of Figure 7: `(estimated, mean actual over
    /// the explorations of that tree)`.
    ///
    /// `CostAll(T)` estimates the cost of the *average* user, so its
    /// natural validation target is the mean actual cost per tree; the
    /// per-exploration scatter additionally carries irreducible
    /// user-to-user variance.
    pub fn figure7_tree_means(&self) -> Vec<(f64, f64)> {
        use std::collections::BTreeMap;
        let mut groups: BTreeMap<(usize, u64), (f64, Vec<f64>)> = BTreeMap::new();
        for o in self.cost_based() {
            groups
                .entry((o.subset, o.estimated.to_bits()))
                .or_insert_with(|| (o.estimated, Vec::new()))
                .1
                .push(o.actual);
        }
        groups
            .into_values()
            .map(|(est, actuals)| (est, mean(&actuals)))
            .collect()
    }

    /// Render Figure 7 as text: point count, slope, correlation at
    /// both granularities.
    pub fn figure7(&self) -> String {
        let pts = self.figure7_points();
        let xs: Vec<f64> = pts.iter().map(|p| p.0).collect();
        let ys: Vec<f64> = pts.iter().map(|p| p.1).collect();
        let slope = self.figure7_slope().unwrap_or(f64::NAN);
        let r = pearson(&xs, &ys).unwrap_or(f64::NAN);
        let tree_pts = self.figure7_tree_means();
        let txs: Vec<f64> = tree_pts.iter().map(|p| p.0).collect();
        let tys: Vec<f64> = tree_pts.iter().map(|p| p.1).collect();
        let tr = pearson(&txs, &tys).unwrap_or(f64::NAN);
        let mut out = String::new();
        out.push_str("Figure 7: correlation between actual and estimated cost\n");
        out.push_str(&format!(
            "  {} synthetic explorations (cost-based trees)\n",
            pts.len()
        ));
        out.push_str(&format!(
            "  best linear fit through origin: y = {}x   (paper: y = 1.1002x)\n",
            fnum(slope, 4)
        ));
        out.push_str(&format!(
            "  per-exploration Pearson correlation: {}   (paper: 0.90)\n",
            fnum(r, 2)
        ));
        out.push_str(&format!(
            "  per-tree mean-actual correlation over {} trees: {}\n",
            tree_pts.len(),
            fnum(tr, 2)
        ));
        out
    }

    /// Table 1: Pearson correlation per subset, then all together.
    pub fn table1(&self) -> TextTable {
        let mut t = TextTable::new(vec!["Subset", "Correlation"]);
        for s in 0..self.n_subsets {
            let (xs, ys): (Vec<f64>, Vec<f64>) = self
                .cost_based()
                .filter(|o| o.subset == s)
                .map(|o| (o.estimated, o.actual))
                .unzip();
            let r = pearson(&xs, &ys);
            t.row(vec![
                (s + 1).to_string(),
                r.map(|v| fnum(v, 2)).unwrap_or_else(|| "n/a".into()),
            ]);
        }
        let (xs, ys): (Vec<f64>, Vec<f64>) =
            self.cost_based().map(|o| (o.estimated, o.actual)).unzip();
        t.row(vec![
            "All".to_string(),
            pearson(&xs, &ys)
                .map(|v| fnum(v, 2))
                .unwrap_or_else(|| "n/a".into()),
        ]);
        t
    }

    /// Figure 8: fractional cost `CostAll(W,T)/|Result(Q_W)|` averaged
    /// per subset, per technique.
    pub fn figure8(&self) -> TextTable {
        let mut t = TextTable::new(vec!["Subset", "Cost-based", "Attr-cost", "No cost"]);
        for s in 0..self.n_subsets {
            let frac = |tech: Technique| {
                let vals: Vec<f64> = self
                    .observations
                    .iter()
                    .filter(|o| o.subset == s && o.technique == tech)
                    .map(|o| o.actual / o.result_size as f64)
                    .collect();
                mean(&vals)
            };
            t.row(vec![
                (s + 1).to_string(),
                fnum(frac(Technique::CostBased), 3),
                fnum(frac(Technique::AttrCost), 3),
                fnum(frac(Technique::NoCost), 3),
            ]);
        }
        t
    }

    /// Mean fractional cost over every subset for one technique
    /// (summary line under Figure 8).
    pub fn mean_fractional_cost(&self, technique: Technique) -> f64 {
        let vals: Vec<f64> = self
            .observations
            .iter()
            .filter(|o| o.technique == technique)
            .map(|o| o.actual / o.result_size as f64)
            .collect();
        mean(&vals)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::env::StudyScale;

    fn smoke_study() -> SimulatedStudy {
        let env = StudyEnv::generate(StudyScale::Smoke, 11);
        let config = SimulatedStudyConfig {
            n_subsets: 4,
            subset_size: 25,
        };
        SimulatedStudy::run(&env, &config)
    }

    #[test]
    fn produces_observations_for_all_techniques() {
        let study = smoke_study();
        assert_eq!(study.n_subsets, 4);
        assert_eq!(study.shortfall, 0);
        assert_eq!(study.observations.len(), 4 * 25 * 3);
        for tech in Technique::ALL {
            assert!(study.observations.iter().any(|o| o.technique == tech));
        }
    }

    #[test]
    fn costs_are_positive_and_bounded() {
        let study = smoke_study();
        for o in &study.observations {
            assert!(o.estimated > 0.0, "estimated {o:?}");
            assert!(o.actual >= 0.0);
            assert!(o.result_size > 0);
            // Actual ALL-scenario cost can't exceed scanning the whole
            // result plus every label in a tree of that size; a loose
            // sanity bound of 3× result size.
            assert!(
                o.actual <= 3.0 * o.result_size as f64,
                "actual {} vs result {}",
                o.actual,
                o.result_size
            );
        }
    }

    #[test]
    fn cost_based_beats_no_cost_on_average() {
        let study = smoke_study();
        let cb = study.mean_fractional_cost(Technique::CostBased);
        let nc = study.mean_fractional_cost(Technique::NoCost);
        assert!(
            cb < nc,
            "cost-based ({cb:.3}) should beat no-cost ({nc:.3})"
        );
    }

    #[test]
    fn estimated_and_actual_correlate_positively() {
        let study = smoke_study();
        let pts = study.figure7_points();
        let xs: Vec<f64> = pts.iter().map(|p| p.0).collect();
        let ys: Vec<f64> = pts.iter().map(|p| p.1).collect();
        let r = pearson(&xs, &ys).unwrap_or(0.0);
        // Smoke scale has few distinct trees, so expect a clearly
        // positive but not paper-strength correlation.
        assert!(r > 0.15, "correlation too weak: {r}");
        let slope = study.figure7_slope().unwrap();
        assert!(slope > 0.0);
    }

    #[test]
    fn tables_render() {
        let study = smoke_study();
        let t1 = study.table1().render();
        assert!(t1.contains("All"));
        let f8 = study.figure8().render();
        assert!(f8.contains("Cost-based"));
        let f7 = study.figure7();
        assert!(f7.contains("Pearson"));
    }

    #[test]
    fn deterministic() {
        let a = smoke_study();
        let b = smoke_study();
        assert_eq!(a.observations.len(), b.observations.len());
        for (x, y) in a.observations.iter().zip(&b.observations) {
            assert_eq!(x.estimated, y.estimated);
            assert_eq!(x.actual, y.actual);
        }
    }
}
