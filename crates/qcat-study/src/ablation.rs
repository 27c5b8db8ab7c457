//! Ablations over the design choices DESIGN.md calls out: ordering
//! heuristic vs Appendix-A optimal, fixed vs automatic bucket counts,
//! the attribute-elimination threshold `x`, and independence vs
//! correlation-aware probabilities.
//!
//! Each ablation runs the same batch of broadened workload queries and
//! reports how the toggled choice moves estimated and/or actual cost.

use crate::broaden::broaden_query;
use crate::env::StudyEnv;
use crate::report::{fnum, TextTable};
use crate::stats::{mean, pearson};
use qcat_core::cost::{cost_all, cost_one};
use qcat_core::{BucketCount, Categorizer, OrderingMode};
use qcat_exec::{execute, ExecOptions, ResultSet};
use qcat_explore::{actual_cost_all, RelevanceJudge};
use qcat_sql::NormalizedQuery;
use qcat_workload::WorkloadStatistics;

/// Shared query batch: broadened workload queries with usable results,
/// paired with the original `W` as the synthetic information need.
pub struct AblationBatch {
    /// `(need W, broadened query Q_W, result)` triples.
    pub cases: Vec<(NormalizedQuery, NormalizedQuery, ResultSet)>,
}

impl AblationBatch {
    /// Collect up to `n` cases from the environment's workload.
    pub fn collect(env: &StudyEnv, n: usize) -> Self {
        let schema = env.relation.schema().clone();
        let mut cases = Vec::with_capacity(n);
        for w in env.log.queries() {
            if cases.len() >= n {
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
            cases.push((w.clone(), qw, result));
        }
        AblationBatch { cases }
    }
}

/// Ablation 1 — sibling ordering: estimated `CostOne` under the
/// production heuristic vs the Appendix-A optimal post-pass (both on
/// otherwise identical trees; `CostAll` is order-invariant and shown
/// as a control).
pub fn ordering_ablation(
    env: &StudyEnv,
    stats: &WorkloadStatistics,
    batch: &AblationBatch,
) -> TextTable {
    let mut t = TextTable::new(vec!["Metric", "Heuristic", "OptimalOne", "Improvement"]);
    let mut one_h = Vec::new();
    let mut one_o = Vec::new();
    let mut all_h = Vec::new();
    let mut all_o = Vec::new();
    for (_, qw, result) in &batch.cases {
        let heuristic = Categorizer::new(stats, env.config).categorize(result, Some(qw));
        let optimal = Categorizer::new(stats, env.config.with_ordering(OrderingMode::OptimalOne))
            .categorize(result, Some(qw));
        one_h.push(cost_one(&heuristic, env.config.label_cost, env.config.frac).total());
        one_o.push(cost_one(&optimal, env.config.label_cost, env.config.frac).total());
        all_h.push(cost_all(&heuristic, env.config.label_cost).total());
        all_o.push(cost_all(&optimal, env.config.label_cost).total());
    }
    let imp = |h: f64, o: f64| {
        if h > 0.0 {
            format!("{:+.2}%", (o - h) / h * 100.0)
        } else {
            "n/a".into()
        }
    };
    let (mh, mo) = (mean(&one_h), mean(&one_o));
    t.row(vec![
        "CostOne (est.)".to_string(),
        fnum(mh, 1),
        fnum(mo, 1),
        imp(mh, mo),
    ]);
    let (ah, ao) = (mean(&all_h), mean(&all_o));
    t.row(vec![
        "CostAll (control)".to_string(),
        fnum(ah, 1),
        fnum(ao, 1),
        imp(ah, ao),
    ]);
    t
}

/// Ablation 2 — numeric bucket count: estimated and actual `CostAll`
/// for fixed m ∈ {3, 5, 10} vs the automatic-m extension.
pub fn bucket_count_ablation(
    env: &StudyEnv,
    stats: &WorkloadStatistics,
    batch: &AblationBatch,
) -> TextTable {
    let policies: [(&str, BucketCount); 4] = [
        ("Fixed m=3", BucketCount::Fixed(3)),
        ("Fixed m=5", BucketCount::Fixed(5)),
        ("Fixed m=10", BucketCount::Fixed(10)),
        ("Auto (≤20)", BucketCount::Auto { max: 20 }),
    ];
    let mut t = TextTable::new(vec![
        "Policy",
        "Est. CostAll",
        "Actual CostAll",
        "Tree nodes",
    ]);
    for (name, policy) in policies {
        let config = env.config.with_bucket_count(policy);
        let mut est = Vec::new();
        let mut act = Vec::new();
        let mut nodes = Vec::new();
        for (w, qw, result) in &batch.cases {
            let tree = Categorizer::new(stats, config).categorize(result, Some(qw));
            est.push(cost_all(&tree, config.label_cost).total());
            let judge = RelevanceJudge::from_query(w, &env.relation).expect("compiles");
            act.push(actual_cost_all(&tree, w, &judge).items() as f64);
            nodes.push(tree.node_count() as f64);
        }
        t.row(vec![
            name.to_string(),
            fnum(mean(&est), 1),
            fnum(mean(&act), 1),
            fnum(mean(&nodes), 0),
        ]);
    }
    t
}

/// Ablation 3 — attribute-elimination threshold `x`: candidate count
/// and realized cost as the filter tightens.
pub fn threshold_ablation(
    env: &StudyEnv,
    stats: &WorkloadStatistics,
    batch: &AblationBatch,
) -> TextTable {
    let mut t = TextTable::new(vec!["x", "Candidates", "Est. CostAll", "Actual CostAll"]);
    for x in [0.0, 0.2, 0.4, 0.6, 0.8] {
        let config = env.config.with_attr_threshold(x);
        let candidates = Categorizer::new(stats, config).candidate_attrs().len();
        let mut est = Vec::new();
        let mut act = Vec::new();
        for (w, qw, result) in &batch.cases {
            let tree = Categorizer::new(stats, config).categorize(result, Some(qw));
            est.push(cost_all(&tree, config.label_cost).total());
            let judge = RelevanceJudge::from_query(w, &env.relation).expect("compiles");
            act.push(actual_cost_all(&tree, w, &judge).items() as f64);
        }
        t.row(vec![
            fnum(x, 1),
            candidates.to_string(),
            fnum(mean(&est), 1),
            fnum(mean(&act), 1),
        ]);
    }
    t
}

/// Ablation 4 — independence vs correlation-aware probabilities: does
/// conditioning estimates on the node's path track the measured cost
/// better? Reported as the estimated-vs-actual Pearson correlation
/// under each estimator (structure held fixed by the selection
/// heuristic; only the attached probabilities differ).
pub fn correlation_ablation(env: &StudyEnv, batch: &AblationBatch) -> TextTable {
    // Needs statistics with the correlation index retained.
    let stats =
        WorkloadStatistics::build_with_correlation(&env.log, env.relation.schema(), &env.prep);
    let mut t = TextTable::new(vec![
        "Estimator",
        "Est-vs-actual r",
        "Mean est.",
        "Mean actual",
    ]);
    for (name, conditional) in [("Independence (paper)", false), ("Correlation-aware", true)] {
        let config = env.config.with_conditional_probabilities(conditional);
        let mut est = Vec::new();
        let mut act = Vec::new();
        for (w, qw, result) in &batch.cases {
            let tree = Categorizer::new(&stats, config).categorize(result, Some(qw));
            est.push(cost_all(&tree, config.label_cost).total());
            let judge = RelevanceJudge::from_query(w, &env.relation).expect("compiles");
            act.push(actual_cost_all(&tree, w, &judge).items() as f64);
        }
        t.row(vec![
            name.to_string(),
            pearson(&est, &act)
                .map(|r| fnum(r, 3))
                .unwrap_or_else(|| "n/a".into()),
            fnum(mean(&est), 1),
            fnum(mean(&act), 1),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::env::StudyScale;

    fn setup() -> (StudyEnv, WorkloadStatistics, AblationBatch) {
        let env = StudyEnv::generate(StudyScale::Smoke, 55);
        let stats = env.stats_for(&env.log);
        let batch = AblationBatch::collect(&env, 6);
        (env, stats, batch)
    }

    #[test]
    fn batch_collects_cases() {
        let (_, _, batch) = setup();
        assert_eq!(batch.cases.len(), 6);
        for (w, qw, result) in &batch.cases {
            assert!(w.conditions.len() >= 2);
            assert_eq!(qw.conditions.len(), 1);
            assert!(result.len() > 20);
        }
    }

    #[test]
    fn ordering_ablation_never_worsens_cost_one() {
        let (env, stats, batch) = setup();
        let table = ordering_ablation(&env, &stats, &batch);
        let rendered = table.render();
        // The improvement column for CostOne must not be positive
        // (optimal ≤ heuristic) and CostAll must be ~0%.
        let line = rendered
            .lines()
            .find(|l| l.starts_with("CostOne"))
            .expect("CostOne row");
        assert!(
            line.contains("-") || line.contains("+0.00%"),
            "unexpected CostOne row: {line}"
        );
        let control = rendered
            .lines()
            .find(|l| l.starts_with("CostAll"))
            .expect("control row");
        assert!(
            control.contains("0.00%"),
            "CostAll must be order-invariant: {control}"
        );
    }

    #[test]
    fn bucket_and_threshold_ablations_render() {
        let (env, stats, batch) = setup();
        let b = bucket_count_ablation(&env, &stats, &batch);
        assert_eq!(b.len(), 4);
        let t = threshold_ablation(&env, &stats, &batch);
        assert_eq!(t.len(), 5);
        // Tighter threshold → no more candidates than looser.
        let rendered = t.render();
        let candidates: Vec<usize> = rendered
            .lines()
            .skip(2)
            .filter_map(|l| l.split_whitespace().nth(1)?.parse().ok())
            .collect();
        assert!(
            candidates.windows(2).all(|w| w[0] >= w[1]),
            "{candidates:?}"
        );
    }

    #[test]
    fn correlation_ablation_runs() {
        let (env, _, batch) = setup();
        let t = correlation_ablation(&env, &batch);
        assert_eq!(t.len(), 2);
        assert!(t.render().contains("Correlation-aware"));
    }
}
