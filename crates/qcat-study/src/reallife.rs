//! The real-life user study, simulated (paper Section 6.3):
//! Tables 2–4 and Figures 9–12.
//!
//! The paper ran 11 human subjects over 4 home-search tasks × 3
//! techniques. We substitute seeded [`NoisyUser`]s: each subject gets
//! a *personal information need* — the task query narrowed by private
//! preferences (fewer neighborhoods, a tighter price window, a
//! bedroom count) — plus human error rates, and explores each
//! technique's tree for each task. Costs, relevant-tuple recall, and
//! the post-study survey fall out of the replays.

use crate::env::{StudyEnv, Technique};
use crate::report::{fnum, TextTable};
use crate::stats::{mean, pearson};
use qcat_core::cost::cost_all;
use qcat_exec::{execute, ExecOptions};
use qcat_explore::{noisy_explore_all, noisy_explore_one, NoisyUser, RelevanceJudge};
use qcat_sql::{parse_and_normalize, NormalizedQuery};
use qcat_datagen::rng::Rng;

/// Study shape.
#[derive(Debug, Clone, Copy)]
pub struct RealLifeStudyConfig {
    /// Number of simulated subjects (paper: 11).
    pub subjects: usize,
    /// Base RNG seed; subject `i` uses `seed + i`.
    pub seed: u64,
}

impl Default for RealLifeStudyConfig {
    fn default() -> Self {
        RealLifeStudyConfig {
            subjects: 11,
            seed: 0xFACE,
        }
    }
}

/// One search task (the paper's four).
#[derive(Debug, Clone)]
pub struct Task {
    /// Task number, 1-based.
    pub id: usize,
    /// Human-readable description.
    pub description: String,
    /// The task's user query.
    pub query: NormalizedQuery,
}

/// One (subject, task, technique) exploration outcome.
#[derive(Debug, Clone, Copy)]
pub struct Outcome {
    /// Subject index (0-based).
    pub subject: usize,
    /// Task id (1-based).
    pub task: usize,
    /// Technique under test.
    pub technique: Technique,
    /// Estimated `CostAll(T)`.
    pub estimated: f64,
    /// Items examined until all relevant tuples found (ALL replay).
    pub actual_all: f64,
    /// Relevant tuples the subject recognized.
    pub relevant_found: usize,
    /// Items examined until the first relevant tuple (ONE replay).
    pub actual_one: f64,
    /// `|Result(Q_task)|` — the `No categorization` cost.
    pub result_size: usize,
}

/// The completed study.
#[derive(Debug, Clone)]
pub struct RealLifeStudy {
    /// Every exploration outcome.
    pub outcomes: Vec<Outcome>,
    /// Number of subjects.
    pub subjects: usize,
    /// The tasks that were run.
    pub task_descriptions: Vec<String>,
}

/// Build the paper's four tasks against the standard geography.
pub fn paper_tasks(env: &StudyEnv) -> Vec<Task> {
    let schema = env.relation.schema();
    let region_hoods = |region: &str| -> String {
        let r = &env.geography.regions()[env
            .geography
            .region_index(region)
            .expect("standard geography region")];
        r.neighborhoods
            .iter()
            .map(|h| format!("'{}'", h.replace('\'', "''")))
            .collect::<Vec<_>>()
            .join(", ")
    };
    let seattle = region_hoods("Seattle/Bellevue");
    let bay = region_hoods("Bay Area - Penin/SanJose");
    let nyc_region = &env.geography.regions()[env
        .geography
        .region_index("NYC - Manhattan, Bronx")
        .expect("standard geography region")];
    let nyc15 = nyc_region
        .neighborhoods
        .iter()
        .take(15)
        .map(|h| format!("'{}'", h.replace('\'', "''")))
        .collect::<Vec<_>>()
        .join(", ");
    let specs = [
        (
            1,
            "Any neighborhood in Seattle/Bellevue, Price < 1 Million".to_string(),
            format!(
                "SELECT * FROM listproperty WHERE neighborhood IN ({seattle}) AND price < 1000000"
            ),
        ),
        (
            2,
            "Any neighborhood in Bay Area - Penin/SanJose, Price between 300K and 500K".to_string(),
            format!(
                "SELECT * FROM listproperty WHERE neighborhood IN ({bay}) \
                 AND price BETWEEN 300000 AND 500000"
            ),
        ),
        (
            3,
            "15 selected neighborhoods in NYC - Manhattan, Bronx, Price < 1 Million".to_string(),
            format!(
                "SELECT * FROM listproperty WHERE neighborhood IN ({nyc15}) AND price < 1000000"
            ),
        ),
        (
            4,
            "Any neighborhood in Seattle/Bellevue, Price between 200K and 400K, \
             BedroomCount between 3 and 4"
                .to_string(),
            format!(
                "SELECT * FROM listproperty WHERE neighborhood IN ({seattle}) \
                 AND price BETWEEN 200000 AND 400000 AND bedroomcount BETWEEN 3 AND 4"
            ),
        ),
    ];
    specs
        .into_iter()
        .map(|(id, description, sql)| Task {
            id,
            description,
            query: parse_and_normalize(&sql, schema).expect("task SQL is valid"),
        })
        .collect()
}

/// Derive a subject's personal information need from a task: a private
/// narrowing of the task's constraints.
fn personal_need(env: &StudyEnv, task: &Task, rng: &mut Rng) -> NormalizedQuery {
    let schema = env.relation.schema();
    let nb = schema.resolve("neighborhood").expect("attr");
    let price = schema.resolve("price").expect("attr");
    let mut conds: Vec<String> = Vec::new();
    // A private subset of the task's neighborhoods (2–4 of them).
    if let Some(qcat_sql::AttrCondition::InStr(hoods)) = task.query.condition(nb) {
        let all: Vec<&String> = hoods.iter().collect();
        let k = rng.gen_range(2..=4usize.min(all.len()));
        let mut picked: Vec<&str> = Vec::new();
        while picked.len() < k {
            let h = all[rng.gen_range(0..all.len())];
            if !picked.contains(&h.as_str()) {
                picked.push(h);
            }
        }
        let list = picked
            .iter()
            .map(|h| format!("'{}'", h.replace('\'', "''")))
            .collect::<Vec<_>>()
            .join(", ");
        conds.push(format!("neighborhood IN ({list})"));
    }
    // A private price window inside the task's range.
    let (lo, hi) = task
        .query
        .condition(price)
        .and_then(|c| c.covering_range())
        .map(|r| {
            (
                r.finite_lo().unwrap_or(100_000.0),
                r.finite_hi().unwrap_or(1_000_000.0),
            )
        })
        .unwrap_or((100_000.0, 1_000_000.0));
    let span = hi - lo;
    // People type round numbers into price boxes: snap to the $5000
    // grid (the workload's splitpoint separation interval).
    let snap = |v: f64| (v / 5_000.0).round() * 5_000.0;
    let w_lo = snap(lo + rng.gen_range(0.0..0.5) * span);
    let w_hi = snap((w_lo + rng.gen_range(0.2..0.5) * span).min(hi)).max(w_lo + 5_000.0);
    conds.push(format!("price BETWEEN {w_lo:.0} AND {w_hi:.0}"));
    // Further private preferences, at the same rates the workload
    // exhibits (the subjects are drawn from the population whose
    // behavior the workload recorded — the paper's footnote-4
    // assumption that users conform to past behavior).
    if rng.gen_bool(0.65) {
        let beds = rng.gen_range(2..=4i64);
        conds.push(format!("bedroomcount BETWEEN {beds} AND {}", beds + 1));
    }
    if rng.gen_bool(0.45) {
        let types = ["Single Family", "Condo", "Townhouse"];
        conds.push(format!(
            "property_type IN ('{}')",
            types[rng.gen_range(0..types.len())]
        ));
    }
    if rng.gen_bool(0.44) {
        let lo = rng.gen_range(6..=18i64) * 100;
        conds.push(format!(
            "square_footage BETWEEN {lo} AND {}",
            lo + rng.gen_range(4..=12i64) * 100
        ));
    }
    let sql = format!("SELECT * FROM listproperty WHERE {}", conds.join(" AND "));
    parse_and_normalize(&sql, schema).expect("generated need parses")
}

/// A subject's behavioral parameters, varied deterministically.
///
/// Patience — the item budget before the subject abandons the session —
/// is what makes bad trees lose relevant tuples (Figure 10): a
/// technique that forces long scans exhausts the subject before she
/// has seen everything. It scales with the task's result size (a
/// subject facing 30 k listings commits to a longer session than one
/// facing 1 k, but never to an exhaustive scan), which keeps the
/// give-up phenomenon scale-invariant: an efficient tree fits inside
/// the budget at any scale, a linear scan never does.
fn subject_model(index: usize, seed: u64, result_size: usize) -> NoisyUser {
    NoisyUser::new(seed.wrapping_add(index as u64))
        .with_error_rates(
            0.02 + 0.015 * (index % 4) as f64,
            0.03 + 0.02 * (index % 5) as f64,
            0.02 + 0.015 * (index % 3) as f64,
        )
        .with_patience(result_size / 4 + 300 + 60 * (index % 6))
}

impl RealLifeStudy {
    /// Run the study: every subject explores every task under every
    /// technique (a denser design than the paper's partial assignment,
    /// which only stabilizes the statistics).
    pub fn run(env: &StudyEnv, config: &RealLifeStudyConfig) -> Self {
        let tasks = paper_tasks(env);
        let stats = env.stats_for(&env.log);
        let mut outcomes = Vec::new();
        for (ti, task) in tasks.iter().enumerate() {
            let result = execute(&env.relation, &task.query, &ExecOptions::default())
                .expect("task query executes");
            // Trees are per (task, technique) — identical for all
            // subjects, like the paper's shared web interface.
            let trees: Vec<_> = Technique::ALL
                .iter()
                .map(|&t| {
                    let tree = env.categorize(&stats, t, &result, Some(&task.query));
                    let estimated = cost_all(&tree, env.config.label_cost).total();
                    (t, tree, estimated)
                })
                .collect();
            for subject in 0..config.subjects {
                let mut rng =
                    Rng::seed_from_u64(config.seed ^ ((subject as u64) << 32) ^ (ti as u64));
                let need = personal_need(env, task, &mut rng);
                let judge =
                    RelevanceJudge::from_query(&need, &env.relation).expect("need compiles");
                let user = subject_model(subject, config.seed, result.len());
                for (technique, tree, estimated) in &trees {
                    let all = noisy_explore_all(tree, &need, &judge, &user);
                    let one = noisy_explore_one(tree, &need, &judge, &user);
                    outcomes.push(Outcome {
                        subject,
                        task: task.id,
                        technique: *technique,
                        estimated: *estimated,
                        actual_all: all.items() as f64,
                        relevant_found: all.relevant_found,
                        actual_one: one.items() as f64,
                        result_size: result.len(),
                    });
                }
            }
        }
        RealLifeStudy {
            outcomes,
            subjects: config.subjects,
            task_descriptions: tasks.iter().map(|t| t.description.clone()).collect(),
        }
    }

    /// Table 2: per-subject Pearson correlation between estimated and
    /// actual (ALL) cost across that subject's explorations.
    pub fn table2(&self) -> TextTable {
        let mut t = TextTable::new(vec!["User", "Correlation"]);
        let mut all_r = Vec::new();
        for s in 0..self.subjects {
            let (xs, ys): (Vec<f64>, Vec<f64>) = self
                .outcomes
                .iter()
                .filter(|o| o.subject == s)
                .map(|o| (o.estimated, o.actual_all))
                .unzip();
            let r = pearson(&xs, &ys);
            if let Some(v) = r {
                all_r.push(v);
            }
            t.row(vec![
                format!("U{}", s + 1),
                r.map(|v| fnum(v, 2)).unwrap_or_else(|| "n/a".into()),
            ]);
        }
        t.row(vec!["average".to_string(), fnum(mean(&all_r), 2)]);
        t
    }

    /// Table 3: cost-based normalized cost vs `No categorization`
    /// (= result size) per task.
    pub fn table3(&self) -> TextTable {
        let mut t = TextTable::new(vec![
            "Task #",
            "Cost-based Categorization",
            "No Categorization",
        ]);
        for task in 1..=self.task_descriptions.len() {
            let normalized: Vec<f64> = self
                .outcomes
                .iter()
                .filter(|o| {
                    o.task == task && o.technique == Technique::CostBased && o.relevant_found > 0
                })
                .map(|o| o.actual_all / o.relevant_found as f64)
                .collect();
            let size = self
                .outcomes
                .iter()
                .find(|o| o.task == task)
                .map(|o| o.result_size)
                .unwrap_or(0);
            t.row(vec![
                task.to_string(),
                fnum(mean(&normalized), 2),
                size.to_string(),
            ]);
        }
        t
    }

    fn per_task_metric<F: Fn(&Outcome) -> Option<f64>>(&self, metric: F) -> TextTable {
        let mut t = TextTable::new(vec!["Task", "Cost-based", "Attr-cost", "No cost"]);
        for task in 1..=self.task_descriptions.len() {
            let avg = |tech: Technique| {
                let vals: Vec<f64> = self
                    .outcomes
                    .iter()
                    .filter(|o| o.task == task && o.technique == tech)
                    .filter_map(&metric)
                    .collect();
                mean(&vals)
            };
            t.row(vec![
                format!("Task {task}"),
                fnum(avg(Technique::CostBased), 1),
                fnum(avg(Technique::AttrCost), 1),
                fnum(avg(Technique::NoCost), 1),
            ]);
        }
        t
    }

    /// Figure 9: average items examined until all relevant tuples
    /// found, per task per technique.
    pub fn figure9(&self) -> TextTable {
        self.per_task_metric(|o| Some(o.actual_all))
    }

    /// Figure 10: average number of relevant tuples found.
    pub fn figure10(&self) -> TextTable {
        self.per_task_metric(|o| Some(o.relevant_found as f64))
    }

    /// Figure 11: average normalized cost (items per relevant tuple
    /// found; explorations that found nothing are excluded, as the
    /// ratio is undefined).
    pub fn figure11(&self) -> TextTable {
        self.per_task_metric(|o| {
            (o.relevant_found > 0).then(|| o.actual_all / o.relevant_found as f64)
        })
    }

    /// Figure 12: average items examined until the first relevant
    /// tuple (ONE scenario).
    pub fn figure12(&self) -> TextTable {
        self.per_task_metric(|o| Some(o.actual_one))
    }

    /// Table 4: the post-study survey — each subject "votes" for the
    /// technique with the lowest average normalized cost in their own
    /// explorations.
    pub fn table4(&self) -> TextTable {
        let mut votes = [0usize; 3];
        for s in 0..self.subjects {
            let avg_for = |tech: Technique| {
                let vals: Vec<f64> = self
                    .outcomes
                    .iter()
                    .filter(|o| o.subject == s && o.technique == tech && o.relevant_found > 0)
                    .map(|o| o.actual_all / o.relevant_found as f64)
                    .collect();
                if vals.is_empty() {
                    f64::INFINITY
                } else {
                    mean(&vals)
                }
            };
            let scores = [
                avg_for(Technique::CostBased),
                avg_for(Technique::AttrCost),
                avg_for(Technique::NoCost),
            ];
            let best = scores
                .iter()
                .enumerate()
                .min_by(|a, b| a.1.total_cmp(b.1))
                .map(|(i, _)| i)
                .unwrap_or(0);
            votes[best] += 1;
        }
        let mut t = TextTable::new(vec![
            "Categorization Technique",
            "#subjects that called it best",
        ]);
        t.row(vec!["Cost-based".to_string(), votes[0].to_string()]);
        t.row(vec!["Attr-cost".to_string(), votes[1].to_string()]);
        t.row(vec!["No cost".to_string(), votes[2].to_string()]);
        t
    }

    /// Mean of a metric for one technique over all outcomes (used by
    /// tests and EXPERIMENTS.md summaries).
    pub fn mean_metric<F: Fn(&Outcome) -> Option<f64>>(
        &self,
        technique: Technique,
        metric: F,
    ) -> f64 {
        let vals: Vec<f64> = self
            .outcomes
            .iter()
            .filter(|o| o.technique == technique)
            .filter_map(metric)
            .collect();
        mean(&vals)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::env::StudyScale;

    fn smoke_study() -> RealLifeStudy {
        let env = StudyEnv::generate(StudyScale::Smoke, 21);
        let config = RealLifeStudyConfig {
            subjects: 5,
            seed: 99,
        };
        RealLifeStudy::run(&env, &config)
    }

    #[test]
    fn runs_all_combinations() {
        let study = smoke_study();
        // 4 tasks × 5 subjects × 3 techniques.
        assert_eq!(study.outcomes.len(), 4 * 5 * 3);
        assert_eq!(study.task_descriptions.len(), 4);
    }

    #[test]
    fn subjects_find_relevant_tuples_with_cost_based_trees() {
        let study = smoke_study();
        let found = study.mean_metric(Technique::CostBased, |o| Some(o.relevant_found as f64));
        assert!(found > 0.0, "nobody found anything: {found}");
    }

    #[test]
    fn cost_based_normalized_cost_beats_no_cost() {
        let study = smoke_study();
        let norm = |tech| {
            study.mean_metric(tech, |o: &Outcome| {
                (o.relevant_found > 0).then(|| o.actual_all / o.relevant_found as f64)
            })
        };
        let cb = norm(Technique::CostBased);
        let nc = norm(Technique::NoCost);
        assert!(cb > 0.0);
        assert!(cb < nc, "cost-based {cb:.1} vs no-cost {nc:.1}");
    }

    #[test]
    fn all_tables_render() {
        let study = smoke_study();
        for text in [
            study.table2().render(),
            study.table3().render(),
            study.figure9().render(),
            study.figure10().render(),
            study.figure11().render(),
            study.figure12().render(),
            study.table4().render(),
        ] {
            assert!(!text.is_empty());
        }
        // Table 4 votes sum to the subject count.
        let t4 = study.table4();
        assert_eq!(t4.len(), 3);
    }

    #[test]
    fn one_costs_do_not_exceed_all_costs_on_average() {
        let study = smoke_study();
        for tech in Technique::ALL {
            let one = study.mean_metric(tech, |o| Some(o.actual_one));
            let all = study.mean_metric(tech, |o| Some(o.actual_all));
            assert!(
                one <= all + 1e-9,
                "{tech:?}: ONE {one} should not exceed ALL {all}"
            );
        }
    }

    #[test]
    fn deterministic() {
        let a = smoke_study();
        let b = smoke_study();
        for (x, y) in a.outcomes.iter().zip(&b.outcomes) {
            assert_eq!(x.actual_all, y.actual_all);
            assert_eq!(x.relevant_found, y.relevant_found);
        }
    }
}
