//! Stochastic users — the stand-in for the paper's 11 human subjects
//! (Section 6.3).
//!
//! A [`NoisyUser`] behaves like the oracle of [`crate::oracle`] but
//! with human imperfections, each driven by a seeded RNG so studies
//! are reproducible:
//!
//! - she sometimes drills into a category whose label does *not*
//!   overlap her need (`false_explore`), wasting effort;
//! - she sometimes skips a category that *does* overlap
//!   (`false_skip`), missing relevant tuples — this is what makes
//!   different techniques recover different numbers of relevant tuples
//!   (Figure 10);
//! - she occasionally browses instead of drilling
//!   (`showtuples_bias`);
//! - while scanning tuples she overlooks a relevant one with
//!   probability `overlook`;
//! - she abandons the task after examining `patience` items
//!   (`gave_up` is set on the stats).

use crate::relevance::RelevanceJudge;
use crate::trace::ExplorationStats;
use qcat_core::{CategoryTree, NodeId};
use qcat_sql::NormalizedQuery;
use qcat_datagen::rng::Rng;

/// A simulated human subject.
#[derive(Debug, Clone)]
pub struct NoisyUser {
    /// RNG seed; one subject = one seed.
    pub seed: u64,
    /// Probability of exploring a non-overlapping category.
    pub false_explore: f64,
    /// Probability of skipping an overlapping category.
    pub false_skip: f64,
    /// Probability of choosing SHOWTUPLES where the oracle would
    /// SHOWCAT.
    pub showtuples_bias: f64,
    /// Probability of overlooking a relevant tuple while scanning.
    pub overlook: f64,
    /// Give up after examining this many items (`usize::MAX` = never).
    pub patience: usize,
}

impl NoisyUser {
    /// A reasonably attentive subject.
    pub fn new(seed: u64) -> Self {
        NoisyUser {
            seed,
            false_explore: 0.05,
            false_skip: 0.05,
            showtuples_bias: 0.1,
            overlook: 0.05,
            patience: usize::MAX,
        }
    }

    /// Override the patience budget.
    pub fn with_patience(mut self, patience: usize) -> Self {
        self.patience = patience;
        self
    }

    /// Override the error rates.
    pub fn with_error_rates(mut self, false_explore: f64, false_skip: f64, overlook: f64) -> Self {
        self.false_explore = false_explore;
        self.false_skip = false_skip;
        self.overlook = overlook;
        self
    }
}

struct Session<'a> {
    tree: &'a CategoryTree,
    need: &'a NormalizedQuery,
    judge: &'a RelevanceJudge,
    user: &'a NoisyUser,
    rng: Rng,
    stats: ExplorationStats,
}

impl Session<'_> {
    fn exhausted(&self) -> bool {
        self.stats.items() >= self.user.patience
    }

    fn note_exhaustion(&mut self) {
        if self.exhausted() {
            self.stats.gave_up = true;
        }
    }

    fn wants_showcat(&mut self, id: NodeId) -> bool {
        let oracle_choice = self
            .tree
            .subcategorizing_attr(id)
            .is_some_and(|attr| self.need.constrains(attr));
        if oracle_choice {
            !self.rng.gen_bool(self.user.showtuples_bias)
        } else {
            false
        }
    }

    fn decides_to_explore(&mut self, overlaps: bool) -> bool {
        if overlaps {
            !self.rng.gen_bool(self.user.false_skip)
        } else {
            self.rng.gen_bool(self.user.false_explore)
        }
    }

    /// ALL scenario.
    fn explore_all(&mut self, id: NodeId) {
        if self.exhausted() {
            self.note_exhaustion();
            return;
        }
        let node = self.tree.node(id);
        self.stats.nodes_explored += 1;
        if node.is_leaf() || !self.wants_showcat(id) {
            self.stats.showtuples_choices += 1;
            for &row in crate::showtuples(self.tree, id).iter() {
                if self.exhausted() {
                    self.note_exhaustion();
                    return;
                }
                self.stats.tuples_examined += 1;
                if self.judge.is_relevant(self.tree.relation(), row)
                    && !self.rng.gen_bool(self.user.overlook)
                {
                    self.stats.relevant_found += 1;
                }
            }
            return;
        }
        let children = node.children.clone();
        for child in children {
            if self.exhausted() {
                self.note_exhaustion();
                return;
            }
            self.stats.labels_examined += 1;
            let overlaps = self
                .tree
                .node(child)
                .label
                .as_ref()
                .expect("non-root labeled")
                .query_overlaps(self.need);
            if self.decides_to_explore(overlaps) {
                self.explore_all(child);
            }
        }
    }

    /// ONE scenario; true when a relevant tuple was recognized.
    fn explore_one(&mut self, id: NodeId) -> bool {
        if self.exhausted() {
            self.note_exhaustion();
            return false;
        }
        let node = self.tree.node(id);
        self.stats.nodes_explored += 1;
        if node.is_leaf() || !self.wants_showcat(id) {
            self.stats.showtuples_choices += 1;
            for &row in crate::showtuples(self.tree, id).iter() {
                if self.exhausted() {
                    self.note_exhaustion();
                    return false;
                }
                self.stats.tuples_examined += 1;
                if self.judge.is_relevant(self.tree.relation(), row)
                    && !self.rng.gen_bool(self.user.overlook)
                {
                    self.stats.relevant_found = 1;
                    return true;
                }
            }
            return false;
        }
        let children = node.children.clone();
        for child in children {
            if self.exhausted() {
                self.note_exhaustion();
                return false;
            }
            self.stats.labels_examined += 1;
            let overlaps = self
                .tree
                .node(child)
                .label
                .as_ref()
                .expect("non-root labeled")
                .query_overlaps(self.need);
            if self.decides_to_explore(overlaps) && self.explore_one(child) {
                return true;
            }
        }
        false
    }
}

/// Replay the ALL scenario with a noisy user.
pub fn noisy_explore_all(
    tree: &CategoryTree,
    need: &NormalizedQuery,
    judge: &RelevanceJudge,
    user: &NoisyUser,
) -> ExplorationStats {
    let mut session = Session {
        tree,
        need,
        judge,
        user,
        rng: Rng::seed_from_u64(user.seed),
        stats: ExplorationStats::default(),
    };
    session.explore_all(NodeId::ROOT);
    session.stats
}

/// Replay the ONE scenario with a noisy user.
pub fn noisy_explore_one(
    tree: &CategoryTree,
    need: &NormalizedQuery,
    judge: &RelevanceJudge,
    user: &NoisyUser,
) -> ExplorationStats {
    let mut session = Session {
        tree,
        need,
        judge,
        user,
        rng: Rng::seed_from_u64(user.seed),
        stats: ExplorationStats::default(),
    };
    session.explore_one(NodeId::ROOT);
    session.stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::actual_cost_all;
    use qcat_core::{CategorizeConfig, Categorizer};
    use qcat_data::{AttrId, AttrType, Field, Relation, RelationBuilder, Schema};
    use qcat_exec::ResultSet;
    use qcat_sql::parse_and_normalize;
    use qcat_workload::{PreprocessConfig, WorkloadLog, WorkloadStatistics};

    fn setup() -> (Relation, qcat_core::CategoryTree) {
        let schema = Schema::new(vec![
            Field::new("neighborhood", AttrType::Categorical),
            Field::new("price", AttrType::Float),
        ])
        .unwrap();
        let mut b = RelationBuilder::new(schema.clone());
        let hoods = ["Redmond", "Bellevue", "Seattle"];
        for i in 0..120 {
            b.push_row(&[hoods[i % 3].into(), (200_000.0 + (i as f64) * 500.0).into()])
                .unwrap();
        }
        let rel = b.finish().unwrap();
        let mut w = Vec::new();
        for _ in 0..50 {
            w.push("SELECT * FROM t WHERE neighborhood IN ('Redmond')".to_string());
        }
        for i in 0..50 {
            let lo = 200_000 + (i % 6) * 10_000;
            w.push(format!(
                "SELECT * FROM t WHERE price BETWEEN {lo} AND {}",
                lo + 10_000
            ));
        }
        let log = WorkloadLog::parse(w.iter().map(String::as_str), &schema, None);
        let cfg = PreprocessConfig::new().with_interval(AttrId(1), 5_000.0);
        let stats = WorkloadStatistics::build(&log, &schema, &cfg);
        let config = CategorizeConfig::default()
            .with_max_leaf_tuples(10)
            .with_attr_threshold(0.1);
        let tree =
            Categorizer::new(&stats, config).categorize(&ResultSet::whole(rel.clone()), None);
        (rel, tree)
    }

    fn need(rel: &Relation) -> NormalizedQuery {
        parse_and_normalize(
            "SELECT * FROM t WHERE neighborhood IN ('Redmond') AND price BETWEEN 210000 AND 230000",
            rel.schema(),
        )
        .unwrap()
    }

    #[test]
    fn deterministic_per_seed() {
        let (rel, tree) = setup();
        let w = need(&rel);
        let judge = RelevanceJudge::from_query(&w, &rel).unwrap();
        let u = NoisyUser::new(42);
        let a = noisy_explore_all(&tree, &w, &judge, &u);
        let b = noisy_explore_all(&tree, &w, &judge, &u);
        assert_eq!(a, b);
        let c = noisy_explore_all(&tree, &w, &judge, &NoisyUser::new(43));
        // Different seed very likely differs somewhere.
        assert!(a != c || a.items() == c.items());
    }

    #[test]
    fn zero_noise_matches_oracle() {
        let (rel, tree) = setup();
        let w = need(&rel);
        let judge = RelevanceJudge::from_query(&w, &rel).unwrap();
        let mut u = NoisyUser::new(7).with_error_rates(0.0, 0.0, 0.0);
        u.showtuples_bias = 0.0;
        let noisy = noisy_explore_all(&tree, &w, &judge, &u);
        let oracle = actual_cost_all(&tree, &w, &judge);
        assert_eq!(noisy.items(), oracle.items());
        assert_eq!(noisy.relevant_found, oracle.relevant_found);
    }

    #[test]
    fn false_skip_loses_relevant_tuples() {
        let (rel, tree) = setup();
        let w = need(&rel);
        let judge = RelevanceJudge::from_query(&w, &rel).unwrap();
        let careless = NoisyUser::new(3).with_error_rates(0.0, 0.9, 0.0);
        let careful = NoisyUser::new(3).with_error_rates(0.0, 0.0, 0.0);
        let lost = noisy_explore_all(&tree, &w, &judge, &careless);
        let kept = noisy_explore_all(&tree, &w, &judge, &careful);
        assert!(lost.relevant_found <= kept.relevant_found);
        assert!(kept.relevant_found > 0);
    }

    #[test]
    fn patience_caps_items_and_flags_give_up() {
        let (rel, tree) = setup();
        let w = parse_and_normalize("SELECT * FROM t", rel.schema()).unwrap();
        let judge = RelevanceJudge::from_query(&w, &rel).unwrap();
        let u = NoisyUser::new(5).with_patience(25);
        let s = noisy_explore_all(&tree, &w, &judge, &u);
        assert!(s.items() <= 26, "items={}", s.items());
        assert!(s.gave_up);
    }

    #[test]
    fn one_scenario_terminates_and_finds_at_most_one() {
        let (rel, tree) = setup();
        let w = need(&rel);
        let judge = RelevanceJudge::from_query(&w, &rel).unwrap();
        for seed in 0..20 {
            let u = NoisyUser::new(seed);
            let s = noisy_explore_one(&tree, &w, &judge, &u);
            assert!(s.relevant_found <= 1);
        }
    }
}
