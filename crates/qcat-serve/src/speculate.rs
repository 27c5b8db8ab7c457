//! Workload-driven speculative precomputation.
//!
//! The workload log is not just input to the probability model — it
//! is a forecast. Queries a user session issued once tend to be
//! issued again (backtracking) and their attribute mix predicts the
//! next refinement. [`crate::Server::speculate`] exploits this: rank
//! the logged queries hottest-first, and precompute + pin the trees
//! for the top few **while the server is otherwise idle**, so the
//! next live arrival is a tree-cache hit instead of a cold fill.
//!
//! Speculation is strictly subordinate to live traffic:
//!
//! * a pass runs only when the admission count is zero, and every
//!   worker re-checks before starting its fill — live arrivals make
//!   the rest of the pass yield;
//! * speculative fills never take admission slots, so they can never
//!   shed a live query;
//! * each fill registers in the same single-flight map as live
//!   fills, so a live query racing a speculative fill of the same
//!   fingerprint *joins* it (coalesces) rather than recomputing, and
//!   vice versa;
//! * every fill runs under its own [`qcat_fault::Budget`]
//!   ([`SpeculateConfig::budget`]), so a pathological hot query
//!   degrades quietly instead of monopolizing the background pool.
//!
//! Ranking is deterministic: fingerprint frequency first, then the
//! summed workload usage fraction of the constrained attributes
//! (queries over attributes the workload cares about are likelier to
//! recur), then the fingerprint itself as a total tiebreak.

use qcat_fault::Budget;
use qcat_sql::NormalizedQuery;
use qcat_workload::WorkloadStatistics;
use std::collections::HashMap;

/// Tunables for one [`crate::Server::speculate`] pass.
#[derive(Debug, Clone)]
pub struct SpeculateConfig {
    /// At most this many fills are attempted per pass (hot queries
    /// whose tree is already cached do not count against it).
    pub max_fills: usize,
    /// Per-fill resource budget. Defaults to [`Budget::UNLIMITED`];
    /// production passes should set one so a pathological query
    /// cannot monopolize the background pool.
    pub budget: Budget,
    /// Worker threads for the pass (0 = the pool's default).
    pub threads: usize,
}

impl Default for SpeculateConfig {
    fn default() -> Self {
        SpeculateConfig {
            max_fills: 4,
            budget: Budget::UNLIMITED,
            threads: 2,
        }
    }
}

/// What one speculation pass did.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SpeculateReport {
    /// Distinct hot queries ranked from the workload log.
    pub considered: usize,
    /// Skipped: the tree was already cached for the current epoch.
    pub already_cached: usize,
    /// Trees computed and pinned into the answer cache.
    pub filled: usize,
    /// Fills that degraded (degraded trees are never cached).
    pub degraded: usize,
    /// Skipped: another fill — live or sibling — already owned the
    /// fingerprint's single-flight slot.
    pub coalesced: usize,
    /// Fills that errored (injected faults, storage).
    pub failed: usize,
    /// True when live traffic was observed and (part of) the pass
    /// yielded without filling.
    pub skipped_busy: bool,
}

/// Outcome of one speculative fill attempt.
pub(crate) enum SpecOutcome {
    /// Tree computed and cached.
    Filled,
    /// Fill ran but degraded; nothing cached.
    Degraded,
    /// Another fill owned the slot; nothing to do.
    Coalesced,
    /// Live traffic arrived; the fill yielded before starting.
    Busy,
    /// The fill errored.
    Failed,
}

/// Rank the logged queries hottest-first, deduplicated by
/// fingerprint; each group is represented by its first-seen query, so
/// ranking a log's batches in order equals ranking their
/// concatenation. Deterministic: count desc, summed usage fraction of
/// constrained attributes desc, fingerprint asc.
pub(crate) fn rank_hot_queries<'a>(
    log: impl IntoIterator<Item = &'a NormalizedQuery>,
    stats: &WorkloadStatistics,
) -> Vec<(String, NormalizedQuery)> {
    let mut groups: HashMap<String, (usize, NormalizedQuery)> = HashMap::new();
    for q in log {
        groups
            .entry(crate::fingerprint(q))
            .and_modify(|g| g.0 += 1)
            .or_insert_with(|| (1, q.clone()));
    }
    let mut ranked: Vec<(String, usize, f64, NormalizedQuery)> = groups
        .into_iter()
        .map(|(key, (count, q))| {
            let usage: f64 = q
                .conditions
                .keys()
                .map(|&attr| stats.usage_fraction(attr))
                .sum();
            (key, count, usage, q)
        })
        .collect();
    ranked.sort_by(|a, b| {
        b.1.cmp(&a.1)
            .then(b.2.total_cmp(&a.2))
            .then_with(|| a.0.cmp(&b.0))
    });
    ranked.into_iter().map(|(key, _, _, q)| (key, q)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use qcat_data::{AttrId, AttrType, Field, Schema};
    use qcat_workload::{PreprocessConfig, WorkloadLog};

    fn schema() -> Schema {
        Schema::new(vec![
            Field::new("neighborhood", AttrType::Categorical),
            Field::new("price", AttrType::Float),
            Field::new("bedroomcount", AttrType::Int),
        ])
        .unwrap()
    }

    fn ranked(sqls: &[&str]) -> Vec<(String, NormalizedQuery)> {
        let schema = schema();
        let log = WorkloadLog::parse(sqls.iter().copied(), &schema, None);
        let stats =
            WorkloadStatistics::build(&log, &schema, &PreprocessConfig::default());
        rank_hot_queries(log.queries(), &stats)
    }

    #[test]
    fn frequency_dominates() {
        let hot = "SELECT * FROM homes WHERE price <= 200000";
        let cold = "SELECT * FROM homes WHERE bedroomcount >= 3";
        let out = ranked(&[cold, hot, hot, hot]);
        assert_eq!(out.len(), 2);
        // price is attribute 1 in the schema; the thrice-issued query
        // must outrank the once-issued one.
        assert!(out[0].1.condition(AttrId(1)).is_some(), "hot first");
    }

    #[test]
    fn spellings_of_one_query_pool_their_counts() {
        let out = ranked(&[
            "SELECT * FROM homes WHERE price <= 200000",
            "select * from HOMES where PRICE <= 2e5",
            "SELECT * FROM homes WHERE bedroomcount >= 3",
        ]);
        assert_eq!(out.len(), 2, "normalized duplicates collapse");
        assert!(out[0].1.condition(AttrId(1)).is_some());
    }

    #[test]
    fn ranking_batches_equals_ranking_their_concatenation() {
        let schema = schema();
        let batches: Vec<WorkloadLog> = [
            &[
                "SELECT * FROM homes WHERE price <= 200000",
                "SELECT * FROM homes WHERE bedroomcount >= 3",
            ][..],
            &["select * from HOMES where PRICE <= 2e5"][..],
            &[
                "SELECT * FROM homes WHERE neighborhood IN ('Redmond')",
                "SELECT * FROM homes WHERE bedroomcount >= 3",
                "SELECT * FROM homes WHERE bedroomcount >= 3",
            ][..],
        ]
        .iter()
        .map(|sqls| WorkloadLog::parse(sqls.iter().copied(), &schema, None))
        .collect();
        let concatenated = WorkloadLog::from_normalized(
            batches.iter().flat_map(|b| b.queries().iter().cloned()).collect(),
        );
        let stats =
            WorkloadStatistics::build(&concatenated, &schema, &PreprocessConfig::default());
        let over_batches = rank_hot_queries(batches.iter().flat_map(|b| b.queries()), &stats);
        let over_concat = rank_hot_queries(concatenated.queries(), &stats);
        assert_eq!(over_batches.len(), 3);
        assert_eq!(over_batches, over_concat);
        // Counts add across batches: the query issued in the first
        // and last batches outranks the one whose two spellings
        // straddle the first two.
        assert!(over_batches[0].1.condition(AttrId(2)).is_some());
    }

    #[test]
    fn ranking_is_deterministic_across_runs() {
        let sqls = [
            "SELECT * FROM homes WHERE price <= 200000",
            "SELECT * FROM homes WHERE bedroomcount >= 3",
            "SELECT * FROM homes WHERE neighborhood IN ('Redmond')",
            "SELECT * FROM homes WHERE price BETWEEN 100000 AND 300000",
        ];
        let a: Vec<String> = ranked(&sqls).into_iter().map(|(k, _)| k).collect();
        for _ in 0..5 {
            let b: Vec<String> = ranked(&sqls).into_iter().map(|(k, _)| k).collect();
            assert_eq!(a, b);
        }
    }
}
