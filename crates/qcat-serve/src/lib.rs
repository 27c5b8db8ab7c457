#![deny(missing_docs)]

//! Cached query → category-tree serving for the qcat workspace.
//!
//! The paper's system sits between a user and a DBMS: the user issues
//! exploratory selection queries, and every result set comes back as
//! a navigable category tree. Exploration sessions are repetitive —
//! the same query is re-issued as the user backtracks, and small
//! literal variations normalize to the same query — so the natural
//! deployment shape is a **server** that owns the relation, its
//! secondary indexes, and the workload statistics, and memoizes the
//! two expensive stages of the pipeline in one answer cache:
//!
//! ```text
//!   SQL ──parse/normalize──▶ fingerprint
//!         │                      │
//!         │      tree at this stats epoch? ──▶ rendered CategoryTree
//!         │                      │ no
//!         │  rows, or a tree of another epoch? ──▶ categorize + render
//!         │                      │ miss
//!         │        a cached answer subsumes it? ──▶ residual filter
//!         │                      │ no            + categorize + render
//!         └──▶ execute (index-accelerated) ──▶ categorize + render
//! ```
//!
//! The cache keys on the [`fingerprint`](fingerprint::fingerprint)
//! of the *normalized* query, so `price <= 2e5` and
//! `PRICE <= 200000` share one entry. Each fingerprint holds its answer
//! once, under one LRU and one byte budget
//! ([`ServerConfig::cache_bytes`]): first its rows, right after
//! execution, then its finished tree, whose root slice is the same
//! rows. A cold miss gets a second chance before executing: if a cached
//! answer's query provably *subsumes* the new one
//! (`qcat_sql::subsumes`), its rows are post-filtered with the residual
//! conjuncts instead — byte-identical to cold execution at a fraction
//! of the cost. Cached trees depend on the workload statistics;
//! [`Server::log_queries`] absorbs new queries into them and bumps the
//! table's stats **epoch**, after which that table's cached trees serve
//! only as rows: re-categorized on a repeat, filtered as donors.
//! Appends ([`Server::append_rows`]) evict only the answers whose
//! predicates may intersect the new rows.
//!
//! The same workload log also *forecasts*: [`Server::speculate`]
//! precomputes and pins the hottest queries' trees from a background
//! pool while the server is idle (see [`speculate`]).

pub(crate) mod cache;
pub(crate) mod containment;
pub mod fingerprint;
pub mod server;
pub mod speculate;

pub use fingerprint::fingerprint;
pub use server::{
    AppendOutcome, Served, ServeError, ServeOutcome, Server, ServerConfig, SlowQuery,
};
pub use speculate::{SpeculateConfig, SpeculateReport};

#[cfg(test)]
mod tests {
    use super::*;
    use qcat_data::{AttrType, Field, Relation, RelationBuilder, Schema};
    use qcat_sql::parse_and_normalize;
    use qcat_workload::{PreprocessConfig, WorkloadLog};

    fn schema() -> Schema {
        Schema::new(vec![
            Field::new("neighborhood", AttrType::Categorical),
            Field::new("price", AttrType::Float),
            Field::new("bedroomcount", AttrType::Int),
        ])
        .unwrap()
    }

    fn homes(n: i64) -> Relation {
        let hoods = ["Redmond", "Bellevue", "Seattle", "Issaquah"];
        let mut b = RelationBuilder::new(schema());
        for i in 0..n {
            b.push_row(&[
                hoods[(i % 4) as usize].into(),
                (150_000.0 + 1_000.0 * i as f64).into(),
                (1 + i % 5).into(),
            ])
            .unwrap();
        }
        b.finish().unwrap()
    }

    fn workload() -> WorkloadLog {
        WorkloadLog::parse(
            [
                "SELECT * FROM homes WHERE neighborhood IN ('Redmond')",
                "SELECT * FROM homes WHERE price BETWEEN 150000 AND 200000",
                "SELECT * FROM homes WHERE neighborhood IN ('Bellevue') AND bedroomcount >= 3",
                "SELECT * FROM homes WHERE price <= 180000",
            ],
            &schema(),
            None,
        )
    }

    fn server() -> Server {
        let relation = homes(200);
        let prep = PreprocessConfig::new().infer_missing(&relation, 20);
        let server = Server::new(ServerConfig::default());
        server
            .register_table("homes", relation, workload(), prep)
            .unwrap();
        server
    }

    #[test]
    fn cold_then_tree_hit() {
        let s = server();
        let sql = "SELECT * FROM homes WHERE price <= 200000";
        let first = s.serve(sql).unwrap();
        assert_eq!(first.outcome, ServeOutcome::Cold);
        let second = s.serve(sql).unwrap();
        assert_eq!(second.outcome, ServeOutcome::TreeCacheHit);
        assert_eq!(first.rendered, second.rendered);
        assert_eq!(first.rows, second.rows);
    }

    #[test]
    fn literal_spellings_share_one_entry() {
        let s = server();
        let first = s.serve("SELECT * FROM homes WHERE price <= 200000").unwrap();
        assert_eq!(first.outcome, ServeOutcome::Cold);
        // Different spelling, different case, reordered conjuncts —
        // same normalized query, so the cached tree answers.
        let second = s
            .serve("select * from HOMES where PRICE <= 2e5")
            .unwrap();
        assert_eq!(second.outcome, ServeOutcome::TreeCacheHit);
        assert_eq!(first.rendered, second.rendered);
        let (results, trees) = s.cache_sizes();
        assert_eq!((results, trees), (1, 1));
    }

    #[test]
    fn logging_queries_bumps_epoch_and_recomputes() {
        let s = server();
        let sql = "SELECT * FROM homes WHERE price <= 200000";
        s.serve(sql).unwrap();
        assert_eq!(s.serve(sql).unwrap().outcome, ServeOutcome::TreeCacheHit);
        assert_eq!(s.epoch("homes"), Some(0));

        let new = parse_and_normalize(
            "SELECT * FROM homes WHERE bedroomcount IN (4, 5)",
            &schema(),
        )
        .unwrap();
        s.log_queries("homes", vec![new]).unwrap();
        assert_eq!(s.epoch("homes"), Some(1));

        // The cached tree is stale (trees depend on the statistics),
        // but the cached row ids are not: the tree is recomputed from
        // the surviving result entry rather than re-executed.
        let again = s.serve(sql).unwrap();
        assert_eq!(again.outcome, ServeOutcome::ResultCacheHit);
        // And the refreshed entry serves the new epoch.
        assert_eq!(s.serve(sql).unwrap().outcome, ServeOutcome::TreeCacheHit);
    }

    /// The one charge of an answer cached as a tree.
    fn charge(served: &Served) -> usize {
        served.tree.heap_bytes() + served.rendered.len()
    }

    #[test]
    fn a_cached_tree_is_charged_once() {
        let s = server();
        let served = s.serve("SELECT * FROM homes WHERE price <= 300000").unwrap();
        assert_eq!(served.outcome, ServeOutcome::Cold);
        assert!(served.tree.node_count() > 1, "a real tree, not a root");
        assert_eq!(s.cache_sizes(), (1, 1));
        // The tree replaced the rows it was built from: its root slice
        // holds them, and the fingerprint is charged exactly once.
        let (rows, rest) = s.cache_bytes();
        assert_eq!(rows + rest, charge(&served));
        assert_eq!(rows, served.rows * 4);
    }

    #[test]
    fn eviction_respects_byte_budget() {
        let sqls: Vec<String> = (1..=4)
            .map(|lo| format!("SELECT * FROM homes WHERE bedroomcount >= {lo}"))
            .collect();
        // One budget with room for the two smallest trees, not three.
        let charges: Vec<usize> = sqls
            .iter()
            .map(|sql| charge(&server().serve(sql).unwrap()))
            .collect();
        let budget = charges[2] + charges[3];
        let relation = homes(200);
        let prep = PreprocessConfig::new().infer_missing(&relation, 20);
        let s = Server::new(ServerConfig {
            cache_bytes: budget,
            ..ServerConfig::default()
        });
        s.register_table("homes", relation, workload(), prep)
            .unwrap();
        for sql in &sqls {
            s.serve(sql).unwrap();
            let (rows, rest) = s.cache_bytes();
            assert!(rows + rest <= budget, "over budget: {} > {budget}", rows + rest);
        }
        // Each refinement was filtered from the previous answer, which
        // a donation does not keep as a tree: the older trees stepped
        // down to their rows, and the newest answer is still a tree.
        assert_eq!(s.cache_sizes(), (4, 1));
        assert_eq!(s.serve(&sqls[3]).unwrap().outcome, ServeOutcome::TreeCacheHit);
        assert_eq!(s.serve(&sqls[0]).unwrap().outcome, ServeOutcome::ResultCacheHit);
    }

    #[test]
    fn refinement_is_served_by_containment() {
        let s = server();
        let wide = "SELECT * FROM homes WHERE price <= 300000";
        let tight = "SELECT * FROM homes WHERE price <= 250000 AND bedroomcount >= 3";
        assert_eq!(s.serve(wide).unwrap().outcome, ServeOutcome::Cold);
        let refined = s.serve(tight).unwrap();
        assert_eq!(refined.outcome, ServeOutcome::ContainmentHit);
        // Byte-identical to a cold serve of the same SQL.
        let cold = server().serve(tight).unwrap();
        assert_eq!(refined.rendered, cold.rendered);
        assert_eq!(refined.rows, cold.rows);
        // The derived answer was itself cached…
        assert_eq!(s.serve(tight).unwrap().outcome, ServeOutcome::TreeCacheHit);
        // …and can donate to a further refinement in the chain.
        let tighter = "SELECT * FROM homes WHERE price <= 200000 AND bedroomcount >= 3";
        assert_eq!(s.serve(tighter).unwrap().outcome, ServeOutcome::ContainmentHit);
    }

    #[test]
    fn containment_donor_survives_stats_refresh() {
        let s = server();
        s.serve("SELECT * FROM homes WHERE price <= 300000").unwrap();
        let new = parse_and_normalize(
            "SELECT * FROM homes WHERE bedroomcount IN (4, 5)",
            &schema(),
        )
        .unwrap();
        s.log_queries("homes", vec![new]).unwrap();
        // Row ids do not depend on the workload statistics: the donor
        // stays live across the stats refresh and the refinement is a
        // containment hit (only trees went stale).
        assert_eq!(
            s.serve("SELECT * FROM homes WHERE price <= 250000")
                .unwrap()
                .outcome,
            ServeOutcome::ContainmentHit
        );
    }

    #[test]
    fn limited_answers_never_donate() {
        let s = server();
        s.serve("SELECT * FROM homes WHERE price <= 300000 LIMIT 5")
            .unwrap();
        // The truncated answer proves nothing about the refinement.
        assert_eq!(
            s.serve("SELECT * FROM homes WHERE price <= 250000")
                .unwrap()
                .outcome,
            ServeOutcome::Cold
        );
    }

    fn append_row(hood: &str, price: f64, beds: i64) -> Vec<qcat_data::Value> {
        vec![hood.into(), price.into(), beds.into()]
    }

    #[test]
    fn append_makes_new_rows_visible() {
        let s = server();
        let sql = "SELECT * FROM homes WHERE price <= 600000";
        let before = s.serve(sql).unwrap();
        assert_eq!(before.outcome, ServeOutcome::Cold);
        assert_eq!(before.rows, 200);
        assert_eq!(s.generation("homes"), Some(0));

        let outcome = s
            .append_rows("homes", &[append_row("Issaquah", 500_000.0, 2)])
            .unwrap();
        assert_eq!(outcome.generation, 1);
        assert_eq!(outcome.added, 1);
        assert_eq!(s.generation("homes"), Some(1));

        // The cached answer intersected the batch, so it was evicted
        // and the recomputed answer sees the appended row.
        let after = s.serve(sql).unwrap();
        assert_eq!(after.outcome, ServeOutcome::Cold);
        assert_eq!(after.rows, 201);
    }

    #[test]
    fn appends_keep_provably_disjoint_entries() {
        let s = server();
        // Three cached answers: categorical-disjoint, range-disjoint,
        // and one the batch intersects.
        let q_hood = "SELECT * FROM homes WHERE neighborhood IN ('Redmond')";
        let q_low = "SELECT * FROM homes WHERE price <= 160000";
        let q_wide = "SELECT * FROM homes WHERE price <= 600000";
        for sql in [q_hood, q_low, q_wide] {
            assert_eq!(s.serve(sql).unwrap().outcome, ServeOutcome::Cold);
        }

        // The batch is all-Issaquah at a price far above q_low's
        // bound: it can only change q_wide's answer.
        let outcome = s
            .append_rows("homes", &[append_row("Issaquah", 500_000.0, 2)])
            .unwrap();
        assert_eq!(outcome.evicted, 1, "{outcome:?}");
        assert_eq!(outcome.kept, 2, "{outcome:?}");

        // Disjoint entries keep serving their cached trees…
        assert_eq!(s.serve(q_hood).unwrap().outcome, ServeOutcome::TreeCacheHit);
        assert_eq!(s.serve(q_low).unwrap().outcome, ServeOutcome::TreeCacheHit);
        // …and the intersecting one recomputes with the new row.
        let wide = s.serve(q_wide).unwrap();
        assert_eq!(wide.outcome, ServeOutcome::Cold);
        assert_eq!(wide.rows, 201);
    }

    #[test]
    fn condition_free_answers_always_evict_on_append() {
        let s = server();
        let sql = "SELECT * FROM homes";
        assert_eq!(s.serve(sql).unwrap().rows, 200);
        s.append_rows("homes", &[append_row("Redmond", 151_000.0, 3)])
            .unwrap();
        // A query with no conjuncts matches every appended row: no
        // conjunct can prove disjointness, so it must recompute.
        let after = s.serve(sql).unwrap();
        assert_eq!(after.outcome, ServeOutcome::Cold);
        assert_eq!(after.rows, 201);
    }

    #[test]
    fn failed_append_leaves_data_and_caches_intact() {
        let s = server();
        let sql = "SELECT * FROM homes WHERE neighborhood IN ('Redmond')";
        let before = s.serve(sql).unwrap();
        let plan = qcat_fault::FaultPlan::parse("data.append:error").unwrap();
        let err = qcat_fault::with_plan(&plan, || {
            s.append_rows("homes", &[append_row("Kirkland", 1.0, 1)])
                .unwrap_err()
        });
        assert!(matches!(
            err,
            ServeError::Exec(qcat_exec::ExecError::Data(
                qcat_data::DataError::Fault { site: "data.append" }
            ))
        ));
        assert_eq!(s.generation("homes"), Some(0), "generation holds");
        // Nothing became visible and nothing was evicted.
        let after = s.serve(sql).unwrap();
        assert_eq!(after.outcome, ServeOutcome::TreeCacheHit);
        assert_eq!(after.rows, before.rows);
    }

    #[test]
    fn append_to_unregistered_table_errors() {
        let s = server();
        assert!(matches!(
            s.append_rows("cars", &[append_row("x", 1.0, 1)]).unwrap_err(),
            ServeError::UnregisteredTable(t) if t == "cars"
        ));
    }

    #[test]
    fn speculation_precomputes_hot_queries() {
        let s = server();
        let report = s.speculate("homes", &SpeculateConfig::default()).unwrap();
        assert_eq!(report.considered, 4);
        assert_eq!(report.filled, 4, "{report:?}");
        assert!(!report.skipped_busy);
        // Every logged workload query is a tree-cache hit on its
        // first live arrival.
        for sql in [
            "SELECT * FROM homes WHERE neighborhood IN ('Redmond')",
            "SELECT * FROM homes WHERE price BETWEEN 150000 AND 200000",
            "SELECT * FROM homes WHERE neighborhood IN ('Bellevue') AND bedroomcount >= 3",
            "SELECT * FROM homes WHERE price <= 180000",
        ] {
            assert_eq!(
                s.serve(sql).unwrap().outcome,
                ServeOutcome::TreeCacheHit,
                "{sql}"
            );
        }
        // A repeat pass finds everything pinned already.
        let again = s.speculate("homes", &SpeculateConfig::default()).unwrap();
        assert_eq!(again.filled, 0);
        assert_eq!(again.already_cached, 4);
    }

    #[test]
    fn speculation_sees_absorbed_queries() {
        let s = server();
        let sql = "SELECT * FROM homes WHERE bedroomcount IN (4, 5)";
        let absorbed = parse_and_normalize(sql, &schema()).unwrap();
        s.log_queries("homes", vec![absorbed.clone(), absorbed.clone()])
            .unwrap();
        s.log_queries("homes", vec![absorbed]).unwrap();
        // One new distinct query, issued three times across two
        // batches: it outranks every once-logged registration query,
        // so a one-fill pass pins exactly its tree.
        let report = s
            .speculate(
                "homes",
                &SpeculateConfig {
                    max_fills: 1,
                    ..SpeculateConfig::default()
                },
            )
            .unwrap();
        assert_eq!(report.considered, 5, "{report:?}");
        assert_eq!(report.filled, 1, "{report:?}");
        assert_eq!(s.serve(sql).unwrap().outcome, ServeOutcome::TreeCacheHit);
    }

    #[test]
    fn refused_absorb_changes_nothing() {
        let s = server();
        let sql = "SELECT * FROM homes WHERE price <= 200000";
        s.serve(sql).unwrap();
        let considered = s
            .speculate("homes", &SpeculateConfig::default())
            .unwrap()
            .considered;
        let new = parse_and_normalize(
            "SELECT * FROM homes WHERE bedroomcount IN (4, 5)",
            &schema(),
        )
        .unwrap();
        let plan = qcat_fault::FaultPlan::parse("workload.stats.delta:error").unwrap();
        let err = qcat_fault::with_plan(&plan, || s.log_queries("homes", vec![new]).unwrap_err());
        assert!(matches!(
            err,
            qcat_data::DataError::Fault { site: "workload.stats.delta" }
        ));
        // The stats epoch, the cached tree and the logged workload are
        // all as they were before the refused call.
        assert_eq!(s.epoch("homes"), Some(0));
        assert_eq!(s.serve(sql).unwrap().outcome, ServeOutcome::TreeCacheHit);
        let after = s.speculate("homes", &SpeculateConfig::default()).unwrap();
        assert_eq!(after.considered, considered);
    }

    #[test]
    fn speculation_respects_max_fills_and_budget() {
        let s = server();
        let report = s
            .speculate(
                "homes",
                &SpeculateConfig {
                    max_fills: 2,
                    ..SpeculateConfig::default()
                },
            )
            .unwrap();
        assert_eq!(report.filled, 2);
        let (_, trees) = s.cache_sizes();
        assert_eq!(trees, 2);
        // A hopeless budget degrades quietly instead of caching.
        let s2 = server();
        let report = s2
            .speculate(
                "homes",
                &SpeculateConfig {
                    budget: qcat_fault::Budget::UNLIMITED
                        .with_deadline(std::time::Duration::ZERO),
                    ..SpeculateConfig::default()
                },
            )
            .unwrap();
        assert_eq!(report.filled, 0);
        assert_eq!(report.degraded, 4, "{report:?}");
        assert_eq!(s2.cache_sizes(), (0, 0), "degraded fills cache nothing");
    }

    #[test]
    fn speculate_unregistered_table_errors() {
        let s = server();
        assert!(matches!(
            s.speculate("cars", &SpeculateConfig::default()).unwrap_err(),
            ServeError::UnregisteredTable(t) if t == "cars"
        ));
    }

    #[test]
    fn clear_caches_forces_cold() {
        let s = server();
        let sql = "SELECT * FROM homes WHERE neighborhood IN ('Redmond')";
        s.serve(sql).unwrap();
        s.clear_caches();
        assert_eq!(s.cache_sizes(), (0, 0));
        assert_eq!(s.serve(sql).unwrap().outcome, ServeOutcome::Cold);
    }

    #[test]
    fn unregistered_table_is_reported() {
        let s = server();
        let err = s.serve("SELECT * FROM cars WHERE price < 1").unwrap_err();
        assert!(matches!(err, ServeError::UnregisteredTable(t) if t == "cars"));
    }

    #[test]
    fn parse_errors_propagate() {
        let s = server();
        assert!(matches!(
            s.serve("SELEC nonsense").unwrap_err(),
            ServeError::Exec(_)
        ));
    }

    fn budgeted_server(budget: qcat_fault::Budget) -> Server {
        let relation = homes(400);
        let prep = PreprocessConfig::new().infer_missing(&relation, 20);
        let s = Server::new(ServerConfig {
            budget,
            ..ServerConfig::default()
        });
        s.register_table("homes", relation, workload(), prep)
            .unwrap();
        s
    }

    #[test]
    fn expired_deadline_serves_flat_fallback_not_error() {
        let s = budgeted_server(
            qcat_fault::Budget::UNLIMITED.with_deadline(std::time::Duration::ZERO),
        );
        let sql = "SELECT * FROM homes WHERE price <= 400000";
        let served = s.serve(sql).unwrap();
        assert_eq!(
            served.tree.degraded(),
            Some(qcat_core::DegradeReason::Deadline)
        );
        assert_eq!(served.rows, 0, "execution refused: no rows in the fallback");
        assert!(served.rendered.contains("degraded: deadline"), "{}", served.rendered);
        // Degraded answers are never cached; the next serve retries in
        // full (and degrades again under the same hopeless budget).
        assert_eq!(s.cache_sizes(), (0, 0));
        assert_eq!(s.serve(sql).unwrap().outcome, ServeOutcome::Cold);
    }

    #[test]
    fn expired_deadline_degrades_a_containment_fill_at_execution() {
        // Speculation (unbudgeted) caches the Redmond answer, which
        // subsumes the refinement, so the refinement's fill takes the
        // donor path.
        let sql = "SELECT * FROM homes WHERE neighborhood IN ('Redmond') AND price <= 400000";
        let unlimited = budgeted_server(qcat_fault::Budget::UNLIMITED);
        unlimited.speculate("homes", &SpeculateConfig::default()).unwrap();
        assert_eq!(unlimited.serve(sql).unwrap().outcome, ServeOutcome::ContainmentHit);
        // Under an expired deadline the donor execution refuses, like
        // a cold one, and the serve falls back to the empty flat tree.
        let s = budgeted_server(
            qcat_fault::Budget::UNLIMITED.with_deadline(std::time::Duration::ZERO),
        );
        s.speculate("homes", &SpeculateConfig::default()).unwrap();
        let served = s.serve(sql).unwrap();
        assert_eq!(
            served.tree.degraded(),
            Some(qcat_core::DegradeReason::Deadline)
        );
        assert_eq!(served.rows, 0, "execution refused: no rows in the fallback");
        assert_eq!(served.tree.node_count(), 1);
    }

    #[test]
    fn node_cap_degrades_tree_and_skips_tree_cache() {
        // Generous enough for execution, too tight for a full tree.
        let s = budgeted_server(qcat_fault::Budget::UNLIMITED.with_max_nodes(2));
        let sql = "SELECT * FROM homes WHERE price <= 400000";
        let served = s.serve(sql).unwrap();
        assert_eq!(served.outcome, ServeOutcome::Cold);
        assert_eq!(
            served.tree.degraded(),
            Some(qcat_core::DegradeReason::Nodes)
        );
        assert!(served.rows > 0, "execution itself fit the budget");
        // Rows are cached (they are complete); the degraded tree is not.
        assert_eq!(s.cache_sizes(), (1, 0));
        assert_eq!(s.serve(sql).unwrap().outcome, ServeOutcome::ResultCacheHit);
    }

    #[test]
    fn injected_delay_turns_deadline_into_degraded_answer() {
        // Pin the degradation deterministically: the fault point at
        // the categorizer's level boundary sleeps well past the
        // deadline, so the budget trips at the same place at any
        // QCAT_THREADS.
        let s = budgeted_server(
            qcat_fault::Budget::UNLIMITED
                .with_deadline(std::time::Duration::from_millis(25)),
        );
        let plan = qcat_fault::FaultPlan::parse("core.level:delay:ms=200").unwrap();
        let served = qcat_fault::with_plan(&plan, || {
            s.serve("SELECT * FROM homes WHERE price <= 400000")
        })
        .unwrap();
        assert_eq!(
            served.tree.degraded(),
            Some(qcat_core::DegradeReason::Deadline)
        );
        assert!(served.rendered.contains("degraded: deadline"));
        let (_, trees) = s.cache_sizes();
        assert_eq!(trees, 0, "degraded tree must not be cached");
    }

    #[test]
    fn admission_cap_sheds_cold_fills() {
        let relation = homes(200);
        let prep = PreprocessConfig::new().infer_missing(&relation, 20);
        let s = Server::new(ServerConfig {
            max_in_flight: 0,
            ..ServerConfig::default()
        });
        s.register_table("homes", relation, workload(), prep)
            .unwrap();
        let served = s.serve("SELECT * FROM homes WHERE price <= 200000").unwrap();
        assert_eq!(served.outcome, ServeOutcome::Shed);
        assert_eq!(served.tree.degraded(), Some(qcat_core::DegradeReason::Shed));
        assert_eq!(served.rows, 0);
        assert!(served.rendered.contains("degraded: shed"), "{}", served.rendered);
        assert_eq!(s.cache_sizes(), (0, 0), "shed answers are not cached");
    }

    #[test]
    fn injected_fill_fault_is_a_structured_error() {
        let s = server();
        let plan = qcat_fault::FaultPlan::parse("serve.fill:error").unwrap();
        let err = qcat_fault::with_plan(&plan, || {
            s.serve("SELECT * FROM homes WHERE price <= 200000").unwrap_err()
        });
        assert!(matches!(err, ServeError::Fault(f) if f.site == "serve.fill"));
        // The failed fill released its single-flight slot: the same
        // query succeeds immediately afterwards.
        assert_eq!(
            s.serve("SELECT * FROM homes WHERE price <= 200000")
                .unwrap()
                .outcome,
            ServeOutcome::Cold
        );
    }

    #[test]
    fn concurrent_cold_misses_coalesce_onto_one_fill() {
        let s = server();
        let sql = "SELECT * FROM homes WHERE price <= 200000";
        // Slow the fill down so every thread is in flight while the
        // leader computes (the single-flight regression this pins:
        // without coalescing, every thread would execute+categorize).
        let plan = qcat_fault::FaultPlan::parse("serve.fill:delay:ms=200").unwrap();
        let outcomes: Vec<ServeOutcome> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..4)
                .map(|_| {
                    let plan = plan.clone();
                    let s = &s;
                    scope.spawn(move || {
                        qcat_fault::with_plan(&plan, || s.serve(sql).map(|r| r.outcome))
                            .unwrap()
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        let cold = outcomes.iter().filter(|&&o| o == ServeOutcome::Cold).count();
        assert_eq!(cold, 1, "exactly one leader computes: {outcomes:?}");
        assert!(
            outcomes
                .iter()
                .all(|&o| matches!(o, ServeOutcome::Cold
                    | ServeOutcome::Coalesced
                    | ServeOutcome::TreeCacheHit)),
            "{outcomes:?}"
        );
        // One fill cached one answer, as its tree.
        assert_eq!(s.cache_sizes(), (1, 1));
    }
}
