//! PR-9 pinning tests: subsumption-aware answer caching must be
//! invisible in the output. A refinement served off a cached superset
//! answer (ContainmentHit) renders byte-identically to a cold serve
//! of the same SQL, across access paths and thread counts, through
//! every edge shape (empty residual, all-rows-eliminated residual,
//! degenerate point ranges, stale donors), and under a fault storm
//! with concurrent speculation.

use qcat::core::NodeId;
use qcat::fault::FaultPlan;
use qcat::serve::{ServeOutcome, Served, Server, ServerConfig, SpeculateConfig};
use qcat::study::{StudyEnv, StudyScale};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::thread;

fn env() -> StudyEnv {
    StudyEnv::generate(StudyScale::Smoke, 9001)
}

fn server_for(env: &StudyEnv) -> Server {
    let mut config = ServerConfig::default();
    config.categorize = env.config;
    let server = Server::new(config);
    server
        .register_table(
            "listproperty",
            env.relation.clone(),
            env.log.clone(),
            env.prep.clone(),
        )
        .unwrap();
    server
}

/// Cold-serve `sql` on a throwaway server: the containment-free
/// reference answer.
fn cold_reference(env: &StudyEnv, sql: &str) -> Served {
    let server = server_for(env);
    let served = server.serve(sql).unwrap();
    assert_eq!(served.outcome, ServeOutcome::Cold, "reference must be cold");
    served
}

/// A drill-down chain: each query adds one conjunct, so every prefix
/// subsumes every extension.
const CHAIN: &[&str] = &[
    "SELECT * FROM listproperty WHERE price BETWEEN 100000 AND 700000",
    "SELECT * FROM listproperty WHERE price BETWEEN 100000 AND 700000 \
     AND bedroomcount >= 2",
    "SELECT * FROM listproperty WHERE price BETWEEN 100000 AND 700000 \
     AND bedroomcount >= 2 AND neighborhood IN \
     ('Bellevue','Redmond','Kirkland','Issaquah')",
    "SELECT * FROM listproperty WHERE price BETWEEN 100000 AND 700000 \
     AND bedroomcount >= 2 AND neighborhood IN \
     ('Bellevue','Redmond','Kirkland','Issaquah') AND bathcount >= 2",
];

/// The tentpole guarantee: every refinement in the chain is a
/// containment hit on the warm server, and its rendering is
/// byte-identical to a cold serve of the same SQL on a fresh server.
#[test]
fn containment_hits_match_cold_serves_byte_for_byte() {
    let env = env();
    let server = server_for(&env);
    for (i, sql) in CHAIN.iter().enumerate() {
        let served = server.serve(sql).unwrap();
        if i == 0 {
            assert_eq!(served.outcome, ServeOutcome::Cold);
        } else {
            assert_eq!(
                served.outcome,
                ServeOutcome::ContainmentHit,
                "step {i} should be answered by the previous step's rows"
            );
        }
        let reference = cold_reference(&env, sql);
        assert_eq!(
            served.rendered, reference.rendered,
            "containment rendering diverged from cold at step {i}"
        );
        assert_eq!(served.rows, reference.rows);
    }
}

/// The same chain, hammered by 1, 2, and 8 threads concurrently on a
/// shared warm server: whatever mix of cold, containment, coalesced
/// and cached outcomes each thread sees, every answer is
/// byte-identical to the cold reference.
#[test]
fn containment_is_deterministic_across_thread_counts() {
    let env = env();
    let references: Vec<Served> =
        CHAIN.iter().map(|sql| cold_reference(&env, sql)).collect();
    for threads in [1usize, 2, 8] {
        let server = server_for(&env);
        thread::scope(|s| {
            for t in 0..threads {
                let (server, references) = (&server, &references);
                s.spawn(move || {
                    for round in 0..4 {
                        for (i, sql) in CHAIN.iter().enumerate() {
                            // Stagger the walk per thread so donors
                            // race their own refinements.
                            let i = (i + t + round) % CHAIN.len();
                            let served = server.serve(CHAIN[i]).unwrap();
                            assert_eq!(
                                served.rendered, references[i].rendered,
                                "thread {t} diverged on step {i} ({sql})"
                            );
                        }
                    }
                });
            }
        });
    }
}

/// Empty residual: a refinement that keeps the donor's conjuncts
/// verbatim but asks for a different ORDER BY has a different
/// fingerprint, is provably subsumed, and leaves *no* residual
/// conjuncts — the containment path must still re-sort and render
/// exactly what a cold serve produces.
#[test]
fn empty_residual_reorders_the_donor_rows() {
    let env = env();
    let server = server_for(&env);
    let donor = "SELECT * FROM listproperty WHERE price BETWEEN 150000 AND 600000";
    let tight = "SELECT * FROM listproperty WHERE price BETWEEN 150000 AND 600000 \
                 ORDER BY price DESC";
    assert_eq!(server.serve(donor).unwrap().outcome, ServeOutcome::Cold);
    let served = server.serve(tight).unwrap();
    assert_eq!(served.outcome, ServeOutcome::ContainmentHit);
    let reference = cold_reference(&env, tight);
    assert_eq!(served.rendered, reference.rendered);
    assert_eq!(served.rows, reference.rows);
}

/// Residual that eliminates every donor row: the containment path
/// must produce the empty categorization, byte-identical to a cold
/// serve of the same (empty) query.
#[test]
fn residual_eliminating_all_rows_matches_cold() {
    let env = env();
    let server = server_for(&env);
    let donor = "SELECT * FROM listproperty WHERE price BETWEEN 150000 AND 600000";
    let tight = "SELECT * FROM listproperty WHERE price BETWEEN 150000 AND 600000 \
                 AND bedroomcount >= 99";
    assert_eq!(server.serve(donor).unwrap().outcome, ServeOutcome::Cold);
    let served = server.serve(tight).unwrap();
    assert_eq!(served.outcome, ServeOutcome::ContainmentHit);
    assert_eq!(served.rows, 0, "99-bedroom mansions should not exist");
    let reference = cold_reference(&env, tight);
    assert_eq!(served.rendered, reference.rendered);
}

/// Degenerate point range: refining with `price BETWEEN v AND v`
/// (contained in the donor's range) is still a containment hit and
/// still byte-identical to cold.
#[test]
fn point_range_refinement_is_contained() {
    let env = env();
    let server = server_for(&env);
    let donor = "SELECT * FROM listproperty WHERE price BETWEEN 100000 AND 900000";
    assert_eq!(server.serve(donor).unwrap().outcome, ServeOutcome::Cold);
    // Pick a price that actually occurs so the point query is
    // non-empty for at least one of the two probes.
    let tight = "SELECT * FROM listproperty WHERE price BETWEEN 250000 AND 250000";
    let served = server.serve(tight).unwrap();
    assert_eq!(served.outcome, ServeOutcome::ContainmentHit);
    let reference = cold_reference(&env, tight);
    assert_eq!(served.rendered, reference.rendered);
    assert_eq!(served.rows, reference.rows);
}

/// Stats refreshes are surgical: a workload append rebuilds the
/// statistics — staling every cached *tree*, which depends on them —
/// but the rows those trees hold (donors included) do not depend on
/// the workload and keep serving. The refinement repeats as a
/// result-cache hit whose tree is re-rendered from the surviving
/// rows, and with an unchanged log the bytes must not change; the
/// surviving donor keeps answering fresh refinements.
#[test]
fn donors_survive_a_stats_refresh_byte_identically() {
    let env = env();
    let server = server_for(&env);
    let donor = "SELECT * FROM listproperty WHERE price BETWEEN 100000 AND 700000";
    let tight = "SELECT * FROM listproperty WHERE price BETWEEN 100000 AND 700000 \
                 AND bedroomcount >= 2";
    assert_eq!(server.serve(donor).unwrap().outcome, ServeOutcome::Cold);
    let before = server.serve(tight).unwrap();
    assert_eq!(before.outcome, ServeOutcome::ContainmentHit);

    // Empty append: statistics are rebuilt from the same log, so the
    // stats epoch moves (trees stale) while the data is untouched
    // (result sets live).
    let epoch_before = server.epoch("listproperty").unwrap();
    server.log_queries("listproperty", Vec::new()).unwrap();
    assert!(server.epoch("listproperty").unwrap() > epoch_before);

    let after = server.serve(tight).unwrap();
    assert_eq!(
        after.outcome,
        ServeOutcome::ResultCacheHit,
        "the cached rows survive the stats refresh; only the tree recomputes"
    );
    assert_eq!(before.rendered, after.rendered);

    // The donor also survived: a never-seen refinement still answers
    // by containment, byte-identical to a cold server with the same
    // (unchanged) log.
    let tighter = "SELECT * FROM listproperty WHERE price BETWEEN 100000 AND 700000 \
                   AND bedroomcount >= 3";
    let served = server.serve(tighter).unwrap();
    assert_eq!(served.outcome, ServeOutcome::ContainmentHit);
    let reference = cold_reference(&env, tighter);
    assert_eq!(served.rendered, reference.rendered);
    assert_eq!(served.rows, reference.rows);
}

/// A cached tree holds its answer's rows once, grouped by category,
/// and keeps donating them after a stats refresh stops it being
/// served. On a multi-segment table with a multi-level tree the
/// donor slice is not in table order; the refinement must still be a
/// containment hit, byte-identical to a cleared-cache cold serve.
#[test]
fn stale_trees_donate_their_grouped_rows_byte_identically() {
    let env = env();
    let sharded = env.relation.resharded(512).unwrap();
    assert!(sharded.shards().shard_count() > 4);
    let mut config = ServerConfig::default();
    config.categorize = env.config;
    let server = Server::new(config);
    server
        .register_table("listproperty", sharded, env.log.clone(), env.prep.clone())
        .unwrap();

    let broad = server.serve(CHAIN[0]).unwrap();
    assert_eq!(broad.outcome, ServeOutcome::Cold);
    assert!(broad.tree.depth() >= 2, "a multi-level tree");
    assert!(
        !broad.tree.tuples(NodeId::ROOT).is_sorted(),
        "the donor slice is grouped by category, not in table order"
    );

    server.log_queries("listproperty", Vec::new()).unwrap();
    assert_eq!(server.cache_sizes(), (1, 0), "resident, no longer servable");
    let refined = server.serve(CHAIN[1]).unwrap();
    assert_eq!(refined.outcome, ServeOutcome::ContainmentHit);
    server.clear_caches();
    let cold = server.serve(CHAIN[1]).unwrap();
    assert_eq!(cold.outcome, ServeOutcome::Cold);
    assert_eq!(refined.rendered, cold.rendered);
    assert_eq!(refined.rows, cold.rows);
}

/// Limited answers must never donate: a LIMIT query's cached rows are
/// a truncation, so a refinement that would be subsumed by its
/// predicate alone has to recompute.
#[test]
fn limited_donors_are_refused() {
    let env = env();
    let server = server_for(&env);
    let donor = "SELECT * FROM listproperty WHERE price BETWEEN 100000 AND 700000 LIMIT 10";
    let tight = "SELECT * FROM listproperty WHERE price BETWEEN 100000 AND 700000 \
                 AND bedroomcount >= 2";
    assert_eq!(server.serve(donor).unwrap().outcome, ServeOutcome::Cold);
    let served = server.serve(tight).unwrap();
    assert_eq!(served.outcome, ServeOutcome::Cold);
    let reference = cold_reference(&env, tight);
    assert_eq!(served.rendered, reference.rendered);
}

/// Speculation racing live traffic of the same queries: both go
/// through the same single-flight map, so nothing wedges, and every
/// live answer is byte-identical to the cold reference. The pass
/// itself must account for every hot query it considered.
#[test]
fn speculation_races_live_serves_without_diverging() {
    let env = env();
    let server = server_for(&env);
    let references: Vec<Served> =
        CHAIN.iter().map(|sql| cold_reference(&env, sql)).collect();
    let live_serves = AtomicUsize::new(0);
    thread::scope(|s| {
        for t in 0..4usize {
            let (server, references, live_serves) = (&server, &references, &live_serves);
            s.spawn(move || {
                for round in 0..6 {
                    let i = (t + round) % CHAIN.len();
                    let served = server.serve(CHAIN[i]).unwrap();
                    assert_eq!(
                        served.rendered, references[i].rendered,
                        "live serve diverged under speculation"
                    );
                    live_serves.fetch_add(1, Ordering::Relaxed);
                }
            });
        }
        // Speculate concurrently: passes may be skipped busy (live
        // traffic wins), coalesce onto live fills, or fill — all are
        // legal; wedging or diverging is not.
        let server = &server;
        s.spawn(move || {
            for _ in 0..6 {
                let report = server
                    .speculate("listproperty", &SpeculateConfig::default())
                    .unwrap();
                let accounted = report.already_cached
                    + report.filled
                    + report.degraded
                    + report.coalesced
                    + report.failed;
                assert!(
                    accounted <= report.considered,
                    "speculation over-accounted: {report:?}"
                );
            }
        });
    });
    assert_eq!(live_serves.load(Ordering::Relaxed), 24);
    // Quiesced: the chain still answers byte-identically.
    for (i, sql) in CHAIN.iter().enumerate() {
        let served = server.serve(sql).unwrap();
        assert_eq!(served.rendered, references[i].rendered, "post-race step {i}");
    }
}

/// Silence only the panics the fault injector itself raises; genuine
/// panics still print through the previous hook.
fn mute_injected_panics() {
    let prev = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let payload = info
            .payload()
            .downcast_ref::<String>()
            .map(String::as_str)
            .or_else(|| info.payload().downcast_ref::<&str>().copied())
            .unwrap_or("");
        if !payload.contains("injected fault panic") {
            prev(info);
        }
    }));
}

/// Chaos: a QCAT_FAULT-style storm over the containment-relevant
/// fault points (pool.task, serve.fill, exec.residual) while
/// speculation passes run concurrently. The server must never wedge,
/// and once the storm stops it must recompute the whole chain
/// byte-identically — including fresh containment hits.
#[test]
fn fault_storm_with_speculation_recovers_byte_identical_answers() {
    mute_injected_panics();
    let env = env();
    let references: Vec<Served> =
        CHAIN.iter().map(|sql| cold_reference(&env, sql)).collect();
    let server = server_for(&env);
    let answered = AtomicUsize::new(0);
    let errored = AtomicUsize::new(0);
    thread::scope(|s| {
        for t in 0..6usize {
            let (server, answered, errored) = (&server, &answered, &errored);
            s.spawn(move || {
                let plan = match t % 3 {
                    0 => Some(format!(
                        "exec.residual:error:p=0.5:seed={t};pool.task:error:p=0.2:seed={t}"
                    )),
                    1 => Some(format!(
                        "serve.fill:error:p=0.4:seed={t};exec.residual:delay:ms=1"
                    )),
                    _ => None,
                };
                let plan = plan.map(|spec| FaultPlan::parse(&spec).unwrap());
                for round in 0..8 {
                    let sql = CHAIN[(t + round) % CHAIN.len()];
                    let serve_once = || match server.serve(sql) {
                        Ok(served) => {
                            assert!(!served.rendered.is_empty());
                            answered.fetch_add(1, Ordering::Relaxed);
                        }
                        Err(e) => {
                            assert!(!e.to_string().is_empty());
                            errored.fetch_add(1, Ordering::Relaxed);
                        }
                    };
                    match &plan {
                        Some(p) => qcat::fault::with_plan(p, serve_once),
                        None => serve_once(),
                    }
                }
            });
        }
        // Speculation churns through the storm on its own threads; a
        // failed or degraded speculative fill must stay invisible.
        let server = &server;
        s.spawn(move || {
            let plan = FaultPlan::parse("pool.task:error:p=0.3:seed=99").unwrap();
            for _ in 0..4 {
                qcat::fault::with_plan(&plan, || {
                    let _ = server
                        .speculate("listproperty", &SpeculateConfig::default())
                        .unwrap();
                });
            }
        });
    });
    assert!(
        answered.load(Ordering::Relaxed) + errored.load(Ordering::Relaxed) == 48,
        "every storm request must resolve"
    );

    // Quiesce, drop every possibly-degraded cache entry, and replay
    // the chain: cold head, containment refinements, all
    // byte-identical to the pre-storm references.
    server.clear_caches();
    for (i, sql) in CHAIN.iter().enumerate() {
        let served = server.serve(sql).unwrap();
        if i == 0 {
            assert_eq!(served.outcome, ServeOutcome::Cold);
        } else {
            assert_eq!(served.outcome, ServeOutcome::ContainmentHit);
        }
        assert_eq!(
            served.rendered, references[i].rendered,
            "post-storm recomputation diverged at step {i}"
        );
    }
}
