//! Thread-count invariance of the parallel Figure-6 loop.
//!
//! The categorizer fans (candidate × node) pricing across a
//! `qcat_pool::ThreadPool` but reduces costs serially in (candidate,
//! node) order, so the float sums — and therefore every decision the
//! loop makes — must not depend on the worker count. This suite pins
//! that contract end to end through the facade: byte-identical
//! rendered trees and bit-identical `CategorizeTrace` candidate costs
//! at 1, 2, and 8 threads, over the same oversized result sets the
//! benchmark harness measures.
//!
//! Levels are dispatched by work (`qcat_pool::MIN_WORK_PER_WORKER`):
//! light ones run inline even on a wide pool. Every comparison here
//! runs under a metrics-only recorder and checks `pool.tasks`, so the
//! suite proves which path it compared instead of silently comparing
//! serial with serial.

use qcat::core::{render_tree, CategorizeTrace, Categorizer};
use qcat::exec::ResultSet;
use qcat::sql::NormalizedQuery;
use qcat_bench::{bench_env, BenchEnv};

/// One categorization: rendered tree, trace, and the `pool.tasks`
/// count (items handed to pool workers) it produced.
struct Run {
    render: String,
    trace: CategorizeTrace,
    pool_tasks: i64,
}

fn run(b: &BenchEnv, result: &ResultSet, query: Option<&NormalizedQuery>, threads: usize) -> Run {
    let rec = qcat::obs::Recorder::metrics_only();
    let categorizer = Categorizer::new(&b.stats, b.env.config.with_threads(threads));
    let (tree, trace) =
        qcat::obs::with_recorder(&rec, || categorizer.categorize_traced(result, query));
    tree.check_invariants().unwrap();
    Run {
        render: render_tree(&tree, usize::MAX),
        trace,
        pool_tasks: rec.snapshot().counters.get("pool.tasks").copied().unwrap_or(0),
    }
}

/// Byte-identical rendering and bit-identical per-level decisions.
fn assert_same(case: &str, threads: usize, got: &Run, want: &Run) {
    assert_eq!(got.render, want.render, "{case}: rendered tree differs at threads={threads}");
    assert_eq!(
        got.trace.levels.len(),
        want.trace.levels.len(),
        "{case}: level count differs at threads={threads}"
    );
    for (lvl_t, lvl_1) in got.trace.levels.iter().zip(&want.trace.levels) {
        assert_eq!(lvl_t.level, lvl_1.level);
        assert_eq!(
            lvl_t.chosen, lvl_1.chosen,
            "{case} level {}: winner differs at threads={threads}",
            lvl_1.level
        );
        assert_eq!(lvl_t.nodes_partitioned, lvl_1.nodes_partitioned);
        assert_eq!(lvl_t.categories_created, lvl_1.categories_created);
        assert_eq!(lvl_t.candidate_costs.len(), lvl_1.candidate_costs.len());
        for ((attr_t, cost_t), (attr_1, cost_1)) in
            lvl_t.candidate_costs.iter().zip(&lvl_1.candidate_costs)
        {
            assert_eq!(attr_t, attr_1);
            // Bit equality, not approximate: the serial reduction
            // order makes the sums exact.
            assert_eq!(
                cost_t.to_bits(),
                cost_1.to_bits(),
                "{case} level {} attr {attr_1}: cost {cost_t} vs {cost_1} at threads={threads}",
                lvl_1.level
            );
        }
    }
}

/// The first `rows` rows of the whole table, as a result set.
fn table_prefix(b: &BenchEnv, rows: usize) -> ResultSet {
    let relation = b.env.relation.clone();
    let n = rows.min(relation.len());
    ResultSet::new(relation, (0..n as u32).collect(), None)
}

#[test]
fn tree_and_trace_identical_across_thread_counts() {
    let b = bench_env(987, 4);
    assert!(!b.cases.is_empty());
    let whole = table_prefix(&b, usize::MAX);
    let cases = b
        .cases
        .iter()
        .map(|(qw, result)| (result, Some(qw)))
        .chain([(&whole, None)]);
    for threads in [2usize, 8] {
        let mut dispatched = 0;
        for (case_idx, (result, query)) in cases.clone().enumerate() {
            let serial = run(&b, result, query, 1);
            assert_eq!(serial.pool_tasks, 0, "threads=1 never dispatches");
            let wide = run(&b, result, query, threads);
            assert_same(&format!("case {case_idx}"), threads, &wide, &serial);
            dispatched += wide.pool_tasks;
        }
        // The whole table is far above the dispatch threshold, so
        // this comparison exercised pool workers, not two serial runs.
        assert!(dispatched > 0, "no level reached pool workers at threads={threads}");
    }
}

#[test]
fn light_results_run_inline_on_a_wide_pool() {
    let b = bench_env(987, 4);
    let small = table_prefix(&b, 200);
    let serial = run(&b, &small, None, 1);
    assert!(!serial.trace.levels.is_empty(), "the light result must still categorize");
    for threads in [2usize, 8] {
        let wide = run(&b, &small, None, threads);
        assert_eq!(wide.pool_tasks, 0, "a light result dispatched work at threads={threads}");
        assert_same("200-row prefix", threads, &wide, &serial);
    }
}

#[test]
fn mixed_dispatch_levels_are_byte_identical() {
    // Find a result whose root level fans out while every deeper
    // level runs inline: then `pool.tasks` is exactly the root's
    // (candidate × root) partition items, and the tree has more than
    // one level. The root's materialize map has one item, so it never
    // fans out.
    let b = bench_env(987, 4);
    let mixed = (1..=60).map(|k| k * 100).find_map(|rows| {
        let result = table_prefix(&b, rows);
        let wide = run(&b, &result, None, 2);
        let root_items = wide.trace.levels.first()?.candidate_costs.len() as i64;
        (wide.trace.levels.len() >= 2 && wide.pool_tasks == root_items)
            .then_some((rows, result, wide))
    });
    let (rows, result, wide_2) = mixed.expect("no table prefix dispatches only its root level");
    let case = format!("{rows}-row prefix");
    let serial = run(&b, &result, None, 1);
    assert_same(&case, 2, &wide_2, &serial);
    let wide_8 = run(&b, &result, None, 8);
    assert_eq!(
        wide_8.pool_tasks, wide_2.pool_tasks,
        "{case}: dispatch depends on work, not width"
    );
    assert_same(&case, 8, &wide_8, &serial);
}
