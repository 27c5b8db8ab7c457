//! End-to-end observability: run a real categorization under a JSON
//! recorder (the same semantics `QCAT_TRACE=json` installs
//! process-wide), then treat the captured JSONL as evidence — audited
//! by qcat-lint's trace rules (T1–T5) and checked for the Figure-6
//! phase structure the categorizer promises.

use qcat::core::Categorizer;
use qcat::exec::{execute, ExecOptions};
use qcat::obs::{self, json::JsonValue};
use qcat::sql::parse_and_normalize;
use qcat::study::{StudyEnv, StudyScale};
use qcat_lint::audit_trace;

/// Run one end-to-end categorization with a buffered JSON recorder
/// installed and return the drained JSONL.
fn traced_categorization() -> String {
    let env = StudyEnv::generate(StudyScale::Smoke, 909);
    let schema = env.relation.schema().clone();
    let stats = env.stats_for(&env.log);
    let query = parse_and_normalize(
        "SELECT * FROM listproperty WHERE neighborhood IN \
         ('Bellevue','Redmond','Kirkland','Issaquah','Sammamish','Seattle') \
         AND price BETWEEN 150000 AND 500000",
        &schema,
    )
    .expect("query parses");
    let result = execute(&env.relation, &query, &ExecOptions::default()).expect("query executes");
    assert!(
        result.len() > env.config.max_leaf_tuples,
        "result must be large enough to force partitioning: {}",
        result.len()
    );
    let rec = obs::Recorder::buffered();
    obs::with_recorder(&rec, || {
        let tree = Categorizer::new(&stats, env.config).categorize(&result, Some(&query));
        tree.check_invariants().expect("tree invariants");
        assert!(tree.depth() >= 1);
    });
    rec.drain_jsonl()
}

#[test]
fn traced_run_passes_the_lint_trace_audit() {
    let text = traced_categorization();
    assert!(
        text.lines().count() >= 10,
        "a categorization should emit a rich trace:\n{text}"
    );
    let diags = audit_trace("<in-memory>", &text);
    assert!(
        diags.is_empty(),
        "trace audit violations:\n{}",
        diags
            .iter()
            .map(|d| d.to_string())
            .collect::<Vec<_>>()
            .join("\n")
    );
}

#[test]
fn trace_contains_the_figure6_phases_once_per_level() {
    let text = traced_categorization();

    // Reconstruct the span tree from the flat JSONL: one stack of
    // open span names *per thread* (pool workers now open real item
    // spans on their own threads); at each `categorize.level` close,
    // harvest the names of the direct-child spans it contained on its
    // thread.
    let mut stacks: std::collections::BTreeMap<String, Vec<(String, Vec<String>)>> =
        std::collections::BTreeMap::new();
    let mut levels: Vec<Vec<String>> = Vec::new();
    let mut root_opens = 0usize;
    let mut item_spans = 0usize;
    for line in text.lines() {
        let v = obs::json::parse(line).expect("audited JSONL parses");
        let get = |k: &str| v.get(k).and_then(JsonValue::as_str).map(str::to_string);
        let kind = get("kind").expect("kind");
        let name = get("name").expect("name");
        let thread = get("thread").expect("thread");
        let stack = stacks.entry(thread).or_default();
        match kind.as_str() {
            "span_open" => {
                if name == "categorize" {
                    root_opens += 1;
                }
                if name.ends_with(".item") {
                    item_spans += 1;
                }
                stack.push((name, Vec::new()));
            }
            "span_close" => {
                let (closed, children) = stack.pop().expect("balanced trace");
                assert_eq!(closed, name, "LIFO close order");
                if let Some((_, parent_children)) = stack.last_mut() {
                    parent_children.push(closed.clone());
                }
                if closed == "categorize.level" {
                    levels.push(
                        children
                            .into_iter()
                            .filter(|c| {
                                c.starts_with("categorize.level.") && !c.ends_with(".item")
                            })
                            .collect(),
                    );
                }
            }
            _ => {}
        }
    }
    for (thread, stack) in &stacks {
        assert!(stack.is_empty(), "spans left open on {thread}: {stack:?}");
    }
    assert!(
        item_spans > 0,
        "partition/materialize work items must open real spans"
    );
    assert_eq!(root_opens, 1, "exactly one categorize root span");
    assert!(!levels.is_empty(), "no categorize.level spans in trace");

    // Every completed level runs the Figure-6 phases in order, each
    // exactly once. The final level may stop after elimination (when
    // nothing is oversized or no candidate attribute remains).
    const PHASES: [&str; 4] = [
        "categorize.level.eliminate",
        "categorize.level.partition",
        "categorize.level.cost",
        "categorize.level.select",
    ];
    let (last, completed) = levels.split_last().expect("nonempty");
    for (i, phases) in completed.iter().enumerate() {
        assert_eq!(phases, &PHASES, "level {i} phases");
    }
    assert!(
        last == &PHASES || last == &PHASES[..1],
        "trailing level must be complete or stop after elimination: {last:?}"
    );
    assert!(
        completed.len() + 1 == levels.len(),
        "sanity: split_last partitions the levels"
    );
}
