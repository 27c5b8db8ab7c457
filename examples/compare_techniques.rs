//! Head-to-head comparison of the three categorization techniques
//! over a batch of broadened workload queries — a miniature of the
//! paper's Figure 8 experiment, printed per query.
//!
//! ```text
//! cargo run --release --example compare_techniques
//! ```

use qcat::core::cost_all;
use qcat::exec::{execute, ExecOptions};
use qcat::explore::{actual_cost_all, RelevanceJudge};
use qcat::study::{broaden_query, StudyEnv, StudyScale, Technique};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    eprintln!("generating dataset...");
    let env = StudyEnv::generate(StudyScale::Smoke, 5);
    let schema = env.relation.schema().clone();
    let stats = env.stats_for(&env.log);

    println!(
        "{:<6} {:>8}  {:>22}  {:>22}  {:>22}",
        "query", "result", "Cost-based", "Attr-cost", "No cost"
    );
    println!(
        "{:<6} {:>8}  {:>22}  {:>22}  {:>22}",
        "", "size", "(actual / estimated)", "(actual / estimated)", "(actual / estimated)"
    );

    let mut shown = 0;
    let mut sums = [0.0f64; 3];
    for w in env.log.queries() {
        if shown >= 12 {
            break;
        }
        if w.conditions.len() < 2 {
            continue;
        }
        let Some(qw) = broaden_query(w, &schema, &env.geography) else {
            continue;
        };
        let result = execute(&env.relation, &qw, &ExecOptions::default())?;
        if result.len() <= env.config.max_leaf_tuples {
            continue;
        }
        let judge = RelevanceJudge::from_query(w, &env.relation)?;
        let mut cells = Vec::new();
        for (i, technique) in Technique::ALL.iter().enumerate() {
            let tree = env.categorize(&stats, *technique, &result, Some(&qw));
            let estimated = cost_all(&tree, env.config.label_cost).total();
            let actual = actual_cost_all(&tree, w, &judge).items();
            sums[i] += actual as f64 / result.len() as f64;
            cells.push(format!("{actual:>8} / {estimated:>9.0}"));
        }
        shown += 1;
        println!(
            "{:<6} {:>8}  {:>22}  {:>22}  {:>22}",
            format!("W{shown}"),
            result.len(),
            cells[0],
            cells[1],
            cells[2]
        );
    }
    if shown > 0 {
        println!(
            "\nmean fractional cost over {shown} queries: cost-based {:.3}, \
             attr-cost {:.3}, no-cost {:.3}",
            sums[0] / shown as f64,
            sums[1] / shown as f64,
            sums[2] / shown as f64
        );
    }
    Ok(())
}
