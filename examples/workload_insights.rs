//! Inspect what the workload preprocessor mines from a query log: the
//! AttributeUsageCounts table, per-value occurrence counts, and the
//! splitpoint goodness landscape (the tables of the paper's
//! Figures 4 and 5).
//!
//! ```text
//! cargo run --release --example workload_insights
//! ```

use qcat::core::Categorizer;
use qcat::exec::{execute, ExecOptions};
use qcat::sql::parse_and_normalize;
use qcat::study::{StudyEnv, StudyScale};

fn main() {
    let env = StudyEnv::generate(StudyScale::Smoke, 99);
    let schema = env.relation.schema().clone();
    let stats = env.stats_for(&env.log);

    println!(
        "workload: {} queries over `listproperty`\n",
        stats.n_queries()
    );

    // Figure 4(a): AttributeUsageCounts.
    println!("AttributeUsageCounts (NAttr):");
    let mut rows: Vec<(String, usize, f64)> = schema
        .attr_ids()
        .map(|a| {
            (
                schema.name_of(a).to_string(),
                stats.n_attr(a),
                stats.usage_fraction(a),
            )
        })
        .collect();
    rows.sort_by_key(|r| std::cmp::Reverse(r.1));
    for (name, n, frac) in &rows {
        println!("  {name:<16} {n:>6}  ({:>5.1}%)", frac * 100.0);
    }
    let retained = stats.retained_attrs(0.4);
    println!(
        "\nattribute elimination at x=0.40 retains {} attributes: {}",
        retained.len(),
        retained
            .iter()
            .map(|&a| schema.name_of(a))
            .collect::<Vec<_>>()
            .join(", ")
    );

    // Figure 4(b): OccurrenceCounts for neighborhood.
    let nb = schema.resolve("neighborhood").expect("attr");
    println!("\ntop neighborhoods by occurrence count occ(v):");
    for (value, count) in stats.values_by_occurrence(nb).iter().take(8) {
        println!("  {value:<20} {count:>6}");
    }

    // Figure 5(b): the splitpoint table for price.
    let price = schema.resolve("price").expect("attr");
    let table = stats
        .splitpoint_table(price)
        .expect("price has a separation interval");
    println!(
        "\nprice splitpoints (interval {}), top goodness in (150K, 600K):",
        table.interval()
    );
    for sp in table.by_goodness(150_000.0, 600_000.0).iter().take(10) {
        println!(
            "  v={:>8}  start={:>5}  end={:>5}  goodness={:>6}",
            sp.value,
            sp.start,
            sp.end,
            sp.goodness()
        );
    }

    // The Figure-6 loop's decisions, explained.
    let sql = "SELECT * FROM listproperty WHERE neighborhood IN \
               ('Bellevue','Redmond','Kirkland','Issaquah') AND price BETWEEN 150000 AND 600000";
    let query = parse_and_normalize(sql, &schema).expect("valid SQL");
    let result = execute(&env.relation, &query, &ExecOptions::default()).expect("query runs");
    let config = env.config.with_attr_threshold(0.4);
    let (_, trace) = Categorizer::new(&stats, config).categorize_traced(&result, Some(&query));
    println!(
        "\ncategorization decisions for a broad Seattle query ({} rows):",
        result.len()
    );
    print!("{}", trace.render(&schema));
}
