//! Quickstart: load a tiny table, mine a workload, categorize a query
//! result, and print the tree.
//!
//! ```text
//! cargo run --example quickstart
//! ```

use qcat::core::{CategorizeConfig, Categorizer};
use qcat::data::{AttrType, Catalog, Field, RelationBuilder, Schema};
use qcat::exec::execute_sql;
use qcat::sql::parse_and_normalize;
use qcat::workload::{PreprocessConfig, WorkloadLog, WorkloadStatistics};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. A small home-listing table.
    let schema = Schema::new(vec![
        Field::new("neighborhood", AttrType::Categorical),
        Field::new("price", AttrType::Float),
        Field::new("bedroomcount", AttrType::Int),
    ])?;
    let mut builder = RelationBuilder::new(schema.clone());
    let hoods = ["Redmond", "Bellevue", "Issaquah", "Sammamish", "Seattle"];
    for i in 0..500i64 {
        builder.push_row(&[
            hoods[(i % 5) as usize].into(),
            (200_000.0 + (i as f64 * 7_919.0) % 100_000.0).into(),
            (i % 5 + 1).into(),
        ])?;
    }
    let homes = builder.finish()?;
    let catalog = Catalog::new();
    catalog.register("homes", homes.clone())?;

    // 2. A workload of past searches (normally read from a query log).
    let mut past = Vec::new();
    for i in 0..40 {
        past.push(format!(
            "SELECT * FROM homes WHERE neighborhood IN ('{}')",
            hoods[i % 3]
        ));
        let lo = 200_000 + (i % 8) * 10_000;
        past.push(format!(
            "SELECT * FROM homes WHERE price BETWEEN {lo} AND {}",
            lo + 25_000
        ));
    }
    let log = WorkloadLog::parse(past.iter().map(String::as_str), &schema, Some("homes"));
    let prep = PreprocessConfig::new().infer_missing(&homes, 100);
    let stats = WorkloadStatistics::build(&log, &schema, &prep);

    // 3. A broad user query that returns too many answers.
    let sql = "SELECT * FROM homes WHERE price BETWEEN 200000 AND 300000";
    let result = execute_sql(&catalog, sql)?;
    println!("query: {sql}");
    println!("result: {} homes — information overload!\n", result.len());

    // 4. Categorize and display.
    let query = parse_and_normalize(sql, &schema)?;
    let config = CategorizeConfig::default().with_attr_threshold(0.2);
    let tree = Categorizer::new(&stats, config).categorize(&result, Some(&query));
    println!("{}", qcat::core::render_tree(&tree, 2));

    // 5. What would the user pay, on average?
    let cost = qcat::core::cost_all(&tree, config.label_cost).total();
    println!(
        "estimated exploration cost: {cost:.0} items (vs {} without categorization)",
        result.len()
    );
    Ok(())
}
