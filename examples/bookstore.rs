//! Domain independence: the categorizer on a bookstore catalog.
//!
//! The paper stresses that its approach is "general and presents a
//! domain-independent approach to addressing the information overload
//! problem" — nothing in the pipeline knows about homes. This example
//! builds a completely different schema (books: genre, author-tier,
//! price, pages, year, format), a matching workload, and categorizes a
//! broad search.
//!
//! ```text
//! cargo run --release --example bookstore
//! ```

use qcat::core::{cost_all, CategorizeConfig, Categorizer};
use qcat::data::{AttrType, Field, Relation, RelationBuilder, Schema};
use qcat::exec::{execute, ExecOptions};
use qcat::explore::{actual_cost_all, RelevanceJudge};
use qcat::sql::parse_and_normalize;
use qcat::workload::{PreprocessConfig, WorkloadLog, WorkloadStatistics};
use qcat::datagen::rng::Rng;

const GENRES: [&str; 8] = [
    "Mystery",
    "Science Fiction",
    "Romance",
    "History",
    "Biography",
    "Fantasy",
    "Self-Help",
    "Cooking",
];
const FORMATS: [&str; 3] = ["Paperback", "Hardcover", "Ebook"];

fn schema() -> Schema {
    Schema::new(vec![
        Field::new("genre", AttrType::Categorical),
        Field::new("format", AttrType::Categorical),
        Field::new("price", AttrType::Float),
        Field::new("pages", AttrType::Int),
        Field::new("year", AttrType::Int),
    ])
    .expect("static schema")
}

fn generate_books(n: usize, seed: u64) -> Relation {
    let mut rng = Rng::seed_from_u64(seed);
    let mut b = RelationBuilder::with_capacity(schema(), n);
    for _ in 0..n {
        // Genre popularity is skewed; price depends on format.
        let g = (rng.gen_f64().powi(2) * GENRES.len() as f64) as usize;
        let genre = GENRES[g.min(GENRES.len() - 1)];
        let format = FORMATS[rng.gen_range(0..FORMATS.len())];
        let base = match format {
            "Hardcover" => 28.0,
            "Paperback" => 14.0,
            _ => 9.0,
        };
        let price: f64 = (base + rng.gen_range(-4.0..18.0f64)).max(2.0);
        let price = (price * 100.0).round() / 100.0;
        let pages = rng.gen_range(120..900i32);
        let year = rng.gen_range(1975..=2004i32);
        b.push_row(&[
            genre.into(),
            format.into(),
            price.into(),
            i64::from(pages).into(),
            i64::from(year).into(),
        ])
        .expect("row matches schema");
    }
    b.finish().expect("columns in lockstep")
}

fn generate_workload(n: usize, seed: u64) -> Vec<String> {
    let mut rng = Rng::seed_from_u64(seed);
    (0..n)
        .map(|_| {
            let mut conds = Vec::new();
            if rng.gen_bool(0.7) {
                let g = (rng.gen_f64().powi(2) * GENRES.len() as f64) as usize;
                conds.push(format!("genre IN ('{}')", GENRES[g.min(GENRES.len() - 1)]));
            }
            if rng.gen_bool(0.55) {
                let lo = rng.gen_range(0..6i32) * 5;
                conds.push(format!("price BETWEEN {lo} AND {}", lo + 10));
            }
            if rng.gen_bool(0.35) {
                conds.push(format!("format IN ('{}')", FORMATS[rng.gen_range(0..3usize)]));
            }
            if rng.gen_bool(0.25) {
                let y = 1975 + rng.gen_range(0..6i32) * 5;
                conds.push(format!("year >= {y}"));
            }
            if conds.is_empty() {
                conds.push("genre IN ('Mystery')".to_string());
            }
            format!("SELECT * FROM books WHERE {}", conds.join(" AND "))
        })
        .collect()
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let books = generate_books(30_000, 11);
    let workload = generate_workload(4_000, 12);
    let s = schema();
    let log = WorkloadLog::parse(workload.iter().map(String::as_str), &s, Some("books"));
    let prep = PreprocessConfig::new()
        .with_interval(s.resolve("price")?, 5.0)
        .with_interval(s.resolve("pages")?, 50.0)
        .with_interval(s.resolve("year")?, 5.0);
    let stats = WorkloadStatistics::build(&log, &s, &prep);

    // A reader browses everything under $30.
    let sql = "SELECT * FROM books WHERE price BETWEEN 0 AND 30";
    let query = parse_and_normalize(sql, &s)?;
    let result = execute(&books, &query, &ExecOptions::default())?;
    println!("query: {sql}");
    println!(
        "{} books match — overload again, different domain\n",
        result.len()
    );

    let config = CategorizeConfig::default()
        .with_attr_threshold(0.2)
        .with_max_leaf_tuples(25);
    let tree = Categorizer::new(&stats, config).categorize(&result, Some(&query));
    println!("{}", qcat::core::render_tree(&tree, 1));
    println!(
        "tree: {} categories, depth {}, estimated cost {:.0} (vs {} unscanned)",
        tree.node_count() - 1,
        tree.depth(),
        cost_all(&tree, config.label_cost).total(),
        result.len()
    );

    // One reader's actual session: cheap sci-fi paperbacks.
    let need = parse_and_normalize(
        "SELECT * FROM books WHERE genre IN ('Science Fiction') \
         AND format IN ('Paperback') AND price BETWEEN 5 AND 15",
        &s,
    )?;
    let judge = RelevanceJudge::from_query(&need, &books)?;
    let replay = actual_cost_all(&tree, &need, &judge);
    println!(
        "\na sci-fi reader examined {} items to find all {} relevant books \
         (scan would cost {})",
        replay.items(),
        replay.relevant_found,
        result.len()
    );
    Ok(())
}
