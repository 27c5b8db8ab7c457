//! Persisting workload statistics: preprocess once, save the count
//! tables, and reload them at "startup" — the same lifecycle the paper
//! gets by materializing its tables inside the DBMS.
//!
//! ```text
//! cargo run --release --example persist_stats
//! ```

use qcat::core::{cost_all, CategorizeConfig, Categorizer};
use qcat::exec::{execute, ExecOptions};
use qcat::sql::parse_and_normalize;
use qcat::study::{StudyEnv, StudyScale};
use qcat::workload::{load_statistics, save_statistics};
use std::time::Instant;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    eprintln!("generating dataset + preprocessing workload...");
    let t0 = Instant::now();
    let env = StudyEnv::generate(StudyScale::Smoke, 77);
    let stats = env.stats_for(&env.log);
    eprintln!("  preprocessing took {:?}", t0.elapsed());

    // Save.
    let path = std::env::temp_dir().join("qcat_stats.txt");
    let mut file = std::io::BufWriter::new(std::fs::File::create(&path)?);
    save_statistics(&stats, &mut file)?;
    drop(file);
    let bytes = std::fs::metadata(&path)?.len();
    println!(
        "saved statistics over {} queries to {} ({bytes} bytes)",
        stats.n_queries(),
        path.display()
    );

    // Reload ("next process start").
    let t1 = Instant::now();
    let reader = std::io::BufReader::new(std::fs::File::open(&path)?);
    let loaded = load_statistics(reader, env.relation.schema())?;
    println!("reloaded in {:?} — no workload rescan needed", t1.elapsed());

    // Prove the reloaded tables drive identical categorization.
    let sql = "SELECT * FROM listproperty WHERE price BETWEEN 150000 AND 400000";
    let query = parse_and_normalize(sql, env.relation.schema())?;
    let result = execute(&env.relation, &query, &ExecOptions::default())?;
    let config = CategorizeConfig::default().with_attr_threshold(0.3);
    let fresh = Categorizer::new(&stats, config).categorize(&result, Some(&query));
    let revived = Categorizer::new(&loaded, config).categorize(&result, Some(&query));
    assert_eq!(fresh.node_count(), revived.node_count());
    assert_eq!(fresh.level_attrs(), revived.level_attrs());
    assert_eq!(
        cost_all(&fresh, config.label_cost).total(),
        cost_all(&revived, config.label_cost).total()
    );
    println!(
        "fresh and reloaded statistics build identical trees \
         ({} categories, estimated cost {:.0})",
        fresh.node_count() - 1,
        cost_all(&fresh, config.label_cost).total()
    );
    std::fs::remove_file(&path).ok();
    Ok(())
}
