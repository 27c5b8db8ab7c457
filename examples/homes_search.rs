//! The paper's "Homes" query, end to end on generated MSN
//! House&Home-style data: a buyer searches Seattle/Bellevue in the
//! $200K–$300K range, gets thousands of listings, and explores them
//! through the three categorization techniques.
//!
//! ```text
//! cargo run --release --example homes_search
//! ```

use qcat::core::cost_all;
use qcat::exec::{execute, ExecOptions};
use qcat::explore::{actual_cost_all, RelevanceJudge};
use qcat::sql::parse_and_normalize;
use qcat::study::{StudyEnv, StudyScale, Technique};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    eprintln!("generating listings + workload (this takes a few seconds)...");
    let env = StudyEnv::generate(StudyScale::Smoke, 7);
    let schema = env.relation.schema().clone();
    let stats = env.stats_for(&env.log);

    // The Homes query of Section 1, against the Seattle/Bellevue
    // region of the generated geography.
    let seattle = env
        .geography
        .region_of("Bellevue")
        .expect("standard geography")
        .neighborhoods
        .iter()
        .map(|h| format!("'{h}'"))
        .collect::<Vec<_>>()
        .join(", ");
    let sql = format!(
        "SELECT * FROM listproperty WHERE neighborhood IN ({seattle}) \
         AND price BETWEEN 200000 AND 300000"
    );
    let query = parse_and_normalize(&sql, &schema)?;
    let result = execute(&env.relation, &query, &ExecOptions::default())?;
    println!("the \"Homes\" query returns {} listings\n", result.len());

    // A particular buyer's actual interest (narrower than the query).
    let need = parse_and_normalize(
        "SELECT * FROM listproperty WHERE neighborhood IN ('Redmond','Bellevue') \
         AND price BETWEEN 225000 AND 250000 AND bedroomcount BETWEEN 3 AND 4",
        &schema,
    )?;
    let judge = RelevanceJudge::from_query(&need, &env.relation)?;
    let total_relevant = judge.count_relevant(&env.relation, result.rows());
    println!("this buyer actually cares about {total_relevant} of them\n");

    for technique in Technique::ALL {
        let tree = env.categorize(&stats, technique, &result, Some(&query));
        let estimated = cost_all(&tree, env.config.label_cost).total();
        let replay = actual_cost_all(&tree, &need, &judge);
        println!(
            "{:<11}  tree: {:>4} categories, depth {}   estimated cost {:>7.0}   \
             buyer examined {:>5} items to find {} relevant",
            technique.name(),
            tree.node_count() - 1,
            tree.depth(),
            estimated,
            replay.items(),
            replay.relevant_found,
        );
        if technique == Technique::CostBased {
            println!("\ncost-based tree (two levels shown):");
            println!("{}", qcat::core::render_tree(&tree, 1));
        }
    }
    println!(
        "without categorization the buyer examines all {} listings",
        result.len()
    );
    Ok(())
}
