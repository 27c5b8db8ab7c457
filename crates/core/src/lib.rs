#![deny(missing_docs)]

//! Cost-model-driven automatic categorization of query results.
//!
//! This crate is the primary contribution of *Automatic Categorization
//! of Query Results* (Chakrabarti, Chaudhuri, Hwang; SIGMOD 2004):
//! given the result set of a selection query and statistics mined from
//! a workload of past queries, build the labeled hierarchical category
//! tree that minimizes the expected number of items (category labels +
//! tuples) a user must examine.
//!
//! Map from paper to module:
//!
//! | Paper | Module |
//! |---|---|
//! | §3.1 category trees & labels | [`tree`], [`label`] |
//! | §4.1 cost models (Eq. 1 & 2) | [`cost`] |
//! | §4.2 probability estimation | [`probability`] |
//! | §5.1.1 attribute elimination | [`algorithm`] (via `qcat-workload`) |
//! | §5.1.2 categorical partitioning | [`partition::categorical`] |
//! | §5.1.3 numeric splitpoint partitioning | [`partition::numeric`] |
//! | §5.2 multilevel algorithm (Fig. 6) | [`algorithm`] |
//! | §6.1 `No cost` / `Attr-cost` baselines | [`baselines`], [`partition::equiwidth`] |
//! | Appendix A ordering optimality | [`order`] |
//! | §1 reformulation motivation | [`refine`] (extension) |
//! | §1 complementary ranking | [`rank`] (extension) |
//!
//! # Quick start
//!
//! ```
//! use qcat_core::{CategorizeConfig, Categorizer};
//! use qcat_data::{AttrType, Field, RelationBuilder, Schema};
//! use qcat_exec::{execute, ExecOptions};
//! use qcat_sql::parse_and_normalize;
//! use qcat_workload::{PreprocessConfig, WorkloadLog, WorkloadStatistics};
//!
//! // A tiny listing table.
//! let schema = Schema::new(vec![
//!     Field::new("neighborhood", AttrType::Categorical),
//!     Field::new("price", AttrType::Float),
//! ]).unwrap();
//! let mut b = RelationBuilder::new(schema.clone());
//! for i in 0..100i64 {
//!     let n = if i % 3 == 0 { "Redmond" } else { "Bellevue" };
//!     b.push_row(&[n.into(), (200_000.0 + 1_000.0 * i as f64).into()]).unwrap();
//! }
//! let homes = b.finish().unwrap();
//!
//! // A workload of past queries.
//! let log = WorkloadLog::parse(
//!     vec![
//!         "SELECT * FROM homes WHERE neighborhood IN ('Redmond')",
//!         "SELECT * FROM homes WHERE price BETWEEN 200000 AND 250000",
//!         "SELECT * FROM homes WHERE neighborhood IN ('Bellevue') AND price <= 250000",
//!     ].iter().copied(),
//!     &schema,
//!     None,
//! );
//! let prep = PreprocessConfig::new().infer_missing(&homes, 50);
//! let stats = WorkloadStatistics::build(&log, &schema, &prep);
//!
//! // Categorize a broad query's result.
//! let q = parse_and_normalize("SELECT * FROM homes WHERE price >= 200000", &schema).unwrap();
//! let result = execute(&homes, &q, &ExecOptions::default()).unwrap();
//! let config = CategorizeConfig::default().with_max_leaf_tuples(10);
//! let tree = Categorizer::new(&stats, config).categorize(&result, Some(&q));
//! assert!(tree.node_count() > 1);
//! ```

pub mod algorithm;
pub mod baselines;
pub mod config;
pub mod cost;
pub mod float;
pub mod label;
pub mod order;
pub mod partition;
pub mod probability;
pub mod rank;
pub mod refine;
pub mod render;
pub mod tree;

pub use algorithm::{CategorizeTrace, Categorizer, LevelDecision};
pub use baselines::{attr_cost_categorize, no_cost_categorize, BaselineConfig};
pub use config::{BucketCount, CategorizeConfig, OrderingMode};
pub use cost::{cost_all, cost_one, CostReport};
pub use label::{CategoricalCol, CategoryLabel};
pub use probability::{ProbCache, ProbabilityEstimator};
pub use rank::WorkloadRanker;
pub use refine::{refine_query, refined_sql};
pub use render::render_tree;
pub use tree::{CategoryTree, DegradeReason, Node, NodeId, TreeSummary};
