#![deny(missing_docs)]

//! Synthetic MSN House&Home-style data and workload generation.
//!
//! The paper evaluates on a proprietary 1.7 M-row `ListProperty` table
//! and a log of 176,262 real buyer queries. Neither is available, so
//! this crate generates statistical stand-ins at configurable scale
//! (see DESIGN.md for the substitution argument):
//!
//! - [`geography`]: metro regions with Zipf-popular neighborhoods and
//!   region-level price scales (Seattle/Bellevue, Bay Area,
//!   NYC-Manhattan/Bronx, … plus synthetic metros);
//! - [`homes`]: the `listproperty` relation — neighborhood, city,
//!   state, zipcode, price, bedroomcount, bathcount, year_built,
//!   property_type, square_footage — with realistic correlations
//!   (price ~ region × size, bedrooms ~ size, condos smaller);
//! - [`workload`]: SQL query strings whose per-attribute selection
//!   rates follow the shape of the paper's Figure 4(a) (neighborhood >
//!   bedrooms > price > square footage > … ), with grid-aligned price
//!   ranges like real search forms produce;
//! - [`distributions`]: small seeded samplers (Zipf, normal) so
//!   everything is reproducible;
//! - [`rng`]: the first-party SplitMix64/xoshiro256\*\* generator the
//!   samplers draw from (no external RNG crate, so the workspace
//!   builds with no network access);
//! - [`prop`]: the seeded property-test harness the workspace's
//!   randomized suites run on.

#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    reason = "L1: offline generator; its expects guard fixed schemas and non-empty tables"
)]

pub mod distributions;
pub mod geography;
pub mod homes;
pub mod prop;
pub mod rng;
pub mod workload;

pub use geography::{Geography, Region};
pub use homes::{generate_homes, HomesConfig};
pub use rng::Rng;
pub use workload::{generate_workload, WorkloadGenConfig};

use qcat_data::Relation;

/// Generate a matched dataset: homes relation, workload strings, and
/// the geography that links them (needed for query broadening in the
/// studies).
pub fn generate_dataset(
    homes_config: &HomesConfig,
    workload_config: &WorkloadGenConfig,
) -> (Relation, Vec<String>, Geography) {
    let geo = Geography::standard();
    let relation = generate_homes(homes_config, &geo);
    let workload = generate_workload(workload_config, &geo);
    (relation, workload, geo)
}
