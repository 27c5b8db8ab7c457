//! The benchmark's inputs: the listings table, its workload log, the
//! distinct queries the workloads replay, and the write batches the
//! ingest traffic appends and absorbs. Everything is generated from
//! the two seeds, so the same seeds always give the same inputs.

use qcat_data::{Relation, Value};
use qcat_datagen::{
    generate_homes, generate_workload, Geography, HomesConfig, Rng, WorkloadGenConfig,
};
use qcat_serve::fingerprint;
use qcat_sql::{parse_and_normalize, NormalizedQuery};
use qcat_workload::{PreprocessConfig, WorkloadLog};

/// The table every workload queries.
pub const TABLE: &str = "listproperty";
/// Rows in the table (`StudyScale::Standard`).
pub const ROWS: usize = 120_000;
/// Queries in the registered workload log (`StudyScale::Standard`).
pub const LOG_QUERIES: usize = 25_000;
/// Rows per append: one batch of new listings from one neighborhood.
pub const BATCH_ROWS: usize = 32;
/// New workload queries per `Server::log_queries` absorb.
pub const ABSORB_QUERIES: usize = 20;
/// Size of the pool new listings are drawn from.
const NEW_LISTINGS: usize = 24_000;
/// Size of the pool absorbed queries are drawn from.
const NEW_QUERIES: usize = 4_000;

/// Generated inputs for one run.
pub struct Fixture {
    /// The base table, index-free; [`Fixture::fresh_relation`] hands
    /// out copies so every registration builds its own indexes.
    relation: Relation,
    /// The workload log registered with the table.
    pub log: WorkloadLog,
    /// The paper's separation intervals.
    pub prep: PreprocessConfig,
    /// Distinct log queries (first occurrence by normalized
    /// fingerprint) as SQL text, in log order.
    pub distinct: Vec<String>,
    /// New listings; each append batch is a run of rows from it.
    listings: Relation,
    /// Row ids of `listings`, one `BATCH_ROWS` chunk per batch, every
    /// chunk from a single neighborhood, in seeded order.
    batches: Vec<Vec<usize>>,
    /// Queries absorbed by `log_queries`, `ABSORB_QUERIES` per batch.
    absorbs: Vec<Vec<NormalizedQuery>>,
}

impl Fixture {
    /// Generate the inputs. `data_seed` fixes what a workload is: the
    /// table, its log, and the pool of new listings. `seed` draws one
    /// run of it: the order append batches arrive in and the queries
    /// absorbs add (the schedules draw their request sequence from it
    /// too).
    pub fn generate(seed: u64, data_seed: u64) -> Fixture {
        let geo = Geography::standard();
        let relation = generate_homes(&HomesConfig::with_rows(ROWS).with_seed(data_seed), &geo);
        let schema = relation.schema().clone();
        let sql = generate_workload(
            &WorkloadGenConfig::with_queries(LOG_QUERIES).with_seed(data_seed.wrapping_add(1)),
            &geo,
        );
        let log = WorkloadLog::parse(sql.iter().map(String::as_str), &schema, Some(TABLE));

        let mut seen = std::collections::HashSet::new();
        let distinct = sql
            .into_iter()
            .filter(|s| parse_and_normalize(s, &schema).is_ok_and(|q| seen.insert(fingerprint(&q))))
            .collect();

        let attr = |name: &str| schema.resolve(name).expect("listproperty attribute");
        let prep = PreprocessConfig::new()
            .with_interval(attr("price"), 5_000.0)
            .with_interval(attr("square_footage"), 100.0)
            .with_interval(attr("year_built"), 5.0)
            .with_interval(attr("bedroomcount"), 1.0)
            .with_interval(attr("bathcount"), 1.0);

        let listings = generate_homes(
            &HomesConfig::with_rows(NEW_LISTINGS).with_seed(data_seed ^ 0x6c69_7374_696e_6773),
            &geo,
        );
        let batches = neighborhood_batches(&listings, attr("neighborhood"), seed);

        let absorbs = generate_workload(
            &WorkloadGenConfig::with_queries(NEW_QUERIES).with_seed(seed ^ 0x6162_736f_7262_7321),
            &geo,
        )
        .iter()
        .filter_map(|s| parse_and_normalize(s, &schema).ok())
        .collect::<Vec<_>>()
        .chunks_exact(ABSORB_QUERIES)
        .map(<[NormalizedQuery]>::to_vec)
        .collect();

        Fixture {
            relation,
            log,
            prep,
            distinct,
            listings,
            batches,
            absorbs,
        }
    }

    /// A copy of the base table over the same columns, with no indexes
    /// built yet (the default unsharded layout).
    pub fn fresh_relation(&self) -> Relation {
        self.relation
            .resharded(self.relation.shards().shard_rows())
            .expect("reshard a copy of the base table")
    }

    /// Rows of the table (base, before any append).
    pub fn rows(&self) -> usize {
        self.relation.len()
    }

    /// Append batch `i` (batches repeat once every chunk was used).
    pub fn batch(&self, i: usize) -> Vec<Vec<Value>> {
        self.batches[i % self.batches.len()]
            .iter()
            .map(|&r| self.listings.row(r).expect("listing row in range"))
            .collect()
    }

    /// Absorb batch `i` (batches repeat once every batch was used).
    pub fn absorb(&self, i: usize) -> Vec<NormalizedQuery> {
        self.absorbs[i % self.absorbs.len()].clone()
    }
}

/// Chunk the listings into `BATCH_ROWS`-row batches that each hold a
/// single neighborhood, shuffled with `seed`.
fn neighborhood_batches(
    listings: &Relation,
    hood: qcat_data::AttrId,
    seed: u64,
) -> Vec<Vec<usize>> {
    let (_, codes) = listings
        .column(hood)
        .categorical()
        .expect("neighborhood is categorical");
    let mut by_hood: std::collections::BTreeMap<u32, Vec<usize>> = Default::default();
    for (row, &code) in codes.iter().enumerate() {
        by_hood.entry(code).or_default().push(row);
    }
    let mut batches: Vec<Vec<usize>> = by_hood
        .values()
        .flat_map(|rows| rows.chunks_exact(BATCH_ROWS).map(<[usize]>::to_vec))
        .collect();
    let mut rng = Rng::seed_from_u64(seed ^ 0x6261_7463_6865_7321);
    for i in (1..batches.len()).rev() {
        batches.swap(i, rng.gen_range(0..=i));
    }
    assert!(
        !batches.is_empty(),
        "no neighborhood has {BATCH_ROWS} new listings"
    );
    batches
}
