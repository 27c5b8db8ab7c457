//! Per-table index of containment-eligible cached answers.
//!
//! The result cache maps fingerprint → `ResultSet`, which only helps
//! a query that *is* a cached one. Exploration workloads mostly
//! *refine*: the next query adds a conjunct or tightens a range, so
//! its answer is contained in a cached superset's. This index makes
//! that probe cheap: every containment-eligible cached entry (no
//! `LIMIT` — a truncated answer proves nothing) is bucketed by its
//! **attribute signature**, the sorted set of attributes its conjuncts
//! constrain. A donor can only subsume a query if its signature is a
//! subset of the query's constrained attributes, so a probe walks the
//! (few) signatures of one table, skips non-subsets wholesale, and
//! runs the full [`qcat_sql::subsumes`] dominance check on the
//! survivors.
//!
//! The index holds keys and normalized queries, never row ids: rows
//! stay in the byte-budgeted result LRU, which evicts independently.
//! Entries here are removed lazily — a probe that finds its key gone
//! (LRU-evicted from the result cache) unhooks it, and inserts trigger
//! a full sweep when the dangling fraction grows — so the index can
//! never serve rows the cache no longer holds.

use qcat_data::AttrId;
use qcat_sql::NormalizedQuery;
use std::collections::HashMap;
use std::sync::Arc;

/// One containment donor candidate: the cache key of its rows plus
/// the normalized query that produced them.
#[derive(Debug, Clone)]
pub(crate) struct Candidate {
    pub key: String,
    pub query: Arc<NormalizedQuery>,
}

/// Attribute-signature index over one server's cached result entries.
#[derive(Debug, Default)]
pub(crate) struct ContainmentIndex {
    /// table → signature (sorted constrained attrs) → donors.
    tables: HashMap<String, HashMap<Vec<AttrId>, Vec<Candidate>>>,
    entries: usize,
}

fn signature(query: &NormalizedQuery) -> Vec<AttrId> {
    // BTreeMap iterates in attribute order: already sorted.
    query.conditions.keys().copied().collect()
}

impl ContainmentIndex {
    /// Register a cached entry as a potential donor. No-op for
    /// containment-ineligible queries (`LIMIT` truncates the answer).
    pub fn insert(&mut self, key: &str, query: &NormalizedQuery) {
        if query.limit.is_some() {
            return;
        }
        let bucket = self
            .tables
            .entry(query.table.clone())
            .or_default()
            .entry(signature(query))
            .or_default();
        if bucket.iter().any(|d| d.key == key) {
            return;
        }
        bucket.push(Candidate {
            key: key.to_string(),
            query: Arc::new(query.clone()),
        });
        self.entries += 1;
    }

    /// Every indexed donor that provably subsumes `query`, cheapest
    /// buckets first is not guaranteed — callers rank by live row
    /// count. Liveness (cache residency) is the caller's check;
    /// report dead keys back through [`ContainmentIndex::remove`].
    pub fn candidates(&self, query: &NormalizedQuery) -> Vec<Candidate> {
        let Some(sigs) = self.tables.get(&query.table) else {
            return Vec::new();
        };
        let probe_sig = signature(query);
        let probe_key = crate::fingerprint(query);
        let mut out = Vec::new();
        for (sig, bucket) in sigs {
            // Subset test over two sorted lists; a donor constraining
            // an attribute the query leaves free can never be implied.
            if !is_sorted_subset(sig, &probe_sig) {
                continue;
            }
            for donor in bucket {
                // The exact-hit path owns identical fingerprints.
                if donor.key != probe_key && qcat_sql::subsumes(&donor.query, query) {
                    out.push(donor.clone());
                }
            }
        }
        out
    }

    /// Unhook one donor (its cached rows were evicted or went stale).
    pub fn remove(&mut self, table: &str, key: &str) {
        if let Some(sigs) = self.tables.get_mut(table) {
            for bucket in sigs.values_mut() {
                let before = bucket.len();
                bucket.retain(|d| d.key != key);
                self.entries -= before - bucket.len();
            }
            sigs.retain(|_, b| !b.is_empty());
        }
    }

    /// Number of indexed donors (dangling ones included until swept).
    pub fn len(&self) -> usize {
        self.entries
    }

    /// Drop donors whose key fails `live` — called when the dangling
    /// fraction grows, so the index stays proportional to the cache.
    pub fn sweep(&mut self, live: impl Fn(&str) -> bool) {
        for sigs in self.tables.values_mut() {
            for bucket in sigs.values_mut() {
                let before = bucket.len();
                bucket.retain(|d| live(&d.key));
                self.entries -= before - bucket.len();
            }
            sigs.retain(|_, b| !b.is_empty());
        }
        self.tables.retain(|_, s| !s.is_empty());
    }

    /// Drop everything.
    pub fn clear(&mut self) {
        self.tables.clear();
        self.entries = 0;
    }
}

/// Is sorted `a` a subset of sorted `b`?
fn is_sorted_subset(a: &[AttrId], b: &[AttrId]) -> bool {
    let mut bi = b.iter();
    'outer: for x in a {
        for y in bi.by_ref() {
            if y == x {
                continue 'outer;
            }
            if y > x {
                return false;
            }
        }
        return false;
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use qcat_data::{AttrType, Field, Schema};
    use qcat_sql::parse_and_normalize;

    fn schema() -> Schema {
        Schema::new(vec![
            Field::new("neighborhood", AttrType::Categorical),
            Field::new("price", AttrType::Float),
            Field::new("bedroomcount", AttrType::Int),
        ])
        .unwrap()
    }

    fn q(sql: &str) -> NormalizedQuery {
        parse_and_normalize(sql, &schema()).unwrap()
    }

    fn key(query: &NormalizedQuery) -> String {
        crate::fingerprint(query)
    }

    #[test]
    fn probe_finds_subsuming_donor_only() {
        let mut idx = ContainmentIndex::default();
        let wide = q("SELECT * FROM homes WHERE price <= 300000");
        let narrow = q("SELECT * FROM homes WHERE price <= 100000");
        let other_attr = q("SELECT * FROM homes WHERE bedroomcount >= 2");
        idx.insert(&key(&wide), &wide);
        idx.insert(&key(&narrow), &narrow);
        idx.insert(&key(&other_attr), &other_attr);
        assert_eq!(idx.len(), 3);

        let probe = q("SELECT * FROM homes WHERE price <= 200000");
        let found = idx.candidates(&probe);
        assert_eq!(found.len(), 1);
        assert_eq!(found[0].key, key(&wide));
        // A probe on both attributes matches both single-attr donors.
        let probe2 = q("SELECT * FROM homes WHERE price <= 200000 AND bedroomcount = 3");
        let keys: Vec<_> = idx.candidates(&probe2).into_iter().map(|d| d.key).collect();
        assert!(keys.contains(&key(&wide)));
        assert!(keys.contains(&key(&other_attr)));
        assert!(!keys.contains(&key(&narrow)));
    }

    #[test]
    fn exact_fingerprint_is_not_its_own_donor() {
        let mut idx = ContainmentIndex::default();
        let wide = q("SELECT * FROM homes WHERE price <= 300000");
        idx.insert(&key(&wide), &wide);
        // The exact-hit path owns identical fingerprints; containment
        // must only offer *other* entries.
        assert!(idx.candidates(&wide).is_empty());
    }

    #[test]
    fn limited_queries_are_not_indexed() {
        let mut idx = ContainmentIndex::default();
        let limited = q("SELECT * FROM homes WHERE price <= 300000 LIMIT 5");
        idx.insert(&key(&limited), &limited);
        assert_eq!(idx.len(), 0);
        assert!(idx
            .candidates(&q("SELECT * FROM homes WHERE price <= 200000"))
            .is_empty());
    }

    #[test]
    fn tables_are_disjoint() {
        let mut idx = ContainmentIndex::default();
        let wide = q("SELECT * FROM homes WHERE price <= 300000");
        idx.insert(&key(&wide), &wide);
        let mut probe = q("SELECT * FROM homes WHERE price <= 200000");
        probe.table = "condos".into();
        assert!(idx.candidates(&probe).is_empty());
    }

    #[test]
    fn remove_and_sweep_unhook_donors() {
        let mut idx = ContainmentIndex::default();
        let wide = q("SELECT * FROM homes WHERE price <= 300000");
        let all = q("SELECT * FROM homes");
        idx.insert(&key(&wide), &wide);
        idx.insert(&key(&all), &all);
        assert_eq!(idx.len(), 2);
        idx.remove("homes", &key(&wide));
        assert_eq!(idx.len(), 1);
        let probe = q("SELECT * FROM homes WHERE price <= 200000");
        assert_eq!(idx.candidates(&probe).len(), 1);
        idx.sweep(|_| false);
        assert_eq!(idx.len(), 0);
        assert!(idx.candidates(&probe).is_empty());
        // Duplicate inserts do not double-count.
        idx.insert(&key(&all), &all);
        idx.insert(&key(&all), &all);
        assert_eq!(idx.len(), 1);
        idx.clear();
        assert_eq!(idx.len(), 0);
    }

    #[test]
    fn sorted_subset_edges() {
        let a = |v: &[u32]| v.iter().map(|&x| AttrId(x)).collect::<Vec<_>>();
        assert!(is_sorted_subset(&a(&[]), &a(&[1, 2])));
        assert!(is_sorted_subset(&a(&[1]), &a(&[1, 2])));
        assert!(is_sorted_subset(&a(&[1, 2]), &a(&[1, 2])));
        assert!(!is_sorted_subset(&a(&[3]), &a(&[1, 2])));
        assert!(!is_sorted_subset(&a(&[1, 2]), &a(&[1])));
        assert!(!is_sorted_subset(&a(&[0]), &a(&[])));
    }
}
