//! Which cached answers can donate their rows to a query.
//!
//! An exact cache hit only helps a query that *is* a cached one.
//! Exploration workloads mostly *refine*: the next query adds a
//! conjunct or tightens a range, so its answer is contained in a cached
//! superset's. A cold miss therefore probes the answer cache
//! ([`crate::cache`]) for a **donor**: a cached answer, in either form,
//! whose query provably subsumes the new one ([`qcat_sql::subsumes`];
//! a `LIMIT` answer is a truncation and never donates).
//!
//! The probe walks the cache's own entries, so it can never name rows
//! the cache no longer holds. Each entry carries its query's
//! **attribute signature**, the set of attributes its conjuncts
//! constrain, as a bit set. A donor can only subsume a query whose
//! signature contains its own, so one mask test skips most entries
//! before the full dominance check runs on the survivors.

use qcat_sql::NormalizedQuery;

/// The attributes `query` constrains, as a bit set: attribute `i` is
/// bit `i`, and attributes from 63 up share bit 63 (the test below
/// stays conservative: sharing can only let a non-donor through to
/// the full check, never turn a donor away).
pub(crate) fn signature(query: &NormalizedQuery) -> u64 {
    query
        .conditions
        .keys()
        .fold(0, |sig, attr| sig | 1 << attr.0.min(63))
}

/// One cold miss looking for a donor.
pub(crate) struct Probe<'a> {
    key: &'a str,
    query: &'a NormalizedQuery,
    signature: u64,
}

impl<'a> Probe<'a> {
    /// The probe for `query`, cached under `key`.
    pub fn new(key: &'a str, query: &'a NormalizedQuery) -> Self {
        Probe {
            key,
            query,
            signature: signature(query),
        }
    }

    /// Can the answer cached under `key` for `donor`, whose signature
    /// is `signature`, donate its rows? Never the probe's own key: the
    /// exact-hit path owns identical fingerprints.
    pub fn accepts(&self, key: &str, donor: &NormalizedQuery, signature: u64) -> bool {
        // A donor constraining an attribute the query leaves free can
        // never be implied.
        signature & !self.signature == 0 && key != self.key && qcat_sql::subsumes(donor, self.query)
    }
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

    /// Does the cached answer of `donor` donate to `probe`?
    fn donates(donor: &NormalizedQuery, probe: &NormalizedQuery) -> bool {
        let key = crate::fingerprint(probe);
        Probe::new(&key, probe).accepts(&crate::fingerprint(donor), donor, signature(donor))
    }

    #[test]
    fn probe_finds_subsuming_donor_only() {
        let wide = q("SELECT * FROM homes WHERE price <= 300000");
        let narrow = q("SELECT * FROM homes WHERE price <= 100000");
        let other_attr = q("SELECT * FROM homes WHERE bedroomcount >= 2");
        let probe = q("SELECT * FROM homes WHERE price <= 200000");
        assert!(donates(&wide, &probe));
        assert!(!donates(&narrow, &probe));
        assert!(
            !donates(&other_attr, &probe),
            "constrains an attribute the probe leaves free"
        );
        // A probe on both attributes is subsumed by both single-attr
        // donors, never by the narrower range.
        let probe2 = q("SELECT * FROM homes WHERE price <= 200000 AND bedroomcount = 3");
        assert!(donates(&wide, &probe2));
        assert!(donates(&other_attr, &probe2));
        assert!(!donates(&narrow, &probe2));
        assert!(
            donates(&q("SELECT * FROM homes"), &probe2),
            "no conditions subsume all"
        );
    }

    #[test]
    fn exact_fingerprint_is_not_its_own_donor() {
        let wide = q("SELECT * FROM homes WHERE price <= 300000");
        // The exact-hit path owns identical fingerprints; containment
        // must only offer *other* entries.
        assert!(!donates(&wide, &wide));
    }

    #[test]
    fn limited_queries_never_donate() {
        let limited = q("SELECT * FROM homes WHERE price <= 300000 LIMIT 5");
        assert!(!donates(
            &limited,
            &q("SELECT * FROM homes WHERE price <= 200000")
        ));
    }

    #[test]
    fn tables_are_disjoint() {
        let wide = q("SELECT * FROM homes WHERE price <= 300000");
        let mut probe = q("SELECT * FROM homes WHERE price <= 200000");
        probe.table = "condos".into();
        assert!(!donates(&wide, &probe));
    }

    #[test]
    fn signature_subset_edges() {
        use qcat_data::AttrId;
        use qcat_sql::AttrCondition;
        let sig = |attrs: &[u32]| {
            let mut query = q("SELECT * FROM homes");
            for &a in attrs {
                query
                    .conditions
                    .insert(AttrId(a), AttrCondition::InNum(vec![1.0]));
            }
            signature(&query)
        };
        let within = |a: u64, b: u64| a & !b == 0;
        assert!(within(sig(&[]), sig(&[1, 2])));
        assert!(within(sig(&[1]), sig(&[1, 2])));
        assert!(within(sig(&[1, 2]), sig(&[1, 2])));
        assert!(!within(sig(&[3]), sig(&[1, 2])));
        assert!(!within(sig(&[1, 2]), sig(&[1])));
        assert!(!within(sig(&[0]), sig(&[])));
        // Attributes from 63 up share a bit: the mask lets them through
        // to the full check rather than turn a donor away.
        assert!(within(sig(&[70]), sig(&[64])));
        assert!(within(sig(&[63, 100]), sig(&[63, 100])));
    }
}
