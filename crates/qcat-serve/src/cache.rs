//! The answer cache: one byte-budgeted LRU of answers keyed by
//! normalized-query fingerprint.
//!
//! Each fingerprint holds its answer once, in one of two forms:
//!
//! - **rows** — the complete [`ResultSet`], cached right after
//!   execution (so a categorization that degrades still leaves its
//!   rows behind) or left behind by an evicted tree;
//! - **tree** — the finished [`CategoryTree`], its rendering and the
//!   stats epoch it was built at. The root's slice *is* the answer's
//!   rows, so publishing a tree replaces the rows entry, and the
//!   fingerprint is charged `tree.heap_bytes() + rendered.len()`.
//!
//! A tree is servable only at the stats epoch it was built at; at any
//! other it still serves as rows, since the categorizer restores table
//! order and the tree does not depend on row order. Every entry, in
//! either form, can donate its rows for containment: the probe
//! ([`crate::containment`]) walks the resident entries themselves, and
//! appends invalidate by walking the same entries.
//!
//! Capacity is a **byte budget**, not an entry count: one broad answer
//! can outweigh thousands of selective ones. Eviction takes the entry
//! with the oldest touch tick until the total fits (`O(entries)` per
//! eviction, fine at the default budget's entry counts); an entry alone
//! larger than the whole budget is refused outright. An evicted tree
//! gets a second round as its rows, re-entering as the most recently
//! used entry: the rows are about a tenth of the tree's charge and all
//! that containment needs. Evicted rows leave. A tree hit touches its
//! entry; a donation touches only entries held as rows, so a tree kept
//! alive by nothing but donations steps down to its rows.

use crate::containment::{signature, Probe};
use qcat_core::{CategoryTree, NodeId};
use qcat_data::{AttrId, Relation, SegmentSummary};
use qcat_exec::ResultSet;
use qcat_sql::{AttrCondition, NormalizedQuery};
use std::collections::HashMap;
use std::sync::Arc;

/// A byte-budgeted LRU map.
pub(crate) struct Lru<V> {
    capacity_bytes: usize,
    tick: u64,
    total_bytes: usize,
    map: HashMap<String, Slot<V>>,
}

struct Slot<V> {
    value: V,
    last_used: u64,
    bytes: usize,
}

impl<V> Lru<V> {
    /// Cache whose entries' declared sizes sum to at most
    /// `capacity_bytes` (`0` disables caching).
    pub fn new(capacity_bytes: usize) -> Self {
        Lru {
            capacity_bytes,
            tick: 0,
            total_bytes: 0,
            map: HashMap::new(),
        }
    }

    /// Look up `key`, marking it most recently used.
    pub fn get(&mut self, key: &str) -> Option<&V> {
        let slot = self.map.get_mut(key)?;
        self.tick += 1;
        slot.last_used = self.tick;
        Some(&slot.value)
    }

    /// The key of the entry `rank` ranks lowest (ties broken by key).
    /// `rank` also says whether ranking an entry counts as using it:
    /// those entries are marked used, the lowest one most recently.
    pub fn lowest(&mut self, rank: impl Fn(&str, &V) -> Option<(usize, bool)>) -> Option<String> {
        self.tick += 2;
        let mut best: Option<(usize, &str, &mut Slot<V>, bool)> = None;
        for (key, slot) in self.map.iter_mut() {
            let Some((r, used)) = rank(key, &slot.value) else {
                continue;
            };
            if used {
                slot.last_used = self.tick - 1;
            }
            if best.as_ref().is_none_or(|b| (r, key.as_str()) < (b.0, b.1)) {
                best = Some((r, key, slot, used));
            }
        }
        let (_, key, slot, used) = best?;
        if used {
            slot.last_used = self.tick;
        }
        Some(key.to_string())
    }

    /// Look up `key` without touching its recency.
    pub fn peek(&self, key: &str) -> Option<&V> {
        self.map.get(key).map(|s| &s.value)
    }

    /// Insert `value` under `key`, declaring its estimated owned
    /// footprint `heap_bytes`, replacing any previous value, and evict
    /// least-recently-used entries (ties broken by key) until the
    /// budget fits. An entry larger than the whole budget is not cached
    /// at all (the previous value still leaves, rather than stay
    /// visible as a stale answer).
    ///
    /// `shrink` gets each evicted value first: returning a smaller
    /// value and its size keeps that instead, as the most recently
    /// used entry; returning `None` drops it. It must return `None`
    /// for a value it already shrank.
    pub fn insert(
        &mut self,
        key: String,
        value: V,
        heap_bytes: usize,
        shrink: impl Fn(&V) -> Option<(V, usize)>,
    ) {
        self.remove(&key);
        if self.capacity_bytes == 0 || heap_bytes > self.capacity_bytes {
            return;
        }
        self.put(key.clone(), value, heap_bytes);
        while self.total_bytes > self.capacity_bytes {
            let Some(victim) = self
                .map
                .iter()
                .filter(|(k, _)| **k != key)
                .min_by_key(|(k, s)| (s.last_used, *k))
                .map(|(k, _)| k.clone())
            else {
                break;
            };
            let Some(old) = self.remove(&victim) else {
                break;
            };
            if let Some((smaller, bytes)) = shrink(&old) {
                self.put(victim, smaller, bytes);
            }
        }
    }

    fn put(&mut self, key: String, value: V, heap_bytes: usize) {
        self.tick += 1;
        self.total_bytes += heap_bytes;
        self.map.insert(
            key,
            Slot {
                value,
                last_used: self.tick,
                bytes: heap_bytes,
            },
        );
    }

    /// Remove `key`, releasing its declared bytes.
    pub fn remove(&mut self, key: &str) -> Option<V> {
        let slot = self.map.remove(key)?;
        self.total_bytes -= slot.bytes;
        Some(slot.value)
    }

    /// Every resident entry, in no particular order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &V)> {
        self.map.iter().map(|(k, s)| (k.as_str(), &s.value))
    }

    /// Number of resident entries.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Sum of the declared sizes of every resident entry.
    pub fn bytes(&self) -> usize {
        self.total_bytes
    }

    /// Drop every entry.
    pub fn clear(&mut self) {
        self.map.clear();
        self.total_bytes = 0;
    }
}

/// One cached answer, in the form it was last published in.
#[derive(Clone)]
pub(crate) enum Answer {
    /// Complete rows whose tree is not cached.
    Rows(Arc<ResultSet>),
    /// A finished tree, its rendering, and the stats epoch it was
    /// built at.
    Tree {
        tree: Arc<CategoryTree>,
        rendered: Arc<String>,
        epoch: u64,
    },
}

impl Answer {
    /// The answer's row ids: in table order when an execution produced
    /// them, grouped by category when they come from a tree.
    pub fn rows(&self) -> &[u32] {
        match self {
            Answer::Rows(result) => result.rows(),
            Answer::Tree { tree, .. } => tree.tuples(NodeId::ROOT),
        }
    }

    /// The tree and rendering, if this is a tree built at `epoch`.
    fn tree_at(&self, epoch: u64) -> Option<(&Arc<CategoryTree>, &Arc<String>)> {
        match self {
            Answer::Tree {
                tree,
                rendered,
                epoch: built,
            } if *built == epoch => Some((tree, rendered)),
            _ => None,
        }
    }
}

/// One resident entry: the normalized query behind the fingerprint,
/// its containment signature, and its answer.
struct Entry {
    query: Arc<NormalizedQuery>,
    signature: u64,
    answer: Answer,
}

impl Entry {
    /// The answer's rows as a result set: shared for rows, copied out
    /// of the root slice for a tree.
    fn result(&self) -> Arc<ResultSet> {
        match &self.answer {
            Answer::Rows(result) => Arc::clone(result),
            Answer::Tree { tree, .. } => Arc::new(ResultSet::new(
                tree.relation().clone(),
                tree.tuples(NodeId::ROOT).to_vec(),
                self.query.projection.clone(),
            )),
        }
    }
}

/// The server's one answer cache, over every registered table.
pub(crate) struct AnswerCache {
    lru: Lru<Entry>,
}

impl AnswerCache {
    /// An empty cache holding at most `capacity_bytes` of answers.
    pub fn new(capacity_bytes: usize) -> Self {
        AnswerCache {
            lru: Lru::new(capacity_bytes),
        }
    }

    /// The tree cached under `key`, if it is servable at `epoch`.
    pub fn tree(&mut self, key: &str, epoch: u64) -> Option<(Arc<CategoryTree>, Arc<String>)> {
        let (tree, rendered) = self.lru.get(key)?.answer.tree_at(epoch)?;
        Some((Arc::clone(tree), Arc::clone(rendered)))
    }

    /// Is a tree servable at `epoch` cached under `key`? Does not
    /// touch recency.
    pub fn has_tree(&self, key: &str, epoch: u64) -> bool {
        self.lru
            .peek(key)
            .is_some_and(|e| e.answer.tree_at(epoch).is_some())
    }

    /// The rows cached under `key`, in either form.
    pub fn result(&mut self, key: &str) -> Option<Arc<ResultSet>> {
        self.lru.get(key).map(Entry::result)
    }

    /// The smallest cached answer (ties broken by key), other than
    /// `key`'s own, whose query provably subsumes `query`, with the
    /// attributes its rows must still be filtered by.
    ///
    /// Every subsuming answer held as rows counts as used, not just the
    /// one chosen: a broad answer that could serve many refinements
    /// stays resident while a narrower sibling does the filtering. A
    /// donation does not use a tree, so a tree that only donates steps
    /// down to its rows when its turn to leave comes.
    pub fn donor(&mut self, key: &str, query: &NormalizedQuery) -> Option<(Answer, Vec<AttrId>)> {
        let probe = Probe::new(key, query);
        let best = self.lru.lowest(|key, e| {
            let used = matches!(e.answer, Answer::Rows(_));
            probe
                .accepts(key, &e.query, e.signature)
                .then(|| (e.answer.rows().len(), used))
        })?;
        let donor = self.lru.peek(&best)?;
        Some((
            donor.answer.clone(),
            qcat_sql::residual_attrs(&donor.query, query),
        ))
    }

    /// Cache `answer` under `key`, replacing whatever form the key held
    /// (a tree replaces the rows it was built from), charged its rows'
    /// or its tree's and rendering's heap estimate.
    pub fn publish(&mut self, key: &str, query: &NormalizedQuery, answer: Answer) {
        let charge = |answer: &Answer| match answer {
            Answer::Rows(result) => result.heap_bytes(),
            Answer::Tree { tree, rendered, .. } => tree.heap_bytes() + rendered.len(),
        };
        // An evicted tree gets a second round as its rows: they are
        // what containment needs, at a fraction of the tree's charge.
        let demote = |e: &Entry| match e.answer {
            Answer::Tree { .. } => {
                let answer = Answer::Rows(e.result());
                let bytes = charge(&answer);
                let (query, signature) = (Arc::clone(&e.query), e.signature);
                Some((
                    Entry {
                        query,
                        signature,
                        answer,
                    },
                    bytes,
                ))
            }
            Answer::Rows(_) => None,
        };
        let entry = Entry {
            query: Arc::new(query.clone()),
            signature: signature(query),
            answer,
        };
        let bytes = charge(&entry.answer);
        self.lru.insert(key.to_string(), entry, bytes, demote);
        self.publish_gauge();
    }

    /// Selective invalidation after an append to `table`: remove every
    /// cached answer whose predicate *may* intersect the batch
    /// summarized by `delta`, and keep the rest. Returns
    /// `(evicted, kept)`.
    ///
    /// Keeping is sound because appends only add rows: an entry whose
    /// conjuncts provably exclude every appended row has an unchanged
    /// answer (prefix row ids are stable across commits), and with
    /// unchanged statistics its tree is unchanged too. Eviction is
    /// conservative — any doubt (condition-free query, unknown
    /// summary) evicts.
    pub fn invalidate_delta(
        &mut self,
        table: &str,
        relation: &Relation,
        delta: &SegmentSummary,
    ) -> (usize, usize) {
        let (mut dead, mut kept) = (Vec::new(), 0);
        for (key, entry) in self.lru.iter().filter(|(_, e)| e.query.table == table) {
            if delta_disjoint(&entry.query, relation, delta) {
                kept += 1;
            } else {
                dead.push(key.to_string());
            }
        }
        for key in &dead {
            self.lru.remove(key);
        }
        self.publish_gauge();
        (dead.len(), kept)
    }

    /// `(entries, entries holding a tree servable at its table's
    /// epoch)`, where `epoch` maps a table to its current stats epoch.
    pub fn sizes(&self, epoch: impl Fn(&str) -> Option<u64>) -> (usize, usize) {
        let trees = self
            .lru
            .iter()
            .filter(|(_, e)| {
                epoch(&e.query.table).is_some_and(|now| e.answer.tree_at(now).is_some())
            })
            .count();
        (self.lru.len(), trees)
    }

    /// `(row bytes, the rest)` of every entry's charge: 4 bytes per
    /// cached row id, and the tree, rendering and projection around
    /// them. The two sum to the budget's resident total.
    pub fn bytes(&self) -> (usize, usize) {
        let rows: usize = self
            .lru
            .iter()
            .map(|(_, e)| std::mem::size_of_val(e.answer.rows()))
            .sum();
        let total = self.lru.bytes();
        (rows, total.saturating_sub(rows))
    }

    /// Drop every entry.
    pub fn clear(&mut self) {
        self.lru.clear();
        self.publish_gauge();
    }

    fn publish_gauge(&self) {
        qcat_obs::gauge("serve.cache.bytes", self.lru.bytes() as f64);
    }
}

/// Does some conjunct of `query` provably exclude **every** row of the
/// appended batch summarized by `delta` (a summary over exactly the
/// new rows)?
///
/// - `IN` over strings resolves each value through the *committed*
///   relation's dictionary; values the dictionary has never seen match
///   nothing. The conjunct excludes the batch when none of its codes
///   appear in the delta's code-presence bitmap.
/// - Numeric `IN` / range conjuncts check the delta's min/max.
/// - A query with no conditions matches everything: never disjoint.
///
/// Conservative in the safe direction: when the summary cannot prove
/// absence the conjunct is treated as intersecting.
fn delta_disjoint(query: &NormalizedQuery, relation: &Relation, delta: &SegmentSummary) -> bool {
    query.conditions.iter().any(|(&attr, cond)| {
        let a = attr.index();
        match cond {
            AttrCondition::InStr(values) => {
                let Some(dict) = relation.column(attr).dictionary() else {
                    return false;
                };
                let codes: Vec<u32> = values.iter().filter_map(|v| dict.lookup(v)).collect();
                !delta.may_have_any_code(a, &codes)
            }
            AttrCondition::InNum(values) => !delta.may_have_value(a, values),
            AttrCondition::Range(r) => {
                !delta.may_overlap_range(a, r.lo, r.lo_inclusive, r.hi, r.hi_inclusive)
            }
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Insert and drop whatever left: these tests watch the LRU alone.
    fn put<V>(c: &mut Lru<V>, key: &str, value: V, bytes: usize) {
        c.insert(key.to_string(), value, bytes, |_| None);
    }

    /// An answer cache holding one four-row answer as a tree built at
    /// stats epoch 0, plus the query and its key.
    fn cached_tree() -> (AnswerCache, NormalizedQuery, String) {
        cached_tree_within(1 << 20)
    }

    fn cached_tree_within(capacity: usize) -> (AnswerCache, NormalizedQuery, String) {
        use qcat_data::{AttrType, Field, RelationBuilder, Schema};
        let schema = Schema::new(vec![Field::new("price", AttrType::Float)]).unwrap();
        let mut b = RelationBuilder::new(schema.clone());
        for price in [1.0, 2.0, 3.0, 4.0, 5.0] {
            b.push_row(&[price.into()]).unwrap();
        }
        let relation = b.finish().unwrap();
        let query =
            qcat_sql::parse_and_normalize("SELECT * FROM t WHERE price <= 4", &schema).unwrap();
        let key = crate::fingerprint(&query);
        let tree = Arc::new(CategoryTree::new(relation, vec![0, 1, 2, 3]));
        let rendered = Arc::new("ALL".to_string());
        let mut cache = AnswerCache::new(capacity);
        cache.publish(
            &key,
            &query,
            Answer::Tree {
                tree,
                rendered,
                epoch: 0,
            },
        );
        (cache, query, key)
    }

    #[test]
    fn get_after_insert_same_epoch() {
        let (mut cache, _, key) = cached_tree();
        let (tree, rendered) = cache.tree(&key, 0).expect("servable at its own epoch");
        assert_eq!(tree.tuples(NodeId::ROOT), &[0, 1, 2, 3]);
        assert_eq!(rendered.as_str(), "ALL");
        assert!(cache.tree("other", 0).is_none());
        let (rows, rest) = cache.bytes();
        assert_eq!(rows + rest, tree.heap_bytes() + rendered.len());
        assert_eq!(rows, 16);
    }

    #[test]
    fn epoch_bump_invalidates() {
        let (mut cache, query, key) = cached_tree();
        assert!(
            cache.tree(&key, 1).is_none(),
            "a tree of another epoch is not served"
        );
        // It stays resident, and it still serves its rows — for the
        // re-categorization and as a containment donor.
        assert_eq!(cache.sizes(|_| Some(1)), (1, 0));
        assert_eq!(cache.sizes(|_| Some(0)), (1, 1));
        let result = cache.result(&key).expect("rows survive the epoch");
        assert_eq!(result.rows(), &[0, 1, 2, 3]);
        assert_eq!(result.projection(), query.projection.as_deref());
        let mut narrower = query.clone();
        narrower
            .conditions
            .insert(qcat_data::AttrId(0), AttrCondition::InNum(vec![2.0]));
        let (donor, residual) = cache.donor("narrower", &narrower).expect("donates");
        assert_eq!(donor.rows(), &[0, 1, 2, 3]);
        assert_eq!(residual, vec![qcat_data::AttrId(0)]);
    }

    #[test]
    fn has_tree_is_pure() {
        let (cache, _, key) = cached_tree();
        assert!(cache.has_tree(&key, 0));
        assert!(!cache.has_tree(&key, 1));
        assert!(!cache.has_tree("other", 0));
        // The stale probe did not drop the entry.
        assert_eq!(cache.sizes(|_| Some(0)), (1, 1));
    }

    #[test]
    fn an_evicted_tree_leaves_its_rows() {
        let (probe, query, a) = cached_tree();
        let tree_charge = probe.lru.bytes();
        // Room for one tree and the rows of one more answer.
        let (mut cache, _, _) = cached_tree_within(tree_charge + 16);
        let tree_of = |cache: &mut AnswerCache, key: &str| {
            let (tree, rendered) = cache.tree(key, 0).expect("a servable tree");
            Answer::Tree {
                tree,
                rendered,
                epoch: 0,
            }
        };
        let b = "b".to_string();
        let answer = tree_of(&mut cache, &a);
        cache.publish(&b, &query, answer);
        // The older tree stepped down to its rows instead of leaving.
        assert_eq!(cache.sizes(|_| Some(0)), (2, 1));
        assert!(cache.tree(&a, 0).is_none());
        assert_eq!(cache.result(&a).expect("rows stay").rows(), &[0, 1, 2, 3]);
        assert_eq!(cache.bytes(), (32, tree_charge - 16));
        let mut narrower = query.clone();
        narrower
            .conditions
            .insert(qcat_data::AttrId(0), AttrCondition::InNum(vec![2.0]));
        assert!(
            cache.donor("narrower", &narrower).is_some(),
            "the rows still donate"
        );
        // A third tree demotes the second; the first answer's rows, now
        // least recently used, leave on their second eviction.
        let answer = tree_of(&mut cache, &b);
        cache.publish("c", &query, answer);
        assert_eq!(cache.sizes(|_| Some(0)), (2, 1));
        assert!(cache.result(&a).is_none());
    }

    #[test]
    fn evicted_values_can_shrink_instead_of_leaving() {
        let mut c = Lru::new(12);
        let shrink = |v: &u32| (*v < 100).then(|| (v * 100, 1));
        c.insert("a".into(), 1, 10, shrink);
        c.insert("b".into(), 2, 10, shrink);
        assert_eq!(
            (c.peek("a"), c.bytes()),
            (Some(&100), 11),
            "a shrank instead of leaving"
        );
        // The shrunk "a" re-entered as the most recent entry, so "b"
        // is the next to shrink.
        c.insert("c".into(), 3, 10, shrink);
        assert_eq!((c.peek("a"), c.peek("b")), (Some(&100), Some(&200)));
        // A shrunk value leaves on its second eviction.
        c.insert("d".into(), 4, 10, shrink);
        assert_eq!(c.peek("a"), None);
        assert_eq!(
            (c.peek("b"), c.peek("c"), c.peek("d")),
            (Some(&200), Some(&300), Some(&4))
        );
        assert_eq!(c.bytes(), 12);
    }

    #[test]
    fn lowest_ranks_by_value_then_key_and_marks_only_used_entries() {
        let mut c = Lru::new(40);
        for (k, v) in [("a", 5), ("b", 3), ("c", 3), ("d", 1)] {
            put(&mut c, k, v, 10);
        }
        // "d" is not ranked at all; "b" and "c" tie on 3, so the key
        // decides. Ranking "b" does not count as using it.
        let best = c.lowest(|k, v| (k != "d").then_some((*v as usize, k != "b")));
        assert_eq!(best.as_deref(), Some("b"));
        // "a" and "c" were marked used, "b" and "d" kept their age: the
        // next two entries evict "b", then "d".
        put(&mut c, "e", 0, 10);
        assert_eq!((c.peek("b"), c.peek("d")), (None, Some(&1)));
        put(&mut c, "f", 0, 10);
        assert_eq!(c.peek("d"), None);
        assert_eq!((c.peek("a"), c.peek("c")), (Some(&5), Some(&3)));
        assert_eq!(c.lowest(|_, _| None::<(usize, bool)>), None);
    }

    #[test]
    fn get_after_insert() {
        let mut c = Lru::new(1024);
        put(&mut c, "a", 1, 10);
        assert_eq!(c.get("a"), Some(&1));
        assert_eq!(c.get("b"), None);
        assert_eq!(c.bytes(), 10);
    }

    #[test]
    fn eviction_respects_byte_budget_and_recency() {
        let mut c = Lru::new(25);
        put(&mut c, "a", 1, 10);
        put(&mut c, "b", 2, 10);
        // Touch "a" so "b" is the LRU when "c" arrives.
        assert_eq!(c.get("a"), Some(&1));
        put(&mut c, "c", 3, 10);
        assert_eq!(c.len(), 2);
        assert!(c.bytes() <= 25);
        assert_eq!(c.get("b"), None);
        assert_eq!(c.get("a"), Some(&1));
        assert_eq!(c.get("c"), Some(&3));
    }

    #[test]
    fn one_large_entry_evicts_many_small_ones() {
        let mut c = Lru::new(100);
        for (i, k) in ["a", "b", "c", "d"].iter().enumerate() {
            put(&mut c, k, i, 20);
        }
        assert_eq!(c.len(), 4);
        put(&mut c, "big", 99, 90);
        assert!(c.bytes() <= 100, "budget holds: {}", c.bytes());
        assert_eq!(c.get("big"), Some(&99));
        assert!(c.len() <= 2);
    }

    #[test]
    fn oversized_entry_is_refused() {
        let mut c = Lru::new(50);
        put(&mut c, "a", 1, 10);
        put(&mut c, "huge", 2, 51);
        assert_eq!(c.get("huge"), None);
        // The refusal did not disturb resident entries.
        assert_eq!(c.get("a"), Some(&1));
        // Re-inserting an existing key with an oversized value drops
        // the old entry instead of serving it stale.
        put(&mut c, "a", 3, 51);
        assert_eq!(c.get("a"), None);
        assert_eq!(c.bytes(), 0);
    }

    #[test]
    fn reinsert_updates_bytes_without_double_count() {
        let mut c = Lru::new(100);
        put(&mut c, "a", 1, 30);
        put(&mut c, "b", 2, 30);
        put(&mut c, "a", 9, 40);
        assert_eq!(c.len(), 2);
        assert_eq!(c.bytes(), 70);
        assert_eq!(c.get("a"), Some(&9));
        assert_eq!(c.get("b"), Some(&2));
    }

    #[test]
    fn peek_does_not_touch_recency() {
        let mut c = Lru::new(20);
        put(&mut c, "a", 1, 10);
        put(&mut c, "b", 2, 10);
        // Peeking "a" leaves it the LRU entry, so "c" evicts it.
        assert_eq!(c.peek("a"), Some(&1));
        put(&mut c, "c", 3, 10);
        assert_eq!(c.peek("a"), None);
        assert_eq!(c.peek("b"), Some(&2));
    }

    #[test]
    fn zero_capacity_disables() {
        let mut c = Lru::new(0);
        put(&mut c, "a", 1, 1);
        assert_eq!(c.len(), 0);
        assert_eq!(c.get("a"), None);
    }

    #[test]
    fn zero_byte_entries_still_cache() {
        let mut c = Lru::new(10);
        put(&mut c, "a", 1, 0);
        assert_eq!(c.get("a"), Some(&1));
        assert_eq!(c.bytes(), 0);
    }

    #[test]
    fn reinsert_of_an_evicted_key_is_a_fresh_entry() {
        let mut c = Lru::new(25);
        put(&mut c, "a", 1, 10);
        put(&mut c, "b", 2, 10);
        // "a" is the LRU; "c" evicts it.
        assert_eq!(c.get("b"), Some(&2));
        put(&mut c, "c", 3, 10);
        assert_eq!(c.get("a"), None, "evicted");
        // Re-inserting the evicted key works and charges bytes once.
        put(&mut c, "a", 9, 10);
        assert_eq!(c.get("a"), Some(&9));
        assert!(c.bytes() <= 25, "budget holds: {}", c.bytes());
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn bytes_gauge_is_exact_after_every_eviction() {
        let mut c = Lru::new(30);
        put(&mut c, "a", 1, 10);
        put(&mut c, "b", 2, 10);
        put(&mut c, "c", 3, 10);
        assert_eq!(c.bytes(), 30);
        // One more 10-byte entry evicts exactly one LRU entry.
        put(&mut c, "d", 4, 10);
        assert_eq!(c.bytes(), 30);
        assert_eq!(c.len(), 3);
        // Explicit removal releases exactly the declared size…
        assert_eq!(c.remove("d"), Some(4));
        assert_eq!(c.bytes(), 20);
        // …and removing a missing key changes nothing.
        assert_eq!(c.remove("nope"), None);
        assert_eq!(c.bytes(), 20);
    }

    #[test]
    fn entry_exactly_at_budget_caches_alone() {
        let mut c = Lru::new(50);
        put(&mut c, "a", 1, 10);
        // Exactly the budget: admitted, everything else evicted.
        put(&mut c, "full", 2, 50);
        assert_eq!(c.get("full"), Some(&2));
        assert_eq!(c.get("a"), None);
        assert_eq!(c.bytes(), 50);
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn clear_resets_bytes() {
        let mut c = Lru::new(100);
        put(&mut c, "a", 1, 30);
        c.clear();
        assert_eq!(c.len(), 0);
        assert_eq!(c.bytes(), 0);
        put(&mut c, "a", 2, 30);
        assert_eq!(c.get("a"), Some(&2));
    }
}
