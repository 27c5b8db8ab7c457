//! Columnar evaluation of normalized conditions against a relation.
//!
//! The conditions of a [`NormalizedQuery`] are compiled once per query
//! (string IN-lists become dictionary-code sets), then applied
//! column-at-a-time, narrowing a candidate row-id list on each pass —
//! the classic selection pipeline of a column store. Each pass walks
//! the candidates one segment run at a time, testing plain chunk
//! slices.

use crate::error::NormalizeError;
use crate::normalize::{AttrCondition, NormalizedQuery, NumericRange};
use qcat_data::{AttrId, Chunk, Column, Relation};

/// One condition compiled against the physical column it filters.
#[derive(Debug, Clone)]
enum CompiledCondition {
    /// Dictionary codes accepted by a categorical IN-list, as a
    /// membership mask indexed by code: one load per row instead of a
    /// hash probe.
    CodeSet(Vec<bool>),
    /// Accepted numeric values, sorted.
    NumSet(Vec<f64>),
    /// Numeric interval.
    Range(NumericRange),
    /// Statistically impossible (e.g. an IN-list none of whose values
    /// exist in the dictionary): matches nothing.
    Nothing,
}

/// A set of compiled per-attribute filters for one relation.
#[derive(Debug, Clone)]
pub struct CompiledPredicate {
    filters: Vec<(AttrId, CompiledCondition)>,
}

impl CompiledPredicate {
    /// Compile the conditions of `query` against `relation`.
    ///
    /// Fails when a condition's type does not match the column (the
    /// normalizer already guarantees this when the same schema is
    /// used, so an error here means schema drift between parse and
    /// execution).
    pub fn compile(query: &NormalizedQuery, relation: &Relation) -> Result<Self, NormalizeError> {
        Self::compile_where(query, relation, |_| true)
    }

    /// Compile only the conditions on attributes accepted by `keep`.
    ///
    /// The access-path planner in `qcat-exec` answers some conjuncts
    /// from indexes and routes the rest here as the residual
    /// predicate; `keep` selects that residual subset.
    pub fn compile_where(
        query: &NormalizedQuery,
        relation: &Relation,
        keep: impl Fn(AttrId) -> bool,
    ) -> Result<Self, NormalizeError> {
        let mut filters = Vec::with_capacity(query.conditions.len());
        for (&attr, cond) in query.conditions.iter().filter(|(&a, _)| keep(a)) {
            let column = relation.column(attr);
            let compiled = match (cond, column.dictionary()) {
                (AttrCondition::InStr(values), Some(dict)) => {
                    let mut mask = vec![false; dict.len()];
                    for code in values.iter().filter_map(|v| dict.lookup(v)) {
                        if let Some(on) = mask.get_mut(code as usize) {
                            *on = true;
                        }
                    }
                    if mask.contains(&true) {
                        CompiledCondition::CodeSet(mask)
                    } else {
                        CompiledCondition::Nothing
                    }
                }
                (AttrCondition::InNum(values), None) if column.attr_type().is_numeric() => {
                    if values.is_empty() {
                        CompiledCondition::Nothing
                    } else {
                        CompiledCondition::NumSet(values.clone())
                    }
                }
                (AttrCondition::Range(r), None) if column.attr_type().is_numeric() => {
                    if r.is_empty() {
                        CompiledCondition::Nothing
                    } else {
                        CompiledCondition::Range(*r)
                    }
                }
                _ => {
                    return Err(NormalizeError::ConditionTypeMismatch {
                        attribute: relation.schema().name_of(attr).to_string(),
                        detail: format!(
                            "condition {cond:?} does not apply to a {} column",
                            column.attr_type()
                        ),
                    })
                }
            };
            filters.push((attr, compiled));
        }
        Ok(CompiledPredicate { filters })
    }

    /// Does row `row` satisfy every filter?
    pub fn matches_row(&self, relation: &Relation, row: u32) -> bool {
        self.filters
            .iter()
            .all(|(attr, cond)| condition_matches(relation.column(*attr), cond, row))
    }

    /// Filter `candidates` (or all rows when `None`) down to matches.
    pub fn filter(&self, relation: &Relation, candidates: Option<&[u32]>) -> Vec<u32> {
        // `cancel` never fires, so the cancellable path cannot abort.
        self.filter_cancellable(relation, candidates, &mut || false)
            .unwrap_or_default()
    }

    /// [`CompiledPredicate::filter`] with a cooperative cancellation
    /// callback, polled every [`Self::CANCEL_STRIDE`] rows examined.
    /// Returns `None` — discarding the partial result — as soon as
    /// `cancel` returns true.
    ///
    /// This is how a scan loop honors a deadline without `qcat-sql`
    /// knowing anything about budgets: the executor passes a closure
    /// that checks its gas, keeping this crate's layering flat.
    pub fn filter_cancellable(
        &self,
        relation: &Relation,
        candidates: Option<&[u32]>,
        cancel: &mut dyn FnMut() -> bool,
    ) -> Option<Vec<u32>> {
        let current: Vec<u32> = match candidates {
            Some(c) => c.to_vec(),
            None => relation.all_row_ids(),
        };
        // The matches are compacted in place, so without the shrink a
        // few matches would keep every candidate's capacity.
        let mut matched = self.filter_current(relation, current, cancel)?;
        matched.shrink_to_fit();
        Some(matched)
    }

    /// [`CompiledPredicate::filter_cancellable`] over the contiguous
    /// row range `[start, end)` — the shape of one horizontal shard.
    /// The executor's morsel-parallel scan calls this once per shard;
    /// the candidate list is materialized here, per shard, instead of
    /// one relation-sized list up front.
    pub fn filter_range_cancellable(
        &self,
        relation: &Relation,
        start: usize,
        end: usize,
        cancel: &mut dyn FnMut() -> bool,
    ) -> Option<Vec<u32>> {
        let current: Vec<u32> = (start as u32..end as u32).collect();
        self.filter_current(relation, current, cancel)
    }

    /// Shared narrowing loop of the two cancellable filters: one pass
    /// per filter, compacting `current` in place run by run.
    fn filter_current(
        &self,
        relation: &Relation,
        mut current: Vec<u32>,
        cancel: &mut dyn FnMut() -> bool,
    ) -> Option<Vec<u32>> {
        let mut poll = Poll { since: 0, cancel };
        for (attr, cond) in &self.filters {
            if current.is_empty() {
                break;
            }
            let runs: Vec<(&Chunk, u32, usize)> = relation
                .column(*attr)
                .runs(&current)
                .map(|(chunk, start, run)| (chunk, start, run.len()))
                .collect();
            let (mut read, mut kept) = (0, 0);
            for (chunk, start, len) in runs {
                let rows = &mut current[..read + len];
                let at = |row: u32| (row - start) as usize;
                let done = match (cond, chunk) {
                    (CompiledCondition::CodeSet(mask), Chunk::Codes(codes)) => {
                        compact(rows, read, &mut kept, &mut poll, |r| {
                            mask.get(codes[at(r)] as usize).copied().unwrap_or(false)
                        })
                    }
                    (CompiledCondition::NumSet(values), _) => {
                        compact(rows, read, &mut kept, &mut poll, |r| {
                            chunk.numeric(at(r)).is_some_and(|v| {
                                values.binary_search_by(|p| p.total_cmp(&v)).is_ok()
                            })
                        })
                    }
                    (CompiledCondition::Range(range), _) => {
                        compact(rows, read, &mut kept, &mut poll, |r| {
                            chunk.numeric(at(r)).is_some_and(|v| range.contains(v))
                        })
                    }
                    // `Nothing`, or a code set over a numeric chunk.
                    _ => compact(rows, read, &mut kept, &mut poll, |_| false),
                };
                if !done {
                    return None;
                }
                read += len;
            }
            current.truncate(kept);
        }
        Some(current)
    }

    /// Rows examined between cancellation polls in
    /// [`CompiledPredicate::filter_cancellable`]: frequent enough to
    /// bound deadline overshoot to microseconds, rare enough to stay
    /// invisible in scan throughput.
    pub const CANCEL_STRIDE: usize = 1024;

    /// Which segments of `relation` could hold a matching row, judged
    /// against each segment's [`qcat_data::SegmentSummary`]: one bool
    /// per segment, in row order.
    ///
    /// `false` is a *proof* that no row of the segment satisfies every
    /// filter (some filter's accepted codes are absent, or its
    /// interval / value set misses the segment's `[min, max]`), so
    /// pruned segments can be skipped by scan and index paths alike
    /// without changing any result. Conditions the summaries cannot
    /// judge leave the segment alive.
    pub fn shard_survival(&self, relation: &Relation) -> Vec<bool> {
        relation
            .shards()
            .iter()
            .map(|seg| {
                let summary = seg.summary();
                self.filters.iter().all(|(attr, cond)| {
                    let a = attr.index();
                    match cond {
                        // `Nothing` matches no row anywhere.
                        CompiledCondition::Nothing => false,
                        CompiledCondition::CodeSet(mask) => (0u32..)
                            .zip(mask)
                            .any(|(c, &on)| on && summary.may_have_code(a, c)),
                        CompiledCondition::NumSet(values) => summary.may_have_value(a, values),
                        CompiledCondition::Range(r) => {
                            summary.may_overlap_range(a, r.lo, r.lo_inclusive, r.hi, r.hi_inclusive)
                        }
                    }
                })
            })
            .collect()
    }

    /// Number of per-attribute filters.
    pub fn len(&self) -> usize {
        self.filters.len()
    }

    /// True when there are no filters (everything matches).
    pub fn is_empty(&self) -> bool {
        self.filters.is_empty()
    }
}

/// Cancellation polling shared by every pass of one filter call.
struct Poll<'c> {
    since: usize,
    cancel: &'c mut dyn FnMut() -> bool,
}

impl Poll<'_> {
    /// Count one examined row; false once `cancel` fired.
    #[inline]
    fn tick(&mut self) -> bool {
        self.since += 1;
        if self.since >= CompiledPredicate::CANCEL_STRIDE {
            self.since = 0;
            if (self.cancel)() {
                return false;
            }
        }
        true
    }
}

/// Keep the rows of `rows[from..]` that pass `keep`, moving them down
/// to `rows[*kept..]` (kept never overtakes the read position). False
/// when cancelled mid-run.
#[inline]
fn compact(
    rows: &mut [u32],
    from: usize,
    kept: &mut usize,
    poll: &mut Poll<'_>,
    keep: impl Fn(u32) -> bool,
) -> bool {
    for i in from..rows.len() {
        if !poll.tick() {
            return false;
        }
        let row = rows[i];
        if keep(row) {
            rows[*kept] = row;
            *kept += 1;
        }
    }
    true
}

#[inline]
fn condition_matches(column: Column<'_>, cond: &CompiledCondition, row: u32) -> bool {
    match cond {
        CompiledCondition::Nothing => false,
        CompiledCondition::CodeSet(mask) => column
            .code_at(row as usize)
            .is_some_and(|c| mask.get(c as usize).copied().unwrap_or(false)),
        CompiledCondition::NumSet(values) => column
            .numeric_at(row as usize)
            .is_some_and(|v| values.binary_search_by(|p| p.total_cmp(&v)).is_ok()),
        CompiledCondition::Range(r) => column
            .numeric_at(row as usize)
            .is_some_and(|v| r.contains(v)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse_and_normalize;
    use qcat_data::{AttrType, Field, RelationBuilder, Schema};
    use qcat_datagen::{prop, Rng};

    fn homes() -> Relation {
        let schema = Schema::new(vec![
            Field::new("neighborhood", AttrType::Categorical),
            Field::new("price", AttrType::Float),
            Field::new("bedroomcount", AttrType::Int),
        ])
        .unwrap();
        let rows: &[(&str, f64, i64)] = &[
            ("Redmond", 210_000.0, 3),
            ("Bellevue", 260_000.0, 4),
            ("Seattle", 305_000.0, 2),
            ("Redmond", 199_000.0, 5),
            ("Issaquah", 250_000.0, 3),
        ];
        let mut b = RelationBuilder::with_capacity(schema, rows.len());
        for (n, p, beds) in rows {
            b.push_row(&[(*n).into(), (*p).into(), (*beds).into()])
                .unwrap();
        }
        b.finish().unwrap()
    }

    fn run(sql: &str) -> Vec<u32> {
        let rel = homes();
        let q = parse_and_normalize(sql, rel.schema()).unwrap();
        CompiledPredicate::compile(&q, &rel)
            .unwrap()
            .filter(&rel, None)
    }

    #[test]
    fn in_list_filters_by_code() {
        assert_eq!(
            run("SELECT * FROM homes WHERE neighborhood IN ('Redmond','Bellevue')"),
            vec![0, 1, 3]
        );
    }

    #[test]
    fn range_filters() {
        assert_eq!(
            run("SELECT * FROM homes WHERE price BETWEEN 200000 AND 300000"),
            vec![0, 1, 4]
        );
        assert_eq!(run("SELECT * FROM homes WHERE price < 200000"), vec![3]);
        assert_eq!(
            run("SELECT * FROM homes WHERE bedroomcount >= 4"),
            vec![1, 3]
        );
    }

    #[test]
    fn conjunction_narrows() {
        assert_eq!(
            run(
                "SELECT * FROM homes WHERE neighborhood IN ('Redmond','Bellevue') \
                 AND price BETWEEN 200000 AND 300000 AND bedroomcount = 3"
            ),
            vec![0]
        );
    }

    #[test]
    fn unknown_in_values_match_nothing() {
        assert_eq!(
            run("SELECT * FROM homes WHERE neighborhood IN ('Atlantis')"),
            Vec::<u32>::new()
        );
    }

    #[test]
    fn in_list_mixing_known_and_unknown_values_keeps_the_known() {
        // The code mask is sized by the dictionary; values absent from
        // it set no bit and every dictionary code is a valid index.
        let rel = homes();
        let sql = "SELECT * FROM homes WHERE neighborhood IN ('Atlantis','Issaquah','Seattle')";
        let q = parse_and_normalize(sql, rel.schema()).unwrap();
        let p = CompiledPredicate::compile(&q, &rel).unwrap();
        assert_eq!(p.filter(&rel, None), vec![2, 4]);
        let by_row: Vec<u32> = (0..rel.len() as u32).filter(|&r| p.matches_row(&rel, r)).collect();
        assert_eq!(by_row, vec![2, 4]);
    }

    #[test]
    fn numeric_in_set() {
        assert_eq!(
            run("SELECT * FROM homes WHERE bedroomcount IN (2, 5)"),
            vec![2, 3]
        );
    }

    #[test]
    fn empty_predicate_matches_all() {
        assert_eq!(run("SELECT * FROM homes"), vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn candidate_narrowing() {
        let rel = homes();
        let q = parse_and_normalize("SELECT * FROM homes WHERE bedroomcount = 3", rel.schema())
            .unwrap();
        let p = CompiledPredicate::compile(&q, &rel).unwrap();
        assert_eq!(p.filter(&rel, Some(&[1, 4])), vec![4]);
        assert!(p.matches_row(&rel, 0));
        assert!(!p.matches_row(&rel, 1));
    }

    /// A random conjunction over `t(n, v, k)`: one to three of the
    /// condition shapes the workload uses.
    fn arb_sql(rng: &mut Rng) -> String {
        let names = ["a", "b", "c", "d"];
        let conds = prop::vec(rng, 1, 3, |rng| match rng.gen_range(0..5) {
            0 => {
                let list = prop::vec(rng, 1, 2, |rng| {
                    format!("'{}'", names[rng.gen_range(0..4usize)])
                });
                format!("n IN ({})", list.join(","))
            }
            1 => {
                let lo = rng.gen_range(0..100i64);
                format!("v BETWEEN {lo} AND {}", lo + rng.gen_range(0..100i64))
            }
            2 => format!("v >= {}", rng.gen_range(0..100i64)),
            3 => format!("v < {}", rng.gen_range(0..100i64)),
            _ => format!("k = {}", rng.gen_range(0..10i64)),
        });
        format!("SELECT * FROM t WHERE {}", conds.join(" AND "))
    }

    /// The vectorized filter agrees with a row-at-a-time scan for
    /// arbitrary relations and conjunctions, over every segment layout
    /// and over candidate lists in table order or grouped child by
    /// child (the order a cached tree's root slice hands a containment
    /// donor).
    #[test]
    fn prop_filter_matches_bruteforce() {
        prop::check("filter_matches_bruteforce", 64, 79, |rng, size| {
            let schema = Schema::new(vec![
                Field::new("n", AttrType::Categorical),
                Field::new("v", AttrType::Float),
                Field::new("k", AttrType::Int),
            ])
            .unwrap();
            let names = ["a", "b", "c", "d"];
            let rows = prop::vec(rng, 0, size, |rng| {
                (
                    rng.gen_range(0..4usize),
                    rng.gen_range(0..100i64),
                    rng.gen_range(0..10i64),
                )
            });
            let sql = arb_sql(rng);
            let q = parse_and_normalize(&sql, &schema).unwrap();
            // A donor's root slice: rows grouped by one attribute's
            // values in a random group order, table order within each.
            let by_name = rng.gen_bool(0.5);
            let group_rank: Vec<u64> = (0..10).map(|_| rng.next_u64()).collect();
            let group_of = |r: u32| {
                let (ni, _, k) = rows[r as usize];
                group_rank[if by_name { ni } else { k as usize }]
            };
            for shard_rows in [0, 1, 3, 7] {
                let mut b = RelationBuilder::new(schema.clone()).with_shard_rows(shard_rows);
                for (ni, v, k) in &rows {
                    b.push_row(&[names[*ni].into(), (*v as f64).into(), (*k).into()])
                        .unwrap();
                }
                let rel = b.finish().unwrap();
                let p = CompiledPredicate::compile(&q, &rel).unwrap();
                let matching = |candidates: &[u32]| -> Vec<u32> {
                    candidates
                        .iter()
                        .copied()
                        .filter(|&r| p.matches_row(&rel, r))
                        .collect()
                };
                let all = rel.all_row_ids();
                assert_eq!(
                    p.filter(&rel, None),
                    matching(&all),
                    "{sql} shard_rows {shard_rows}"
                );
                let mut grouped = all.clone();
                grouped.sort_by_key(|&r| group_of(r));
                assert_eq!(
                    p.filter(&rel, Some(&grouped)),
                    matching(&grouped),
                    "{sql} shard_rows {shard_rows} grouped by_name {by_name}"
                );
            }
            Ok(())
        });
    }

    #[test]
    fn compile_where_selects_a_residual_subset() {
        let rel = homes();
        let q = parse_and_normalize(
            "SELECT * FROM homes WHERE neighborhood IN ('Redmond') AND bedroomcount >= 4",
            rel.schema(),
        )
        .unwrap();
        // Keep only the bedroomcount conjunct (AttrId 2).
        let p = CompiledPredicate::compile_where(&q, &rel, |a| a == AttrId(2)).unwrap();
        assert_eq!(p.len(), 1);
        assert_eq!(p.filter(&rel, None), vec![1, 3]);
        // Keeping nothing matches everything.
        let p = CompiledPredicate::compile_where(&q, &rel, |_| false).unwrap();
        assert!(p.is_empty());
        assert_eq!(p.filter(&rel, None).len(), 5);
    }

    #[test]
    fn filter_cancellable_agrees_and_aborts() {
        let schema = Schema::new(vec![Field::new("v", AttrType::Int)]).unwrap();
        let mut b = RelationBuilder::new(schema);
        for i in 0..3000i64 {
            b.push_row(&[(i % 7).into()]).unwrap();
        }
        let rel = b.finish().unwrap();
        let q = parse_and_normalize("SELECT * FROM t WHERE v >= 3", rel.schema()).unwrap();
        let p = CompiledPredicate::compile(&q, &rel).unwrap();
        let plain = p.filter(&rel, None);
        assert!(plain.len() > 1000);
        // A never-firing callback reproduces the plain filter exactly.
        assert_eq!(
            p.filter_cancellable(&rel, None, &mut || false).unwrap(),
            plain
        );
        // Cancelling at the first poll discards the partial result.
        assert_eq!(p.filter_cancellable(&rel, None, &mut || true), None);
        // The callback is polled on a stride, not per row.
        let mut polls = 0usize;
        let _ = p.filter_cancellable(&rel, None, &mut || {
            polls += 1;
            false
        });
        assert_eq!(polls, 3000 / CompiledPredicate::CANCEL_STRIDE);
    }

    #[test]
    fn filter_range_agrees_with_candidate_list() {
        let rel = homes();
        let q = parse_and_normalize("SELECT * FROM homes WHERE bedroomcount = 3", rel.schema())
            .unwrap();
        let p = CompiledPredicate::compile(&q, &rel).unwrap();
        let range = p
            .filter_range_cancellable(&rel, 1, 5, &mut || false)
            .unwrap();
        let list = p.filter(&rel, Some(&[1, 2, 3, 4]));
        assert_eq!(range, list);
        assert_eq!(range, vec![4]);
        // Empty range matches nothing; cancellation discards.
        assert_eq!(
            p.filter_range_cancellable(&rel, 2, 2, &mut || false).unwrap(),
            Vec::<u32>::new()
        );
    }

    #[test]
    fn shard_survival_prunes_proven_misses_only() {
        let schema = Schema::new(vec![
            Field::new("n", AttrType::Categorical),
            Field::new("v", AttrType::Int),
        ])
        .unwrap();
        // Shards of 2: ("a",1)("a",2) | ("b",10)("b",11) | ("c",20)
        let mut b = RelationBuilder::new(schema).with_shard_rows(2);
        for (n, v) in [("a", 1i64), ("a", 2), ("b", 10), ("b", 11), ("c", 20)] {
            b.push_row(&[n.into(), v.into()]).unwrap();
        }
        let rel = b.finish().unwrap();
        let survival = |sql: &str| {
            let q = parse_and_normalize(sql, rel.schema()).unwrap();
            CompiledPredicate::compile(&q, &rel)
                .unwrap()
                .shard_survival(&rel)
        };
        assert_eq!(survival("SELECT * FROM t WHERE n IN ('b')"), vec![false, true, false]);
        assert_eq!(survival("SELECT * FROM t WHERE v BETWEEN 9 AND 12"), vec![false, true, false]);
        assert_eq!(survival("SELECT * FROM t WHERE v IN (2, 20)"), vec![true, false, true]);
        // Unknown code: CodeSet is empty -> Nothing -> all pruned.
        assert_eq!(survival("SELECT * FROM t WHERE n IN ('zzz')"), vec![false, false, false]);
        // Conjunction prunes the union of each conjunct's misses.
        assert_eq!(
            survival("SELECT * FROM t WHERE n IN ('a','c') AND v >= 15"),
            vec![false, false, true]
        );
        // No filters: everything survives.
        assert_eq!(survival("SELECT * FROM t"), vec![true, true, true]);
        // A one-segment relation is judged like any other.
        let q = parse_and_normalize(
            "SELECT * FROM homes WHERE bedroomcount = 6",
            homes().schema(),
        )
        .unwrap();
        let survival = CompiledPredicate::compile(&q, &homes())
            .unwrap()
            .shard_survival(&homes());
        assert_eq!(survival, vec![false], "no home has 6 bedrooms");
    }

    #[test]
    fn contradiction_short_circuits() {
        assert_eq!(
            run("SELECT * FROM homes WHERE price < 10 AND price > 20"),
            Vec::<u32>::new()
        );
    }
}
