//! Access-path planning: scan vs. index, decided per conjunct, with
//! per-shard pruning and morsel-parallel scans.
//!
//! The executor's historical strategy — compile the predicate and
//! scan every row — costs `O(N)` per query regardless of
//! selectivity. When the relation's segments carry [`ShardIndexes`],
//! this planner answers each conjunct from the matching index instead:
//!
//! - `IN` / `=` on a categorical attribute → union of the postings
//!   lists of the accepted dictionary codes;
//! - a numeric interval → a binary-searched slice of the sorted
//!   projection;
//! - a numeric `IN` → union of per-value equal-ranges.
//!
//! Costing uses **exact** cardinalities, read from the indexes for
//! free: postings lengths and slice widths. The plan is: sort the
//! index-answerable conjuncts by cardinality; if even the cheapest
//! selects more than a quarter (`SCAN_FALLBACK_NUM / SCAN_FALLBACK_DEN`)
//! of the relation, scan (the scan touches each row once; materializing
//! near-total row-id lists costs more than it saves). Otherwise start
//! from the smallest list and intersect larger lists smallest-first
//! (galloping kicks in for skewed sizes); a conjunct whose list would
//! dwarf the running candidate set (`INTERSECT_RATIO` = 8×) is cheaper
//! to apply as a **residual** row-at-a-time filter over the candidate
//! list, exactly like any conjunct no index can answer.
//!
//! **Segments.** A relation is a list of segments (see
//! `qcat_data::shard`), one or many, and both paths work per segment:
//!
//! - the scan path runs one morsel per segment through `qcat-pool`,
//!   weighed by rows, so a light scan runs inline (budget `Gas`
//!   polled per segment and every `CANCEL_STRIDE` rows inside one,
//!   caller's recorder/trace propagated, results concatenated by
//!   segment index — byte-identical at any thread count);
//! - the index path reads each conjunct's per-segment lists and
//!   concatenates them in segment order (global row ids over disjoint
//!   increasing ranges need no merge);
//! - both paths first **prune** segments whose
//!   [`SegmentSummary`](qcat_data::SegmentSummary) proves they cannot
//!   match — numeric `[min, max]` disjoint from the interval, or no
//!   accepted dictionary code present. Pruning is proof-based, so it
//!   changes how much work runs, never which rows come back; exact
//!   index cardinalities are summed over surviving segments only.
//!
//! Every cold path yields ascending row ids, so index output is
//! bit-compatible with scan output; `tests` pin that equality on
//! every fixture, in every layout.
//!
//! **Donors.** When [`ExecOptions::donor`] holds the rows of a
//! subsuming query, none of the above runs: the same residual filter
//! the index path uses keeps the donor rows that pass the residual
//! conjuncts, in donor order.

use crate::executor::ExecError;
use qcat_data::{intersect_sorted, union_sorted, AttrId, Relation, Segment, ShardIndexes};
use qcat_fault::BudgetExceeded;
use qcat_pool::{PoolError, ThreadPool};
use qcat_sql::eval::CompiledPredicate;
use qcat_sql::normalize::{AttrCondition, NumericRange};
use qcat_sql::NormalizedQuery;

/// Which access path a cold execution may take.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum AccessPath {
    /// Cost-based choice: index when present and selective, else scan.
    #[default]
    Auto,
    /// Always scan, even when indexes exist (baseline / differential
    /// testing).
    ForceScan,
    /// Use every index-answerable conjunct regardless of selectivity
    /// (exercises the kernels; still falls back to scan when the
    /// relation has no indexes).
    ForceIndex,
}

/// Auto falls back to a scan when the cheapest index conjunct selects
/// more than `SCAN_FALLBACK_NUM / SCAN_FALLBACK_DEN` of the relation.
const SCAN_FALLBACK_NUM: usize = 1;
/// See [`SCAN_FALLBACK_NUM`].
const SCAN_FALLBACK_DEN: usize = 4;

/// A further index list is intersected eagerly only while its
/// cardinality is below this multiple of the current candidate size;
/// beyond that, probing the candidate rows directly (residual filter)
/// touches less memory.
const INTERSECT_RATIO: usize = 8;

/// How a query's rows were produced, for spans and tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlanExplain {
    /// True when any conjunct was answered from an index.
    pub used_index: bool,
    /// Conjuncts answered from indexes.
    pub index_conjuncts: usize,
    /// Conjuncts applied as a row-at-a-time residual filter.
    pub residual_conjuncts: usize,
    /// Total row ids fetched from index lists.
    pub rows_fetched: usize,
    /// Segments skipped outright because their summaries prove no row
    /// of theirs can match.
    pub shards_pruned: usize,
}

impl PlanExplain {
    fn scan(conjuncts: usize, shards_pruned: usize) -> PlanExplain {
        PlanExplain {
            used_index: false,
            index_conjuncts: 0,
            residual_conjuncts: conjuncts,
            rows_fetched: 0,
            shards_pruned,
        }
    }
}

/// One index-answerable conjunct with its exact result cardinality
/// (summed over surviving shards).
struct IndexConjunct {
    attr: AttrId,
    est: usize,
    fetch: Fetch,
}

enum Fetch {
    /// Union of postings lists for these dictionary codes.
    Codes(Vec<u32>),
    /// Sorted-projection slice for this interval.
    Range(NumericRange),
    /// Union of per-value equal-ranges.
    Values(Vec<f64>),
}

/// How [`crate::execute`] and [`select_rows`] find a query's rows.
/// `ExecOptions::default()` is a cold execution on the cost-based
/// path at auto thread width.
#[derive(Debug, Clone, Copy, Default)]
pub struct ExecOptions<'a> {
    /// Scan vs. index for a cold execution (unused with a donor).
    pub path: AccessPath,
    /// Thread width of segment scans (`0` = auto via
    /// `QCAT_THREADS`). Rows are byte-identical at every width.
    pub threads: usize,
    /// Rows of a subsuming query to filter instead of the relation.
    pub donor: Option<Donor<'a>>,
}

/// Rows already proven to contain the answer: the rows of a query
/// that subsumes this one (`qcat_sql::subsumes`), in any order. Only
/// the `residual` conjuncts (`qcat_sql::residual_attrs`) still
/// discriminate, so the planner filters these rows by them alone.
#[derive(Debug, Clone, Copy)]
pub struct Donor<'a> {
    /// The subsuming query's row ids.
    pub rows: &'a [u32],
    /// Attributes whose conditions the subsuming query does not imply.
    pub residual: &'a [AttrId],
}

/// Select the matching row ids of `query` against `relation`.
///
/// With a donor, the residual conjuncts filter the donor's rows and
/// the rows keep the donor's order. Otherwise `opts.path` picks scan
/// or index at `opts.threads`, and rows come back ascending (table
/// order) on every path.
pub fn select_rows(
    relation: &Relation,
    query: &NormalizedQuery,
    opts: &ExecOptions<'_>,
) -> Result<(Vec<u32>, PlanExplain), ExecError> {
    let ExecOptions {
        path,
        threads,
        donor,
    } = *opts;
    // Check once before any work: small relations and donors may
    // finish under the filters' poll stride, but an already-expired
    // deadline must still refuse deterministically on every path.
    if let Some(g) = qcat_fault::current_gas() {
        g.check()?;
    }
    if let Some(donor) = donor {
        let rows = residual_filter(relation, query, donor.residual, donor.rows, "exec.residual")?;
        return Ok((rows, PlanExplain::scan(donor.residual.len(), 0)));
    }
    if let Some(fault) = qcat_fault::point("exec.plan") {
        return Err(fault.into());
    }
    // Segment pruning mask: which segments could hold a match at all,
    // judged per condition against their summaries. The AND semantics
    // of a conjunction let any conjunct's proven miss exclude the
    // segment for the whole query.
    let predicate = CompiledPredicate::compile(query, relation)?;
    let alive = predicate.shard_survival(relation);
    let shards_pruned = alive.iter().filter(|&&live| !live).count();
    if path == AccessPath::ForceScan || !relation.has_indexes() {
        let rows = morsel_scan(relation, &predicate, &alive, threads)?;
        return Ok((
            rows,
            PlanExplain::scan(query.conditions.len(), shards_pruned),
        ));
    }

    let mut plan_span = qcat_obs::span!("exec.plan", conjuncts = query.conditions.len());
    if shards_pruned > 0 {
        qcat_obs::counter("exec.plan.shards_pruned", shards_pruned as i64);
    }
    let alive = alive.as_slice();

    let mut eligible: Vec<IndexConjunct> = Vec::with_capacity(query.conditions.len());
    let mut residual: Vec<AttrId> = Vec::new();
    for (&attr, cond) in &query.conditions {
        match classify(relation, attr, cond, alive) {
            Some(c) => eligible.push(c),
            None => residual.push(attr),
        }
    }
    eligible.sort_by_key(|c| c.est);

    let n = relation.len();
    let selective = eligible.first().is_some_and(|c| {
        c.est == 0 || c.est.saturating_mul(SCAN_FALLBACK_DEN) <= n.saturating_mul(SCAN_FALLBACK_NUM)
    });
    let use_index = match path {
        AccessPath::ForceIndex => !eligible.is_empty(),
        _ => selective,
    };
    if qcat_obs::active() {
        plan_span.set("eligible", eligible.len());
        plan_span.set("shards_pruned", shards_pruned);
        plan_span.set("path", if use_index { "index" } else { "scan" });
    }
    drop(plan_span);
    if !use_index {
        qcat_obs::counter("exec.plan.scan_fallback", 1);
        let rows = morsel_scan(relation, &predicate, alive, threads)?;
        return Ok((
            rows,
            PlanExplain::scan(query.conditions.len(), shards_pruned),
        ));
    }

    let mut span = qcat_obs::span!("exec.index.select", conjuncts = eligible.len());
    let mut explain = PlanExplain {
        used_index: true,
        index_conjuncts: 0,
        residual_conjuncts: residual.len(),
        rows_fetched: 0,
        shards_pruned,
    };
    // An unsatisfiable conjunct (cardinality 0) decides the query.
    if eligible.first().is_some_and(|c| c.est == 0) {
        explain.index_conjuncts = 1;
        if qcat_obs::active() {
            span.set("rows_matched", 0usize);
        }
        return Ok((Vec::new(), explain));
    }

    let gas = qcat_fault::current_gas();
    let mut rows: Vec<u32> = Vec::new();
    for (i, c) in eligible.iter().enumerate() {
        // One checkpoint per conjunct: fetching and intersecting a
        // posting list is the unit of work between cancellation polls.
        if let Some(g) = &gas {
            g.check()?;
        }
        if let Some(fault) = qcat_fault::point("exec.fetch") {
            return Err(fault.into());
        }
        let eager = i == 0
            || path == AccessPath::ForceIndex
            || c.est <= rows.len().saturating_mul(INTERSECT_RATIO);
        if !eager {
            residual.push(c.attr);
            continue;
        }
        let list = fetch_rows(relation, c, alive);
        explain.rows_fetched += list.len();
        explain.index_conjuncts += 1;
        rows = if i == 0 {
            list
        } else {
            intersect_sorted(&rows, &list)
        };
        if rows.is_empty() {
            break;
        }
    }
    qcat_obs::counter("exec.index.used", 1);
    qcat_obs::counter("exec.index.rows_fetched", explain.rows_fetched as i64);

    explain.residual_conjuncts = residual.len();
    if !rows.is_empty() && !residual.is_empty() {
        rows = residual_filter(relation, query, &residual, &rows, "exec.scan")?;
    }
    if qcat_obs::active() {
        span.set("rows_matched", rows.len());
    }
    Ok((rows, explain))
}

/// Residual filter of index-path candidates or donor rows: compile
/// the conditions on `attrs` and keep the candidates that pass them,
/// in candidate order. `site` is the filter's fault point.
fn residual_filter(
    relation: &Relation,
    query: &NormalizedQuery,
    attrs: &[AttrId],
    candidates: &[u32],
    site: &'static str,
) -> Result<Vec<u32>, ExecError> {
    if let Some(fault) = qcat_fault::point(site) {
        return Err(fault.into());
    }
    let predicate = CompiledPredicate::compile_where(query, relation, |a| attrs.contains(&a))?;
    match qcat_fault::current_gas() {
        None => Ok(predicate.filter(relation, Some(candidates))),
        Some(gas) => {
            // filter_cancellable polls this closure every
            // CANCEL_STRIDE rows; a trip mid-filter discards the
            // partial result so callers never see truncated rows.
            let mut cancel = || !gas.checkpoint();
            predicate
                .filter_cancellable(relation, Some(candidates), &mut cancel)
                .ok_or_else(|| {
                    ExecError::Budget(gas.exceeded().unwrap_or(BudgetExceeded::Cancelled))
                })
        }
    }
}

/// Full scan: skip the segments `alive` rules out, then filter each
/// survivor as one `qcat-pool` morsel and concatenate the matches by
/// segment index. Morsels are weighed by rows, so a scan below one
/// worker's worth of rows runs inline. Segment ranges are disjoint
/// and increasing, so the concatenation is ascending.
fn morsel_scan(
    relation: &Relation,
    predicate: &CompiledPredicate,
    alive: &[bool],
    threads: usize,
) -> Result<Vec<u32>, ExecError> {
    if let Some(fault) = qcat_fault::point("exec.scan") {
        return Err(fault.into());
    }
    let live: Vec<(usize, &Segment)> = live_segments(relation, alive).collect();
    let pruned = alive.len() - live.len();
    if pruned > 0 {
        qcat_obs::counter("exec.scan.shards_pruned", pruned as i64);
    }
    let work = live.iter().map(|(_, seg)| seg.len() as u64).sum();
    let pool = ThreadPool::new(threads);
    let mut span = qcat_obs::span!(
        "exec.scan.morsels",
        shards = live.len(),
        threads = pool.width_for(work)
    );
    let parts = pool
        .try_map_work(&live, work, |_, &(s, seg)| {
            let _item = qcat_obs::span!("exec.scan.shard", shard = s, rows = seg.len());
            // The worker sees the caller's gas via pool propagation;
            // polling it inside the segment bounds deadline overshoot
            // to CANCEL_STRIDE rows.
            let (start, end) = (seg.start(), seg.end());
            match qcat_fault::current_gas() {
                None => predicate.filter_range_cancellable(relation, start, end, &mut || false),
                Some(gas) => {
                    let mut cancel = || !gas.checkpoint();
                    predicate.filter_range_cancellable(relation, start, end, &mut cancel)
                }
            }
        })
        .map_err(pool_to_exec)?;
    // Sized once, so a multi-segment answer holds no growth slack for
    // the answer cache to charge.
    let mut rows = Vec::with_capacity(parts.iter().flatten().map(Vec::len).sum());
    for part in parts {
        match part {
            Some(p) => rows.extend_from_slice(&p),
            // A segment aborted mid-filter on a tripped budget; discard
            // everything — truncated results never leave the executor.
            None => {
                let reason = qcat_fault::current_gas()
                    .and_then(|g| g.exceeded())
                    .unwrap_or(BudgetExceeded::Cancelled);
                return Err(ExecError::Budget(reason));
            }
        }
    }
    if qcat_obs::active() {
        span.set("rows_matched", rows.len());
    }
    Ok(rows)
}

/// Map a pool failure out of a scan/index-build morsel onto the
/// executor's error taxonomy.
fn pool_to_exec(e: PoolError) -> ExecError {
    match e {
        PoolError::Cancelled(reason) => ExecError::Budget(reason),
        PoolError::Fault(fault) => ExecError::Fault(fault),
        PoolError::TaskPanicked { index, message } => {
            ExecError::Internal(format!("scan morsel {index} panicked: {message}"))
        }
    }
}

/// The segments of `relation` that survive `alive`, with their index.
fn live_segments<'a>(
    relation: &'a Relation,
    alive: &'a [bool],
) -> impl Iterator<Item = (usize, &'a Segment)> + 'a {
    (relation.shards().iter().enumerate())
        .filter(move |(i, _)| alive.get(*i).copied().unwrap_or(true))
        .map(|(i, seg)| (i, &**seg))
}

/// The indexes of the segments that survive `alive`.
fn live_indexes<'a>(
    relation: &'a Relation,
    alive: &'a [bool],
) -> impl Iterator<Item = &'a ShardIndexes> + 'a {
    live_segments(relation, alive).filter_map(|(_, seg)| seg.indexes())
}

/// Can `cond` be answered by an index on `attr`? Returns the conjunct
/// with its exact cardinality summed over surviving segments; `None`
/// routes it to the residual filter (which also surfaces any
/// type-drift error the scan path would report).
fn classify(
    relation: &Relation,
    attr: AttrId,
    cond: &AttrCondition,
    alive: &[bool],
) -> Option<IndexConjunct> {
    // Every segment indexes the same columns; segment 0 (always
    // present) answers "is this attribute indexed in the right shape?".
    let shape = relation.shards().first()?.indexes()?;
    match cond {
        AttrCondition::InStr(values) => {
            shape.postings(attr)?;
            let dict = relation.column(attr).dictionary()?;
            let codes: Vec<u32> = values.iter().filter_map(|v| dict.lookup(v)).collect();
            let est = live_indexes(relation, alive)
                .map(|sh| {
                    sh.postings(attr).map_or(0, |p| {
                        codes.iter().map(|&c| p.count_for_code(c)).sum::<usize>()
                    })
                })
                .sum();
            Some(IndexConjunct {
                attr,
                est,
                fetch: Fetch::Codes(codes),
            })
        }
        AttrCondition::Range(r) => {
            shape.sorted(attr)?;
            let est = if r.is_empty() {
                0
            } else {
                live_indexes(relation, alive)
                    .map(|sh| {
                        sh.sorted(attr)
                            .map_or(0, |s| s.count_in(r.lo, r.lo_inclusive, r.hi, r.hi_inclusive))
                    })
                    .sum()
            };
            Some(IndexConjunct {
                attr,
                est,
                fetch: Fetch::Range(*r),
            })
        }
        AttrCondition::InNum(values) => {
            shape.sorted(attr)?;
            let est = live_indexes(relation, alive)
                .map(|sh| {
                    sh.sorted(attr).map_or(0, |s| {
                        values.iter().map(|&v| s.count_eq(v)).sum::<usize>()
                    })
                })
                .sum();
            Some(IndexConjunct {
                attr,
                est,
                fetch: Fetch::Values(values.clone()),
            })
        }
    }
}

/// Materialize the ascending row-id list of one index conjunct:
/// per-segment lists (borrowed from the index wherever possible),
/// concatenated in segment order. Row ids are global and segment
/// ranges increase, so the concatenation is globally ascending.
fn fetch_rows(relation: &Relation, c: &IndexConjunct, alive: &[bool]) -> Vec<u32> {
    let mut out = Vec::new();
    for sh in live_indexes(relation, alive) {
        match &c.fetch {
            Fetch::Codes(codes) => {
                let Some(postings) = sh.postings(c.attr) else {
                    continue;
                };
                // Postings of distinct codes are disjoint; union =
                // merge of borrowed lists.
                let lists: Vec<&[u32]> =
                    codes.iter().map(|&cd| postings.rows_for_code(cd)).collect();
                out.extend_from_slice(&union_sorted(&lists));
            }
            Fetch::Range(r) => {
                let Some(sorted) = sh.sorted(c.attr) else {
                    continue;
                };
                if r.is_empty() {
                    continue;
                }
                // The projection slice is value-ordered; one copy +
                // sort per (probe, segment) restores table order. This
                // is the only copy an index probe makes.
                let from = out.len();
                out.extend_from_slice(sorted.slice_in(r.lo, r.lo_inclusive, r.hi, r.hi_inclusive));
                out[from..].sort_unstable();
            }
            Fetch::Values(values) => {
                let Some(sorted) = sh.sorted(c.attr) else {
                    continue;
                };
                // Equal-range slices are already row-ascending (the
                // sort tiebreaks on row id), so they merge borrowed.
                let lists: Vec<&[u32]> = values.iter().map(|&v| sorted.slice_eq(v)).collect();
                out.extend_from_slice(&union_sorted(&lists));
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use qcat_data::{AttrType, Field, RelationBuilder, Schema};
    use qcat_sql::parse_and_normalize;

    /// Small fixture with one attribute of every index shape plus a
    /// single-distinct-value attribute (`city` is always "Seattle").
    /// `shard_rows` = 0 keeps it unsharded.
    fn homes_sharded(indexed: bool, shard_rows: usize) -> Relation {
        let schema = Schema::new(vec![
            Field::new("neighborhood", AttrType::Categorical),
            Field::new("price", AttrType::Float),
            Field::new("bedroomcount", AttrType::Int),
            Field::new("city", AttrType::Categorical),
        ])
        .unwrap();
        let rows: &[(&str, f64, i64)] = &[
            ("Redmond", 210_000.0, 3),
            ("Bellevue", 260_000.0, 4),
            ("Seattle", 305_000.0, 2),
            ("Redmond", 199_000.0, 5),
            ("Issaquah", 250_000.0, 3),
            ("Bellevue", 149_000.0, 1),
            ("Seattle", 411_000.0, 4),
            ("Redmond", 230_000.0, 3),
        ];
        let mut b = RelationBuilder::with_capacity(schema, rows.len()).with_shard_rows(shard_rows);
        for (n, p, beds) in rows {
            b.push_row(&[(*n).into(), (*p).into(), (*beds).into(), "Seattle".into()])
                .unwrap();
        }
        if indexed {
            b = b.with_indexes();
        }
        b.finish().unwrap()
    }

    fn opts(path: AccessPath, threads: usize) -> ExecOptions<'static> {
        ExecOptions {
            path,
            threads,
            donor: None,
        }
    }

    fn homes(indexed: bool) -> Relation {
        homes_sharded(indexed, 0)
    }

    /// Every query must match the same rows on every path, every
    /// shard layout, and every thread width; `Auto` on an indexed
    /// relation must additionally agree with `Auto` on an unindexed
    /// one.
    fn assert_paths_agree(sql: &str) -> Vec<u32> {
        let plain = homes(false);
        let q = parse_and_normalize(sql, plain.schema()).unwrap();
        let (scan, se) = select_rows(&plain, &q, &opts(AccessPath::Auto, 0)).unwrap();
        assert!(!se.used_index, "unindexed relation must scan: {sql}");
        for shard_rows in [0, 3] {
            for indexed in [false, true] {
                let rel = homes_sharded(indexed, shard_rows);
                for path in [AccessPath::Auto, AccessPath::ForceScan, AccessPath::ForceIndex] {
                    for threads in [1, 2, 8] {
                        let (rows, _) =
                            select_rows(&rel, &q, &opts(path, threads)).unwrap();
                        assert_eq!(
                            rows, scan,
                            "{path:?} diverged on {sql} (shard_rows={shard_rows}, \
                             indexed={indexed}, threads={threads})"
                        );
                    }
                }
            }
        }
        let indexed = homes(true);
        let (_, fe) = select_rows(&indexed, &q, &opts(AccessPath::ForceIndex, 0)).unwrap();
        assert!(
            fe.used_index || q.conditions.is_empty(),
            "ForceIndex should engage indexes when conjuncts exist: {sql}"
        );
        scan
    }

    #[test]
    fn selective_in_list_uses_index() {
        let rel = homes(true);
        let q = parse_and_normalize(
            "SELECT * FROM homes WHERE neighborhood IN ('Issaquah')",
            rel.schema(),
        )
        .unwrap();
        let (rows, e) = select_rows(&rel, &q, &opts(AccessPath::Auto, 0)).unwrap();
        assert_eq!(rows, vec![4]);
        assert!(e.used_index);
        assert_eq!(e.index_conjuncts, 1);
        assert_eq!(e.residual_conjuncts, 0);
        assert_eq!(e.shards_pruned, 0, "the one segment holds Issaquah");
    }

    #[test]
    fn unselective_conjunct_falls_back_to_scan() {
        // `city = 'Seattle'` matches every row; Auto must refuse the
        // index, ForceIndex must still give identical rows.
        let rel = homes(true);
        let q = parse_and_normalize(
            "SELECT * FROM homes WHERE city IN ('Seattle')",
            rel.schema(),
        )
        .unwrap();
        let (rows, e) = select_rows(&rel, &q, &opts(AccessPath::Auto, 0)).unwrap();
        assert_eq!(rows.len(), rel.len());
        assert!(!e.used_index);
        let (rows, e) = select_rows(&rel, &q, &opts(AccessPath::ForceIndex, 0)).unwrap();
        assert_eq!(rows.len(), rel.len());
        assert!(e.used_index);
    }

    #[test]
    fn sharded_paths_prune_and_agree() {
        // Shards of 3 over 8 rows: [0..3), [3..6), [6..8). Issaquah
        // (row 4) lives only in shard 1; price > 400000 only in
        // shard 2.
        let rel = homes_sharded(true, 3);
        assert_eq!(rel.shards().shard_count(), 3);
        let q = parse_and_normalize(
            "SELECT * FROM homes WHERE neighborhood IN ('Issaquah')",
            rel.schema(),
        )
        .unwrap();
        let (rows, e) = select_rows(&rel, &q, &opts(AccessPath::Auto, 0)).unwrap();
        assert_eq!(rows, vec![4]);
        assert!(e.used_index);
        assert_eq!(e.shards_pruned, 2, "code 'Issaquah' absent from shards 0 and 2");
        let q = parse_and_normalize("SELECT * FROM homes WHERE price > 400000", rel.schema())
            .unwrap();
        let (rows, e) = select_rows(&rel, &q, &opts(AccessPath::Auto, 0)).unwrap();
        assert_eq!(rows, vec![6]);
        assert_eq!(e.shards_pruned, 2);
        // The scan path prunes identically.
        let unindexed = homes_sharded(false, 3);
        let (rows, e) = select_rows(&unindexed, &q, &opts(AccessPath::Auto, 0)).unwrap();
        assert_eq!(rows, vec![6]);
        assert!(!e.used_index);
        assert_eq!(e.shards_pruned, 2);
    }

    #[test]
    fn conjunction_intersects_smallest_first() {
        let rows = assert_paths_agree(
            "SELECT * FROM homes WHERE neighborhood IN ('Redmond','Bellevue') \
             AND price BETWEEN 200000 AND 300000 AND bedroomcount = 3",
        );
        assert_eq!(rows, vec![0, 7]);
    }

    #[test]
    fn empty_result_set() {
        let rows = assert_paths_agree(
            "SELECT * FROM homes WHERE neighborhood IN ('Redmond') AND price > 1000000",
        );
        assert!(rows.is_empty());
    }

    #[test]
    fn unknown_in_value_matches_nothing() {
        let rows = assert_paths_agree("SELECT * FROM homes WHERE neighborhood IN ('Atlantis')");
        assert!(rows.is_empty());
    }

    #[test]
    fn degenerate_range_matches_nothing() {
        // lo > hi: NumericRange::is_empty, cardinality 0 on the index
        // side, CompiledCondition::Nothing on the scan side.
        let rows = assert_paths_agree("SELECT * FROM homes WHERE price BETWEEN 500000 AND 100000");
        assert!(rows.is_empty());
        let rows = assert_paths_agree("SELECT * FROM homes WHERE price < 100 AND price > 200");
        assert!(rows.is_empty());
    }

    #[test]
    fn select_every_row() {
        let rows = assert_paths_agree("SELECT * FROM homes WHERE price >= 0");
        assert_eq!(rows.len(), homes(false).len());
        let rows = assert_paths_agree("SELECT * FROM homes");
        assert_eq!(rows.len(), homes(false).len());
    }

    #[test]
    fn single_distinct_value_attribute() {
        let rows = assert_paths_agree(
            "SELECT * FROM homes WHERE city IN ('Seattle') AND bedroomcount >= 4",
        );
        assert_eq!(rows, vec![1, 3, 6]);
    }

    #[test]
    fn numeric_in_set_via_sorted_index() {
        let rows = assert_paths_agree("SELECT * FROM homes WHERE bedroomcount IN (2, 5)");
        assert_eq!(rows, vec![2, 3]);
    }

    #[test]
    fn range_boundaries_inclusive_and_exclusive() {
        assert_paths_agree("SELECT * FROM homes WHERE price <= 210000");
        assert_paths_agree("SELECT * FROM homes WHERE price < 210000");
        assert_paths_agree("SELECT * FROM homes WHERE price >= 411000");
        assert_paths_agree("SELECT * FROM homes WHERE price > 411000");
        assert_paths_agree("SELECT * FROM homes WHERE bedroomcount BETWEEN 3 AND 3");
    }

    #[test]
    fn index_path_honors_fault_points_and_deadline() {
        let rel = homes(true);
        let q = parse_and_normalize(
            "SELECT * FROM homes WHERE neighborhood IN ('Issaquah')",
            rel.schema(),
        )
        .unwrap();
        let plan = qcat_fault::FaultPlan::parse("exec.fetch:error").unwrap();
        let err = qcat_fault::with_plan(&plan, || {
            select_rows(&rel, &q, &opts(AccessPath::Auto, 0)).unwrap_err()
        });
        assert_eq!(err, ExecError::Fault(qcat_fault::Fault { site: "exec.fetch" }));

        let budget =
            qcat_fault::Budget::UNLIMITED.with_deadline(std::time::Duration::ZERO);
        let gas = budget.start();
        let err = qcat_fault::with_budget(&gas, || {
            select_rows(&rel, &q, &opts(AccessPath::Auto, 0)).unwrap_err()
        });
        assert_eq!(err, ExecError::Budget(BudgetExceeded::Deadline));
    }

    #[test]
    fn morsel_scan_honors_budget_and_pool_faults() {
        let rel = homes_sharded(false, 3);
        let q = parse_and_normalize("SELECT * FROM homes WHERE price >= 0", rel.schema())
            .unwrap();
        // An expired deadline refuses at every thread width.
        let gas = qcat_fault::Budget::UNLIMITED
            .with_deadline(std::time::Duration::ZERO)
            .start();
        for threads in [1, 2, 8] {
            let err = qcat_fault::with_budget(&gas, || {
                select_rows(&rel, &q, &opts(AccessPath::Auto, threads)).unwrap_err()
            });
            assert_eq!(err, ExecError::Budget(BudgetExceeded::Deadline), "threads={threads}");
        }
        // A pool.task error fault inside a scan morsel surfaces as a
        // structured executor fault.
        let plan = qcat_fault::FaultPlan::parse("pool.task:error").unwrap();
        let err = qcat_fault::with_plan(&plan, || {
            select_rows(&rel, &q, &opts(AccessPath::Auto, 2)).unwrap_err()
        });
        assert_eq!(err, ExecError::Fault(qcat_fault::Fault { site: "pool.task" }));
    }

    #[test]
    fn rows_are_ascending_on_every_path() {
        for shard_rows in [0, 3] {
            let rel = homes_sharded(true, shard_rows);
            let q = parse_and_normalize(
                "SELECT * FROM homes WHERE neighborhood IN ('Redmond','Seattle','Bellevue')",
                rel.schema(),
            )
            .unwrap();
            for path in [AccessPath::Auto, AccessPath::ForceScan, AccessPath::ForceIndex] {
                let (rows, _) = select_rows(&rel, &q, &opts(path, 0)).unwrap();
                assert!(rows.windows(2).all(|w| w[0] < w[1]), "{path:?}");
            }
        }
    }
}
