//! Equi-width numeric partitioning — the `No cost` baseline of
//! Section 6.1: buckets of width 5× the splitpoint separation interval
//! aligned to multiples of the width, with empty buckets removed.

use crate::label::CategoryLabel;
use crate::partition::{Part, Partitioning};
use crate::probability::ProbCache;
use qcat_data::{AttrId, Relation};
use qcat_sql::NumericRange;

/// Split `tset` into equal-width buckets of `width`, aligned so bucket
/// boundaries are multiples of `width` (the paper splits price at
/// every multiple of 25000, square footage at every 500, …), and
/// scatter its rows into them (see `partition::scatter`).
///
/// Bucket probabilities come from `probs` so downstream pricing and
/// attachment can read them off the parts directly.
///
/// Returns `None` when the attribute has no spread in `tset`.
pub fn equiwidth_split(
    relation: &Relation,
    attr: AttrId,
    tset: &[u32],
    width: f64,
    probs: &ProbCache<'_>,
) -> Option<(Partitioning, Vec<u32>)> {
    assert!(width > 0.0 && width.is_finite(), "width must be positive");
    let column = relation.column(attr);
    let (vmin, vmax) = column.numeric_min_max(tset)?;
    if vmin >= vmax {
        return None;
    }
    let first = (vmin / width).floor();
    let bucket_of = |v: f64| -> usize { ((v / width).floor() - first) as usize };
    let n_buckets = bucket_of(vmax) + 1;
    if n_buckets < 2 {
        return None;
    }
    // Non-numeric cells cannot be bucketed and are skipped.
    let bucketed = || {
        column.runs(tset).flat_map(move |(chunk, start, run)| {
            run.iter().filter_map(move |&row| {
                Some((row, bucket_of(chunk.numeric((row - start) as usize)?)))
            })
        })
    };
    let mut sizes = vec![0usize; n_buckets];
    for (_, bucket) in bucketed() {
        sizes[bucket] += 1;
    }
    let rows = super::scatter(sizes.iter().copied(), bucketed())?;
    let parts = sizes
        .iter()
        .enumerate()
        .filter(|&(_, &size)| size > 0)
        .map(|(i, &size)| {
            let lo = (first + i as f64) * width;
            let range = if i + 1 == n_buckets {
                // Close the final bucket so vmax itself is covered.
                NumericRange::closed(lo, vmax.max(lo))
            } else {
                NumericRange::half_open(lo, lo + width)
            };
            Part {
                p_explore: probs.p_explore_range(attr, &range),
                label: CategoryLabel::range(attr, range),
                size,
            }
        })
        .collect();
    Some((Partitioning { attr, parts }, rows))
}

#[cfg(test)]
mod tests {
    use super::*;
    use qcat_data::{AttrType, Field, RelationBuilder, Schema};
    use qcat_datagen::prop;
    use qcat_workload::{PreprocessConfig, WorkloadLog, WorkloadStatistics};

    fn price_relation(values: &[f64]) -> Relation {
        let schema = Schema::new(vec![Field::new("price", AttrType::Float)]).unwrap();
        let mut b = RelationBuilder::new(schema);
        for &v in values {
            b.push_row(&[v.into()]).unwrap();
        }
        b.finish().unwrap()
    }

    fn empty_stats(rel: &Relation) -> WorkloadStatistics {
        let schema = rel.schema().clone();
        let log = WorkloadLog::parse([], &schema, None);
        WorkloadStatistics::build(&log, &schema, &PreprocessConfig::new())
    }

    #[test]
    fn aligned_buckets() {
        // Width 25000; prices from 210k to 260k → buckets [200k,225k),
        // [225k,250k), [250k,260k].
        let rel = price_relation(&[210_000.0, 230_000.0, 226_000.0, 260_000.0]);
        let stats = empty_stats(&rel);
        let probs = ProbCache::new(&stats);
        let (p, rows) =
            equiwidth_split(&rel, AttrId(0), &rel.all_row_ids(), 25_000.0, &probs).unwrap();
        let labels: Vec<String> = p.parts.iter().map(|p| p.label.render(&rel)).collect();
        assert_eq!(
            labels,
            vec![
                "price: 200000 - 225000",
                "price: 225000 - 250000",
                "price: 250000 - 260000"
            ]
        );
        let sizes: Vec<usize> = p.parts.iter().map(|p| p.size).collect();
        assert_eq!(sizes, vec![1, 2, 1]);
        assert_eq!(rows, vec![0, 1, 2, 3]);
        // Empty workload → nobody drills in.
        assert!(p.parts.iter().all(|p| p.p_explore == 0.0));
    }

    #[test]
    fn empty_buckets_removed() {
        let rel = price_relation(&[10.0, 990.0]); // width 100 → gap in the middle
        let stats = empty_stats(&rel);
        let probs = ProbCache::new(&stats);
        let (p, _) = equiwidth_split(&rel, AttrId(0), &rel.all_row_ids(), 100.0, &probs).unwrap();
        assert_eq!(p.len(), 2);
        assert_eq!(p.total_tuples(), 2);
    }

    #[test]
    fn degenerate_cases() {
        let rel = price_relation(&[5.0, 5.0]);
        let stats = empty_stats(&rel);
        let probs = ProbCache::new(&stats);
        assert!(equiwidth_split(&rel, AttrId(0), &rel.all_row_ids(), 10.0, &probs).is_none());
        // All values in one bucket.
        let rel = price_relation(&[12.0, 17.0]);
        let stats = empty_stats(&rel);
        let probs = ProbCache::new(&stats);
        assert!(equiwidth_split(&rel, AttrId(0), &rel.all_row_ids(), 100.0, &probs).is_none());
        // Empty tset.
        assert!(equiwidth_split(&rel, AttrId(0), &[], 100.0, &probs).is_none());
    }

    #[test]
    fn negative_values_align() {
        let rel = price_relation(&[-150.0, -20.0, 40.0]);
        let stats = empty_stats(&rel);
        let probs = ProbCache::new(&stats);
        let (p, _) = equiwidth_split(&rel, AttrId(0), &rel.all_row_ids(), 100.0, &probs).unwrap();
        let labels: Vec<String> = p.parts.iter().map(|p| p.label.render(&rel)).collect();
        assert_eq!(
            labels,
            vec!["price: -200 - -100", "price: -100 - 0", "price: 0 - 40"]
        );
    }

    #[test]
    fn bucket_probabilities_match_the_estimator() {
        let rel = price_relation(&[10.0, 120.0, 260.0]);
        let schema = rel.schema().clone();
        let log = WorkloadLog::parse(
            ["SELECT * FROM t WHERE price BETWEEN 100 AND 200"],
            &schema,
            None,
        );
        let cfg = PreprocessConfig::new().with_interval(AttrId(0), 100.0);
        let stats = WorkloadStatistics::build(&log, &schema, &cfg);
        let probs = ProbCache::new(&stats);
        let (p, _) = equiwidth_split(&rel, AttrId(0), &rel.all_row_ids(), 100.0, &probs).unwrap();
        let est = probs.estimator();
        for part in &p.parts {
            assert_eq!(part.p_explore, est.p_explore(&part.label));
        }
        // The middle bucket [100,200) overlaps the lone query.
        assert_eq!(p.parts[1].p_explore, 1.0);
    }

    /// Buckets always partition the tset and every row satisfies its
    /// bucket label.
    #[test]
    fn prop_partition_invariants() {
        prop::check("equiwidth_partition_invariants", 64, 59, |rng, size| {
            let values = prop::vec(rng, 2, size, |rng| rng.gen_range(-1e4..1e4));
            let width = rng.gen_range(1.0..500.0);
            let rel = price_relation(&values);
            let stats = empty_stats(&rel);
            let probs = ProbCache::new(&stats);
            let tset = rel.all_row_ids();
            if let Some((p, rows)) = equiwidth_split(&rel, AttrId(0), &tset, width, &probs) {
                assert_eq!(p.total_tuples(), values.len());
                let mut seen: Vec<u32> = Vec::new();
                let mut rest = rows.as_slice();
                for part in &p.parts {
                    assert!(part.size > 0);
                    let (head, tail) = rest.split_at(part.size);
                    rest = tail;
                    for &r in head {
                        assert!(
                            part.label.matches_row(&rel, r),
                            "row {r} outside {:?}",
                            part.label
                        );
                        seen.push(r);
                    }
                }
                seen.sort_unstable();
                assert_eq!(seen, tset);
            }
            Ok(())
        });
    }
}
