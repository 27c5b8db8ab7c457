//! Save/load workload statistics.
//!
//! The paper materializes its count tables inside the DBMS so that
//! query-time categorization never rescans the workload. Our
//! equivalent is a versioned, line-oriented text format: preprocess
//! once, persist, reload at startup. The format is human-inspectable
//! (each line is one table row, mirroring Figures 4 and 5b) and keeps
//! exact `f64` fidelity by encoding floats as hexadecimal bit
//! patterns alongside a readable decimal rendering.
//!
//! The correlation index (an optional extension) is *not* persisted:
//! it holds the normalized query log itself; rebuild it from the log
//! when needed.

use crate::occurrence::OccurrenceCounts;
use crate::range_index::{EndpointList, RangeIndex};
use crate::splitpoints::SplitPointTable;
use crate::stats::WorkloadStatistics;
use crate::usage::AttributeUsageCounts;
use qcat_data::{AttrId, AttrType, Schema};
use std::collections::HashMap;
use std::fmt;
use std::io::{BufRead, Write};

/// Format version tag.
const MAGIC: &str = "qcat-workload-stats v1";

/// Errors while reading persisted statistics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PersistError {
    /// 1-based line number where the problem was found (0 = header /
    /// I/O).
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for PersistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "persisted statistics, line {}: {}",
            self.line, self.message
        )
    }
}

impl std::error::Error for PersistError {}

fn err(line: usize, message: impl Into<String>) -> PersistError {
    PersistError {
        line,
        message: message.into(),
    }
}

/// Exact float encoding: decimal for the reader, bits for the parser.
fn enc_f64(v: f64) -> String {
    format!("{:016x}", v.to_bits())
}

fn dec_f64(s: &str, line: usize) -> Result<f64, PersistError> {
    u64::from_str_radix(s, 16)
        .map(f64::from_bits)
        .map_err(|_| err(line, format!("bad float bits `{s}`")))
}

/// Percent-encode a value so it survives as the last
/// whitespace-delimited token (spaces and `%` escaped).
fn enc_value(v: &str) -> String {
    let mut out = String::with_capacity(v.len());
    for b in v.bytes() {
        match b {
            b' ' => out.push_str("%20"),
            b'%' => out.push_str("%25"),
            b'\n' => out.push_str("%0A"),
            b'\t' => out.push_str("%09"),
            _ => out.push(b as char),
        }
    }
    out
}

fn dec_value(s: &str, line: usize) -> Result<String, PersistError> {
    let bytes = s.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        if bytes[i] == b'%' {
            let hex = s
                .get(i + 1..i + 3)
                .ok_or_else(|| err(line, "truncated % escape"))?;
            let v = u8::from_str_radix(hex, 16)
                .map_err(|_| err(line, format!("bad % escape `{hex}`")))?;
            out.push(v);
            i += 3;
        } else {
            out.push(bytes[i]);
            i += 1;
        }
    }
    String::from_utf8(out).map_err(|_| err(line, "invalid UTF-8 after unescaping"))
}

/// Write `stats` to `writer`.
pub fn save_statistics<W: Write>(
    stats: &WorkloadStatistics,
    writer: &mut W,
) -> std::io::Result<()> {
    let _span = qcat_obs::span!("workload.persist.save", queries = stats.n_queries());
    writeln!(writer, "{MAGIC}")?;
    let schema = stats.schema();
    writeln!(writer, "SCHEMA {}", schema.len())?;
    for f in schema.fields() {
        writeln!(writer, "FIELD {} {}", f.ty.name(), enc_value(&f.name))?;
    }
    let usage = stats.usage_counts();
    writeln!(writer, "N {}", usage.n_total())?;
    for (i, &c) in usage.counts().iter().enumerate() {
        writeln!(writer, "ATTR {i} {c}")?;
    }
    for (attr, value, count) in stats.occurrence_counts().entries() {
        writeln!(writer, "OCC {} {} {}", attr.0, count, enc_value(value))?;
    }
    let mut tables: Vec<(AttrId, &SplitPointTable)> = stats.splitpoint_tables().collect();
    tables.sort_by_key(|(a, _)| *a);
    for (attr, table) in tables {
        writeln!(
            writer,
            "SPLITS {} {} {}",
            attr.0,
            enc_f64(table.interval()),
            table.ranges_recorded()
        )?;
        for (idx, start, end) in table.entries() {
            writeln!(writer, "SP {} {idx} {start} {end}", attr.0)?;
        }
    }
    let mut indexes: Vec<(AttrId, &RangeIndex)> = stats.range_indexes().collect();
    indexes.sort_by_key(|(a, _)| *a);
    for (attr, index) in indexes {
        let (lowers, uppers) = index.endpoints();
        writeln!(writer, "RANGES {} {}", attr.0, lowers.len())?;
        for ((lv, li), (uv, ui)) in lowers.iter().zip(&uppers) {
            writeln!(
                writer,
                "EP {} {} {} {} {}",
                attr.0,
                enc_f64(*lv),
                u8::from(*li),
                enc_f64(*uv),
                u8::from(*ui)
            )?;
        }
    }
    writeln!(writer, "END")?;
    Ok(())
}

/// Read statistics from `reader`; the embedded schema must match
/// `schema` (same names and types, same order).
pub fn load_statistics<R: BufRead>(
    reader: R,
    schema: &Schema,
) -> Result<WorkloadStatistics, PersistError> {
    let _span = qcat_obs::span!("workload.persist.load");
    let mut lines = reader.lines().enumerate();
    let mut next = || -> Result<(usize, String), PersistError> {
        match lines.next() {
            Some((i, Ok(l))) => Ok((i + 1, l)),
            Some((i, Err(e))) => Err(err(i + 1, e.to_string())),
            None => Err(err(0, "unexpected end of file")),
        }
    };
    let (ln, header) = next()?;
    if header != MAGIC {
        return Err(err(ln, format!("bad header `{header}`")));
    }
    // Schema check.
    let (ln, schema_line) = next()?;
    let n_fields: usize = schema_line
        .strip_prefix("SCHEMA ")
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| err(ln, "expected SCHEMA <n>"))?;
    if n_fields != schema.len() {
        return Err(err(
            ln,
            format!("schema has {n_fields} fields, expected {}", schema.len()),
        ));
    }
    for i in 0..n_fields {
        let (ln, line) = next()?;
        let rest = line
            .strip_prefix("FIELD ")
            .ok_or_else(|| err(ln, "expected FIELD"))?;
        let (ty, name) = rest
            .split_once(' ')
            .ok_or_else(|| err(ln, "expected FIELD <type> <name>"))?;
        let field = &schema.fields()[i];
        let expected_ty = field.ty.name();
        if ty != expected_ty {
            return Err(err(
                ln,
                format!("field {i} type `{ty}` does not match schema `{expected_ty}`"),
            ));
        }
        let name = dec_value(name, ln)?;
        if !name.eq_ignore_ascii_case(&field.name) {
            return Err(err(
                ln,
                format!(
                    "field {i} name `{name}` does not match schema `{}`",
                    field.name
                ),
            ));
        }
    }
    // Body.
    let (ln, n_line) = next()?;
    let n_total: usize = n_line
        .strip_prefix("N ")
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| err(ln, "expected N <total>"))?;
    let mut usage_counts = vec![0usize; schema.len()];
    let mut occ_entries: Vec<(AttrId, String, usize)> = Vec::new();
    /// Per-attribute splitpoint table under reconstruction:
    /// `(interval, ranges recorded, entries)`.
    type SplitAcc = (f64, usize, Vec<(i64, usize, usize)>);
    let mut splits: HashMap<AttrId, SplitAcc> = HashMap::new();
    let mut ranges: HashMap<AttrId, (EndpointList, EndpointList)> = HashMap::new();
    loop {
        let (ln, line) = next()?;
        let mut parts = line.split_whitespace();
        match parts.next() {
            Some("END") => break,
            Some("ATTR") => {
                let idx: usize = parse_token(parts.next(), ln, "attr index")?;
                let count: usize = parse_token(parts.next(), ln, "count")?;
                *usage_counts
                    .get_mut(idx)
                    .ok_or_else(|| err(ln, "attr index out of range"))? = count;
            }
            Some("OCC") => {
                let attr: u32 = parse_token(parts.next(), ln, "attr index")?;
                let count: usize = parse_token(parts.next(), ln, "count")?;
                let value = parts
                    .next()
                    .ok_or_else(|| err(ln, "missing value"))
                    .and_then(|v| dec_value(v, ln))?;
                occ_entries.push((AttrId(attr), value, count));
            }
            Some("SPLITS") => {
                let attr: u32 = parse_token(parts.next(), ln, "attr index")?;
                let interval =
                    dec_f64(parts.next().ok_or_else(|| err(ln, "missing interval"))?, ln)?;
                let recorded: usize = parse_token(parts.next(), ln, "ranges recorded")?;
                splits.insert(AttrId(attr), (interval, recorded, Vec::new()));
            }
            Some("SP") => {
                let attr: u32 = parse_token(parts.next(), ln, "attr index")?;
                let idx: i64 = parse_token(parts.next(), ln, "grid index")?;
                let start: usize = parse_token(parts.next(), ln, "start")?;
                let end: usize = parse_token(parts.next(), ln, "end")?;
                splits
                    .get_mut(&AttrId(attr))
                    .ok_or_else(|| err(ln, "SP before SPLITS"))?
                    .2
                    .push((idx, start, end));
            }
            Some("RANGES") => {
                let attr: u32 = parse_token(parts.next(), ln, "attr index")?;
                ranges.entry(AttrId(attr)).or_default();
            }
            Some("EP") => {
                let attr: u32 = parse_token(parts.next(), ln, "attr index")?;
                let lv = dec_f64(parts.next().ok_or_else(|| err(ln, "missing lower"))?, ln)?;
                let li: u8 = parse_token(parts.next(), ln, "lower inclusivity")?;
                let uv = dec_f64(parts.next().ok_or_else(|| err(ln, "missing upper"))?, ln)?;
                let ui: u8 = parse_token(parts.next(), ln, "upper inclusivity")?;
                let entry = ranges
                    .get_mut(&AttrId(attr))
                    .ok_or_else(|| err(ln, "EP before RANGES"))?;
                entry.0.push((lv, li != 0));
                entry.1.push((uv, ui != 0));
            }
            other => return Err(err(ln, format!("unexpected record {other:?}"))),
        }
    }
    let usage = AttributeUsageCounts::from_counts(usage_counts, n_total);
    let cat_attrs: Vec<AttrId> = schema
        .attr_ids()
        .filter(|&a| schema.type_of(a) == AttrType::Categorical)
        .collect();
    let occurrence = OccurrenceCounts::from_entries(cat_attrs, occ_entries);
    let splitpoints: HashMap<AttrId, SplitPointTable> = splits
        .into_iter()
        .map(|(a, (interval, recorded, entries))| {
            (
                a,
                SplitPointTable::from_entries(interval, recorded, entries),
            )
        })
        .collect();
    let range_indexes: HashMap<AttrId, RangeIndex> = ranges
        .into_iter()
        .map(|(a, (lowers, uppers))| (a, RangeIndex::from_endpoints(lowers, uppers)))
        .collect();
    Ok(WorkloadStatistics::from_parts(
        schema.clone(),
        usage,
        occurrence,
        splitpoints,
        range_indexes,
    ))
}

fn parse_token<T: std::str::FromStr>(
    token: Option<&str>,
    line: usize,
    what: &str,
) -> Result<T, PersistError> {
    token
        .ok_or_else(|| err(line, format!("missing {what}")))?
        .parse()
        .map_err(|_| err(line, format!("bad {what}")))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PreprocessConfig;
    use crate::log::WorkloadLog;
    use qcat_data::Field;
    use qcat_datagen::{prop, Rng};
    use qcat_sql::NumericRange;

    fn schema() -> Schema {
        Schema::new(vec![
            Field::new("neighborhood", AttrType::Categorical),
            Field::new("price", AttrType::Float),
            Field::new("beds", AttrType::Int),
        ])
        .unwrap()
    }

    fn sample_stats() -> WorkloadStatistics {
        let s = schema();
        let log = WorkloadLog::parse(
            [
                "SELECT * FROM t WHERE neighborhood IN ('Queen Anne','Redmond') AND price BETWEEN 200000 AND 250000",
                "SELECT * FROM t WHERE price BETWEEN 250000 AND 300000 AND beds >= 3",
                "SELECT * FROM t WHERE neighborhood IN ('100% Broadway')",
                "SELECT * FROM t WHERE price < 500000",
            ],
            &s,
            None,
        );
        let cfg = PreprocessConfig::new()
            .with_interval(AttrId(1), 5_000.0)
            .with_interval(AttrId(2), 1.0);
        WorkloadStatistics::build(&log, &s, &cfg)
    }

    #[test]
    fn roundtrip_preserves_every_count() {
        let original = sample_stats();
        let mut buf = Vec::new();
        save_statistics(&original, &mut buf).unwrap();
        let loaded = load_statistics(buf.as_slice(), &schema()).unwrap();

        assert_eq!(loaded.n_queries(), original.n_queries());
        for a in schema().attr_ids() {
            assert_eq!(loaded.n_attr(a), original.n_attr(a), "{a:?}");
        }
        // Occurrence counts, including values with spaces and percent
        // signs.
        for v in ["Queen Anne", "Redmond", "100% Broadway", "Nowhere"] {
            assert_eq!(loaded.occ(AttrId(0), v), original.occ(AttrId(0), v), "{v}");
        }
        // Splitpoints.
        let (o, l) = (
            original.splitpoint_table(AttrId(1)).unwrap(),
            loaded.splitpoint_table(AttrId(1)).unwrap(),
        );
        assert_eq!(o.interval(), l.interval());
        assert_eq!(o.ranges_recorded(), l.ranges_recorded());
        for v in [200_000.0, 250_000.0, 300_000.0, 500_000.0] {
            assert_eq!(o.at(v), l.at(v), "{v}");
        }
        // NOverlap answers.
        for (lo, hi) in [(190_000.0, 210_000.0), (260_000.0, 400_000.0), (0.0, 1e6)] {
            let label = NumericRange::half_open(lo, hi);
            assert_eq!(
                loaded.n_overlap_range(AttrId(1), &label),
                original.n_overlap_range(AttrId(1), &label),
                "[{lo},{hi})"
            );
        }
        assert_eq!(
            loaded.n_overlap_range(AttrId(2), &NumericRange::closed(3.0, 4.0)),
            original.n_overlap_range(AttrId(2), &NumericRange::closed(3.0, 4.0)),
        );
        // Retained attributes agree.
        assert_eq!(loaded.retained_attrs(0.4), original.retained_attrs(0.4));
        // Correlation index is deliberately not persisted.
        assert!(loaded.correlation_index().is_none());
    }

    #[test]
    fn schema_mismatch_rejected() {
        let original = sample_stats();
        let mut buf = Vec::new();
        save_statistics(&original, &mut buf).unwrap();
        let other = Schema::new(vec![
            Field::new("neighborhood", AttrType::Categorical),
            Field::new("price", AttrType::Int), // type differs
            Field::new("beds", AttrType::Int),
        ])
        .unwrap();
        let e = load_statistics(buf.as_slice(), &other).unwrap_err();
        assert!(e.message.contains("type"), "{e}");
        let fewer = Schema::new(vec![Field::new("a", AttrType::Int)]).unwrap();
        assert!(load_statistics(buf.as_slice(), &fewer).is_err());
    }

    #[test]
    fn corrupted_input_reports_line() {
        let original = sample_stats();
        let mut buf = Vec::new();
        save_statistics(&original, &mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        // Damage one SP line.
        let bad = text.replace("SP 1", "SP x");
        let e = load_statistics(bad.as_bytes(), &schema()).unwrap_err();
        assert!(e.line > 0);
        // Drop the END marker.
        let truncated = text.replace("END\n", "");
        let e = load_statistics(truncated.as_bytes(), &schema()).unwrap_err();
        assert!(e.message.contains("end of file"), "{e}");
        // Wrong magic.
        let e = load_statistics("not stats\n".as_bytes(), &schema()).unwrap_err();
        assert!(e.message.contains("header"), "{e}");
    }

    #[test]
    fn value_escaping_roundtrip() {
        for v in ["plain", "two words", "100% legit", "tab\there", "a%20b"] {
            let enc = enc_value(v);
            assert!(!enc.contains(' '), "{enc}");
            assert_eq!(dec_value(&enc, 1).unwrap(), v);
        }
        assert!(dec_value("%2", 1).is_err());
        assert!(dec_value("%zz", 1).is_err());
    }

    #[test]
    fn float_bits_roundtrip() {
        for v in [0.0, -0.0, 1.5, f64::INFINITY, f64::NEG_INFINITY, 5_000.0] {
            let back = dec_f64(&enc_f64(v), 1).unwrap();
            assert_eq!(back.to_bits(), v.to_bits());
        }
    }

    /// Up to `size` queries over the test schema: neighborhoods with
    /// spaces and percent signs, price ranges and bedroom floors.
    fn arb_workload(rng: &mut Rng, size: usize) -> Vec<String> {
        let letters: Vec<char> = "abcdefghijklmnopqrstuvwxyz %".chars().collect();
        prop::vec(rng, 0, size, |rng| match rng.gen_range(0..3) {
            0 => {
                let v: String =
                    prop::vec(rng, 1, 10, |rng| letters[rng.gen_range(0..letters.len())])
                        .into_iter()
                        .collect();
                format!("SELECT * FROM t WHERE neighborhood IN ('{v}')")
            }
            1 => {
                let (lo, w) = (rng.gen_range(0..200u32), rng.gen_range(1..50u32));
                format!(
                    "SELECT * FROM t WHERE price BETWEEN {} AND {}",
                    lo * 1000,
                    (lo + w) * 1000
                )
            }
            _ => format!("SELECT * FROM t WHERE beds >= {}", rng.gen_range(1..9i64)),
        })
    }

    /// Save → load reproduces every probe a categorizer would make,
    /// for arbitrary workloads (including empty ones and values with
    /// spaces / percent signs).
    #[test]
    fn prop_roundtrip() {
        prop::check("persist_roundtrip", 32, 39, |rng, size| {
            let workload = arb_workload(rng, size);
            let probe_lo = rng.gen_range(0..250u32);
            let s = schema();
            let log = WorkloadLog::parse(workload.iter().map(String::as_str), &s, None);
            let cfg = PreprocessConfig::new()
                .with_interval(AttrId(1), 5_000.0)
                .with_interval(AttrId(2), 1.0);
            let original = WorkloadStatistics::build(&log, &s, &cfg);
            let mut buf = Vec::new();
            save_statistics(&original, &mut buf).unwrap();
            let loaded = load_statistics(buf.as_slice(), &s).unwrap();
            assert_eq!(loaded.n_queries(), original.n_queries());
            for a in s.attr_ids() {
                assert_eq!(loaded.n_attr(a), original.n_attr(a), "{a:?}");
            }
            let lo = probe_lo as f64 * 1_000.0;
            let label = NumericRange::half_open(lo, lo + 30_000.0);
            assert_eq!(
                loaded.n_overlap_range(AttrId(1), &label),
                original.n_overlap_range(AttrId(1), &label)
            );
            let a = original.splitpoints_by_goodness(AttrId(1), 0.0, 3e5);
            let b = loaded.splitpoints_by_goodness(AttrId(1), 0.0, 3e5);
            assert_eq!(a, b);
            // Occurrence probes for every value actually present.
            for (v, c) in original.values_by_occurrence(AttrId(0)) {
                assert_eq!(loaded.occ(AttrId(0), v), c, "{v}");
            }
            Ok(())
        });
    }

    #[test]
    fn loaded_stats_drive_the_categorizer() {
        // End-to-end: persist, reload, and confirm splitpoint ranking
        // queries behave identically.
        let original = sample_stats();
        let mut buf = Vec::new();
        save_statistics(&original, &mut buf).unwrap();
        let loaded = load_statistics(buf.as_slice(), &schema()).unwrap();
        let a = original.splitpoints_by_goodness(AttrId(1), 0.0, 1e6);
        let b = loaded.splitpoints_by_goodness(AttrId(1), 0.0, 1e6);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x, y);
        }
    }
}
