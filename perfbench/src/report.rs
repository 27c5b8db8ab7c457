//! Summary statistics, process memory readings and the result line.

use std::fmt::Write as _;

/// Tail percentiles tried, highest first. The tail is the highest of
/// these with at least [`TAIL_BEYOND`] samples above it. p99 is the
/// ceiling: with the sample counts a run produces, p99.9 would flip in
/// and out as the count crosses 10 000, so runs would not be
/// comparable.
const TAIL_LADDER: [f64; 5] = [99.0, 95.0, 90.0, 75.0, 50.0];
/// Samples a tail percentile must have beyond it.
pub const TAIL_BEYOND: usize = 10;

/// Nearest-rank percentile of ascending `sorted` samples.
fn nearest_rank(sorted: &[f64], pct: f64) -> (usize, f64) {
    let n = sorted.len();
    let rank = ((pct / 100.0 * n as f64).ceil() as usize).clamp(1, n);
    (rank - 1, sorted[rank - 1])
}

/// Latency summary of one operation type.
#[derive(Debug, Clone, Copy)]
pub struct Summary {
    /// Sample count.
    pub n: usize,
    /// Median.
    pub p50: f64,
    /// The tail percentile chosen (see [`TAIL_LADDER`]).
    pub tail_pct: f64,
    /// Its value.
    pub tail: f64,
    /// Samples above it.
    pub beyond: usize,
}

impl Summary {
    /// Summarize `samples` (any order); `None` when empty.
    pub fn of(samples: &[f64]) -> Option<Summary> {
        if samples.is_empty() {
            return None;
        }
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        let n = sorted.len();
        let (_, p50) = nearest_rank(&sorted, 50.0);
        let (tail_pct, idx, tail) = TAIL_LADDER
            .iter()
            .map(|&p| {
                let (i, v) = nearest_rank(&sorted, p);
                (p, i, v)
            })
            .find(|&(_, i, _)| n - 1 - i >= TAIL_BEYOND)
            .unwrap_or((100.0, n - 1, sorted[n - 1]));
        Some(Summary {
            n,
            p50,
            tail_pct,
            tail,
            beyond: n - 1 - idx,
        })
    }
}

/// Median of `samples` (0 when empty).
pub fn median(samples: &[f64]) -> f64 {
    Summary::of(samples).map_or(0.0, |s| s.p50)
}

/// Mean of `samples` (0 when empty).
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

/// `num / den`, 0 when `den` is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// A `/proc/self/status` field in MiB (0 where unavailable).
fn status_mib(field: &str) -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with(field))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Peak resident set size so far (`VmHWM`), MiB.
pub fn peak_rss_mib() -> f64 {
    status_mib("VmHWM:")
}

/// Current resident set size (`VmRSS`), MiB.
pub fn rss_mib() -> f64 {
    status_mib("VmRSS:")
}

/// FNV-1a over `bytes`, continuing from `h`.
pub fn fnv1a(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

/// FNV-1a offset basis.
pub const FNV_BASIS: u64 = 0xcbf2_9ce4_8422_2325;

/// One reported metric.
pub struct Metric {
    /// Name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Value as measured.
    pub value: f64,
    /// Unit as listed in `BENCHMARK.json`.
    pub unit: &'static str,
    /// What the value summarizes (sample count, percentile, source),
    /// printed on the metric's line.
    pub note: String,
}

/// Minimal JSON string escaping.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A JSON number; non-finite values (which no metric should produce)
/// become 0 so the line stays parseable.
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// Print every metric on its own line, then the result object as the
/// last line of standard output.
pub fn print_result(correct: bool, attempted: usize, failed: usize, metrics: &[Metric]) {
    for m in metrics {
        println!(
            "metric {:<34} {:>14.6} {:<8} {}",
            m.name, m.value, m.unit, m.note
        );
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(m.name),
                json_num(m.value),
                json_str(m.unit)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_is_highest_percentile_with_ten_beyond() {
        let v: Vec<f64> = (1..=2000).map(f64::from).collect();
        let s = Summary::of(&v).unwrap();
        assert_eq!(
            (s.p50, s.tail_pct, s.tail, s.beyond),
            (1000.0, 99.0, 1980.0, 20)
        );
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        let s = Summary::of(&v).unwrap();
        assert_eq!((s.tail_pct, s.tail, s.beyond), (90.0, 90.0, 10));
        let s = Summary::of(&[3.0, 1.0, 2.0]).unwrap();
        assert_eq!((s.p50, s.tail_pct, s.tail, s.beyond), (2.0, 100.0, 3.0, 0));
    }
}
