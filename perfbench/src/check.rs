//! Output checks, run after the timed phase and outside its timing:
//!
//! 1. (`ingest`) a cached pass: every distinct query served through the
//!    warm caches at the final generation;
//! 2. a cold pass: every distinct query re-served with the caches
//!    cleared first, compared byte for byte (rows + rendered tree) with
//!    the timed phase's answer when that answer was served at the same
//!    generation and statistics, and with the cached pass;
//! 3. a thread check: a child process at `QCAT_THREADS=1` rebuilds the
//!    same state and recomputes an evenly spaced sample, whose digests
//!    must equal the cold pass at the default width.

use crate::drive::{digest, Run};
use crate::fixture::{Fixture, TABLE};
use qcat_serve::{ServeOutcome, Server, ServerConfig};
use std::io::{BufRead, Read, Write};
use std::process::{Command, Stdio};

/// Queries the `QCAT_THREADS=1` child recomputes, at most.
const THREAD_SAMPLE: usize = 256;

/// Check counts, for the report.
#[derive(Debug, Default)]
pub struct Checked {
    /// Distinct queries re-served on cleared caches.
    pub cold: usize,
    /// Of those, compared with a timed-phase answer of the same state.
    pub vs_timed: usize,
    /// Compared with a cached-pass answer (ingest).
    pub vs_cached: usize,
    /// Compared at `QCAT_THREADS=1`.
    pub vs_serial: usize,
    /// Every mismatch or error, one line each.
    pub problems: Vec<String>,
}

/// Run every check for `run` against `server` (left with cleared
/// caches).
pub fn verify(
    server: &Server,
    fx: &Fixture,
    run: &Run,
    cached_pass: bool,
    seed: u64,
    data_seed: u64,
) -> Checked {
    let mut out = Checked::default();
    let served = run.served();
    let serve = |i: usize| -> Result<(u64, ServeOutcome), String> {
        server
            .serve(&fx.distinct[i])
            .map(|s| (digest(s.rows, &s.rendered), s.outcome))
            .map_err(|e| format!("serve error {e}: {}", fx.distinct[i]))
    };

    let cached: Vec<Option<u64>> = if cached_pass {
        served
            .iter()
            .map(|&i| match serve(i) {
                Ok((d, _)) => Some(d),
                Err(e) => {
                    out.problems.push(e);
                    None
                }
            })
            .collect()
    } else {
        Vec::new()
    };

    let mut cold = Vec::with_capacity(served.len());
    for (k, &i) in served.iter().enumerate() {
        server.clear_caches();
        let fresh = match serve(i) {
            Ok((d, ServeOutcome::Cold)) => d,
            Ok((_, other)) => {
                out.problems.push(format!(
                    "cleared-cache serve was {other:?}: {}",
                    fx.distinct[i]
                ));
                continue;
            }
            Err(e) => {
                out.problems.push(e);
                continue;
            }
        };
        out.cold += 1;
        cold.push((i, fresh));
        let timed = run.answers[i].as_ref().expect("served query has an answer");
        if timed.state == run.state {
            out.vs_timed += 1;
            if timed.digest != fresh {
                out.problems.push(format!(
                    "timed answer differs from cold recompute: {}",
                    fx.distinct[i]
                ));
            }
        }
        if let Some(Some(c)) = cached.get(k) {
            out.vs_cached += 1;
            if *c != fresh {
                out.problems.push(format!(
                    "cached answer differs from cold recompute: {}",
                    fx.distinct[i]
                ));
            }
        }
    }
    server.clear_caches();

    let step = cold.len().div_ceil(THREAD_SAMPLE).max(1);
    let sample: Vec<(usize, u64)> = cold.iter().copied().step_by(step).collect();
    match serial_digests(&sample, run.state, seed, data_seed) {
        Ok(serial) => {
            for ((i, d), s) in sample.iter().zip(&serial) {
                out.vs_serial += 1;
                if d != s {
                    out.problems.push(format!(
                        "QCAT_THREADS=1 answer differs: {}",
                        fx.distinct[*i]
                    ));
                }
            }
        }
        Err(e) => out
            .problems
            .push(format!("QCAT_THREADS=1 check failed: {e}")),
    }
    out
}

/// Ask a child process of this program, running at `QCAT_THREADS=1`,
/// for the cold digests of `sample` at `state`.
fn serial_digests(
    sample: &[(usize, u64)],
    state: (u32, u32),
    seed: u64,
    data_seed: u64,
) -> Result<Vec<u64>, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut child = Command::new(exe)
        .args([
            "--digest-child",
            "--seed",
            &seed.to_string(),
            "--data-seed",
            &data_seed.to_string(),
        ])
        .env("QCAT_THREADS", "1")
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .spawn()
        .map_err(|e| e.to_string())?;
    let mut input = format!("{} {}\n", state.0, state.1);
    for (i, _) in sample {
        input.push_str(&format!("{i}\n"));
    }
    // The child reads all of its input before it writes anything, so
    // writing everything first cannot deadlock.
    let written = child
        .stdin
        .take()
        .expect("child stdin is piped")
        .write_all(input.as_bytes());
    let mut output = String::new();
    let read = child
        .stdout
        .take()
        .expect("child stdout is piped")
        .read_to_string(&mut output);
    let status = child.wait().map_err(|e| e.to_string())?;
    written.map_err(|e| e.to_string())?;
    read.map_err(|e| e.to_string())?;
    if !status.success() {
        return Err(format!("child exited with {status}"));
    }
    let digests: Vec<u64> = output
        .lines()
        .map(|l| {
            l.trim()
                .parse::<u64>()
                .map_err(|e| format!("bad child line {l:?}: {e}"))
        })
        .collect::<Result<_, _>>()?;
    if digests.len() != sample.len() {
        return Err(format!(
            "child returned {} digests for {} queries",
            digests.len(),
            sample.len()
        ));
    }
    Ok(digests)
}

/// The child side of [`serial_digests`]: read `appends absorbs` and
/// then one distinct-query index per line from standard input, rebuild
/// that state (all appended batches committed as one batch: the rows
/// and their order are the same), and print one cold digest per index.
pub fn digest_child(seed: u64, data_seed: u64) -> Result<(), String> {
    let mut lines = Vec::new();
    for line in std::io::stdin().lock().lines() {
        lines.push(line.map_err(|e| e.to_string())?);
    }
    let (head, rest) = lines.split_first().ok_or("empty input")?;
    let parse = |s: &str| {
        s.trim()
            .parse::<usize>()
            .map_err(|e| format!("bad number {s:?}: {e}"))
    };
    let mut head = head.split_whitespace();
    let appends = parse(head.next().ok_or("missing append count")?)?;
    let absorbs = parse(head.next().ok_or("missing absorb count")?)?;
    let indices: Vec<usize> = rest.iter().map(|l| parse(l)).collect::<Result<_, _>>()?;

    let fx = Fixture::generate(seed, data_seed);
    let server = Server::new(ServerConfig::default());
    server
        .register_table(TABLE, fx.fresh_relation(), fx.log.clone(), fx.prep.clone())
        .map_err(|e| e.to_string())?;
    if appends > 0 {
        let rows: Vec<_> = (0..appends).flat_map(|i| fx.batch(i)).collect();
        server
            .append_rows(TABLE, &rows)
            .map_err(|e| e.to_string())?;
    }
    for j in 0..absorbs {
        server
            .log_queries(TABLE, fx.absorb(j))
            .map_err(|e| e.to_string())?;
    }
    let mut out = std::io::stdout().lock();
    for i in indices {
        let sql = fx
            .distinct
            .get(i)
            .ok_or_else(|| format!("no distinct query {i}"))?;
        server.clear_caches();
        let s = server.serve(sql).map_err(|e| e.to_string())?;
        writeln!(out, "{}", digest(s.rows, &s.rendered)).map_err(|e| e.to_string())?;
    }
    out.flush().map_err(|e| e.to_string())
}
