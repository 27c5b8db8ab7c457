//! Closed-loop end-to-end benchmark of `qcat_serve::Server`.
//!
//! ```text
//! qcat-perfbench --workload explore|revisit|ingest --seed N [--seconds S] [--trace 0|1]
//!                [--data-seed N] [--out DIR]
//! ```
//!
//! One client thread drives one in-process server built with every
//! default (`ServerConfig::default()`, the default relation layout,
//! `QCAT_THREADS` as the environment sets it). A run generates its
//! inputs from the seeds, registers the table several times to time
//! set-up, runs the workload's timed closed loop, checks every answer
//! (see `check`), and prints one line per metric followed by a JSON
//! result line. `--trace 1` replays the same operations traced and
//! reports the per-layer metrics instead (see `trace`). See README.md.

mod check;
mod drive;
mod fixture;
mod report;
mod trace;

use drive::{Workload, CLASSES};
use fixture::{Fixture, TABLE};
use qcat_serve::{Server, ServerConfig};
use report::{median, print_result, ratio, Metric, Summary};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

/// Registrations timed per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 11;
/// The table seed used unless `--data-seed` is given.
const DEFAULT_DATA_SEED: u64 = 2004;

const USAGE: &str = "usage: qcat-perfbench --workload explore|revisit|ingest --seed N \
[--seconds S] [--trace 0|1] [--data-seed N] [--out DIR]";

struct Args {
    workload: Workload,
    seed: u64,
    data_seed: u64,
    seconds: f64,
    trace: bool,
    out: PathBuf,
}

enum Mode {
    Bench(Args),
    DigestChild { seed: u64, data_seed: u64 },
}

fn parse_args() -> Result<Mode, String> {
    let mut workload = None;
    let mut seed = None;
    let mut data_seed = DEFAULT_DATA_SEED;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut out = PathBuf::from("perfbench/out");
    let mut child = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--digest-child" {
            child = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = |v: &str| v.parse::<u64>().map_err(|e| format!("{flag} {v}: {e}"));
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(number(&value)?),
            "--data-seed" => data_seed = number(&value)?,
            "--seconds" => {
                seconds = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| format!("--seconds {value}: not a positive number"))?
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace {value}: expected 0 or 1")),
                }
            }
            "--out" => out = PathBuf::from(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let seed = seed.ok_or("--seed is required")?;
    if child {
        return Ok(Mode::DigestChild { seed, data_seed });
    }
    Ok(Mode::Bench(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        data_seed,
        seconds,
        trace,
        out,
    }))
}

fn main() -> ExitCode {
    match parse_args() {
        Ok(Mode::Bench(args)) => bench(&args),
        Ok(Mode::DigestChild { seed, data_seed }) => match check::digest_child(seed, data_seed) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("digest child: {e}");
                ExitCode::FAILURE
            }
        },
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}

/// `git describe` of the checkout, when it is a git work tree.
fn git_describe() -> String {
    std::process::Command::new("git")
        .args([
            "--git-dir",
            ".git",
            "--work-tree",
            ".",
            "describe",
            "--always",
            "--dirty",
        ])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

fn bench(args: &Args) -> ExitCode {
    let workload = args.workload;
    let started = Instant::now();
    let fx = Fixture::generate(args.seed, args.data_seed);
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let threads = std::env::var("QCAT_THREADS").unwrap_or_else(|_| "unset".to_string());
    let git = git_describe();
    println!(
        "provenance git={git} cores={cores} QCAT_THREADS={threads} workload={} seed={} data_seed={} \
rows={} log_queries={} distinct_queries={} seconds={}",
        workload.name(),
        args.seed,
        args.data_seed,
        fx.rows(),
        fx.log.len(),
        fx.distinct.len(),
        args.seconds
    );
    let provenance = format!(
        "{{\"git\": {}, \"cores\": {cores}, \"qcat_threads\": {}, \"workload\": {}, \"seed\": {}, \"data_seed\": {}, \
\"rows\": {}, \"log_queries\": {}, \"seconds\": {}}}",
        report::json_str(&git),
        report::json_str(&threads),
        report::json_str(workload.name()),
        args.seed,
        args.data_seed,
        fx.rows(),
        fx.log.len(),
        report::json_num(args.seconds)
    );

    // Set-up: register fresh copies of the table; the last one serves.
    let mut setup_s = Vec::with_capacity(SETUP_REPEATS);
    let mut server = None;
    for _ in 0..SETUP_REPEATS {
        let candidate = Server::new(ServerConfig::default());
        let relation = fx.fresh_relation();
        let t = Instant::now();
        candidate
            .register_table(TABLE, relation, fx.log.clone(), fx.prep.clone())
            .expect("register the table");
        setup_s.push(t.elapsed().as_secs_f64());
        server = Some(candidate);
    }
    let server = server.expect("at least one registration");

    let (mut run, sched) = drive::run_timed(
        &server,
        &fx,
        workload,
        (args.seed, args.data_seed),
        args.seconds,
    );
    let checked = check::verify(
        &server,
        &fx,
        &run,
        workload == Workload::Ingest,
        args.seed,
        args.data_seed,
    );
    if workload != Workload::Ingest {
        run.probe(&server, &fx, &sched);
    }
    drop(server);

    let served: usize = run.classes.iter().sum();
    for (k, class) in CLASSES.iter().enumerate() {
        println!(
            "class {class:<16} {:>8} share {:.4}",
            run.classes[k],
            ratio(run.classes[k] as f64, served as f64)
        );
    }
    for (kind, t) in ["serve", "append", "absorb"].iter().zip(run.tally) {
        println!(
            "ops {kind:<7} attempted {:>8} failed {:>4}",
            t.attempted, t.failed
        );
    }
    println!(
        "check cold={} vs_timed={} vs_cached={} vs_threads1={} mismatches={}",
        checked.cold,
        checked.vs_timed,
        checked.vs_cached,
        checked.vs_serial,
        checked.problems.len()
    );
    let mut problems = checked.problems;

    let metrics = if args.trace {
        let dir = args
            .out
            .join(format!("{}-seed{}", workload.name(), args.seed));
        let traced = trace::traced(&fx, &run, workload.name(), &dir, &provenance);
        problems.extend(traced.problems);
        traced.metrics
    } else {
        end_to_end(&run, &setup_s)
    };
    for p in &problems {
        eprintln!("MISMATCH {p}");
    }
    println!("elapsed {:.1}s", started.elapsed().as_secs_f64());
    let attempted = run.tally.iter().map(|t| t.attempted).sum();
    let failed = run.tally.iter().map(|t| t.failed).sum();
    let correct = problems.is_empty();
    print_result(correct, attempted, failed, &metrics);
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// The end-to-end metrics of an untraced run.
fn end_to_end(run: &drive::Run, setup_s: &[f64]) -> Vec<Metric> {
    let summary = |v: &[f64]| Summary::of(v).expect("the run produced samples");
    let serve = summary(&run.serve_ms);
    let tail_note = |s: &Summary| format!("p{} of {}, {} beyond", s.tail_pct, s.n, s.beyond);
    vec![
        Metric {
            name: "setup_s",
            value: median(setup_s),
            unit: "s",
            note: format!(
                "median of {} registrations (min {:.4}, max {:.4})",
                setup_s.len(),
                setup_s.iter().copied().fold(f64::INFINITY, f64::min),
                setup_s.iter().copied().fold(0.0, f64::max)
            ),
        },
        Metric {
            name: "serve_p50_ms",
            value: serve.p50,
            unit: "ms",
            note: format!("median of {}", serve.n),
        },
        Metric {
            name: "serve_tail_ms",
            value: serve.tail,
            unit: "ms",
            note: tail_note(&serve),
        },
        Metric {
            name: "throughput_ops",
            value: ratio(run.completed as f64, run.busy_s),
            unit: "1/s",
            note: format!("{} ops in {:.3} s busy", run.completed, run.busy_s),
        },
        Metric {
            name: "peak_rss_mb",
            value: run.peak_rss_mib,
            unit: "MiB",
            note: "VmHWM after the timed phase".to_string(),
        },
        Metric {
            name: "tree_cost_all",
            value: ratio(run.cost.0, run.cost.1 as f64),
            unit: "cost/row",
            note: format!("mean CostAll(root)/|Result| over {} answers", run.cost.1),
        },
    ]
}
