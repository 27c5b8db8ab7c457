//! The three workloads as operation schedules, and the closed loop
//! that runs them against one `Server` from a single client thread.

use crate::fixture::{Fixture, TABLE};
use crate::report::{fnv1a, peak_rss_mib, rss_mib, FNV_BASIS};
use qcat_data::DataError;
use qcat_datagen::Rng;
use qcat_serve::{AppendOutcome, ServeError, ServeOutcome, Served, Server};
use std::collections::VecDeque;
use std::sync::{Arc, Weak};
use std::time::{Duration, Instant};

/// Which traffic shape a run sends.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Every distinct log query once, in log order.
    Explore,
    /// Zipf(1) popularity over a working set larger than the tree cache.
    Revisit,
    /// Zipf(1) reads over a hot set, interleaved with appends and
    /// workload absorbs.
    Ingest,
}

impl Workload {
    /// Parse a `--workload` name.
    pub fn parse(name: &str) -> Option<Workload> {
        match name {
            "explore" => Some(Workload::Explore),
            "revisit" => Some(Workload::Revisit),
            "ingest" => Some(Workload::Ingest),
            _ => None,
        }
    }

    /// The workload's name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Explore => "explore",
            Workload::Revisit => "revisit",
            Workload::Ingest => "ingest",
        }
    }
}

/// Distinct queries `revisit` draws from (the first ones in log
/// order). Their trees total about 3x the default 32 MiB tree cache.
pub const REVISIT_SET: usize = 480;
/// Distinct queries `ingest` reads draw from.
pub const INGEST_SET: usize = 120;
/// Reads between two appends in `ingest`.
pub const READS_PER_APPEND: u32 = 36;
/// Appends after which the timed phase of `ingest` ends (unless the
/// deadline comes first), so memory pinned per append is compared at
/// the same append count whatever the speed.
pub const INGEST_APPENDS: u32 = 80;
/// Appends between two absorbs in `ingest` (and in the write probe).
pub const APPENDS_PER_ABSORB: u32 = 10;
/// Appends in the write probe that follows the timed phase of
/// `explore` and `revisit`, so every workload reports the write-side
/// per-layer metrics.
pub const PROBE_APPENDS: u32 = 200;

/// One client operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// `Server::serve` of distinct query `i`.
    Serve(u32),
    /// `Server::append_rows` of append batch `i`.
    Append(u32),
    /// `Server::log_queries` of absorb batch `i`.
    Absorb(u32),
}

/// Where in a run an operation sits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Untimed cache warm-up before the timed phase.
    Warmup,
    /// The measured closed loop.
    Timed,
    /// The untimed write probe after the output check.
    Probe,
}

/// The operation stream of one workload.
pub struct Schedule {
    workload: Workload,
    rng: Rng,
    /// Cumulative Zipf(1) weights over popularity ranks.
    cdf: Vec<f64>,
    /// Distinct-query index at each popularity rank.
    ranks: Vec<u32>,
    next_distinct: usize,
    distinct: usize,
    reads: u32,
    appends: u32,
    absorbs: u32,
    pending: VecDeque<Op>,
}

impl Schedule {
    /// The stream for `workload` over `fx`. Which query holds which
    /// popularity rank is part of the workload (`data_seed`); the
    /// sequence of draws is the run's (`seed`).
    pub fn new(workload: Workload, fx: &Fixture, seed: u64, data_seed: u64) -> Schedule {
        let set = match workload {
            Workload::Explore => 0,
            Workload::Revisit => REVISIT_SET,
            Workload::Ingest => INGEST_SET,
        }
        .min(fx.distinct.len());
        let mut popularity = Rng::seed_from_u64(data_seed ^ 0x7261_6e6b_696e_6773);
        let mut ranks: Vec<u32> = (0..set as u32).collect();
        for i in (1..ranks.len()).rev() {
            ranks.swap(i, popularity.gen_range(0..=i));
        }
        let rng = Rng::seed_from_u64(seed ^ 0x7374_7265_616d_7321);
        let mut total = 0.0;
        let cdf = (1..=set)
            .map(|k| {
                total += 1.0 / k as f64;
                total
            })
            .collect();
        Schedule {
            workload,
            rng,
            cdf,
            ranks,
            next_distinct: 0,
            distinct: fx.distinct.len(),
            reads: 0,
            appends: 0,
            absorbs: 0,
            pending: VecDeque::new(),
        }
    }

    /// Untimed warm-up: each working-set query once, least popular
    /// first, so the LRU caches start near their steady state.
    pub fn warmup(&self) -> Vec<Op> {
        self.ranks.iter().rev().map(|&i| Op::Serve(i)).collect()
    }

    fn draw(&mut self) -> Op {
        let total = self.cdf.last().copied().unwrap_or(0.0);
        let u = self.rng.gen_f64() * total;
        let rank = self
            .cdf
            .partition_point(|&c| c <= u)
            .min(self.ranks.len() - 1);
        Op::Serve(self.ranks[rank])
    }

    /// Next operation, `None` once `explore` has served every distinct
    /// query.
    pub fn next_op(&mut self) -> Option<Op> {
        match self.workload {
            Workload::Explore => {
                let i = self.next_distinct;
                self.next_distinct += 1;
                (i < self.distinct).then_some(Op::Serve(i as u32))
            }
            Workload::Revisit => Some(self.draw()),
            Workload::Ingest => {
                if let Some(op) = self.pending.pop_front() {
                    return Some(op);
                }
                if self.reads < READS_PER_APPEND {
                    self.reads += 1;
                    return Some(self.draw());
                }
                self.reads = 0;
                self.appends += 1;
                if self.appends.is_multiple_of(APPENDS_PER_ABSORB) {
                    self.pending.push_back(Op::Absorb(self.absorbs));
                    self.absorbs += 1;
                }
                Some(Op::Append(self.appends - 1))
            }
        }
    }

    /// The write probe that follows the timed phase: appends with an
    /// absorb after every tenth, continuing the batch numbering.
    pub fn probe(&self) -> Vec<Op> {
        let mut ops = Vec::new();
        for k in 0..PROBE_APPENDS {
            ops.push(Op::Append(self.appends + k));
            if (k + 1) % APPENDS_PER_ABSORB == 0 {
                ops.push(Op::Absorb(self.absorbs + k / APPENDS_PER_ABSORB));
            }
        }
        ops
    }
}

/// What one operation returned.
pub enum Outcome {
    /// A serve.
    Served(Result<Served, ServeError>),
    /// An append.
    Appended(Result<AppendOutcome, ServeError>),
    /// A workload absorb.
    Absorbed(Result<(), DataError>),
}

impl Outcome {
    /// Did the operation fail? Errors, shed requests and degraded
    /// trees all count.
    pub fn failed(&self) -> bool {
        match self {
            Outcome::Served(Ok(s)) => {
                s.outcome == ServeOutcome::Shed || s.tree.degraded().is_some()
            }
            Outcome::Appended(r) => r.is_err(),
            Outcome::Absorbed(r) => r.is_err(),
            Outcome::Served(Err(_)) => true,
        }
    }
}

/// Run `op` against `server`, timing only the server call. `wrap`
/// runs around the call (the traced replay installs its recorder
/// there).
pub fn execute(
    server: &Server,
    fx: &Fixture,
    op: Op,
    wrap: &dyn Fn(&mut dyn FnMut()),
) -> (f64, Outcome) {
    let mut ms = 0.0;
    let outcome = match op {
        Op::Serve(i) => {
            let sql = &fx.distinct[i as usize];
            let mut r = None;
            wrap(&mut || {
                let t = Instant::now();
                r = Some(server.serve(sql));
                ms = t.elapsed().as_secs_f64() * 1e3;
            });
            Outcome::Served(r.expect("serve ran"))
        }
        Op::Append(i) => {
            let rows = fx.batch(i as usize);
            let mut r = None;
            wrap(&mut || {
                let t = Instant::now();
                r = Some(server.append_rows(TABLE, &rows));
                ms = t.elapsed().as_secs_f64() * 1e3;
            });
            Outcome::Appended(r.expect("append ran"))
        }
        Op::Absorb(i) => {
            let mut queries = Some(fx.absorb(i as usize));
            let mut r = None;
            wrap(&mut || {
                let queries = queries.take().expect("absorb runs once");
                let t = Instant::now();
                r = Some(server.log_queries(TABLE, queries));
                ms = t.elapsed().as_secs_f64() * 1e3;
            });
            Outcome::Absorbed(r.expect("absorb ran"))
        }
    };
    (ms, outcome)
}

/// A `wrap` that adds nothing.
pub fn plain(f: &mut dyn FnMut()) {
    f()
}

/// Serve outcome classes, in report order.
pub const CLASSES: [&str; 6] = [
    "tree_hit",
    "result_hit",
    "containment_hit",
    "cold",
    "coalesced",
    "shed",
];

/// Index of `outcome` in [`CLASSES`].
pub fn class_of(outcome: ServeOutcome) -> usize {
    match outcome {
        ServeOutcome::TreeCacheHit => 0,
        ServeOutcome::ResultCacheHit => 1,
        ServeOutcome::ContainmentHit => 2,
        ServeOutcome::Cold => 3,
        ServeOutcome::Coalesced => 4,
        ServeOutcome::Shed => 5,
    }
}

/// Digest of an answer: its row count and rendered tree.
pub fn digest(rows: usize, rendered: &str) -> u64 {
    fnv1a(
        fnv1a(FNV_BASIS, &(rows as u64).to_le_bytes()),
        rendered.as_bytes(),
    )
}

/// The data/statistics state an answer was served at: (appends,
/// absorbs) committed so far.
pub type State = (u32, u32);

/// The last answer the timed phase served for one distinct query.
pub struct Answer {
    /// Identifies the rendering without keeping its text alive: a weak
    /// handle keeps the allocation's address from being reused, so a
    /// new answer is recognized by pointer.
    rendered: Weak<String>,
    /// State it was served at.
    pub state: State,
    /// [`digest`] of it.
    pub digest: u64,
    /// Paper Eq. 1 `CostAll(root)` with K=1, divided by |Result|.
    pub cost_per_row: f64,
    /// Nodes in the tree.
    pub nodes: usize,
    /// `CategoryTree::heap_bytes`.
    pub heap_bytes: usize,
}

/// Per operation type: attempted, failed.
#[derive(Debug, Default, Clone, Copy)]
pub struct Tally {
    /// Operations attempted.
    pub attempted: usize,
    /// Operations that failed.
    pub failed: usize,
}

/// Everything one untraced run of a workload recorded.
pub struct Run {
    /// Every operation executed, in order, with its phase and duration
    /// (ms).
    pub ops: Vec<(Op, Phase, f64)>,
    /// Timed-phase serve latencies (ms).
    pub serve_ms: Vec<f64>,
    /// Append latencies (ms): timed for `ingest`, the probe otherwise.
    pub append_ms: Vec<f64>,
    /// Absorb latencies (ms), same split as `append_ms`.
    pub absorb_ms: Vec<f64>,
    /// Timed-phase serves per class (see [`CLASSES`]).
    pub classes: [usize; 6],
    /// Timed-phase (serve, append, absorb) tallies.
    pub tally: [Tally; 3],
    /// Timed operations that completed.
    pub completed: usize,
    /// Sum of timed operation durations (s): the closed loop's busy
    /// time.
    pub busy_s: f64,
    /// Last answer per distinct query (timed phase).
    pub answers: Vec<Option<Answer>>,
    /// Sum and count of per-answer `cost_per_row` over timed non-empty
    /// answers.
    pub cost: (f64, usize),
    /// State after the timed phase.
    pub state: State,
    /// `VmHWM` right after the timed phase (MiB).
    pub peak_rss_mib: f64,
    /// `VmRSS` before the first append and after the last one (MiB).
    pub rss_appends: (Option<f64>, f64),
}

/// Run `workload` for `seconds`: warm-up, then the timed closed loop.
/// The write probe is added by [`Run::probe`] after the output check.
pub fn run_timed(
    server: &Server,
    fx: &Fixture,
    workload: Workload,
    (seed, data_seed): (u64, u64),
    seconds: f64,
) -> (Run, Schedule) {
    let mut sched = Schedule::new(workload, fx, seed, data_seed);
    let mut run = Run {
        ops: Vec::new(),
        serve_ms: Vec::new(),
        append_ms: Vec::new(),
        absorb_ms: Vec::new(),
        classes: [0; 6],
        tally: [Tally::default(); 3],
        completed: 0,
        busy_s: 0.0,
        answers: (0..fx.distinct.len()).map(|_| None).collect(),
        cost: (0.0, 0),
        state: (0, 0),
        peak_rss_mib: 0.0,
        rss_appends: (None, 0.0),
    };
    for op in sched.warmup() {
        run.execute(server, fx, op, Phase::Warmup);
    }
    let deadline = Duration::from_secs_f64(seconds);
    let start = Instant::now();
    while start.elapsed() < deadline {
        let Some(op) = sched.next_op() else { break };
        if matches!(op, Op::Append(_)) && run.state.0 >= INGEST_APPENDS {
            break;
        }
        run.execute(server, fx, op, Phase::Timed);
    }
    run.peak_rss_mib = peak_rss_mib();
    (run, sched)
}

impl Run {
    /// Account for one executed operation. Every phase counts toward
    /// the failure tallies; only the timed phase feeds serve latencies,
    /// classes, answers and throughput, and writes feed the write
    /// latencies in the timed phase (ingest) or the probe (the others).
    fn record(&mut self, op: Op, phase: Phase, ms: f64, outcome: &Outcome) {
        self.ops.push((op, phase, ms));
        let failed = outcome.failed();
        let kind = match outcome {
            Outcome::Served(_) => 0,
            Outcome::Appended(_) => 1,
            Outcome::Absorbed(_) => 2,
        };
        self.tally[kind].attempted += 1;
        self.tally[kind].failed += usize::from(failed);
        let timed = phase == Phase::Timed;
        if timed {
            self.busy_s += ms / 1e3;
            self.completed += usize::from(!failed);
        }
        match outcome {
            Outcome::Served(r) => {
                if !timed {
                    return;
                }
                self.serve_ms.push(ms);
                if let Ok(s) = r {
                    self.classes[class_of(s.outcome)] += 1;
                    if !failed {
                        let Op::Serve(i) = op else {
                            unreachable!("serve outcome of {op:?}")
                        };
                        self.note_answer(i as usize, s);
                    }
                }
            }
            Outcome::Appended(r) => {
                if phase != Phase::Warmup {
                    self.append_ms.push(ms);
                }
                self.state.0 += u32::from(r.is_ok());
            }
            Outcome::Absorbed(r) => {
                if phase != Phase::Warmup {
                    self.absorb_ms.push(ms);
                }
                self.state.1 += u32::from(r.is_ok());
            }
        }
    }

    /// Remember the answer for the output check and the quality
    /// metric. Digest and cost are computed once per distinct answer
    /// (a tree hit hands back the same `Arc`).
    fn note_answer(&mut self, i: usize, s: &Served) {
        let state = self.state;
        let slot = &mut self.answers[i];
        let same = slot.as_ref().is_some_and(|a| {
            a.state == state && std::ptr::eq(a.rendered.as_ptr(), Arc::as_ptr(&s.rendered))
        });
        if !same {
            let cost = qcat_core::cost_all(&s.tree, 1.0).total();
            *slot = Some(Answer {
                rendered: Arc::downgrade(&s.rendered),
                state,
                digest: digest(s.rows, &s.rendered),
                cost_per_row: if s.rows > 0 {
                    cost / s.rows as f64
                } else {
                    0.0
                },
                nodes: s.tree.node_count(),
                heap_bytes: s.tree.heap_bytes(),
            });
        }
        if s.rows > 0 {
            let a = slot.as_ref().expect("answer just recorded");
            self.cost.0 += a.cost_per_row;
            self.cost.1 += 1;
        }
    }

    /// The write probe (explore and revisit only): appends and absorbs
    /// after the timed phase and the output check, recorded as the
    /// run's write latencies.
    pub fn probe(&mut self, server: &Server, fx: &Fixture, sched: &Schedule) {
        for op in sched.probe() {
            self.execute(server, fx, op, Phase::Probe);
        }
    }

    /// Execute and account for one operation, reading `VmRSS` around
    /// appends (outside their timing).
    fn execute(&mut self, server: &Server, fx: &Fixture, op: Op, phase: Phase) {
        let append = matches!(op, Op::Append(_));
        if append && self.rss_appends.0.is_none() {
            self.rss_appends.0 = Some(rss_mib());
        }
        let (ms, outcome) = execute(server, fx, op, &plain);
        self.record(op, phase, ms, &outcome);
        if append {
            self.rss_appends.1 = rss_mib();
        }
    }

    /// Distinct queries the timed phase answered, ascending.
    pub fn served(&self) -> Vec<usize> {
        (0..self.answers.len())
            .filter(|&i| self.answers[i].is_some())
            .collect()
    }
}
