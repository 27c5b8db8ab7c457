#![deny(missing_docs)]

//! A std-only scoped thread pool with deterministic result
//! collection.
//!
//! The tier-1 build is hermetic — no rayon — so fan-out is built on
//! [`std::thread::scope`] and an [`mpsc`] channel. The contract that
//! matters to the categorizer:
//!
//! - **Determinism.** [`ThreadPool::map`] returns results in input
//!   order regardless of which worker computed what, so any caller
//!   that is deterministic per item is deterministic end to end at
//!   every thread count, including 1.
//! - **Serial fast path.** One resolved thread, one item, or a
//!   [`ThreadPool::try_map_work`] batch lighter than
//!   [`MIN_WORK_PER_WORKER`] runs the closure inline on the calling
//!   thread: no spawns, no channels, no allocation beyond the output
//!   vector. `threads = 1` is the serial algorithm, not a degenerate
//!   parallel one.
//! - **Scoped workers.** Workers live only for the duration of one
//!   `map` call, so item slices and the mapping closure may borrow
//!   freely from the caller's stack. A panicking task is *caught* in
//!   the worker and surfaced as [`PoolError::TaskPanicked`] from
//!   [`ThreadPool::try_map`] (re-raised by [`ThreadPool::map`]), so a
//!   dying task can never leave results silently missing.
//! - **Cancellation.** Workers poll the caller's current
//!   [`qcat_fault::Gas`] before every item; an exhausted budget drains
//!   the queue early and `try_map` reports
//!   [`PoolError::Cancelled`]. Each item is also a
//!   `pool.task` fault point for chaos testing.
//! - **Context plumbing.** Workers run under the caller's `qcat-obs`
//!   recorder (via [`qcat_obs::with_recorder`]), the caller's
//!   fault/budget context (via [`qcat_fault::Propagation`]), and the
//!   caller's trace context (via [`qcat_obs::capture_parent`] /
//!   [`qcat_obs::ParentContext::scope`]), so counters land in one
//!   snapshot, budget checkpoints keep working inside worker
//!   closures, and spans opened by work items join the caller's trace
//!   as real parented spans — the recorder serializes concurrent
//!   emission, allocating `seq` under the sink lock so the stream
//!   stays globally ordered (see docs/OBSERVABILITY.md).
//!
//! Sizing: an explicit request wins; `0` means "auto", which reads
//! `QCAT_THREADS` once per process and otherwise uses
//! [`std::thread::available_parallelism`].

use qcat_fault::BudgetExceeded;
use std::fmt;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc;
use std::sync::OnceLock;
use std::thread;

/// Resolve a requested thread count to an effective one.
///
/// `requested > 0` is taken literally. `0` means auto: `QCAT_THREADS`
/// when set to a positive integer (read once per process — library
/// code otherwise never consults the environment), else the machine's
/// available parallelism, else 1.
pub fn resolve_threads(requested: usize) -> usize {
    if requested > 0 {
        return requested;
    }
    static AUTO: OnceLock<usize> = OnceLock::new();
    *AUTO.get_or_init(|| {
        if let Ok(v) = std::env::var("QCAT_THREADS") {
            if let Ok(n) = v.trim().parse::<usize>() {
                if n > 0 {
                    return n;
                }
            }
        }
        thread::available_parallelism().map_or(1, |n| n.get())
    })
}

/// Work units a batch must bring per spawned worker before
/// [`ThreadPool::try_map_work`] fans it out; below this the batch runs
/// inline on the calling thread.
///
/// A unit is one tuple passed through one counting pass: a
/// (tuple × priced candidate) pair in the categorizer's partition map,
/// a tuple in its materialize map. The value is a measured break-even,
/// not a guess at "big": on a 2-core host a two-wide batch costs
/// 29–36 µs more than inline at near-zero work (the scoped spawn + join
/// alone is ~25 µs, plus channel traffic and context propagation),
/// pricing costs 23–30 ns per unit, and two-wide beats inline on the
/// median level from 7 500–12 500 units on. Summed over every level
/// of a run, map time is within about 1% of its minimum for any
/// cutoff from 7 500 to 20 000; the lower end keeps large trees'
/// mid-sized levels on two workers. docs/PERFORMANCE.md ("Work-aware
/// dispatch") has the tables.
pub const MIN_WORK_PER_WORKER: u64 = 10_000;

/// Why a [`ThreadPool::try_map`] call did not return results.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PoolError {
    /// A task panicked. The panic was caught in the worker; `index`
    /// is the item and `message` the stringified payload.
    TaskPanicked {
        /// Input index of the panicking item.
        index: usize,
        /// The panic payload, stringified.
        message: String,
    },
    /// The caller's budget was exhausted; queued items were drained
    /// without running.
    Cancelled(BudgetExceeded),
    /// An `error`-kind fault fired at the `pool.task` fault point.
    Fault(qcat_fault::Fault),
}

impl fmt::Display for PoolError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PoolError::TaskPanicked { index, message } => {
                write!(f, "pool task {index} panicked: {message}")
            }
            PoolError::Cancelled(reason) => write!(f, "pool drained early: {reason}"),
            PoolError::Fault(fault) => write!(f, "pool task failed: {fault}"),
        }
    }
}

impl std::error::Error for PoolError {}

/// Stringify a caught panic payload.
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Run one item through the per-item checkpoints (budget, `pool.task`
/// fault point) and the closure, catching panics.
fn run_item<T, R>(
    gas: Option<&qcat_fault::Gas>,
    f: &(impl Fn(usize, &T) -> R + Sync),
    i: usize,
    item: &T,
) -> Result<R, PoolError> {
    if let Some(g) = gas {
        if let Err(reason) = g.check() {
            return Err(PoolError::Cancelled(reason));
        }
    }
    match panic::catch_unwind(AssertUnwindSafe(|| {
        if let Some(fault) = qcat_fault::point("pool.task") {
            return Err(PoolError::Fault(fault));
        }
        Ok(f(i, item))
    })) {
        Ok(Ok(r)) => Ok(r),
        Ok(Err(e)) => Err(e),
        Err(payload) => Err(PoolError::TaskPanicked {
            index: i,
            message: panic_message(payload),
        }),
    }
}

/// A fixed-width fan-out primitive. Holds no threads while idle —
/// workers are spawned per [`map`](ThreadPool::map) call inside a
/// [`std::thread::scope`], which is what lets the mapped closure
/// borrow from the caller's stack without `'static` bounds.
#[derive(Debug, Clone, Copy)]
pub struct ThreadPool {
    threads: usize,
}

impl ThreadPool {
    /// Build a pool sized by [`resolve_threads`].
    pub fn new(requested: usize) -> Self {
        ThreadPool {
            threads: resolve_threads(requested),
        }
    }

    /// The effective thread count (≥ 1).
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Apply `f` to every item, in parallel across the pool's
    /// threads, and return the results **in input order**.
    ///
    /// Infallible wrapper over [`ThreadPool::try_map`]: a caught task
    /// panic is re-raised on the calling thread, and budget
    /// cancellation / injected faults (which cannot happen without a
    /// budget or fault plan installed) also panic. Callers that run
    /// under a budget should use `try_map` and degrade.
    pub fn map<T, R, F>(&self, items: &[T], f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(usize, &T) -> R + Sync,
    {
        match self.try_map(items, f) {
            Ok(out) => out,
            Err(PoolError::TaskPanicked { index, message }) => {
                panic!("pool task {index} panicked: {message}")
            }
            Err(e) => panic!("pool map failed: {e}"),
        }
    }

    /// Fallible [`ThreadPool::map`]: apply `f` to every item and
    /// return results in input order, or the first (lowest-index)
    /// failure.
    ///
    /// `f` receives the item's index and the item. Work is pulled
    /// from a shared atomic cursor, so long and short items balance
    /// across workers; the calling thread participates, so a pool of
    /// `n` threads spawns only `n - 1` workers. Before each item every
    /// worker passes a budget checkpoint on the caller's current
    /// [`qcat_fault::Gas`] and the `pool.task` fault point; a tripped
    /// budget, a fired error fault, or a caught task panic makes all
    /// workers drain the remaining queue without running it.
    pub fn try_map<T, R, F>(&self, items: &[T], f: F) -> Result<Vec<R>, PoolError>
    where
        T: Sync,
        R: Send,
        F: Fn(usize, &T) -> R + Sync,
    {
        self.try_map_at(self.threads, items, f)
    }

    /// Work-aware [`ThreadPool::try_map`]: `work` is the caller's
    /// estimate of the whole batch's cost in [`MIN_WORK_PER_WORKER`]
    /// units, and the width is [`ThreadPool::width_for`]`(work)`.
    /// Below one worker's worth of work the batch runs inline on the
    /// calling thread through the serial fast path (same budget,
    /// fault-point, panic and error semantics, no `pool.tasks`); at
    /// or above it the batch fans out exactly like `try_map`, with the
    /// pool's width as a cap.
    pub fn try_map_work<T, R, F>(&self, items: &[T], work: u64, f: F) -> Result<Vec<R>, PoolError>
    where
        T: Sync,
        R: Send,
        F: Fn(usize, &T) -> R + Sync,
    {
        self.try_map_at(self.width_for(work), items, f)
    }

    /// How many threads (caller included) a batch of `work` units
    /// runs on: one, plus one spawned worker per full
    /// [`MIN_WORK_PER_WORKER`] units, capped at the pool's width.
    pub fn width_for(&self, work: u64) -> usize {
        let by_work = 1 + work / MIN_WORK_PER_WORKER;
        self.threads
            .min(usize::try_from(by_work).unwrap_or(usize::MAX))
    }

    fn try_map_at<T, R, F>(&self, width: usize, items: &[T], f: F) -> Result<Vec<R>, PoolError>
    where
        T: Sync,
        R: Send,
        F: Fn(usize, &T) -> R + Sync,
    {
        let n = items.len();
        let ctx = qcat_fault::capture();
        let workers = width.min(n);
        if workers <= 1 {
            let mut out = Vec::with_capacity(n);
            for (i, item) in items.iter().enumerate() {
                match run_item(ctx.gas(), &f, i, item) {
                    Ok(r) => out.push(r),
                    Err(e) => {
                        if matches!(e, PoolError::Cancelled(_)) {
                            qcat_obs::counter("pool.cancelled", 1);
                        }
                        return Err(e);
                    }
                }
            }
            return Ok(out);
        }
        qcat_obs::counter("pool.tasks", n as i64);
        qcat_obs::gauge("pool.queue_depth", n as f64);
        let recorder = qcat_obs::current_recorder();
        // Trace propagation mirrors the fault/budget context: spans a
        // work item opens parent to the caller's innermost span.
        let parent = qcat_obs::capture_parent();
        let cursor = AtomicUsize::new(0);
        // Sticky failure latch: once any worker errors, the rest stop
        // pulling items. The actual error travels over the channel.
        let abort = AtomicBool::new(false);
        let (tx, rx) = mpsc::channel::<(usize, Result<R, PoolError>)>();
        let run = |tx: mpsc::Sender<(usize, Result<R, PoolError>)>| loop {
            if abort.load(Ordering::Relaxed) {
                break;
            }
            let i = cursor.fetch_add(1, Ordering::Relaxed);
            if i >= n {
                break;
            }
            let outcome = run_item(ctx.gas(), &f, i, &items[i]);
            qcat_obs::gauge("pool.queue_depth", (n - (i + 1).min(n)) as f64);
            match outcome {
                Ok(r) => {
                    if tx.send((i, Ok(r))).is_err() {
                        break;
                    }
                }
                Err(e) => {
                    abort.store(true, Ordering::Relaxed);
                    let _ = tx.send((i, Err(e)));
                    break;
                }
            }
        };
        let mut out: Vec<Option<R>> = Vec::with_capacity(n);
        out.resize_with(n, || None);
        let mut first_err: Option<(usize, PoolError)> = None;
        thread::scope(|scope| {
            for w in 1..workers {
                let tx = tx.clone();
                let run = &run;
                let ctx = ctx.clone();
                let recorder = recorder.clone();
                let builder = thread::Builder::new().name(format!("qcat-pool-{w}"));
                builder
                    .spawn_scoped(scope, move || {
                        let work = || ctx.scope(|| parent.scope(|| run(tx)));
                        match &recorder {
                            Some(rec) => qcat_obs::with_recorder(rec, work),
                            None => work(),
                        }
                    })
                    .expect("spawning a pool worker thread failed");
            }
            run(tx);
            // All senders are dropped once the workers finish; drain
            // whatever they produced. Keep the lowest-index error so
            // failure selection does not depend on thread timing.
            for (i, r) in rx.iter() {
                match r {
                    Ok(r) => out[i] = Some(r),
                    Err(e) => match &first_err {
                        Some((j, _)) if *j <= i => {}
                        _ => first_err = Some((i, e)),
                    },
                }
            }
        });
        if let Some((_, e)) = first_err {
            if matches!(e, PoolError::Cancelled(_)) {
                qcat_obs::counter("pool.cancelled", 1);
            }
            return Err(e);
        }
        if out.iter().any(Option::is_none) {
            // No explicit error arrived but items are missing: the
            // budget tripped and workers drained early.
            let reason = ctx
                .gas()
                .and_then(|g| g.exceeded())
                .unwrap_or(BudgetExceeded::Cancelled);
            qcat_obs::counter("pool.cancelled", 1);
            return Err(PoolError::Cancelled(reason));
        }
        Ok(out
            .into_iter()
            .map(|r| r.expect("checked above: no result missing"))
            .collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qcat_fault::{with_budget, with_plan, Budget, FaultPlan};

    #[test]
    fn results_land_in_input_order() {
        let items: Vec<usize> = (0..997).collect();
        for threads in [1, 2, 3, 8, 32] {
            let pool = ThreadPool::new(threads);
            let out = pool.map(&items, |i, &x| {
                assert_eq!(i, x);
                x * 3 + 1
            });
            let expect: Vec<usize> = items.iter().map(|&x| x * 3 + 1).collect();
            assert_eq!(out, expect, "threads={threads}");
        }
    }

    #[test]
    fn empty_input_yields_empty_output() {
        let pool = ThreadPool::new(8);
        let out: Vec<u64> = pool.map(&[] as &[u32], |_, _| unreachable!());
        assert!(out.is_empty());
    }

    #[test]
    fn single_item_runs_inline() {
        let pool = ThreadPool::new(8);
        let caller = thread::current().id();
        let out = pool.map(&[41], |_, &x| {
            assert_eq!(thread::current().id(), caller, "fast path must not spawn");
            x + 1
        });
        assert_eq!(out, vec![42]);
    }

    #[test]
    fn worker_panic_propagates_to_caller() {
        let items: Vec<usize> = (0..64).collect();
        let pool = ThreadPool::new(4);
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            pool.map(&items, |_, &x| {
                if x == 13 {
                    panic!("boom at 13");
                }
                x
            })
        }));
        assert!(caught.is_err(), "a worker panic must reach the caller");
    }

    #[test]
    fn try_map_surfaces_task_panic_as_error() {
        let items: Vec<usize> = (0..64).collect();
        for threads in [1, 4] {
            let pool = ThreadPool::new(threads);
            let err = pool
                .try_map(&items, |_, &x| {
                    if x == 13 {
                        panic!("boom at 13");
                    }
                    x
                })
                .unwrap_err();
            match err {
                PoolError::TaskPanicked { index, message } => {
                    assert_eq!(index, 13, "threads={threads}");
                    assert!(message.contains("boom at 13"), "{message}");
                }
                other => panic!("expected TaskPanicked, got {other:?}"),
            }
        }
    }

    #[test]
    fn injected_panic_fault_surfaces_as_pool_error() {
        // The satellite case: a fault point that panics *inside* a
        // task must come back as a structured PoolError, not a dead
        // worker with silently missing results.
        let plan = FaultPlan::parse("pool.task:panic").unwrap();
        let items: Vec<usize> = (0..32).collect();
        for threads in [1, 4] {
            let pool = ThreadPool::new(threads);
            let err = with_plan(&plan, || pool.try_map(&items, |_, &x| x)).unwrap_err();
            match err {
                PoolError::TaskPanicked { message, .. } => {
                    assert!(message.contains("injected fault panic at pool.task"), "{message}");
                }
                other => panic!("expected TaskPanicked, got {other:?}"),
            }
        }
    }

    #[test]
    fn injected_error_fault_fails_the_map() {
        let plan = FaultPlan::parse("pool.task:error").unwrap();
        let pool = ThreadPool::new(4);
        let items: Vec<usize> = (0..32).collect();
        let err = with_plan(&plan, || pool.try_map(&items, |_, &x| x)).unwrap_err();
        assert!(matches!(err, PoolError::Fault(f) if f.site == "pool.task"));
    }

    #[test]
    fn exhausted_budget_drains_early() {
        // A zero deadline is already exceeded at the first per-item
        // checkpoint on every thread count.
        let gas = Budget::default().with_deadline(std::time::Duration::ZERO).start();
        let items: Vec<usize> = (0..128).collect();
        for threads in [1, 4] {
            let pool = ThreadPool::new(threads);
            let err =
                with_budget(&gas, || pool.try_map(&items, |_, &x| x)).unwrap_err();
            assert_eq!(
                err,
                PoolError::Cancelled(qcat_fault::BudgetExceeded::Deadline),
                "threads={threads}"
            );
        }
    }

    #[test]
    fn budget_checkpoints_work_inside_worker_closures() {
        // The gas is propagated into workers: a charge made from
        // worker threads trips the shared budget.
        let gas = Budget::default().with_max_rows(10).start();
        let items: Vec<usize> = (0..64).collect();
        let pool = ThreadPool::new(4);
        let result = with_budget(&gas, || {
            pool.try_map(&items, |_, &x| {
                let g = qcat_fault::current_gas().expect("gas visible in worker");
                let _ = g.charge_rows(1);
                x
            })
        });
        // Either the map finished before enough charges landed (first
        // 10 items) or it was cancelled — both are valid interleavings;
        // what must hold is that the budget itself tripped.
        assert_eq!(gas.exceeded(), Some(qcat_fault::BudgetExceeded::Rows));
        if let Err(e) = result {
            assert!(matches!(e, PoolError::Cancelled(_)));
        }
    }

    #[test]
    fn closure_borrows_from_caller_stack() {
        let weights = [2.0f64, 4.0, 8.0];
        let items: Vec<usize> = (0..300).collect();
        let pool = ThreadPool::new(3);
        let out = pool.map(&items, |_, &x| weights[x % weights.len()] * x as f64);
        assert_eq!(out[5], 8.0 * 5.0);
        assert_eq!(out.len(), 300);
    }

    #[test]
    fn counters_from_workers_reach_the_callers_recorder() {
        let rec = qcat_obs::Recorder::metrics_only();
        let items: Vec<usize> = (0..200).collect();
        let total: i64 = qcat_obs::with_recorder(&rec, || {
            let pool = ThreadPool::new(4);
            let out = pool.map(&items, |_, &x| {
                qcat_obs::counter("pool.test_work", 1);
                x as i64
            });
            out.iter().sum()
        });
        assert_eq!(total, (0..200).sum::<i64>());
        let snap = rec.snapshot();
        assert_eq!(snap.counters.get("pool.test_work"), Some(&200));
        assert_eq!(snap.counters.get("pool.tasks"), Some(&200));
    }

    #[test]
    fn worker_spans_join_the_callers_trace() {
        use qcat_obs::json::JsonValue;
        let rec = qcat_obs::Recorder::buffered();
        let items: Vec<usize> = (0..64).collect();
        let trace_id = qcat_obs::with_recorder(&rec, || {
            let t = qcat_obs::TraceScope::start();
            let _phase = qcat_obs::span!("pool.test.phase");
            let pool = ThreadPool::new(4);
            pool.map(&items, |_, &x| {
                let _item = qcat_obs::span!("pool.test.item");
                x
            });
            t.id()
        });
        assert_ne!(trace_id, 0);
        let log = rec.drain_jsonl();
        let num = |v: &JsonValue, k: &str| {
            v.get(k).and_then(JsonValue::as_f64).unwrap_or(-1.0) as i64
        };
        let mut phase_span = -1i64;
        let mut last_seq = -1i64;
        let mut item_opens = 0usize;
        for line in log.lines() {
            let v = qcat_obs::json::parse(line).expect("recorder emits valid JSONL");
            let seq = num(&v, "seq");
            assert!(seq > last_seq, "seq strictly increases across threads");
            last_seq = seq;
            assert_eq!(num(&v, "trace"), trace_id as i64, "all lines share the trace");
            let name = v.get("name").and_then(JsonValue::as_str).unwrap_or("");
            let kind = v.get("kind").and_then(JsonValue::as_str).unwrap_or("");
            if kind == "span_open" && name == "pool.test.phase" {
                phase_span = num(&v, "span");
            }
            if kind == "span_open" && name == "pool.test.item" {
                item_opens += 1;
                assert_eq!(
                    num(&v, "parent"),
                    phase_span,
                    "work-item spans parent to the caller's phase span"
                );
            }
        }
        assert_eq!(item_opens, items.len(), "every item opened a span");
    }

    #[test]
    fn width_grows_one_worker_per_threshold_of_work() {
        let pool = ThreadPool::new(4);
        assert_eq!(pool.width_for(0), 1);
        assert_eq!(pool.width_for(MIN_WORK_PER_WORKER - 1), 1);
        assert_eq!(pool.width_for(MIN_WORK_PER_WORKER), 2);
        assert_eq!(pool.width_for(3 * MIN_WORK_PER_WORKER), 4);
        assert_eq!(pool.width_for(u64::MAX), 4, "the pool's width caps the fan-out");
        assert_eq!(ThreadPool::new(1).width_for(u64::MAX), 1);
    }

    #[test]
    fn light_batches_run_inline_and_dispatch_nothing() {
        let rec = qcat_obs::Recorder::metrics_only();
        let items: Vec<usize> = (0..500).collect();
        let caller = thread::current().id();
        let out = qcat_obs::with_recorder(&rec, || {
            ThreadPool::new(8)
                .try_map_work(&items, MIN_WORK_PER_WORKER - 1, |_, &x| {
                    assert_eq!(thread::current().id(), caller, "light batch must not spawn");
                    x * 2
                })
                .unwrap()
        });
        assert_eq!(out, items.iter().map(|&x| x * 2).collect::<Vec<_>>());
        assert_eq!(rec.snapshot().counters.get("pool.tasks"), None);
    }

    #[test]
    fn heavy_batches_fan_out() {
        let rec = qcat_obs::Recorder::metrics_only();
        let items: Vec<usize> = (0..500).collect();
        let out = qcat_obs::with_recorder(&rec, || {
            ThreadPool::new(2)
                .try_map_work(&items, MIN_WORK_PER_WORKER, |_, &x| x * 2)
                .unwrap()
        });
        assert_eq!(out, items.iter().map(|&x| x * 2).collect::<Vec<_>>());
        assert_eq!(rec.snapshot().counters.get("pool.tasks"), Some(&500));
    }

    #[test]
    fn work_aware_dispatch_keeps_failure_semantics() {
        // Inline and fanned-out batches must fail the same way: the
        // lowest-index panic, the fault point, and the budget drain.
        let items: Vec<usize> = (0..64).collect();
        let pool = ThreadPool::new(4);
        for work in [0, MIN_WORK_PER_WORKER * 4] {
            let err = pool
                .try_map_work(&items, work, |_, &x| {
                    if x == 13 || x == 40 {
                        panic!("boom at {x}");
                    }
                    x
                })
                .unwrap_err();
            assert!(
                matches!(&err, PoolError::TaskPanicked { index: 13, message } if message.contains("boom at 13")),
                "work={work}: {err:?}"
            );

            let plan = FaultPlan::parse("pool.task:error").unwrap();
            let err = with_plan(&plan, || pool.try_map_work(&items, work, |_, &x| x)).unwrap_err();
            assert!(matches!(err, PoolError::Fault(f) if f.site == "pool.task"), "work={work}");

            let rec = qcat_obs::Recorder::metrics_only();
            let gas = Budget::default().with_deadline(std::time::Duration::ZERO).start();
            let err = qcat_obs::with_recorder(&rec, || {
                with_budget(&gas, || pool.try_map_work(&items, work, |_, &x| x))
            })
            .unwrap_err();
            assert_eq!(
                err,
                PoolError::Cancelled(qcat_fault::BudgetExceeded::Deadline),
                "work={work}"
            );
            assert_eq!(rec.snapshot().counters.get("pool.cancelled"), Some(&1), "work={work}");
        }
    }

    #[test]
    fn resolve_threads_prefers_explicit_request() {
        assert_eq!(resolve_threads(7), 7);
        assert!(resolve_threads(0) >= 1);
    }

    #[test]
    fn pool_reports_resolved_width() {
        assert_eq!(ThreadPool::new(5).threads(), 5);
        assert!(ThreadPool::new(0).threads() >= 1);
    }
}
