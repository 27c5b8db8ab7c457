#![deny(missing_docs)]

//! First-party observability for the qcat workspace: spans, metrics,
//! structured events, and two exporters — with near-zero overhead when
//! disabled.
//!
//! The paper's headline claims are about *cost* (information-overload
//! cost, Eq. 1/2) and *wall-clock* (Figure 13: "a few seconds …
//! dominated by partitioning"). This crate is how the repo attributes
//! both: every pipeline stage opens a [`span!`], hot loops bump
//! [`counter`]s, and span durations aggregate into fixed-bucket
//! latency [`hist::Histogram`]s with p50/p95/p99 readout.
//!
//! # Model
//!
//! - **Spans** ([`span!`], [`SpanGuard`]): RAII-timed regions with a
//!   thread-local depth stack. Dropping the guard (including during
//!   panic unwind) closes the span, records its duration, and — in
//!   JSON mode — emits a `span_close` line.
//! - **Metrics**: monotonically-increasing [`counter`]s, last-write
//!   [`gauge`]s, and per-span-name latency histograms.
//! - **Events** ([`event!`]): point-in-time records with key/value
//!   [`Value`] fields.
//! - **Traces** ([`TraceScope`], [`capture_parent`]): a query-scoped
//!   causal identity — every line carries `trace`/`span`/`parent` ids,
//!   propagated into `qcat-pool` workers so work items open real
//!   parented spans on their own threads.
//! - **Flight recorder** ([`flight`]): bounded per-trace capture with
//!   tail-based sampling — anomalous, slow, or sampled traces are
//!   retained as full causal dumps; the rest are discarded.
//! - **Exporters**: a human-readable summary ([`summary::render`])
//!   and a machine-readable JSONL event log (one JSON object per
//!   line; schema in `docs/OBSERVABILITY.md`), auditable by
//!   `qcat-lint --audit-trace`.
//!
//! # Enabling
//!
//! Library crates never touch the environment: they record into the
//! *current* recorder, which is either a thread-scoped handle
//! installed with [`with_recorder`] or the process-global one a
//! binary installs via [`init_from_env`] (`QCAT_TRACE=off|text|json`,
//! JSONL destination `QCAT_TRACE_FILE`). With neither installed,
//! every instrumentation point reduces to one thread-local flag read
//! plus one relaxed atomic load and returns immediately — no locks,
//! no allocation, no formatting.
//!
//! ```
//! let rec = qcat_obs::Recorder::buffered();
//! qcat_obs::with_recorder(&rec, || {
//!     let _outer = qcat_obs::span!("demo.outer", size = 3usize);
//!     qcat_obs::counter("demo.items", 3);
//!     qcat_obs::event!("demo.tick", phase = "warm");
//! });
//! let log = rec.drain_jsonl();
//! assert!(log.lines().count() >= 3);
//! ```

pub mod flight;
pub mod hist;
pub mod json;
pub mod recorder;
pub mod span;
pub mod summary;
pub mod trace;
pub mod value;

pub use flight::{DumpReason, FlightConfig, FlightDump};
pub use hist::{Exemplar, Histogram};
pub use recorder::{
    active, counter, current_recorder, event_with, finish_global, gauge, global_mode,
    init_from_env, install_global, with_recorder, Recorder, Snapshot, SpanStats, TraceMode,
};
pub use span::{span, span_with, SpanGuard};
pub use trace::{capture_parent, current_trace, ParentContext, TraceScope};
pub use value::Value;

/// Open a timed span: `span!("name")` or
/// `span!("name", key = value, ...)`.
///
/// Returns a [`SpanGuard`]; the span closes when the guard drops.
/// Field expressions are not evaluated when tracing is disabled.
#[macro_export]
macro_rules! span {
    ($name:expr) => {
        $crate::span($name)
    };
    ($name:expr $(, $k:ident = $v:expr)+ $(,)?) => {
        if $crate::active() {
            $crate::span_with($name, vec![$((stringify!($k), $crate::Value::from($v))),+])
        } else {
            $crate::SpanGuard::disabled()
        }
    };
}

/// Record a structured event: `event!("name", key = value, ...)`.
///
/// Field expressions are not evaluated when tracing is disabled.
#[macro_export]
macro_rules! event {
    ($name:expr $(, $k:ident = $v:expr)* $(,)?) => {
        if $crate::active() {
            $crate::event_with($name, vec![$((stringify!($k), $crate::Value::from($v))),*]);
        }
    };
}
