//! The [`Recorder`]: where spans, counters, gauges, and events land.
//!
//! Instrumentation sites write to the *current* recorder — a
//! thread-scoped handle installed with [`with_recorder`], falling back
//! to the process-global one a binary installs via [`install_global`]
//! or [`init_from_env`]. When neither exists, [`active`] is false and
//! every site returns after one thread-local read plus one relaxed
//! atomic load.

use std::cell::{Cell, RefCell};
use std::collections::{BTreeMap, VecDeque};
use std::io::Write;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};
use std::time::Instant;

use crate::flight::{is_anomaly_signal, DumpReason, FlightConfig, FlightDump};
use crate::hist::Histogram;
use crate::value::Value;

/// Export mode of the process-global recorder.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceMode {
    /// No global recorder: instrumentation is a no-op.
    Off,
    /// Metrics only; [`finish_global`] prints a human-readable summary.
    Text,
    /// Stream JSONL events as they happen, plus metrics.
    Json,
}

/// Where emitted JSONL lines go.
enum Sink {
    /// Drop events (metrics still aggregate).
    Null,
    /// Accumulate lines in memory (tests, integration harnesses).
    Buffer(Vec<String>),
    /// Stream lines to a writer (file or stderr).
    Writer(Box<dyn Write + Send>),
}

/// One in-progress trace's flight-recorder buffer.
struct TraceBuf {
    start_ns: u64,
    lines: Vec<String>,
    truncated: usize,
    /// First anomaly signal observed (counter/event name or explicit
    /// mark); `Some` guarantees a dump at trace end.
    anomaly: Option<String>,
}

/// Flight-recorder state: live trace buffers plus the finished-dump
/// ring. All bounded — see [`FlightConfig`].
struct FlightState {
    config: FlightConfig,
    traces: BTreeMap<u64, TraceBuf>,
    dumps: VecDeque<FlightDump>,
    healthy_seen: u64,
}

/// Mutable recorder state behind one mutex. Instrumented code only
/// touches it when tracing is *on*, so a plain mutex (not sharded
/// atomics) keeps the disabled path free and the enabled path simple.
struct State {
    sink: Sink,
    counters: BTreeMap<String, i64>,
    gauges: BTreeMap<String, f64>,
    spans: BTreeMap<String, Histogram>,
    flight: FlightState,
}

/// Where a trace line sits in its causal tree: the trace it belongs
/// to, its own span id (span kinds only), its parent span id (0 =
/// root of its trace), and its nesting depth on its thread.
#[derive(Debug, Clone, Copy)]
pub(crate) struct LineIds {
    pub trace: u64,
    pub span: u64,
    pub parent: u64,
    pub depth: usize,
}

struct Inner {
    /// Whether span open/close and events serialize to the sink.
    /// `false` for metrics-only recorders: spans still aggregate into
    /// histograms but nothing is formatted.
    emit_events: bool,
    start: Instant,
    seq: AtomicU64,
    state: Mutex<State>,
}

/// A handle to a recorder. Clones share state; the handle is `Send`
/// and `Sync` so one recorder can collect from many threads.
#[derive(Clone)]
pub struct Recorder {
    inner: Arc<Inner>,
}

impl std::fmt::Debug for Recorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Recorder")
            .field("emit_events", &self.inner.emit_events)
            .finish_non_exhaustive()
    }
}

/// Recover from a poisoned mutex: the state is plain aggregates, safe
/// to keep using after another thread panicked mid-update.
#[allow(
    clippy::disallowed_methods,
    reason = "L7: the recorder's one poison-recovering lock helper"
)]
fn lock_state(inner: &Inner) -> MutexGuard<'_, State> {
    inner.state.lock().unwrap_or_else(|e| e.into_inner())
}

impl Recorder {
    fn with_sink(sink: Sink, emit_events: bool) -> Recorder {
        Recorder {
            inner: Arc::new(Inner {
                emit_events,
                start: Instant::now(),
                seq: AtomicU64::new(0),
                state: Mutex::new(State {
                    sink,
                    counters: BTreeMap::new(),
                    gauges: BTreeMap::new(),
                    spans: BTreeMap::new(),
                    flight: FlightState {
                        config: FlightConfig::default(),
                        traces: BTreeMap::new(),
                        dumps: VecDeque::new(),
                        healthy_seen: 0,
                    },
                }),
            }),
        }
    }

    /// A recorder that buffers JSONL lines in memory; read them back
    /// with [`Recorder::drain_jsonl`]. Intended for tests.
    pub fn buffered() -> Recorder {
        Recorder::with_sink(Sink::Buffer(Vec::new()), true)
    }

    /// A recorder that aggregates metrics and span histograms but
    /// formats nothing — the cheapest enabled mode.
    pub fn metrics_only() -> Recorder {
        Recorder::with_sink(Sink::Null, false)
    }

    /// A recorder that streams JSONL lines to `w` as they happen.
    pub fn to_writer(w: Box<dyn Write + Send>) -> Recorder {
        Recorder::with_sink(Sink::Writer(w), true)
    }

    /// Nanoseconds since this recorder was created (monotonic).
    pub(crate) fn now_ns(&self) -> u64 {
        self.inner.start.elapsed().as_nanos() as u64
    }

    pub(crate) fn emits_events(&self) -> bool {
        self.inner.emit_events
    }

    /// Serialize one trace line. `dur_ns` is present only on
    /// `span_close`. Callers pass a pre-captured `ts_ns` so the close
    /// duration equals exactly `close.ts_ns - open.ts_ns`.
    ///
    /// The `seq` number is allocated *inside* the sink lock so the
    /// emitted file order is the seq order even when worker threads
    /// emit concurrently — the T1 strictly-increasing contract.
    pub(crate) fn emit_line(
        &self,
        ts_ns: u64,
        kind: &str,
        name: &str,
        dur_ns: Option<u64>,
        ids: LineIds,
        fields: &[(&'static str, Value)],
    ) {
        if !self.inner.emit_events {
            return;
        }
        // Everything after the seq number formats outside the lock.
        let mut tail = String::with_capacity(160);
        tail.push_str(",\"ts_ns\":");
        tail.push_str(&ts_ns.to_string());
        tail.push_str(",\"thread\":");
        tail.push_str(&crate::json::escape(&crate::span::thread_label()));
        tail.push_str(",\"kind\":\"");
        tail.push_str(kind);
        tail.push_str("\",\"name\":");
        tail.push_str(&crate::json::escape(name));
        tail.push_str(",\"depth\":");
        tail.push_str(&ids.depth.to_string());
        tail.push_str(",\"trace\":");
        tail.push_str(&ids.trace.to_string());
        if ids.span != 0 {
            tail.push_str(",\"span\":");
            tail.push_str(&ids.span.to_string());
        }
        tail.push_str(",\"parent\":");
        tail.push_str(&ids.parent.to_string());
        if let Some(dur) = dur_ns {
            tail.push_str(",\"dur_ns\":");
            tail.push_str(&dur.to_string());
        }
        tail.push_str(",\"fields\":{");
        for (i, (k, v)) in fields.iter().enumerate() {
            if i > 0 {
                tail.push(',');
            }
            tail.push_str(&crate::json::escape(k));
            tail.push(':');
            tail.push_str(&v.to_json());
        }
        tail.push_str("}}");
        let mut state = lock_state(&self.inner);
        let seq = self.inner.seq.fetch_add(1, Ordering::Relaxed);
        let line = format!("{{\"seq\":{seq}{tail}");
        if ids.trace != 0 && state.flight.config.enabled {
            let cap = state.flight.config.per_trace_line_cap;
            if let Some(buf) = state.flight.traces.get_mut(&ids.trace) {
                if buf.lines.len() < cap {
                    buf.lines.push(line.clone());
                } else {
                    buf.truncated += 1;
                }
                if kind == "event" && is_anomaly_signal(name) && buf.anomaly.is_none() {
                    buf.anomaly = Some(name.to_string());
                }
            }
        }
        match &mut state.sink {
            Sink::Null => {}
            Sink::Buffer(buf) => buf.push(line),
            Sink::Writer(w) => {
                let _ = writeln!(w, "{line}");
            }
        }
    }

    /// Record a closed span's duration into its per-name histogram,
    /// tagging the sample with the trace it belongs to (0 = untraced)
    /// so tail exemplars can link back to a flight-recorder dump.
    pub(crate) fn record_span(&self, name: &str, dur_ns: u64, trace: u64) {
        let mut state = lock_state(&self.inner);
        // get_mut-first keeps the steady state allocation-free.
        if let Some(h) = state.spans.get_mut(name) {
            h.record_with_trace(dur_ns, trace);
        } else {
            let mut h = Histogram::new();
            h.record_with_trace(dur_ns, trace);
            state.spans.insert(name.to_string(), h);
        }
    }

    fn add_counter(&self, name: &str, delta: i64) {
        let trace = crate::trace::current_trace();
        let mut state = lock_state(&self.inner);
        if let Some(v) = state.counters.get_mut(name) {
            *v += delta;
        } else {
            state.counters.insert(name.to_string(), delta);
        }
        // Anomaly signals travel as counters (budget.exceeded,
        // fault.*, pool.cancelled, ...), so the flight recorder hooks
        // the counter path too, not just events.
        if trace != 0 && is_anomaly_signal(name) {
            if let Some(buf) = state.flight.traces.get_mut(&trace) {
                if buf.anomaly.is_none() {
                    buf.anomaly = Some(name.to_string());
                }
            }
        }
    }

    fn set_gauge(&self, name: &str, v: f64) {
        let mut state = lock_state(&self.inner);
        state.gauges.insert(name.to_string(), v);
    }

    /// Take all buffered JSONL lines, joined with newlines. Empty for
    /// non-buffered recorders.
    pub fn drain_jsonl(&self) -> String {
        let mut state = lock_state(&self.inner);
        match &mut state.sink {
            Sink::Buffer(buf) => {
                let lines = std::mem::take(buf);
                lines.join("\n")
            }
            _ => String::new(),
        }
    }

    /// Flush a streaming sink (no-op otherwise).
    pub fn flush(&self) {
        let mut state = lock_state(&self.inner);
        if let Sink::Writer(w) = &mut state.sink {
            let _ = w.flush();
        }
    }

    /// Replace this recorder's flight-recorder configuration. In-flight
    /// trace buffers keep capturing under the new caps.
    pub fn set_flight_config(&self, config: FlightConfig) {
        lock_state(&self.inner).flight.config = config;
    }

    /// The current flight-recorder configuration.
    pub fn flight_config(&self) -> FlightConfig {
        lock_state(&self.inner).flight.config
    }

    /// Begin capturing a trace (called by `TraceScope::start`).
    pub(crate) fn trace_begin(&self, trace: u64) {
        if !self.inner.emit_events {
            return;
        }
        let now = self.now_ns();
        let mut state = lock_state(&self.inner);
        if !state.flight.config.enabled {
            return;
        }
        state.flight.traces.insert(
            trace,
            TraceBuf {
                start_ns: now,
                lines: Vec::new(),
                truncated: 0,
                anomaly: None,
            },
        );
    }

    /// Mark an in-flight trace anomalous, guaranteeing a dump.
    pub fn mark_trace(&self, trace: u64, reason: &str) {
        if trace == 0 {
            return;
        }
        let mut state = lock_state(&self.inner);
        if let Some(buf) = state.flight.traces.get_mut(&trace) {
            if buf.anomaly.is_none() {
                buf.anomaly = Some(reason.to_string());
            }
        }
    }

    /// End a trace (called by `TraceScope`'s drop): tail-based
    /// sampling decides whether the buffered lines become a dump.
    pub(crate) fn trace_end(&self, trace: u64) {
        let now = self.now_ns();
        let mut state = lock_state(&self.inner);
        let Some(buf) = state.flight.traces.remove(&trace) else {
            return;
        };
        let dur_ns = now.saturating_sub(buf.start_ns);
        let reason = if let Some(what) = buf.anomaly {
            DumpReason::Anomaly(what)
        } else if dur_ns >= state.flight.config.slow_ns {
            DumpReason::Slow
        } else {
            state.flight.healthy_seen += 1;
            let every = state.flight.config.sample_every;
            if every > 0 && state.flight.healthy_seen.is_multiple_of(every) {
                DumpReason::Sampled
            } else {
                return; // healthy and unsampled: discard
            }
        };
        let dump = FlightDump {
            trace,
            reason,
            dur_ns,
            lines: buf.lines,
            truncated: buf.truncated,
        };
        let cap = state.flight.config.dump_capacity.max(1);
        while state.flight.dumps.len() >= cap {
            state.flight.dumps.pop_front();
        }
        state.flight.dumps.push_back(dump);
    }

    /// Copies of the retained flight-recorder dumps, oldest first.
    pub fn flight_dumps(&self) -> Vec<FlightDump> {
        lock_state(&self.inner).flight.dumps.iter().cloned().collect()
    }

    /// Drain the retained flight-recorder dumps, oldest first.
    pub fn take_flight_dumps(&self) -> Vec<FlightDump> {
        lock_state(&self.inner).flight.dumps.drain(..).collect()
    }

    /// The retained dump for one trace id, if still in the ring.
    pub fn flight_dump_for(&self, trace: u64) -> Option<FlightDump> {
        lock_state(&self.inner)
            .flight
            .dumps
            .iter()
            .rev()
            .find(|d| d.trace == trace)
            .cloned()
    }

    /// Copy out the current aggregate metrics.
    pub fn snapshot(&self) -> Snapshot {
        let state = lock_state(&self.inner);
        Snapshot {
            counters: state.counters.clone(),
            gauges: state.gauges.clone(),
            spans: state.spans.clone(),
        }
    }
}

/// A point-in-time copy of a recorder's aggregate metrics.
#[derive(Debug, Clone, Default)]
pub struct Snapshot {
    /// Counter totals by name.
    pub counters: BTreeMap<String, i64>,
    /// Last-written gauge values by name.
    pub gauges: BTreeMap<String, f64>,
    /// Per-span-name duration histograms (nanoseconds).
    pub spans: BTreeMap<String, Histogram>,
}

/// Aggregate duration statistics for one span name.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanStats {
    /// Span name.
    pub name: String,
    /// Number of times the span closed.
    pub count: u64,
    /// Total nanoseconds across all closes.
    pub total_ns: u64,
    /// Mean duration in nanoseconds.
    pub mean_ns: f64,
    /// Approximate median duration in nanoseconds.
    pub p50_ns: u64,
    /// Approximate 95th-percentile duration in nanoseconds.
    pub p95_ns: u64,
    /// Approximate 99th-percentile duration in nanoseconds.
    pub p99_ns: u64,
    /// Tail exemplars: the largest traced samples, each linking a
    /// duration to the trace id that produced it (and thence to a
    /// flight-recorder dump).
    pub exemplars: Vec<crate::hist::Exemplar>,
}

impl Snapshot {
    /// The metrics recorded since `baseline` was taken from the same
    /// recorder: counters subtract, gauges keep their current value,
    /// span histograms difference bucket-wise.
    pub fn delta(&self, baseline: &Snapshot) -> Snapshot {
        let counters = self
            .counters
            .iter()
            .map(|(k, v)| (k.clone(), v - baseline.counters.get(k).copied().unwrap_or(0)))
            .filter(|(_, v)| *v != 0)
            .collect();
        let spans = self
            .spans
            .iter()
            .map(|(k, h)| match baseline.spans.get(k) {
                Some(b) => (k.clone(), h.delta(b)),
                None => (k.clone(), h.clone()),
            })
            .filter(|(_, h)| h.count() > 0)
            .collect();
        Snapshot {
            counters,
            gauges: self.gauges.clone(),
            spans,
        }
    }

    /// Per-span-name statistics, sorted by descending total time.
    pub fn span_stats(&self) -> Vec<SpanStats> {
        let mut stats: Vec<SpanStats> = self
            .spans
            .iter()
            .map(|(name, h)| SpanStats {
                name: name.clone(),
                count: h.count(),
                total_ns: h.sum(),
                mean_ns: h.mean(),
                p50_ns: h.quantile(0.50),
                p95_ns: h.quantile(0.95),
                p99_ns: h.quantile(0.99),
                exemplars: h.exemplars().to_vec(),
            })
            .collect();
        stats.sort_by(|a, b| b.total_ns.cmp(&a.total_ns).then(a.name.cmp(&b.name)));
        stats
    }
}

// ---------------------------------------------------------------------------
// The current recorder: thread-scoped overrides over a process global.
// ---------------------------------------------------------------------------

static GLOBAL_ACTIVE: AtomicBool = AtomicBool::new(false);
static GLOBAL_MODE: AtomicU8 = AtomicU8::new(0);
static GLOBAL: OnceLock<Recorder> = OnceLock::new();

thread_local! {
    static OVERRIDE: RefCell<Vec<Recorder>> = const { RefCell::new(Vec::new()) };
    /// Mirror of `OVERRIDE.len()` readable without a RefCell borrow —
    /// this keeps [`active`] a plain `Cell` read on the fast path.
    static OVERRIDE_DEPTH: Cell<usize> = const { Cell::new(0) };
}

/// Whether any recorder is current on this thread. This is the whole
/// disabled-path cost: one thread-local `Cell` read and one relaxed
/// atomic load.
#[inline]
pub fn active() -> bool {
    OVERRIDE_DEPTH.with(|d| d.get() > 0) || GLOBAL_ACTIVE.load(Ordering::Relaxed)
}

/// The recorder instrumentation would write to right now, if any:
/// the innermost [`with_recorder`] scope, else the global.
pub fn current_recorder() -> Option<Recorder> {
    if OVERRIDE_DEPTH.with(|d| d.get() > 0) {
        if let Some(rec) = OVERRIDE.with(|o| o.borrow().last().cloned()) {
            return Some(rec);
        }
    }
    if GLOBAL_ACTIVE.load(Ordering::Relaxed) {
        return GLOBAL.get().cloned();
    }
    None
}

/// Run `f` with `rec` as this thread's current recorder, shadowing the
/// global. Scopes nest; the previous recorder is restored even if `f`
/// panics.
pub fn with_recorder<T>(rec: &Recorder, f: impl FnOnce() -> T) -> T {
    struct PopOnDrop;
    impl Drop for PopOnDrop {
        fn drop(&mut self) {
            OVERRIDE.with(|o| {
                o.borrow_mut().pop();
            });
            OVERRIDE_DEPTH.with(|d| d.set(d.get().saturating_sub(1)));
        }
    }
    OVERRIDE.with(|o| o.borrow_mut().push(rec.clone()));
    OVERRIDE_DEPTH.with(|d| d.set(d.get() + 1));
    let _guard = PopOnDrop;
    f()
}

/// Install `rec` as the process-global recorder. First call wins;
/// returns `false` (leaving the existing global in place) on repeats.
pub fn install_global(rec: Recorder, mode: TraceMode) -> bool {
    let installed = GLOBAL.set(rec).is_ok();
    if installed {
        GLOBAL_MODE.store(
            match mode {
                TraceMode::Off => 0,
                TraceMode::Text => 1,
                TraceMode::Json => 2,
            },
            Ordering::Relaxed,
        );
        GLOBAL_ACTIVE.store(true, Ordering::Relaxed);
    }
    installed
}

/// The mode [`install_global`] / [`init_from_env`] recorded, or
/// [`TraceMode::Off`] when no global recorder exists.
pub fn global_mode() -> TraceMode {
    match GLOBAL_MODE.load(Ordering::Relaxed) {
        1 => TraceMode::Text,
        2 => TraceMode::Json,
        _ => TraceMode::Off,
    }
}

/// Where [`finish_global`] writes the flight-recorder dumps, when
/// `QCAT_FLIGHT_FILE` was set at init.
static FLIGHT_FILE: OnceLock<String> = OnceLock::new();

/// Read `QCAT_TRACE` (`off`/`text`/`json`; unset or unknown = off) and
/// install a matching global recorder. In `json` mode the JSONL stream
/// goes to the path in `QCAT_TRACE_FILE`, or stderr when unset; if the
/// file cannot be created, falls back to stderr after one warning
/// line. Binaries call this once at startup — library crates never
/// read the environment.
///
/// Flight-recorder knobs (JSON mode only):
/// - `QCAT_SLOW_MS` — dump any trace lasting at least this many
///   milliseconds (unset = no slow threshold).
/// - `QCAT_TRACE_SAMPLE` — dump one in N healthy traces (unset = 0,
///   no healthy sampling).
/// - `QCAT_FLIGHT_FILE` — [`finish_global`] writes the retained dumps
///   to this path as concatenated JSONL.
#[allow(
    clippy::print_stderr,
    reason = "L5: the exporter reports a trace file it cannot create on stderr"
)]
pub fn init_from_env() -> TraceMode {
    let mode = match std::env::var("QCAT_TRACE").ok().as_deref() {
        Some("text") => TraceMode::Text,
        Some("json") => TraceMode::Json,
        _ => TraceMode::Off,
    };
    match mode {
        TraceMode::Off => {}
        TraceMode::Text => {
            install_global(Recorder::metrics_only(), TraceMode::Text);
        }
        TraceMode::Json => {
            let sink: Box<dyn Write + Send> = match std::env::var("QCAT_TRACE_FILE").ok() {
                Some(path) => match std::fs::File::create(&path) {
                    Ok(f) => Box::new(std::io::BufWriter::new(f)),
                    Err(e) => {
                        eprintln!("qcat-obs: cannot create QCAT_TRACE_FILE `{path}` ({e}); tracing to stderr");
                        Box::new(std::io::stderr())
                    }
                },
                None => Box::new(std::io::stderr()),
            };
            let rec = Recorder::to_writer(sink);
            let env_u64 = |key: &str| {
                std::env::var(key)
                    .ok()
                    .and_then(|v| v.trim().parse::<u64>().ok())
            };
            let mut flight = FlightConfig::default();
            if let Some(ms) = env_u64("QCAT_SLOW_MS") {
                flight.slow_ns = ms.saturating_mul(1_000_000);
            }
            if let Some(every) = env_u64("QCAT_TRACE_SAMPLE") {
                flight.sample_every = every;
            }
            rec.set_flight_config(flight);
            if let Ok(path) = std::env::var("QCAT_FLIGHT_FILE") {
                let _ = FLIGHT_FILE.set(path);
            }
            install_global(rec, TraceMode::Json);
        }
    }
    mode
}

/// Finish the global recorder: flush a JSON stream (and write the
/// flight-recorder dumps to `QCAT_FLIGHT_FILE` if configured), or
/// render the text summary to stderr in text mode. Call once before
/// exit.
#[allow(
    clippy::print_stderr,
    reason = "L5: the exporter owns stderr for the text summary and write errors"
)]
pub fn finish_global() {
    let Some(rec) = GLOBAL.get() else {
        return;
    };
    match global_mode() {
        TraceMode::Off => {}
        TraceMode::Json => {
            rec.flush();
            if let Some(path) = FLIGHT_FILE.get() {
                let dumps = rec.flight_dumps();
                let mut out = String::new();
                for d in &dumps {
                    out.push_str(&d.to_jsonl());
                    out.push('\n');
                }
                if let Err(e) = std::fs::write(path, out) {
                    eprintln!("qcat-obs: cannot write QCAT_FLIGHT_FILE `{path}`: {e}");
                }
            }
        }
        TraceMode::Text => {
            eprintln!("{}", crate::summary::render(&rec.snapshot()));
        }
    }
}

// ---------------------------------------------------------------------------
// Free-function instrumentation API (used by the `event!` macro and
// direct call sites).
// ---------------------------------------------------------------------------

/// Add `delta` to the named counter on the current recorder (no-op
/// when tracing is disabled).
#[inline]
pub fn counter(name: &str, delta: i64) {
    if !active() {
        return;
    }
    if let Some(rec) = current_recorder() {
        rec.add_counter(name, delta);
    }
}

/// Set the named gauge on the current recorder (no-op when disabled).
#[inline]
pub fn gauge(name: &str, v: f64) {
    if !active() {
        return;
    }
    if let Some(rec) = current_recorder() {
        rec.set_gauge(name, v);
    }
}

/// Record a structured event with fields. Prefer the [`crate::event!`]
/// macro, which skips field evaluation when tracing is disabled.
pub fn event_with(name: &str, fields: Vec<(&'static str, Value)>) {
    if let Some(rec) = current_recorder() {
        let ts = rec.now_ns();
        let ids = LineIds {
            trace: crate::trace::current_trace(),
            span: 0,
            parent: crate::trace::current_parent(),
            depth: crate::span::current_depth(),
        };
        rec.emit_line(ts, "event", name, None, ids, &fields);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_sites_are_no_ops() {
        // No override on this thread; global may or may not be set by
        // other tests, so only assert the override-free behaviour.
        counter("t.noop", 1);
        gauge("t.noop", 1.0);
    }

    #[test]
    fn counters_and_gauges_aggregate() {
        let rec = Recorder::buffered();
        with_recorder(&rec, || {
            counter("t.rows", 10);
            counter("t.rows", 5);
            gauge("t.frac", 0.25);
            gauge("t.frac", 0.75);
        });
        let snap = rec.snapshot();
        assert_eq!(snap.counters.get("t.rows"), Some(&15));
        assert_eq!(snap.gauges.get("t.frac"), Some(&0.75));
    }

    #[test]
    fn with_recorder_nests_and_restores() {
        let outer = Recorder::buffered();
        let inner = Recorder::buffered();
        with_recorder(&outer, || {
            counter("t.where", 1);
            with_recorder(&inner, || counter("t.where", 10));
            counter("t.where", 2);
        });
        assert_eq!(outer.snapshot().counters.get("t.where"), Some(&3));
        assert_eq!(inner.snapshot().counters.get("t.where"), Some(&10));
        assert!(!OVERRIDE_DEPTH.with(|d| d.get() > 0));
    }

    #[test]
    fn with_recorder_restores_on_panic() {
        let rec = Recorder::buffered();
        let result = std::panic::catch_unwind(|| {
            with_recorder(&rec, || panic!("boom"));
        });
        assert!(result.is_err());
        assert_eq!(OVERRIDE_DEPTH.with(|d| d.get()), 0);
        assert!(OVERRIDE.with(|o| o.borrow().is_empty()));
    }

    #[test]
    fn events_serialize_to_jsonl() {
        let rec = Recorder::buffered();
        with_recorder(&rec, || {
            event_with("t.ping", vec![("n", Value::from(3usize))]);
        });
        let log = rec.drain_jsonl();
        let v = crate::json::parse(&log).unwrap();
        assert_eq!(v.get("kind").and_then(|k| k.as_str()), Some("event"));
        assert_eq!(v.get("name").and_then(|k| k.as_str()), Some("t.ping"));
        let fields = v.get("fields").unwrap();
        assert_eq!(fields.get("n").and_then(|n| n.as_f64()), Some(3.0));
    }

    #[test]
    fn snapshot_delta_subtracts() {
        let rec = Recorder::metrics_only();
        with_recorder(&rec, || counter("t.a", 5));
        let base = rec.snapshot();
        with_recorder(&rec, || {
            counter("t.a", 2);
            counter("t.b", 1);
        });
        let d = rec.snapshot().delta(&base);
        assert_eq!(d.counters.get("t.a"), Some(&2));
        assert_eq!(d.counters.get("t.b"), Some(&1));
    }

    #[test]
    fn span_stats_sorted_by_total() {
        let rec = Recorder::metrics_only();
        rec.record_span("t.fast", 10, 0);
        rec.record_span("t.slow", 1_000_000, 0);
        let stats = rec.snapshot().span_stats();
        assert_eq!(stats[0].name, "t.slow");
        assert_eq!(stats[1].name, "t.fast");
        assert_eq!(stats[0].count, 1);
        assert!(stats[0].p95_ns >= stats[1].p95_ns);
    }

    #[test]
    fn anomalous_trace_is_dumped_in_full() {
        let rec = Recorder::buffered();
        let trace = with_recorder(&rec, || {
            let t = crate::trace::TraceScope::start();
            let _s = crate::span!("t.flight.query");
            crate::event!("serve.degraded", reason = "budget");
            t.id()
        });
        assert_ne!(trace, 0);
        let dumps = rec.flight_dumps();
        assert_eq!(dumps.len(), 1);
        let d = &dumps[0];
        assert_eq!(d.trace, trace);
        assert_eq!(
            d.reason,
            crate::flight::DumpReason::Anomaly("serve.degraded".into())
        );
        assert_eq!(d.lines.len(), 3, "open + event + close");
        assert_eq!(d.truncated, 0);
        assert_eq!(rec.flight_dump_for(trace).map(|d| d.trace), Some(trace));
        assert!(rec.flight_dump_for(trace + 1).is_none());
    }

    #[test]
    fn anomaly_counters_mark_the_trace_too() {
        let rec = Recorder::buffered();
        with_recorder(&rec, || {
            let _t = crate::trace::TraceScope::start();
            let _s = crate::span!("t.flight.budget");
            counter("budget.exceeded", 1);
        });
        let dumps = rec.flight_dumps();
        assert_eq!(dumps.len(), 1);
        assert_eq!(
            dumps[0].reason,
            crate::flight::DumpReason::Anomaly("budget.exceeded".into())
        );
    }

    #[test]
    fn healthy_traces_are_discarded_unless_sampled() {
        let rec = Recorder::buffered();
        let mut cfg = crate::flight::FlightConfig::default();
        cfg.sample_every = 3;
        rec.set_flight_config(cfg);
        with_recorder(&rec, || {
            for _ in 0..6 {
                let _t = crate::trace::TraceScope::start();
                let _s = crate::span!("t.flight.healthy");
            }
        });
        let dumps = rec.flight_dumps();
        assert_eq!(dumps.len(), 2, "one in three healthy traces kept");
        assert!(dumps
            .iter()
            .all(|d| d.reason == crate::flight::DumpReason::Sampled));
    }

    #[test]
    fn slow_threshold_dumps_and_ring_is_bounded() {
        let rec = Recorder::buffered();
        let mut cfg = crate::flight::FlightConfig::default();
        cfg.slow_ns = 0; // everything is "slow"
        cfg.dump_capacity = 2;
        rec.set_flight_config(cfg);
        let ids: Vec<u64> = with_recorder(&rec, || {
            (0..4)
                .map(|_| {
                    let t = crate::trace::TraceScope::start();
                    let _s = crate::span!("t.flight.slow");
                    t.id()
                })
                .collect()
        });
        let dumps = rec.take_flight_dumps();
        assert_eq!(dumps.len(), 2, "ring keeps only the newest two");
        assert_eq!(dumps[0].trace, ids[2]);
        assert_eq!(dumps[1].trace, ids[3]);
        assert!(dumps.iter().all(|d| d.reason == crate::flight::DumpReason::Slow));
        assert!(rec.flight_dumps().is_empty(), "take drains the ring");
    }

    #[test]
    fn per_trace_buffer_caps_and_counts_truncation() {
        let rec = Recorder::buffered();
        let mut cfg = crate::flight::FlightConfig::default();
        cfg.per_trace_line_cap = 4;
        cfg.slow_ns = 0;
        rec.set_flight_config(cfg);
        with_recorder(&rec, || {
            let _t = crate::trace::TraceScope::start();
            for _ in 0..4 {
                let _s = crate::span!("t.flight.chatty");
            }
        });
        let dumps = rec.flight_dumps();
        assert_eq!(dumps.len(), 1);
        assert_eq!(dumps[0].lines.len(), 4);
        assert_eq!(dumps[0].truncated, 4, "8 lines emitted, 4 kept");
    }
}
