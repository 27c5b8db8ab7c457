//! Engine 3: the JSONL trace auditor (rules T1–T5).
//!
//! `qcat-obs` emits one JSON object per line (schema in
//! `docs/OBSERVABILITY.md`). This module re-derives the invariants
//! that schema promises from the raw text, so a captured trace is
//! evidence rather than trust:
//!
//! - **T1** — every line parses as a flat JSON object with the
//!   required keys and types, `kind` is one of
//!   `span_open`/`span_close`/`event`, the optional identity keys
//!   (`trace`, `span`, `parent`) are non-negative integers, and `seq`
//!   strictly increases.
//! - **T2** — per (thread, trace), span opens and closes balance
//!   LIFO: a close names (and carries the span id of) the innermost
//!   open span of its own trace on its thread, recorded depths equal
//!   the thread's open-span count, and every stack is empty at end of
//!   file. Spans of different traces may interleave on one thread —
//!   a worker runs parented spans of the caller's trace — but within
//!   a trace the per-thread discipline is strict.
//! - **T3** — durations are non-negative, equal the close/open
//!   timestamp difference exactly (the recorder computes `dur_ns`
//!   from the same two timestamps it prints), and the direct
//!   children of a span do not collectively outlast it.
//! - **T4** — governance events (`serve.shed`, `serve.degraded`,
//!   `serve.cancel`) are emitted inside an open `serve.query` span on
//!   their thread, so every shed or degraded answer is attributable
//!   to the query that suffered it.
//! - **T5** — the causal tree is closed under parent links: a
//!   nonzero `parent` id names a span previously opened in the same
//!   trace, and no span id is reused within a trace.
//!
//! Lines without the identity keys (pre-trace recordings) default
//! them to 0 and audit exactly as before — trace 0 is "untraced".
//!
//! Timestamps and sequence numbers travel as JSON numbers, parsed to
//! `f64` — exact for integers up to 2^53, i.e. ~104 days of
//! nanoseconds, far beyond any study run.

use crate::diag::{Diagnostic, Rule};
use qcat_obs::json::{parse, JsonValue};
use std::collections::BTreeMap;

/// Nanoseconds of slack T3 grants when comparing children against
/// their parent, absorbing monotonic-clock granularity on coarse
/// platforms. Exact-equality checks get no slack.
const CHILD_SUM_SLACK_NS: f64 = 1_000.0;

/// One open span on a per-(thread, trace) stack.
struct OpenSpan {
    name: String,
    span_id: u64,
    line: usize,
    ts_ns: f64,
    /// Total `dur_ns` of direct children closed so far.
    children_ns: f64,
}

/// Audit a JSONL trace. `origin` is the path reported in diagnostics;
/// `text` is the file's contents. Returns every violation found; an
/// empty vector means the trace is well-formed and balanced.
///
/// Lines that fail T1 are reported and excluded from the structural
/// checks, so one corrupt line yields one diagnostic, not a cascade.
pub fn audit_trace(origin: &str, text: &str) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    let mut last_seq: Option<f64> = None;
    // Span stacks keyed by (thread, trace): LIFO holds within a trace
    // on a thread, while traces may interleave on the same thread.
    let mut stacks: BTreeMap<(String, u64), Vec<OpenSpan>> = BTreeMap::new();
    // Open-span count per thread — what the recorder prints as depth.
    let mut depths: BTreeMap<String, usize> = BTreeMap::new();
    // Every span id ever opened per trace, with its line (T5).
    let mut opened: BTreeMap<u64, BTreeMap<u64, usize>> = BTreeMap::new();
    let mut any_line = false;

    for (idx, raw) in text.lines().enumerate() {
        let lineno = idx + 1;
        if raw.trim().is_empty() {
            continue;
        }
        any_line = true;
        let Some(rec) = check_t1(origin, lineno, raw, &mut last_seq, &mut diags) else {
            continue;
        };
        // T5: the parent must already exist within this trace. Opens
        // are registered before their children appear (the recorder
        // allocates `seq` and writes under one lock), so an ordered
        // check is exact, not an approximation.
        if rec.parent != 0
            && opened
                .get(&rec.trace)
                .is_none_or(|ids| !ids.contains_key(&rec.parent))
        {
            diags.push(Diagnostic::at(
                origin,
                lineno,
                Rule::T5ParentExists,
                format!(
                    "{} `{}` claims parent {} but no such span opened in trace {}",
                    rec.kind, rec.name, rec.parent, rec.trace
                ),
            ));
        }
        match rec.kind.as_str() {
            "span_open" => {
                if rec.span != 0 {
                    let ids = opened.entry(rec.trace).or_default();
                    if let Some(first) = ids.get(&rec.span) {
                        diags.push(Diagnostic::at(
                            origin,
                            lineno,
                            Rule::T5ParentExists,
                            format!(
                                "span id {} reused within trace {} (first opened at line {first})",
                                rec.span, rec.trace
                            ),
                        ));
                    } else {
                        ids.insert(rec.span, lineno);
                    }
                }
                let depth = depths.entry(rec.thread.clone()).or_insert(0);
                if rec.depth != *depth {
                    diags.push(Diagnostic::at(
                        origin,
                        lineno,
                        Rule::T2SpanBalance,
                        format!(
                            "span_open `{}` at depth {} but thread `{}` has {} open span(s)",
                            rec.name, rec.depth, rec.thread, depth
                        ),
                    ));
                }
                *depth += 1;
                stacks
                    .entry((rec.thread.clone(), rec.trace))
                    .or_default()
                    .push(OpenSpan {
                        name: rec.name,
                        span_id: rec.span,
                        line: lineno,
                        ts_ns: rec.ts_ns,
                        children_ns: 0.0,
                    });
            }
            "span_close" => {
                let key = (rec.thread.clone(), rec.trace);
                let stack = stacks.entry(key).or_default();
                let Some(open) = stack.pop() else {
                    diags.push(Diagnostic::at(
                        origin,
                        lineno,
                        Rule::T2SpanBalance,
                        format!(
                            "span_close `{}` on thread `{}` with no span open in trace {}",
                            rec.name, rec.thread, rec.trace
                        ),
                    ));
                    continue;
                };
                if open.name != rec.name {
                    diags.push(Diagnostic::at(
                        origin,
                        lineno,
                        Rule::T2SpanBalance,
                        format!(
                            "span_close `{}` does not match innermost open span `{}` (line {})",
                            rec.name, open.name, open.line
                        ),
                    ));
                }
                if rec.span != open.span_id {
                    diags.push(Diagnostic::at(
                        origin,
                        lineno,
                        Rule::T2SpanBalance,
                        format!(
                            "span_close `{}` carries span id {} but the open (line {}) had {}",
                            rec.name, rec.span, open.line, open.span_id
                        ),
                    ));
                }
                let depth = depths.entry(rec.thread.clone()).or_insert(0);
                *depth = depth.saturating_sub(1);
                if rec.depth != *depth {
                    diags.push(Diagnostic::at(
                        origin,
                        lineno,
                        Rule::T2SpanBalance,
                        format!(
                            "span_close `{}` at depth {} but it sits at depth {}",
                            rec.name, rec.depth, depth
                        ),
                    ));
                }
                // dur_ns presence is T1; its arithmetic is T3.
                let dur = rec.dur_ns.unwrap_or(0.0);
                if dur < 0.0 {
                    diags.push(Diagnostic::at(
                        origin,
                        lineno,
                        Rule::T3Durations,
                        format!("span `{}` has negative dur_ns {dur}", rec.name),
                    ));
                }
                let from_ts = rec.ts_ns - open.ts_ns;
                #[allow(
                    clippy::float_cmp,
                    reason = "L2: both are integer nanosecond counts, exact in f64"
                )]
                let mismatch = dur != from_ts;
                if mismatch {
                    diags.push(Diagnostic::at(
                        origin,
                        lineno,
                        Rule::T3Durations,
                        format!(
                            "span `{}` dur_ns {dur} but close-open timestamps give {from_ts}",
                            rec.name
                        ),
                    ));
                }
                let stack = stacks.entry((rec.thread.clone(), rec.trace)).or_default();
                if let Some(parent) = stack.last_mut() {
                    parent.children_ns += dur;
                }
                if open.children_ns > dur + CHILD_SUM_SLACK_NS {
                    diags.push(Diagnostic::at(
                        origin,
                        lineno,
                        Rule::T3Durations,
                        format!(
                            "span `{}` lasted {dur} ns but its direct children total {} ns",
                            rec.name, open.children_ns
                        ),
                    ));
                }
            }
            _ => {
                // "event": structurally free except for T4 — the
                // governance events must sit inside the serve.query
                // span whose outcome they explain, in any trace open
                // on the event's thread.
                const GOVERNANCE: &[&str] = &["serve.shed", "serve.degraded", "serve.cancel"];
                if GOVERNANCE.contains(&rec.name.as_str())
                    && !stacks
                        .iter()
                        .filter(|((thread, _), _)| *thread == rec.thread)
                        .any(|(_, stack)| stack.iter().any(|s| s.name == "serve.query"))
                {
                    diags.push(Diagnostic::at(
                        origin,
                        lineno,
                        Rule::T4ServeEnclosure,
                        format!(
                            "event `{}` on thread `{}` outside an open `serve.query` span",
                            rec.name, rec.thread
                        ),
                    ));
                }
            }
        }
    }

    if !any_line {
        diags.push(Diagnostic::file_level(
            origin,
            Rule::T1TraceSyntax,
            "trace is empty: an instrumented run must emit at least one line",
        ));
    }
    for ((thread, trace), stack) in &stacks {
        for open in stack {
            diags.push(Diagnostic::at(
                origin,
                open.line,
                Rule::T2SpanBalance,
                format!(
                    "span `{}` on thread `{thread}` (trace {trace}) opened here but never closed",
                    open.name
                ),
            ));
        }
    }
    diags
}

/// The fields of one schema-valid trace line. The identity triple
/// defaults to 0 ("untraced") when absent, keeping pre-trace
/// recordings auditable.
struct TraceRecord {
    kind: String,
    name: String,
    thread: String,
    depth: usize,
    ts_ns: f64,
    dur_ns: Option<f64>,
    trace: u64,
    span: u64,
    parent: u64,
}

/// T1 for one line: parse, check required keys/types and the `seq`
/// order. Returns the decoded record only when every check passes.
fn check_t1(
    origin: &str,
    lineno: usize,
    raw: &str,
    last_seq: &mut Option<f64>,
    diags: &mut Vec<Diagnostic>,
) -> Option<TraceRecord> {
    let t1 = |msg: String| Diagnostic::at(origin, lineno, Rule::T1TraceSyntax, msg);
    let v = match parse(raw) {
        Ok(v) => v,
        Err(e) => {
            diags.push(t1(format!("not valid JSON: {e}")));
            return None;
        }
    };
    if !matches!(v, JsonValue::Obj(_)) {
        diags.push(t1("line is not a JSON object".to_string()));
        return None;
    }
    let num = |key: &str| v.get(key).and_then(JsonValue::as_f64);
    let string = |key: &str| v.get(key).and_then(JsonValue::as_str);

    let mut missing = Vec::new();
    let seq = num("seq");
    let ts_ns = num("ts_ns");
    let thread = string("thread");
    let kind = string("kind");
    let name = string("name");
    let depth = num("depth");
    for (key, ok) in [
        ("seq", seq.is_some()),
        ("ts_ns", ts_ns.is_some()),
        ("thread", thread.is_some()),
        ("kind", kind.is_some()),
        ("name", name.is_some()),
        ("depth", depth.is_some()),
    ] {
        if !ok {
            missing.push(key);
        }
    }
    if !missing.is_empty() {
        diags.push(t1(format!(
            "missing or mistyped key(s): {}",
            missing.join(", ")
        )));
        return None;
    }
    let (seq, ts_ns, depth) = (
        seq.unwrap_or(0.0),
        ts_ns.unwrap_or(0.0),
        depth.unwrap_or(0.0),
    );
    let kind = kind.unwrap_or_default().to_string();
    if !matches!(kind.as_str(), "span_open" | "span_close" | "event") {
        diags.push(t1(format!("unknown kind `{kind}`")));
        return None;
    }
    let dur_ns = num("dur_ns");
    if kind == "span_close" && dur_ns.is_none() {
        diags.push(t1("span_close without numeric dur_ns".to_string()));
        return None;
    }
    if depth < 0.0 || depth.fract() != 0.0 {
        diags.push(t1(format!("depth {depth} is not a non-negative integer")));
        return None;
    }
    // Identity keys are optional (0 = none) but must be well-typed
    // when present.
    let mut ids = [0u64; 3];
    for (slot, key) in ids.iter_mut().zip(["trace", "span", "parent"]) {
        if v.get(key).is_none() {
            continue;
        }
        match num(key) {
            Some(n) if n >= 0.0 && n.fract() == 0.0 => *slot = n as u64,
            _ => {
                diags.push(t1(format!("{key} is not a non-negative integer")));
                return None;
            }
        }
    }
    let [trace, span, parent] = ids;
    if span != 0 && kind == "event" {
        diags.push(t1("event carries a span id (span ids belong to span lines)".to_string()));
        return None;
    }
    if let Some(prev) = *last_seq {
        if seq <= prev {
            diags.push(t1(format!(
                "seq {seq} does not increase (previous was {prev})"
            )));
        }
    }
    *last_seq = Some(seq);
    Some(TraceRecord {
        kind,
        name: name.unwrap_or_default().to_string(),
        thread: thread.unwrap_or_default().to_string(),
        depth: depth as usize,
        ts_ns,
        dur_ns,
        trace,
        span,
        parent,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn line(seq: u64, ts: u64, kind: &str, name: &str, depth: usize, dur: Option<u64>) -> String {
        let dur = dur.map_or(String::new(), |d| format!(",\"dur_ns\":{d}"));
        format!(
            "{{\"seq\":{seq},\"ts_ns\":{ts},\"thread\":\"main\",\"kind\":\"{kind}\",\"name\":\"{name}\",\"depth\":{depth}{dur},\"fields\":{{}}}}"
        )
    }

    /// A line carrying the full identity triple.
    #[allow(clippy::too_many_arguments, reason = "one parameter per trace-line field")]
    fn idline(
        seq: u64,
        ts: u64,
        thread: &str,
        kind: &str,
        name: &str,
        depth: usize,
        ids: (u64, u64, u64),
        dur: Option<u64>,
    ) -> String {
        let (trace, span, parent) = ids;
        let span = if span != 0 {
            format!(",\"span\":{span}")
        } else {
            String::new()
        };
        let dur = dur.map_or(String::new(), |d| format!(",\"dur_ns\":{d}"));
        format!(
            "{{\"seq\":{seq},\"ts_ns\":{ts},\"thread\":\"{thread}\",\"kind\":\"{kind}\",\"name\":\"{name}\",\"depth\":{depth},\"trace\":{trace}{span},\"parent\":{parent}{dur},\"fields\":{{}}}}"
        )
    }

    fn ids(diags: &[Diagnostic]) -> Vec<&'static str> {
        diags.iter().map(|d| d.rule.id()).collect()
    }

    #[test]
    fn balanced_trace_is_clean() {
        let text = [
            line(1, 10, "span_open", "outer", 0, None),
            line(2, 20, "span_open", "inner", 1, None),
            line(3, 25, "event", "tick", 2, None),
            line(4, 30, "span_close", "inner", 1, Some(10)),
            line(5, 50, "span_close", "outer", 0, Some(40)),
        ]
        .join("\n");
        assert_eq!(audit_trace("t.jsonl", &text), vec![]);
    }

    #[test]
    fn real_recorder_output_is_clean() {
        let rec = qcat_obs::Recorder::buffered();
        qcat_obs::with_recorder(&rec, || {
            let _a = qcat_obs::span!("a", n = 1i64);
            {
                let _b = qcat_obs::span!("b");
                qcat_obs::event!("e", msg = "hi");
            }
            let _c = qcat_obs::span!("c");
        });
        let text = rec.drain_jsonl();
        assert!(text.lines().count() >= 7, "{text}");
        assert_eq!(audit_trace("live.jsonl", &text), vec![]);
    }

    #[test]
    fn real_traced_recorder_output_is_clean() {
        let rec = qcat_obs::Recorder::buffered();
        qcat_obs::with_recorder(&rec, || {
            let scope = qcat_obs::TraceScope::start();
            assert_ne!(scope.id(), 0);
            let _a = qcat_obs::span!("serve.query");
            let _b = qcat_obs::span!("serve.fill");
            qcat_obs::event!("serve.degraded", reason = "shed");
        });
        let text = rec.drain_jsonl();
        assert_eq!(audit_trace("live.jsonl", &text), vec![], "{text}");
    }

    #[test]
    fn t1_rejects_garbage_missing_keys_and_bad_seq() {
        let text = [
            "not json at all".to_string(),
            "{\"seq\":1,\"kind\":\"event\"}".to_string(), // missing keys
            line(5, 10, "event", "a", 0, None),
            line(5, 11, "event", "b", 0, None), // seq repeats
            line(6, 12, "teleport", "c", 0, None), // unknown kind
            line(7, 13, "span_close", "d", 0, None), // close without dur
        ]
        .join("\n");
        let diags = audit_trace("t.jsonl", &text);
        // The dur-less close is rejected at T1 and never reaches the
        // stack, so the trailing close does not also fire T2.
        assert_eq!(ids(&diags), vec!["T1", "T1", "T1", "T1", "T1"]);
    }

    #[test]
    fn t1_rejects_mistyped_identity_keys() {
        let bad_trace =
            "{\"seq\":1,\"ts_ns\":5,\"thread\":\"main\",\"kind\":\"event\",\"name\":\"a\",\"depth\":0,\"trace\":-3,\"fields\":{}}";
        let bad_span =
            "{\"seq\":2,\"ts_ns\":6,\"thread\":\"main\",\"kind\":\"event\",\"name\":\"a\",\"depth\":0,\"span\":1.5,\"fields\":{}}";
        let event_with_span =
            "{\"seq\":3,\"ts_ns\":7,\"thread\":\"main\",\"kind\":\"event\",\"name\":\"a\",\"depth\":0,\"span\":4,\"fields\":{}}";
        let text = [bad_trace, bad_span, event_with_span].join("\n");
        let diags = audit_trace("t.jsonl", &text);
        assert_eq!(ids(&diags), vec!["T1", "T1", "T1"], "{diags:?}");
    }

    #[test]
    fn t2_catches_unbalanced_and_misnamed_closes() {
        let text = [
            line(1, 10, "span_open", "outer", 0, None),
            line(2, 20, "span_open", "inner", 1, None),
            line(3, 30, "span_close", "outer", 1, Some(10)), // wrong name
            line(4, 40, "span_close", "outer", 0, Some(30)),
            line(5, 50, "span_close", "ghost", 0, Some(1)), // nothing open
        ]
        .join("\n");
        let diags = audit_trace("t.jsonl", &text);
        assert!(ids(&diags).contains(&"T2"), "{diags:?}");
        assert!(
            diags
                .iter()
                .any(|d| d.message.contains("does not match innermost")),
            "{diags:?}"
        );
        assert!(
            diags.iter().any(|d| d.message.contains("no span open")),
            "{diags:?}"
        );
    }

    #[test]
    fn t2_reports_never_closed_spans() {
        let text = line(1, 10, "span_open", "leak", 0, None);
        let diags = audit_trace("t.jsonl", &text);
        assert_eq!(ids(&diags), vec!["T2"]);
        assert!(diags[0].message.contains("never closed"), "{diags:?}");
        assert_eq!(diags[0].line, 1);
    }

    #[test]
    fn t2_wrong_depth_is_flagged() {
        let text = [
            line(1, 10, "span_open", "outer", 0, None),
            line(2, 20, "span_open", "inner", 5, None), // depth lies
            line(3, 30, "span_close", "inner", 1, Some(10)),
            line(4, 40, "span_close", "outer", 0, Some(30)),
        ]
        .join("\n");
        let diags = audit_trace("t.jsonl", &text);
        assert_eq!(ids(&diags), vec!["T2"]);
        assert!(diags[0].message.contains("depth 5"), "{diags:?}");
    }

    #[test]
    fn t2_close_must_carry_the_open_span_id() {
        let text = [
            idline(1, 10, "main", "span_open", "a", 0, (7, 1, 0), None),
            idline(2, 30, "main", "span_close", "a", 0, (7, 2, 0), Some(20)),
        ]
        .join("\n");
        let diags = audit_trace("t.jsonl", &text);
        // The close's span id 2 also never opened (T5) and mismatches
        // the innermost open (T2).
        assert!(ids(&diags).contains(&"T2"), "{diags:?}");
        assert!(
            diags
                .iter()
                .any(|d| d.message.contains("carries span id 2")),
            "{diags:?}"
        );
    }

    #[test]
    fn t2_traces_interleave_on_one_thread_but_stay_lifo_within() {
        // An untraced outer span (trace 0) around a traced inner pair:
        // legal, because LIFO is per (thread, trace). The traced span
        // is a root of its own trace (parent 0) — parenthood never
        // crosses a trace boundary.
        let text = [
            idline(1, 10, "main", "span_open", "outer", 0, (0, 1, 0), None),
            idline(2, 20, "main", "span_open", "q", 1, (9, 2, 0), None),
            idline(3, 30, "main", "span_close", "q", 1, (9, 2, 0), Some(10)),
            idline(4, 40, "main", "span_close", "outer", 0, (0, 1, 0), Some(30)),
        ]
        .join("\n");
        assert_eq!(audit_trace("t.jsonl", &text), vec![]);

        // But closing across traces is not: trace 9's close cannot
        // consume trace 0's open.
        let text = [
            idline(1, 10, "main", "span_open", "outer", 0, (0, 1, 0), None),
            idline(2, 30, "main", "span_close", "outer", 0, (9, 1, 0), Some(20)),
        ]
        .join("\n");
        let diags = audit_trace("t.jsonl", &text);
        assert!(
            diags
                .iter()
                .any(|d| d.rule.id() == "T2" && d.message.contains("no span open in trace 9")),
            "{diags:?}"
        );
    }

    #[test]
    fn t3_checks_duration_arithmetic_and_children() {
        let text = [
            line(1, 10, "span_open", "outer", 0, None),
            line(2, 20, "span_open", "kid", 1, None),
            // Claims 90ns but timestamps say 80.
            line(3, 100, "span_close", "kid", 1, Some(90)),
            // Parent lasted 95ns yet its child claims 90 + slack < ok;
            // add a second child to push the sum over parent + slack.
            line(4, 101, "span_open", "kid2", 1, None),
            line(5, 104, "span_close", "kid2", 1, Some(3)),
            line(6, 105, "span_close", "outer", 0, Some(95)),
        ]
        .join("\n");
        let diags = audit_trace("t.jsonl", &text);
        assert_eq!(ids(&diags), vec!["T3"]);
        assert!(diags[0].message.contains("timestamps give 80"), "{diags:?}");

        // Children exceeding the parent beyond slack: shrink the
        // parent to 1ns while a child claims (a consistent) 2000ns.
        let text = [
            line(1, 0, "span_open", "outer", 0, None),
            line(2, 1, "span_open", "kid", 1, None),
            line(3, 2001, "span_close", "kid", 1, Some(2000)),
            line(4, 2002, "span_close", "outer", 0, Some(2002)),
        ]
        .join("\n");
        assert_eq!(audit_trace("t.jsonl", &text), vec![]); // within parent

        let text = [
            line(1, 0, "span_open", "outer", 0, None),
            line(2, 1, "span_open", "kid", 1, None),
            line(3, 5001, "span_close", "kid", 1, Some(5000)),
            // Parent's own claim is consistent with its timestamps but
            // shorter than the child's total: impossible nesting.
            "{\"seq\":4,\"ts_ns\":2,\"thread\":\"main\",\"kind\":\"span_close\",\"name\":\"outer\",\"depth\":0,\"dur_ns\":2,\"fields\":{}}".to_string(),
        ]
        .join("\n");
        let diags = audit_trace("t.jsonl", &text);
        assert!(
            diags
                .iter()
                .any(|d| d.rule.id() == "T3" && d.message.contains("direct children total")),
            "{diags:?}"
        );
    }

    #[test]
    fn t4_governance_events_need_an_open_serve_query_span() {
        // Inside serve.query (even nested deeper): clean.
        let text = [
            line(1, 10, "span_open", "serve.query", 0, None),
            line(2, 20, "event", "serve.shed", 1, None),
            line(3, 25, "span_open", "serve.categorize", 1, None),
            line(4, 30, "event", "serve.degraded", 2, None),
            line(5, 40, "span_close", "serve.categorize", 1, Some(15)),
            line(6, 50, "span_close", "serve.query", 0, Some(40)),
        ]
        .join("\n");
        assert_eq!(audit_trace("t.jsonl", &text), vec![]);

        // Outside any span, or inside an unrelated span: flagged.
        let text = [
            line(1, 10, "event", "serve.shed", 0, None),
            line(2, 20, "span_open", "other", 0, None),
            line(3, 30, "event", "serve.cancel", 1, None),
            line(4, 40, "span_close", "other", 0, Some(20)),
            line(5, 50, "event", "cache.hit", 0, None), // non-governance: free
        ]
        .join("\n");
        let diags = audit_trace("t.jsonl", &text);
        assert_eq!(ids(&diags), vec!["T4", "T4"]);
        assert!(
            diags[0].message.contains("outside an open `serve.query` span"),
            "{diags:?}"
        );
    }

    #[test]
    fn t4_is_per_thread() {
        // serve.query open on `main` does not license a governance
        // event on another thread.
        let a = |seq: u64, ts: u64, kind: &str, name: &str, depth: usize, dur: Option<u64>| {
            line(seq, ts, kind, name, depth, dur).replace("\"main\"", "\"worker-1\"")
        };
        let text = [
            line(1, 10, "span_open", "serve.query", 0, None),
            a(2, 20, "event", "serve.degraded", 0, None),
            line(3, 30, "span_close", "serve.query", 0, Some(20)),
        ]
        .join("\n");
        let diags = audit_trace("t.jsonl", &text);
        assert_eq!(ids(&diags), vec!["T4"]);
        assert!(diags[0].message.contains("worker-1"), "{diags:?}");
    }

    #[test]
    fn t5_parents_must_exist_within_the_trace() {
        // A worker span parented to the caller's span in the same
        // trace, across threads: clean.
        let text = [
            idline(1, 10, "main", "span_open", "serve.query", 0, (3, 1, 0), None),
            idline(2, 20, "qcat-pool-0", "span_open", "item", 0, (3, 2, 1), None),
            idline(3, 25, "qcat-pool-0", "event", "tick", 1, (3, 0, 2), None),
            idline(4, 30, "qcat-pool-0", "span_close", "item", 0, (3, 2, 1), Some(10)),
            idline(5, 50, "main", "span_close", "serve.query", 0, (3, 1, 0), Some(40)),
        ]
        .join("\n");
        assert_eq!(audit_trace("t.jsonl", &text), vec![]);

        // A parent id from a *different* trace does not count, and an
        // unknown parent is flagged on events too.
        let text = [
            idline(1, 10, "main", "span_open", "a", 0, (3, 1, 0), None),
            idline(2, 20, "main", "span_open", "b", 1, (4, 2, 1), None), // parent 1 is trace 3
            idline(3, 25, "main", "event", "e", 2, (4, 0, 99), None),    // parent 99 never opened
            idline(4, 30, "main", "span_close", "b", 1, (4, 2, 1), Some(10)),
            idline(5, 40, "main", "span_close", "a", 0, (3, 1, 0), Some(30)),
        ]
        .join("\n");
        let diags = audit_trace("t.jsonl", &text);
        assert_eq!(ids(&diags), vec!["T5", "T5", "T5"], "{diags:?}");
        assert!(
            diags[0].message.contains("no such span opened in trace 4"),
            "{diags:?}"
        );
    }

    #[test]
    fn t5_span_ids_are_not_reused_within_a_trace() {
        let text = [
            idline(1, 10, "main", "span_open", "a", 0, (3, 1, 0), None),
            idline(2, 20, "main", "span_open", "b", 1, (3, 1, 1), None), // id 1 again
            idline(3, 30, "main", "span_close", "b", 1, (3, 1, 1), Some(10)),
            idline(4, 40, "main", "span_close", "a", 0, (3, 1, 0), Some(30)),
        ]
        .join("\n");
        let diags = audit_trace("t.jsonl", &text);
        assert_eq!(ids(&diags), vec!["T5"], "{diags:?}");
        assert!(diags[0].message.contains("reused within trace 3"), "{diags:?}");
    }

    #[test]
    fn empty_trace_is_a_finding() {
        let diags = audit_trace("t.jsonl", "\n  \n");
        assert_eq!(ids(&diags), vec!["T1"]);
        assert!(diags[0].message.contains("empty"), "{diags:?}");
    }

    #[test]
    fn threads_have_independent_stacks() {
        let a = |seq: u64, ts: u64, kind: &str, name: &str, depth: usize, dur: Option<u64>| {
            line(seq, ts, kind, name, depth, dur).replace("\"main\"", "\"worker-1\"")
        };
        let text = [
            line(1, 10, "span_open", "m", 0, None),
            a(2, 11, "span_open", "w", 0, None),
            a(3, 20, "span_close", "w", 0, Some(9)),
            line(4, 30, "span_close", "m", 0, Some(20)),
        ]
        .join("\n");
        assert_eq!(audit_trace("t.jsonl", &text), vec![]);
    }
}
