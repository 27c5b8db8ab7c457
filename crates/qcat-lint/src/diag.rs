//! Diagnostics shared by both lint engines.

use std::fmt;

/// A lint or audit rule. Source rules carry file:line positions;
/// audit rules refer to tree nodes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Rule {
    /// L1: `unwrap()`/`expect()`/`panic!` in non-test library code.
    L1Panic,
    /// L2: NaN-unsafe float comparison (`partial_cmp().unwrap()`, or
    /// `==`/`!=` against a float) in cost/order/rank/partition code.
    L2FloatCmp,
    /// L3: forbidden inter-crate dependency (layering violation).
    L3Layering,
    /// L5: raw `println!`/`eprintln!`/`dbg!` in non-test library code
    /// (binaries and the `qcat-obs` exporter are exempt).
    L5RawPrint,
    /// L6: raw `std::thread` spawning (`thread::spawn`,
    /// `thread::scope`, `thread::Builder`) outside `qcat-pool`, the
    /// one crate sanctioned to create threads. Ad-hoc threads bypass
    /// `QCAT_THREADS` sizing, recorder propagation, and the
    /// deterministic result order the pool guarantees.
    L6RawSpawn,
    /// L7: `.lock().unwrap()` / `.lock().expect(` in non-test code.
    /// A panicking peer poisons the mutex and every later lock call
    /// panics too — one crash becomes a wedge. Lock through a
    /// designated poison-recovery helper
    /// (`.lock().unwrap_or_else(|e| e.into_inner())`) instead.
    L7LockUnwrap,
    /// L8: a cycle in the workspace lock-acquisition graph — some
    /// path acquires lock B while holding lock A and another path
    /// acquires A while holding B (or re-acquires the same lock it
    /// already holds). Either schedule can deadlock.
    L8LockOrder,
    /// L9: a loop over rows/candidates/nodes inside a budget-governed
    /// region whose body reaches no `Gas` poll (`checkpoint`,
    /// `charge_*`), directly or via a callee — cancellation and
    /// budget enforcement would stall for the whole loop.
    L9CheckpointGap,
    /// L10: a collection-allocating call (`with_capacity`, `insert`,
    /// `push` in a loop) inside a budget-governed region that is not
    /// reached by any heap-accounting helper (`charge_heap` /
    /// `heap_bytes`) — the allocation is invisible to
    /// `max_heap_bytes`.
    L10BudgetBlindAlloc,
    /// A1: `P(C)` or `Pw(C)` outside `[0, 1]` (or NaN).
    A1Probability,
    /// A2: leaf node with `Pw != 1`.
    A2LeafPw,
    /// A3: sibling tuple-sets overlap.
    A3TsetDisjoint,
    /// A4: children do not cover the parent tuple-set.
    A4TsetCover,
    /// A5: a tuple violates the root→C label conjunction.
    A5LabelPath,
    /// A6: negative or non-finite CostAll/CostOne.
    A6CostSign,
    /// A7: CostAll report disagrees with brute-force Eq. 1 (> 1e-9).
    A7CostEq1,
    /// T1: a trace line is not valid JSONL of the documented schema,
    /// or `seq` fails to increase.
    T1TraceSyntax,
    /// T2: span opens/closes are not balanced LIFO per (thread,
    /// trace) — a close must name (and carry the span id of) the
    /// innermost open span of its own trace on its thread, and the
    /// recorded depth must match the thread's open-span count.
    T2SpanBalance,
    /// T3: a duration is negative, disagrees with its span's
    /// timestamps, or children outlast their parent.
    T3Durations,
    /// T4: a `serve.shed`/`serve.degraded`/`serve.cancel` event
    /// outside an open `serve.query` span on its thread — governance
    /// events must be attributable to the query they degraded.
    T4ServeEnclosure,
    /// T5: a line's `parent` id names a span that was never opened in
    /// its trace (or a span id is reused within a trace) — the causal
    /// tree must be closed under parent links.
    T5ParentExists,
}

impl Rule {
    /// The stable identifier printed in diagnostics and matched by
    /// tests, e.g. `L1`, `A3`, `T2`.
    pub fn id(self) -> &'static str {
        match self {
            Rule::L1Panic => "L1",
            Rule::L2FloatCmp => "L2",
            Rule::L3Layering => "L3",
            Rule::L5RawPrint => "L5",
            Rule::L6RawSpawn => "L6",
            Rule::L7LockUnwrap => "L7",
            Rule::L8LockOrder => "L8",
            Rule::L9CheckpointGap => "L9",
            Rule::L10BudgetBlindAlloc => "L10",
            Rule::A1Probability => "A1",
            Rule::A2LeafPw => "A2",
            Rule::A3TsetDisjoint => "A3",
            Rule::A4TsetCover => "A4",
            Rule::A5LabelPath => "A5",
            Rule::A6CostSign => "A6",
            Rule::A7CostEq1 => "A7",
            Rule::T1TraceSyntax => "T1",
            Rule::T2SpanBalance => "T2",
            Rule::T3Durations => "T3",
            Rule::T4ServeEnclosure => "T4",
            Rule::T5ParentExists => "T5",
        }
    }
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.id())
    }
}

/// One violation, printable as `file:line: [RULE] message`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Repo-relative path of the offending file (or a pseudo-path
    /// like `<tree>` for audit findings).
    pub file: String,
    /// 1-based line, 0 when the finding has no line (manifest- or
    /// tree-level rules).
    pub line: usize,
    /// Which rule fired.
    pub rule: Rule,
    /// Human-readable description.
    pub message: String,
}

impl Diagnostic {
    /// Diagnostic at a source position.
    pub fn at(file: impl Into<String>, line: usize, rule: Rule, message: impl Into<String>) -> Self {
        Diagnostic {
            file: file.into(),
            line,
            rule,
            message: message.into(),
        }
    }

    /// Diagnostic with no meaningful line number.
    pub fn file_level(file: impl Into<String>, rule: Rule, message: impl Into<String>) -> Self {
        Self::at(file, 0, rule, message)
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.line == 0 {
            write!(f, "{}: [{}] {}", self.file, self.rule, self.message)
        } else {
            write!(f, "{}:{}: [{}] {}", self.file, self.line, self.rule, self.message)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_formats() {
        let d = Diagnostic::at("crates/core/src/cost.rs", 12, Rule::L1Panic, "call to unwrap()");
        assert_eq!(
            d.to_string(),
            "crates/core/src/cost.rs:12: [L1] call to unwrap()"
        );
        let f = Diagnostic::file_level("crates/qcat-sql/Cargo.toml", Rule::L3Layering, "depends on qcat-core");
        assert_eq!(
            f.to_string(),
            "crates/qcat-sql/Cargo.toml: [L3] depends on qcat-core"
        );
    }

    #[test]
    fn rule_ids_are_stable() {
        for (rule, id) in [
            (Rule::L1Panic, "L1"),
            (Rule::L2FloatCmp, "L2"),
            (Rule::L3Layering, "L3"),
            (Rule::L5RawPrint, "L5"),
            (Rule::L6RawSpawn, "L6"),
            (Rule::L7LockUnwrap, "L7"),
            (Rule::L8LockOrder, "L8"),
            (Rule::L9CheckpointGap, "L9"),
            (Rule::L10BudgetBlindAlloc, "L10"),
            (Rule::A1Probability, "A1"),
            (Rule::A2LeafPw, "A2"),
            (Rule::A3TsetDisjoint, "A3"),
            (Rule::A4TsetCover, "A4"),
            (Rule::A5LabelPath, "A5"),
            (Rule::A6CostSign, "A6"),
            (Rule::A7CostEq1, "A7"),
            (Rule::T1TraceSyntax, "T1"),
            (Rule::T2SpanBalance, "T2"),
            (Rule::T3Durations, "T3"),
            (Rule::T4ServeEnclosure, "T4"),
            (Rule::T5ParentExists, "T5"),
        ] {
            assert_eq!(rule.id(), id);
        }
    }
}
