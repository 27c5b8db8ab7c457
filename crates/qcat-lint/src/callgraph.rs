//! Call extraction and heuristic resolution over the symbol table.
//!
//! Calls are recognized lexically in each function body: `name(`
//! free/path calls and `.name(` method calls; `name!` macro
//! invocations are skipped. Resolution is by name against the
//! workspace symbol table, and returns **every** plausible
//! definition of the names it does resolve:
//!
//! - free calls prefer free definitions;
//! - `Type::name(` calls require a matching `impl Type`;
//! - `.name(` method calls require the receiver to correspond to the
//!   definition's `impl` type — `self.name(…)` must match the
//!   caller's own impl, and `catalog.get(…)` matches `impl Catalog`
//!   by name. Without types this is the only guard against
//!   `map.get(…)` resolving to every workspace `get`; a method call
//!   on a constructor temporary (`Categorizer::new(…).categorize(…)`)
//!   is typed by the constructor's qualifier, and any other temporary
//!   receiver (`…().get(…)`) resolves to nothing at all.
//!
//! Within those guards, over-approximating is the safe direction for
//! every consumer: the lock-order rule sees more potential
//! acquisitions, and the checkpoint/budget reachability sets grow
//! rather than shrink.

use crate::syms::{FnDef, SymbolTable};
use crate::lexer::{TokKind, Token};

/// One call site inside a function body.
#[derive(Debug, Clone)]
pub struct Call {
    /// Bare callee name.
    pub name: String,
    /// `.name(` method call (vs free or path call).
    pub method: bool,
    /// `Type::name(` qualifier, when present.
    pub qualifier: Option<String>,
    /// Index of the name token in the file's token stream.
    pub tok: usize,
    /// Last field/variable identifier of the receiver chain
    /// (`self.slot.state.lock(…)` → `state`), when the receiver is a
    /// plain path.
    pub recv_last: Option<String>,
    /// Receiver chain starts at `self`.
    pub recv_self: bool,
    /// Receiver type when the receiver is a constructor-call
    /// temporary: `Categorizer::new(…).categorize(…)` →
    /// `Categorizer`.
    pub recv_type: Option<String>,
    /// Last identifier of the first argument (`lock_recover(&self.b)`
    /// → `b`), when the argument is a plain path.
    pub arg0_last: Option<String>,
    /// First argument's path contains `self`.
    pub arg0_self: bool,
}

/// The workspace call graph: per-function call lists plus resolved
/// edges in both directions.
#[derive(Debug, Default)]
pub struct CallGraph {
    /// `calls[f]` — call sites inside `fns[f]`'s body.
    pub calls: Vec<Vec<Call>>,
    /// `callees[f]` — resolved definition indices `f` may call.
    pub callees: Vec<Vec<usize>>,
    /// `callers[f]` — inverse of `callees`.
    pub callers: Vec<Vec<usize>>,
}

/// Keywords and control constructs that look like `name(` but are not
/// calls.
const NOT_CALLS: &[&str] = &[
    "if", "else", "while", "for", "match", "return", "loop", "in", "move", "let", "fn", "pub",
    "impl", "use", "struct", "enum", "unsafe", "async", "const", "static", "where", "dyn", "ref",
    "mut", "as", "break", "continue", "crate", "super", "mod", "trait", "type", "extern",
];

impl CallGraph {
    /// Extract and resolve every call in every function body.
    pub fn build(table: &SymbolTable) -> CallGraph {
        let mut calls = Vec::with_capacity(table.fns.len());
        for def in &table.fns {
            let toks = table.tokens_of(def);
            calls.push(extract_calls(toks, def.body.0, def.body.1));
        }
        let mut callees: Vec<Vec<usize>> = vec![Vec::new(); table.fns.len()];
        let mut callers: Vec<Vec<usize>> = vec![Vec::new(); table.fns.len()];
        for (f, fcalls) in calls.iter().enumerate() {
            for call in fcalls {
                for target in resolve(table, Some(&table.fns[f]), call) {
                    if !callees[f].contains(&target) {
                        callees[f].push(target);
                        callers[target].push(f);
                    }
                }
            }
        }
        CallGraph {
            calls,
            callees,
            callers,
        }
    }

    /// All definitions reachable from `roots` along call edges
    /// (including the roots).
    pub fn reachable(&self, roots: &[usize]) -> Vec<bool> {
        let mut seen = vec![false; self.callees.len()];
        let mut work: Vec<usize> = roots.to_vec();
        for &r in roots {
            seen[r] = true;
        }
        while let Some(f) = work.pop() {
            for &g in &self.callees[f] {
                if !seen[g] {
                    seen[g] = true;
                    work.push(g);
                }
            }
        }
        seen
    }

    /// Fixpoint of a boolean property that propagates from callees to
    /// callers: `out[f] = seed[f] ∨ ∃ callee g with out[g]`.
    pub fn any_callee_fixpoint(&self, seed: &[bool]) -> Vec<bool> {
        let mut out = seed.to_vec();
        let mut work: Vec<usize> = (0..out.len()).filter(|&f| out[f]).collect();
        while let Some(g) = work.pop() {
            for &f in &self.callers[g] {
                if !out[f] {
                    out[f] = true;
                    work.push(f);
                }
            }
        }
        out
    }

    /// Fixpoint of a boolean property that propagates from callers to
    /// callees: `out[f] = seed[f] ∨ ∃ caller c with out[c]`.
    pub fn any_caller_fixpoint(&self, seed: &[bool]) -> Vec<bool> {
        let mut out = seed.to_vec();
        let mut work: Vec<usize> = (0..out.len()).filter(|&f| out[f]).collect();
        while let Some(c) = work.pop() {
            for &f in &self.callees[c] {
                if !out[f] {
                    out[f] = true;
                    work.push(f);
                }
            }
        }
        out
    }
}

/// Resolve one call site to candidate definition indices. `caller`
/// (when known) anchors `self.name(…)` calls to the caller's own
/// impl type.
pub fn resolve(table: &SymbolTable, caller: Option<&FnDef>, call: &Call) -> Vec<usize> {
    let Some(candidates) = table.by_name.get(&call.name) else {
        return Vec::new();
    };
    // `Type::name(` — prefer definitions in `impl Type`.
    if let Some(q) = &call.qualifier {
        let qualified: Vec<usize> = candidates
            .iter()
            .copied()
            .filter(|&d| table.fns[d].impl_type.as_deref() == Some(q.as_str()))
            .collect();
        if !qualified.is_empty() {
            return qualified;
        }
        // A lowercase qualifier is a module path (`baselines::build`),
        // so it reaches free fns by name. A type-looking qualifier
        // that names no workspace impl (e.g. `Vec::new`) resolves to
        // nothing rather than to every same-named fn.
        if q.chars().next().is_some_and(|c| c.is_ascii_lowercase()) {
            return candidates
                .iter()
                .copied()
                .filter(|&d| !table.fns[d].has_self && table.fns[d].impl_type.is_none())
                .collect();
        }
        return Vec::new();
    }
    if call.method {
        // `.name(` — self-taking definitions whose impl type the
        // receiver plausibly names.
        return candidates
            .iter()
            .copied()
            .filter(|&d| {
                let def = &table.fns[d];
                def.has_self && receiver_matches(caller, call, def.impl_type.as_deref())
            })
            .collect();
    }
    // A free-looking call through a local binding (`let run = |…| …;
    // … run(tx)`) or a closure parameter invokes the local callable,
    // not any global fn that shares its name.
    if caller.is_some_and(|c| locally_bound(table, c, call)) {
        return Vec::new();
    }
    // Free call — prefer genuinely free definitions. Associated fns
    // (`impl T { fn name() }`, no self) can only be invoked with a
    // `T::` qualifier, so they never match an unqualified call.
    let free: Vec<usize> = candidates
        .iter()
        .copied()
        .filter(|&d| !table.fns[d].has_self && table.fns[d].impl_type.is_none())
        .collect();
    if !free.is_empty() {
        return free;
    }
    Vec::new()
}

/// Is the call name bound locally in the caller — a parameter or a
/// `let`/`let mut` binding before the call site?
fn locally_bound(table: &SymbolTable, caller: &FnDef, call: &Call) -> bool {
    if caller.params.iter().any(|p| p == &call.name) {
        return true;
    }
    let toks = table.tokens_of(caller);
    let end = call.tok.min(caller.body.1);
    let mut i = caller.body.0;
    while i + 1 < end {
        if toks[i].text == "let" {
            let mut j = i + 1;
            if toks[j].text == "mut" {
                j += 1;
            }
            if j < end && toks[j].text == call.name {
                return true;
            }
        }
        i += 1;
    }
    false
}

/// Does a method call's receiver plausibly name `impl_type`?
///
/// - `self.name(…)` (receiver is literally `self`): the definition
///   must share the caller's impl type.
/// - `self.server.name(…)` / `catalog.name(…)`: the last receiver
///   identifier must correspond to the impl type by name —
///   lowercased and underscore-stripped, equal to it or a prefix or
///   suffix of it (`catalog` → `Catalog`, `pool` → `ThreadPool`,
///   `builder` → `RelationBuilder`). Short receivers (< 3 chars)
///   match nothing: `b.finish()` says nothing about the type.
/// - A constructor-call temporary (`Type::new(…).name(…)`) matches
///   `impl Type` exactly; any other temporary receiver
///   (`lock().get(…)`) matches nothing.
fn receiver_matches(caller: Option<&FnDef>, call: &Call, impl_type: Option<&str>) -> bool {
    let Some(recv) = call.recv_last.as_deref() else {
        return call.recv_type.is_some() && call.recv_type.as_deref() == impl_type;
    };
    if recv == "self" {
        return match caller {
            Some(c) => {
                c.impl_type.is_some() && c.impl_type.as_deref() == impl_type
            }
            None => true,
        };
    }
    let Some(ty) = impl_type else {
        return false;
    };
    let recv: String = recv.chars().filter(|&c| c != '_').collect();
    if recv.len() < 3 {
        return false;
    }
    let ty = ty.to_ascii_lowercase();
    ty == recv || ty.starts_with(recv.as_str()) || ty.ends_with(recv.as_str())
}

/// Extract call sites from the token range `[start, end)`.
pub fn extract_calls(toks: &[Token], start: usize, end: usize) -> Vec<Call> {
    let mut out = Vec::new();
    let mut i = start;
    while i < end {
        let t = &toks[i];
        if t.kind != TokKind::Ident || NOT_CALLS.contains(&t.text.as_str()) {
            i += 1;
            continue;
        }
        // `name!` — macro invocation, not a call.
        if toks.get(i + 1).is_some_and(|n| n.text == "!") {
            i += 1;
            continue;
        }
        if toks.get(i + 1).is_none_or(|n| n.text != "(") {
            i += 1;
            continue;
        }
        // `fn name(` — a nested definition, not a call.
        if i > start && toks[i - 1].text == "fn" {
            i += 1;
            continue;
        }
        let method = i > start && toks[i - 1].text == ".";
        let qualifier = if i >= start + 2 && toks[i - 1].text == ":" && toks[i - 2].text == ":" {
            // `seg::name(` — the qualifier is the preceding segment.
            (i >= start + 3 && toks[i - 3].kind == TokKind::Ident)
                .then(|| toks[i - 3].text.clone())
        } else {
            None
        };
        let (recv_last, recv_self) = if method {
            receiver_path(toks, start, i - 1)
        } else {
            (None, false)
        };
        let recv_type = if method {
            receiver_ctor_type(toks, start, i - 1)
        } else {
            None
        };
        let (arg0_last, arg0_self) = first_arg_path(toks, i + 1, end);
        out.push(Call {
            name: t.text.clone(),
            method,
            qualifier,
            tok: i,
            recv_last,
            recv_self,
            recv_type,
            arg0_last,
            arg0_self,
        });
        i += 1;
    }
    out
}

/// Walk back from the `.` before a method name, collecting a plain
/// `a.b.c` receiver path. Returns (last identifier before the method,
/// path starts at `self`). A receiver ending in `)` or `]` (a call or
/// index result) yields `(None, false)`.
fn receiver_path(toks: &[Token], start: usize, dot: usize) -> (Option<String>, bool) {
    if dot == start || toks[dot - 1].kind != TokKind::Ident {
        return (None, false);
    }
    let last = toks[dot - 1].text.clone();
    let mut i = dot - 1;
    let mut is_self = toks[i].text == "self";
    while i >= start + 2 && toks[i - 1].text == "." && toks[i - 2].kind == TokKind::Ident {
        i -= 2;
        if toks[i].text == "self" {
            is_self = true;
        }
    }
    (Some(last), is_self)
}

/// When the receiver of the method whose `.` is at `dot` is a
/// qualified-call temporary — `Type::ctor(…).method(…)` — the
/// qualifying type names the receiver. Chained methods on the
/// temporary (`Type::new(…).a().b(…)`) are not traced; only the
/// direct constructor-then-call shape is typed.
fn receiver_ctor_type(toks: &[Token], start: usize, dot: usize) -> Option<String> {
    if dot == start || toks[dot - 1].text != ")" {
        return None;
    }
    // Walk back over the balanced `(…)` of the receiver call.
    let mut depth = 0i32;
    let mut open = dot - 1;
    loop {
        match toks[open].text.as_str() {
            ")" => depth += 1,
            "(" => {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            }
            _ => {}
        }
        if open == start {
            return None;
        }
        open -= 1;
    }
    // `Type :: ctor (` — four tokens before the paren.
    if open >= start + 4
        && toks[open - 1].kind == TokKind::Ident
        && toks[open - 2].text == ":"
        && toks[open - 3].text == ":"
        && toks[open - 4].kind == TokKind::Ident
    {
        return Some(toks[open - 4].text.clone());
    }
    None
}

/// The first argument of the call whose `(` is at `open`: when it is
/// a plain (possibly `&`-prefixed) path, its last identifier and
/// whether the path mentions `self`.
fn first_arg_path(toks: &[Token], open: usize, end: usize) -> (Option<String>, bool) {
    let mut depth = 0i32;
    let mut last: Option<String> = None;
    let mut has_self = false;
    let mut plain = true;
    let mut i = open;
    while i < end {
        match toks[i].text.as_str() {
            "(" | "[" => {
                depth += 1;
                if depth > 1 {
                    plain = false;
                }
            }
            ")" | "]" => {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            }
            "," if depth == 1 => break,
            "&" | "." | "mut" => {}
            "self" if toks[i].kind == TokKind::Ident => {
                has_self = true;
                last = Some("self".to_string());
            }
            _ if toks[i].kind == TokKind::Ident => last = Some(toks[i].text.clone()),
            _ => plain = false,
        }
        i += 1;
    }
    if plain {
        (last, has_self)
    } else {
        (None, has_self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::syms::SymbolTable;

    fn graph(src: &str) -> (SymbolTable, CallGraph) {
        let mut t = SymbolTable::default();
        t.add_file("t.rs", "c", src);
        let g = CallGraph::build(&t);
        (t, g)
    }

    #[test]
    fn resolves_free_and_method_calls() {
        let (t, g) = graph(
            "fn helper() {}\n\
             struct S;\n\
             impl S {\n    fn work(&self) { helper(); self.inner(); }\n    fn inner(&self) {}\n}\n",
        );
        let work = t.fns.iter().position(|d| d.name == "work").unwrap();
        let helper = t.fns.iter().position(|d| d.name == "helper").unwrap();
        let inner = t.fns.iter().position(|d| d.name == "inner").unwrap();
        assert!(g.callees[work].contains(&helper));
        assert!(g.callees[work].contains(&inner));
        assert!(g.callers[helper].contains(&work));
    }

    #[test]
    fn macros_and_keywords_are_not_calls() {
        let (_, g) = graph(
            "fn f() { println!(\"x\"); if (a) { } match (b) { _ => {} } g(); }\nfn g() {}\n",
        );
        let names: Vec<&str> = g.calls[0].iter().map(|c| c.name.as_str()).collect();
        assert_eq!(names, vec!["g"]);
    }

    #[test]
    fn qualified_calls_prefer_the_impl() {
        let (t, g) = graph(
            "struct A; struct B;\n\
             impl A {\n    fn make() -> A { A }\n}\n\
             impl B {\n    fn make() -> B { B }\n}\n\
             fn f() { let _ = A::make(); }\n",
        );
        let f = t.fns.iter().position(|d| d.name == "f").unwrap();
        let a_make = t
            .fns
            .iter()
            .position(|d| d.name == "make" && d.impl_type.as_deref() == Some("A"))
            .unwrap();
        assert_eq!(g.callees[f], vec![a_make]);
    }

    #[test]
    fn std_qualified_calls_resolve_to_nothing() {
        let (_, g) = graph("fn f() { let v = Vec::with_capacity(4); }\n");
        assert!(g.callees[0].is_empty());
        // The call site itself is still recorded (L10 needs it).
        assert_eq!(g.calls[0][0].name, "with_capacity");
        assert_eq!(g.calls[0][0].qualifier.as_deref(), Some("Vec"));
    }

    #[test]
    fn constructor_temporaries_are_typed() {
        let (t, g) = graph(
            "struct W; struct V;\n\
             impl W {\n    fn new(x: u32) -> W { W }\n    fn run(&self) {}\n}\n\
             impl V {\n    fn run(&self) {}\n}\n\
             fn f() { W::new(g(1)).run(); }\nfn g(x: u32) -> u32 { x }\n",
        );
        let f = t.fns.iter().position(|d| d.name == "f").unwrap();
        let w_run = t
            .fns
            .iter()
            .position(|d| d.name == "run" && d.impl_type.as_deref() == Some("W"))
            .unwrap();
        let v_run = t
            .fns
            .iter()
            .position(|d| d.name == "run" && d.impl_type.as_deref() == Some("V"))
            .unwrap();
        assert!(g.callees[f].contains(&w_run), "ctor temporary typed as W");
        assert!(!g.callees[f].contains(&v_run), "other impls excluded");
    }

    #[test]
    fn plain_temporaries_resolve_to_nothing() {
        let (t, g) = graph(
            "struct C;\n\
             impl C {\n    fn get(&self) {}\n}\n\
             fn f() { h().get(); }\nfn h() -> u32 { 0 }\n",
        );
        let f = t.fns.iter().position(|d| d.name == "f").unwrap();
        let get = t.fns.iter().position(|d| d.name == "get").unwrap();
        assert!(!g.callees[f].contains(&get));
    }

    #[test]
    fn receiver_and_arg_paths() {
        let (_, g) = graph("fn f(&self) { self.slot.state.lock(); lock_recover(&self.fills); }\n");
        let lock = &g.calls[0][0];
        assert_eq!(lock.recv_last.as_deref(), Some("state"));
        assert!(lock.recv_self);
        let rec = &g.calls[0][1];
        assert_eq!(rec.arg0_last.as_deref(), Some("fills"));
        assert!(rec.arg0_self);
    }

    #[test]
    fn fixpoints() {
        let (t, g) = graph(
            "fn leaf() { poll(); }\nfn poll() {}\nfn mid() { leaf(); }\nfn top() { mid(); }\n",
        );
        let poll = t.fns.iter().position(|d| d.name == "poll").unwrap();
        let top = t.fns.iter().position(|d| d.name == "top").unwrap();
        let mut seed = vec![false; t.fns.len()];
        seed[poll] = true;
        let up = g.any_callee_fixpoint(&seed);
        assert!(up[top], "polling propagates to callers");
        let mut seed2 = vec![false; t.fns.len()];
        seed2[top] = true;
        let down = g.any_caller_fixpoint(&seed2);
        assert!(down[poll], "coverage propagates to callees");
        let reach = g.reachable(&[top]);
        assert!(reach[poll]);
    }
}
