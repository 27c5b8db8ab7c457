//! Engine 2 rules: cross-file concurrency and budget analysis.
//!
//! Three rules run over the workspace symbol table and call graph
//! ([`crate::syms`], [`crate::callgraph`]):
//!
//! - **L8 lock-order** — every `Mutex`/`RwLock` acquisition (direct
//!   `.lock()`/`.read()`/`.write()`, or through a guard-returning
//!   helper like `lock_recover`) opens a guard scope; acquisitions
//!   nested inside a live scope, directly or through callees, become
//!   edges in a lock-acquisition graph. A cycle — including the
//!   one-lock cycle of re-acquiring a lock already held — means some
//!   schedule can deadlock.
//! - **L9 checkpoint coverage** — inside budget-governed regions
//!   (call-graph descendants of non-test `with_budget` install
//!   sites), every `for` loop over governed collections (rows,
//!   candidates, nodes, …) must reach a `Gas` poll in its body,
//!   directly or via a callee.
//! - **L10 budget-blind allocation** — in the same regions,
//!   collection-allocating calls must be reachable from a
//!   heap-accounting call (`charge_heap`/`heap_bytes`) so
//!   `max_heap_bytes` sees the memory.
//!
//! Lock identity is `(crate, receiver field name)` — `slot.state`
//! and `self.slot.state` are deliberately the same lock, which
//! over-merges distinct locks that share a field name within one
//! crate (the safe direction: more merging means more detected
//! cycles, never fewer).

use crate::callgraph::{resolve, Call, CallGraph};
use crate::diag::{Diagnostic, Rule};
use crate::lexer::{TokKind, Token};
use crate::syms::{match_brace, FnDef, SymbolTable};
use std::collections::{BTreeMap, HashMap, HashSet};

/// One source file handed to the semantic engine.
#[derive(Debug, Clone)]
pub struct SourceFile {
    /// Repo-relative path, used in diagnostics.
    pub path: String,
    /// Owning crate (package name, e.g. `qcat-serve`).
    pub krate: String,
    /// Full file contents.
    pub text: String,
}

/// Crates whose loops L9 audits for checkpoint coverage.
const L9_CRATES: &[&str] = &["qcat-exec", "qcat-core", "qcat-pool"];

/// Crates whose allocations L10 audits for heap accounting.
const L10_CRATES: &[&str] = &["qcat-serve", "qcat-exec", "qcat-core", "qcat-pool"];

/// Collection names whose iteration is budget-relevant: data rows,
/// split candidates, and tree nodes scale with the input relation,
/// unlike fixed-size config or schema vectors.
const GOVERNED_NAMES: &[&str] = &[
    "rows",
    "row_ids",
    "candidates",
    "nodes",
    "tuples",
    "items",
    "tset",
];

/// Identifiers that poll the thread-local `Gas`.
const POLL_NAMES: &[&str] = &[
    "checkpoint",
    "charge_rows",
    "charge_nodes",
    "charge_labels",
    "charge_heap",
    "filter_cancellable",
];

/// Identifiers that account heap to the budget.
const HEAP_ACCOUNT_NAMES: &[&str] = &["charge_heap", "heap_bytes"];

/// Run L8–L10 over a set of in-memory sources (fixture entry point).
pub fn analyze_sources(files: &[SourceFile]) -> Vec<Diagnostic> {
    let mut table = SymbolTable::default();
    for f in files {
        table.add_file(&f.path, &f.krate, &f.text);
    }
    analyze_table(&table)
}

/// Run L8–L10 over an already-built symbol table.
pub fn analyze_table(table: &SymbolTable) -> Vec<Diagnostic> {
    let graph = CallGraph::build(table);
    let mut diags = Vec::new();
    lock_order(table, &graph, &mut diags);
    checkpoint_coverage(table, &graph, &mut diags);
    budget_blind_allocs(table, &graph, &mut diags);
    diags
}

// ----------------------------------------------------------------- L8

/// A lock's identity: (crate, field/variable name of the mutex).
type LockId = (String, String);

/// One acquisition event inside a function body.
#[derive(Debug, Clone)]
struct Acq {
    lock: LockId,
    file: usize,
    line: usize,
    tok: usize,
    /// Token index (exclusive) where the guard is dead again.
    scope_end: usize,
}

/// Where a guard-returning helper gets its lock from.
#[derive(Debug, Clone)]
enum GuardSource {
    /// Locks a field of `self` (or another fixed path): identity is
    /// known at the definition.
    Field(LockId),
    /// Locks its first parameter: identity comes from each call site.
    Param,
}

/// An acquisition site: (file index, line).
type Site = (usize, usize);

fn lock_order(table: &SymbolTable, graph: &CallGraph, diags: &mut Vec<Diagnostic>) {
    let sources = guard_sources(table, graph);

    // Per-function acquisition events (non-test only — production
    // code never runs under test-only lock patterns).
    let n = table.fns.len();
    let acqs: Vec<Vec<Acq>> = (0..n)
        .map(|f| {
            if table.fns[f].is_test {
                Vec::new()
            } else {
                fn_acqs(table, graph, &sources, f)
            }
        })
        .collect();

    // AcqSet(f): locks acquired by f or any callee, with one
    // representative acquisition site each.
    let mut sets: Vec<HashMap<LockId, Site>> = acqs
        .iter()
        .map(|list| {
            let mut m = HashMap::new();
            for a in list {
                m.entry(a.lock.clone()).or_insert((a.file, a.line));
            }
            m
        })
        .collect();
    let mut work: Vec<usize> = (0..n).collect();
    while let Some(g) = work.pop() {
        let entries: Vec<(LockId, Site)> =
            sets[g].iter().map(|(k, v)| (k.clone(), *v)).collect();
        for &f in &graph.callers[g] {
            let mut changed = false;
            for (k, v) in &entries {
                if !sets[f].contains_key(k) {
                    sets[f].insert(k.clone(), *v);
                    changed = true;
                }
            }
            if changed {
                work.push(f);
            }
        }
    }

    // Edges held → acquired, keeping the first witness per pair
    // (BTreeMap so diagnostics come out in a stable order).
    let mut edges: BTreeMap<(LockId, LockId), (Site, Site)> = BTreeMap::new();
    for (f, list) in acqs.iter().enumerate() {
        if table.fns[f].is_test {
            continue;
        }
        for a in list {
            // Another acquisition while a's guard is live.
            for b in list {
                if b.tok > a.tok && b.tok < a.scope_end {
                    edges
                        .entry((a.lock.clone(), b.lock.clone()))
                        .or_insert(((a.file, a.line), (b.file, b.line)));
                }
            }
            // A call while a's guard is live: everything the callee
            // may acquire is acquired under a.
            for c in &graph.calls[f] {
                if c.tok <= a.tok || c.tok >= a.scope_end {
                    continue;
                }
                for g in resolve(table, Some(&table.fns[f]), c) {
                    for (lock, site) in &sets[g] {
                        edges
                            .entry((a.lock.clone(), lock.clone()))
                            .or_insert(((a.file, a.line), *site));
                    }
                }
            }
        }
    }

    // Self-edges: the same lock acquired while already held.
    let mut reported: HashSet<(LockId, LockId)> = HashSet::new();
    for ((a, b), (s1, s2)) in &edges {
        if a == b {
            let path = table.files[s2.0].path.clone();
            diags.push(Diagnostic::at(
                path,
                s2.1,
                Rule::L8LockOrder,
                format!(
                    "lock `{}` acquired while already held (first acquisition at {}:{}) — self-deadlock",
                    lock_name(a),
                    table.files[s1.0].path,
                    s1.1,
                ),
            ));
            reported.insert((a.clone(), b.clone()));
        }
    }

    // Cycles between distinct locks.
    let mut adj: HashMap<&LockId, Vec<&LockId>> = HashMap::new();
    for (a, b) in edges.keys() {
        adj.entry(a).or_default().push(b);
    }
    let mut pairs_done: HashSet<(LockId, LockId)> = HashSet::new();
    for ((a, b), (s1, s2)) in &edges {
        if a == b || !reaches(&adj, b, a) {
            continue;
        }
        let key = if a <= b {
            (a.clone(), b.clone())
        } else {
            (b.clone(), a.clone())
        };
        if !pairs_done.insert(key) {
            continue;
        }
        let msg = if let Some((r1, r2)) = edges.get(&(b.clone(), a.clone())) {
            format!(
                "lock-order cycle between `{}` and `{}`: {}:{} acquires `{}` while holding `{}` (held since {}:{}), but {}:{} acquires `{}` while holding `{}` (held since {}:{})",
                lock_name(a),
                lock_name(b),
                table.files[s2.0].path,
                s2.1,
                lock_name(b),
                lock_name(a),
                table.files[s1.0].path,
                s1.1,
                table.files[r2.0].path,
                r2.1,
                lock_name(a),
                lock_name(b),
                table.files[r1.0].path,
                r1.1,
            )
        } else {
            format!(
                "lock-order cycle: `{}` (held since {}:{}) is held when `{}` is acquired at {}:{}, and `{}` transitively acquires `{}` again",
                lock_name(a),
                table.files[s1.0].path,
                s1.1,
                lock_name(b),
                table.files[s2.0].path,
                s2.1,
                lock_name(b),
                lock_name(a),
            )
        };
        diags.push(Diagnostic::at(
            table.files[s2.0].path.clone(),
            s2.1,
            Rule::L8LockOrder,
            msg,
        ));
    }
}

fn lock_name(l: &LockId) -> String {
    format!("{}::{}", l.0, l.1)
}

fn reaches<'a>(adj: &HashMap<&'a LockId, Vec<&'a LockId>>, from: &'a LockId, to: &LockId) -> bool {
    let mut seen: HashSet<&LockId> = HashSet::new();
    let mut work = vec![from];
    while let Some(x) = work.pop() {
        if x == to {
            return true;
        }
        if !seen.insert(x) {
            continue;
        }
        if let Some(next) = adj.get(x) {
            work.extend(next.iter().copied());
        }
    }
    false
}

/// Classify guard-returning helpers: a fn whose return type mentions
/// a `*Guard*` ident either locks a fixed field or locks its
/// parameter. Wrappers around wrappers resolve by fixpoint.
fn guard_sources(table: &SymbolTable, graph: &CallGraph) -> Vec<Option<GuardSource>> {
    let n = table.fns.len();
    let guardish: Vec<bool> = table
        .fns
        .iter()
        .map(|d| {
            let toks = table.tokens_of(d);
            toks[d.ret.0..d.ret.1]
                .iter()
                .any(|t| t.kind == TokKind::Ident && t.text.contains("Guard"))
        })
        .collect();
    let mut sources: Vec<Option<GuardSource>> = vec![None; n];
    loop {
        let mut changed = false;
        for f in 0..n {
            if !guardish[f] || sources[f].is_some() {
                continue;
            }
            let def = &table.fns[f];
            let toks = table.tokens_of(def);
            let mut found: Option<GuardSource> = None;
            for c in &graph.calls[f] {
                if is_direct_acq(c, toks) {
                    found = match (&c.recv_last, c.recv_self) {
                        (Some(r), true) if r != "self" => {
                            Some(GuardSource::Field((def.krate.clone(), r.clone())))
                        }
                        (Some(r), false) if def.params.contains(r) => Some(GuardSource::Param),
                        (Some(r), false) => {
                            Some(GuardSource::Field((def.krate.clone(), r.clone())))
                        }
                        _ => None,
                    };
                    if found.is_some() {
                        break;
                    }
                } else {
                    // A call to an already-classified helper.
                    for g in resolve(table, Some(def), c) {
                        if let Some(s) = &sources[g] {
                            found = match s {
                                GuardSource::Field(id) => Some(GuardSource::Field(id.clone())),
                                GuardSource::Param => arg_guard_source(def, c),
                            };
                            break;
                        }
                    }
                    if found.is_some() {
                        break;
                    }
                }
            }
            if found.is_some() {
                sources[f] = found;
                changed = true;
            }
        }
        if !changed {
            return sources;
        }
    }
}

/// For a call to a `Param`-sourced helper: where does the argument's
/// lock live from the caller's point of view?
fn arg_guard_source(caller: &FnDef, c: &Call) -> Option<GuardSource> {
    match (&c.arg0_last, c.arg0_self) {
        (Some(r), true) if r != "self" => {
            Some(GuardSource::Field((caller.krate.clone(), r.clone())))
        }
        (Some(r), false) if caller.params.contains(r) => Some(GuardSource::Param),
        (Some(r), false) => Some(GuardSource::Field((caller.krate.clone(), r.clone()))),
        _ => None,
    }
}

/// Direct acquisition: `.lock()` with any args, or an empty-argument
/// `.read()` / `.write()`.
fn is_direct_acq(c: &Call, toks: &[Token]) -> bool {
    if !c.method {
        return false;
    }
    match c.name.as_str() {
        "lock" => true,
        "read" | "write" => toks.get(c.tok + 2).is_some_and(|t| t.text == ")"),
        _ => false,
    }
}

/// Acquisition events with guard scopes for one function.
fn fn_acqs(
    table: &SymbolTable,
    graph: &CallGraph,
    sources: &[Option<GuardSource>],
    f: usize,
) -> Vec<Acq> {
    let def = &table.fns[f];
    let toks = table.tokens_of(def);
    let mut out = Vec::new();
    for c in &graph.calls[f] {
        let lock: Option<LockId> = if is_direct_acq(c, toks) {
            match (&c.recv_last, c.recv_self) {
                (Some(r), _) if r != "self" => Some((def.krate.clone(), r.clone())),
                _ => None,
            }
        } else {
            let mut found = None;
            for g in resolve(table, Some(def), c) {
                match &sources[g] {
                    Some(GuardSource::Field(id)) => {
                        found = Some(id.clone());
                        break;
                    }
                    Some(GuardSource::Param) => {
                        if let (Some(r), _) = (&c.arg0_last, c.arg0_self) {
                            if r != "self" {
                                found = Some((def.krate.clone(), r.clone()));
                            }
                        }
                        break;
                    }
                    None => {}
                }
            }
            found
        };
        if let Some(lock) = lock {
            out.push(Acq {
                lock,
                file: def.file,
                line: toks[c.tok].line,
                tok: c.tok,
                scope_end: guard_scope_end(toks, def, c.tok),
            });
        }
    }
    out
}

/// Index just past the paren matching the `(` at `open`.
fn match_paren(toks: &[Token], open: usize) -> usize {
    let mut depth = 0i32;
    let mut i = open;
    while i < toks.len() {
        match toks[i].text.as_str() {
            "(" | "[" => depth += 1,
            ")" | "]" => {
                depth -= 1;
                if depth == 0 {
                    return i + 1;
                }
            }
            _ => {}
        }
        i += 1;
    }
    i
}

/// How long the guard produced by the acquisition at `acq` lives, as
/// a token index (exclusive).
///
/// Three shapes, mirroring Rust temporary-scope rules closely enough
/// for this workspace:
/// - **scrutinee temporary** (`if let … = x.lock()…`, `while`,
///   `match x.lock()…`): lives through the whole statement including
///   the `else` chain;
/// - **let-bound guard** (`let g = lock_recover(&m);` — the
///   acquisition is the entire right-hand side): lives to the end of
///   the enclosing block, or an earlier top-level `drop(g)`;
/// - **plain temporary** (`x.lock().field.get(…)` projected or used
///   in a larger statement): lives to the end of the statement.
fn guard_scope_end(toks: &[Token], def: &FnDef, acq: usize) -> usize {
    // Statement start: nearest `;`, `{` or `}` going backwards.
    let mut s = acq;
    while s > def.body.0 && !matches!(toks[s - 1].text.as_str(), ";" | "{" | "}") {
        s -= 1;
    }

    // Scrutinee position: between an `if`/`while`/`match` keyword and
    // its body brace.
    if matches!(toks[s].text.as_str(), "if" | "while" | "match") {
        let open = head_brace(toks, s, def.body.1);
        if acq < open {
            let mut end = match_brace(toks, open);
            while end < def.body.1 && toks[end].text == "else" {
                let next_open = head_brace(toks, end + 1, def.body.1);
                end = match_brace(toks, next_open);
            }
            return end;
        }
    }

    // Let binding whose RHS is exactly the acquisition expression
    // (allowing a trailing recovery combinator).
    if toks[s].text == "let" {
        let mut k = s + 1;
        if toks.get(k).is_some_and(|t| t.text == "mut") {
            k += 1;
        }
        let name = toks
            .get(k)
            .filter(|t| t.kind == TokKind::Ident && peek_text(toks, k + 1) == Some("="))
            .map(|t| t.text.clone());
        // End of the acquisition call expression.
        let mut after = match_paren(toks, acq + 1);
        while peek_text(toks, after) == Some(".")
            && matches!(
                peek_text(toks, after + 1),
                Some("unwrap" | "expect" | "unwrap_or_else")
            )
            && peek_text(toks, after + 2) == Some("(")
        {
            after = match_paren(toks, after + 2);
        }
        if peek_text(toks, after) == Some(";") {
            // Bound guard: enclosing block end, or early drop(name).
            let mut depth = 0i32;
            let mut j = after + 1;
            while j < def.body.1 {
                match toks[j].text.as_str() {
                    "{" => depth += 1,
                    "}" => {
                        if depth == 0 {
                            return j;
                        }
                        depth -= 1;
                    }
                    "drop"
                        if depth == 0
                            && toks[j].kind == TokKind::Ident
                            && peek_text(toks, j + 1) == Some("(")
                            && name.is_some()
                            && peek_text(toks, j + 2) == name.as_deref()
                            && peek_text(toks, j + 3) == Some(")") =>
                    {
                        return j;
                    }
                    _ => {}
                }
                j += 1;
            }
            return def.body.1;
        }
    }

    // Plain temporary: to the end of the statement.
    let mut depth = 0i32;
    let mut j = acq;
    while j < def.body.1 {
        match toks[j].text.as_str() {
            "(" | "[" | "{" => depth += 1,
            ")" | "]" | "}" => {
                if depth == 0 {
                    return j;
                }
                depth -= 1;
            }
            ";" if depth == 0 => return j,
            _ => {}
        }
        j += 1;
    }
    def.body.1
}

/// The `{` opening the body of the `if`/`while`/`match`/`for`/`else`
/// construct headed at `start` (paren/bracket-depth 0).
fn head_brace(toks: &[Token], start: usize, end: usize) -> usize {
    let mut depth = 0i32;
    let mut i = start;
    while i < end {
        match toks[i].text.as_str() {
            "(" | "[" => depth += 1,
            ")" | "]" => depth -= 1,
            "{" if depth <= 0 => return i,
            _ => {}
        }
        i += 1;
    }
    end.saturating_sub(1)
}

fn peek_text(toks: &[Token], i: usize) -> Option<&str> {
    toks.get(i).map(|t| t.text.as_str())
}

// ------------------------------------------------------------ L9/L10

/// Budget-governed region: call-graph descendants of every non-test
/// fn that installs a budget (`with_budget` in its body), excluding
/// the budget machinery itself.
fn budget_region(table: &SymbolTable, graph: &CallGraph) -> Vec<bool> {
    let roots: Vec<usize> = table
        .fns
        .iter()
        .enumerate()
        .filter(|(_, d)| {
            !d.is_test
                && d.krate != "qcat-fault"
                && body_has_ident(table, d, "with_budget")
        })
        .map(|(i, _)| i)
        .collect();
    graph.reachable(&roots)
}

fn body_has_ident(table: &SymbolTable, def: &FnDef, name: &str) -> bool {
    table
        .body_of(def)
        .iter()
        .any(|t| t.kind == TokKind::Ident && t.text == name)
}

/// Does `[start, end)` lexically contain a `Gas` poll?
fn has_poll_range(toks: &[Token], start: usize, end: usize) -> bool {
    for i in start..end {
        let t = &toks[i];
        if t.kind != TokKind::Ident {
            continue;
        }
        if POLL_NAMES.contains(&t.text.as_str()) {
            return true;
        }
        // `.check()` with no arguments — the bare poll.
        if t.text == "check"
            && i > start
            && toks[i - 1].text == "."
            && peek_text(toks, i + 1) == Some("(")
            && peek_text(toks, i + 2) == Some(")")
        {
            return true;
        }
    }
    false
}

fn checkpoint_coverage(table: &SymbolTable, graph: &CallGraph, diags: &mut Vec<Diagnostic>) {
    let region = budget_region(table, graph);
    let seed: Vec<bool> = table
        .fns
        .iter()
        .map(|d| {
            let toks = table.tokens_of(d);
            has_poll_range(toks, d.body.0, d.body.1)
        })
        .collect();
    let polls = graph.any_callee_fixpoint(&seed);

    for (f, def) in table.fns.iter().enumerate() {
        if def.is_test || !region[f] || !L9_CRATES.contains(&def.krate.as_str()) {
            continue;
        }
        let toks = table.tokens_of(def);
        let mut i = def.body.0;
        while i < def.body.1 {
            let t = &toks[i];
            if !(t.kind == TokKind::Ident && t.text == "for") {
                i += 1;
                continue;
            }
            let Some((in_idx, open)) = for_loop_head(toks, i, def.body.1) else {
                i += 1;
                continue;
            };
            if governed_iter(toks, in_idx + 1, open) {
                let end = match_brace(toks, open);
                let covered = has_poll_range(toks, open, end)
                    || graph.calls[f].iter().any(|c| {
                        c.tok > open
                            && c.tok < end
                            && resolve(table, Some(def), c).iter().any(|&g| polls[g])
                    });
                if !covered {
                    diags.push(Diagnostic::at(
                        table.files[def.file].path.clone(),
                        t.line,
                        Rule::L9CheckpointGap,
                        format!(
                            "loop in `{}` iterates a governed collection but reaches no Gas poll; add `checkpoint()`/`charge_*` in the body (or call a polling helper)",
                            def.name
                        ),
                    ));
                }
            }
            // Descend into the loop body for nested loops either way.
            i = open + 1;
        }
    }
}

/// From a `for` keyword, locate the `in` keyword and the body `{`.
/// Returns None for non-loop uses (`for<'a>` bounds).
fn for_loop_head(toks: &[Token], for_kw: usize, end: usize) -> Option<(usize, usize)> {
    if peek_text(toks, for_kw + 1) == Some("<") {
        return None;
    }
    let mut depth = 0i32;
    let mut i = for_kw + 1;
    let mut in_idx = None;
    while i < end {
        let t = &toks[i];
        match t.text.as_str() {
            "(" | "[" => depth += 1,
            ")" | "]" => depth -= 1,
            "in" if depth == 0 && t.kind == TokKind::Ident && in_idx.is_none() => {
                in_idx = Some(i);
            }
            "{" if depth == 0 => {
                return in_idx.map(|idx| (idx, i));
            }
            ";" | "}" => return None,
            _ => {}
        }
        i += 1;
    }
    None
}

/// Does the iteration expression mention a governed collection that
/// is not a field of `self`? (`for node in &self.nodes` is the
/// owner's own traversal; `for &row in tree.tuples(id)` iterates data.)
fn governed_iter(toks: &[Token], start: usize, end: usize) -> bool {
    for i in start..end {
        let t = &toks[i];
        if t.kind != TokKind::Ident || !GOVERNED_NAMES.contains(&t.text.as_str()) {
            continue;
        }
        let self_field =
            i >= 2 && toks[i - 1].text == "." && toks[i - 2].text == "self";
        if !self_field {
            return true;
        }
    }
    false
}

fn budget_blind_allocs(table: &SymbolTable, graph: &CallGraph, diags: &mut Vec<Diagnostic>) {
    let region = budget_region(table, graph);

    // Heap-accounting coverage: seeded by library fns that mention
    // charge_heap/heap_bytes, propagated caller → callee through
    // library callers only. A test, a binary or a benchmark calling
    // heap_bytes on what a library fn returned must not launder
    // coverage into that library fn: the budget never sees it.
    let n = table.fns.len();
    let accounts = |d: &FnDef| !d.is_test && !outside_library(table, d);
    let mut covered: Vec<bool> = table
        .fns
        .iter()
        .map(|d| {
            accounts(d)
                && HEAP_ACCOUNT_NAMES
                    .iter()
                    .any(|name| body_has_ident(table, d, name))
        })
        .collect();
    let mut work: Vec<usize> = (0..n).filter(|&f| covered[f]).collect();
    while let Some(c) = work.pop() {
        if !accounts(&table.fns[c]) {
            continue;
        }
        for &g in &graph.callees[c] {
            if !covered[g] {
                covered[g] = true;
                work.push(g);
            }
        }
    }

    for (f, def) in table.fns.iter().enumerate() {
        if def.is_test
            || !region[f]
            || covered[f]
            || !L10_CRATES.contains(&def.krate.as_str())
        {
            continue;
        }
        let toks = table.tokens_of(def);
        let loops = loop_ranges(toks, def.body.0, def.body.1);
        for c in &graph.calls[f] {
            let kind = match c.name.as_str() {
                "with_capacity" => Some("with_capacity"),
                "insert" if c.method => Some("insert"),
                "push" if c.method && loops.iter().any(|&(s, e)| c.tok > s && c.tok < e) => {
                    Some("push in a loop")
                }
                _ => None,
            };
            if let Some(kind) = kind {
                diags.push(Diagnostic::at(
                    table.files[def.file].path.clone(),
                    toks[c.tok].line,
                    Rule::L10BudgetBlindAlloc,
                    format!(
                        "`{}` in `{}` allocates inside a budget-governed region with no heap accounting on any path; charge it via `charge_heap`/`heap_bytes`",
                        kind, def.name
                    ),
                ));
            }
        }
    }
}

/// Is `def` outside the library code a budget governs: a binary
/// (`src/bin/`, `main.rs`, `examples/`) or the `qcat-bench` crate?
fn outside_library(table: &SymbolTable, def: &FnDef) -> bool {
    let path = &table.files[def.file].path;
    def.krate == "qcat-bench"
        || path.contains("/bin/")
        || path.ends_with("main.rs")
        || path.starts_with("examples/")
        || path.contains("/examples/")
}

/// Body token ranges of every `for`/`while`/`loop` body in
/// `[start, end)`.
fn loop_ranges(toks: &[Token], start: usize, end: usize) -> Vec<(usize, usize)> {
    let mut out = Vec::new();
    let mut i = start;
    while i < end {
        let t = &toks[i];
        if t.kind == TokKind::Ident && matches!(t.text.as_str(), "for" | "while" | "loop") {
            if t.text == "for" && peek_text(toks, i + 1) == Some("<") {
                i += 1;
                continue;
            }
            let open = head_brace(toks, i + 1, end);
            if toks.get(open).is_some_and(|t| t.text == "{") {
                out.push((open, match_brace(toks, open)));
            }
        }
        i += 1;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(files: &[(&str, &str, &str)]) -> Vec<Diagnostic> {
        let files: Vec<SourceFile> = files
            .iter()
            .map(|(p, k, s)| SourceFile {
                path: p.to_string(),
                krate: k.to_string(),
                text: s.to_string(),
            })
            .collect();
        analyze_sources(&files)
    }

    fn ids(diags: &[Diagnostic]) -> Vec<&'static str> {
        diags.iter().map(|d| d.rule.id()).collect()
    }

    #[test]
    fn l8_detects_ab_ba_inversion() {
        let diags = run(&[(
            "x.rs",
            "c",
            "struct S { a: Mutex<u32>, b: Mutex<u32> }\n\
             impl S {\n\
                 fn lock_a(&self) -> MutexGuard<'_, u32> { self.a.lock().unwrap_or_else(|e| e.into_inner()) }\n\
                 fn lock_b(&self) -> MutexGuard<'_, u32> { self.b.lock().unwrap_or_else(|e| e.into_inner()) }\n\
                 fn ab(&self) {\n    let g = self.lock_a();\n    let h = self.lock_b();\n}\n\
                 fn ba(&self) {\n    let g = self.lock_b();\n    let h = self.lock_a();\n}\n\
             }\n",
        )]);
        assert_eq!(ids(&diags), vec!["L8"], "{diags:?}");
        let msg = &diags[0].message;
        assert!(msg.contains("c::a") && msg.contains("c::b"), "{msg}");
    }

    #[test]
    fn l8_guard_dropped_before_reacquire_is_clean() {
        let diags = run(&[(
            "x.rs",
            "c",
            "struct S { a: Mutex<u32>, b: Mutex<u32> }\n\
             impl S {\n\
                 fn lock_a(&self) -> MutexGuard<'_, u32> { self.a.lock().unwrap_or_else(|e| e.into_inner()) }\n\
                 fn lock_b(&self) -> MutexGuard<'_, u32> { self.b.lock().unwrap_or_else(|e| e.into_inner()) }\n\
                 fn ab(&self) {\n    let g = self.lock_a();\n    drop(g);\n    let h = self.lock_b();\n}\n\
                 fn ba(&self) {\n    let g = self.lock_b();\n    drop(g);\n    let h = self.lock_a();\n}\n\
             }\n",
        )]);
        assert_eq!(diags, vec![], "{diags:?}");
    }

    #[test]
    fn l8_scrutinee_temporary_self_deadlock() {
        // The PR 4 serve-cache shape: a lock acquired in a match
        // scrutinee is still held inside the arms.
        let diags = run(&[(
            "x.rs",
            "c",
            "struct S { caches: Mutex<u32> }\n\
             impl S {\n\
                 fn lock_caches(&self) -> MutexGuard<'_, u32> { self.caches.lock().unwrap_or_else(|e| e.into_inner()) }\n\
                 fn f(&self) {\n\
                     match self.lock_caches().checked_add(1) {\n\
                         Some(_) => { let g = self.lock_caches(); }\n\
                         None => {}\n\
                     }\n\
                 }\n\
             }\n",
        )]);
        assert_eq!(ids(&diags), vec!["L8"], "{diags:?}");
        assert!(diags[0].message.contains("self-deadlock"), "{}", diags[0].message);
    }

    #[test]
    fn l8_bound_hit_released_before_arms_is_clean() {
        // The PR 4 fix shape: bind the cache-probe result first, so
        // the guard is a statement temporary, dead inside the match.
        let diags = run(&[(
            "x.rs",
            "c",
            "struct S { caches: Mutex<u32> }\n\
             impl S {\n\
                 fn lock_caches(&self) -> MutexGuard<'_, u32> { self.caches.lock().unwrap_or_else(|e| e.into_inner()) }\n\
                 fn f(&self) {\n\
                     let hit = self.lock_caches().checked_add(1);\n\
                     match hit {\n\
                         Some(_) => { let g = self.lock_caches(); }\n\
                         None => {}\n\
                     }\n\
                 }\n\
             }\n",
        )]);
        assert_eq!(diags, vec![], "{diags:?}");
    }

    #[test]
    fn l9_flags_unpolled_loop_and_accepts_polled() {
        let diags = run(&[(
            "x.rs",
            "qcat-exec",
            "fn root(gas: &Gas) { qcat_fault::with_budget(gas, || work()); }\n\
             fn work() { bad(); good(); }\n\
             fn bad() {\n    let rows: Vec<u32> = Vec::new();\n    for r in &rows { touch(r); }\n}\n\
             fn good(gas: &Gas) {\n    let rows: Vec<u32> = Vec::new();\n    for r in &rows { gas.checkpoint(); touch(r); }\n}\n\
             fn touch(_r: &u32) {}\n",
        )]);
        assert_eq!(ids(&diags), vec!["L9"], "{diags:?}");
        assert!(diags[0].message.contains("bad"), "{}", diags[0].message);
    }

    #[test]
    fn l9_poll_via_callee_counts() {
        let diags = run(&[(
            "x.rs",
            "qcat-core",
            "fn root(gas: &Gas) { qcat_fault::with_budget(gas, || work()); }\n\
             fn work() {\n    let nodes: Vec<u32> = Vec::new();\n    for n in &nodes { step(n); }\n}\n\
             fn step(_n: &u32) { poll(); }\n\
             fn poll() { g.charge_nodes(1); }\n",
        )]);
        assert_eq!(diags, vec![], "{diags:?}");
    }

    #[test]
    fn l9_ignores_loops_outside_the_region_and_self_fields() {
        let diags = run(&[(
            "x.rs",
            "qcat-core",
            "fn unbudgeted() {\n    let rows: Vec<u32> = Vec::new();\n    for r in &rows { touch(r); }\n}\n\
             fn touch(_r: &u32) {}\n\
             struct T { nodes: Vec<u32> }\n\
             impl T {\n\
                 fn summary(&self) { for n in &self.nodes { let _ = n; } }\n\
             }\n",
        )]);
        assert_eq!(diags, vec![], "{diags:?}");
    }

    #[test]
    fn l10_flags_unaccounted_alloc_and_accepts_charged() {
        let diags = run(&[(
            "x.rs",
            "qcat-serve",
            "fn root(gas: &Gas) { qcat_fault::with_budget(gas, || { bad(); good(); }); }\n\
             fn bad() -> Vec<u32> { Vec::with_capacity(64) }\n\
             fn good(gas: &Gas) -> Vec<u32> {\n    gas.charge_heap(256);\n    Vec::with_capacity(64)\n}\n",
        )]);
        assert_eq!(ids(&diags), vec!["L10"], "{diags:?}");
        assert!(diags[0].message.contains("with_capacity"), "{}", diags[0].message);
    }

    #[test]
    fn l10_coverage_propagates_from_callers() {
        let diags = run(&[(
            "x.rs",
            "qcat-serve",
            "fn root(gas: &Gas) { qcat_fault::with_budget(gas, || outer()); }\n\
             fn outer() { gas.charge_heap(64); inner(); }\n\
             fn inner() -> Vec<u32> { Vec::with_capacity(16) }\n",
        )]);
        assert_eq!(diags, vec![], "{diags:?}");
    }

    #[test]
    fn l10_test_coverage_does_not_launder() {
        let diags = run(&[(
            "x.rs",
            "qcat-serve",
            "fn root(gas: &Gas) { qcat_fault::with_budget(gas, || inner()); }\n\
             fn inner() -> Vec<u32> { Vec::with_capacity(16) }\n\
             #[cfg(test)]\nmod tests {\n    fn cover() { gas.charge_heap(1); super::inner(); }\n}\n",
        )]);
        assert_eq!(ids(&diags), vec!["L10"], "{diags:?}");
    }
}
