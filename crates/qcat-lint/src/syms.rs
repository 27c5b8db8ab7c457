//! A lightweight item parser: turns a token stream into a
//! workspace-wide symbol table of function definitions.
//!
//! This is deliberately not a full parser. A single linear pass
//! tracks brace-scoped contexts (`mod`, `impl`, `fn`, plain blocks)
//! and records, for every `fn`, its name, enclosing `impl` type,
//! whether it takes `self`, its parameter names, its return-type and
//! body token ranges, and whether it is test code (a `#[test]`-family
//! attribute or an enclosing `#[cfg(test)]` module). The call-graph
//! and concurrency rules ([`crate::callgraph`], [`crate::conc`])
//! consume these records; anything the heuristics cannot see (macros
//! that define functions, trait default methods dispatched
//! dynamically) is simply absent, which errs toward missing edges,
//! never toward inventing them.

use crate::lexer::{lex, TokKind, Token};

/// One function definition found in a source file.
#[derive(Debug, Clone)]
pub struct FnDef {
    /// Crate the file belongs to (package name, e.g. `qcat-serve`).
    pub krate: String,
    /// Index into [`SymbolTable::files`].
    pub file: usize,
    /// The function's bare name.
    pub name: String,
    /// Enclosing `impl` type, if any (`impl Server { fn f … }` →
    /// `Server`; `impl Display for Server` → `Server`).
    pub impl_type: Option<String>,
    /// Takes a `self` receiver.
    pub has_self: bool,
    /// Parameter names, in order (patterns beyond plain `name: T`
    /// are skipped).
    pub params: Vec<String>,
    /// Token range `[start, end)` of the return-type tokens (between
    /// the parameter list and the body); empty when none.
    pub ret: (usize, usize),
    /// Token range `[start, end)` of the body, including the outer
    /// braces; `(0, 0)` for bodyless signatures.
    pub body: (usize, usize),
    /// 1-based line of the `fn` keyword.
    pub line: usize,
    /// Test code: `#[test]`-family attribute or inside `#[cfg(test)]`.
    pub is_test: bool,
}

/// One parsed source file.
#[derive(Debug)]
pub struct FileSyms {
    /// Repo-relative path, for diagnostics.
    pub path: String,
    /// Owning crate (package name).
    pub krate: String,
    /// The file's full token stream.
    pub tokens: Vec<Token>,
}

/// Function definitions across a set of files, indexed by name.
#[derive(Debug, Default)]
pub struct SymbolTable {
    /// Parsed files; [`FnDef::file`] indexes into this.
    pub files: Vec<FileSyms>,
    /// Every function definition found.
    pub fns: Vec<FnDef>,
    /// Bare name → indices into [`SymbolTable::fns`].
    pub by_name: std::collections::HashMap<String, Vec<usize>>,
}

impl SymbolTable {
    /// Parse `file` (already lexed or not) into the table.
    pub fn add_file(&mut self, path: &str, krate: &str, source: &str) {
        let tokens = lex(source).tokens;
        self.add_lexed(path, krate, tokens);
    }

    /// Add a file from an existing token stream.
    pub fn add_lexed(&mut self, path: &str, krate: &str, tokens: Vec<Token>) {
        let file_idx = self.files.len();
        let defs = parse_fns(&tokens, krate, file_idx);
        for def in defs {
            self.by_name
                .entry(def.name.clone())
                .or_default()
                .push(self.fns.len());
            self.fns.push(def);
        }
        self.files.push(FileSyms {
            path: path.to_string(),
            krate: krate.to_string(),
            tokens,
        });
    }

    /// The token stream a definition's ranges index into.
    pub fn tokens_of(&self, def: &FnDef) -> &[Token] {
        &self.files[def.file].tokens
    }

    /// The body tokens of a definition (empty for signatures).
    pub fn body_of(&self, def: &FnDef) -> &[Token] {
        &self.files[def.file].tokens[def.body.0..def.body.1]
    }
}

/// What encloses the current position during the parse.
#[derive(Debug)]
enum Ctx {
    Mod { is_test: bool },
    Impl { ty: Option<String> },
    Fn,
    Block,
}

fn parse_fns(toks: &[Token], krate: &str, file_idx: usize) -> Vec<FnDef> {
    let mut defs = Vec::new();
    let mut stack: Vec<Ctx> = Vec::new();
    let mut pending_test = false;
    let mut i = 0usize;
    while i < toks.len() {
        let t = &toks[i];
        match (t.kind, t.text.as_str()) {
            // Outer attribute `#[…]`: scan to the matching bracket,
            // noting `test` (covers #[test], #[cfg(test)],
            // #[cfg(all(test, …))]; string contents are opaque so a
            // feature string cannot fake it).
            (TokKind::Punct, "#") if peek_is(toks, i + 1, "[") => {
                let (end, has_test) = scan_attr(toks, i + 1);
                pending_test |= has_test;
                i = end;
            }
            (TokKind::Ident, "mod") => {
                // `mod name {` opens a module scope; `mod name;` is
                // an out-of-line module.
                let mut j = i + 1;
                while j < toks.len()
                    && !matches!(toks[j].text.as_str(), "{" | ";")
                {
                    j += 1;
                }
                if peek_is(toks, j, "{") {
                    let parent_test = enclosing_test(&stack);
                    stack.push(Ctx::Mod {
                        is_test: pending_test || parent_test,
                    });
                    i = j + 1;
                } else {
                    i = j + 1;
                }
                pending_test = false;
            }
            (TokKind::Ident, "impl") => {
                let (j, ty) = scan_impl_header(toks, i + 1);
                if peek_is(toks, j, "{") {
                    stack.push(Ctx::Impl { ty });
                    i = j + 1;
                } else {
                    i = j; // `impl Trait for Type;`-style — not ours
                }
                pending_test = false;
            }
            (TokKind::Ident, "fn") => {
                let is_test = pending_test || enclosing_test(&stack);
                pending_test = false;
                let impl_type = stack.iter().rev().find_map(|c| match c {
                    Ctx::Impl { ty } => Some(ty.clone()),
                    _ => None,
                });
                match scan_fn(toks, i, krate, file_idx, impl_type.flatten(), is_test) {
                    Some((def, Some(body_open))) => {
                        defs.push(def);
                        stack.push(Ctx::Fn);
                        i = body_open + 1;
                    }
                    Some((def, None)) => {
                        // Signature only; resume past its `;`.
                        let resume = def.ret.1 + 1;
                        defs.push(def);
                        i = resume;
                    }
                    None => i += 1,
                }
            }
            (TokKind::Punct, "{") => {
                stack.push(Ctx::Block);
                pending_test = false;
                i += 1;
            }
            (TokKind::Punct, "}") => {
                stack.pop();
                pending_test = false;
                i += 1;
            }
            (TokKind::Ident, "struct" | "enum" | "trait" | "use" | "const" | "static" | "type")
            | (TokKind::Punct, ";") => {
                pending_test = false;
                i += 1;
            }
            _ => i += 1,
        }
    }
    defs
}

fn peek_is(toks: &[Token], i: usize, text: &str) -> bool {
    toks.get(i).is_some_and(|t| t.text == text)
}

fn enclosing_test(stack: &[Ctx]) -> bool {
    stack
        .iter()
        .any(|c| matches!(c, Ctx::Mod { is_test: true }))
}

/// Scan an attribute starting at its `[`. Returns (index past the
/// closing `]`, whether the attribute mentions the ident `test`).
fn scan_attr(toks: &[Token], open: usize) -> (usize, bool) {
    let mut depth = 0i32;
    let mut has_test = false;
    let mut i = open;
    while i < toks.len() {
        match toks[i].text.as_str() {
            "[" => depth += 1,
            "]" => {
                depth -= 1;
                if depth == 0 {
                    return (i + 1, has_test);
                }
            }
            "test" if toks[i].kind == TokKind::Ident => has_test = true,
            _ => {}
        }
        i += 1;
    }
    (i, has_test)
}

/// Scan from just after `impl` to the body `{`. Returns (index of the
/// `{`, the implemented type). For `impl Trait for Type`, the type
/// after `for` wins.
fn scan_impl_header(toks: &[Token], start: usize) -> (usize, Option<String>) {
    let mut angle = 0i32;
    let mut ty: Option<String> = None;
    let mut i = start;
    while i < toks.len() {
        let t = &toks[i];
        match (t.kind, t.text.as_str()) {
            (TokKind::Punct, "<") => angle += 1,
            // `->` in an `Fn(..) -> R` bound is not a closer.
            (TokKind::Punct, ">") if !(i > 0 && toks[i - 1].text == "-") => angle -= 1,
            (TokKind::Punct, "{") if angle <= 0 => return (i, ty),
            (TokKind::Punct, ";") => return (i, ty),
            (TokKind::Ident, "for") if angle <= 0 => ty = None,
            (TokKind::Ident, "where") if angle <= 0 => {
                // Type already fixed; skip ahead to the body.
                while i < toks.len() && toks[i].text != "{" {
                    i += 1;
                }
                return (i, ty);
            }
            // Later path segments overwrite (`foo::Bar` → Bar); the
            // first ident after `for` wins likewise.
            (TokKind::Ident, name)
                if angle <= 0 && (ty.is_none() || peek_is(toks, i.wrapping_sub(1), ":")) =>
            {
                ty = Some(name.to_string());
            }
            _ => {}
        }
        i += 1;
    }
    (i, ty)
}

/// Parse one `fn` starting at the `fn` keyword. Returns the def and
/// the index of the body's `{` (None for bodyless signatures).
fn scan_fn(
    toks: &[Token],
    fn_kw: usize,
    krate: &str,
    file_idx: usize,
    impl_type: Option<String>,
    is_test: bool,
) -> Option<(FnDef, Option<usize>)> {
    let name_tok = toks.get(fn_kw + 1)?;
    if name_tok.kind != TokKind::Ident {
        return None;
    }
    let name = name_tok.text.clone();
    // Skip generics to the parameter list.
    let mut i = fn_kw + 2;
    if peek_is(toks, i, "<") {
        let mut angle = 0i32;
        while i < toks.len() {
            match toks[i].text.as_str() {
                "<" => angle += 1,
                ">" if toks[i - 1].text != "-" => {
                    angle -= 1;
                    if angle == 0 {
                        i += 1;
                        break;
                    }
                }
                _ => {}
            }
            i += 1;
        }
    }
    if !peek_is(toks, i, "(") {
        return None;
    }
    // Parameters: idents at paren depth 1 immediately followed by `:`
    // are parameter names; a bare `self` is the receiver.
    let mut params = Vec::new();
    let mut has_self = false;
    let mut depth = 0i32;
    while i < toks.len() {
        match toks[i].text.as_str() {
            "(" | "[" => depth += 1,
            ")" | "]" => {
                depth -= 1;
                if depth == 0 {
                    i += 1;
                    break;
                }
            }
            "self" if depth == 1 && toks[i].kind == TokKind::Ident => has_self = true,
            _ if depth == 1
                && toks[i].kind == TokKind::Ident
                && peek_is(toks, i + 1, ":")
                && toks[i].text != "mut" =>
            {
                params.push(toks[i].text.clone());
            }
            _ => {}
        }
        i += 1;
    }
    // Return type: everything to the body `{` or terminating `;`,
    // skipping angle-bracketed and where-clause internals only as far
    // as brace detection needs (a `{` inside a return type position
    // does not occur in this workspace's style).
    let ret_start = i;
    let mut angle = 0i32;
    while i < toks.len() {
        match toks[i].text.as_str() {
            "<" => angle += 1,
            ">" if i > 0 && toks[i - 1].text != "-" => angle -= 1,
            "{" if angle <= 0 => {
                let ret = (ret_start, i);
                let body_end = match_brace(toks, i);
                let def = FnDef {
                    krate: krate.to_string(),
                    file: file_idx,
                    name,
                    impl_type,
                    has_self,
                    params,
                    ret,
                    body: (i, body_end),
                    line: toks[fn_kw].line,
                    is_test,
                };
                return Some((def, Some(i)));
            }
            ";" if angle <= 0 => {
                let def = FnDef {
                    krate: krate.to_string(),
                    file: file_idx,
                    name,
                    impl_type,
                    has_self,
                    params,
                    ret: (ret_start, i),
                    body: (0, 0),
                    line: toks[fn_kw].line,
                    is_test,
                };
                return Some((def, None));
            }
            _ => {}
        }
        i += 1;
    }
    None
}

/// Index just past the brace matching the `{` at `open`.
pub fn match_brace(toks: &[Token], open: usize) -> usize {
    let mut depth = 0i32;
    let mut i = open;
    while i < toks.len() {
        match toks[i].text.as_str() {
            "{" => depth += 1,
            "}" => {
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

#[cfg(test)]
mod tests {
    use super::*;

    fn table(src: &str) -> SymbolTable {
        let mut t = SymbolTable::default();
        t.add_file("t.rs", "test-crate", src);
        t
    }

    #[test]
    fn finds_free_and_method_fns() {
        let t = table(
            "fn free(a: u32, b: u32) -> u32 { a + b }\n\
             struct S;\n\
             impl S {\n    fn method(&self, x: u32) {}\n}\n\
             impl std::fmt::Display for S {\n    fn fmt(&self, f: &mut F) -> R { todo!() }\n}\n",
        );
        let names: Vec<(&str, Option<&str>, bool)> = t
            .fns
            .iter()
            .map(|d| (d.name.as_str(), d.impl_type.as_deref(), d.has_self))
            .collect();
        assert_eq!(
            names,
            vec![
                ("free", None, false),
                ("method", Some("S"), true),
                ("fmt", Some("S"), true),
            ]
        );
        assert_eq!(t.fns[0].params, vec!["a", "b"]);
        assert_eq!(t.fns[1].params, vec!["x"]);
    }

    #[test]
    fn generic_fns_and_impls() {
        let t = table(
            "fn lock_recover<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {\n\
                 mutex.lock().unwrap_or_else(|e| e.into_inner())\n\
             }\n\
             impl<V: Clone> EpochLru<V> {\n    fn get(&mut self, key: &str) -> Option<V> { None }\n}\n",
        );
        assert_eq!(t.fns[0].name, "lock_recover");
        assert_eq!(t.fns[0].params, vec!["mutex"]);
        let ret: Vec<&str> = t.files[0].tokens[t.fns[0].ret.0..t.fns[0].ret.1]
            .iter()
            .map(|x| x.text.as_str())
            .collect();
        assert!(ret.contains(&"MutexGuard"), "{ret:?}");
        assert_eq!(t.fns[1].impl_type.as_deref(), Some("EpochLru"));
        assert!(t.fns[1].has_self);
    }

    #[test]
    fn test_regions_are_marked() {
        let t = table(
            "fn live() {}\n\
             #[test]\nfn unit() {}\n\
             #[cfg(test)]\nmod tests {\n    fn helper() {}\n    #[test]\n    fn t() {}\n}\n\
             fn after() {}\n",
        );
        let flags: Vec<(&str, bool)> = t
            .fns
            .iter()
            .map(|d| (d.name.as_str(), d.is_test))
            .collect();
        assert_eq!(
            flags,
            vec![
                ("live", false),
                ("unit", true),
                ("helper", true),
                ("t", true),
                ("after", false),
            ]
        );
    }

    #[test]
    fn attr_between_items_does_not_leak() {
        let t = table("#[derive(Debug)]\nstruct S;\nfn live() {}\n");
        assert!(!t.fns[0].is_test);
    }

    #[test]
    fn bodies_cover_nested_braces() {
        let t = table("fn f() {\n    if x {\n        y();\n    }\n}\nfn g() {}\n");
        assert_eq!(t.fns.len(), 2);
        let body: Vec<&str> = t.body_of(&t.fns[0]).iter().map(|x| x.text.as_str()).collect();
        assert!(body.contains(&"y"));
        assert!(!body.contains(&"g"));
    }

    #[test]
    fn where_clause_impl() {
        let t = table("impl<T> Foo<T> where T: Clone {\n    fn go(&self) {}\n}\n");
        assert_eq!(t.fns[0].impl_type.as_deref(), Some("Foo"));
    }
}
