//! A first-party Rust lexer: the token stream every source rule
//! reads.
//!
//! An earlier scanner blanked comments and literals with a
//! byte-level preprocessor; its known failure class was exotic
//! literal syntax — `'\u{7D}'` escapes leaking a stray quote,
//! multibyte char literals misread as lifetimes — after which real
//! code could be blanked (missed violations) or literal text kept
//! (false positives). This lexer handles the full literal grammar the
//! workspace uses: raw strings (`r"…"`, `r#"…"#`, `br##"…"##`), byte
//! strings and byte chars, nested block comments, `\u{…}` and
//! multibyte char literals, and char-vs-lifetime disambiguation.
//!
//! Tokens carry their 1-based source line; the semantic engine
//! (L8–L10, see [`crate::syms`] and [`crate::conc`]) walks the stream
//! directly. The per-file source rules that once read this stream
//! (L1, L2, L5–L7) are clippy lints now.

/// What kind of token this is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokKind {
    /// Identifier or keyword (`fn`, `self`, `tables`, …).
    Ident,
    /// Lifetime (`'a`, `'static`) — tick included in the text.
    Lifetime,
    /// Numeric literal (`0`, `1.5e3`, `0x1F`, `2f64`).
    Num,
    /// String literal of any flavor; contents are not retained.
    Str,
    /// Char or byte-char literal; contents are not retained.
    Char,
    /// Any other single character (`.`, `(`, `=`, `#`, …).
    Punct,
}

/// One lexed token with its source position.
#[derive(Debug, Clone)]
pub struct Token {
    /// Token class.
    pub kind: TokKind,
    /// The token's text. Empty for [`TokKind::Str`] and
    /// [`TokKind::Char`]: literal contents are deliberately dropped
    /// so no rule can ever match inside them.
    pub text: String,
    /// 1-based source line of the token's first byte.
    pub line: usize,
}

/// A fully lexed file.
#[derive(Debug)]
pub struct Lexed {
    /// Tokens in source order; comments and whitespace are dropped.
    pub tokens: Vec<Token>,
}

/// Lex `source` into tokens carrying their line.
pub fn lex(source: &str) -> Lexed {
    Lexer::new(source).run()
}

struct Lexer<'a> {
    b: &'a [u8],
    i: usize,
    line: usize, // 0-based while lexing
    tokens: Vec<Token>,
}

impl<'a> Lexer<'a> {
    fn new(source: &'a str) -> Self {
        Lexer {
            b: source.as_bytes(),
            i: 0,
            line: 0,
            tokens: Vec::new(),
        }
    }

    fn run(mut self) -> Lexed {
        while self.i < self.b.len() {
            let c = self.b[self.i];
            match c {
                b' ' | b'\t' | b'\r' | b'\n' => self.bump(),
                b'/' if self.peek(1) == Some(b'/') => self.line_comment(),
                b'/' if self.peek(1) == Some(b'*') => self.block_comment(),
                b'"' => self.string(),
                b'\'' => self.char_or_lifetime(),
                b'0'..=b'9' => self.number(),
                c if c == b'_' || c.is_ascii_alphabetic() => self.ident_or_prefixed_literal(),
                _ => self.punct(),
            }
        }
        Lexed {
            tokens: self.tokens,
        }
    }

    fn peek(&self, ahead: usize) -> Option<u8> {
        self.b.get(self.i + ahead).copied()
    }

    /// Advance one byte, tracking the line.
    fn bump(&mut self) {
        if self.b[self.i] == b'\n' {
            self.line += 1;
        }
        self.i += 1;
    }

    fn push(&mut self, kind: TokKind, text: String, line: usize) {
        self.tokens.push(Token {
            kind,
            text,
            line: line + 1,
        });
    }

    fn line_comment(&mut self) {
        while self.i < self.b.len() && self.b[self.i] != b'\n' {
            self.bump();
        }
    }

    fn block_comment(&mut self) {
        let mut depth = 0usize;
        while self.i < self.b.len() {
            if self.slice_starts_with(b"/*") {
                depth += 1;
                self.bump();
                self.bump();
            } else if self.slice_starts_with(b"*/") {
                depth = depth.saturating_sub(1);
                self.bump();
                self.bump();
                if depth == 0 {
                    break;
                }
            } else {
                self.bump();
            }
        }
    }

    fn slice_starts_with(&self, prefix: &[u8]) -> bool {
        self.b[self.i..].starts_with(prefix)
    }

    /// A plain (non-raw) string literal starting at the opening `"`.
    fn string(&mut self) {
        let line = self.line;
        self.bump(); // opening quote
        while self.i < self.b.len() && self.b[self.i] != b'"' {
            if self.b[self.i] == b'\\' && self.i + 1 < self.b.len() {
                self.bump(); // the backslash
            }
            if self.i < self.b.len() {
                self.bump();
            }
        }
        if self.i < self.b.len() {
            self.bump(); // closing quote
        }
        self.push(TokKind::Str, String::new(), line);
    }

    /// Char literal or lifetime, starting at the tick.
    fn char_or_lifetime(&mut self) {
        let line = self.line;
        // Escape sequence ⇒ definitely a char literal.
        if self.peek(1) == Some(b'\\') {
            self.bump(); // tick
            self.bump(); // backslash
            let esc = self.peek(0);
            self.bump(); // escape head (n, t, u, x, ', \, …)
            match esc {
                // '\u{…}' — consume through the closing brace.
                Some(b'u') if self.peek(0) == Some(b'{') => {
                    while self.i < self.b.len() && self.b[self.i] != b'}' {
                        self.bump();
                    }
                    if self.i < self.b.len() {
                        self.bump(); // '}'
                    }
                }
                // '\x41' — two hex digits.
                Some(b'x') => {
                    for _ in 0..2 {
                        if self
                            .peek(0)
                            .is_some_and(|c| c.is_ascii_hexdigit())
                        {
                            self.bump();
                        }
                    }
                }
                _ => {}
            }
            if self.peek(0) == Some(b'\'') {
                self.bump(); // closing tick
            }
            self.push(TokKind::Char, String::new(), line);
            return;
        }
        // Unescaped: a char literal iff a closing tick follows one
        // character (which may be multibyte). Otherwise a lifetime.
        let mut j = self.i + 1;
        if j < self.b.len() {
            // Step over exactly one UTF-8 character.
            j += 1;
            while j < self.b.len() && self.b[j] & 0xC0 == 0x80 {
                j += 1;
            }
        }
        if self.b.get(j) == Some(&b'\'') {
            while self.i <= j {
                self.bump();
            }
            self.push(TokKind::Char, String::new(), line);
        } else {
            // Lifetime: tick plus identifier characters.
            let start = self.i;
            self.bump(); // tick
            while self
                .peek(0)
                .is_some_and(|c| c == b'_' || c.is_ascii_alphanumeric())
            {
                self.bump();
            }
            let text = String::from_utf8_lossy(&self.b[start..self.i]).into_owned();
            self.push(TokKind::Lifetime, text, line);
        }
    }

    fn number(&mut self) {
        let line = self.line;
        let start = self.i;
        // Integer part, hex/oct/bin digits, suffixes: one alnum run.
        self.alnum_run();
        // Fractional part: a dot counts only when not starting a
        // range (`0..n`) or a method call (`1.max(2)`).
        if self.peek(0) == Some(b'.') {
            let after = self.peek(1);
            let method_or_range =
                after.is_some_and(|c| c == b'.' || c == b'_' || c.is_ascii_alphabetic());
            if !method_or_range {
                self.bump(); // the dot
                self.alnum_run();
            }
        }
        // Exponent sign: `1e-9` — the run above stopped at `-`.
        if self.peek(0).is_some_and(|c| c == b'+' || c == b'-')
            && self.b[self.i - 1].eq_ignore_ascii_case(&b'e')
            && self.peek(1).is_some_and(|c| c.is_ascii_digit())
        {
            self.bump(); // sign
            self.alnum_run();
        }
        let text = String::from_utf8_lossy(&self.b[start..self.i]).into_owned();
        self.push(TokKind::Num, text, line);
    }

    fn alnum_run(&mut self) {
        while self
            .peek(0)
            .is_some_and(|c| c == b'_' || c.is_ascii_alphanumeric())
        {
            self.bump();
        }
    }

    /// Identifier — or a raw string / byte string / byte char if the
    /// "identifier" is one of the literal prefixes `r`, `b`, `br`.
    fn ident_or_prefixed_literal(&mut self) {
        if let Some(hashes) = self.raw_string_prefix() {
            self.raw_string(hashes);
            return;
        }
        // b"…" byte string / b'…' byte char.
        if self.b[self.i] == b'b' {
            match self.peek(1) {
                Some(b'"') => {
                    let line = self.line;
                    self.bump(); // the b
                    self.string();
                    // string() pushed a Str at the quote; fix its start.
                    if let Some(t) = self.tokens.last_mut() {
                        t.line = line + 1;
                    }
                    return;
                }
                Some(b'\'') => {
                    let line = self.line;
                    self.bump(); // the b
                    self.char_or_lifetime();
                    if let Some(t) = self.tokens.last_mut() {
                        t.line = line + 1;
                    }
                    return;
                }
                _ => {}
            }
        }
        let line = self.line;
        let start = self.i;
        self.alnum_run();
        let text = String::from_utf8_lossy(&self.b[start..self.i]).into_owned();
        self.push(TokKind::Ident, text, line);
    }

    /// If a raw (byte) string starts here, return its `#` count.
    fn raw_string_prefix(&self) -> Option<usize> {
        let mut j = self.i;
        if self.b.get(j) == Some(&b'b') {
            j += 1;
        }
        if self.b.get(j) != Some(&b'r') {
            return None;
        }
        j += 1;
        let mut hashes = 0usize;
        while self.b.get(j) == Some(&b'#') {
            hashes += 1;
            j += 1;
        }
        (self.b.get(j) == Some(&b'"')).then_some(hashes)
    }

    /// Consume `r#"…"#`-style raw string with `hashes` hash marks.
    fn raw_string(&mut self, hashes: usize) {
        let line = self.line;
        while self.i < self.b.len() && self.b[self.i] != b'"' {
            self.bump(); // b/r prefix and hashes
        }
        if self.i < self.b.len() {
            self.bump(); // opening quote
        }
        while self.i < self.b.len() {
            if self.b[self.i] == b'"'
                && self.b[self.i + 1..].len() >= hashes
                && self.b[self.i + 1..self.i + 1 + hashes]
                    .iter()
                    .all(|&c| c == b'#')
            {
                self.bump(); // closing quote
                for _ in 0..hashes {
                    self.bump();
                }
                break;
            }
            self.bump();
        }
        self.push(TokKind::Str, String::new(), line);
    }

    fn punct(&mut self) {
        let line = self.line;
        let start = self.i;
        // One character; multibyte text outside literals (only ever
        // seen in malformed input) is consumed whole.
        self.bump();
        while self.i < self.b.len() && self.b[self.i] & 0xC0 == 0x80 {
            self.bump();
        }
        let text = String::from_utf8_lossy(&self.b[start..self.i]).into_owned();
        self.push(TokKind::Punct, text, line);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<(TokKind, String)> {
        lex(src)
            .tokens
            .into_iter()
            .map(|t| (t.kind, t.text))
            .collect()
    }

    fn idents(src: &str) -> Vec<String> {
        lex(src)
            .tokens
            .into_iter()
            .filter(|t| t.kind == TokKind::Ident)
            .map(|t| t.text)
            .collect()
    }

    #[test]
    fn basic_stream() {
        let toks = kinds("fn f(x: u32) -> u32 { x + 1 }");
        assert_eq!(toks[0], (TokKind::Ident, "fn".into()));
        assert_eq!(toks[1], (TokKind::Ident, "f".into()));
        assert!(toks.contains(&(TokKind::Num, "1".into())));
    }

    #[test]
    fn strings_are_opaque() {
        assert_eq!(idents("let s = \"panic! .unwrap()\";"), vec!["let", "s"]);
        assert_eq!(
            idents("let s = r#\"has \"quotes\" and .unwrap()\"#; t.go();"),
            vec!["let", "s", "t", "go"]
        );
        assert_eq!(idents("let b = b\"bytes .unwrap()\";"), vec!["let", "b"]);
        assert_eq!(
            idents("let r = br##\"raw # \"# bytes\"##; after();"),
            vec!["let", "r", "after"]
        );
    }

    #[test]
    fn nested_block_comments() {
        assert_eq!(
            idents("a(); /* outer /* inner .unwrap() */ still comment */ b();"),
            vec!["a", "b"]
        );
    }

    #[test]
    fn char_literals_and_lifetimes() {
        // Plain, escaped, unicode-escape, multibyte, and byte chars
        // are all opaque literals...
        assert_eq!(
            idents("let a = 'x'; let b = '\\''; let c = '\\u{7D}'; let d = 'é'; let e = b'q'; f();"),
            vec!["let", "a", "let", "b", "let", "c", "let", "d", "let", "e", "f"]
        );
        // ...while lifetimes stay identifiers-with-a-tick.
        let toks = kinds("fn f<'a>(x: &'a str) -> &'a str { x }");
        let lifetimes: Vec<&str> = toks
            .iter()
            .filter(|(k, _)| *k == TokKind::Lifetime)
            .map(|(_, t)| t.as_str())
            .collect();
        assert_eq!(lifetimes, vec!["'a", "'a", "'a"]);
    }

    #[test]
    fn unicode_escape_does_not_leak_a_quote() {
        // The old scanner left `{7D}'` behind, corrupting everything
        // after it on the line.
        assert_eq!(
            idents("let c = '\\u{41}'; real.unwrap();"),
            vec!["let", "c", "real", "unwrap"]
        );
    }

    #[test]
    fn numbers() {
        let toks = kinds("0.0 1. 1.5e3 1e-9 2f64 0x1F 1_000 0..10 1.max(2)");
        let nums: Vec<&str> = toks
            .iter()
            .filter(|(k, _)| *k == TokKind::Num)
            .map(|(_, t)| t.as_str())
            .collect();
        assert_eq!(
            nums,
            vec!["0.0", "1.", "1.5e3", "1e-9", "2f64", "0x1F", "1_000", "0", "10", "1", "2"]
        );
    }

    #[test]
    fn raw_ident_lookalikes_are_not_raw_strings() {
        // `r` and `b` as plain identifiers must lex as identifiers.
        assert_eq!(idents("for r in rows { b += r; }"), vec!["for", "r", "in", "rows", "b", "r"]);
    }

    #[test]
    fn positions_are_lines() {
        let l = lex("ab cd\n  ef\n/* x\n */ b\"s\" b'c'\n");
        let t: Vec<(usize, &str)> = l
            .tokens
            .iter()
            .map(|t| (t.line, t.text.as_str()))
            .collect();
        assert_eq!(t, vec![(1, "ab"), (1, "cd"), (2, "ef"), (4, ""), (4, "")]);
    }
}
