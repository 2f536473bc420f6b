//! A small hand-rolled Rust lexer for the source-scanning rules.
//!
//! The predecessor of this module was a line scanner that stripped `//`
//! comments and matched substrings; it could not see `/* */` blocks,
//! raw strings, or the difference between a lifetime and a char
//! literal, and every rule re-implemented its own matching. This lexer
//! produces a proper token stream once, and the rules in
//! [`crate::srclint::rules`] pattern-match over it.
//!
//! Coverage, deliberately scoped to what the rules need:
//!
//! * line comments (`//`, `///`, `//!`) — skipped, except that a plain
//!   `// kglint::allow(CODE, reason)` comment is captured as an
//!   [`Allow`] suppression;
//! * block comments (`/* … */`), nested, multi-line — skipped;
//! * string literals with escapes, raw strings (`r"…"`, `r#"…"#`, any
//!   hash count), byte strings (`b"…"`, `br#"…"#`) — one [`TokKind::Str`]
//!   token each, so code inside them can never trip a rule;
//! * char and byte-char literals vs lifetimes (`'a'` vs `'a`);
//! * integer vs float literals (`1.0`, `2e-3`, `0x1F`; `0..n` stays an
//!   integer and a `..` operator);
//! * identifiers (keywords are ordinary [`TokKind::Ident`] tokens) and
//!   a maximal-munch table of the multi-char operators the rules and
//!   the scope tracker care about (`==`, `!=`, `::`, `->`, `..`, …).
//!
//! Every token carries the 1-based line it starts on, which is all the
//! positional precision the diagnostics need.

/// What kind of token a [`Tok`] is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokKind {
    /// Identifier or keyword (`fn`, `for`, `HashMap`, …).
    Ident,
    /// Integer literal (`42`, `0xff`, `1_000`).
    Int,
    /// Float literal (`1.0`, `2e-3`, `1.5f32`).
    Float,
    /// String, raw-string, or byte-string literal (text excluded).
    Str,
    /// Char or byte-char literal (`'a'`, `b'\n'`).
    Char,
    /// Lifetime (`'a`, `'static`).
    Lifetime,
    /// Punctuation / operator, possibly multi-char (`::`, `==`, `{`).
    Punct,
}

/// One lexed token.
#[derive(Debug, Clone)]
pub struct Tok {
    /// Token class.
    pub kind: TokKind,
    /// Source text. For [`TokKind::Str`] this is the placeholder `"…"`
    /// (the contents never matter to a rule and may be huge).
    pub text: String,
    /// 1-based line the token starts on.
    pub line: usize,
}

/// One `// kglint::allow(CODE[, CODE…], reason)` suppression comment.
#[derive(Debug, Clone)]
pub(crate) struct Allow {
    /// 1-based line the comment sits on.
    pub line: usize,
    /// The rule codes it suppresses (`SA003`, `MD006`, …).
    pub codes: Vec<String>,
    /// Set when the comment looked like an allow but did not parse
    /// (missing reason, unbalanced parens); reported as `SA000`.
    pub error: Option<String>,
}

/// Lexer output: the token stream plus any suppression comments.
#[derive(Debug, Default)]
pub(crate) struct Lexed {
    /// Tokens in source order.
    pub tokens: Vec<Tok>,
    /// Suppression comments in source order.
    pub allows: Vec<Allow>,
}

/// Multi-char operators, longest first so maximal munch is a prefix scan.
const OPERATORS: &[&str] = &[
    "..=", "<<=", ">>=", "==", "!=", "<=", ">=", "&&", "||", "::", "->", "=>", "..", "+=", "-=",
    "*=", "/=", "%=", "&=", "|=", "^=", "<<", ">>",
];

/// Lexes one file's source text.
pub(crate) fn lex(src: &str) -> Lexed {
    Lexer { src: src.as_bytes(), pos: 0, line: 1, out: Lexed::default() }.run()
}

struct Lexer<'a> {
    src: &'a [u8],
    pos: usize,
    line: usize,
    out: Lexed,
}

impl Lexer<'_> {
    fn run(mut self) -> Lexed {
        while self.pos < self.src.len() {
            let b = self.src[self.pos];
            match b {
                b'\n' => {
                    self.line += 1;
                    self.pos += 1;
                }
                _ if b.is_ascii_whitespace() => self.pos += 1,
                b'/' if self.peek(1) == Some(b'/') => self.line_comment(),
                b'/' if self.peek(1) == Some(b'*') => self.block_comment(),
                b'"' => self.string(),
                b'\'' => self.char_or_lifetime(),
                _ if b.is_ascii_digit() => self.number(),
                _ if b == b'_' || b.is_ascii_alphabetic() => self.ident_or_prefixed_string(),
                _ => self.punct(),
            }
        }
        self.out
    }

    fn peek(&self, ahead: usize) -> Option<u8> {
        self.src.get(self.pos + ahead).copied()
    }

    fn push(&mut self, kind: TokKind, text: impl Into<String>, line: usize) {
        self.out.tokens.push(Tok { kind, text: text.into(), line });
    }

    /// `// …` to end of line; captures `kglint::allow` comments.
    fn line_comment(&mut self) {
        let start = self.pos + 2;
        let mut end = start;
        while end < self.src.len() && self.src[end] != b'\n' {
            end += 1;
        }
        let text = std::str::from_utf8(&self.src[start..end]).unwrap_or("");
        let trimmed = text.trim();
        if let Some(rest) = trimmed.strip_prefix("kglint::allow") {
            self.out.allows.push(parse_allow(rest, self.line));
        }
        self.pos = end;
    }

    /// `/* … */`, nested (Rust block comments nest), multi-line.
    fn block_comment(&mut self) {
        self.pos += 2;
        let mut depth = 1usize;
        while self.pos < self.src.len() && depth > 0 {
            match (self.src[self.pos], self.peek(1)) {
                (b'/', Some(b'*')) => {
                    depth += 1;
                    self.pos += 2;
                }
                (b'*', Some(b'/')) => {
                    depth -= 1;
                    self.pos += 2;
                }
                (b'\n', _) => {
                    self.line += 1;
                    self.pos += 1;
                }
                _ => self.pos += 1,
            }
        }
    }

    /// `"…"` with escapes; may span lines.
    fn string(&mut self) {
        let line = self.line;
        self.pos += 1;
        while self.pos < self.src.len() {
            match self.src[self.pos] {
                b'\\' => self.pos += 2,
                b'"' => {
                    self.pos += 1;
                    break;
                }
                b'\n' => {
                    self.line += 1;
                    self.pos += 1;
                }
                _ => self.pos += 1,
            }
        }
        self.push(TokKind::Str, "\"…\"", line);
    }

    /// `r"…"` / `r#"…"#` with `hashes` leading `#`s already counted; the
    /// cursor sits on the opening quote.
    fn raw_string(&mut self, hashes: usize, line: usize) {
        self.pos += 1; // opening quote
        while self.pos < self.src.len() {
            if self.src[self.pos] == b'\n' {
                self.line += 1;
                self.pos += 1;
                continue;
            }
            if self.src[self.pos] == b'"' {
                let mut n = 0;
                while n < hashes && self.peek(1 + n) == Some(b'#') {
                    n += 1;
                }
                if n == hashes {
                    self.pos += 1 + hashes;
                    self.push(TokKind::Str, "\"…\"", line);
                    return;
                }
            }
            self.pos += 1;
        }
        self.push(TokKind::Str, "\"…\"", line);
    }

    /// Lifetime (`'a`) vs char literal (`'a'`, `'\n'`, `'\u{1F600}'`).
    fn char_or_lifetime(&mut self) {
        let line = self.line;
        // Escaped or non-alphanumeric payload is always a char literal.
        let first = self.peek(1);
        let is_ident_start = first.is_some_and(|b| b == b'_' || b.is_ascii_alphabetic());
        if is_ident_start {
            // Scan the ident run; a closing quote right after makes it a
            // char literal ('a'), otherwise it is a lifetime ('abc).
            let mut end = self.pos + 1;
            while end < self.src.len()
                && (self.src[end] == b'_' || self.src[end].is_ascii_alphanumeric())
            {
                end += 1;
            }
            if self.src.get(end) == Some(&b'\'') {
                self.pos = end + 1;
                self.push(TokKind::Char, "'…'", line);
            } else {
                let text = std::str::from_utf8(&self.src[self.pos..end]).unwrap_or("'_");
                self.pos = end;
                self.push(TokKind::Lifetime, text, line);
            }
            return;
        }
        // '\…' or punctuation payload: consume to the closing quote.
        self.pos += 1;
        while self.pos < self.src.len() {
            match self.src[self.pos] {
                b'\\' => self.pos += 2,
                b'\'' => {
                    self.pos += 1;
                    break;
                }
                b'\n' => {
                    // Unterminated; treat the quote as punctuation.
                    self.push(TokKind::Punct, "'", line);
                    return;
                }
                _ => self.pos += 1,
            }
        }
        self.push(TokKind::Char, "'…'", line);
    }

    /// Integer or float literal. `0..n` must stay `Int` + `..`.
    fn number(&mut self) {
        let line = self.line;
        let start = self.pos;
        let mut is_float = false;
        if self.src[self.pos] == b'0' && matches!(self.peek(1), Some(b'x' | b'o' | b'b')) {
            self.pos += 2;
            while self.pos < self.src.len()
                && (self.src[self.pos] == b'_' || self.src[self.pos].is_ascii_alphanumeric())
            {
                self.pos += 1;
            }
        } else {
            while self.pos < self.src.len()
                && (self.src[self.pos] == b'_' || self.src[self.pos].is_ascii_digit())
            {
                self.pos += 1;
            }
            // Fractional part only when a digit follows the dot (so a
            // range `0..n` or a method call `1.max(x)` stays integral).
            if self.src.get(self.pos) == Some(&b'.')
                && self.src.get(self.pos + 1).is_some_and(u8::is_ascii_digit)
            {
                is_float = true;
                self.pos += 1;
                while self.pos < self.src.len()
                    && (self.src[self.pos] == b'_' || self.src[self.pos].is_ascii_digit())
                {
                    self.pos += 1;
                }
            }
            // Exponent.
            if matches!(self.src.get(self.pos), Some(b'e' | b'E')) {
                let mut j = self.pos + 1;
                if matches!(self.src.get(j), Some(b'+' | b'-')) {
                    j += 1;
                }
                if self.src.get(j).is_some_and(u8::is_ascii_digit) {
                    is_float = true;
                    self.pos = j;
                    while self.pos < self.src.len() && self.src[self.pos].is_ascii_digit() {
                        self.pos += 1;
                    }
                }
            }
        }
        // Type suffix (`f32`, `u64`, …) glues onto the literal.
        let suffix_start = self.pos;
        while self.pos < self.src.len()
            && (self.src[self.pos] == b'_' || self.src[self.pos].is_ascii_alphanumeric())
        {
            self.pos += 1;
        }
        if self.src[suffix_start..self.pos].starts_with(b"f32")
            || self.src[suffix_start..self.pos].starts_with(b"f64")
        {
            is_float = true;
        }
        let text = std::str::from_utf8(&self.src[start..self.pos]).unwrap_or("0");
        self.push(if is_float { TokKind::Float } else { TokKind::Int }, text, line);
    }

    /// Identifier, or a raw/byte string disguised behind an `r`/`b`/`br`
    /// prefix.
    fn ident_or_prefixed_string(&mut self) {
        let line = self.line;
        let start = self.pos;
        while self.pos < self.src.len()
            && (self.src[self.pos] == b'_' || self.src[self.pos].is_ascii_alphanumeric())
        {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.src[start..self.pos]).unwrap_or("_");
        let next = self.src.get(self.pos).copied();
        match (text, next) {
            ("r" | "br", Some(b'"')) => self.raw_string(0, line),
            ("r" | "br", Some(b'#')) => {
                let mut hashes = 0;
                while self.peek(hashes) == Some(b'#') {
                    hashes += 1;
                }
                if self.peek(hashes) == Some(b'"') {
                    self.pos += hashes;
                    self.raw_string(hashes, line);
                } else {
                    // `r#ident` raw identifier: emit the ident part.
                    self.push(TokKind::Ident, text, line);
                }
            }
            ("b", Some(b'"')) => self.string_with_prefix(line),
            ("b", Some(b'\'')) => self.char_or_lifetime(),
            _ => self.push(TokKind::Ident, text, line),
        }
    }

    /// A `b"…"` byte string: cursor on the quote.
    fn string_with_prefix(&mut self, line: usize) {
        self.string();
        // `string` pushed with its own line; fix up to the prefix line.
        if let Some(last) = self.out.tokens.last_mut() {
            last.line = line;
        }
    }

    /// Operator or single-char punctuation.
    fn punct(&mut self) {
        let line = self.line;
        let rest = &self.src[self.pos..];
        for op in OPERATORS {
            if rest.starts_with(op.as_bytes()) {
                self.pos += op.len();
                self.push(TokKind::Punct, *op, line);
                return;
            }
        }
        let ch = self.src[self.pos] as char;
        self.pos += 1;
        self.push(TokKind::Punct, ch.to_string(), line);
    }
}

/// Parses the tail of a `kglint::allow` comment: `(CODE[, CODE…], reason)`.
fn parse_allow(rest: &str, line: usize) -> Allow {
    let malformed = |why: &str| Allow { line, codes: Vec::new(), error: Some(why.to_owned()) };
    let Some(open) = rest.find('(') else {
        return malformed("missing `(CODE, reason)` after kglint::allow");
    };
    let Some(close) = rest.rfind(')') else {
        return malformed("unclosed `(` in kglint::allow");
    };
    if close < open {
        return malformed("unclosed `(` in kglint::allow");
    }
    let inner = &rest[open + 1..close];
    let mut codes = Vec::new();
    let mut reason = String::new();
    for (i, part) in inner.split(',').enumerate() {
        let part = part.trim();
        if reason.is_empty() && looks_like_code(part) {
            codes.push(part.to_owned());
        } else {
            // Everything from the first non-code segment on is the reason
            // (it may itself contain commas).
            reason = inner.splitn(i + 1, ',').last().unwrap_or("").trim().to_owned();
            break;
        }
    }
    if codes.is_empty() {
        return malformed("no rule code in kglint::allow (expected e.g. SA003)");
    }
    if reason.is_empty() {
        return malformed("kglint::allow requires a reason: `kglint::allow(CODE, why)`");
    }
    Allow { line, codes, error: None }
}

/// `SA003` / `MD006` / `KG001` shape: two ASCII uppercase + three digits.
fn looks_like_code(s: &str) -> bool {
    s.len() == 5
        && s[..2].chars().all(|c| c.is_ascii_uppercase())
        && s[2..].chars().all(|c| c.is_ascii_digit())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idents(src: &str) -> Vec<String> {
        lex(src).tokens.into_iter().filter(|t| t.kind == TokKind::Ident).map(|t| t.text).collect()
    }

    #[test]
    fn block_comments_are_stripped_including_multiline() {
        let src = "a /* b\nc */ d /* nested /* deep */ still */ e";
        assert_eq!(idents(src), ["a", "d", "e"]);
        // Line numbers survive the embedded newline.
        let toks = lex(src).tokens;
        assert_eq!(toks[0].line, 1);
        assert_eq!(toks[1].line, 2); // `d`
    }

    #[test]
    fn strings_raw_strings_and_chars_hide_their_contents() {
        let src =
            r##"let a = "vector::add(x)"; let b = r#"HashMap"#; let c = 'x'; let d = b"Instant";"##;
        let names = idents(src);
        assert!(!names.contains(&"HashMap".to_owned()));
        assert!(!names.contains(&"Instant".to_owned()));
        assert!(!names.iter().any(|n| n.contains("vector")));
        let kinds: Vec<TokKind> = lex(src).tokens.iter().map(|t| t.kind).collect();
        assert!(kinds.contains(&TokKind::Str));
        assert!(kinds.contains(&TokKind::Char));
    }

    #[test]
    fn lifetimes_are_not_char_literals() {
        let toks = lex("fn f<'a>(x: &'a str) { let c = 'a'; }").tokens;
        let lifetimes = toks.iter().filter(|t| t.kind == TokKind::Lifetime).count();
        let chars = toks.iter().filter(|t| t.kind == TokKind::Char).count();
        assert_eq!(lifetimes, 2);
        assert_eq!(chars, 1);
    }

    #[test]
    fn ranges_stay_integral_and_floats_are_floats() {
        let toks = lex("for i in 0..n { let x = 1.0; let y = 2e-3; let z = v.0; }").tokens;
        let floats: Vec<&str> =
            toks.iter().filter(|t| t.kind == TokKind::Float).map(|t| t.text.as_str()).collect();
        assert_eq!(floats, ["1.0", "2e-3"]);
        assert!(toks.iter().any(|t| t.kind == TokKind::Punct && t.text == ".."));
    }

    #[test]
    fn allow_comments_parse_codes_and_reason() {
        let src = "x();\n// kglint::allow(SA003, SA006, free-list pool, order-irrelevant)\ny();";
        let lexed = lex(src);
        assert_eq!(lexed.allows.len(), 1);
        let a = &lexed.allows[0];
        assert_eq!(a.line, 2);
        assert_eq!(a.codes, ["SA003", "SA006"]);
        assert!(a.error.is_none());
    }

    #[test]
    fn allow_without_reason_is_malformed() {
        let lexed = lex("// kglint::allow(SA005)\n");
        assert_eq!(lexed.allows.len(), 1);
        assert!(lexed.allows[0].error.is_some());
    }

    #[test]
    fn doc_comments_do_not_parse_as_allows() {
        // The doc-comment marker puts a `/` before the text, so rustdoc
        // examples of the syntax never register as live suppressions.
        let lexed = lex("/// kglint::allow(SA005, documented example)\nfn f() {}");
        assert!(lexed.allows.is_empty());
    }

    #[test]
    fn multichar_operators_lex_as_one_token() {
        let toks = lex("a == b; c != 1.0; d::e(); f -> g");
        let ops: Vec<&str> = toks
            .tokens
            .iter()
            .filter(|t| t.kind == TokKind::Punct && t.text.len() > 1)
            .map(|t| t.text.as_str())
            .collect();
        assert_eq!(ops, ["==", "!=", "::", "->"]);
    }
}
