//! A small, self-contained Rust lexer for invariant checking.
//!
//! The rules in this crate reason about *code tokens* — an `unsafe` inside a
//! string literal, a `mul_add` in a doc comment, or a `PAR_…` name in a
//! `#[doc]` attribute must never trip a rule.  A regex over raw source
//! cannot make that distinction, so the checker carries its own lexer.  It
//! handles the token-level subtleties of real Rust source:
//!
//! * line comments (`//`), doc comments (`///`, `//!`) and **nested** block
//!   comments (`/* /* … */ */`, including `/**`/`/*!` doc blocks);
//! * string literals with escapes, raw strings `r"…"`/`r#"…"#` with any
//!   number of hashes, byte strings `b"…"`/`br#"…"#`, and C strings
//!   `c"…"`/`cr#"…"#`;
//! * `'a'` char literals (with escapes such as `'\''` and `'\u{1F600}'`)
//!   versus `'a` lifetimes and `'static`/loop labels;
//! * integer versus float numeric literals (`0x1f` is an int even though it
//!   ends in `f`; `1.` is a float; `0..n` is an int and a range, not a
//!   float), which the raw-cast rule needs to classify cast operands;
//! * identifiers, keywords (kept as plain identifier tokens — the rules
//!   match on text) and single-character punctuation.
//!
//! The output keeps comments in a side table with their line spans so rules
//! can ask "is there a `// SAFETY:` comment directly above line N?" without
//! comments ever appearing in the code-token stream.

/// Kind of one code token.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokKind {
    /// Identifier or keyword (`unsafe`, `fn`, `as`, names, …).
    Ident,
    /// Lifetime or loop label (`'a`, `'static`) — *not* a char literal.
    Lifetime,
    /// Integer literal (`42`, `0x1f`, `1_000u64`).
    Int,
    /// Float literal (`1.0`, `1.`, `2e-3`, `1f32`).
    Float,
    /// String literal of any flavour (`"…"`, `r#"…"#`, `b"…"`, `c"…"`).
    Str,
    /// Char or byte-char literal (`'x'`, `b'\n'`).
    Char,
    /// One punctuation character (`{`, `:`, `#`, …).
    Punct,
}

/// One code token with its 1-based source line.
#[derive(Debug, Clone)]
pub struct Tok {
    /// Token kind.
    pub kind: TokKind,
    /// Source text (single character for [`TokKind::Punct`]; string and
    /// char literals keep their quotes/prefixes).
    pub text: String,
    /// 1-based line the token starts on.
    pub line: u32,
}

impl Tok {
    /// `true` when this token is the identifier `s`.
    pub fn is_ident(&self, s: &str) -> bool {
        self.kind == TokKind::Ident && self.text == s
    }

    /// `true` when this token is the punctuation character `c`.
    pub fn is_punct(&self, c: char) -> bool {
        self.kind == TokKind::Punct && self.text.len() == 1 && self.text.starts_with(c)
    }
}

/// One comment with its line span.
#[derive(Debug, Clone)]
pub struct Comment {
    /// 1-based line the comment starts on.
    pub line: u32,
    /// 1-based line the comment ends on (same as `line` for `//` comments).
    pub end_line: u32,
    /// Full comment text including the `//` / `/*` markers.
    pub text: String,
    /// `true` for `///`, `//!`, `/**` and `/*!` doc comments.
    pub doc: bool,
}

/// Lexed view of one source file: code tokens plus a comment side table.
#[derive(Debug, Default)]
pub struct Lexed {
    /// Code tokens in source order (no comments).
    pub toks: Vec<Tok>,
    /// Comments in source order.
    pub comments: Vec<Comment>,
    /// Number of lines in the file.
    pub n_lines: u32,
}

impl Lexed {
    /// All comments that touch `line` (start ≤ line ≤ end).
    pub fn comments_on_line(&self, line: u32) -> impl Iterator<Item = &Comment> {
        self.comments
            .iter()
            .filter(move |c| c.line <= line && line <= c.end_line)
    }
}

struct Cursor<'a> {
    src: &'a [u8],
    pos: usize,
    line: u32,
}

impl<'a> Cursor<'a> {
    fn peek(&self) -> Option<u8> {
        self.src.get(self.pos).copied()
    }

    fn peek_at(&self, off: usize) -> Option<u8> {
        self.src.get(self.pos + off).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let b = self.peek()?;
        self.pos += 1;
        if b == b'\n' {
            self.line += 1;
        }
        Some(b)
    }
}

fn is_ident_start(b: u8) -> bool {
    b.is_ascii_alphabetic() || b == b'_' || b >= 0x80
}

fn is_ident_cont(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_' || b >= 0x80
}

/// Lex `src` into code tokens and comments.
///
/// The lexer is permissive: malformed input (an unterminated string, a stray
/// byte) never panics — it degrades to single-character tokens so rules can
/// still run on the rest of the file.
pub fn lex(src: &str) -> Lexed {
    let mut cur = Cursor { src: src.as_bytes(), pos: 0, line: 1 };
    let mut out = Lexed::default();

    while let Some(b) = cur.peek() {
        let start_line = cur.line;
        let start_pos = cur.pos;
        match b {
            b' ' | b'\t' | b'\r' | b'\n' => {
                cur.bump();
            }
            b'/' if cur.peek_at(1) == Some(b'/') => {
                // Line comment (incl. /// and //! doc comments).
                while let Some(c) = cur.peek() {
                    if c == b'\n' {
                        break;
                    }
                    cur.bump();
                }
                let text = src[start_pos..cur.pos].to_string();
                let doc = text.starts_with("///") || text.starts_with("//!");
                out.comments.push(Comment { line: start_line, end_line: start_line, text, doc });
            }
            b'/' if cur.peek_at(1) == Some(b'*') => {
                // Block comment; Rust block comments nest.
                cur.bump();
                cur.bump();
                let mut depth = 1usize;
                while depth > 0 {
                    match (cur.peek(), cur.peek_at(1)) {
                        (Some(b'/'), Some(b'*')) => {
                            depth += 1;
                            cur.bump();
                            cur.bump();
                        }
                        (Some(b'*'), Some(b'/')) => {
                            depth -= 1;
                            cur.bump();
                            cur.bump();
                        }
                        (Some(_), _) => {
                            cur.bump();
                        }
                        (None, _) => break, // unterminated: treat rest as comment
                    }
                }
                let text = src[start_pos..cur.pos].to_string();
                let doc = text.starts_with("/**") || text.starts_with("/*!");
                out.comments.push(Comment { line: start_line, end_line: cur.line, text, doc });
            }
            b'\'' => lex_quote(&mut cur, src, &mut out),
            b'"' => lex_string(&mut cur, src, &mut out, start_line),
            _ if is_ident_start(b) => {
                // Raw string / byte string / C string prefixes first: the
                // prefix characters would otherwise lex as an identifier
                // glued to a string.
                if try_prefixed_string(&mut cur, src, &mut out, start_line) {
                    continue;
                }
                while let Some(c) = cur.peek() {
                    if is_ident_cont(c) {
                        cur.bump();
                    } else {
                        break;
                    }
                }
                let mut text = &src[start_pos..cur.pos];
                // Raw identifier `r#name`: strip nothing, but swallow the
                // `#name` continuation so `r#fn` is one token.
                if text == "r" && cur.peek() == Some(b'#') && cur.peek_at(1).is_some_and(is_ident_start) {
                    cur.bump();
                    while let Some(c) = cur.peek() {
                        if is_ident_cont(c) {
                            cur.bump();
                        } else {
                            break;
                        }
                    }
                    text = &src[start_pos..cur.pos];
                }
                out.toks.push(Tok { kind: TokKind::Ident, text: text.to_string(), line: start_line });
            }
            _ if b.is_ascii_digit() => lex_number(&mut cur, src, &mut out, start_line),
            _ => {
                cur.bump();
                out.toks.push(Tok {
                    kind: TokKind::Punct,
                    text: (b as char).to_string(),
                    line: start_line,
                });
            }
        }
    }
    out.n_lines = cur.line;
    out
}

/// `'…` — a char literal, a lifetime, or a loop label.
fn lex_quote(cur: &mut Cursor, src: &str, out: &mut Lexed) {
    let start_pos = cur.pos;
    let start_line = cur.line;
    cur.bump(); // the opening '
    match cur.peek() {
        Some(b'\\') => {
            // Escaped char literal: consume escape then closing quote.
            cur.bump();
            cur.bump(); // escape head (n, ', u, x, …)
            // `\u{…}` spans to the closing brace.
            while let Some(c) = cur.peek() {
                cur.bump();
                if c == b'\'' {
                    break;
                }
            }
            out.toks.push(Tok {
                kind: TokKind::Char,
                text: src[start_pos..cur.pos].to_string(),
                line: start_line,
            });
        }
        Some(c) if is_ident_start(c) => {
            // `'a'` is a char literal; `'a` / `'static` is a lifetime.  Scan
            // the identifier, then look for a closing quote.
            cur.bump();
            while let Some(c2) = cur.peek() {
                if is_ident_cont(c2) {
                    cur.bump();
                } else {
                    break;
                }
            }
            if cur.peek() == Some(b'\'') {
                cur.bump();
                out.toks.push(Tok {
                    kind: TokKind::Char,
                    text: src[start_pos..cur.pos].to_string(),
                    line: start_line,
                });
            } else {
                out.toks.push(Tok {
                    kind: TokKind::Lifetime,
                    text: src[start_pos..cur.pos].to_string(),
                    line: start_line,
                });
            }
        }
        Some(_) => {
            // Non-identifier char literal: `'+'`, `' '`, `'0'`, …
            cur.bump();
            if cur.peek() == Some(b'\'') {
                cur.bump();
            }
            out.toks.push(Tok {
                kind: TokKind::Char,
                text: src[start_pos..cur.pos].to_string(),
                line: start_line,
            });
        }
        None => {
            out.toks.push(Tok { kind: TokKind::Punct, text: "'".into(), line: start_line });
        }
    }
}

/// Ordinary `"…"` string with escapes.
fn lex_string(cur: &mut Cursor, src: &str, out: &mut Lexed, start_line: u32) {
    let start_pos = cur.pos;
    cur.bump(); // opening quote
    while let Some(c) = cur.bump() {
        match c {
            b'\\' => {
                cur.bump(); // whatever is escaped, including \" and \\
            }
            b'"' => break,
            _ => {}
        }
    }
    out.toks.push(Tok {
        kind: TokKind::Str,
        text: src[start_pos..cur.pos].to_string(),
        line: start_line,
    });
}

/// Raw / byte / C strings: `r"…"`, `r#"…"#`, `br##"…"##`, `b"…"`, `c"…"`,
/// `cr#"…"#`.  Returns `true` when one was consumed.
fn try_prefixed_string(cur: &mut Cursor, src: &str, out: &mut Lexed, start_line: u32) -> bool {
    let rest = &cur.src[cur.pos..];
    // Longest prefix first so `br#"` is not parsed as ident `br` + junk.
    let (prefix_len, raw) = if rest.starts_with(b"br") || rest.starts_with(b"cr") {
        (2, true)
    } else if rest.starts_with(b"r") {
        (1, true)
    } else if rest.starts_with(b"b") || rest.starts_with(b"c") {
        (1, false)
    } else {
        return false;
    };
    let mut off = prefix_len;
    let mut hashes = 0usize;
    if raw {
        while rest.get(off) == Some(&b'#') {
            hashes += 1;
            off += 1;
        }
    }
    if rest.get(off) != Some(&b'"') {
        return false; // `r` / `b` was just an identifier start after all
    }
    // Commit: consume prefix, hashes and opening quote.
    let start_pos = cur.pos;
    for _ in 0..=off {
        cur.bump();
    }
    if raw {
        // Scan for `"` followed by `hashes` hash characters; no escapes.
        'scan: while let Some(c) = cur.bump() {
            if c == b'"' {
                for k in 0..hashes {
                    if cur.peek_at(k) != Some(b'#') {
                        continue 'scan;
                    }
                }
                for _ in 0..hashes {
                    cur.bump();
                }
                break;
            }
        }
    } else {
        while let Some(c) = cur.bump() {
            match c {
                b'\\' => {
                    cur.bump();
                }
                b'"' => break,
                _ => {}
            }
        }
    }
    out.toks.push(Tok {
        kind: TokKind::Str,
        text: src[start_pos..cur.pos].to_string(),
        line: start_line,
    });
    true
}

/// Numeric literal; decides int vs float.
fn lex_number(cur: &mut Cursor, src: &str, out: &mut Lexed, start_line: u32) {
    let start_pos = cur.pos;
    let mut float = false;
    if cur.peek() == Some(b'0')
        && matches!(cur.peek_at(1), Some(b'x') | Some(b'X') | Some(b'o') | Some(b'O') | Some(b'b') | Some(b'B'))
    {
        // Radix literal: always an integer; `e`/`f` are digits or suffixes
        // here (`0x1f`), never exponents.
        cur.bump();
        cur.bump();
        while let Some(c) = cur.peek() {
            if c.is_ascii_alphanumeric() || c == b'_' {
                cur.bump();
            } else {
                break;
            }
        }
    } else {
        while let Some(c) = cur.peek() {
            if c.is_ascii_digit() || c == b'_' {
                cur.bump();
            } else {
                break;
            }
        }
        // Fractional part: a `.` NOT followed by another `.` (range) or an
        // identifier start (method call like `1.max(2)`).
        if cur.peek() == Some(b'.')
            && cur.peek_at(1) != Some(b'.')
            && !cur.peek_at(1).is_some_and(is_ident_start)
        {
            float = true;
            cur.bump();
            while let Some(c) = cur.peek() {
                if c.is_ascii_digit() || c == b'_' {
                    cur.bump();
                } else {
                    break;
                }
            }
        }
        // Exponent.
        if matches!(cur.peek(), Some(b'e') | Some(b'E')) {
            let mut k = 1;
            if matches!(cur.peek_at(1), Some(b'+') | Some(b'-')) {
                k = 2;
            }
            if cur.peek_at(k).is_some_and(|c| c.is_ascii_digit()) {
                float = true;
                for _ in 0..k {
                    cur.bump();
                }
                while let Some(c) = cur.peek() {
                    if c.is_ascii_digit() || c == b'_' {
                        cur.bump();
                    } else {
                        break;
                    }
                }
            }
        }
        // Type suffix (`u64`, `f32`, …): `f32`/`f64` forces float.
        if cur.peek().is_some_and(is_ident_start) {
            let sfx_start = cur.pos;
            while let Some(c) = cur.peek() {
                if is_ident_cont(c) {
                    cur.bump();
                } else {
                    break;
                }
            }
            let sfx = &src[sfx_start..cur.pos];
            if sfx == "f32" || sfx == "f64" || sfx == "f16" {
                float = true;
            }
        }
    }
    out.toks.push(Tok {
        kind: if float { TokKind::Float } else { TokKind::Int },
        text: src[start_pos..cur.pos].to_string(),
        line: start_line,
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<(TokKind, String)> {
        lex(src).toks.into_iter().map(|t| (t.kind, t.text)).collect()
    }

    #[test]
    fn strings_hide_keywords() {
        let l = lex(r##"let s = "unsafe { mul_add }"; let r = r#"unsafe"#;"##);
        assert!(l.toks.iter().all(|t| !t.is_ident("unsafe")));
        assert_eq!(l.toks.iter().filter(|t| t.kind == TokKind::Str).count(), 2);
    }

    #[test]
    fn raw_string_hashes_and_quotes() {
        // The doubled hashes swallow the single-hash terminator inside.
        let l = lex("let s = r##\"a \" quote and \"# end\"##; x");
        assert_eq!(l.toks.iter().filter(|t| t.kind == TokKind::Str).count(), 1);
        assert!(l.toks.iter().any(|t| t.is_ident("x")));
        assert!(l.toks.iter().all(|t| !t.is_ident("quote")));
    }

    #[test]
    fn char_vs_lifetime() {
        let l = lex("fn f<'a>(x: &'a u8) { let c = 'a'; let s = 'x'; loop_label: for _ in 'outer: 0..1 {} }");
        let lifetimes: Vec<_> =
            l.toks.iter().filter(|t| t.kind == TokKind::Lifetime).map(|t| t.text.clone()).collect();
        let chars: Vec<_> =
            l.toks.iter().filter(|t| t.kind == TokKind::Char).map(|t| t.text.clone()).collect();
        assert_eq!(lifetimes, vec!["'a", "'a", "'outer"]);
        assert_eq!(chars, vec!["'a'", "'x'"]);
    }

    #[test]
    fn escaped_char_literals() {
        let l = lex(r"let a = '\''; let b = '\n'; let c = '\u{1F600}'; let l: &'static str;");
        assert_eq!(l.toks.iter().filter(|t| t.kind == TokKind::Char).count(), 3);
        assert_eq!(l.toks.iter().filter(|t| t.kind == TokKind::Lifetime).count(), 1);
    }

    #[test]
    fn nested_block_comments() {
        let l = lex("a /* outer /* inner unsafe */ still comment */ b");
        assert_eq!(kinds("a /* x /* y */ z */ b").len(), 2);
        assert_eq!(l.toks.len(), 2);
        assert_eq!(l.comments.len(), 1);
        assert!(l.comments[0].text.contains("inner unsafe"));
    }

    #[test]
    fn int_vs_float() {
        let t = kinds("0x1f 1.0 1. 2e-3 1_000u64 1f32 0..n 3.max(4)");
        let f: Vec<_> = t.iter().filter(|(k, _)| *k == TokKind::Float).map(|(_, s)| s.clone()).collect();
        let i: Vec<_> = t.iter().filter(|(k, _)| *k == TokKind::Int).map(|(_, s)| s.clone()).collect();
        assert_eq!(f, vec!["1.0", "1.", "2e-3", "1f32"]);
        assert_eq!(i, vec!["0x1f", "1_000u64", "0", "3", "4"]);
    }

    #[test]
    fn doc_comments_flagged() {
        let l = lex("/// doc\n//! inner\n// plain\n/** block doc */\nfn f() {}");
        let docs: Vec<_> = l.comments.iter().map(|c| c.doc).collect();
        assert_eq!(docs, vec![true, true, false, true]);
    }

    #[test]
    fn comment_line_spans() {
        let l = lex("/* a\nb\nc */ fn f() {}");
        assert_eq!(l.comments[0].line, 1);
        assert_eq!(l.comments[0].end_line, 3);
        assert_eq!(l.toks[0].line, 3);
    }

    #[test]
    fn byte_strings_and_raw_idents() {
        let l = lex(r##"let a = b"unsafe"; let b = br#"x"#; let r#fn = 1;"##);
        assert_eq!(l.toks.iter().filter(|t| t.kind == TokKind::Str).count(), 2);
        assert!(l.toks.iter().any(|t| t.text == "r#fn"));
    }
}
