//! A small hand-rolled Rust lexer, exactly deep enough for rule
//! matching: it separates code tokens from comments, strings, raw
//! strings, char literals, and lifetimes, so a banned API name inside a
//! string literal or a commented-out `.unwrap()` can never trip a rule.
//!
//! The lexer is intentionally not a parser: it produces a flat token
//! stream with line numbers plus a side list of comments (the carrier
//! for `// lint:` annotations), and leaves all structure recovery
//! (brace matching, item scanning) to [`crate::model`].

/// Kind of one code token.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokKind {
    /// Identifier or keyword.
    Ident,
    /// Single punctuation character.
    Punct,
    /// String / byte-string / raw-string / C-string literal.
    Str,
    /// Character or byte literal.
    Char,
    /// Numeric literal.
    Num,
    /// Lifetime (`'a`).
    Lifetime,
}

/// One code token. Literal bodies are not retained (rules never match
/// inside them); identifiers and puncts keep their text.
#[derive(Debug, Clone)]
pub struct Token {
    pub kind: TokKind,
    /// Identifier text, or the punctuation character. Empty for
    /// literals.
    pub text: String,
    /// 1-based source line of the token's first character.
    pub line: u32,
    /// Raw identifier (`r#fn`): the text is the bare name, but it is
    /// never a keyword — the call-graph resolver must not skip it.
    pub raw: bool,
}

impl Token {
    /// True when this token is the identifier `s`.
    pub fn is_ident(&self, s: &str) -> bool {
        self.kind == TokKind::Ident && self.text == s
    }

    /// True when this token is the punctuation character `c`.
    pub fn is_punct(&self, c: char) -> bool {
        self.kind == TokKind::Punct && self.text.len() == 1 && self.text.as_bytes()[0] == c as u8
    }
}

/// Doc-ness of a comment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DocKind {
    /// Plain `//` or `/* */`.
    Plain,
    /// Outer doc: `///` or `/** */`.
    Outer,
    /// Inner doc: `//!` or `/*! */`.
    Inner,
}

/// One comment, with enough context to anchor `// lint:` annotations.
#[derive(Debug, Clone)]
pub struct Comment {
    /// Text after the comment introducer, un-trimmed.
    pub text: String,
    /// 1-based line the comment starts on.
    pub line: u32,
    pub doc: DocKind,
    /// True when no code token precedes the comment on its line — a
    /// standalone annotation applies to the *next* code line, a
    /// trailing one to its own.
    pub standalone: bool,
}

/// Lexer output: code tokens and comments, separated.
#[derive(Debug, Default)]
pub struct Lexed {
    pub tokens: Vec<Token>,
    pub comments: Vec<Comment>,
}

/// Lexes one source file. The lexer is total: any byte sequence
/// produces *some* token stream (unterminated literals run to EOF),
/// which is the right failure mode for a linter — it must never panic
/// on the code it audits.
pub fn lex(src: &str) -> Lexed {
    Lexer {
        b: src.as_bytes(),
        src,
        i: 0,
        line: 1,
        last_code_line: 0,
        out: Lexed::default(),
    }
    .run()
}

struct Lexer<'a> {
    b: &'a [u8],
    src: &'a str,
    i: usize,
    line: u32,
    /// Line of the most recently emitted code token (0 = none yet).
    last_code_line: u32,
    out: Lexed,
}

impl<'a> Lexer<'a> {
    fn peek(&self, ahead: usize) -> u8 {
        *self.b.get(self.i + ahead).unwrap_or(&0)
    }

    fn bump(&mut self) -> u8 {
        let c = self.peek(0);
        self.i += 1;
        if c == b'\n' {
            self.line += 1;
        }
        c
    }

    fn push_tok(&mut self, kind: TokKind, text: String, line: u32) {
        self.last_code_line = line;
        self.out.tokens.push(Token {
            kind,
            text,
            line,
            raw: false,
        });
    }

    fn run(mut self) -> Lexed {
        while self.i < self.b.len() {
            let line = self.line;
            let c = self.peek(0);
            match c {
                b'/' if self.peek(1) == b'/' => self.line_comment(line),
                b'/' if self.peek(1) == b'*' => self.block_comment(line),
                b'"' => {
                    self.string();
                    self.push_tok(TokKind::Str, String::new(), line);
                }
                b'\'' => self.char_or_lifetime(line),
                b'r' | b'b' | b'c' if self.raw_or_prefixed_literal(line) => {}
                c if c == b'_' || c.is_ascii_alphabetic() => self.ident(line),
                c if c.is_ascii_digit() => self.number(line),
                c if c.is_ascii_whitespace() => {
                    self.bump();
                }
                _ => {
                    self.bump();
                    // Multi-byte UTF-8 continuation bytes only occur in
                    // (already-skipped) literals/comments or emoji
                    // idents rustc rejects; emit the lead byte as punct.
                    self.push_tok(TokKind::Punct, (c as char).to_string(), line);
                }
            }
        }
        self.out
    }

    fn line_comment(&mut self, line: u32) {
        let standalone = self.last_code_line != line;
        self.bump();
        self.bump();
        let doc = match (self.peek(0), self.peek(1)) {
            (b'/', d) if d != b'/' => {
                self.bump();
                DocKind::Outer
            }
            (b'!', _) => {
                self.bump();
                DocKind::Inner
            }
            _ => DocKind::Plain,
        };
        let start = self.i;
        while self.i < self.b.len() && self.peek(0) != b'\n' {
            self.bump();
        }
        self.out.comments.push(Comment {
            text: self.src[start..self.i].to_string(),
            line,
            doc,
            standalone,
        });
    }

    fn block_comment(&mut self, line: u32) {
        let standalone = self.last_code_line != line;
        self.bump();
        self.bump();
        let doc = match self.peek(0) {
            b'*' if self.peek(1) != b'*' && self.peek(1) != b'/' => {
                self.bump();
                DocKind::Outer
            }
            b'!' => {
                self.bump();
                DocKind::Inner
            }
            _ => DocKind::Plain,
        };
        let start = self.i;
        let mut depth = 1u32;
        while self.i < self.b.len() && depth > 0 {
            if self.peek(0) == b'/' && self.peek(1) == b'*' {
                depth += 1;
                self.bump();
                self.bump();
            } else if self.peek(0) == b'*' && self.peek(1) == b'/' {
                depth -= 1;
                self.bump();
                self.bump();
            } else {
                self.bump();
            }
        }
        let end = self.i.saturating_sub(2).max(start);
        self.out.comments.push(Comment {
            text: self.src[start..end].to_string(),
            line,
            doc,
            standalone,
        });
    }

    /// Consumes a `"…"` string body (opening quote included), honoring
    /// `\` escapes.
    fn string(&mut self) {
        self.bump();
        while self.i < self.b.len() {
            match self.bump() {
                b'\\' => {
                    self.bump();
                }
                b'"' => return,
                _ => {}
            }
        }
    }

    /// Consumes a raw string `r"…"` / `r#…#"…"#…#` after the caller
    /// verified the `r` (and optional `b`) prefix. `self.i` points at
    /// the `r`.
    fn raw_string(&mut self) {
        self.bump(); // r
        let mut hashes = 0usize;
        while self.peek(0) == b'#' {
            hashes += 1;
            self.bump();
        }
        if self.peek(0) != b'"' {
            return; // actually a raw identifier; caller handles
        }
        self.bump();
        while self.i < self.b.len() {
            if self.bump() == b'"' {
                let mut seen = 0usize;
                while seen < hashes && self.peek(0) == b'#' {
                    seen += 1;
                    self.bump();
                }
                if seen == hashes {
                    return;
                }
            }
        }
    }

    /// Handles `r`/`b`/`c`-prefixed literals (`r"`, `r#"`, `br"`, `b"`,
    /// `b'`, `c"`, `rb"`…) and raw identifiers (`r#ident`). Returns
    /// true when it consumed something; false means "plain identifier
    /// starting with r/b/c" and the caller lexes it as an ident.
    fn raw_or_prefixed_literal(&mut self, line: u32) -> bool {
        let c0 = self.peek(0);
        let c1 = self.peek(1);
        let c2 = self.peek(2);
        match (c0, c1) {
            (b'r', b'"') | (b'r', b'#') => {
                // r"…" or r#…" (raw string) — but r#ident is a raw
                // identifier: detect by what follows the hashes.
                let mut j = self.i + 1;
                while *self.b.get(j).unwrap_or(&0) == b'#' {
                    j += 1;
                }
                if *self.b.get(j).unwrap_or(&0) == b'"' {
                    self.raw_string();
                    self.push_tok(TokKind::Str, String::new(), line);
                } else {
                    // raw identifier r#foo
                    self.bump();
                    self.bump();
                    self.ident(line);
                    if let Some(t) = self.out.tokens.last_mut() {
                        t.raw = true;
                    }
                }
                true
            }
            (b'b', b'"') | (b'c', b'"') => {
                self.bump();
                self.string();
                self.push_tok(TokKind::Str, String::new(), line);
                true
            }
            (b'b', b'\'') => {
                self.bump();
                self.bump();
                if self.peek(0) == b'\\' {
                    self.bump();
                }
                self.bump();
                if self.peek(0) == b'\'' {
                    self.bump();
                }
                self.push_tok(TokKind::Char, String::new(), line);
                true
            }
            (b'b', b'r') | (b'r', b'b') if c2 == b'"' || c2 == b'#' => {
                self.bump();
                self.raw_string();
                self.push_tok(TokKind::Str, String::new(), line);
                true
            }
            _ => false,
        }
    }

    /// `'a` (lifetime) vs `'x'` (char literal): a backslash or a
    /// closing quote two ahead means char.
    fn char_or_lifetime(&mut self, line: u32) {
        self.bump(); // '
        if self.peek(0) == b'\\' {
            self.bump();
            self.bump();
            while self.i < self.b.len() && self.bump() != b'\'' {}
            self.push_tok(TokKind::Char, String::new(), line);
            return;
        }
        // Lifetimes can only start with an identifier character, so any
        // other first byte — punctuation like `'"'` or `'{'`, a space,
        // or a multibyte scalar — must be a char literal. Consume one
        // scalar and its closing quote.
        let first = self.peek(0);
        if self.i < self.b.len()
            && first != b'\''
            && first != b'_'
            && !first.is_ascii_alphanumeric()
        {
            self.bump();
            while self.i < self.b.len() && (self.b[self.i] & 0xC0) == 0x80 {
                self.bump(); // UTF-8 continuation bytes
            }
            if self.peek(0) == b'\'' {
                self.bump();
            }
            self.push_tok(TokKind::Char, String::new(), line);
            return;
        }
        // Ident-ish content: find the next byte boundary-agnostic quote
        // within 5 bytes; otherwise treat as lifetime.
        let mut j = self.i;
        let mut len = 0usize;
        while len < 5 {
            match self.b.get(j) {
                Some(b'\'') if len > 0 => {
                    for _ in 0..=len {
                        self.bump();
                    }
                    self.push_tok(TokKind::Char, String::new(), line);
                    return;
                }
                Some(b) if !b.is_ascii() || b.is_ascii_alphanumeric() || *b == b'_' => {
                    j += 1;
                    len += 1;
                }
                _ => break,
            }
        }
        // Lifetime: consume ident chars.
        let start = self.i;
        while {
            let b = self.peek(0);
            b == b'_' || b.is_ascii_alphanumeric()
        } {
            self.bump();
        }
        self.push_tok(TokKind::Lifetime, self.src[start..self.i].to_string(), line);
    }

    fn ident(&mut self, line: u32) {
        let start = self.i;
        while {
            let b = self.peek(0);
            b == b'_' || b.is_ascii_alphanumeric()
        } {
            self.bump();
        }
        self.push_tok(TokKind::Ident, self.src[start..self.i].to_string(), line);
    }

    fn number(&mut self, line: u32) {
        while {
            let b = self.peek(0);
            b == b'_' || b.is_ascii_alphanumeric()
        } {
            self.bump();
        }
        // Fractional part — but never eat `..` (range syntax).
        if self.peek(0) == b'.' && self.peek(1).is_ascii_digit() {
            self.bump();
            while {
                let b = self.peek(0);
                b == b'_' || b.is_ascii_alphanumeric()
            } {
                self.bump();
            }
        }
        self.push_tok(TokKind::Num, String::new(), line);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idents(src: &str) -> Vec<String> {
        lex(src)
            .tokens
            .into_iter()
            .filter(|t| t.kind == TokKind::Ident)
            .map(|t| t.text)
            .collect()
    }

    #[test]
    fn strings_and_comments_hide_code() {
        let src = r##"
            let a = "x.unwrap()"; // call .unwrap() here
            /* vec![1] */
            let b = r#"format!("{}", 1)"#;
        "##;
        let ids = idents(src);
        assert!(ids.contains(&"let".to_string()));
        assert!(!ids.contains(&"unwrap".to_string()));
        assert!(!ids.contains(&"vec".to_string()));
        assert!(!ids.contains(&"format".to_string()));
        let lexed = lex(src);
        assert_eq!(lexed.comments.len(), 2);
        assert!(!lexed.comments[0].standalone);
        assert!(lexed.comments[1].standalone);
    }

    #[test]
    fn char_literals_vs_lifetimes() {
        let toks = lex("fn f<'a>(x: &'a str) { let c = 'x'; let q = '\\''; }").tokens;
        let lifetimes: Vec<_> = toks
            .iter()
            .filter(|t| t.kind == TokKind::Lifetime)
            .collect();
        let chars: Vec<_> = toks.iter().filter(|t| t.kind == TokKind::Char).collect();
        assert_eq!(lifetimes.len(), 2);
        assert_eq!(chars.len(), 2);
    }

    #[test]
    fn punctuation_char_literals_do_not_open_strings() {
        // `'"'` must lex as a char literal, not a lifetime followed by
        // a string that swallows the rest of the file.
        let lexed = lex("let q = '\"'; let b = '{'; let s = \" // lint: allow(x) \"; done");
        let chars = lexed
            .tokens
            .iter()
            .filter(|t| t.kind == TokKind::Char)
            .count();
        assert_eq!(chars, 2);
        assert!(lexed.comments.is_empty());
        assert!(lexed.tokens.iter().any(|t| t.text == "done"));
        let multibyte = lex("let e = 'é'; fn g<'a>(x: &'a u8) {}");
        assert_eq!(
            multibyte
                .tokens
                .iter()
                .filter(|t| t.kind == TokKind::Char)
                .count(),
            1
        );
        assert_eq!(
            multibyte
                .tokens
                .iter()
                .filter(|t| t.kind == TokKind::Lifetime)
                .count(),
            2
        );
    }

    #[test]
    fn raw_identifiers_are_idents() {
        let ids = idents("let r#fn = 1;");
        assert!(ids.contains(&"fn".to_string()));
    }

    #[test]
    fn multi_hash_raw_strings_terminate_exactly() {
        // r##"…"## may contain `"#` without closing: only the matching
        // hash count ends the literal. Mis-counting would swallow real
        // code (the `.unwrap()` after the literal) or leak banned names
        // from inside it.
        let src = "let a = r##\"inner \"# quote and vec![0] stay hidden\"##; x.unwrap();";
        let lexed = lex(src);
        let ids: Vec<&str> = lexed
            .tokens
            .iter()
            .filter(|t| t.kind == TokKind::Ident)
            .map(|t| t.text.as_str())
            .collect();
        assert!(!ids.contains(&"vec"), "literal body leaked into tokens");
        assert!(ids.contains(&"unwrap"), "code after literal was swallowed");
        // Three-hash with an embedded two-hash closer, plus the byte-raw
        // spelling `br##"…"##`.
        let deep =
            lex("let b = r###\"has \"## inside\"###; let c = br##\"# still \"# in\"##; done");
        assert!(deep.tokens.iter().any(|t| t.is_ident("done")));
        assert_eq!(
            deep.tokens
                .iter()
                .filter(|t| t.kind == TokKind::Str)
                .count(),
            2
        );
    }

    #[test]
    fn raw_idents_in_paths_keep_segments() {
        // `crate::r#mod::r#fn()` must lex as a plain path whose segments
        // carry the bare keyword text with the raw flag set — not as a
        // raw string or a skipped keyword.
        let lexed = lex("crate::r#mod::r#fn(); let ok = r#type::r#loop;");
        let raws: Vec<(&str, bool)> = lexed
            .tokens
            .iter()
            .filter(|t| t.kind == TokKind::Ident)
            .map(|t| (t.text.as_str(), t.raw))
            .collect();
        assert!(raws.contains(&("mod", true)));
        assert!(raws.contains(&("fn", true)));
        assert!(raws.contains(&("type", true)));
        assert!(raws.contains(&("loop", true)));
        assert!(raws.contains(&("crate", false)));
        assert!(lexed.tokens.iter().all(|t| t.kind != TokKind::Str));
    }

    #[test]
    fn nested_block_comments() {
        let lexed = lex("a /* outer /* inner */ still */ b");
        let ids: Vec<_> = lexed
            .tokens
            .iter()
            .filter(|t| t.kind == TokKind::Ident)
            .map(|t| t.text.as_str())
            .collect();
        assert_eq!(ids, vec!["a", "b"]);
        assert_eq!(lexed.comments.len(), 1);
    }

    #[test]
    fn doc_comment_kinds() {
        let lexed = lex("//! inner\n/// outer\n// plain\nfn x() {}\n");
        assert_eq!(lexed.comments[0].doc, DocKind::Inner);
        assert_eq!(lexed.comments[1].doc, DocKind::Outer);
        assert_eq!(lexed.comments[2].doc, DocKind::Plain);
    }

    #[test]
    fn byte_and_raw_strings() {
        let ids = idents(r#"let x = b"unwrap"; let y = br#unused; "#);
        assert!(!ids.contains(&"unwrap".to_string()));
    }

    #[test]
    fn line_numbers_advance() {
        let toks = lex("a\nb\n\nc").tokens;
        let lines: Vec<u32> = toks.iter().map(|t| t.line).collect();
        assert_eq!(lines, vec![1, 2, 4]);
    }
}
