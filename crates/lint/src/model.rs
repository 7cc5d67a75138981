//! Structure recovery over the flat token stream: brace matching,
//! function spans, `#[cfg(test)]` / `#[test]` regions, and the
//! `// lint:` annotation grammar.
//!
//! ## Annotation grammar
//!
//! `// lint: allow(<rule>[, <rule>…]) -- <reason>` is the one
//! directive: it suppresses the named rule(s). Trailing on a code line
//! it applies to that line; standalone it applies to the next code
//! line. Every name must be one of [`crate::rules::ALL_RULES`] and the
//! `-- <reason>` justification is mandatory: an allow breaking either
//! is itself a finding (`annotation-grammar`) and suppresses nothing.

use crate::lexer::{lex, Comment, DocKind, Lexed, TokKind, Token};
use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;

/// How a file participates in the build — decides which rules apply.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FileRole {
    /// Library source: every rule applies.
    Lib,
    /// Binary targets (`src/bin/`, `src/main.rs`): top-level glue
    /// where panicking on startup misconfiguration is idiomatic, so
    /// `no-unwrap-in-lib` is off; structural rules still apply.
    Binary,
    /// Integration tests, benches, examples: panicking is idiomatic,
    /// so `no-unwrap-in-lib` is off; structural rules still apply.
    TestTarget,
}

/// One function item.
#[derive(Debug, Clone)]
pub struct FnSpan {
    pub name: String,
    /// Line of the `fn` keyword.
    pub line: u32,
    /// Token index of the `fn` keyword.
    pub tok: usize,
    /// Token range of the signature: after the name, up to (exclusive)
    /// the body's opening brace. Carries params for the receiver-type
    /// heuristic.
    pub sig: std::ops::Range<usize>,
    /// Token range of the body, **exclusive** of the outer braces.
    pub body: std::ops::Range<usize>,
    /// Base type name of the enclosing `impl` block, if any
    /// (`impl FlowTable<K>` and `impl Estimator for FlowTable` both
    /// record `FlowTable`).
    pub owner: Option<String>,
    /// Trait name when the enclosing impl is `impl Trait for Type`.
    pub trait_name: Option<String>,
    /// Inside a `#[cfg(test)]` region or carrying `#[test]`.
    pub test: bool,
}

/// A fully analyzed source file.
pub struct FileModel {
    /// Workspace-relative path, `/`-separated.
    pub path: String,
    pub role: FileRole,
    pub lines: Vec<String>,
    pub tokens: Vec<Token>,
    pub comments: Vec<Comment>,
    /// `line -> rules allowed on that line` (already resolved from
    /// standalone/trailing placement).
    pub allows: BTreeMap<u32, BTreeSet<String>>,
    /// Lines of malformed `// lint:` annotations.
    pub bad_allows: Vec<u32>,
    /// Token ranges (exclusive of braces) that are test-only code.
    pub test_regions: Vec<std::ops::Range<usize>>,
    pub fns: Vec<FnSpan>,
    /// `struct Name` → field name → base type ident (`sizes: Vec<i64>`
    /// records `("sizes", "Vec")`; tuple-struct fields are `"0"`,
    /// `"1"`, …). Feeds the call-graph receiver-type heuristic.
    pub structs: BTreeMap<String, BTreeMap<String, String>>,
    /// Module is documented-unstable (`//!` doc contains
    /// `Stability: unstable`).
    pub unstable_module: bool,
    /// Public top-level item names carrying a `Stability: stable` doc
    /// marker (exceptions to `stability-surface`).
    pub stable_items: BTreeSet<String>,
    /// All public top-level item names.
    pub pub_items: BTreeSet<String>,
}

impl FileModel {
    /// True when token index `i` lies in test-only code.
    pub fn in_test(&self, i: usize) -> bool {
        self.test_regions.iter().any(|r| r.contains(&i))
    }

    /// True when `rule` is allowed on `line`.
    pub fn allowed(&self, rule: &str, line: u32) -> bool {
        self.allows.get(&line).is_some_and(|s| s.contains(rule))
    }

    /// The trimmed source text of a 1-based line (for snippets).
    pub fn snippet(&self, line: u32) -> String {
        let text = self
            .lines
            .get(line as usize - 1)
            .map(|l| l.trim())
            .unwrap_or("");
        let mut s: String = text.chars().take(96).collect();
        if s.len() < text.len() {
            s.push('…');
        }
        s
    }
}

/// Finds the matching `}` for the `{` at `open` (token index).
/// Returns the index of the closing brace, or `tokens.len()` when
/// unbalanced (linter must stay total).
pub fn match_brace(tokens: &[Token], open: usize) -> usize {
    let mut depth = 0usize;
    for (i, t) in tokens.iter().enumerate().skip(open) {
        if t.is_punct('{') {
            depth += 1;
        } else if t.is_punct('}') {
            depth -= 1;
            if depth == 0 {
                return i;
            }
        }
    }
    tokens.len()
}

/// Builds the model for one file.
pub fn build(path_for_display: &str, fs_path: &Path, src: &str) -> FileModel {
    let Lexed { tokens, comments } = lex(src);
    let role = if fs_path.components().any(|c| {
        matches!(
            c.as_os_str().to_str(),
            Some("tests" | "benches" | "examples")
        )
    }) {
        FileRole::TestTarget
    } else if fs_path
        .components()
        .any(|c| c.as_os_str().to_str() == Some("bin"))
        || fs_path.file_name().and_then(|n| n.to_str()) == Some("main.rs")
    {
        FileRole::Binary
    } else {
        FileRole::Lib
    };

    let (allows, bad_allows) = parse_annotations(&comments, &tokens);
    let test_regions = find_test_regions(&tokens);
    let impls = find_impls(&tokens);
    let fns = find_fns(&tokens, &test_regions, &impls);
    let structs = find_structs(&tokens);
    let (unstable_module, stable_items, pub_items) = stability_markers(&comments, &tokens);

    FileModel {
        path: path_for_display.to_string(),
        role,
        lines: src.lines().map(str::to_string).collect(),
        tokens,
        comments,
        allows,
        bad_allows,
        test_regions,
        fns,
        structs,
        unstable_module,
        stable_items,
        pub_items,
    }
}

/// One `impl` block: its body token range (exclusive of braces), the
/// base name of the implementing type, and the trait when present.
struct ImplSpan {
    body: std::ops::Range<usize>,
    owner: String,
    trait_name: Option<String>,
}

/// Scans for `impl` blocks, including `impl Trait for Type` — the
/// method-ownership facts the call graph resolves `Self::` and
/// receiver-typed calls against.
fn find_impls(tokens: &[Token]) -> Vec<ImplSpan> {
    let mut out = Vec::new();
    let mut i = 0usize;
    while i < tokens.len() {
        if !tokens[i].is_ident("impl") || tokens[i].raw {
            i += 1;
            continue;
        }
        // Walk the header up to its `{`, tracking angle/paren depth so
        // generic params and `Fn(..) -> T` bounds never contribute
        // path segments. Depth-0 idents before a depth-0 `for` name the
        // trait path; after it (or when no `for` appears) the type.
        let mut j = i + 1;
        let mut angle = 0i32;
        let mut paren = 0i32;
        let mut before_for: Option<String> = None;
        let mut after_for: Option<String> = None;
        let mut saw_for = false;
        let mut in_where = false;
        let mut open = None;
        while j < tokens.len() {
            let t = &tokens[j];
            if t.is_punct('<') {
                angle += 1;
            } else if t.is_punct('>') {
                // `->` in an `Fn() -> T` bound is two puncts; the `>`
                // there must not close an angle level.
                if !(j >= 1 && tokens[j - 1].is_punct('-')) {
                    angle -= 1;
                }
            } else if t.is_punct('(') {
                paren += 1;
            } else if t.is_punct(')') {
                paren -= 1;
            } else if t.is_punct('{') && angle <= 0 && paren <= 0 {
                open = Some(j);
                break;
            } else if t.is_punct(';') && angle <= 0 && paren <= 0 {
                break; // `impl Trait for Type;` never happens, but stay total
            } else if angle <= 0 && paren <= 0 && t.kind == TokKind::Ident {
                if t.text == "for" && !t.raw {
                    saw_for = true;
                } else if t.text == "where" && !t.raw {
                    in_where = true;
                } else if !in_where {
                    if saw_for {
                        after_for = Some(t.text.clone());
                    } else {
                        before_for = Some(t.text.clone());
                    }
                }
            }
            j += 1;
        }
        let Some(open) = open else {
            i = j;
            continue;
        };
        let close = match_brace(tokens, open);
        let (owner, trait_name) = if saw_for {
            (after_for, before_for)
        } else {
            (before_for, None)
        };
        if let Some(owner) = owner {
            out.push(ImplSpan {
                body: open + 1..close,
                owner,
                trait_name,
            });
        }
        // Nested impls don't exist, but impls inside `mod` bodies do;
        // continue the scan *inside* the block so those are found too.
        i = open + 1;
    }
    out
}

/// Field → base-type map for every `struct` declaration. Tuple structs
/// record positional fields `"0"`, `"1"`, …
fn find_structs(tokens: &[Token]) -> BTreeMap<String, BTreeMap<String, String>> {
    let mut out = BTreeMap::new();
    let mut i = 0usize;
    while i < tokens.len() {
        if !tokens[i].is_ident("struct") {
            i += 1;
            continue;
        }
        let Some(name_tok) = tokens.get(i + 1) else {
            break;
        };
        if name_tok.kind != TokKind::Ident {
            i += 1;
            continue;
        }
        let name = name_tok.text.clone();
        // Skip generics to the body introducer.
        let mut j = i + 2;
        let mut angle = 0i32;
        while j < tokens.len() {
            let t = &tokens[j];
            if t.is_punct('<') {
                angle += 1;
            } else if t.is_punct('>') {
                if !(j >= 1 && tokens[j - 1].is_punct('-')) {
                    angle -= 1;
                }
            } else if angle <= 0 && (t.is_punct('{') || t.is_punct('(') || t.is_punct(';')) {
                break;
            } else if angle <= 0 && t.kind == TokKind::Ident && t.text == "where" {
                // `struct S<T> where T: X { … }` — scan on to the brace.
            }
            j += 1;
        }
        let mut fields = BTreeMap::new();
        match tokens.get(j) {
            Some(t) if t.is_punct('{') => {
                let close = match_brace(tokens, j);
                let mut k = j + 1;
                let mut depth = 0i32;
                while k < close {
                    let t = &tokens[k];
                    if t.is_punct('{') || t.is_punct('(') || t.is_punct('[') || t.is_punct('<') {
                        depth += 1;
                    } else if t.is_punct('}')
                        || t.is_punct(')')
                        || t.is_punct(']')
                        || (t.is_punct('>') && !(k >= 1 && tokens[k - 1].is_punct('-')))
                    {
                        depth -= 1;
                    } else if depth == 0
                        && t.kind == TokKind::Ident
                        && t.text != "pub"
                        && tokens.get(k + 1).is_some_and(|n| n.is_punct(':'))
                        && !tokens.get(k + 2).is_some_and(|n| n.is_punct(':'))
                    {
                        if let Some(ty) = type_base(&tokens[k + 2..close]) {
                            fields.insert(t.text.clone(), ty);
                        }
                    }
                    k += 1;
                }
                i = close;
            }
            Some(t) if t.is_punct('(') => {
                // Tuple struct: positional fields split on depth-0 commas.
                let mut k = j + 1;
                let mut depth = 0i32;
                let mut idx = 0usize;
                let mut start = k;
                while k < tokens.len() {
                    let t = &tokens[k];
                    if t.is_punct('(') || t.is_punct('[') || t.is_punct('<') {
                        depth += 1;
                    } else if t.is_punct(']') || t.is_punct('>') {
                        depth -= 1;
                    } else if t.is_punct(')') {
                        if depth == 0 {
                            if let Some(ty) = type_base(&tokens[start..k]) {
                                fields.insert(idx.to_string(), ty);
                            }
                            break;
                        }
                        depth -= 1;
                    } else if t.is_punct(',') && depth == 0 {
                        if let Some(ty) = type_base(&tokens[start..k]) {
                            fields.insert(idx.to_string(), ty);
                        }
                        idx += 1;
                        start = k + 1;
                    }
                    k += 1;
                }
                i = k;
            }
            _ => {}
        }
        out.entry(name).or_insert(fields);
        i += 1;
    }
    out
}

/// The base type ident of a type expression: the last path segment of
/// the leading type path (`&'a mut Vec<i64>` → `Vec`,
/// `netpkt::Timestamp` → `Timestamp`, `Option<Timestamp>` → `Option`).
/// Tuple/array/fn-pointer types yield `None`.
pub fn type_base(tokens: &[Token]) -> Option<String> {
    for (i, t) in tokens.iter().enumerate() {
        match t.kind {
            TokKind::Ident if matches!(t.text.as_str(), "mut" | "dyn" | "impl" | "pub") => continue,
            TokKind::Ident => {
                // Walk through `::`-joined segments to the last one.
                let next_is_path = tokens.get(i + 1).is_some_and(|n| n.is_punct(':'))
                    && tokens.get(i + 2).is_some_and(|n| n.is_punct(':'));
                if next_is_path {
                    continue;
                }
                return Some(t.text.clone());
            }
            TokKind::Lifetime => continue,
            TokKind::Punct if matches!(t.text.as_str(), "&" | ":") => continue,
            _ => return None,
        }
    }
    None
}

/// Extracts `// lint:` annotations. Returns (allow map, malformed
/// annotation lines).
fn parse_annotations(
    comments: &[Comment],
    tokens: &[Token],
) -> (BTreeMap<u32, BTreeSet<String>>, Vec<u32>) {
    let mut allows: BTreeMap<u32, BTreeSet<String>> = BTreeMap::new();
    let mut bad = Vec::new();
    for c in comments {
        if c.doc != DocKind::Plain {
            continue;
        }
        let body = c.text.trim();
        let Some(rest) = body.strip_prefix("lint:") else {
            continue;
        };
        let rest = rest.trim();
        if let Some(spec) = rest.strip_prefix("allow(") {
            let Some(close) = spec.find(')') else {
                bad.push(c.line);
                continue;
            };
            let rules: Vec<String> = spec[..close]
                .split(',')
                .map(|r| r.trim().to_string())
                .filter(|r| !r.is_empty())
                .collect();
            let tail = spec[close + 1..].trim();
            let justified = tail
                .strip_prefix("--")
                .is_some_and(|r| !r.trim().is_empty());
            let known = rules
                .iter()
                .all(|r| crate::rules::ALL_RULES.contains(&r.as_str()));
            if rules.is_empty() || !known || !justified {
                bad.push(c.line);
                continue;
            }
            // Standalone: applies to the next code line; trailing: its
            // own line.
            let target = if c.standalone {
                tokens
                    .iter()
                    .map(|t| t.line)
                    .find(|&l| l > c.line)
                    .unwrap_or(c.line)
            } else {
                c.line
            };
            allows.entry(target).or_default().extend(rules);
        } else {
            // Unknown `lint:` directive — surface it rather than
            // silently ignoring a typo like `lint: alow(…)`.
            bad.push(c.line);
        }
    }
    (allows, bad)
}

/// Token ranges covered by `#[cfg(test)]` items and `#[test]` fns.
fn find_test_regions(tokens: &[Token]) -> Vec<std::ops::Range<usize>> {
    let mut regions = Vec::new();
    // A file opening with the inner attribute `#![cfg(test)]` is the
    // out-of-line body of a test module: all of it is test code.
    if let [hash, bang, open, ..] = tokens {
        if hash.is_punct('#') && bang.is_punct('!') && open.is_punct('[') {
            let close = match_bracket(tokens, 2);
            if attr_is_test(&tokens[3..close.min(tokens.len())]) {
                regions.push(0..tokens.len());
                return regions;
            }
        }
    }
    let mut i = 0usize;
    while i < tokens.len() {
        if tokens[i].is_punct('#') && tokens.get(i + 1).is_some_and(|t| t.is_punct('[')) {
            let close = match_bracket(tokens, i + 1);
            if attr_is_test(&tokens[i + 2..close.min(tokens.len())]) {
                // Find the item body this attribute governs: the first
                // `{` before a `;` at top level (skipping further
                // attributes).
                let mut j = close + 1;
                let mut depth_paren = 0i32;
                while j < tokens.len() {
                    let t = &tokens[j];
                    if t.is_punct('(') || t.is_punct('[') || t.is_punct('<') {
                        depth_paren += 1;
                    } else if t.is_punct(')') || t.is_punct(']') || t.is_punct('>') {
                        depth_paren -= 1;
                    } else if t.is_punct('{') && depth_paren <= 0 {
                        let end = match_brace(tokens, j);
                        regions.push(j + 1..end);
                        i = end;
                        break;
                    } else if t.is_punct(';') && depth_paren <= 0 {
                        break; // e.g. `#[cfg(test)] use …;`
                    }
                    j += 1;
                }
            }
        }
        i += 1;
    }
    regions
}

/// `#[test]`, `#[cfg(test)]`, `#[cfg(any(test, …))]` — but not
/// `#[cfg_attr(test, …)]` (which gates an attribute, not the item).
fn attr_is_test(attr: &[Token]) -> bool {
    match attr.first() {
        Some(t) if t.is_ident("test") => true,
        Some(t) if t.is_ident("cfg") => attr.iter().any(|t| t.is_ident("test")),
        _ => false,
    }
}

/// Matching `]` for the `[` at `open`.
fn match_bracket(tokens: &[Token], open: usize) -> usize {
    let mut depth = 0usize;
    for (i, t) in tokens.iter().enumerate().skip(open) {
        if t.is_punct('[') {
            depth += 1;
        } else if t.is_punct(']') {
            depth -= 1;
            if depth == 0 {
                return i;
            }
        }
    }
    tokens.len()
}

/// Scans for `fn` items and resolves their bodies and impl ownership.
fn find_fns(
    tokens: &[Token],
    test_regions: &[std::ops::Range<usize>],
    impls: &[ImplSpan],
) -> Vec<FnSpan> {
    let mut out = Vec::new();
    let mut i = 0usize;
    while i < tokens.len() {
        if tokens[i].is_ident("fn") && !tokens[i].raw {
            let name = match tokens.get(i + 1) {
                Some(t) if t.kind == TokKind::Ident => t.text.clone(),
                _ => {
                    i += 1;
                    continue; // `fn(` type position
                }
            };
            let fn_line = tokens[i].line;
            // Body: first `{` before a `;` at bracket level 0.
            let mut j = i + 2;
            let mut body = None;
            let mut angle = 0i32;
            while j < tokens.len() {
                let t = &tokens[j];
                if t.is_punct('<') {
                    angle += 1;
                } else if t.is_punct('>') {
                    angle -= 1;
                } else if t.is_punct('(') || t.is_punct('[') {
                    let mut d = 0usize;
                    while j < tokens.len() {
                        if tokens[j].is_punct('(') || tokens[j].is_punct('[') {
                            d += 1;
                        } else if tokens[j].is_punct(')') || tokens[j].is_punct(']') {
                            d -= 1;
                            if d == 0 {
                                break;
                            }
                        }
                        j += 1;
                    }
                } else if t.is_punct('{') && angle <= 0 {
                    let end = match_brace(tokens, j);
                    body = Some(j + 1..end);
                    break;
                } else if t.is_punct(';') && angle <= 0 {
                    break; // trait method declaration
                }
                j += 1;
            }
            if let Some(body) = body {
                let test = test_regions.iter().any(|r| r.contains(&i));
                // Innermost enclosing impl (smallest containing body)
                // owns the method.
                let enclosing = impls
                    .iter()
                    .filter(|im| im.body.contains(&i))
                    .min_by_key(|im| im.body.end - im.body.start);
                out.push(FnSpan {
                    name,
                    line: fn_line,
                    tok: i,
                    sig: i + 2..body.start.saturating_sub(1),
                    body,
                    owner: enclosing.map(|im| im.owner.clone()),
                    trait_name: enclosing.and_then(|im| im.trait_name.clone()),
                    test,
                });
            }
        }
        i += 1;
    }
    out
}

/// Line of the last "real" code token before token `i`, skipping the
/// attribute soup directly above an item so a doc marker can sit above
/// `#[inline]`. Conservative: walks back over `# [ … ]` groups only.
fn prev_item_boundary(tokens: &[Token], i: usize) -> u32 {
    let mut j = i;
    loop {
        // Walk back over one attribute group if present.
        if j >= 1 && tokens[j - 1].is_punct(']') {
            let mut depth = 0usize;
            let mut k = j - 1;
            loop {
                if tokens[k].is_punct(']') {
                    depth += 1;
                } else if tokens[k].is_punct('[') {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                if k == 0 {
                    break;
                }
                k -= 1;
            }
            if k >= 1 && tokens[k - 1].is_punct('#') {
                j = k - 1;
                continue;
            }
        }
        // Walk back over a `(…)` group (`pub(crate)` visibility).
        if j >= 1 && tokens[j - 1].is_punct(')') {
            let mut depth = 0usize;
            let mut k = j - 1;
            loop {
                if tokens[k].is_punct(')') {
                    depth += 1;
                } else if tokens[k].is_punct('(') {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                if k == 0 {
                    break;
                }
                k -= 1;
            }
            // Only when it really is a visibility group, i.e. `pub`
            // precedes it — a closing paren of ordinary code must stay
            // a boundary.
            if k >= 1 && tokens[k - 1].is_ident("pub") {
                j = k;
                continue;
            }
        }
        // Walk back over visibility/qualifiers to the item start.
        if j >= 1
            && tokens[j - 1].kind == TokKind::Ident
            && matches!(
                tokens[j - 1].text.as_str(),
                "pub" | "const" | "unsafe" | "async" | "extern" | "crate" | "super" | "in"
            )
        {
            j -= 1;
            continue;
        }
        break;
    }
    if j == 0 {
        0
    } else {
        tokens[j - 1].line
    }
}

/// Module-level stability markers: is the module documented-unstable,
/// which pub items are marked `Stability: stable`, and all pub item
/// names.
fn stability_markers(
    comments: &[Comment],
    tokens: &[Token],
) -> (bool, BTreeSet<String>, BTreeSet<String>) {
    let unstable = comments
        .iter()
        .filter(|c| c.doc == DocKind::Inner)
        .any(|c| c.text.contains("Stability: unstable"));
    let mut stable = BTreeSet::new();
    let mut pubs = BTreeSet::new();
    // Top-level `pub` items: depth 0 `pub` followed by an item keyword.
    let mut depth = 0usize;
    let mut i = 0usize;
    while i < tokens.len() {
        let t = &tokens[i];
        if t.is_punct('{') {
            depth += 1;
        } else if t.is_punct('}') {
            depth = depth.saturating_sub(1);
        } else if depth == 0 && t.is_ident("pub") {
            // Skip `pub(crate)` etc.
            let mut j = i + 1;
            if tokens.get(j).is_some_and(|t| t.is_punct('(')) {
                let mut d = 0usize;
                while j < tokens.len() {
                    if tokens[j].is_punct('(') {
                        d += 1;
                    } else if tokens[j].is_punct(')') {
                        d -= 1;
                        if d == 0 {
                            break;
                        }
                    }
                    j += 1;
                }
                j += 1;
            }
            let kw = tokens.get(j).map(|t| t.text.as_str()).unwrap_or("");
            let name_at = match kw {
                "struct" | "enum" | "trait" | "mod" | "type" | "union" => j + 1,
                "fn" => j + 1,
                "const" | "static" => j + 1,
                "unsafe" | "async" => j + 2, // `pub unsafe fn x`
                _ => {
                    i += 1;
                    continue;
                }
            };
            if let Some(name_tok) = tokens.get(name_at) {
                if name_tok.kind == TokKind::Ident {
                    let name = name_tok.text.clone();
                    // Outer doc directly above (any line between the
                    // previous code line and this item) marking
                    // stability.
                    let item_line = t.line;
                    // The marker must live in THIS item's doc block:
                    // above the item (and its attributes), but below
                    // the last code token of the previous item.
                    let floor = prev_item_boundary(tokens, i);
                    let is_stable = comments.iter().any(|c| {
                        c.doc == DocKind::Outer
                            && c.line < item_line
                            && c.line > floor
                            && item_line - c.line <= 40
                            && c.text.contains("Stability: stable")
                    });
                    if is_stable {
                        stable.insert(name.clone());
                    }
                    pubs.insert(name);
                }
            }
        }
        i += 1;
    }
    (unstable, stable, pubs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::Path;

    fn model(src: &str) -> FileModel {
        build("test.rs", Path::new("crates/x/src/test.rs"), src)
    }

    #[test]
    fn hot_path_is_an_unknown_directive() {
        // Spelled in two pieces so a grep for leftover directives in the
        // tree stays empty.
        let m = model(concat!("// lint: ", "hot_path\nfn fast() {}\n"));
        assert_eq!(m.bad_allows, vec![1]);
        assert!(m.allows.is_empty());
    }

    #[test]
    fn allow_grammar_requires_reason() {
        let m = model(
            "fn a() { x.unwrap(); } // lint: allow(no-unwrap-in-lib) -- invariant: always set\n\
             // lint: allow(no-unwrap-in-lib)\nfn b() {}\n",
        );
        assert!(m.allowed("no-unwrap-in-lib", 1));
        assert_eq!(m.bad_allows, vec![2]);
    }

    #[test]
    fn standalone_allow_applies_to_next_code_line() {
        let m = model(
            "fn a() {\n    // lint: allow(no-unwrap-in-lib) -- set two lines up\n    v.unwrap();\n}\n",
        );
        assert!(m.allowed("no-unwrap-in-lib", 3));
        assert!(!m.allowed("no-unwrap-in-lib", 2));
    }

    #[test]
    fn inner_cfg_test_covers_the_whole_file() {
        let m = model("#![cfg(test)]\nfn helper() { x.unwrap(); }\n");
        assert!(m.in_test(m.tokens.len() - 1));
        let m = model("#![allow(dead_code)]\nfn lib() {}\n");
        assert!(!m.in_test(m.tokens.len() - 1));
    }

    #[test]
    fn cfg_test_regions_cover_mod_body() {
        let m = model("fn lib() {}\n#[cfg(test)]\nmod tests {\n    fn t() { x.unwrap(); }\n}\n");
        assert_eq!(m.test_regions.len(), 1);
        assert!(m.fns.iter().any(|f| f.name == "t" && f.test));
        assert!(m.fns.iter().any(|f| f.name == "lib" && !f.test));
    }

    #[test]
    fn cfg_attr_test_is_not_a_test_region() {
        let m = model("#[cfg_attr(test, allow(dead_code))]\nfn lib() {}\n");
        assert!(m.test_regions.is_empty());
    }

    #[test]
    fn stability_markers_collected() {
        let m = model(
            "//! Machine room.\n//! **Stability: unstable internals.**\n\
             /// Widget.\n///\n/// Stability: stable re-export.\npub struct Config;\n\
             /// Private-ish.\npub struct Table;\n",
        );
        assert!(m.unstable_module);
        assert!(m.stable_items.contains("Config"));
        assert!(!m.stable_items.contains("Table"));
        assert!(m.pub_items.contains("Table"));
    }

    #[test]
    fn roles_from_paths() {
        let role = |p: &str| build("x.rs", Path::new(p), "").role;
        assert_eq!(role("crates/core/src/api.rs"), FileRole::Lib);
        assert_eq!(role("src/bin/monitor.rs"), FileRole::Binary);
        assert_eq!(role("crates/lint/src/main.rs"), FileRole::Binary);
        assert_eq!(role("crates/core/tests/hot.rs"), FileRole::TestTarget);
        assert_eq!(role("crates/bench/benches/pipe.rs"), FileRole::TestTarget);
    }

    #[test]
    fn raw_ident_fns_found_and_raw_fn_keyword_is_not() {
        // `fn r#loop()` declares a function whose bare name is `loop`;
        // the raw ident `r#fn` is a *name*, never the `fn` keyword, so
        // a macro body like `m! { r#fn ghost { } }` must not fabricate
        // a phantom function `ghost`.
        let m = model("fn r#loop() {}\nm! { r#fn ghost { } }\n");
        let names: Vec<&str> = m.fns.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, vec!["loop"]);
    }

    #[test]
    fn fns_inside_macro_invocations_are_modeled() {
        // Token-visible fns inside a macro *invocation* body are real
        // code the macro pastes through — the linter must see them. The
        // `$name`-templated fn inside the macro_rules *definition* has
        // no ident after `fn`, so it can never produce a phantom span.
        let m = model(
            "macro_rules! gen {\n    ($name:ident) => { fn $name() {} };\n}\n\
             wrap_in_mod! {\n    fn generated(v: &mut Vec<u32>) { v.push(1); }\n}\n",
        );
        let names: Vec<&str> = m.fns.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, vec!["generated"]);
        let f = &m.fns[0];
        assert!(m.tokens[f.body.clone()].iter().any(|t| t.is_ident("push")));
    }

    #[test]
    fn impl_trait_for_type_methods_are_owned_by_the_type() {
        let m = model(
            "impl Estimator for FlowTable {\n    fn update(&mut self) {}\n}\n\
             impl FlowTable {\n    fn new() -> Self { FlowTable }\n}\n\
             fn free() {}\n",
        );
        let by_name = |n: &str| m.fns.iter().find(|f| f.name == n).expect("fn found");
        let update = by_name("update");
        assert_eq!(update.owner.as_deref(), Some("FlowTable"));
        assert_eq!(update.trait_name.as_deref(), Some("Estimator"));
        let new = by_name("new");
        assert_eq!(new.owner.as_deref(), Some("FlowTable"));
        assert_eq!(new.trait_name, None);
        let free = by_name("free");
        assert_eq!(free.owner, None);
        assert_eq!(free.trait_name, None);
    }

    #[test]
    fn fn_body_spans_are_exclusive() {
        let m = model("fn f() { inner(); }");
        let f = &m.fns[0];
        assert!(m.tokens[f.body.clone()].iter().any(|t| t.is_ident("inner")));
        assert!(!m.tokens[f.body.clone()].iter().any(|t| t.is_punct('}')));
    }
}
