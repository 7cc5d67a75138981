//! The rule engine: six repo-grounded rules over [`FileModel`]s, plus
//! the `annotation-grammar` meta-rule. Each rule is a pure function
//! from model(s) to [`Finding`]s; suppression via
//! `// lint: allow(<rule>) -- <reason>` is resolved here.

use crate::lexer::{TokKind, Token};
use crate::model::{match_brace, FileModel, FileRole};
use crate::report::{Finding, Severity};

/// Names of all rules, in report order. The two graph rules live in
/// [`crate::analyses`]; the rest are per-file.
pub const ALL_RULES: &[&str] = &[
    "lock-discipline",
    "lock-discipline-transitive",
    "lock-order-cycle",
    "no-unwrap-in-lib",
    "exhaustive-events",
    "stability-surface",
    "annotation-grammar",
];

/// Runs every (selected) rule over the file set.
pub fn run_all(files: &[FileModel], selected: &[String]) -> Vec<Finding> {
    let on = |name: &str| selected.is_empty() || selected.iter().any(|s| s == name);
    let mut findings = Vec::new();
    for f in files {
        if on("lock-discipline") {
            lock_discipline(f, &mut findings);
        }
        if on("no-unwrap-in-lib") {
            no_unwrap_in_lib(f, &mut findings);
        }
        if on("exhaustive-events") {
            exhaustive_events(f, &mut findings);
        }
        if on("annotation-grammar") {
            annotation_grammar(f, &mut findings);
        }
    }
    if on("stability-surface") {
        stability_surface(files, &mut findings);
    }
    if on("lock-discipline-transitive") || on("lock-order-cycle") {
        let graph = crate::graph::Graph::build(files);
        crate::analyses::run(files, &graph, selected, &mut findings);
    }
    findings
        .sort_by(|a, b| (a.file.as_str(), a.line, a.rule).cmp(&(b.file.as_str(), b.line, b.rule)));
    findings
}

fn emit(out: &mut Vec<Finding>, f: &FileModel, rule: &'static str, line: u32, message: String) {
    if f.allowed(rule, line) {
        return;
    }
    out.push(Finding {
        rule,
        severity: severity(rule),
        file: f.path.clone(),
        line,
        message,
        snippet: f.snippet(line),
        chain: vec![],
    });
}

/// Rule severity; shared with [`crate::analyses`]. Both graph rules are
/// errors — a deadlock shape through a call is as real as a local one.
pub(crate) fn severity(rule: &str) -> Severity {
    match rule {
        "no-unwrap-in-lib" => Severity::Warning,
        _ => Severity::Error,
    }
}

// ---------------------------------------------------------------------------
// lock-discipline
// ---------------------------------------------------------------------------

/// Channel/condvar operations that can block (or wake a blocked peer
/// that needs the same lock).
const WAIT_POINTS: &[&str] = &[
    "send",
    "recv",
    "recv_timeout",
    "wait",
    "wait_timeout",
    "wait_while",
];

/// `lock-discipline`: a `Mutex` guard bound by `let … .lock() …` must
/// not be live across a channel send/recv or condvar wait in the same
/// block — the self-deadlock shape PRs 3 and 6 fixed by hand
/// (a parked worker holding the lock its waker needs).
/// Is `toks[i]` a blocking call token: `.send(`, `.recv(`, `.wait(`…?
pub(crate) fn is_wait_point(toks: &[Token], i: usize) -> bool {
    toks[i].kind == TokKind::Ident
        && WAIT_POINTS.contains(&toks[i].text.as_str())
        && i >= 1
        && toks[i - 1].is_punct('.')
        && toks.get(i + 1).is_some_and(|t| t.is_punct('('))
}

/// For a condvar `wait*` call at `toks[i]`, the guard it consumes (and
/// atomically releases): the first ident in its argument list.
fn handoff_guard(toks: &[Token], i: usize) -> Option<String> {
    if !toks[i].text.starts_with("wait") {
        return None;
    }
    toks[i + 2..(i + 6).min(toks.len())]
        .iter()
        .find(|t| t.kind == TokKind::Ident)
        .map(|t| t.text.clone())
}

/// One live mutex guard tracked by [`walk_guards`].
pub(crate) struct Guard {
    /// Binding name (`None` for `let _ = …` / pattern-eaten names).
    pub name: Option<String>,
    /// Normalized lock identity: `Owner::field` for `self.field.lock()`
    /// in an impl, otherwise the textual receiver path (`m`,
    /// `shared.inner`). Purely textual — aliasing is out of scope.
    pub lock: String,
    /// Brace depth the binding lives at (scope eviction).
    depth: i32,
    /// Line of the acquiring `let`.
    pub line: u32,
}

/// Guard-state events, streamed in source order with the held-guard
/// set at that point. Token indices are absolute (into
/// `FileModel::tokens`).
pub(crate) enum GuardEvent<'a> {
    /// Blocking channel/condvar call.
    Wait { tok: usize },
    /// A new guard is being bound; `held` (the callback's first
    /// argument) is the state *before* this acquisition. The site line
    /// is `guard.line` (the acquiring `let`).
    Acquire { guard: &'a Guard },
    /// Any `ident(` call head — the join point for call-graph edges.
    /// Only streamed while at least one guard is held.
    Call { tok: usize },
}

/// Walks `fun`'s body tracking live mutex guards (scope eviction at
/// `}`, explicit `drop(g)`, binding via `let … .lock() …`), streaming
/// [`GuardEvent`]s. Shared by the intra-procedural `lock-discipline`
/// rule and the interprocedural analyses. Nested fn items are skipped:
/// their guard state is their own.
pub(crate) fn walk_guards(
    f: &FileModel,
    fun: &crate::model::FnSpan,
    on: &mut dyn FnMut(&[Guard], GuardEvent),
) {
    let toks = &f.tokens;
    let nested = crate::graph::nested_fn_ranges(f, fun);
    let mut guards: Vec<Guard> = Vec::new();
    let mut depth = 0i32;
    let mut i = fun.body.start;
    while i < fun.body.end {
        if let Some(r) = nested.iter().find(|r| r.contains(&i)) {
            i = r.end;
            continue;
        }
        let t = &toks[i];
        if t.is_punct('{') {
            depth += 1;
        } else if t.is_punct('}') {
            depth -= 1;
            guards.retain(|g| g.depth <= depth);
        } else if t.is_ident("drop") && toks.get(i + 1).is_some_and(|t| t.is_punct('(')) {
            if let Some(name_tok) = toks.get(i + 2) {
                if name_tok.kind == TokKind::Ident {
                    let name = name_tok.text.clone();
                    guards.retain(|g| g.name.as_deref() != Some(name.as_str()));
                }
            }
        } else if t.is_ident("let") {
            // Scan the statement: `let [mut] NAME … = … ;` or the
            // `if let`/`while let` form ending at `{`.
            let mut name = None;
            let mut lock_at = None;
            let mut j = i + 1;
            let mut paren = 0i32;
            while j < fun.body.end {
                let u = &toks[j];
                if u.is_punct('(') || u.is_punct('[') {
                    paren += 1;
                } else if u.is_punct(')') || u.is_punct(']') {
                    paren -= 1;
                } else if u.is_punct(';') && paren <= 0 {
                    break;
                } else if u.is_punct('{') && paren <= 0 {
                    break; // `if let … = … {` / `let … = loop {`
                } else if u.is_punct('=') && paren <= 0 {
                    // Pattern ends at `=`; stop taking binding names
                    // from the initializer expression.
                    name = name.or(Some(String::new()));
                } else if u.kind == TokKind::Ident
                    && name.is_none()
                    && u.text != "mut"
                    // Skip constructor names: in `Ok(g)` / `Some(g)`
                    // the binding is inside the parens.
                    && !matches!(
                        toks.get(j + 1),
                        Some(n) if n.is_punct('(') || n.is_punct(':')
                    )
                {
                    name = Some(u.text.clone());
                } else if u.is_ident("lock")
                    && j >= 1
                    && toks[j - 1].is_punct('.')
                    && toks.get(j + 1).is_some_and(|t| t.is_punct('('))
                {
                    if lock_at.is_none() {
                        lock_at = Some(j);
                    }
                } else if is_wait_point(toks, j) && !guards.is_empty() {
                    // `let v = rx.recv();` — a blocking call inside
                    // the initializer blocks just the same.
                    on(&guards, GuardEvent::Wait { tok: j });
                }
                if crate::graph::is_call_head(toks, j) && !guards.is_empty() {
                    on(&guards, GuardEvent::Call { tok: j });
                }
                j += 1;
            }
            if let Some(la) = lock_at {
                let guard = Guard {
                    name: name.filter(|n: &String| !n.is_empty()),
                    lock: lock_path(toks, la, fun),
                    // The guard's scope: the current block (or the one
                    // the `if let` is about to open; binding to the
                    // current depth is conservative for both).
                    depth,
                    line: t.line,
                };
                on(&guards, GuardEvent::Acquire { guard: &guard });
                guards.push(guard);
            }
            i = j;
            continue;
        } else if is_wait_point(toks, i) && !guards.is_empty() {
            on(&guards, GuardEvent::Wait { tok: i });
        }
        if crate::graph::is_call_head(toks, i) && !guards.is_empty() {
            on(&guards, GuardEvent::Call { tok: i });
        }
        i += 1;
    }
}

/// Normalized lock identity for the `.lock()` call at `toks[la]`:
/// the textual receiver path, with `self.` rewritten to the impl
/// owner (`self.queue` in `impl Collector` → `Collector::queue`) so
/// field locks unify across methods of the same type.
fn lock_path(toks: &[Token], la: usize, fun: &crate::model::FnSpan) -> String {
    let mut parts: Vec<&str> = Vec::new();
    let mut p = match la.checked_sub(2) {
        Some(p) => p,
        None => return "<expr>".to_string(),
    };
    loop {
        let t = &toks[p];
        if t.kind != TokKind::Ident {
            // `x.borrow().lock()` and friends: opaque expression.
            return "<expr>".to_string();
        }
        parts.push(t.text.as_str());
        if p >= 2 && toks[p - 1].is_punct('.') && toks[p - 2].kind == TokKind::Ident {
            p -= 2;
            continue;
        }
        break;
    }
    parts.reverse();
    if parts[0] == "self" && parts.len() > 1 {
        if let Some(o) = &fun.owner {
            return format!("{}::{}", o, parts[1..].join("."));
        }
    }
    parts.join(".")
}

/// Emits a `lock-discipline` finding for the wait point at `toks[i]`
/// unless the only live guard is the one a condvar wait hands off.
fn check_wait(f: &FileModel, out: &mut Vec<Finding>, i: usize, guards: &[Guard], fun_name: &str) {
    let toks = &f.tokens;
    // `cvar.wait(guard)` is the legitimate condvar handoff: the wait
    // atomically releases the guard it is given. Only *other* guards
    // held across it deadlock.
    let handoff = handoff_guard(toks, i);
    let held: Vec<String> = guards
        .iter()
        .filter(|g| handoff.is_none() || g.name.as_deref() != handoff.as_deref())
        .map(|g| g.name.clone().unwrap_or_else(|| "_".into()))
        .collect();
    if !held.is_empty() {
        emit(
            out,
            f,
            "lock-discipline",
            toks[i].line,
            format!(
                "`.{}()` while mutex guard `{}` is live in `{}` — \
                 drop the guard before blocking",
                toks[i].text,
                held.join("`, `"),
                fun_name
            ),
        );
    }
}

fn lock_discipline(f: &FileModel, out: &mut Vec<Finding>) {
    for fun in &f.fns {
        walk_guards(f, fun, &mut |held, ev| {
            if let GuardEvent::Wait { tok } = ev {
                check_wait(f, out, tok, held, &fun.name);
            }
        });
    }
}

// ---------------------------------------------------------------------------
// no-unwrap-in-lib
// ---------------------------------------------------------------------------

/// `no-unwrap-in-lib`: `unwrap()` / `expect()` / `panic!` are
/// forbidden in non-test library code. Proper error propagation where
/// feasible; an invariant that genuinely cannot fail carries a
/// justified inline allow.
fn no_unwrap_in_lib(f: &FileModel, out: &mut Vec<Finding>) {
    if f.role != FileRole::Lib {
        return;
    }
    for (i, t) in f.tokens.iter().enumerate() {
        if f.in_test(i) {
            continue;
        }
        let hit = if (t.is_ident("unwrap") || t.is_ident("expect"))
            && i >= 1
            && f.tokens[i - 1].is_punct('.')
            && f.tokens.get(i + 1).is_some_and(|t| t.is_punct('('))
        {
            Some(format!(".{}() in library code", t.text))
        } else if t.is_ident("panic") && f.tokens.get(i + 1).is_some_and(|t| t.is_punct('!')) {
            Some("panic! in library code".to_string())
        } else {
            None
        };
        if let Some(msg) = hit {
            emit(
                out,
                f,
                "no-unwrap-in-lib",
                t.line,
                format!("{msg} — propagate the error or justify with an inline allow"),
            );
        }
    }
}

// ---------------------------------------------------------------------------
// exhaustive-events
// ---------------------------------------------------------------------------

/// Event-shaped enums every consumer must match exhaustively: adding a
/// variant (a new event kind, eviction cause, or source packet form)
/// must be a compile-time event at each consumer, never a silently
/// swallowed wildcard.
const EVENT_ENUMS: &[&str] = &[
    "QoeEvent",
    "EvictReason",
    "SourcePacket",
    "Verdict",
    "Perturbation",
];

/// `exhaustive-events`: a `match` whose arms name an event enum
/// variant must not also contain a wildcard `_` arm.
fn exhaustive_events(f: &FileModel, out: &mut Vec<Finding>) {
    let toks = &f.tokens;
    for (i, t) in toks.iter().enumerate() {
        if !t.is_ident("match") {
            continue;
        }
        // Test-only projections (filter_map/find_map extracting one
        // variant) may use wildcards: the invariant protects live
        // event handling, not assertions.
        if f.in_test(i) {
            continue;
        }
        // Find the match body: the first `{` at bracket level 0 after
        // the scrutinee.
        let mut j = i + 1;
        let mut level = 0i32;
        let mut open = None;
        while j < toks.len() {
            let u = &toks[j];
            if u.is_punct('(') || u.is_punct('[') {
                level += 1;
            } else if u.is_punct(')') || u.is_punct(']') {
                level -= 1;
            } else if u.is_punct('{') && level <= 0 {
                open = Some(j);
                break;
            } else if u.is_punct(';') && level <= 0 {
                break;
            }
            j += 1;
        }
        let Some(open) = open else { continue };
        let close = match_brace(toks, open);
        // Split arms at depth 0 inside the body; an arm's pattern is
        // everything up to its `=>`.
        let mut arm_patterns: Vec<(u32, Vec<usize>)> = Vec::new();
        let mut cur: Vec<usize> = Vec::new();
        let mut depth = 0i32;
        let mut in_pattern = true;
        let mut k = open + 1;
        while k < close {
            let u = &toks[k];
            if u.is_punct('{') || u.is_punct('(') || u.is_punct('[') {
                depth += 1;
            } else if u.is_punct('}') || u.is_punct(')') || u.is_punct(']') {
                depth -= 1;
            } else if depth == 0
                && in_pattern
                && u.is_punct('=')
                && toks.get(k + 1).is_some_and(|t| t.is_punct('>'))
            {
                arm_patterns.push((u.line, std::mem::take(&mut cur)));
                in_pattern = false;
                k += 2;
                continue;
            } else if depth == 0 && !in_pattern && u.is_punct(',') {
                in_pattern = true;
                k += 1;
                continue;
            }
            // A block arm body `{…}` returns depth to 0; the next
            // pattern starts right after without a comma.
            if depth == 0 && !in_pattern && u.is_punct('}') {
                in_pattern = true;
                k += 1;
                continue;
            }
            // Skip the separator comma a block-bodied arm may leave
            // before the next pattern.
            if in_pattern && depth >= 0 && !(depth == 0 && u.is_punct(',')) {
                cur.push(k);
            }
            k += 1;
        }
        let names_event = arm_patterns.iter().any(|(_, pat)| {
            pat.iter().any(|&idx| {
                EVENT_ENUMS.contains(&toks[idx].text.as_str())
                    && toks[idx].kind == TokKind::Ident
                    && toks.get(idx + 1).is_some_and(|t| t.is_punct(':'))
                    && toks.get(idx + 2).is_some_and(|t| t.is_punct(':'))
            })
        });
        if !names_event {
            continue;
        }
        for (line, pat) in &arm_patterns {
            let code: Vec<&Token> = pat.iter().map(|&idx| &toks[idx]).collect();
            let wildcard = match code.as_slice() {
                [t] if t.is_ident("_") => true,
                [t, g, ..] if t.is_ident("_") && g.is_ident("if") => true,
                _ => false,
            };
            if wildcard {
                emit(
                    out,
                    f,
                    "exhaustive-events",
                    *line,
                    "wildcard `_` arm in a match over an event enum — name every \
                     variant so new ones force handling here"
                        .to_string(),
                );
            }
        }
    }
}

// ---------------------------------------------------------------------------
// stability-surface
// ---------------------------------------------------------------------------

/// `stability-surface`: items from a documented-unstable module
/// (`//! … Stability: unstable …`) must not be re-exported from a
/// crate root `lib.rs`, unless the item itself carries a
/// `Stability: stable` doc marker.
fn stability_surface(files: &[FileModel], out: &mut Vec<Finding>) {
    // Unstable modules by (crate src dir, module name).
    struct Unstable<'a> {
        dir: String,
        module: String,
        model: &'a FileModel,
    }
    let mut unstable: Vec<Unstable> = Vec::new();
    for f in files {
        if !f.unstable_module {
            continue;
        }
        let (dir, stem) = split_dir_stem(&f.path);
        unstable.push(Unstable {
            dir,
            module: stem,
            model: f,
        });
    }
    if unstable.is_empty() {
        return;
    }
    for f in files.iter().filter(|f| f.path.ends_with("lib.rs")) {
        let (dir, _) = split_dir_stem(&f.path);
        let toks = &f.tokens;
        let mut i = 0usize;
        while i < toks.len() {
            if toks[i].is_ident("pub") && toks.get(i + 1).is_some_and(|t| t.is_ident("use")) {
                // Parse `pub use seg::seg::{A, B as C, *};`-ish forms.
                let mut j = i + 2;
                let mut segs: Vec<String> = Vec::new();
                let mut after_as = false;
                while j < toks.len() && !toks[j].is_punct(';') {
                    let t = &toks[j];
                    if t.kind == TokKind::Ident {
                        if t.text == "as" {
                            after_as = true; // `x as y`: y is a rename, not a path seg
                        } else if !after_as {
                            segs.push(t.text.clone());
                        } else {
                            after_as = false;
                        }
                    } else if t.is_punct('{') || t.is_punct('*') {
                        break;
                    }
                    j += 1;
                }
                let module_seg = segs
                    .iter()
                    .find(|s| !matches!(s.as_str(), "crate" | "self" | "super"));
                if let Some(module) = module_seg {
                    if let Some(u) = unstable
                        .iter()
                        .find(|u| u.dir == dir && u.module == *module)
                    {
                        check_reexport(f, u.model, toks, j, &segs, module, out);
                    }
                }
                i = j;
            }
            i += 1;
        }
    }

    fn check_reexport(
        f: &FileModel,
        module_model: &FileModel,
        toks: &[Token],
        j: usize,
        segs: &[String],
        module: &str,
        out: &mut Vec<Finding>,
    ) {
        let flag = |out: &mut Vec<Finding>, line: u32, item: &str| {
            emit(
                out,
                f,
                "stability-surface",
                line,
                format!(
                    "`{item}` is documented-unstable (module `{module}`) but re-exported \
                     from the crate root — mark it `Stability: stable` or drop the re-export"
                ),
            );
        };
        match toks.get(j) {
            Some(t) if t.is_punct('{') => {
                let close = match_brace(toks, j);
                let mut prev_was_as = false;
                for t in &toks[j + 1..close.min(toks.len())] {
                    if t.kind == TokKind::Ident {
                        if t.text == "as" {
                            prev_was_as = true;
                            continue;
                        }
                        if prev_was_as {
                            prev_was_as = false;
                            continue; // rename target, not the item
                        }
                        if module_model.pub_items.contains(&t.text)
                            && !module_model.stable_items.contains(&t.text)
                        {
                            flag(out, t.line, &t.text);
                        }
                    }
                }
            }
            Some(t) if t.is_punct('*') => {
                // A glob re-export of an unstable module leaks every
                // unmarked item.
                for item in module_model
                    .pub_items
                    .difference(&module_model.stable_items)
                {
                    flag(out, t.line, item);
                }
            }
            _ => {
                // Single-item form: `pub use engine::FlowTable;`
                if let Some(item) = segs.last() {
                    if item != module
                        && module_model.pub_items.contains(item)
                        && !module_model.stable_items.contains(item)
                    {
                        let line = toks.get(j).map(|t| t.line).unwrap_or(0);
                        flag(out, line, item);
                    }
                }
            }
        }
    }
}

/// Splits `crates/core/src/engine.rs` into
/// (`crates/core/src`, `engine`).
fn split_dir_stem(path: &str) -> (String, String) {
    let (dir, file) = match path.rfind('/') {
        Some(i) => (&path[..i], &path[i + 1..]),
        None => ("", path),
    };
    let stem = file.strip_suffix(".rs").unwrap_or(file);
    (dir.to_string(), stem.to_string())
}

// ---------------------------------------------------------------------------
// annotation-grammar
// ---------------------------------------------------------------------------

/// `annotation-grammar`: every `// lint:` annotation must parse, every
/// allow must name only rules in [`ALL_RULES`], and carry a
/// `-- <reason>` justification.
fn annotation_grammar(f: &FileModel, out: &mut Vec<Finding>) {
    for &line in &f.bad_allows {
        emit(
            out,
            f,
            "annotation-grammar",
            line,
            "malformed `// lint:` annotation — expected \
             `allow(<rule>[, <rule>…]) -- <reason>` naming known rules"
                .to_string(),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::build;
    use std::path::Path;

    fn findings(src: &str) -> Vec<Finding> {
        let m = build("x.rs", Path::new("crates/x/src/x.rs"), src);
        run_all(std::slice::from_ref(&m), &[])
    }

    #[test]
    fn lock_across_send_flagged() {
        let src = "\
fn f(m: &Mutex<u32>, tx: &Sender<u32>) {
    let g = m.lock().unwrap();
    tx.send(*g).ok();
}
";
        let f = findings(src);
        assert!(f.iter().any(|f| f.rule == "lock-discipline" && f.line == 3));
    }

    #[test]
    fn recv_inside_let_initializer_flagged() {
        let src = "\
fn f(m: &Mutex<u32>, rx: &Receiver<u32>) {
    let g = m.lock().ok();
    let v = rx.recv();
    let _ = (g, v);
}
";
        let f = findings(src);
        assert!(f.iter().any(|f| f.rule == "lock-discipline" && f.line == 3));
    }

    #[test]
    fn condvar_handoff_is_clean() {
        let src = "\
fn f(m: &Mutex<bool>, cvar: &Condvar) {
    let Ok(mut g) = m.lock() else { return };
    while !*g {
        g = match cvar.wait(g) { Ok(v) => v, Err(_) => return };
    }
}
";
        let f = findings(src);
        assert!(!f.iter().any(|f| f.rule == "lock-discipline"));
    }

    #[test]
    fn lock_dropped_before_send_is_clean() {
        let src = "\
fn f(m: &Mutex<u32>, tx: &Sender<u32>) {
    let g = m.lock().unwrap();
    let v = *g;
    drop(g);
    tx.send(v).ok();
}
";
        let f = findings(src);
        assert!(!f.iter().any(|f| f.rule == "lock-discipline"));
    }

    #[test]
    fn lock_scope_ends_at_block_close() {
        let src = "\
fn f(m: &Mutex<u32>, tx: &Sender<u32>) {
    {
        let g = m.lock().unwrap();
    }
    tx.send(1).ok();
}
";
        let f = findings(src);
        assert!(!f.iter().any(|f| f.rule == "lock-discipline"));
    }

    #[test]
    fn unwrap_in_lib_flagged_in_tests_exempt() {
        let src = "\
fn lib() { x.unwrap(); }
#[cfg(test)]
mod tests {
    #[test]
    fn t() { y.unwrap(); }
}
";
        let f = findings(src);
        assert_eq!(f.iter().filter(|f| f.rule == "no-unwrap-in-lib").count(), 1);
        assert_eq!(f[0].line, 1);
    }

    #[test]
    fn unwrap_variants_not_confused() {
        let src = "fn lib() { x.unwrap_or(0); y.unwrap_or_else(f); z.expect_err(); }";
        assert!(findings(src).iter().all(|f| f.rule != "no-unwrap-in-lib"));
    }

    #[test]
    fn wildcard_over_event_enum_flagged() {
        let src = "\
fn f(e: &QoeEvent) {
    match e {
        QoeEvent::FlowOpened { .. } => a(),
        _ => b(),
    }
}
";
        let f = findings(src);
        assert!(f
            .iter()
            .any(|f| f.rule == "exhaustive-events" && f.line == 4));
    }

    #[test]
    fn wildcard_over_other_enum_fine() {
        let src = "\
fn f(e: &Other) {
    match e {
        Other::A => a(),
        _ => b(),
    }
}
";
        assert!(findings(src).is_empty());
    }

    #[test]
    fn nested_non_event_match_inside_event_match_fine() {
        let src = "\
fn f(e: &QoeEvent) {
    match e {
        QoeEvent::FlowOpened { method } => match method {
            Method::A => a(),
            _ => b(),
        },
        QoeEvent::Dropped { .. } => c(),
    }
}
";
        assert!(findings(src).is_empty());
    }

    #[test]
    fn stability_surface_flags_unmarked_reexport() {
        let engine = "\
//! Machine room.
//! **Stability: unstable internals.**

/// Public but unstable.
pub struct FlowTable;

/// Config.
///
/// Stability: stable re-export of the unstable module.
pub struct EngineConfig;
";
        let lib = "pub use engine::{EngineConfig, FlowTable};\n";
        let me = build(
            "crates/core/src/engine.rs",
            Path::new("crates/core/src/engine.rs"),
            engine,
        );
        let ml = build(
            "crates/core/src/lib.rs",
            Path::new("crates/core/src/lib.rs"),
            lib,
        );
        let f = run_all(&[me, ml], &[]);
        let hits: Vec<_> = f.iter().filter(|f| f.rule == "stability-surface").collect();
        assert_eq!(hits.len(), 1);
        assert!(hits[0].message.contains("FlowTable"));
    }

    #[test]
    fn annotation_grammar_flags_reasonless_allow() {
        let src = "fn f() { x.unwrap(); } // lint: allow(no-unwrap-in-lib)\n";
        let f = findings(src);
        assert!(f.iter().any(|f| f.rule == "annotation-grammar"));
        // The reasonless allow does NOT suppress.
        assert!(f.iter().any(|f| f.rule == "no-unwrap-in-lib"));
    }

    #[test]
    fn annotation_grammar_flags_unknown_rule_names() {
        // A typo, alone or beside a real rule, makes the whole allow
        // malformed: one finding, and nothing on the line is suppressed.
        for allow in ["no-unwrap-in-lb", "no-unwrap-in-lib, no-such-rule"] {
            let src = format!("fn f() {{ x.unwrap(); }} // lint: allow({allow}) -- typo\n");
            let f = findings(&src);
            let grammar = f.iter().filter(|f| f.rule == "annotation-grammar");
            assert_eq!(grammar.count(), 1, "allow({allow})");
            assert!(
                f.iter().any(|f| f.rule == "no-unwrap-in-lib"),
                "allow({allow})"
            );
        }
    }

    #[test]
    fn banned_names_in_strings_do_not_trip() {
        let src = "\
fn lib() { let m = \"don't panic!('x') or .unwrap()\"; }
fn locked(m: &Mutex<u32>) { let g = m.lock(); let s = \"tx.send(1)\"; }
";
        assert!(findings(src).is_empty());
    }
}
