//! Workspace symbol table and call graph: every `fn` becomes a node,
//! call sites are resolved into edges (direct calls, method calls via
//! a receiver-type heuristic, `Self::`/path-qualified calls), and the
//! graph is condensed into SCCs so the transitive analyses in
//! [`crate::analyses`] can propagate summaries bottom-up.
//!
//! ## Resolver limits (by design)
//!
//! The resolver is a heuristic over the lexer/model output, not a type
//! checker. Every limit degrades to an **explicit unresolved edge**
//! (never a silent drop, never a guessed edge):
//!
//! * Receiver types come from `self` (impl owner), typed params,
//!   `let x: T` / `let x = T::new(…)` bindings, and struct field
//!   types — chained call results (`a().b()`), tuple fields, and
//!   trait objects stay untyped.
//! * An untyped receiver resolves only when exactly one workspace
//!   method bears the name and the name is not a common std method
//!   (`push`, `insert`, …); several candidates → `ambiguous`.
//! * A *typed* receiver whose type has no workspace method of that
//!   name is `external` (e.g. `Vec::push`) — never name-matched.
//! * No trait fan-out: `dyn Trait` / generic-bound calls do not edge
//!   to every implementor; they resolve by the rules above or go
//!   unresolved.

use crate::lexer::{TokKind, Token};
use crate::model::{type_base, FileModel, FileRole, FnSpan};
use std::collections::BTreeMap;

/// One function node in the workspace call graph.
#[derive(Debug, Clone)]
pub struct FnNode {
    /// Index into the `FileModel` slice the graph was built from.
    pub file: usize,
    /// Index into that file's `fns`.
    pub fn_idx: usize,
    pub name: String,
    pub owner: Option<String>,
    pub trait_name: Option<String>,
    pub line: u32,
    pub test: bool,
    pub role: FileRole,
}

impl FnNode {
    /// `Owner::name` display form.
    pub fn label(&self) -> String {
        match &self.owner {
            Some(o) => format!("{}::{}", o, self.name),
            None => self.name.clone(),
        }
    }
}

/// How a call site was written.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CallKind {
    /// `helper(x)`
    Direct,
    /// `recv.method(x)`
    Method,
    /// `Type::method(x)` / `module::helper(x)`
    Path,
    /// `Self::method(x)`
    SelfQualified,
}

impl CallKind {
    pub fn as_str(self) -> &'static str {
        match self {
            CallKind::Direct => "direct",
            CallKind::Method => "method",
            CallKind::Path => "path",
            CallKind::SelfQualified => "self",
        }
    }
}

/// One resolved call edge.
#[derive(Debug, Clone)]
pub struct CallEdge {
    pub from: usize,
    pub to: usize,
    pub kind: CallKind,
    /// 1-based line of the call site (in the caller's file).
    pub line: u32,
    /// Absolute token index of the callee-name token in the caller's
    /// file — the join key the lock analyses use to match guard-held
    /// call events to edges.
    pub tok: usize,
}

/// Why a call site could not be resolved.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UnresolvedKind {
    /// Outside the workspace (std/shim method on a known type, or no
    /// workspace candidate at all).
    External,
    /// Several workspace candidates and no receiver type to pick one.
    Ambiguous,
}

impl UnresolvedKind {
    pub fn as_str(self) -> &'static str {
        match self {
            UnresolvedKind::External => "external",
            UnresolvedKind::Ambiguous => "ambiguous",
        }
    }
}

/// One unresolved call site — kept explicit so resolver decay is
/// observable in the emitted graph.
#[derive(Debug, Clone)]
pub struct UnresolvedEdge {
    pub from: usize,
    pub name: String,
    pub kind: UnresolvedKind,
    pub line: u32,
    /// Number of workspace candidates (0 for external).
    pub candidates: usize,
}

/// The workspace call graph plus its SCC condensation.
pub struct Graph {
    pub nodes: Vec<FnNode>,
    /// Outgoing resolved edges per node, in call-site order.
    pub out: Vec<Vec<CallEdge>>,
    pub unresolved: Vec<UnresolvedEdge>,
    /// SCCs in emission order: every edge leaving an SCC targets an
    /// earlier SCC (callees first), so iterating `sccs` front-to-back
    /// is the bottom-up summary order.
    pub sccs: Vec<Vec<usize>>,
    /// Node → index into `sccs`.
    pub scc_of: Vec<usize>,
}

/// Method names so common on std containers that an *untyped* receiver
/// must not be name-matched against workspace methods — a false edge
/// here would fabricate transitive findings.
const COMMON_STD_METHODS: &[&str] = &[
    "push",
    "pop",
    "insert",
    "remove",
    "get",
    "get_mut",
    "len",
    "is_empty",
    "iter",
    "iter_mut",
    "into_iter",
    "next",
    "clone",
    "clear",
    "contains",
    "contains_key",
    "entry",
    "keys",
    "values",
    "drain",
    "extend",
    "send",
    "recv",
    "try_recv",
    "recv_timeout",
    "try_send",
    "lock",
    "unwrap",
    "expect",
    "take",
    "replace",
    "as_ref",
    "as_mut",
    "as_str",
    "as_slice",
    "map",
    "and_then",
    "unwrap_or",
    "unwrap_or_else",
    "unwrap_or_default",
    "ok",
    "err",
    "into",
    "from",
    "new",
    "default",
    "to_string",
    "to_owned",
    "to_vec",
    "collect",
    "fmt",
    "eq",
    "cmp",
    "partial_cmp",
    "hash",
    "min",
    "max",
    "abs",
    "load",
    "store",
    "fetch_add",
    "swap",
    "join",
    "spawn",
    "flush",
    "write",
    "read",
    "wait",
    "notify_one",
    "notify_all",
    "first",
    "last",
    "sort",
    "sort_by",
    "split",
    "trim",
    "parse",
    "abs_diff",
    "saturating_sub",
    "saturating_add",
    "wrapping_add",
    "count",
    "sum",
    "any",
    "all",
    "find",
    "filter",
    "rev",
    "zip",
    "enumerate",
    "chain",
    "copied",
    "cloned",
    "get_or_insert_with",
    "retain",
    "starts_with",
    "ends_with",
    "is_some",
    "is_none",
    "is_ok",
    "is_err",
    "is_finite",
    "is_nan",
];

/// Keywords that read like `ident(` call heads but never are.
const CALL_HEAD_KEYWORDS: &[&str] = &[
    "if", "while", "for", "match", "return", "loop", "else", "in", "as", "move", "unsafe", "let",
    "mut", "ref", "dyn", "use", "pub", "crate", "super", "where", "impl", "fn", "box", "yield",
];

/// True when `toks[k]` is the callee-name token of a call: an ident
/// immediately followed by `(`. Macro bangs (`name!(`) never match —
/// the `!` sits between.
pub fn is_call_head(toks: &[Token], k: usize) -> bool {
    toks[k].kind == TokKind::Ident && toks.get(k + 1).is_some_and(|n| n.is_punct('('))
}

struct Indexes {
    /// (owner type, method name) → node ids.
    methods: BTreeMap<(String, String), Vec<usize>>,
    /// Free-fn name → node ids.
    free: BTreeMap<String, Vec<usize>>,
    /// Method name (any owner) → node ids.
    methods_by_name: BTreeMap<String, Vec<usize>>,
    /// Merged struct → field → base type map across the workspace.
    structs: BTreeMap<String, BTreeMap<String, String>>,
    /// File stem (`engine` for `…/engine.rs`) per file index.
    stems: Vec<String>,
}

impl Graph {
    /// Builds the graph over a set of file models.
    pub fn build(files: &[FileModel]) -> Graph {
        let mut nodes = Vec::new();
        for (fi, f) in files.iter().enumerate() {
            for (ni, fun) in f.fns.iter().enumerate() {
                nodes.push(FnNode {
                    file: fi,
                    fn_idx: ni,
                    name: fun.name.clone(),
                    owner: fun.owner.clone(),
                    trait_name: fun.trait_name.clone(),
                    line: fun.line,
                    test: fun.test,
                    role: f.role,
                });
            }
        }
        let idx = build_indexes(files, &nodes);
        let mut out = vec![Vec::new(); nodes.len()];
        let mut unresolved = Vec::new();
        for (n, node) in nodes.iter().enumerate() {
            let f = &files[node.file];
            let fun = &f.fns[node.fn_idx];
            resolve_fn(files, &nodes, &idx, n, f, fun, &mut out[n], &mut unresolved);
        }
        let (sccs, scc_of) = tarjan(nodes.len(), &out);
        Graph {
            nodes,
            out,
            unresolved,
            sccs,
            scc_of,
        }
    }

    /// Serializes the graph (for `--emit-callgraph`): hand-rolled JSON,
    /// one node/edge per line, deterministic.
    pub fn to_json(&self, files: &[FileModel]) -> String {
        let mut s = String::new();
        s.push_str("{\n  \"tool\": \"vcaml-lint\",\n  \"kind\": \"callgraph\",\n");
        s.push_str("  \"nodes\": [\n");
        for (i, n) in self.nodes.iter().enumerate() {
            s.push_str(&format!(
                "    {{\"id\": {}, \"fn\": {}, \"owner\": {}, \"trait\": {}, \"file\": {}, \
                 \"line\": {}, \"test\": {}}}{}\n",
                i,
                jstr(&n.name),
                opt_jstr(n.owner.as_deref()),
                opt_jstr(n.trait_name.as_deref()),
                jstr(&files[n.file].path),
                n.line,
                n.test,
                comma(i, self.nodes.len())
            ));
        }
        s.push_str("  ],\n  \"edges\": [\n");
        let total: usize = self.out.iter().map(Vec::len).sum();
        let mut k = 0usize;
        for edges in &self.out {
            for e in edges {
                s.push_str(&format!(
                    "    {{\"from\": {}, \"to\": {}, \"kind\": {}, \"line\": {}}}{}\n",
                    e.from,
                    e.to,
                    jstr(e.kind.as_str()),
                    e.line,
                    comma(k, total)
                ));
                k += 1;
            }
        }
        s.push_str("  ],\n  \"unresolved\": [\n");
        for (i, u) in self.unresolved.iter().enumerate() {
            s.push_str(&format!(
                "    {{\"from\": {}, \"name\": {}, \"category\": {}, \"line\": {}, \
                 \"candidates\": {}}}{}\n",
                u.from,
                jstr(&u.name),
                jstr(u.kind.as_str()),
                u.line,
                u.candidates,
                comma(i, self.unresolved.len())
            ));
        }
        s.push_str("  ],\n  \"sccs\": [");
        for (i, scc) in self.sccs.iter().enumerate() {
            if scc.len() > 1 {
                s.push_str(&format!(
                    "{}[{}]",
                    if i == 0 { "" } else { ", " },
                    scc.iter()
                        .map(|n| n.to_string())
                        .collect::<Vec<_>>()
                        .join(", ")
                ));
            }
        }
        s.push_str("],\n");
        let ext = self
            .unresolved
            .iter()
            .filter(|u| u.kind == UnresolvedKind::External)
            .count();
        s.push_str(&format!(
            "  \"counts\": {{\"nodes\": {}, \"edges\": {}, \"unresolved_external\": {}, \
             \"unresolved_ambiguous\": {}, \"sccs_nontrivial\": {}}}\n}}\n",
            self.nodes.len(),
            total,
            ext,
            self.unresolved.len() - ext,
            self.sccs.iter().filter(|s| s.len() > 1).count(),
        ));
        s
    }
}

fn comma(i: usize, len: usize) -> &'static str {
    if i + 1 == len {
        ""
    } else {
        ","
    }
}

fn jstr(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn opt_jstr(s: Option<&str>) -> String {
    match s {
        Some(s) => jstr(s),
        None => "null".to_string(),
    }
}

fn build_indexes(files: &[FileModel], nodes: &[FnNode]) -> Indexes {
    let mut methods: BTreeMap<(String, String), Vec<usize>> = BTreeMap::new();
    let mut free: BTreeMap<String, Vec<usize>> = BTreeMap::new();
    let mut methods_by_name: BTreeMap<String, Vec<usize>> = BTreeMap::new();
    for (n, node) in nodes.iter().enumerate() {
        match &node.owner {
            Some(o) => {
                methods
                    .entry((o.clone(), node.name.clone()))
                    .or_default()
                    .push(n);
                methods_by_name
                    .entry(node.name.clone())
                    .or_default()
                    .push(n);
            }
            None => free.entry(node.name.clone()).or_default().push(n),
        }
    }
    let mut structs: BTreeMap<String, BTreeMap<String, String>> = BTreeMap::new();
    for f in files {
        for (name, fields) in &f.structs {
            let e = structs.entry(name.clone()).or_default();
            for (field, ty) in fields {
                e.entry(field.clone()).or_insert_with(|| ty.clone());
            }
        }
    }
    let stems = files
        .iter()
        .map(|f| {
            let file = f.path.rsplit('/').next().unwrap_or(&f.path);
            file.strip_suffix(".rs").unwrap_or(file).to_string()
        })
        .collect();
    Indexes {
        methods,
        free,
        methods_by_name,
        structs,
        stems,
    }
}

/// Token sub-ranges of `fun`'s body that belong to *nested* fn items —
/// their calls are attributed to the nested fn's own node, so the
/// outer walk skips them.
pub fn nested_fn_ranges(f: &FileModel, fun: &FnSpan) -> Vec<std::ops::Range<usize>> {
    f.fns
        .iter()
        .filter(|g| g.tok > fun.body.start && g.body.end <= fun.body.end)
        .map(|g| g.tok..g.body.end + 1)
        .collect()
}

#[allow(clippy::too_many_arguments)]
fn resolve_fn(
    files: &[FileModel],
    nodes: &[FnNode],
    idx: &Indexes,
    n: usize,
    f: &FileModel,
    fun: &FnSpan,
    out: &mut Vec<CallEdge>,
    unresolved: &mut Vec<UnresolvedEdge>,
) {
    let env = local_types(f, fun, &idx.structs);
    let nested = nested_fn_ranges(f, fun);
    let toks = &f.tokens;
    let caller_test = fun.test;
    let mut k = fun.body.start;
    while k < fun.body.end {
        if let Some(r) = nested.iter().find(|r| r.contains(&k)) {
            k = r.end;
            continue;
        }
        if !is_call_head(toks, k) {
            k += 1;
            continue;
        }
        let t = &toks[k];
        let name = t.text.as_str();
        let prev = k.checked_sub(1).map(|p| &toks[p]);
        let resolution = if prev.is_some_and(|p| p.is_punct('.')) {
            resolve_method(files, nodes, idx, fun, &env, toks, k, caller_test)
        } else if k >= 2 && toks[k - 1].is_punct(':') && toks[k - 2].is_punct(':') {
            resolve_path(files, nodes, idx, fun, toks, k, caller_test)
        } else if prev.is_some_and(|p| p.is_ident("fn"))
            || (!t.raw && CALL_HEAD_KEYWORDS.contains(&name))
        {
            // Nested fn definition header, or a keyword head (`if (…)`,
            // `match (…)`) — never a call.
            Resolution::Skip
        } else {
            resolve_direct(files, nodes, idx, &env, f, name, caller_test)
        };
        match resolution {
            Resolution::Edge(to, kind) => out.push(CallEdge {
                from: n,
                to,
                kind,
                line: t.line,
                tok: k,
            }),
            Resolution::Unresolved(kind, candidates) => unresolved.push(UnresolvedEdge {
                from: n,
                name: name.to_string(),
                kind,
                line: t.line,
                candidates,
            }),
            Resolution::Skip => {}
        }
        k += 1;
    }
}

enum Resolution {
    Edge(usize, CallKind),
    Unresolved(UnresolvedKind, usize),
    Skip,
}

/// Narrows a candidate list: drop test fns for non-test callers, then
/// prefer a same-file candidate, then an inherent (non-trait) method.
fn pick(nodes: &[FnNode], cands: &[usize], caller_file: usize, caller_test: bool) -> PickResult {
    let live: Vec<usize> = cands
        .iter()
        .copied()
        .filter(|&c| caller_test || !nodes[c].test)
        .collect();
    match live.len() {
        0 => PickResult::None,
        1 => PickResult::One(live[0]),
        _ => {
            let same_file: Vec<usize> = live
                .iter()
                .copied()
                .filter(|&c| nodes[c].file == caller_file)
                .collect();
            if same_file.len() == 1 {
                return PickResult::One(same_file[0]);
            }
            let inherent: Vec<usize> = live
                .iter()
                .copied()
                .filter(|&c| nodes[c].trait_name.is_none())
                .collect();
            if inherent.len() == 1 {
                return PickResult::One(inherent[0]);
            }
            PickResult::Many(live.len())
        }
    }
}

enum PickResult {
    None,
    One(usize),
    Many(usize),
}

#[allow(clippy::too_many_arguments)]
fn resolve_method(
    files: &[FileModel],
    nodes: &[FnNode],
    idx: &Indexes,
    fun: &FnSpan,
    env: &BTreeMap<String, String>,
    toks: &[Token],
    k: usize,
    caller_test: bool,
) -> Resolution {
    let name = toks[k].text.as_str();
    let caller_file = file_of(files, toks);
    let recv_ty = receiver_type(fun, env, idx, toks, k);
    match recv_ty {
        Some(ty) => match idx.methods.get(&(ty, name.to_string())) {
            Some(cands) => match pick(nodes, cands, caller_file, caller_test) {
                PickResult::One(to) => Resolution::Edge(to, CallKind::Method),
                PickResult::Many(c) => Resolution::Unresolved(UnresolvedKind::Ambiguous, c),
                PickResult::None => Resolution::Unresolved(UnresolvedKind::External, 0),
            },
            // Typed receiver, no workspace method: external (Vec::push,
            // std iterator adapters, shim methods, …).
            None => Resolution::Unresolved(UnresolvedKind::External, 0),
        },
        None => {
            // Untyped receiver: unique-name fallback, guarded against
            // common std method names.
            if COMMON_STD_METHODS.contains(&name) {
                return Resolution::Unresolved(UnresolvedKind::External, 0);
            }
            match idx.methods_by_name.get(name) {
                Some(cands) => match pick(nodes, cands, caller_file, caller_test) {
                    PickResult::One(to) => Resolution::Edge(to, CallKind::Method),
                    PickResult::Many(c) => Resolution::Unresolved(UnresolvedKind::Ambiguous, c),
                    PickResult::None => Resolution::Unresolved(UnresolvedKind::External, 0),
                },
                None => Resolution::Unresolved(UnresolvedKind::External, 0),
            }
        }
    }
}

/// File index of the model whose token slice is `toks` — resolved by
/// pointer identity, so the caller does not have to thread it through.
fn file_of(files: &[FileModel], toks: &[Token]) -> usize {
    files
        .iter()
        .position(|f| std::ptr::eq(f.tokens.as_slice(), toks))
        .unwrap_or(usize::MAX)
}

/// Type of the receiver chain ending just before the `.` at `k - 1`:
/// `self` → impl owner, `self.field`/`var.field` via the struct field
/// map, `var` via the local type environment. `None` = untyped.
fn receiver_type(
    fun: &FnSpan,
    env: &BTreeMap<String, String>,
    idx: &Indexes,
    toks: &[Token],
    k: usize,
) -> Option<String> {
    let mut p = k.checked_sub(2)?;
    let mut chain: Vec<&str> = Vec::new();
    loop {
        let t = toks.get(p)?;
        if t.kind != TokKind::Ident {
            return None; // `)`, `]`, literal — chained result, untyped
        }
        chain.push(t.text.as_str());
        if p >= 2 && toks[p - 1].is_punct('.') && toks[p - 2].kind == TokKind::Ident {
            p -= 2;
            continue;
        }
        if p >= 1 && toks[p - 1].is_punct('.') {
            return None; // `foo().field.method()` — untyped head
        }
        break;
    }
    chain.reverse();
    let mut ty = if chain[0] == "self" {
        fun.owner.clone()?
    } else {
        env.get(chain[0])?.clone()
    };
    for field in &chain[1..] {
        ty = idx.structs.get(&ty)?.get(*field)?.clone();
    }
    Some(ty)
}

fn resolve_path(
    files: &[FileModel],
    nodes: &[FnNode],
    idx: &Indexes,
    fun: &FnSpan,
    toks: &[Token],
    k: usize,
    caller_test: bool,
) -> Resolution {
    let name = toks[k].text.as_str();
    let caller_file = file_of(files, toks);
    // Walk path segments backwards; keep the innermost qualifier.
    let mut segs: Vec<&str> = Vec::new();
    let mut p = k;
    while p >= 3 && toks[p - 1].is_punct(':') && toks[p - 2].is_punct(':') {
        // Skip turbofish `::<T>` segments.
        if toks[p - 3].is_punct('>') {
            break;
        }
        if toks[p - 3].kind != TokKind::Ident {
            break;
        }
        segs.push(toks[p - 3].text.as_str());
        p -= 3;
    }
    let Some(&qual) = segs.first() else {
        return Resolution::Skip;
    };
    let uppercase = |s: &str| s.chars().next().is_some_and(|c| c.is_ascii_uppercase());
    let ty = if qual == "Self" {
        match &fun.owner {
            Some(o) => Some(o.clone()),
            None => return Resolution::Unresolved(UnresolvedKind::External, 0),
        }
    } else if uppercase(qual) {
        Some(qual.to_string())
    } else {
        None
    };
    if let Some(ty) = ty {
        let kind = if qual == "Self" {
            CallKind::SelfQualified
        } else {
            CallKind::Path
        };
        return match idx.methods.get(&(ty, name.to_string())) {
            Some(cands) => match pick(nodes, cands, caller_file, caller_test) {
                PickResult::One(to) => Resolution::Edge(to, kind),
                PickResult::Many(c) => Resolution::Unresolved(UnresolvedKind::Ambiguous, c),
                PickResult::None => {
                    if uppercase(name) {
                        Resolution::Skip // tuple-variant constructor
                    } else {
                        Resolution::Unresolved(UnresolvedKind::External, 0)
                    }
                }
            },
            None if uppercase(name) => Resolution::Skip, // `Enum::Variant(…)`
            None => Resolution::Unresolved(UnresolvedKind::External, 0),
        };
    }
    // Module-qualified: `module::helper(…)` — prefer free fns defined
    // in a file whose stem is the module name.
    let cands = idx.free.get(name).cloned().unwrap_or_default();
    if !matches!(qual, "crate" | "self" | "super") {
        let in_module: Vec<usize> = cands
            .iter()
            .copied()
            .filter(|&c| idx.stems[nodes[c].file] == qual)
            .collect();
        if !in_module.is_empty() {
            return match pick(nodes, &in_module, caller_file, caller_test) {
                PickResult::One(to) => Resolution::Edge(to, CallKind::Path),
                PickResult::Many(c) => Resolution::Unresolved(UnresolvedKind::Ambiguous, c),
                PickResult::None => Resolution::Unresolved(UnresolvedKind::External, 0),
            };
        }
    }
    match pick(nodes, &cands, caller_file, caller_test) {
        PickResult::One(to) => Resolution::Edge(to, CallKind::Path),
        PickResult::Many(c) => Resolution::Unresolved(UnresolvedKind::Ambiguous, c),
        PickResult::None if uppercase(name) => Resolution::Skip,
        PickResult::None => Resolution::Unresolved(UnresolvedKind::External, 0),
    }
}

fn resolve_direct(
    files: &[FileModel],
    nodes: &[FnNode],
    idx: &Indexes,
    env: &BTreeMap<String, String>,
    f: &FileModel,
    name: &str,
    caller_test: bool,
) -> Resolution {
    // A local binding used as `name(…)` is a closure/fn-pointer call —
    // never a workspace fn by that name.
    if env.contains_key(name) {
        return Resolution::Unresolved(UnresolvedKind::External, 0);
    }
    let caller_file = file_of(files, &f.tokens);
    let cands = idx.free.get(name).cloned().unwrap_or_default();
    let uppercase = name.chars().next().is_some_and(|c| c.is_ascii_uppercase());
    if cands.is_empty() {
        // `Some(…)`, `Ok(…)`, tuple-struct ctors: not calls we track.
        // Lowercase with no candidate: std free fn or closure param.
        return if uppercase {
            Resolution::Skip
        } else {
            Resolution::Unresolved(UnresolvedKind::External, 0)
        };
    }
    match pick(nodes, &cands, caller_file, caller_test) {
        PickResult::One(to) => Resolution::Edge(to, CallKind::Direct),
        PickResult::Many(c) => Resolution::Unresolved(UnresolvedKind::Ambiguous, c),
        PickResult::None if uppercase => Resolution::Skip,
        PickResult::None => Resolution::Unresolved(UnresolvedKind::External, 0),
    }
}

/// Local type environment: typed params from the signature plus
/// `let x: T` / `let x = T::new(…)` / `let x = T { … }` bindings.
/// Flat (no scoping): later bindings shadow earlier ones, which is the
/// common case and errs toward *some* type rather than none.
fn local_types(
    f: &FileModel,
    fun: &FnSpan,
    structs: &BTreeMap<String, BTreeMap<String, String>>,
) -> BTreeMap<String, String> {
    let toks = &f.tokens;
    let mut env = BTreeMap::new();
    // Params: inside the first paren group of the signature, at depth
    // 1, every `name: Type` pair.
    let mut angle = 0i32;
    let mut i = fun.sig.start;
    let end = fun.sig.end.min(toks.len());
    while i < end {
        let t = &toks[i];
        if t.is_punct('<') {
            angle += 1;
        } else if t.is_punct('>') {
            if !(i >= 1 && toks[i - 1].is_punct('-')) {
                angle -= 1;
            }
        } else if t.is_punct('(') && angle <= 0 {
            let close = match_paren(toks, i).min(end);
            let mut depth = 0i32;
            let mut j = i;
            while j < close {
                let u = &toks[j];
                if u.is_punct('(') || u.is_punct('[') || u.is_punct('<') {
                    depth += 1;
                } else if u.is_punct(')')
                    || u.is_punct(']')
                    || (u.is_punct('>') && !(j >= 1 && toks[j - 1].is_punct('-')))
                {
                    depth -= 1;
                } else if depth == 1
                    && u.kind == TokKind::Ident
                    && u.text != "mut"
                    && u.text != "self"
                    && toks.get(j + 1).is_some_and(|n| n.is_punct(':'))
                    && !toks.get(j + 2).is_some_and(|n| n.is_punct(':'))
                {
                    if let Some(ty) = type_base(&toks[j + 2..close]) {
                        env.insert(u.text.clone(), ty);
                    }
                }
                j += 1;
            }
            break;
        }
        i += 1;
    }
    // Let bindings in the body.
    let mut k = fun.body.start;
    while k < fun.body.end {
        if !toks[k].is_ident("let") {
            k += 1;
            continue;
        }
        let mut j = k + 1;
        if toks.get(j).is_some_and(|t| t.is_ident("mut")) {
            j += 1;
        }
        let Some(name_tok) = toks.get(j) else { break };
        if name_tok.kind != TokKind::Ident {
            k += 1;
            continue; // destructuring pattern — untyped
        }
        let name = name_tok.text.clone();
        match toks.get(j + 1) {
            Some(t) if t.is_punct(':') && !toks.get(j + 2).is_some_and(|n| n.is_punct(':')) => {
                // `let x: Type = …`
                let stop = (j + 2..fun.body.end)
                    .find(|&m| toks[m].is_punct('=') || toks[m].is_punct(';'))
                    .unwrap_or(fun.body.end);
                if let Some(ty) = type_base(&toks[j + 2..stop]) {
                    env.insert(name, ty);
                }
            }
            Some(t) if t.is_punct('=') && !toks.get(j + 2).is_some_and(|n| n.is_punct('=')) => {
                // `let x = Type::… ` / `let x = Type { … }`
                if let Some(init) = toks.get(j + 2) {
                    let upper = init.kind == TokKind::Ident
                        && init
                            .text
                            .chars()
                            .next()
                            .is_some_and(|c| c.is_ascii_uppercase());
                    let ctor = toks.get(j + 3).is_some_and(|n| {
                        n.is_punct('{')
                            || (n.is_punct(':') && toks.get(j + 4).is_some_and(|m| m.is_punct(':')))
                    });
                    // A known struct name always binds; an unknown
                    // Upper-case ctor binds unless it is an enum-like
                    // wrapper (`Some`/`Ok`/`Err`) hiding the real type.
                    if upper
                        && ctor
                        && (structs.contains_key(&init.text)
                            || !matches!(init.text.as_str(), "Some" | "Ok" | "Err"))
                    {
                        env.insert(name, init.text.clone());
                    }
                }
            }
            _ => {}
        }
        k = j + 1;
    }
    env
}

/// Matching `)` for the `(` at `open`.
fn match_paren(tokens: &[Token], open: usize) -> usize {
    let mut depth = 0usize;
    for (i, t) in tokens.iter().enumerate().skip(open) {
        if t.is_punct('(') {
            depth += 1;
        } else if t.is_punct(')') {
            depth -= 1;
            if depth == 0 {
                return i;
            }
        }
    }
    tokens.len()
}

/// Iterative Tarjan SCC. Emission order is reverse-topological over
/// the condensation: callees' SCCs pop before their callers'.
fn tarjan(n: usize, out: &[Vec<CallEdge>]) -> (Vec<Vec<usize>>, Vec<usize>) {
    const UNSEEN: usize = usize::MAX;
    let mut index = vec![UNSEEN; n];
    let mut low = vec![0usize; n];
    let mut on_stack = vec![false; n];
    let mut stack: Vec<usize> = Vec::new();
    let mut sccs: Vec<Vec<usize>> = Vec::new();
    let mut scc_of = vec![0usize; n];
    let mut counter = 0usize;
    for root in 0..n {
        if index[root] != UNSEEN {
            continue;
        }
        let mut call: Vec<(usize, usize)> = vec![(root, 0)];
        while let Some(&mut (v, ref mut ei)) = call.last_mut() {
            if *ei == 0 {
                index[v] = counter;
                low[v] = counter;
                counter += 1;
                stack.push(v);
                on_stack[v] = true;
            }
            if let Some(e) = out[v].get(*ei) {
                let w = e.to;
                *ei += 1;
                if index[w] == UNSEEN {
                    call.push((w, 0));
                } else if on_stack[w] {
                    low[v] = low[v].min(index[w]);
                }
            } else {
                if low[v] == index[v] {
                    let mut scc = Vec::new();
                    while let Some(w) = stack.pop() {
                        on_stack[w] = false;
                        scc_of[w] = sccs.len();
                        scc.push(w);
                        if w == v {
                            break;
                        }
                    }
                    scc.sort_unstable();
                    sccs.push(scc);
                }
                call.pop();
                if let Some((u, _)) = call.last() {
                    let u = *u;
                    low[u] = low[u].min(low[v]);
                }
            }
        }
    }
    (sccs, scc_of)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::build as build_model;
    use std::path::Path;

    fn graph_of(srcs: &[(&str, &str)]) -> (Vec<FileModel>, Graph) {
        let files: Vec<FileModel> = srcs
            .iter()
            .map(|(p, s)| build_model(p, Path::new(p), s))
            .collect();
        let g = Graph::build(&files);
        (files, g)
    }

    fn node(g: &Graph, name: &str) -> usize {
        g.nodes
            .iter()
            .position(|n| n.name == name)
            .unwrap_or_else(|| panic!("no node {name}"))
    }

    fn has_edge(g: &Graph, from: &str, to: &str) -> bool {
        let (f, t) = (node(g, from), node(g, to));
        g.out[f].iter().any(|e| e.to == t)
    }

    #[test]
    fn direct_and_path_calls_resolve() {
        let (_, g) = graph_of(&[(
            "crates/x/src/a.rs",
            "fn root() { helper(); a::helper2(); }\nfn helper() {}\nfn helper2() {}\n",
        )]);
        assert!(has_edge(&g, "root", "helper"));
        assert!(has_edge(&g, "root", "helper2"));
    }

    #[test]
    fn self_method_resolves_to_impl_owner() {
        let src = "\
struct Engine { t: Table }
struct Table;
impl Table { fn grow(&mut self) {} }
impl Engine {
    fn push(&mut self) { self.step(); self.t.grow(); Self::stat(); }
    fn step(&mut self) {}
    fn stat() {}
}
";
        let (_, g) = graph_of(&[("crates/x/src/a.rs", src)]);
        assert!(has_edge(&g, "push", "step"));
        assert!(has_edge(&g, "push", "grow"), "field-typed receiver");
        assert!(has_edge(&g, "push", "stat"), "Self:: call");
    }

    #[test]
    fn typed_receiver_without_workspace_method_is_external() {
        let src = "\
fn f(v: Vec<u32>) { v.push(1); }
";
        let (_, g) = graph_of(&[("crates/x/src/a.rs", src)]);
        let n = node(&g, "f");
        assert!(g.out[n].is_empty());
        assert!(g
            .unresolved
            .iter()
            .any(|u| u.from == n && u.kind == UnresolvedKind::External && u.name == "push"));
    }

    #[test]
    fn untyped_ambiguity_is_explicit() {
        let src = "\
struct A; struct B;
impl A { fn seal(&self) {} }
impl B { fn seal(&self) {} }
fn f(x: &X) { x.seal(); }
";
        let (_, g) = graph_of(&[("crates/x/src/a.rs", src)]);
        let n = node(&g, "f");
        // `x` is typed `X`, which has no `seal`: external, not a guess.
        assert!(g.unresolved.iter().any(|u| u.from == n && u.name == "seal"));
        assert!(g.out[n].is_empty());
    }

    #[test]
    fn unique_name_fallback_resolves_untyped_receiver() {
        let src = "\
struct A;
impl A { fn reseed_counters(&self) {} }
fn f(items: &mut I) { for x in items { x.reseed_counters(); } }
";
        let (_, g) = graph_of(&[("crates/x/src/a.rs", src)]);
        assert!(has_edge(&g, "f", "reseed_counters"));
    }

    #[test]
    fn let_bindings_type_receivers() {
        let src = "\
struct Engine;
impl Engine { fn new() -> Engine { Engine } fn run(&self) {} }
fn f() { let e = Engine::new(); e.run(); let d: Engine = make(); d.run(); }
fn make() -> Engine { Engine::new() }
";
        let (_, g) = graph_of(&[("crates/x/src/a.rs", src)]);
        let f = node(&g, "f");
        let run = node(&g, "run");
        assert_eq!(g.out[f].iter().filter(|e| e.to == run).count(), 2);
    }

    #[test]
    fn sccs_emit_callees_first() {
        let src = "\
fn a() { b(); }
fn b() { c(); a(); }
fn c() {}
";
        let (_, g) = graph_of(&[("crates/x/src/a.rs", src)]);
        let (a, b, c) = (node(&g, "a"), node(&g, "b"), node(&g, "c"));
        // {a,b} is one SCC; {c} must be emitted before it.
        assert_eq!(g.scc_of[a], g.scc_of[b]);
        assert!(g.scc_of[c] < g.scc_of[a]);
        let scc = &g.sccs[g.scc_of[a]];
        assert_eq!(scc.len(), 2);
    }

    #[test]
    fn raw_ident_calls_are_not_keyword_skipped() {
        let src = "\
fn r#loop() {}
fn f() { r#loop(); }
";
        let (_, g) = graph_of(&[("crates/x/src/a.rs", src)]);
        assert!(has_edge(&g, "f", "loop"));
    }

    #[test]
    fn cross_file_module_path_prefers_stem() {
        let (_, g) = graph_of(&[
            ("crates/x/src/a.rs", "fn f() { util::norm(); }\n"),
            ("crates/x/src/util.rs", "pub fn norm() {}\n"),
            ("crates/y/src/other.rs", "pub fn norm() {}\n"),
        ]);
        let f = node(&g, "f");
        let target = g.out[f].first().map(|e| e.to);
        assert_eq!(target, Some(node(&g, "norm")));
        // Resolves to util.rs's norm (stem match), deterministically.
        let to = target.unwrap_or(usize::MAX);
        assert_eq!(g.nodes[to].file, 1);
    }

    #[test]
    fn non_test_caller_never_resolves_into_test_fn() {
        let src = "\
fn f() { helper_x(); }
#[cfg(test)]
mod tests {
    fn helper_x() {}
}
";
        let (_, g) = graph_of(&[("crates/x/src/a.rs", src)]);
        let f = node(&g, "f");
        assert!(g.out[f].is_empty());
    }

    #[test]
    fn callgraph_json_shape() {
        let (files, g) = graph_of(&[(
            "crates/x/src/a.rs",
            "fn a() { b(); }\nfn b() { x.push(1); }\n",
        )]);
        let j = g.to_json(&files);
        assert!(j.contains("\"kind\": \"callgraph\""));
        assert!(j.contains("\"nodes\""));
        assert!(j.contains("\"from\": 0"));
        assert!(j.contains("\"category\": \"external\""));
    }
}
