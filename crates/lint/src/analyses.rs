//! The interprocedural analyses over the workspace call graph
//! ([`crate::graph`]): held-guard propagation across calls, and the
//! global lock-order graph with cycle (deadlock) detection.
//!
//! Both share one shape: **local facts** are extracted per function
//! (blocking sites, lock acquisitions), then propagated **bottom-up**
//! over the SCC-condensed call graph (Tarjan emission order is
//! callees-first; within an SCC a bounded fixpoint runs). Every finding
//! carries a witness chain
//! `caller (file:line) → helper (file:line) → .recv() (file:line)`.
//!
//! ## Suppression model
//!
//! * A **site** allow kills the fact at its source: a blocking line
//!   allowed for `lock-discipline` (or `-transitive`) contributes no
//!   transitive fact — a justified local allow means there is nothing
//!   to propagate.
//! * An **edge** allow cuts propagation: an allow on a *call-site*
//!   line (for the transitive rule) severs that edge for both summary
//!   propagation and reporting — the per-edge escape hatch.

use crate::graph::{CallEdge, Graph};
use crate::model::FileModel;
use crate::report::Finding;
use crate::rules::{is_wait_point, severity, walk_guards, GuardEvent};
use std::collections::{BTreeMap, BTreeSet};

/// A local fact site: line + display form for witness chains.
#[derive(Debug, Clone)]
struct Site {
    line: u32,
    desc: String,
}

/// Per-node local facts.
#[derive(Default)]
struct Facts {
    /// Blocking sites: `.send()` / `.recv()` / `.wait()`…
    wait: Vec<Site>,
    /// Lock acquisitions: (normalized lock id, site).
    acquires: Vec<(String, Site)>,
    /// Call heads reached while ≥1 guard held:
    /// (absolute token index, held lock ids, line).
    held_calls: Vec<(usize, Vec<String>, u32)>,
    /// Intra-fn lock-order edges: (held lock, newly acquired lock,
    /// acquisition line).
    order: Vec<(String, String, u32)>,
}

/// How a node came to carry a transitive property — the witness-chain
/// link. `Via` pointers always target a node marked in an earlier
/// fixpoint step, so chains are acyclic even inside SCCs.
#[derive(Debug, Clone)]
enum Reason {
    Local(Site),
    Via { line: u32, to: usize },
}

/// Runs both graph analyses (honoring rule selection) and appends
/// findings.
pub(crate) fn run(files: &[FileModel], graph: &Graph, selected: &[String], out: &mut Vec<Finding>) {
    let on = |name: &str| selected.is_empty() || selected.iter().any(|s| s == name);
    let facts = collect_facts(files, graph);
    let lock_rules: &[&str] = &["lock-discipline-transitive", "lock-discipline"];
    if on("lock-discipline-transitive") {
        let reasons = propagate(files, graph, &facts, |f| &f.wait, lock_rules);
        report_held_calls(files, graph, &facts, &reasons, lock_rules, out);
    }
    if on("lock-order-cycle") {
        report_lock_cycles(files, graph, &facts, out);
    }
}

/// Local fact extraction for every node.
fn collect_facts(files: &[FileModel], graph: &Graph) -> Vec<Facts> {
    let mut out = Vec::with_capacity(graph.nodes.len());
    for node in &graph.nodes {
        let f = &files[node.file];
        let fun = &f.fns[node.fn_idx];
        let mut facts = Facts::default();
        if node.test {
            out.push(facts);
            continue;
        }
        let nested = crate::graph::nested_fn_ranges(f, fun);
        let toks = &f.tokens;
        let mut i = fun.body.start;
        while i < fun.body.end {
            if let Some(r) = nested.iter().find(|r| r.contains(&i)) {
                i = r.end;
                continue;
            }
            let line = toks[i].line;
            if is_wait_point(toks, i)
                && !f.allowed("lock-discipline", line)
                && !f.allowed("lock-discipline-transitive", line)
            {
                facts.wait.push(Site {
                    line,
                    desc: format!("`.{}()`", toks[i].text),
                });
            }
            i += 1;
        }
        walk_guards(f, fun, &mut |held, ev| match ev {
            GuardEvent::Acquire { guard } => {
                let line = guard.line;
                if !f.allowed("lock-order-cycle", line) {
                    facts.acquires.push((
                        guard.lock.clone(),
                        Site {
                            line,
                            desc: format!("`{}`", guard.lock),
                        },
                    ));
                    for h in held {
                        facts.order.push((h.lock.clone(), guard.lock.clone(), line));
                    }
                }
            }
            GuardEvent::Call { tok } => {
                facts.held_calls.push((
                    tok,
                    held.iter().map(|g| g.lock.clone()).collect(),
                    toks[tok].line,
                ));
            }
            GuardEvent::Wait { .. } => {}
        });
        out.push(facts);
    }
    out
}

/// True when the caller's file allows any of `rules` on the call-site
/// line — the per-edge escape hatch.
fn edge_cut(files: &[FileModel], graph: &Graph, e: &CallEdge, rules: &[&str]) -> bool {
    let f = &files[graph.nodes[e.from].file];
    rules.iter().any(|r| f.allowed(r, e.line))
}

/// Bottom-up may-reach propagation over the SCC condensation: a node
/// carries a [`Reason`] when it has a local fact or a non-cut edge to
/// a carrying node. SCC members converge via a bounded fixpoint.
fn propagate(
    files: &[FileModel],
    graph: &Graph,
    facts: &[Facts],
    local: impl Fn(&Facts) -> &Vec<Site>,
    cut_rules: &[&str],
) -> Vec<Option<Reason>> {
    let mut reasons: Vec<Option<Reason>> = vec![None; graph.nodes.len()];
    for scc in &graph.sccs {
        // Bounded fixpoint: each pass marks ≥1 new member or stops, so
        // |scc| passes suffice.
        for _ in 0..scc.len() {
            let mut changed = false;
            for &n in scc {
                if reasons[n].is_some() {
                    continue;
                }
                if let Some(site) = local(&facts[n]).first() {
                    reasons[n] = Some(Reason::Local(site.clone()));
                    changed = true;
                    continue;
                }
                for e in &graph.out[n] {
                    if edge_cut(files, graph, e, cut_rules) {
                        continue;
                    }
                    if reasons[e.to].is_some() {
                        reasons[n] = Some(Reason::Via {
                            line: e.line,
                            to: e.to,
                        });
                        changed = true;
                        break;
                    }
                }
            }
            if !changed {
                break;
            }
        }
    }
    reasons
}

/// Renders the witness chain for an edge out of `root`:
/// `root (file:call-line) → … → leaf-fn (file:line) → site (file:line)`.
fn chain_for(
    files: &[FileModel],
    graph: &Graph,
    reasons: &[Option<Reason>],
    root: usize,
    edge: &CallEdge,
) -> Vec<String> {
    let step = |n: usize, line: u32| {
        format!(
            "{} ({}:{})",
            graph.nodes[n].label(),
            files[graph.nodes[n].file].path,
            line
        )
    };
    let mut out = vec![step(root, edge.line)];
    let mut n = edge.to;
    loop {
        match &reasons[n] {
            Some(Reason::Local(site)) => {
                out.push(step(n, site.line));
                out.push(format!(
                    "{} ({}:{})",
                    site.desc, files[graph.nodes[n].file].path, site.line
                ));
                return out;
            }
            Some(Reason::Via { line, to }) => {
                out.push(step(n, *line));
                n = *to;
            }
            None => return out, // unreachable by construction
        }
    }
}

/// `lock-discipline-transitive`: a call made while a guard is held,
/// into a callee that (transitively) blocks on a channel/condvar.
fn report_held_calls(
    files: &[FileModel],
    graph: &Graph,
    facts: &[Facts],
    reasons: &[Option<Reason>],
    cut_rules: &[&str],
    out: &mut Vec<Finding>,
) {
    for (n, node) in graph.nodes.iter().enumerate() {
        if node.test {
            continue;
        }
        let f = &files[node.file];
        for (tok, held, line) in &facts[n].held_calls {
            if cut_rules.iter().any(|r| f.allowed(r, *line)) {
                continue;
            }
            let Some(e) = graph.out[n].iter().find(|e| e.tok == *tok) else {
                continue;
            };
            if reasons[e.to].is_none() {
                continue;
            }
            let chain = chain_for(files, graph, reasons, n, e);
            out.push(Finding {
                rule: "lock-discipline-transitive",
                severity: severity("lock-discipline-transitive"),
                file: f.path.clone(),
                line: *line,
                message: format!(
                    "call to `{}` while guard on `{}` is held in `{}` reaches a blocking \
                     operation: {}",
                    graph.nodes[e.to].label(),
                    held.join("`, `"),
                    node.label(),
                    chain.join(" → ")
                ),
                snippet: f.snippet(*line),
                chain,
            });
        }
    }
}

/// `lock-order-cycle`: builds the global lock-order graph (held → next
/// acquired, both intra-fn and through calls) and reports one finding
/// per cyclic SCC — the potential-deadlock shape.
fn report_lock_cycles(files: &[FileModel], graph: &Graph, facts: &[Facts], out: &mut Vec<Finding>) {
    // Transitive acquire sets, bottom-up (lock-rule edge cuts apply).
    let cut_rules: &[&str] = &["lock-discipline-transitive", "lock-discipline"];
    let mut acq: Vec<BTreeSet<String>> = vec![BTreeSet::new(); graph.nodes.len()];
    for scc in &graph.sccs {
        for _ in 0..scc.len().max(1) {
            let mut changed = false;
            for &n in scc {
                let mut next: BTreeSet<String> =
                    facts[n].acquires.iter().map(|(l, _)| l.clone()).collect();
                for e in &graph.out[n] {
                    if edge_cut(files, graph, e, cut_rules) {
                        continue;
                    }
                    next.extend(acq[e.to].iter().cloned());
                }
                if next.len() != acq[n].len() {
                    acq[n] = next;
                    changed = true;
                }
            }
            if !changed {
                break;
            }
        }
    }
    // Order edges: lock → lock, annotated with the first witness site.
    let mut edges: BTreeMap<(String, String), (String, u32, String)> = BTreeMap::new();
    for (n, node) in graph.nodes.iter().enumerate() {
        if node.test {
            continue;
        }
        let f = &files[node.file];
        for (held, acquired, line) in &facts[n].order {
            edges
                .entry((held.clone(), acquired.clone()))
                .or_insert_with(|| (f.path.clone(), *line, node.label()));
        }
        for (tok, held, line) in &facts[n].held_calls {
            if cut_rules.iter().any(|r| f.allowed(r, *line)) {
                continue;
            }
            let Some(e) = graph.out[n].iter().find(|e| e.tok == *tok) else {
                continue;
            };
            for h in held {
                for t in &acq[e.to] {
                    if t != h {
                        edges
                            .entry((h.clone(), t.clone()))
                            .or_insert_with(|| (f.path.clone(), *line, node.label()));
                    }
                }
            }
        }
    }
    for cycle in find_cycles(&edges) {
        // Anchor at the smallest (file, line) among the cycle's edges.
        let sites: Vec<&(String, u32, String)> = cycle
            .windows(2)
            .filter_map(|w| edges.get(&(w[0].clone(), w[1].clone())))
            .collect();
        let Some(anchor) = sites.iter().min_by_key(|(p, l, _)| (p.clone(), *l)) else {
            continue;
        };
        let Some(f) = files.iter().find(|f| f.path == anchor.0) else {
            continue;
        };
        if f.allowed("lock-order-cycle", anchor.1) {
            continue;
        }
        let chain: Vec<String> = cycle
            .windows(2)
            .filter_map(|w| {
                edges.get(&(w[0].clone(), w[1].clone())).map(|(p, l, ctx)| {
                    format!("`{}` → `{}` ({}:{}, in `{}`)", w[0], w[1], p, l, ctx)
                })
            })
            .collect();
        out.push(Finding {
            rule: "lock-order-cycle",
            severity: severity("lock-order-cycle"),
            file: anchor.0.clone(),
            line: anchor.1,
            message: format!(
                "lock-order cycle (potential deadlock): {} — acquisition order must be \
                 globally consistent",
                chain.join(", ")
            ),
            snippet: f.snippet(anchor.1),
            chain,
        });
    }
}

/// One representative cycle per cyclic SCC of the lock-order graph,
/// canonicalized to start at the smallest lock id. Returned as
/// `[a, b, …, a]` (first repeated at the end).
#[allow(clippy::type_complexity)]
fn find_cycles(edges: &BTreeMap<(String, String), (String, u32, String)>) -> Vec<Vec<String>> {
    let mut nodes: BTreeSet<&String> = BTreeSet::new();
    for (a, b) in edges.keys() {
        nodes.insert(a);
        nodes.insert(b);
    }
    let ids: Vec<&String> = nodes.into_iter().collect();
    let index: BTreeMap<&String, usize> = ids.iter().enumerate().map(|(i, s)| (*s, i)).collect();
    let mut adj: Vec<Vec<usize>> = vec![Vec::new(); ids.len()];
    for (a, b) in edges.keys() {
        adj[index[a]].push(index[b]);
    }
    // SCCs of the lock graph via simple Kosaraju-free approach:
    // repeated DFS cycle-finding from each unvisited smallest node,
    // restricted by reachability. Lock graphs are tiny (≤ dozens of
    // locks), so an O(V·E) path search per node is fine.
    let mut cycles = Vec::new();
    let mut covered: BTreeSet<usize> = BTreeSet::new();
    for start in 0..ids.len() {
        if covered.contains(&start) {
            continue;
        }
        // DFS for a path start → … → start.
        if let Some(path) = cycle_from(start, &adj) {
            for &n in &path {
                covered.insert(n);
            }
            let mut cycle: Vec<String> = path.iter().map(|&n| ids[n].clone()).collect();
            cycle.push(ids[start].clone());
            cycles.push(cycle);
        }
    }
    cycles
}

/// DFS path from `start` back to `start` (length ≥ 1 edges), if any.
fn cycle_from(start: usize, adj: &[Vec<usize>]) -> Option<Vec<usize>> {
    let mut stack: Vec<(usize, usize)> = vec![(start, 0)];
    let mut path: Vec<usize> = vec![start];
    let mut visited: BTreeSet<usize> = BTreeSet::new();
    visited.insert(start);
    while let Some(&mut (v, ref mut ei)) = stack.last_mut() {
        if let Some(&w) = adj[v].get(*ei) {
            *ei += 1;
            if w == start {
                return Some(path);
            }
            if visited.insert(w) {
                stack.push((w, 0));
                path.push(w);
            }
        } else {
            stack.pop();
            path.pop();
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::build as build_model;
    use crate::rules::run_all;
    use std::path::Path;

    fn findings(src: &str) -> Vec<Finding> {
        let m = build_model("x.rs", Path::new("crates/x/src/x.rs"), src);
        run_all(std::slice::from_ref(&m), &[])
    }

    #[test]
    fn two_level_chain_resolves() {
        let src = "\
fn root(m: &Mutex<u32>, rx: &Receiver<u32>) {
    let g = m.lock().ok();
    mid(rx);
}
fn mid(rx: &Receiver<u32>) { leaf(rx); }
fn leaf(rx: &Receiver<u32>) { let _ = rx.recv(); }
";
        let f = findings(src);
        let hit = f
            .iter()
            .find(|f| f.rule == "lock-discipline-transitive")
            .expect("transitive finding");
        assert_eq!(hit.line, 3);
        assert_eq!(hit.chain.len(), 4);
        assert!(hit.chain[0].starts_with("root "));
        assert!(hit.chain[1].starts_with("mid "));
        assert!(hit.chain[2].starts_with("leaf "));
        assert!(hit.chain[3].contains(".recv()"));
    }

    #[test]
    fn edge_allow_cuts_propagation() {
        let src = "\
fn root(m: &Mutex<u32>, rx: &Receiver<u32>) {
    let g = m.lock().ok();
    mid(rx);
}
fn mid(rx: &Receiver<u32>) {
    leaf(rx); // lint: allow(lock-discipline-transitive) -- the sender is dropped first
}
fn leaf(rx: &Receiver<u32>) { let _ = rx.recv(); }
";
        let f = findings(src);
        assert!(!f.iter().any(|f| f.rule == "lock-discipline-transitive"));
    }

    #[test]
    fn site_allow_kills_the_fact() {
        let src = "\
fn root(m: &Mutex<u32>, rx: &Receiver<u32>) {
    let g = m.lock().ok();
    helper(rx);
}
fn helper(rx: &Receiver<u32>) {
    let _ = rx.recv(); // lint: allow(lock-discipline) -- the sender is dropped first
}
";
        let f = findings(src);
        assert!(!f.iter().any(|f| f.rule == "lock-discipline-transitive"));
    }

    #[test]
    fn recursion_scc_converges() {
        let src = "\
fn root(m: &Mutex<u32>, rx: &Receiver<u32>) {
    let g = m.lock().ok();
    a(rx);
}
fn a(rx: &Receiver<u32>) { b(rx); }
fn b(rx: &Receiver<u32>) { a(rx); let _ = rx.recv(); }
";
        let f = findings(src);
        assert!(f.iter().any(|f| f.rule == "lock-discipline-transitive"));
    }

    #[test]
    fn transitive_lock_wait_flagged() {
        let src = "\
struct W { q: Mutex }
impl W {
    fn pump(&self, rx: &Receiver<u32>) {
        let g = self.q.lock().ok();
        self.drain(rx);
    }
    fn drain(&self, rx: &Receiver<u32>) { let _ = rx.recv(); }
}
";
        let f = findings(src);
        let hit = f
            .iter()
            .find(|f| f.rule == "lock-discipline-transitive")
            .expect("transitive lock finding");
        assert_eq!(hit.line, 5);
        assert!(hit.message.contains("W::q"));
        assert!(hit.chain.iter().any(|c| c.contains(".recv()")));
    }

    #[test]
    fn lock_order_cycle_across_two_fns() {
        let src = "\
struct S { a: Mutex, b: Mutex }
impl S {
    fn fwd(&self) {
        let g1 = self.a.lock().ok();
        let g2 = self.b.lock().ok();
    }
    fn rev(&self) {
        let g2 = self.b.lock().ok();
        let g1 = self.a.lock().ok();
    }
}
";
        let f = findings(src);
        let hit = f
            .iter()
            .find(|f| f.rule == "lock-order-cycle")
            .expect("cycle finding");
        assert!(hit.message.contains("S::a"));
        assert!(hit.message.contains("S::b"));
    }

    #[test]
    fn consistent_lock_order_is_clean() {
        let src = "\
struct S { a: Mutex, b: Mutex }
impl S {
    fn f1(&self) { let g1 = self.a.lock().ok(); let g2 = self.b.lock().ok(); }
    fn f2(&self) { let g1 = self.a.lock().ok(); let g2 = self.b.lock().ok(); }
}
";
        let f = findings(src);
        assert!(!f.iter().any(|f| f.rule == "lock-order-cycle"));
    }

    #[test]
    fn cycle_through_a_call_detected() {
        let src = "\
struct S { a: Mutex, b: Mutex }
impl S {
    fn outer(&self) {
        let g = self.a.lock().ok();
        self.inner_acquire();
    }
    fn inner_acquire(&self) { let g = self.b.lock().ok(); }
    fn other(&self) {
        let g = self.b.lock().ok();
        let h = self.a.lock().ok();
    }
}
";
        let f = findings(src);
        assert!(f.iter().any(|f| f.rule == "lock-order-cycle"));
    }
}
