//! # vcaml-lint — in-repo static analysis for the vcaml workspace
//!
//! A workspace-aware linter for the invariants no runtime suite
//! checks: lock/channel ordering, locally and through the call graph
//! (`lock-discipline`, `lock-discipline-transitive`,
//! `lock-order-cycle`), panic-freedom of library code
//! (`no-unwrap-in-lib`), exhaustive event handling
//! (`exhaustive-events`), the documented stability surface
//! (`stability-surface`), and the well-formedness of its own `// lint:`
//! annotations (`annotation-grammar`). The zero-allocation hot path is
//! not among them: `tests/hot_path.rs` meters it with a counting
//! allocator. Findings are typed ([`report::Finding`]) and
//! emitted as a terminal table plus a structured JSON report with
//! CI-meaningful exit codes: 0 clean, 1 findings, 2 usage/IO error.
//!
//! Built on a small hand-rolled lexer ([`lexer`]) — comment, string,
//! raw-string and char-literal aware — so rules match *code*, never
//! text inside literals or comments. Deliberately dependency-free
//! (not even the in-repo shims): the tool that audits every crate
//! must not depend on them.
//!
//! See `ARCHITECTURE.md` § "Invariants & static analysis" for the rule
//! table and the `// lint:` annotation grammar.

pub mod analyses;
pub mod graph;
pub mod lexer;
pub mod model;
pub mod report;
pub mod rules;

use report::Report;
use std::path::{Path, PathBuf};

/// Directories walked under the workspace root.
const SCAN_DIRS: &[&str] = &["crates", "src", "shims"];

/// Directory names skipped anywhere in the walk: build output and the
/// linter's own seeded-violation corpus.
const SKIP_DIRS: &[&str] = &["target", "fixtures", ".git"];

/// Locates the workspace root: walks up from `start` to the first
/// directory whose `Cargo.toml` contains a `[workspace]` table.
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut dir = Some(start.to_path_buf());
    while let Some(d) = dir {
        let manifest = d.join("Cargo.toml");
        if let Ok(text) = std::fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return Some(d);
            }
        }
        dir = d.parent().map(Path::to_path_buf);
    }
    None
}

/// Collects every `.rs` file under the scan dirs, sorted for
/// deterministic reports. Paths are returned workspace-relative.
pub fn collect_files(root: &Path) -> std::io::Result<Vec<PathBuf>> {
    let mut out = Vec::new();
    for dir in SCAN_DIRS {
        let d = root.join(dir);
        if d.is_dir() {
            walk(&d, &mut out)?;
        }
    }
    for p in &mut out {
        if let Ok(rel) = p.strip_prefix(root) {
            *p = rel.to_path_buf();
        }
    }
    out.sort();
    Ok(out)
}

fn walk(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if SKIP_DIRS.contains(&name.as_ref()) || name.starts_with('.') {
                continue;
            }
            walk(&path, out)?;
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Builds the per-file models for a workspace root.
fn build_models(root: &Path) -> std::io::Result<Vec<model::FileModel>> {
    let files = collect_files(root)?;
    let mut models = Vec::with_capacity(files.len());
    for rel in &files {
        let src = std::fs::read_to_string(root.join(rel))?;
        let display = rel
            .to_string_lossy()
            .replace(std::path::MAIN_SEPARATOR, "/");
        models.push(model::build(&display, rel, &src));
    }
    Ok(models)
}

/// Builds the workspace call graph and serializes it
/// (`--emit-callgraph`).
pub fn emit_callgraph(root: &Path) -> std::io::Result<String> {
    let models = build_models(root)?;
    let graph = graph::Graph::build(&models);
    Ok(graph.to_json(&models))
}

/// Runs the full analysis over a workspace root, with an optional rule
/// subset (empty = all rules).
pub fn analyze(root: &Path, selected_rules: &[String]) -> std::io::Result<Report> {
    let models = build_models(root)?;
    let findings = rules::run_all(&models, selected_rules);
    Ok(Report {
        root: root.to_string_lossy().into_owned(),
        files_scanned: models.len(),
        rules: if selected_rules.is_empty() {
            rules::ALL_RULES.iter().map(|r| r.to_string()).collect()
        } else {
            selected_rules.to_vec()
        },
        findings,
    })
}
