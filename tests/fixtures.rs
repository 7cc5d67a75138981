//! The live tree keeps its suppression grammar: every `allow` / `expect`
//! attribute says why, and no directive of the retired comment-based
//! linter survives. Clippy's `allow_attributes_without_reason` checks the
//! first half in CI; this is the tier-1 copy, run by `cargo test`.

use std::fs::{read_dir, read_to_string};
use std::path::{Path, PathBuf};

const ROOT: &str = env!("CARGO_MANIFEST_DIR");
const ROOTS: [&str; 5] = ["src", "tests", "examples", "crates", "shims"];
/// Byte-pinned by the benchmark, with one reasonless `#![allow]`; and this
/// file, whose seeds below would trip the scan.
const EXEMPT: [&str; 2] = ["tests/bench_surface.rs", "tests/fixtures.rs"];

fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in read_dir(dir).into_iter().flatten().flatten() {
        let path = entry.path();
        if path.is_dir() && !path.ends_with("target") {
            rust_files(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// One message per finding in `src`: an `allow` / `expect` attribute whose
/// argument list (strings skipped) has no `reason =`, or a retired
/// linter directive.
fn findings(src: &str) -> Vec<String> {
    let retired = concat!("// ", "lint:");
    let mut out = Vec::new();
    for (n, line) in src.lines().enumerate() {
        if line.contains(retired) {
            out.push(format!("line {}: retired directive", n + 1));
        }
    }
    for opener in ["#[allow(", "#![allow(", "#[expect(", "#![expect("] {
        for (at, _) in src.match_indices(opener) {
            let (mut depth, mut in_str, mut escaped) = (1, false, false);
            let mut code = String::new();
            for c in src[at + opener.len()..].chars() {
                match (in_str, c) {
                    (true, _) if escaped => escaped = false,
                    (true, '\\') => escaped = true,
                    (_, '"') => in_str = !in_str,
                    (true, _) => {}
                    (false, '(') => depth += 1,
                    (false, ')') if depth == 1 => break,
                    (false, ')') => depth -= 1,
                    (false, c) if !c.is_whitespace() => code.push(c),
                    (false, _) => {}
                }
            }
            if !code.contains("reason=") {
                let line = src[..at].matches('\n').count() + 1;
                out.push(format!("line {line}: `{opener}..)]` without a reason"));
            }
        }
    }
    out
}

#[test]
fn live_tree_is_lint_clean() {
    let mut files = Vec::new();
    for root in ROOTS {
        rust_files(&Path::new(ROOT).join(root), &mut files);
    }
    let mut bad = Vec::new();
    for path in &files {
        let rel = path
            .strip_prefix(ROOT)
            .unwrap()
            .to_string_lossy()
            .replace('\\', "/");
        if EXEMPT.contains(&rel.as_str()) {
            continue;
        }
        let src = read_to_string(path).unwrap();
        bad.extend(findings(&src).into_iter().map(|f| format!("{rel} {f}")));
    }
    assert!(files.len() > 100, "scanned only {} files", files.len());
    assert!(
        bad.is_empty(),
        "suppression grammar broken:\n{}",
        bad.join("\n")
    );
}

#[test]
fn adversarial_clean_files_stay_clean() {
    let clean = [
        "#[expect(clippy::expect_used, reason = \"checked above\")]\nlet x = y.expect(\"z\");",
        "#![allow(\n    clippy::unwrap_used,\n    clippy::panic,\n    reason = \"tests\"\n)]",
        "#[allow(unused_mut, reason = \"a reason with ) and )] and \\\" inside\")]",
        "#[allow(clippy::type_complexity, reason = concat!(\"a\", \"b\"))]",
        "// lint allow is prose here, not a directive\nfn f() {}",
    ];
    for src in clean {
        assert_eq!(findings(src), Vec::<String>::new(), "{src}");
    }
    let unclean = [
        "#[allow(dead_code)]",
        "#[expect(clippy::panic, note = \"reason = in a string\")]",
        concat!("fn f() {} // ", "lint: allow(no-unwrap-in-lib)"),
    ];
    for src in unclean {
        assert_eq!(findings(src).len(), 1, "{src}");
    }
}
