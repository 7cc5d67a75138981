//! An item the crate root re-exports out of a module documented
//! `Stability: unstable` must carry its own `Stability: stable` doc
//! marker, so the stable surface never grows by accident.

use std::fs::read_to_string;

const SRC: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/crates/core/src");

#[test]
fn reexports_from_unstable_modules_are_marked_stable() {
    let lib = read_to_string(format!("{SRC}/lib.rs")).unwrap();
    let mut checked = 0;
    for stmt in lib.split(';').filter_map(|s| s.split("pub use ").nth(1)) {
        let (module, items) = stmt.split_once("::").unwrap();
        let text = read_to_string(format!("{SRC}/{module}.rs"))
            .or_else(|_| read_to_string(format!("{SRC}/{module}/mod.rs")))
            .unwrap();
        let lines: Vec<&str> = text.lines().map(str::trim_start).collect();
        let mut header = lines.iter().take_while(|l| l.starts_with("//!"));
        if !header.any(|l| l.contains("Stability: unstable")) {
            continue;
        }
        let items = items.split(['{', '}', ',', ' ', '\n']);
        for item in items.filter(|s| !s.is_empty()) {
            // The definition: `pub <kind> <item>`, then a non-identifier.
            let def = lines.iter().position(|l| {
                let rest = l.strip_prefix("pub ").and_then(|l| l.split_once(' '));
                let tail = rest.and_then(|(_, r)| r.strip_prefix(item));
                tail.is_some_and(|t| !t.starts_with(|c: char| c.is_alphanumeric() || c == '_'))
            });
            let doc = def.map(|d| lines[..d].iter().rev());
            let doc = doc.map(|d| d.take_while(|l| l.starts_with("///") || l.starts_with("#[")));
            let stable = doc.is_some_and(|mut d| d.any(|l| l.contains("Stability: stable")));
            assert!(stable, "{module}::{item} lacks `Stability: stable`");
            checked += 1;
        }
    }
    assert!(checked > 0, "no unstable-module re-export was checked");
}
