//! `repro` — regenerates every table and figure of the paper.
//!
//! ```text
//! repro [--scale small|full] [--out DIR] [ids...]
//! repro --list
//! ```
//!
//! With no ids, the whole suite runs. Each experiment returns its
//! artifacts and this binary alone writes them: `<id>.json` in `--out`
//! (default `bench_results/`), alongside the printed paper-style tables.
//! An output directory that cannot be created or an artifact that cannot
//! be written exits 1, naming the path.

use std::path::Path;
use vcaml_bench::ctx::{Ctx, Scale};
use vcaml_bench::experiments::registry;
use vcaml_bench::report::write_artifact;

const USAGE: &str = "usage: repro [--scale small|full] [--out DIR] [ids...] | --list";

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut scale = Scale::Full;
    let mut out_dir = "bench_results".to_string();
    let mut ids: Vec<String> = Vec::new();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--scale" => {
                i += 1;
                scale = match args.get(i).map(String::as_str) {
                    Some("small") => Scale::Small,
                    Some("full") => Scale::Full,
                    other => {
                        eprintln!("unknown scale {other:?} (use small|full)");
                        std::process::exit(2);
                    }
                };
            }
            "--out" => {
                i += 1;
                let Some(dir) = args.get(i) else {
                    eprintln!("--out needs a directory\n{USAGE}");
                    std::process::exit(2);
                };
                out_dir = dir.clone();
            }
            "--list" => {
                for (id, desc, _) in registry() {
                    println!("{id:<6} {desc}");
                }
                return;
            }
            "--help" | "-h" => {
                println!("{USAGE}");
                return;
            }
            id => ids.push(id.to_lowercase()),
        }
        i += 1;
    }

    let reg = registry();
    let to_run: Vec<_> = if ids.is_empty() {
        reg.iter().collect()
    } else {
        let known: Vec<&str> = reg.iter().map(|(id, _, _)| *id).collect();
        for id in &ids {
            if !known.contains(&id.as_str()) {
                eprintln!("unknown experiment id '{id}' — try --list");
                std::process::exit(2);
            }
        }
        reg.iter()
            .filter(|(id, _, _)| ids.iter().any(|w| w == id))
            .collect()
    };

    let out = Path::new(&out_dir);
    if let Err(e) = std::fs::create_dir_all(out) {
        fail(out, &e);
    }
    let mut ctx = Ctx::new(scale);
    let started = std::time::Instant::now();
    for (id, desc, run) in &to_run {
        eprintln!("[{:>7.1?}] running {id}: {desc}", started.elapsed());
        for (artifact, json) in run(&mut ctx) {
            if let Err((path, e)) = write_artifact(out, artifact, &json) {
                fail(&path, &e);
            }
        }
    }
    eprintln!(
        "[{:>7.1?}] done — artifacts in {out_dir}/",
        started.elapsed()
    );
}

/// Exits 1 on an artifact path that could not be created or written.
fn fail(path: &Path, e: &std::io::Error) -> ! {
    eprintln!("repro: {}: {e}", path.display());
    std::process::exit(1);
}
