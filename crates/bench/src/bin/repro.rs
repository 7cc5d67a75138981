//! `repro` — regenerates every table and figure of the paper.
//!
//! ```text
//! repro [--scale small|full] [--out DIR] [ids...]
//! repro --list
//! ```
//!
//! With no ids, the whole suite runs. Artifacts land in `--out`
//! (default `bench_results/`), one JSON per experiment, alongside the
//! printed paper-style tables.

use vcaml_bench::ctx::{Ctx, Scale};
use vcaml_bench::experiments::registry;
use vcaml_bench::report::Sink;

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

    let sink = Sink::new(&out_dir).expect("create output dir");
    let mut ctx = Ctx::new(scale);
    let started = std::time::Instant::now();
    for (id, desc, run) in &to_run {
        eprintln!("[{:>7.1?}] running {id}: {desc}", started.elapsed());
        run(&mut ctx, &sink);
    }
    eprintln!(
        "[{:>7.1?}] done — artifacts in {out_dir}/",
        started.elapsed()
    );
}
