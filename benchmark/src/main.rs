//! `vcaml-benchmark`: capture bytes in, serialized events out.
//!
//! With `--workload` it runs one pass of one workload and ends with the
//! one-line JSON result a driver reads; without, it runs every workload,
//! untraced then traced, and prints the metric and budget tables. See
//! `benchmark/README.md`.

mod alloc;
mod cpu;
mod e2e;
mod gen;
mod layers;
mod metrics;
mod report;
mod stats;
mod workload;

use std::path::Path;
use std::process::ExitCode;
use workload::Kind;

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;

/// Seconds of timed replays per run when `--seconds` is not given; also
/// `run_seconds` in `BENCHMARK.json`.
pub const DEFAULT_SECONDS: u64 = 8;

/// Where traces and the latest full run are written: `results/` of this
/// package, whether the program is run from the repository root (as
/// `BENCHMARK.json` runs it) or from the package's own directory.
fn results_dir() -> &'static Path {
    if Path::new("benchmark/Cargo.toml").is_file() {
        Path::new("benchmark/results")
    } else {
        Path::new("results")
    }
}

const USAGE: &str = "usage: vcaml-benchmark [--workload <name>] [--seed <n>] [--seconds <s>] \
[--trace <0|1>] [--repeat <n>]
  --workload  one of calls_heuristic, calls_ml, flow_churn, tap_mixed, live_paced;
              runs one pass of it and prints one JSON result as the last line
  --seed      drives every generator (default 1)
  --seconds   timed replays per run (default 8)
  --trace     with --workload: 0 = end-to-end metrics, 1 = per-layer metrics (default 0)
  --repeat    without --workload: run the whole set this many times and compare
              the sets against each end-to-end bound (default 1)";

struct Args {
    workload: Option<Kind>,
    seed: u64,
    seconds: f64,
    trace: bool,
    repeat: usize,
}

fn parse_args(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: DEFAULT_SECONDS as f64,
        trace: false,
        repeat: 1,
    };
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("{flag}: cannot use {value:?}");
        match flag.as_str() {
            "--workload" => args.workload = Some(Kind::from_name(&value).ok_or_else(bad)?),
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|_| bad())?;
                if !(args.seconds > 0.0 && args.seconds <= 60.0) {
                    return Err(bad());
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            "--repeat" => {
                args.repeat = value.parse().map_err(|_| bad())?;
                if args.repeat == 0 {
                    return Err(bad());
                }
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    if args.workload.is_some() && args.repeat != 1 {
        return Err("--repeat compares whole sets; leave out --workload".into());
    }
    Ok(args)
}

fn write_result(name: &str, contents: &str) {
    let path = results_dir().join(name);
    let written =
        std::fs::create_dir_all(results_dir()).and_then(|()| std::fs::write(&path, contents));
    if let Err(e) = written {
        eprintln!("cannot write {}: {e}", path.display());
    }
}

fn print_failures(outcome: &e2e::Outcome) {
    for why in &outcome.failures {
        println!("  FAILED operation: {why}");
    }
}

/// One pass of one workload, ending with the result line.
fn run_one(kind: Kind, args: &Args) -> ExitCode {
    let outcome = if args.trace {
        let prepared = workload::prepare(kind, args.seed);
        let traced = layers::run(&prepared, args.seed, args.seconds);
        write_result(&format!("trace_{}.json", kind.name()), &traced.trace_json);
        print!("{}", report::metric_table(&traced.outcome.readings));
        print!("{}", report::budget_table(kind.name(), &traced));
        traced.outcome
    } else {
        let (_, outcome) = e2e::run(kind, args.seed, args.seconds);
        print!("{}", report::metric_table(&outcome.readings));
        outcome
    };
    print_failures(&outcome);
    println!("{}", report::result_line(&outcome));
    if outcome.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Every workload, untraced then traced, `repeat` times over.
fn run_all(args: &Args) -> ExitCode {
    let mut ok = true;
    // sets[set][workload] = the end-to-end readings' values, in table order.
    let mut sets: Vec<Vec<Vec<f64>>> = Vec::new();
    for set in 0..args.repeat {
        let mut entries = Vec::new();
        let mut values = Vec::new();
        for kind in Kind::ALL {
            println!(
                "== {} (seed {}, {} s, set {} of {}) ==\n  {}",
                kind.name(),
                args.seed,
                args.seconds,
                set + 1,
                args.repeat,
                kind.why()
            );
            let (prepared, end_to_end) = e2e::run(kind, args.seed, args.seconds);
            print!("{}", report::metric_table(&end_to_end.readings));
            print_failures(&end_to_end);
            let traced = layers::run(&prepared, args.seed, args.seconds);
            print!("{}", report::metric_table(&traced.outcome.readings));
            print!("{}", report::budget_table(kind.name(), &traced));
            print_failures(&traced.outcome);
            println!(
                "  operations: {} failed of {} attempted",
                end_to_end.failed + traced.outcome.failed,
                end_to_end.attempted + traced.outcome.attempted
            );
            ok &= end_to_end.failed == 0 && traced.outcome.failed == 0;
            write_result(&format!("trace_{}.json", kind.name()), &traced.trace_json);
            values.push(end_to_end.readings.iter().map(|r| r.value).collect());
            entries.push(format!(
                "\"{}\": {}",
                kind.name(),
                report::workload_json(&end_to_end, &traced)
            ));
        }
        sets.push(values);
        write_result(
            "latest.json",
            &format!(
                "{{\"seed\": {}, \"seconds\": {}, \"workloads\": {{\n{}\n}}}}\n",
                args.seed,
                args.seconds,
                entries.join(",\n")
            ),
        );
    }
    if sets.len() > 1 {
        ok &= sets_agree(&sets);
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// The `--repeat` self-check: for every workload and end-to-end metric,
/// the spread of the sets' values — the distance between their quartiles
/// as a share of their median, the measure a driver applies to its own
/// runs — next to the metric's bound.
fn sets_agree(sets: &[Vec<Vec<f64>>]) -> bool {
    println!("== agreement of {} sets ==", sets.len());
    let mut ok = true;
    for (w, kind) in Kind::ALL.iter().enumerate() {
        for (m, metric) in metrics::END_TO_END.iter().enumerate() {
            let values: Vec<f64> = sets.iter().map(|set| set[w][m]).collect();
            let spread = stats::Summary::of(&values).map_or(0.0, |s| s.spread());
            let within = spread <= metric.bound;
            ok &= within;
            println!(
                "  {:<16} {:<20} ({} is better) spread {:>6.2} %  bound {:>5.1} %  {}",
                kind.name(),
                metric.name,
                metric.better.name(),
                100.0 * spread,
                100.0 * metric.bound,
                if within { "ok" } else { "EXCEEDED" }
            );
        }
    }
    ok
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(why) => {
            eprintln!("{why}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match args.workload {
        Some(kind) => run_one(kind, &args),
        None => run_all(&args),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(line: &str) -> Result<Args, String> {
        parse_args(line.split_whitespace().map(String::from))
    }

    #[test]
    fn the_driver_command_line_parses() {
        let args = parse("--workload tap_mixed --seed 42 --seconds 8 --trace 1").unwrap();
        assert_eq!(args.workload, Some(Kind::TapMixed));
        assert_eq!((args.seed, args.seconds, args.trace), (42, 8.0, true));
        let all = parse("--seed 3 --repeat 2").unwrap();
        assert_eq!((all.workload, all.repeat), (None, 2));
    }

    #[test]
    fn bad_command_lines_are_refused() {
        for line in [
            "--workload nope",
            "--seed",
            "--seed x",
            "--seconds 0",
            "--seconds 61",
            "--trace 2",
            "--repeat 0",
            "--workload tap_mixed --repeat 2",
            "--frobnicate 1",
        ] {
            assert!(parse(line).is_err(), "{line}");
        }
    }
}
