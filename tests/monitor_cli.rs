//! The `monitor` binary's command line, run as a process:
//!
//! * a short synthetic run exits 0 and every JSON line on stdout is a
//!   typed event, window reports among them;
//! * input the flags cannot accept — a retired mode, an idle timeout
//!   that does not fit in microseconds, a zero-length feed, an alert bar
//!   that is not a number, a zero window — exits 2 with usage on stderr
//!   and never reaches an assert further in.

use std::process::{Command, Output};

fn monitor(command_line: &str) -> Output {
    Command::new(env!("CARGO_BIN_EXE_monitor"))
        .args(command_line.split_whitespace())
        .output()
        .expect("run the monitor binary")
}

#[test]
fn synthetic_run_prints_typed_event_lines() {
    let out = monitor("--synthetic 2 --calls 1");
    assert!(out.status.success(), "exit {:?}", out.status.code());
    let stdout = String::from_utf8(out.stdout).expect("stdout is UTF-8");
    let events: Vec<&str> = stdout.lines().filter(|l| l.starts_with('{')).collect();
    for line in &events {
        assert!(line.contains("\"type\""), "untyped line: {line}");
    }
    assert!(
        events
            .iter()
            .any(|l| l.contains("\"type\":\"window_report\"")),
        "no window_report among {} lines",
        events.len()
    );
}

#[test]
fn bad_input_exits_2_with_usage_not_a_panic() {
    for command_line in [
        "--bench-summary a.json b.json",
        "--synthetic 2 --calls 1 --idle-timeout 9223372036855",
        "--synthetic 0 --calls 1",
        "--synthetic 2 --calls 1 --alert-fps inf",
        "--synthetic 2 --calls 1 --window 0",
    ] {
        let out = monitor(command_line);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{command_line}: {stderr}");
        assert!(stderr.contains("usage:"), "{command_line}: {stderr}");
        assert!(!stderr.contains("panicked"), "{command_line}: {stderr}");
    }
}
