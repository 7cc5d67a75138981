//! The `monitor` binary's command line, run as a process:
//!
//! * a short synthetic run exits 0 and every JSON line on stdout is a
//!   typed event, window reports among them;
//! * input the flags cannot accept — a retired mode, an idle timeout
//!   that does not fit in microseconds, a zero-length feed, an alert bar
//!   that is not a number, a zero window — exits 2 with usage on stderr
//!   and never reaches an assert further in;
//! * a fixed synthetic run prints the same bytes under every `--method`
//!   as the digests recorded here, and on two shard workers as inline.

#![allow(
    clippy::expect_used,
    reason = "test helpers outside #[test] fail fast, as the tests they serve do"
)]

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

/// 64-bit FNV-1a: a digest of the whole stdout, so a refactor that moves
/// one event or one digit shows here.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// The output rule: a change that is not meant to alter what the monitor
/// reports leaves these digests as they are. An auto method picks the RTP
/// variant for the synthetic RTP flows, so it prints what that variant
/// prints.
#[test]
fn synthetic_run_output_is_pinned_per_method() {
    let run = "--synthetic 5 --calls 2 --alert-fps 40 --method";
    for (method, digest) in [
        ("auto", 0x9124_7e41_8fd7_beaa_u64),
        ("auto-ml", 0x5e02_3279_4a23_4a17),
        ("ipudp-heuristic", 0x44b4_347b_e578_5258),
        ("ipudp-ml", 0x36db_3303_2bd6_c2b6),
        ("rtp-heuristic", 0x9124_7e41_8fd7_beaa),
        ("rtp-ml", 0x5e02_3279_4a23_4a17),
    ] {
        let out = monitor(&format!("{run} {method}"));
        assert!(
            out.status.success(),
            "{method}: exit {:?}",
            out.status.code()
        );
        assert_eq!(
            fnv1a(&out.stdout),
            digest,
            "{method}: stdout changed:\n{}",
            String::from_utf8_lossy(&out.stdout)
        );
    }
    let inline = monitor(&format!("{run} auto"));
    let threaded = monitor(&format!("{run} auto --threads 2"));
    assert!(
        threaded.status.success(),
        "exit {:?}",
        threaded.status.code()
    );
    assert_eq!(
        fnv1a(&threaded.stdout),
        fnv1a(&inline.stdout),
        "two shard workers print what one inline monitor prints"
    );
}
