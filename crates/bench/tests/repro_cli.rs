//! The `repro` binary's command line, run as a process:
//!
//! * input it cannot act on — a trailing `--out` with no directory, an
//!   unknown experiment id — exits 2 and names the problem on stderr;
//! * `--list` prints the whole registry, one id per line;
//! * a run of one experiment exits 0 and writes its JSON artifact into
//!   the `--out` directory;
//! * an `--out` that cannot be a directory exits 1 and names the path.

#![allow(
    clippy::expect_used,
    reason = "test helpers outside #[test] fail fast, as the tests they serve do"
)]

use std::process::{Command, Output};

fn repro(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .output()
        .expect("run the repro binary")
}

#[test]
fn trailing_out_without_a_directory_exits_2_with_usage() {
    let out = repro(&["--scale", "small", "ta6", "--out"]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(stderr.contains("usage:"), "{stderr}");
}

#[test]
fn unknown_id_exits_2() {
    let out = repro(&["--scale", "small", "no-such-figure"]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(stderr.contains("no-such-figure"), "{stderr}");
}

#[test]
fn list_prints_every_experiment_id() {
    let out = repro(&["--list"]);
    assert!(out.status.success(), "exit {:?}", out.status.code());
    let stdout = String::from_utf8(out.stdout).expect("stdout is UTF-8");
    assert_eq!(stdout.lines().count(), 40, "{stdout}");
}

#[test]
fn one_experiment_writes_its_artifact_into_out() {
    let dir = std::env::temp_dir().join(format!("vcaml_repro_cli_{}", std::process::id()));
    let out = repro(&[
        "--scale",
        "small",
        "--out",
        dir.to_str().expect("UTF-8 path"),
        "ta6",
    ]);
    assert!(
        out.status.success(),
        "exit {:?}: {}",
        out.status.code(),
        String::from_utf8_lossy(&out.stderr)
    );
    let artifact = std::fs::read_to_string(dir.join("ta6.json")).expect("ta6.json written");
    std::fs::remove_dir_all(&dir).expect("remove the output directory");
    assert!(artifact.contains("\"dim\""), "{artifact}");
}

#[test]
fn out_on_a_regular_file_exits_1_with_the_path() {
    let file = std::env::temp_dir().join(format!("vcaml_repro_cli_file_{}", std::process::id()));
    std::fs::write(&file, "not a directory").expect("create the blocking file");
    let path = file.to_str().expect("UTF-8 path");
    let out = repro(&["--scale", "small", "--out", path, "ta6"]);
    std::fs::remove_file(&file).expect("remove the blocking file");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(stderr.contains(path), "{stderr}");
}
