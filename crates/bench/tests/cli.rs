//! Exit codes of the `repro` binary on bad input: every invalid name or
//! file is rejected with exit 2 before any simulation runs.

use std::process::{Command, Output};

fn repro(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .output()
        .expect("repro runs")
}

#[test]
fn unknown_artifact_exits_2_with_usage_and_no_output() {
    let out = repro(&["nope"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(
        out.stdout.is_empty(),
        "{}",
        String::from_utf8_lossy(&out.stdout)
    );
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("unknown artifact: nope"), "{err}");
    assert!(err.contains("usage:"), "{err}");
}

#[test]
fn unknown_artifact_after_a_known_one_exits_2_before_simulating() {
    let out = repro(&["table1", "nope"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(
        out.stdout.is_empty(),
        "{}",
        String::from_utf8_lossy(&out.stdout)
    );
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(!err.contains("running the six"), "{err}");
}

#[test]
fn trace_fsck_on_a_v3_log_exits_2_naming_the_version() {
    let dir = std::env::temp_dir().join(format!("vani-cli-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("mkdir");
    let path = dir.join("old.vsp3");
    let mut preamble = b"vanispill3\n".to_vec();
    preamble.extend_from_slice(&64u64.to_le_bytes());
    std::fs::write(&path, &preamble).expect("writes");
    let out = repro(&["trace-fsck", path.to_str().expect("utf-8 path")]);
    std::fs::remove_dir_all(&dir).expect("cleanup");
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(
        err.contains("v3") && err.contains("no longer read"),
        "{err}"
    );
}
