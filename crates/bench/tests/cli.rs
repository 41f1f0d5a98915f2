//! Exit codes of the `repro` binary on bad input: every invalid name,
//! flag, file or `VANI_SCALE` is rejected with exit 2 before any
//! simulation runs.

use std::process::{Command, Output};

fn repro(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .output()
        .expect("repro runs")
}

/// Asserts `out` exited 2 with nothing on stdout and before any
/// simulation started; returns its stderr.
fn refused(out: &Output) -> String {
    assert_eq!(out.status.code(), Some(2));
    assert!(
        out.stdout.is_empty(),
        "{}",
        String::from_utf8_lossy(&out.stdout)
    );
    let err = String::from_utf8_lossy(&out.stderr).into_owned();
    assert!(!err.contains("running"), "{err}");
    err
}

#[test]
fn unknown_artifact_exits_2_with_usage_and_no_output() {
    // `bench-pipeline` was an artifact once; it is gone, not aliased.
    for name in ["nope", "bench-pipeline"] {
        let err = refused(&repro(&[name]));
        assert!(err.contains(&format!("unknown artifact: {name}")), "{err}");
        assert!(err.contains("usage:"), "{err}");
    }
}

#[test]
fn a_flag_no_named_artifact_takes_exits_2_with_usage() {
    for args in [
        &["table1", "--jobs", "3", "--short"][..],
        &["--short"],
        &["all", "--node-faults"],
        &["fleet-sweep", "--bogus"],
    ] {
        let err = refused(&repro(args));
        assert!(err.contains("usage:"), "{args:?}: {err}");
    }
}

#[test]
fn invalid_fleet_flag_values_exit_2_naming_the_flag() {
    for (args, flag) in [
        (&["fleet-sweep", "--jobs", "0"][..], "--jobs"),
        (&["fleet-sweep", "--jobs=ten"], "--jobs"),
        (
            &["fleet-sweep", "--spill", "/nonexistent/vani/spill"],
            "--spill",
        ),
    ] {
        let err = refused(&repro(args));
        assert!(err.contains(flag), "{args:?}: {err}");
    }
}

#[test]
fn bad_vani_scale_exits_2_naming_the_variable() {
    for bad in ["abc", "0", "-1", "NaN", "inf"] {
        let out = Command::new(env!("CARGO_BIN_EXE_repro"))
            .arg("table1")
            .env("VANI_SCALE", bad)
            .output()
            .expect("repro runs");
        let err = refused(&out);
        assert!(err.contains("VANI_SCALE") && err.contains(bad), "{err}");
    }
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
