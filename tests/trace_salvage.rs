//! Integration: trace-integrity salvage, end to end.
//!
//! A spill-log capture that loses its tail (truncation, including a cut
//! exactly at a commit boundary) or takes mid-file corruption still yields
//! the longest committed prefix, with a typed completeness diagnostic that
//! never claims the damaged log is complete; the analyzer and the
//! multipass oracle agree bit-for-bit on the salvaged columns, and the entity
//! YAML carries the completeness annotation. A crashed-and-recovered
//! run's trace — including its `Crash`/`RestartEpoch`/`Checkpoint`
//! records — survives the disk round-trip losslessly.

mod common;

use common::multipass::multipass;
use sim_core::SimTime;
use std::fs;
use std::path::{Path, PathBuf};
use storage_sim::FaultPlan;
use vani_suite::recorder::spill::{load_spill, load_spill_salvaged, spill_columnar};
use vani_suite::recorder::tracer::Tracer;
use vani_suite::recorder::{ColumnarTrace, SpillError, SpillFaultPlan, TraceCompleteness};
use vani_suite::vani::analyzer::{Analysis, TraceProfile};
use vani_suite::vani::{tables, yaml};
use vani_suite::workloads as wl;

/// Rows per chunk: small, so a test-scale capture spans many chunks and
/// every cut lands well inside the frame stream.
const CHUNK_ROWS: usize = 64;

/// Spill-log frame kinds (see `recorder::spill`).
const FRAME_CHUNK: u8 = 1;
const FRAME_COMMIT: u8 = 3;

fn temp_path(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("vani_trace_salvage");
    fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

/// Spill `c` to `path` in [`CHUNK_ROWS`]-row chunks and return the log's
/// bytes.
fn spilled(c: &ColumnarTrace, path: &Path) -> Vec<u8> {
    spill_columnar(c, CHUNK_ROWS, path, SpillFaultPlan::none()).expect("clean spill");
    fs::read(path).unwrap()
}

/// Every frame of a spill log as `(kind, offset, payload_len)`, walked
/// past the 19-byte preamble.
fn frames(bytes: &[u8]) -> Vec<(u8, usize, usize)> {
    let mut out = Vec::new();
    let mut at = 19usize;
    while at < bytes.len() {
        let len = u64::from_le_bytes(bytes[at + 1..at + 9].try_into().unwrap()) as usize;
        out.push((bytes[at], at, len));
        at += 9 + len + 8;
    }
    out
}

/// Salvage the log at `path` into whole columns plus its diagnostic.
fn salvage(path: &Path) -> (ColumnarTrace, TraceCompleteness) {
    let (t, tc) = load_spill_salvaged(path).expect("salvage never fails on damage");
    (t.to_columnar().expect("salvaged chunks decode"), tc)
}

#[test]
fn truncated_capture_salvages_a_consistent_prefix() {
    let run = wl::cm1::run(0.01, 11);
    let c = run.world.tracer.columnar();
    let path = temp_path("cm1.truncated.vsp4");
    let bytes = spilled(c, &path);

    // The writer died mid-frame: chop the capture two thirds in.
    fs::write(&path, &bytes[..bytes.len() * 2 / 3]).unwrap();

    // Strict loading refuses, pointing at the damage.
    let err = load_spill(&path).expect_err("strict load must fail");
    assert!(err.to_string().contains("byte"), "{err}");

    // Salvage recovers the longest committed prefix and says how much.
    let (salvaged, tc) = salvage(&path);
    fs::remove_file(&path).unwrap();
    assert!(
        tc.loaded_records > 0,
        "two thirds of a capture must salvage something"
    );
    assert!(!tc.is_complete());
    assert!(tc.fraction() < 1.0, "{tc:?}");
    assert!(tc.loaded_groups < tc.expected_groups);
    assert_eq!(tc.loaded_records as usize, salvaged.len());
    let original = c.to_records();
    assert_eq!(
        salvaged.to_records(),
        original[..salvaged.len()],
        "salvaged rows must be a prefix of the original capture"
    );

    // The fused analyzer and the multipass oracle agree on the salvaged
    // columns, and the YAML carries the completeness diagnostic.
    let mut partial = wl::cm1::run(0.01, 11);
    assert_eq!(
        TraceProfile::fused(&salvaged, partial.runtime()),
        multipass(&salvaged, partial.runtime()),
        "the analyzer and the multipass oracle must agree on salvaged traces"
    );
    partial.world.tracer = Tracer::from_columnar(salvaged);
    let fused = Analysis::from_run(&partial);

    let annotated = yaml::emit(&tables::entities_with_completeness(&fused, Some(&tc)));
    assert!(annotated.contains("trace_completeness"), "{annotated}");
    assert!(annotated.contains("trace_records_loaded"));
    assert!(annotated.contains("trace_records_expected"));
    // Without a diagnostic the emission is unchanged from the healthy path.
    let plain = yaml::emit(&tables::entities_for(&fused));
    assert!(!plain.contains("trace_completeness"));
}

/// A log cut exactly after a `COMMIT` frame holds no torn bytes at all:
/// every frame verifies and every chunk is committed. It is still an
/// unsealed log whose writer never finished, so salvage must load the
/// committed prefix and report it incomplete, at every commit boundary.
#[test]
fn every_commit_boundary_cut_salvages_an_incomplete_prefix() {
    let run = wl::cm1::run(0.01, 11);
    let c = run.world.tracer.columnar();
    let path = temp_path("cm1.commit-cut.vsp4");
    let bytes = spilled(c, &path);
    let original = c.to_records();

    let mut chunks = 0u64;
    let mut cuts = 0;
    for (kind, at, len) in frames(&bytes) {
        match kind {
            FRAME_CHUNK => chunks += 1,
            FRAME_COMMIT => {
                let end = at + 9 + len + 8;
                fs::write(&path, &bytes[..end]).unwrap();
                match load_spill(&path) {
                    Err(SpillError::Unsealed { committed_chunks }) => {
                        assert_eq!(committed_chunks, chunks)
                    }
                    other => panic!("cut at {end}: expected Unsealed, got {:?}", other.err()),
                }
                let (salvaged, tc) = salvage(&path);
                let want = (chunks as usize * CHUNK_ROWS).min(c.len());
                assert_eq!(salvaged.len(), want, "cut at {end}");
                assert_eq!(salvaged.to_records(), original[..want], "cut at {end}");
                assert_eq!(tc.loaded_records as usize, want, "cut at {end}");
                assert!(!tc.is_complete(), "cut at {end}: {tc:?}");
                assert!(tc.fraction() < 1.0, "cut at {end}: {tc:?}");
                cuts += 1;
            }
            _ => {}
        }
    }
    fs::remove_file(&path).unwrap();
    assert_eq!(cuts, c.len().div_ceil(CHUNK_ROWS), "one commit per chunk");
}

#[test]
fn corrupted_group_stops_salvage_at_the_last_verified_group() {
    let run = wl::cosmoflow::run(0.01, 11);
    let c = run.world.tracer.columnar();
    let path = temp_path("cosmo.corrupt.vsp4");
    let mut bytes = spilled(c, &path);

    // Flip one byte inside the last chunk frame's payload: the frame
    // checksum must catch it and salvage must stop at the preceding
    // chunk boundary.
    let (_, at, len) = *frames(&bytes)
        .iter()
        .rfind(|f| f.0 == FRAME_CHUNK)
        .expect("a chunk frame");
    bytes[at + 9 + len / 2] ^= 0x10;
    fs::write(&path, &bytes).unwrap();

    let err = load_spill(&path).expect_err("strict load must fail");
    assert!(err.to_string().contains("checksum"), "{err}");

    let (salvaged, tc) = salvage(&path);
    fs::remove_file(&path).unwrap();
    assert!(tc.loaded_groups < tc.expected_groups);
    assert!(!tc.is_complete());
    assert!(tc.fraction() < 1.0, "{tc:?}");
    assert_eq!(
        tc.loaded_records as usize,
        tc.loaded_groups as usize * CHUNK_ROWS,
        "salvage stops exactly on a sealed-chunk boundary"
    );
    assert!(salvaged.len() < c.len());
    assert_eq!(salvaged.to_records(), c.to_records()[..salvaged.len()]);
}

#[test]
fn crashed_run_trace_round_trips_with_resilience_attributes() {
    // A CM1 run killed halfway and recovered from its step checkpoints.
    let healthy = wl::cm1::run(0.01, 11);
    let at = SimTime::from_nanos(healthy.runtime().as_nanos() / 2);
    let mut p = wl::cm1::Cm1Params::scaled(0.01);
    p.faults = FaultPlan::none().with_rank_crash(0, at);
    let mut run = wl::cm1::run_with(p, 0.01, 11);

    let path = temp_path("cm1.crashed.vsp4");
    spilled(run.world.tracer.columnar(), &path);
    let reloaded = load_spill(&path).unwrap().to_columnar().unwrap();
    fs::remove_file(&path).unwrap();
    assert_eq!(&reloaded, run.world.tracer.columnar());

    // The analysis of the reloaded trace still carries the resilience
    // attributes the crash left behind.
    let direct = Analysis::from_run(&run);
    run.world.tracer = Tracer::from_columnar(reloaded);
    let roundtripped = Analysis::from_run(&run);
    assert_eq!(direct, roundtripped);
    assert!(direct.restart_count() > 0);
    let y = yaml::emit(&tables::entities_for(&roundtripped));
    assert!(y.contains("restart_count"));
    assert!(y.contains("recovery_time"));
}
