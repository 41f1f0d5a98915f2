//! Torture suite for the crash-consistent spill store: every injected
//! fault class, at several target chunks, must leave a log that recovery
//! walks without panicking, salvaging exactly the longest committed
//! prefix with a typed diagnostic — and analyzing that recovered prefix
//! must be bit-identical to in-memory streaming over the same records at
//! any worker count.
//!
//! Fault classes (see `recorder_sim::spill::SpillFaultKind`):
//!
//! * `TornFinalWrite` — footer torn, process dies: all chunks survive,
//!   the log is unsealed, and the torn footer is quarantined as damage.
//! * `PartialAppend` — a chunk frame cut mid-write: the prefix before it
//!   survives, the torn frame is quarantined.
//! * `Enospc` — typed resource error; the RAII guard leaves no litter.
//! * `BitFlip` — latent corruption: the file seals normally and the flip
//!   only surfaces as a checksum quarantine when a reader verifies.
//! * `CrashBeforeCommit` — chunk written, no commit marker: the chunk is
//!   readable but quarantined (no fsync ordering covers it).
//!
//! One worker-sweep `#[test]` on purpose: `rt::par::set_threads` is
//! process-global, so the sweep must not interleave with itself.

use std::path::{Path, PathBuf};

use vani_suite::recorder::chunk::ChunkedTrace;
use vani_suite::recorder::spill::{
    fsck, spill_columnar, QuarantineReason, SpillError, SpillFaultKind, SpillFaultPlan, SpillSource,
};
use vani_suite::recorder::ColumnarTrace;
use vani_suite::rt::par;
use vani_suite::sim::Dur;
use vani_suite::vani::analyzer::TraceProfile;
use vani_suite::workloads as wl;

/// A fresh temp directory per test (test name plus pid): the tests run in
/// parallel and write logs with the same file names, so a shared
/// directory would let one test delete a log another is still reading.
fn tmp_dir(test: &str) -> PathBuf {
    let dir = std::env::temp_dir()
        .join("vani_spill_torture")
        .join(format!("{test}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

/// One capture shared by every fault case: a real workload trace sealed
/// into enough chunks that prefix boundaries are interesting.
fn capture() -> (ColumnarTrace, Dur, usize) {
    let run = wl::hacc::run(0.01, 5);
    let c = run.columnar();
    let chunk_rows = (c.len() / 7).max(16);
    (c, run.runtime(), chunk_rows)
}

/// Inject `kind` at `target`, return the surviving log's path and the
/// number of chunks recovery must commit. Asserts the capture-side
/// contract of each class (typed error vs sealed file) on the way.
fn tortured_log(
    dir: &Path,
    c: &ColumnarTrace,
    chunk_rows: usize,
    n_chunks: u64,
    kind: SpillFaultKind,
    target: u64,
) -> (PathBuf, u64) {
    let path = dir.join(format!("{}-{target}.vsp3", kind.name()));
    let plan = SpillFaultPlan::at_chunk(kind, 0x7042_0000 ^ target, target);
    match spill_columnar(c, chunk_rows, &path, plan) {
        // Latent fault: the write path never notices a bit flip.
        Ok(sum) => {
            assert_eq!(
                kind,
                SpillFaultKind::BitFlip,
                "only BitFlip seals successfully"
            );
            (sum.path, target)
        }
        Err(SpillError::Injected { fault, path }) => {
            assert_eq!(fault, kind, "injected fault reports its own class");
            let committed = match kind {
                // The footer tears after every chunk committed.
                SpillFaultKind::TornFinalWrite => n_chunks,
                // The torn / uncommitted chunk itself is lost.
                SpillFaultKind::PartialAppend | SpillFaultKind::CrashBeforeCommit => target,
                SpillFaultKind::Enospc | SpillFaultKind::BitFlip => {
                    unreachable!("not crash-class")
                }
            };
            (path, committed)
        }
        Err(e) => panic!("{kind}: unexpected spill error {e}"),
    }
}

/// The tentpole acceptance gate: every fault point recovers the longest
/// committed prefix (never a panic), and analyzing the recovered prefix
/// off disk equals in-memory streaming over the same records at 1, 2,
/// and 8 workers.
#[test]
fn every_fault_class_recovers_the_longest_committed_prefix_at_all_worker_counts() {
    let dir = tmp_dir("every_fault_class");
    let (c, rt, chunk_rows) = capture();
    let mem = ChunkedTrace::from_columnar(&c, chunk_rows);
    let n_chunks = mem.chunks.len() as u64;
    assert!(n_chunks >= 6, "need several chunks to torture prefixes");

    // (fault, target) cases: crash-class and latent faults at the first,
    // an early, a middle, and the last chunk. TornFinalWrite fires at
    // finish regardless of target, so one case suffices.
    let mut cases: Vec<(SpillFaultKind, u64)> = vec![(SpillFaultKind::TornFinalWrite, 0)];
    for kind in [
        SpillFaultKind::PartialAppend,
        SpillFaultKind::CrashBeforeCommit,
        SpillFaultKind::BitFlip,
    ] {
        for target in [0, 1, n_chunks / 2, n_chunks - 1] {
            cases.push((kind, target));
        }
    }

    // Torture once per case; profile the recovered prefix at every
    // worker count against the in-memory truncation oracle.
    let mut recovered: Vec<(String, SpillSource, ChunkedTrace)> = Vec::new();
    for &(kind, target) in &cases {
        let (path, committed) = tortured_log(&dir, &c, chunk_rows, n_chunks, kind, target);
        let src = SpillSource::open_salvaged(&path)
            .unwrap_or_else(|e| panic!("{kind}@{target}: recovery must not fail: {e}"));
        assert_eq!(
            src.report().committed_chunks,
            committed,
            "{kind}@{target}: longest committed prefix"
        );
        assert!(
            !src.report().is_clean(),
            "{kind}@{target}: a tortured log is never clean"
        );
        assert!(
            !src.report().completeness.is_complete(),
            "{kind}@{target}: damage is never provably complete"
        );
        let truncated = ChunkedTrace {
            chunk_rows,
            chunks: mem.chunks[..committed as usize].to_vec(),
            file_paths: mem.file_paths.clone(),
            app_names: mem.app_names.clone(),
        };
        assert_eq!(
            src.len(),
            truncated.len() as u64,
            "{kind}@{target}: recovered record count"
        );
        recovered.push((format!("{kind}@{target}"), src, truncated));
    }

    for workers in [1usize, 2, 8] {
        par::set_threads(workers);
        for (label, src, truncated) in &recovered {
            let off_disk = TraceProfile::streaming_source(src, rt)
                .unwrap_or_else(|e| panic!("{label}: off-disk streaming failed: {e}"));
            let in_mem = TraceProfile::streaming(truncated, rt);
            assert_eq!(
                off_disk, in_mem,
                "{label}: recovered analysis diverged from the in-memory truncation at {workers} workers"
            );
        }
    }
    par::set_threads(0); // back to auto

    for (_, src, _) in &recovered {
        std::fs::remove_file(src.path()).expect("remove tortured log");
    }
    std::fs::remove_dir_all(&dir).expect("remove temp dir");
}

/// Each fault class quarantines with the reason that names it: torn
/// frames read as damage, an uncommitted chunk reads as uncommitted, a
/// bit flip reads as a checksum failure — and `fsck` never panics on any
/// of them.
#[test]
fn fsck_diagnostics_name_the_fault_class() {
    let dir = tmp_dir("fsck_diagnostics");
    let (c, _, chunk_rows) = capture();
    let mem = ChunkedTrace::from_columnar(&c, chunk_rows);
    let n_chunks = mem.chunks.len() as u64;
    let target = n_chunks / 2;

    for kind in [
        SpillFaultKind::TornFinalWrite,
        SpillFaultKind::PartialAppend,
        SpillFaultKind::CrashBeforeCommit,
        SpillFaultKind::BitFlip,
    ] {
        let (path, _) = tortured_log(&dir, &c, chunk_rows, n_chunks, kind, target);
        let report = fsck(&path).unwrap_or_else(|e| panic!("{kind}: fsck must not fail: {e}"));
        assert!(!report.sealed, "{kind}: a tortured log never reads sealed");
        let q = report
            .quarantined
            .first()
            .unwrap_or_else(|| panic!("{kind}: damage must be quarantined"));
        match kind {
            SpillFaultKind::CrashBeforeCommit => {
                assert_eq!(q.reason, QuarantineReason::Uncommitted, "{kind}")
            }
            SpillFaultKind::BitFlip => {
                assert_eq!(q.reason, QuarantineReason::BadChecksum, "{kind}")
            }
            SpillFaultKind::TornFinalWrite | SpillFaultKind::PartialAppend => assert_ne!(
                q.reason,
                QuarantineReason::Uncommitted,
                "{kind}: a torn frame is damage, not a clean uncommitted tail"
            ),
            SpillFaultKind::Enospc => unreachable!(),
        }
        std::fs::remove_file(&path).expect("remove tortured log");
    }
    std::fs::remove_dir_all(&dir).expect("remove temp dir");
}

/// ENOSPC is an environmental error, not a crash: the writer surfaces a
/// typed error, the RAII guard removes the temp file, and neither the
/// temp nor the final log exists afterwards.
#[test]
fn enospc_is_typed_and_leaves_no_files_behind() {
    let dir = tmp_dir("enospc");
    let (c, _, chunk_rows) = capture();
    let path = dir.join("enospc-case.vsp3");
    let plan = SpillFaultPlan::at_chunk(SpillFaultKind::Enospc, 1, 2);
    match spill_columnar(&c, chunk_rows, &path, plan) {
        Err(SpillError::Enospc { at_bytes }) => {
            assert!(at_bytes > 0, "the device filled after the preamble");
        }
        other => panic!("ENOSPC must be typed, got {other:?}"),
    }
    assert!(!path.exists(), "no final log after ENOSPC");
    let mut tmp_name = path.as_os_str().to_os_string();
    tmp_name.push(".tmp");
    assert!(
        !PathBuf::from(tmp_name).exists(),
        "the RAII guard removes the temp file"
    );
    std::fs::remove_dir_all(&dir).expect("remove temp dir");
}
