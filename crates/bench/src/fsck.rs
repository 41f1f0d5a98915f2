//! `repro -- trace-fsck PATH`: offline recovery check for a spill log.
//!
//! Walks the crash-consistent segment log at `PATH`, recovers the longest
//! committed prefix, and renders the [`FsckReport`] as plain text — the
//! operator-facing view of what `SpillSource::open_salvaged` would load.
//! A path that does not exist, is not a spill log, or cannot be read
//! surfaces as a typed [`SpillError`] so the binary exits 2 with a
//! message, mirroring the `--jobs` / `--spill` validation contract.

use std::path::Path;

use recorder_sim::spill::fsck;
use recorder_sim::{FsckReport, SpillError};

/// Walk the log at `path` and render its recovery report.
pub fn run_fsck(path: &str) -> Result<String, SpillError> {
    let report = fsck(Path::new(path))?;
    Ok(render_report(path, &report))
}

/// Render an [`FsckReport`] the way `repro -- trace-fsck` prints it.
pub(crate) fn render_report(path: &str, r: &FsckReport) -> String {
    let c = r.completeness;
    let verdict = if r.is_clean() {
        "clean (sealed, fully committed, no anomalies)".to_string()
    } else if c.loaded_records == 0 && c.expected_records > 0 {
        "lost (no committed prefix survived)".to_string()
    } else {
        format!(
            "salvaged (longest committed prefix: {} of {} records)",
            c.loaded_records, c.expected_records
        )
    };
    let mut out = String::from("== trace-fsck: spill log recovery\n");
    out.push_str(&format!("path    : {path}\n"));
    out.push_str(&format!("verdict : {verdict}\n"));
    out.push_str(&format!(
        "sealed  : {}\n",
        if r.sealed {
            "yes (footer found)"
        } else {
            "no (writer did not finish)"
        }
    ));
    out.push_str(&format!(
        "recovered: {} chunks, {} records ({:.4} of expected)\n",
        r.committed_chunks,
        r.committed_records,
        c.fraction()
    ));
    out.push_str(&format!("fsync points observed: {}\n", r.fsync_points));
    if r.quarantined.is_empty() {
        out.push_str("quarantined segments: none\n");
    } else {
        out.push_str(&format!("quarantined segments: {}\n", r.quarantined.len()));
        for q in &r.quarantined {
            out.push_str(&format!(
                "  frame {:>4} @ byte {:>10}: {}\n",
                q.frame, q.offset, q.reason
            ));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fsck_on_a_missing_path_is_a_typed_error() {
        match run_fsck("/nonexistent/vani/trace.vsp3") {
            Err(SpillError::Io { .. }) => {}
            other => panic!("missing path must be a typed Io error, got {other:?}"),
        }
    }

    #[test]
    fn fsck_on_a_non_spill_file_is_a_typed_error() {
        let path = std::env::temp_dir().join("vani-fsck-not-a-log.json");
        std::fs::write(&path, b"{\"not\": \"a spill log\"}").expect("write probe");
        match run_fsck(path.to_str().expect("utf8 temp path")) {
            Err(SpillError::NotSpill { .. }) => {}
            other => panic!("non-spill file must be NotSpill, got {other:?}"),
        }
        std::fs::remove_file(&path).expect("cleanup");
    }

    #[test]
    fn clean_log_renders_a_clean_verdict() {
        use recorder_sim::{Layer, OpKind, SpillFaultPlan, Tracer};
        use sim_core::SimTime;

        let mut t = Tracer::new();
        let f = t.file_id("/p/gpfs1/x");
        let a = t.app_id("app");
        for i in 0..300u64 {
            t.record(
                (i % 4) as u32,
                (i % 2) as u32,
                a,
                Layer::Posix,
                OpKind::Write,
                SimTime(i),
                SimTime(i + 9),
                Some(f),
                4,
                64 + i,
            );
        }
        let c = t.to_columnar();
        let path = std::env::temp_dir().join("vani-fsck-clean.vsp3");
        recorder_sim::spill::spill_columnar(&c, 64, &path, SpillFaultPlan::none())
            .expect("clean spill");
        let text = run_fsck(path.to_str().expect("utf8 temp path")).expect("fsck clean log");
        assert!(text.contains("verdict : clean"), "render: {text}");
        assert!(
            text.contains("quarantined segments: none"),
            "render: {text}"
        );
        let loaded = recorder_sim::spill::load_spill(&path).expect("load clean log");
        assert_eq!(loaded.len(), 300);
        std::fs::remove_file(&path).expect("cleanup");
    }
}
