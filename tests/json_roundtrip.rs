//! Integration: the persisted form of a columnar trace is canonical.
//! Traces are not JSON: the v4 spill log is the one on-disk trace format
//! (DESIGN.md §16). A trace persisted twice writes the same bytes, and
//! save → load → save is a fixed point whether the reload goes back
//! through whole columns or chunk by chunk.

use std::fs;
use std::path::PathBuf;

use vani_suite::recorder::chunk::DEFAULT_CHUNK_ROWS;
use vani_suite::recorder::spill::{load_spill, spill_columnar, SpillFaultPlan, SpillWriter};
use vani_suite::workloads as wl;

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("vani_json_roundtrip");
    fs::create_dir_all(&dir).expect("create temp dir");
    dir.join(name)
}

#[test]
fn columnar_persistence_is_canonical() {
    let run = wl::cm1::run(0.005, 3);
    let c = run.columnar();
    let p1 = tmp("c1.vsp4");
    let p2 = tmp("c2.vsp4");
    let p3 = tmp("c3.vsp4");
    let p4 = tmp("c4.vsp4");

    // Saving the same columns twice writes identical bytes.
    spill_columnar(&c, DEFAULT_CHUNK_ROWS, &p1, SpillFaultPlan::none()).expect("first save");
    spill_columnar(&c, DEFAULT_CHUNK_ROWS, &p2, SpillFaultPlan::none()).expect("second save");
    let bytes = fs::read(&p1).expect("read first save");
    assert!(
        fs::read(&p2).expect("read second save") == bytes,
        "saving the same trace twice must write the same bytes"
    );

    // save → load → save through whole columns.
    let loaded = load_spill(&p1).expect("strict load");
    let columns = loaded.to_columnar().expect("decodes");
    assert_eq!(columns, c);
    spill_columnar(&columns, DEFAULT_CHUNK_ROWS, &p3, SpillFaultPlan::none())
        .expect("respill columns");
    assert!(
        fs::read(&p3).expect("read respill") == bytes,
        "respilled columns must write the same bytes"
    );

    // save → load → save chunk by chunk, without re-encoding.
    let mut w =
        SpillWriter::create(&p4, loaded.chunk_rows, SpillFaultPlan::none()).expect("create writer");
    w.intern(&loaded.file_paths, &loaded.app_names)
        .expect("intern tables");
    for ch in &loaded.chunks {
        w.append(ch, &loaded.file_paths, &loaded.app_names)
            .expect("append loaded chunk");
    }
    w.finish().expect("seal");
    assert!(
        fs::read(&p4).expect("read rewrite") == bytes,
        "re-appended chunks must write the same bytes"
    );

    for p in [&p1, &p2, &p3, &p4] {
        fs::remove_file(p).expect("remove spill log");
    }
}
