//! Integration: cross-cutting invariants of the analysis pipeline that must
//! hold for *every* workload — conservation laws, ordering properties, and
//! consistency between the two views of a run (full trace, analyzer).

mod common;

use common::exemplars::exemplars;
use vani_suite::storage::FaultPlan;
use vani_suite::vani::analyzer::Analysis;
use vani_suite::vani::{tables, yaml};
use vani_suite::workloads::WorkloadKind;

fn all_runs() -> Vec<exemplar_workloads::WorkloadRun> {
    let runs = exemplars(&WorkloadKind::ALL[..6], 11, &FaultPlan::none());
    runs.into_iter().map(|(_, run)| run).collect()
}

#[test]
fn histograms_and_timelines_conserve_bytes_for_all_workloads() {
    for run in all_runs() {
        let a = Analysis::from_run(&run);
        let name = a.kind.name();
        // Request-size histogram mass == interface-layer bytes moved.
        assert_eq!(
            a.profile.req_sizes.sum(),
            (a.profile.read_bytes + a.profile.write_bytes) as u128,
            "{name}: histogram mass"
        );
        // Timeline integral == bytes moved (within float tolerance).
        let tl = a.profile.read_timeline.total() + a.profile.write_timeline.total();
        let expect = (a.profile.read_bytes + a.profile.write_bytes) as f64;
        assert!(
            (tl - expect).abs() <= 1e-6 * expect.max(1.0),
            "{name}: timeline {tl} vs {expect}"
        );
    }
}

#[test]
fn phases_are_ordered_and_cover_all_interface_ops() {
    for run in all_runs() {
        let a = Analysis::from_run(&run);
        let name = a.kind.name();
        // Phases sorted by start and non-empty.
        for w in a.profile.phases.windows(2) {
            assert!(w[0].start <= w[1].start, "{name}: phases out of order");
        }
        // Every interface-layer data op is inside some phase:
        // total data ops across phases == analyzer's data op count.
        let phase_data: u64 = a.profile.phases.iter().map(|p| p.data_ops).sum();
        assert_eq!(phase_data, a.profile.data_ops, "{name}: phase data ops");
        let phase_meta: u64 = a.profile.phases.iter().map(|p| p.meta_ops).sum();
        assert_eq!(phase_meta, a.profile.meta_ops, "{name}: phase meta ops");
        // Phase byte totals match too.
        let phase_bytes: u64 = a.profile.phases.iter().map(|p| p.bytes).sum();
        assert_eq!(
            phase_bytes,
            a.profile.read_bytes + a.profile.write_bytes,
            "{name}: phase bytes"
        );
    }
}

#[test]
fn file_profiles_partition_interface_bytes() {
    for run in all_runs() {
        let a = Analysis::from_run(&run);
        let name = a.kind.name();
        let file_read: u64 = a.profile.files.iter().map(|f| f.read_bytes).sum();
        let file_write: u64 = a.profile.files.iter().map(|f| f.write_bytes).sum();
        assert_eq!(file_read, a.profile.read_bytes, "{name}: per-file reads");
        assert_eq!(file_write, a.profile.write_bytes, "{name}: per-file writes");
        // FPP + shared partition the file set.
        assert_eq!(
            a.profile.fpp_files() + a.profile.shared_files(),
            a.profile.files.len(),
            "{name}: partition"
        );
    }
}

#[test]
fn yaml_characterization_round_trips_for_all_workloads() {
    for run in all_runs() {
        let a = Analysis::from_run(&run);
        let ents = tables::entities_for(&a);
        let out = yaml::emit(&ents);
        let parsed = yaml::parse_summary(&out);
        assert_eq!(parsed.len(), ents.len(), "{}: entity count", a.kind.name());
        for ((ty, _, n_attrs), ent) in parsed.iter().zip(&ents) {
            assert_eq!(ty, ent.etype.label());
            assert_eq!(*n_attrs, ent.attrs.len());
        }
    }
}

#[test]
fn granularity_brackets_every_histogram_bucket_mass() {
    for run in all_runs() {
        let a = Analysis::from_run(&run);
        let (lo, hi) = a.profile.granularity();
        assert!(lo <= hi, "{}: granularity order", a.kind.name());
        // The granularity bracket stays within the observed bucket range.
        if a.profile.req_sizes.total() > 0 {
            let buckets: Vec<u64> = a.profile.req_sizes.iter().map(|(b, _)| b).collect();
            let min_b = *buckets.first().expect("non-empty");
            let max_b = *buckets.last().expect("non-empty");
            assert!(
                lo >= min_b,
                "{}: lo {lo} < min bucket {min_b}",
                a.kind.name()
            );
            assert!(
                hi <= max_b,
                "{}: hi {hi} > max bucket {max_b}",
                a.kind.name()
            );
        }
    }
}

#[test]
fn trace_records_are_well_formed_everywhere() {
    for run in all_runs() {
        let name = run.kind.name();
        for r in run.world.tracer.columnar().to_records() {
            assert!(r.end >= r.start, "{name}: negative duration record {r:?}");
            if r.op.is_meta() {
                assert_eq!(r.bytes, 0, "{name}: metadata op moved bytes {r:?}");
            }
            if r.op.is_data() {
                assert!(r.file.is_some(), "{name}: data op without a file {r:?}");
            }
        }
    }
}

#[test]
fn tables_render_consistently_for_the_full_column_set() {
    let analyses: Vec<Analysis> = all_runs().iter().map(Analysis::from_run).collect();
    let cols: Vec<&Analysis> = analyses.iter().collect();
    for t in [
        tables::table1(&cols),
        tables::table3(&cols),
        tables::table4(&cols),
        tables::table5(&cols),
        tables::table6(&cols),
        tables::table10(&cols),
        tables::table11(&cols),
    ] {
        // Header has 7 columns (attribute + six workloads); every row too.
        assert_eq!(t.header.len(), 7, "{}", t.title);
        for row in &t.rows {
            assert_eq!(row.len(), 7, "{}: row {:?}", t.title, row);
        }
        let rendered = t.render();
        assert!(rendered.lines().count() >= t.rows.len() + 2);
    }
}
