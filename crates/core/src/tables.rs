//! Regenerates the paper's Tables I–XI from analyzed runs.
//!
//! Each builder takes the six exemplar analyses (column order fixed by
//! [`crate::sweep::paper_six`]) and emits a [`Table`]
//! whose rows mirror the paper's attribute rows. The pretty-printer renders
//! aligned plain text for the `repro` harness.

use crate::analyzer::Analysis;
use crate::entities::{AttrValue, Entity, EntityType};
use exemplar_workloads::WorkloadKind;
use sim_core::units::{fmt_bytes, fmt_count};

/// A rendered table.
#[derive(Debug, Clone)]
pub struct Table {
    /// Table title ("Table I: High-Level I/O behavior of applications").
    pub title: String,
    /// Header row (first cell = attribute column).
    pub header: Vec<String>,
    /// Attribute rows.
    pub rows: Vec<Vec<String>>,
}

impl Table {
    fn new(title: &str, analyses: &[&Analysis]) -> Table {
        let mut header = vec!["Attribute".to_string()];
        header.extend(analyses.iter().map(|a| a.kind.name().to_string()));
        Table {
            title: title.to_string(),
            header,
            rows: Vec::new(),
        }
    }

    fn row(&mut self, name: &str, values: Vec<String>) {
        let mut r = vec![name.to_string()];
        r.extend(values);
        self.rows.push(r);
    }

    /// Render as aligned plain text.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.header.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                if i < widths.len() {
                    widths[i] = widths[i].max(cell.len());
                }
            }
        }
        let mut out = String::new();
        out.push_str(&format!("== {}\n", self.title));
        let fmt_row = |cells: &[String]| {
            cells
                .iter()
                .enumerate()
                .map(|(i, c)| format!("{:w$}", c, w = widths[i]))
                .collect::<Vec<_>>()
                .join(" | ")
        };
        out.push_str(&fmt_row(&self.header));
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 3 * widths.len()));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row));
            out.push('\n');
        }
        out
    }
}

fn col<F: Fn(&Analysis) -> String>(analyses: &[&Analysis], f: F) -> Vec<String> {
    analyses.iter().map(|a| f(a)).collect()
}

/// Table I: high-level I/O behavior.
pub fn table1(analyses: &[&Analysis]) -> Table {
    let mut t = Table::new("Table I: High-Level I/O behavior of applications", analyses);
    t.row(
        "job time (sec)",
        col(analyses, |a| format!("{:.0}", a.job_time.as_secs_f64())),
    );
    t.row(
        "% of I/O time",
        col(analyses, |a| format!("{:.0}%", a.io_time_frac * 100.0)),
    );
    t.row("Write I/O", col(analyses, |a| fmt_bytes(a.write_bytes)));
    t.row("Read I/O", col(analyses, |a| fmt_bytes(a.read_bytes)));
    t.row(
        "CPU Cores/node",
        col(analyses, |a| a.ranks_per_node.to_string()),
    );
    t.row(
        "# files used",
        col(analyses, |a| fmt_count(a.n_files() as u64)),
    );
    t.row(
        "Shared File access",
        col(analyses, |a| fmt_count(a.shared_files() as u64)),
    );
    t.row(
        "File per process (FPP) access",
        col(analyses, |a| fmt_count(a.fpp_files() as u64)),
    );
    t.row(
        "Access Pattern",
        col(analyses, |a| a.access_pattern.clone()),
    );
    t.row("I/O Interface", col(analyses, |a| a.interface.clone()));
    t
}

/// Table II: job-configuration entity.
pub fn table2(analyses: &[&Analysis]) -> Table {
    let mut t = Table::new(
        "Table II: Attributes for Job Configuration Entity Type",
        analyses,
    );
    t.row("# nodes", col(analyses, |a| a.nodes.to_string()));
    t.row("# cpu cores per node", col(analyses, |_| "40".to_string()));
    t.row("# gpu/node", col(analyses, |_| "4".to_string()));
    t.row(
        "Node-local BB dir",
        col(analyses, |_| "/dev/shm".to_string()),
    );
    t.row("Shared BB dir", col(analyses, |_| "NA".to_string()));
    t.row("PFS dir", col(analyses, |_| "/p/gpfs1".to_string()));
    t.row(
        "Job time",
        col(analyses, |a| format!("{:.0}s", a.job_time.as_secs_f64())),
    );
    t
}

/// Table III: workflow entity.
pub fn table3(analyses: &[&Analysis]) -> Table {
    let mut t = Table::new("Table III: Attributes for Workflow Entity Type", analyses);
    t.row(
        "# CPU cores used/node",
        col(analyses, |a| a.ranks_per_node.to_string()),
    );
    t.row(
        "# GPUs used/node",
        col(analyses, |a| match a.kind {
            WorkloadKind::Cosmoflow | WorkloadKind::Jag => "4".to_string(),
            _ => "0".to_string(),
        }),
    );
    t.row("# apps", col(analyses, |a| a.apps.len().to_string()));
    t.row(
        "App data dependency",
        col(analyses, |a| {
            if a.app_deps.is_empty() {
                "NA".to_string()
            } else {
                format!("{} edges", a.app_deps.len())
            }
        }),
    );
    t.row(
        "FPP/shared file access",
        col(analyses, |a| {
            format!("{}/{}", a.fpp_files(), a.shared_files())
        }),
    );
    t.row("I/O amount", col(analyses, |a| fmt_bytes(a.io_bytes())));
    t.row(
        "I/O ops dist (data, meta)",
        col(analyses, |a| {
            format!(
                "{:.0}%, {:.0}%",
                a.data_frac() * 100.0,
                (1.0 - a.data_frac()) * 100.0
            )
        }),
    );
    t.row(
        "Runtime (sec)",
        col(analyses, |a| format!("{:.0}", a.job_time.as_secs_f64())),
    );
    t
}

/// Table IV: application entity.
pub fn table4(analyses: &[&Analysis]) -> Table {
    let mut t = Table::new("Table IV: Attributes for Application Entity Type", analyses);
    t.row(
        "# processes",
        col(analyses, |a| fmt_count(a.n_ranks as u64)),
    );
    t.row(
        "Process data dependency",
        col(analyses, |a| {
            let shared = a.shared_files();
            if shared > 0 {
                format!("{shared} shared files")
            } else {
                "FPP".to_string()
            }
        }),
    );
    t.row(
        "FPP/shared file access",
        col(analyses, |a| {
            format!("{}/{}", a.fpp_files(), a.shared_files())
        }),
    );
    t.row("I/O amount", col(analyses, |a| fmt_bytes(a.io_bytes())));
    t.row(
        "I/O ops dist (data, meta)",
        col(analyses, |a| {
            format!(
                "{:.0}%, {:.0}%",
                a.data_frac() * 100.0,
                (1.0 - a.data_frac()) * 100.0
            )
        }),
    );
    t.row("Interface", col(analyses, |a| a.interface.clone()));
    t.row(
        "Runtime",
        col(analyses, |a| format!("{:.0}sec", a.job_time.as_secs_f64())),
    );
    t
}

/// Table V: first I/O phase entity.
pub fn table5(analyses: &[&Analysis]) -> Table {
    let mut t = Table::new(
        "Table V: Attributes for I/O Phase Entity Type (first phase)",
        analyses,
    );
    t.row(
        "I/O amount",
        col(analyses, |a| {
            a.phases
                .first()
                .map(|p| fmt_bytes(p.bytes))
                .unwrap_or_else(|| "NA".into())
        }),
    );
    t.row(
        "I/O ops dist (data, meta)",
        col(analyses, |a| {
            a.phases
                .first()
                .map(|p| {
                    let total = (p.data_ops + p.meta_ops).max(1);
                    format!(
                        "{:.0}%, {:.0}%",
                        p.data_ops as f64 / total as f64 * 100.0,
                        p.meta_ops as f64 / total as f64 * 100.0
                    )
                })
                .unwrap_or_else(|| "NA".into())
        }),
    );
    t.row(
        "Frequency",
        col(analyses, |a| {
            a.phases
                .first()
                .map(|p| {
                    format!(
                        "{} ops ({})",
                        fmt_count(p.data_ops),
                        fmt_bytes(p.dominant_xfer)
                    )
                })
                .unwrap_or_else(|| "NA".into())
        }),
    );
    t.row(
        "Runtime",
        col(analyses, |a| {
            a.phases
                .first()
                .map(|p| format!("{:.2}sec", p.runtime().as_secs_f64()))
                .unwrap_or_else(|| "NA".into())
        }),
    );
    t
}

/// Table VI: high-level I/O entity.
pub fn table6(analyses: &[&Analysis]) -> Table {
    let mut t = Table::new(
        "Table VI: Attributes for High-Level I/O Entity Type",
        analyses,
    );
    t.row(
        "Data repr",
        col(analyses, |a| match a.kind {
            WorkloadKind::Cm1 | WorkloadKind::Cosmoflow | WorkloadKind::Jag => "3D".to_string(),
            WorkloadKind::Hacc => "1D".to_string(),
            _ => "2D".to_string(),
        }),
    );
    t.row(
        "Granularity (data)",
        col(analyses, |a| {
            let (lo, hi) = a.granularity();
            if lo == hi {
                fmt_bytes(lo)
            } else {
                format!("{}-{}", fmt_bytes(lo), fmt_bytes(hi))
            }
        }),
    );
    t.row(
        "Access pattern",
        col(analyses, |a| a.access_pattern.clone()),
    );
    t.row(
        "Data dist",
        col(analyses, |a| a.data_dist.label().to_string()),
    );
    t
}

/// Table VII: middleware entity.
pub fn table7(analyses: &[&Analysis]) -> Table {
    let mut t = Table::new(
        "Table VII: Attributes for Middleware I/O Entity Type (no middleware active)",
        analyses,
    );
    t.row(
        "# extra cores for I/O/node",
        col(analyses, |a| {
            (40u32.saturating_sub(a.ranks_per_node)).to_string()
        }),
    );
    t.row(
        "Granularity (data)",
        col(analyses, |a| {
            let (lo, hi) = a.granularity();
            if lo == hi {
                fmt_bytes(lo)
            } else {
                format!("{}-{}", fmt_bytes(lo), fmt_bytes(hi))
            }
        }),
    );
    t.row("Memory/node", col(analyses, |_| "256GiB".to_string()));
    t.row(
        "Access pattern",
        col(analyses, |a| a.access_pattern.clone()),
    );
    t
}

/// Table VIII: node-local storage entity (system attributes from JobUtility).
pub fn table8(analyses: &[&Analysis]) -> Table {
    let mut t = Table::new(
        "Table VIII: Attributes for Node-Local Storage Entity Type",
        analyses,
    );
    t.row(
        "# parallel ops (controller)",
        col(analyses, |_| "64".to_string()),
    );
    t.row("Capacity/node", col(analyses, |_| "128GiB".to_string()));
    t.row("Max I/O bw/node", col(analyses, |_| "32GiB/s".to_string()));
    t.row("Dir", col(analyses, |_| "/dev/shm".to_string()));
    t
}

/// Table IX: shared-storage entity. `measured_peak` comes from the IOR
/// calibration run.
pub fn table9(analyses: &[&Analysis], measured_peak: f64) -> Table {
    let mut t = Table::new(
        "Table IX: Attributes for Shared-Storage Entity Type",
        analyses,
    );
    t.row(
        "# parallel servers",
        col(analyses, |_| "96 NSD + 8 MDS".to_string()),
    );
    t.row("Capacity", col(analyses, |_| "24PiB".to_string()));
    t.row(
        "Max I/O BW",
        col(analyses, |_| {
            format!(
                "{} using 32-node IOR",
                sim_core::units::fmt_bw(measured_peak)
            )
        }),
    );
    t.row("Dir", col(analyses, |_| "/p/gpfs1".to_string()));
    t
}

/// Table X: dataset entity.
pub fn table10(analyses: &[&Analysis]) -> Table {
    let mut t = Table::new("Table X: Attributes for Dataset Entity Type", analyses);
    t.row(
        "Format",
        col(analyses, |a| match a.kind {
            WorkloadKind::Cosmoflow => "HDF5".to_string(),
            _ => "bin".to_string(),
        }),
    );
    t.row("Size", col(analyses, |a| fmt_bytes(a.dataset_bytes())));
    t.row(
        "# of files",
        col(analyses, |a| fmt_count(a.n_files() as u64)),
    );
    t.row("I/O", col(analyses, |a| fmt_bytes(a.io_bytes())));
    t.row(
        "Time (sec)",
        col(analyses, |a| format!("{:.1}", a.io_time())),
    );
    t.row(
        "I/O ops dist (data, meta)",
        col(analyses, |a| {
            format!(
                "{:.0}%, {:.0}%",
                a.data_frac() * 100.0,
                (1.0 - a.data_frac()) * 100.0
            )
        }),
    );
    t
}

/// Table XI: file entity (the workload's most-read data file).
pub fn table11(analyses: &[&Analysis]) -> Table {
    let mut t = Table::new(
        "Table XI: Attributes for File Entity Type (top data file)",
        analyses,
    );
    t.row(
        "Size",
        col(analyses, |a| {
            a.files
                .first()
                .map(|f| fmt_bytes(f.size))
                .unwrap_or_else(|| "NA".into())
        }),
    );
    t.row(
        "I/O",
        col(analyses, |a| {
            a.files
                .first()
                .map(|f| fmt_bytes(f.read_bytes + f.write_bytes))
                .unwrap_or_else(|| "NA".into())
        }),
    );
    t.row(
        "Time (sec)",
        col(analyses, |a| {
            a.files
                .first()
                .map(|f| format!("{:.3}", f.time.as_secs_f64()))
                .unwrap_or_else(|| "NA".into())
        }),
    );
    t.row(
        "I/O ops dist (data, meta)",
        col(analyses, |a| {
            a.files
                .first()
                .map(|f| {
                    let total = (f.data_ops + f.meta_ops).max(1);
                    format!(
                        "{:.0}%, {:.0}%",
                        f.data_ops as f64 / total as f64 * 100.0,
                        f.meta_ops as f64 / total as f64 * 100.0
                    )
                })
                .unwrap_or_else(|| "NA".into())
        }),
    );
    t.row(
        "# readers/#writers",
        col(analyses, |a| {
            a.files
                .first()
                .map(|f| format!("{}/{}", f.readers.len(), f.writers.len()))
                .unwrap_or_else(|| "NA".into())
        }),
    );
    t
}

/// Build the full entity set for one analysis (what the YAML emitter dumps).
pub fn entities_for(a: &Analysis) -> Vec<Entity> {
    entities_with_completeness(a, None)
}

/// Entity set with an optional trace-integrity annotation: analyses of
/// salvaged traces carry the loaded fraction and record counts so a reader
/// of the YAML knows the attributes were computed from a damaged capture.
/// Passing `None` is exactly [`entities_for`] — byte-identical output.
pub fn entities_with_completeness(
    a: &Analysis,
    completeness: Option<&recorder_sim::spill::TraceCompleteness>,
) -> Vec<Entity> {
    let mut out = Vec::new();
    out.push(
        Entity::new(EntityType::JobConfiguration, a.kind.name())
            .with("#nodes", AttrValue::Count(a.nodes as u64))
            .with("#cpu_cores_per_node", AttrValue::Count(40))
            .with("#gpu_per_node", AttrValue::Count(4))
            .with("node_local_bb_dir", AttrValue::Str("/dev/shm".into()))
            .with("shared_bb_dir", AttrValue::Na)
            .with("pfs_dir", AttrValue::Str("/p/gpfs1".into()))
            .with("job_time", AttrValue::Seconds(a.job_time.as_secs_f64())),
    );
    out.push(
        Entity::new(EntityType::Workflow, a.kind.name())
            .with("#apps", AttrValue::Count(a.apps.len() as u64))
            .with("io_amount", AttrValue::Bytes(a.io_bytes()))
            .with(
                "ops_dist_data_meta",
                AttrValue::Split(a.data_frac(), 1.0 - a.data_frac()),
            )
            .with("runtime", AttrValue::Seconds(a.job_time.as_secs_f64())),
    );
    let mut app = Entity::new(EntityType::Application, a.kind.name())
        .with("#processes", AttrValue::Count(a.n_ranks as u64))
        .with("fpp_files", AttrValue::Count(a.fpp_files() as u64))
        .with("shared_files", AttrValue::Count(a.shared_files() as u64))
        .with("interface", AttrValue::Str(a.interface.clone()))
        .with("io_time_frac", AttrValue::Fraction(a.io_time_frac));
    // Resilience attributes: only present when the run saw injected faults,
    // so fault-free emissions stay byte-identical to earlier versions.
    if a.fault_events > 0 || a.retry_events > 0 {
        app = app
            .with("error_rate", AttrValue::Fraction(a.error_rate()))
            .with(
                "retry_amplification",
                AttrValue::Fraction(a.retry_amplification()),
            )
            .with(
                "time_lost_to_faults",
                AttrValue::Seconds(a.time_lost_to_faults()),
            );
    }
    // Crash-recovery attributes: only present when the job actually
    // restarted, so crash-free emissions stay byte-identical too.
    if a.restart_events > 0 {
        app = app
            .with("restart_count", AttrValue::Count(a.restart_count()))
            .with(
                "time_lost_to_crashes",
                AttrValue::Seconds(a.time_lost_to_crashes()),
            )
            .with(
                "checkpoint_overhead",
                AttrValue::Seconds(a.checkpoint_overhead()),
            )
            .with("recovery_time", AttrValue::Seconds(a.recovery_seconds()));
    }
    // Trace-integrity annotation for analyses built from salvaged captures.
    if let Some(tc) = completeness {
        app = app
            .with("trace_completeness", AttrValue::Fraction(tc.fraction()))
            .with("trace_records_loaded", AttrValue::Count(tc.loaded_records))
            .with(
                "trace_records_expected",
                AttrValue::Count(tc.expected_records),
            );
    }
    out.push(app);
    // Per-server outage impact: bytes each failed NSD server's stripes
    // pushed onto survivors.
    if a.rerouted_by_server.iter().any(|&b| b > 0) {
        let mut imp = Entity::new(EntityType::Application, "nsd_outage_impact");
        for (server, &bytes) in a.rerouted_by_server.iter().enumerate() {
            if bytes > 0 {
                imp = imp.with(&format!("server{server}_rerouted"), AttrValue::Bytes(bytes));
            }
        }
        out.push(imp);
    }
    if let Some(p) = a.phases.first() {
        out.push(
            Entity::new(EntityType::IoPhase, "phase0")
                .with("io_amount", AttrValue::Bytes(p.bytes))
                .with("runtime", AttrValue::Seconds(p.runtime().as_secs_f64()))
                .with("dominant_xfer", AttrValue::Bytes(p.dominant_xfer)),
        );
    }
    let (lo, hi) = a.granularity();
    out.push(
        Entity::new(EntityType::HighLevelIo, a.kind.name())
            .with("granularity", AttrValue::Range(lo, hi))
            .with("access_pattern", AttrValue::Str(a.access_pattern.clone()))
            .with("data_dist", AttrValue::Str(a.data_dist.label().into())),
    );
    out.push(
        Entity::new(EntityType::Dataset, a.kind.name())
            .with("size", AttrValue::Bytes(a.dataset_bytes()))
            .with("#files", AttrValue::Count(a.n_files() as u64))
            .with("io", AttrValue::Bytes(a.io_bytes())),
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use exemplar_workloads::hacc;

    fn analysis() -> Analysis {
        Analysis::from_run(&hacc::run(0.02, 1))
    }

    #[test]
    fn table1_has_all_attribute_rows() {
        let a = analysis();
        let t = table1(&[&a]);
        assert_eq!(t.rows.len(), 10);
        assert_eq!(t.header.len(), 2);
        let rendered = t.render();
        assert!(rendered.contains("I/O Interface"));
        assert!(rendered.contains("POSIX"));
    }

    #[test]
    fn all_eleven_tables_render() {
        let a = analysis();
        let cols = [&a];
        let tables = vec![
            table1(&cols),
            table2(&cols),
            table3(&cols),
            table4(&cols),
            table5(&cols),
            table6(&cols),
            table7(&cols),
            table8(&cols),
            table9(&cols, 64.0 * (1 << 30) as f64),
            table10(&cols),
            table11(&cols),
        ];
        for t in tables {
            let r = t.render();
            assert!(r.starts_with("== Table"));
            assert!(r.lines().count() >= 3, "{r}");
        }
    }

    #[test]
    fn entity_set_covers_all_groups() {
        let a = analysis();
        let ents = entities_for(&a);
        let groups: std::collections::HashSet<&str> =
            ents.iter().map(|e| e.etype.group()).collect();
        assert!(groups.contains("job"));
        assert!(groups.contains("software"));
        assert!(groups.contains("data"));
    }
}
