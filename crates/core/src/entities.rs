//! The entity/attribute model of §IV-B.
//!
//! A characterized workload is described by a set of [`Entity`] values, each
//! belonging to one of the paper's ten entity types and carrying a list of
//! named [`AttrValue`] attributes. This is the machine-readable object the
//! Analyzer emits (as YAML) and the storage system would consume to
//! configure itself.

use sim_core::units::{fmt_bw, fmt_bytes, fmt_count, fmt_pct};

/// The ten entity types of the characterization (§IV-B).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EntityType {
    /// Job scheduling and allocated resources (Table II).
    JobConfiguration,
    /// Workflow-level behavior and interactions (Table III).
    Workflow,
    /// One application and its processes (Table IV).
    Application,
    /// One I/O phase within an application (Table V).
    IoPhase,
    /// High-level I/O library features (Table VI).
    HighLevelIo,
    /// Middleware libraries in the path (Table VII).
    Middleware,
    /// Node-local storage tier (Table VIII).
    NodeLocalStorage,
    /// Shared storage tier (Table IX).
    SharedStorage,
    /// The dataset as a whole (Table X).
    Dataset,
    /// One file (Table XI).
    File,
}

impl EntityType {
    /// Display label used in YAML output and table titles.
    pub fn label(&self) -> &'static str {
        match self {
            EntityType::JobConfiguration => "job_configuration",
            EntityType::Workflow => "workflow",
            EntityType::Application => "application",
            EntityType::IoPhase => "io_phase",
            EntityType::HighLevelIo => "high_level_io",
            EntityType::Middleware => "middleware",
            EntityType::NodeLocalStorage => "node_local_storage",
            EntityType::SharedStorage => "shared_storage",
            EntityType::Dataset => "dataset",
            EntityType::File => "file",
        }
    }

    /// The paper's three top-level groups: Job, Software, Data.
    pub(crate) fn group(&self) -> &'static str {
        match self {
            EntityType::JobConfiguration
            | EntityType::Workflow
            | EntityType::Application
            | EntityType::IoPhase => "job",
            EntityType::HighLevelIo
            | EntityType::Middleware
            | EntityType::NodeLocalStorage
            | EntityType::SharedStorage => "software",
            EntityType::Dataset | EntityType::File => "data",
        }
    }
}

/// One attribute value.
#[derive(Debug, Clone, PartialEq)]
pub enum AttrValue {
    /// Free text ("POSIX", "/dev/shm", "Sequential").
    Str(String),
    /// A count (# nodes, # files).
    Count(u64),
    /// A byte quantity.
    Bytes(u64),
    /// Seconds.
    Seconds(f64),
    /// A fraction in [0, 1], rendered as a percentage.
    Fraction(f64),
    /// Bandwidth, bytes/second.
    Bandwidth(f64),
    /// A pair rendered "a%, b%" (the "I/O ops dist (data, meta)" style).
    Split(f64, f64),
    /// A size range rendered "lo-hi".
    Range(u64, u64),
    /// Missing / not applicable.
    Na,
}

impl AttrValue {
    /// Render for tables and YAML.
    pub(crate) fn render(&self) -> String {
        match self {
            AttrValue::Str(s) => s.clone(),
            AttrValue::Count(n) => fmt_count(*n),
            AttrValue::Bytes(b) => fmt_bytes(*b),
            AttrValue::Seconds(s) => {
                if *s >= 100.0 {
                    format!("{s:.0}s")
                } else {
                    format!("{s:.2}s")
                }
            }
            AttrValue::Fraction(f) => fmt_pct(*f),
            AttrValue::Bandwidth(b) => fmt_bw(*b),
            AttrValue::Split(a, b) => format!("{}, {}", fmt_pct(*a), fmt_pct(*b)),
            AttrValue::Range(lo, hi) => {
                if lo == hi {
                    fmt_bytes(*lo)
                } else {
                    format!("{}-{}", fmt_bytes(*lo), fmt_bytes(*hi))
                }
            }
            AttrValue::Na => "NA".to_string(),
        }
    }
}

/// A characterized entity: type, instance name, attributes.
#[derive(Debug, Clone, PartialEq)]
pub struct Entity {
    /// Which entity type this is.
    pub etype: EntityType,
    /// Instance name (workload name, file path, app name…).
    pub name: String,
    /// Ordered attribute list.
    pub attrs: Vec<(String, AttrValue)>,
}

impl Entity {
    /// New empty entity.
    pub(crate) fn new(etype: EntityType, name: &str) -> Self {
        Entity {
            etype,
            name: name.to_string(),
            attrs: Vec::new(),
        }
    }

    /// Add an attribute (builder style).
    pub(crate) fn with(mut self, key: &str, value: AttrValue) -> Self {
        self.attrs.push((key.to_string(), value));
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn entity_groups_match_paper() {
        assert_eq!(EntityType::JobConfiguration.group(), "job");
        assert_eq!(EntityType::IoPhase.group(), "job");
        assert_eq!(EntityType::HighLevelIo.group(), "software");
        assert_eq!(EntityType::SharedStorage.group(), "software");
        assert_eq!(EntityType::Dataset.group(), "data");
        assert_eq!(EntityType::File.group(), "data");
    }

    #[test]
    fn attribute_rendering() {
        assert_eq!(AttrValue::Count(1280).render(), "1,280");
        assert_eq!(AttrValue::Bytes(1 << 30).render(), "1.00GiB");
        assert_eq!(AttrValue::Fraction(0.98).render(), "98.0%");
        assert_eq!(AttrValue::Split(0.02, 0.98).render(), "2.0%, 98.0%");
        assert_eq!(AttrValue::Seconds(3567.0).render(), "3567s");
        assert_eq!(AttrValue::Seconds(0.3).render(), "0.30s");
        assert_eq!(
            AttrValue::Range(4096, 16 << 20).render(),
            "4.00KiB-16.00MiB"
        );
        assert_eq!(AttrValue::Na.render(), "NA");
    }

    #[test]
    fn builder_keeps_attributes_in_order() {
        let e = Entity::new(EntityType::Dataset, "cosmoflow")
            .with("format", AttrValue::Str("HDF5".into()))
            .with("#files", AttrValue::Count(49_664));
        assert_eq!(
            e.attrs,
            vec![
                ("format".to_string(), AttrValue::Str("HDF5".into())),
                ("#files".to_string(), AttrValue::Count(49_664)),
            ]
        );
    }
}
