//! The attribute → optimization mapping of §IV-D.
//!
//! Given a workload's [`Analysis`], the rule engine emits
//! [`Recommendation`]s with the attribute-based rationale the paper walks
//! through: which attributes fired the rule, and what the storage system
//! should reconfigure. The two §V case studies are the first two rules.

use crate::analyzer::Analysis;
use sim_core::stats::DistributionFit;
use sim_core::units::{GIB, KIB, MIB};

/// A storage-stack reconfiguration the rules can recommend.
#[derive(Debug, Clone, PartialEq)]
pub enum Recommendation {
    /// §V-A: preload the dataset into node-local shm and read locally
    /// (CosmoFlow). Fired by small shared files + metadata-dominated I/O +
    /// unused node memory.
    PreloadDatasetToShm {
        /// Bytes each node must hold (dataset / nodes).
        per_node_bytes: u64,
    },
    /// §V-B: place intermediate files on the node-local tier (Montage).
    /// Fired by produce-then-consume locality + small transfers.
    IntermediatesToNodeLocal {
        /// Estimated intermediate bytes per node.
        per_node_bytes: u64,
    },
    /// §IV-D3: set the PFS stripe size to the workload's dominant transfer
    /// size for its most important files.
    SetStripeSize {
        /// Recommended stripe bytes.
        bytes: u64,
    },
    /// §IV-D3: disable byte-range locking when no cross-process data
    /// dependency exists (FPP workloads).
    DisableLocking,
    /// §IV-D1: enable collective buffering with this many aggregators.
    CollectiveBuffering {
        /// Suggested `cb_nodes`.
        cb_nodes: u32,
    },
    /// §IV-D5: chunk the HDF5 datasets at the access granularity.
    EnableChunking {
        /// Chunk bytes.
        chunk_bytes: u64,
    },
    /// §IV-D5: apply compression (data-distribution dependent).
    ApplyCompression {
        /// The fitted distribution driving the codec choice.
        dist: DistributionFit,
        /// Expected size ratio (output/input).
        expected_ratio: f64,
    },
    /// §IV-D2: overlap I/O with compute via async I/O (distinct phases).
    AsyncIo,
}

impl Recommendation {
    /// Short identifier for reports.
    pub fn name(&self) -> &'static str {
        match self {
            Recommendation::PreloadDatasetToShm { .. } => "preload-dataset-to-shm",
            Recommendation::IntermediatesToNodeLocal { .. } => "intermediates-to-node-local",
            Recommendation::SetStripeSize { .. } => "set-stripe-size",
            Recommendation::DisableLocking => "disable-locking",
            Recommendation::CollectiveBuffering { .. } => "collective-buffering",
            Recommendation::EnableChunking { .. } => "enable-chunking",
            Recommendation::ApplyCompression { .. } => "apply-compression",
            Recommendation::AsyncIo => "async-io",
        }
    }
}

/// A fired rule: the recommendation plus its attribute-based rationale.
#[derive(Debug, Clone)]
pub struct Advice {
    /// What to reconfigure.
    pub recommendation: Recommendation,
    /// Which attributes fired the rule, in the paper's vocabulary.
    pub rationale: String,
}

/// Node memory assumed available for staging (Lassen: 256 GiB, half
/// usable as tmpfs).
const NODE_SHM_BYTES: u64 = 128 * GIB;

/// Run the §IV-D rules over an analysis.
pub fn recommend(a: &Analysis) -> Vec<Advice> {
    let p = &a.profile;
    let mut out = Vec::new();
    let meta_frac = 1.0 - p.data_frac();
    let (lo_gran, hi_gran) = p.granularity();
    let per_node_dataset = p.dataset_bytes() / a.nodes.max(1) as u64;

    // §V-A rule: shared small files + metadata-dominated + dataset fits in
    // per-node shm after partitioning.
    if p.shared_files() > 0
        && meta_frac > 0.5
        && p.dataset_bytes() > 0
        && per_node_dataset <= NODE_SHM_BYTES
        && p.read_bytes > p.write_bytes
    {
        out.push(Advice {
            recommendation: Recommendation::PreloadDatasetToShm {
                per_node_bytes: per_node_dataset,
            },
            rationale: format!(
                "shared file access ({} files), I/O ops dist {}% metadata, dataset {} fits 1/{} per node in shm",
                p.shared_files(),
                (meta_frac * 100.0).round(),
                sim_core::units::fmt_bytes(p.dataset_bytes()),
                a.nodes
            ),
        });
    }

    // §V-B rule: workflow whose intermediate files are produced and
    // consumed locally with small transfers.
    let intermediates: u64 = p
        .files
        .iter()
        .filter(|f| !f.writers.is_empty() && !f.readers.is_empty())
        .map(|f| f.size)
        .sum();
    if p.apps.len() > 1 && intermediates > 0 && lo_gran <= 4 * KIB {
        let per_node = intermediates / a.nodes.max(1) as u64;
        if per_node <= NODE_SHM_BYTES {
            out.push(Advice {
                recommendation: Recommendation::IntermediatesToNodeLocal {
                    per_node_bytes: per_node,
                },
                rationale: format!(
                    "app data dependency ({} edges), intermediate files {} produced+consumed, transfer granularity ≤4KiB",
                    p.app_deps.len(),
                    sim_core::units::fmt_bytes(intermediates)
                ),
            });
        }
    }

    // Stripe-size rule: dominant transfer of important files.
    if hi_gran >= 1 * MIB {
        out.push(Advice {
            recommendation: Recommendation::SetStripeSize { bytes: hi_gran },
            rationale: format!(
                "I/O granularity per operation up to {} on important files",
                sim_core::units::fmt_bytes(hi_gran)
            ),
        });
    }

    // Locking rule: pure FPP → no data dependency between processes.
    if p.shared_files() == 0 && !p.files.is_empty() {
        out.push(Advice {
            recommendation: Recommendation::DisableLocking,
            rationale: "no data dependency in apps and processes (strict FPP)".to_string(),
        });
    }

    // Collective buffering: shared-file MPI-IO access.
    if p.interface == "HDF5-MPI-IO" && p.shared_files() > 0 {
        out.push(Advice {
            recommendation: Recommendation::CollectiveBuffering { cb_nodes: a.nodes },
            rationale: format!(
                "collective shared-file access from {} processes; cb_nodes = #nodes = {}",
                a.n_ranks, a.nodes
            ),
        });
    }

    // Chunking: HDF5 + small accesses on large files.
    if p.interface == "HDF5-MPI-IO" && lo_gran <= 1 * MIB {
        out.push(Advice {
            recommendation: Recommendation::EnableChunking {
                chunk_bytes: lo_gran.max(64 * KIB),
            },
            rationale: format!(
                "unchunked HDF5 with {} accesses; chunk at the access granularity",
                sim_core::units::fmt_bytes(lo_gran.max(1))
            ),
        });
    }

    // Compression: distribution-driven (uniform data inflates — skip it).
    match a.data_dist {
        DistributionFit::Normal => out.push(Advice {
            recommendation: Recommendation::ApplyCompression {
                dist: a.data_dist,
                expected_ratio: 0.55,
            },
            rationale: "normal data distribution compresses well".to_string(),
        }),
        DistributionFit::Gamma => out.push(Advice {
            recommendation: Recommendation::ApplyCompression {
                dist: a.data_dist,
                expected_ratio: 0.40,
            },
            rationale: "gamma data distribution compresses very well".to_string(),
        }),
        _ => {}
    }

    // Async I/O: distinct compute and I/O phases.
    if p.phases.len() >= 2 && p.io_time_frac < 0.5 {
        out.push(Advice {
            recommendation: Recommendation::AsyncIo,
            rationale: format!(
                "{} distinct I/O phases with compute between them; overlap I/O with compute",
                p.phases.len()
            ),
        });
    }

    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analyzer::Analysis;
    use exemplar_workloads::{cosmoflow, hacc, montage};

    fn has(advice: &[Advice], name: &str) -> bool {
        advice.iter().any(|a| a.recommendation.name() == name)
    }

    #[test]
    fn cosmoflow_gets_the_preload_rule() {
        let run = cosmoflow::run(0.002, 5);
        let a = Analysis::from_run(&run);
        let advice = recommend(&a);
        assert!(
            has(&advice, "preload-dataset-to-shm"),
            "advice: {:?}",
            advice
                .iter()
                .map(|x| x.recommendation.name())
                .collect::<Vec<_>>()
        );
        assert!(has(&advice, "collective-buffering"));
        assert!(has(&advice, "enable-chunking"));
        // Gamma-distributed data → compression advised.
        assert!(has(&advice, "apply-compression"));
    }

    #[test]
    fn montage_gets_the_node_local_rule() {
        let run = montage::run(0.02, 2);
        let a = Analysis::from_run(&run);
        let advice = recommend(&a);
        assert!(
            has(&advice, "intermediates-to-node-local"),
            "advice: {:?}",
            advice
                .iter()
                .map(|x| x.recommendation.name())
                .collect::<Vec<_>>()
        );
        // Montage is not a preload candidate: data-op dominated.
        assert!(!has(&advice, "preload-dataset-to-shm"));
    }

    #[test]
    fn hacc_gets_locking_disabled_not_preload() {
        let run = hacc::run(0.02, 1);
        let a = Analysis::from_run(&run);
        let advice = recommend(&a);
        assert!(has(&advice, "disable-locking"));
        assert!(!has(&advice, "preload-dataset-to-shm"));
        // Large sequential transfers → stripe-size advice.
        assert!(has(&advice, "set-stripe-size"));
    }

    #[test]
    fn rationales_cite_attributes() {
        let run = cosmoflow::run(0.002, 5);
        let a = Analysis::from_run(&run);
        for adv in recommend(&a) {
            assert!(!adv.rationale.is_empty());
        }
    }
}
