//! Fleet-scale statistical characterization, IO500-submission-study
//! style: per-attribute distributions, cross-attribute correlations, and
//! the noisy-neighbor impact table.
//!
//! Every number is formatted with a fixed precision and every aggregation
//! is a sequential pass over job-id-ordered records, so the rendered
//! report (and its digest) is byte-identical at any worker count.

use super::fleet::{FleetManifest, JobRecord};
use super::scheduler::{JobOutcome, JobSchedule, Placement, SchedPolicy};
use crate::tables::Table;
use sim_core::units::MIB;
use vani_rt::stats::{pearson, Quantiles};
use vani_rt::{fnv1a64, Json};

/// One dedicated profile run, as the report presents it.
#[derive(Debug, Clone, PartialEq)]
pub struct ProfileSummary {
    /// Workload id.
    pub workload: String,
    /// Variant name.
    pub variant: String,
    /// Dedicated-machine runtime, seconds.
    pub runtime_s: f64,
    /// Data demand as a fraction of the (scaled) shared PFS bandwidth.
    pub data_frac: f64,
    /// Metadata demand as a fraction of the (scaled) MDS service rate.
    pub meta_frac: f64,
}

/// Trace-durability accounting for a spilled fleet: how many jobs'
/// on-disk segment logs survived recovery intact, partially, or not at
/// all. Present only when the fleet ran with `--spill`, so in-memory
/// reports render — and digest — byte-identically to the pre-spill fleet.
#[derive(Debug, Clone, PartialEq)]
pub struct SpillFleetStats {
    /// Jobs that spilled (every simulated job when spill is armed).
    pub jobs: usize,
    /// Jobs whose entire captured trace was durable on disk.
    pub fully_durable: usize,
    /// Jobs that lost a suffix of their trace to an injected fault but
    /// recovered a non-empty committed prefix.
    pub partial: usize,
    /// Jobs whose log was unrecoverable (or whose spill failed
    /// environmentally and fell back to in-memory analysis).
    pub lost_entirely: usize,
    /// Captured trace records lost across the fleet.
    pub lost_records: u64,
    /// Mean surviving-trace fraction across spilled jobs.
    pub mean_complete_frac: f64,
}

impl SpillFleetStats {
    /// Sequential job-id-order fold over the records (worker-count
    /// independent, like every other reduction here).
    pub(crate) fn from_records(records: &[JobRecord]) -> Self {
        let mut s = SpillFleetStats {
            jobs: records.len(),
            fully_durable: 0,
            partial: 0,
            lost_entirely: 0,
            lost_records: 0,
            mean_complete_frac: f64::NAN,
        };
        let mut frac_sum = 0.0f64;
        for r in records {
            if r.trace_lost_records == 0 {
                s.fully_durable += 1;
            } else if r.trace_complete_frac > 0.0 {
                s.partial += 1;
            } else {
                s.lost_entirely += 1;
            }
            s.lost_records += r.trace_lost_records;
            frac_sum += r.trace_complete_frac;
        }
        if !records.is_empty() {
            s.mean_complete_frac = frac_sum / records.len() as f64;
        }
        s
    }
}

/// Everything a fleet sweep produced.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetReport {
    /// Scale the fleet ran at.
    pub scale: f64,
    /// The fleet seed.
    pub seed: u64,
    /// The job manifest, as drawn.
    pub manifest: FleetManifest,
    /// Every job's final placement, in job-id order.
    pub placements: Vec<Placement>,
    /// Dedicated profile runs, in profile-wave order.
    pub profiles: Vec<ProfileSummary>,
    /// Per-job outcomes, in job-id order (abandoned jobs are not
    /// simulated and have no record; see `schedules`).
    pub records: Vec<JobRecord>,
    /// The self-healing scheduler's policy.
    pub policy: SchedPolicy,
    /// Every job's full attempt history, in job-id order.
    pub schedules: Vec<JobSchedule>,
    /// The healthy-fleet counterfactual: the same demands scheduled with
    /// an empty outage plan and backfill off (equals `placements` when
    /// the fleet's own plan is empty and backfill is off).
    pub healthy_placements: Vec<Placement>,
    /// Trace-durability accounting, present only when the fleet spilled
    /// its traces to disk (gates the spill section exactly like
    /// `node_faults` gates the degraded sections).
    pub spill: Option<SpillFleetStats>,
}

/// Fixed-precision cell; NaN (empty sample / degenerate correlation)
/// renders as "-".
fn cell(x: f64) -> String {
    if x.is_finite() {
        format!("{x:.4}")
    } else {
        "-".to_string()
    }
}

/// The attributes the distribution table and correlation matrix cover.
/// Kept as one list so the two stay in sync.
fn attributes() -> Vec<(&'static str, fn(&JobRecord) -> f64)> {
    vec![
        ("runtime (s)", |r: &JobRecord| r.runtime),
        ("queue wait (s)", |r: &JobRecord| r.start - r.submit),
        ("io time frac", |r: &JobRecord| r.io_time_frac),
        ("agg bw (MiB/s)", |r: &JobRecord| r.agg_bw / MIB as f64),
        ("meta ops", |r: &JobRecord| r.meta_ops as f64),
        ("neighbor load", |r: &JobRecord| r.mean_neighbor_load),
        ("tenant delay (s)", |r: &JobRecord| r.tenant_delay_secs),
        ("slowdown", |r: &JobRecord| r.slowdown),
    ]
}

/// Subset of [`attributes`] used for the correlation matrix (queue wait
/// and tenant delay are near-duplicates of neighbor load by construction;
/// the matrix keeps the interesting axes readable).
const CORR_ATTRS: [&str; 6] = [
    "runtime (s)",
    "io time frac",
    "agg bw (MiB/s)",
    "meta ops",
    "neighbor load",
    "slowdown",
];

impl FleetReport {
    /// Digest of the manifest plus the admission schedule — what the
    /// byte-identity tests pin across worker counts.
    pub fn admission_digest(&self) -> u64 {
        let mut text = self.manifest.render();
        for p in &self.placements {
            text.push_str(&format!(
                "{:>5} submit {:.6} start {:.6} end {:.6}\n",
                p.id, p.submit, p.start, p.end
            ));
        }
        fnv1a64(&text)
    }

    /// Mean queueing delay across the fleet, seconds.
    pub(crate) fn mean_wait(&self) -> f64 {
        if self.placements.is_empty() {
            return 0.0;
        }
        self.placements.iter().map(Placement::wait).sum::<f64>() / self.placements.len() as f64
    }

    fn profile_table(&self) -> Table {
        Table {
            title: "Dedicated profiles (wave 1)".to_string(),
            header: [
                "workload",
                "variant",
                "runtime (s)",
                "data demand",
                "meta demand",
            ]
            .map(String::from)
            .to_vec(),
            rows: self
                .profiles
                .iter()
                .map(|p| {
                    vec![
                        p.workload.clone(),
                        p.variant.clone(),
                        format!("{:.3}", p.runtime_s),
                        cell(p.data_frac),
                        cell(p.meta_frac),
                    ]
                })
                .collect(),
        }
    }

    fn distribution_table(&self) -> Table {
        Table {
            title: "Fleet attribute distributions".to_string(),
            header: ["attribute", "n", "min", "p50", "p90", "p99", "max", "mean"]
                .map(String::from)
                .to_vec(),
            rows: attributes()
                .iter()
                .map(|(name, f)| {
                    let xs: Vec<f64> = self.records.iter().map(|r| f(r)).collect();
                    let q = Quantiles::of(&xs);
                    vec![
                        name.to_string(),
                        q.n.to_string(),
                        cell(q.min),
                        cell(q.p50),
                        cell(q.p90),
                        cell(q.p99),
                        cell(q.max),
                        cell(q.mean),
                    ]
                })
                .collect(),
        }
    }

    fn correlation_table(&self) -> Table {
        let attrs: Vec<(&str, fn(&JobRecord) -> f64)> = attributes()
            .into_iter()
            .filter(|(n, _)| CORR_ATTRS.contains(n))
            .collect();
        let samples: Vec<Vec<f64>> = attrs
            .iter()
            .map(|(_, f)| self.records.iter().map(|r| f(r)).collect())
            .collect();
        let mut header = vec!["pearson r".to_string()];
        header.extend(attrs.iter().map(|(n, _)| n.to_string()));
        Table {
            title: "Cross-attribute correlation".to_string(),
            header,
            rows: attrs
                .iter()
                .enumerate()
                .map(|(i, (name, _))| {
                    let mut row = vec![name.to_string()];
                    row.extend((0..attrs.len()).map(|j| cell(pearson(&samples[i], &samples[j]))));
                    row
                })
                .collect(),
        }
    }

    fn noisy_neighbor_table(&self) -> Table {
        let mut rows = Vec::new();
        for p in &self.profiles {
            let group: Vec<&JobRecord> = self
                .records
                .iter()
                .filter(|r| r.workload == p.workload && r.variant.name() == p.variant)
                .collect();
            if group.is_empty() {
                continue;
            }
            let runtimes: Vec<f64> = group.iter().map(|r| r.runtime).collect();
            let slowdowns: Vec<f64> = group.iter().map(|r| r.slowdown).collect();
            let loads: Vec<f64> = group.iter().map(|r| r.mean_neighbor_load).collect();
            let qr = Quantiles::of(&runtimes);
            let qs = Quantiles::of(&slowdowns);
            rows.push(vec![
                p.workload.clone(),
                p.variant.clone(),
                group.len().to_string(),
                format!("{:.3}", p.runtime_s),
                format!("{:.3}", qr.p50),
                format!("{:.3}", qr.p99),
                cell(qs.p50),
                cell(qs.p99),
                cell(loads.iter().sum::<f64>() / loads.len() as f64),
            ]);
        }
        Table {
            title: "Noisy neighbor impact (fleet vs dedicated)".to_string(),
            header: [
                "workload",
                "variant",
                "jobs",
                "dedicated (s)",
                "fleet p50 (s)",
                "fleet p99 (s)",
                "slowdown p50",
                "slowdown p99",
                "mean load",
            ]
            .map(String::from)
            .to_vec(),
            rows,
        }
    }

    /// Whether the fleet ran under an active node fault plan (gates every
    /// degraded-mode section, keeping healthy reports byte-identical to
    /// the pre-failure-domain renderer).
    pub fn is_degraded(&self) -> bool {
        !self.manifest.node_faults.is_empty()
    }

    fn spill_table(&self, s: &SpillFleetStats) -> Table {
        let rows = vec![
            vec!["jobs spilled".to_string(), s.jobs.to_string()],
            vec!["fully durable".to_string(), s.fully_durable.to_string()],
            vec![
                "partial (prefix recovered)".to_string(),
                s.partial.to_string(),
            ],
            vec!["lost entirely".to_string(), s.lost_entirely.to_string()],
            vec!["records lost".to_string(), s.lost_records.to_string()],
            vec![
                "mean surviving fraction".to_string(),
                cell(s.mean_complete_frac),
            ],
        ];
        Table {
            title: "Spill durability (trace records recovered from disk)".to_string(),
            header: ["metric", "value"].map(String::from).to_vec(),
            rows,
        }
    }

    /// Total attempts / total jobs: 1.0 in a healthy fleet, > 1 when
    /// outages force requeues.
    pub fn retry_amplification(&self) -> f64 {
        if self.schedules.is_empty() {
            return 1.0;
        }
        let attempts: usize = self.schedules.iter().map(|s| s.attempts.len()).sum();
        attempts as f64 / self.schedules.len() as f64
    }

    /// Scheduler-estimated node-seconds of work destroyed by outages.
    pub fn lost_work_node_secs(&self) -> f64 {
        self.schedules
            .iter()
            .zip(&self.manifest.jobs)
            .map(|(s, j)| s.lost_node_secs(j.nodes))
            .sum::<f64>()
            + 0.0
    }

    /// Node-seconds of *useful* (completed final-attempt) work delivered.
    pub(crate) fn useful_work_node_secs(&self) -> f64 {
        self.schedules
            .iter()
            .zip(&self.manifest.jobs)
            .filter(|(s, _)| s.outcome.completed())
            .map(|(s, j)| {
                let a = s.final_attempt();
                (a.end - a.start).max(0.0) * j.nodes as f64
            })
            .sum::<f64>()
            + 0.0
    }

    /// Goodput fraction: useful work / (useful + lost) node-seconds.
    /// 1.0 when the outages destroyed nothing.
    pub fn goodput_frac(&self) -> f64 {
        let useful = self.useful_work_node_secs();
        let lost = self.lost_work_node_secs();
        if useful + lost <= 0.0 {
            1.0
        } else {
            useful / (useful + lost)
        }
    }

    /// Node-seconds of work the fleet *asked* for (every job, including
    /// abandoned ones, at its profiled runtime estimate).
    pub(crate) fn offered_node_secs(&self) -> f64 {
        self.schedules
            .iter()
            .zip(&self.manifest.jobs)
            .map(|(s, j)| {
                // The first attempt's planned span is the profiled
                // estimate; killed attempts end early, so re-derive the
                // estimate from any completed attempt or charge the
                // estimate the scheduler used.
                let est = s
                    .attempts
                    .iter()
                    .find(|a| a.killed_by.is_none())
                    .map(|a| a.end - a.start)
                    .unwrap_or_else(|| {
                        s.attempts
                            .iter()
                            .map(|a| a.end - a.start)
                            .fold(0.0, f64::max)
                    });
                est.max(0.0) * j.nodes as f64
            })
            .sum::<f64>()
            + 0.0
    }

    /// Outcome counts: (completed clean, completed after retry, abandoned).
    pub fn outcome_counts(&self) -> (usize, usize, usize) {
        let mut c = (0, 0, 0);
        for s in &self.schedules {
            match s.outcome {
                JobOutcome::Completed => c.0 += 1,
                JobOutcome::CompletedAfterRetry(_) => c.1 += 1,
                JobOutcome::Abandoned => c.2 += 1,
            }
        }
        c
    }

    fn outage_table(&self) -> Table {
        Table {
            title: "Node outage timeline".to_string(),
            header: ["node", "down at (s)", "repaired (s)", "repair (s)"]
                .map(String::from)
                .to_vec(),
            rows: self
                .manifest
                .node_faults
                .outages
                .iter()
                .map(|o| {
                    vec![
                        o.node.to_string(),
                        format!("{:.3}", o.at),
                        format!("{:.3}", o.until),
                        format!("{:.3}", o.until - o.at),
                    ]
                })
                .collect(),
        }
    }

    fn degraded_accounting_table(&self) -> Table {
        let (clean, retried, abandoned) = self.outcome_counts();
        let rows = vec![
            vec!["jobs completed clean".to_string(), clean.to_string()],
            vec![
                "jobs completed after retry".to_string(),
                retried.to_string(),
            ],
            vec!["jobs abandoned".to_string(), abandoned.to_string()],
            vec![
                "retry amplification (attempts/job)".to_string(),
                cell(self.retry_amplification()),
            ],
            vec![
                "offered load (node-s)".to_string(),
                format!("{:.3}", self.offered_node_secs()),
            ],
            vec![
                "goodput (node-s)".to_string(),
                format!("{:.3}", self.useful_work_node_secs()),
            ],
            vec![
                "lost work (node-s)".to_string(),
                format!("{:.3}", self.lost_work_node_secs()),
            ],
            vec!["goodput fraction".to_string(), cell(self.goodput_frac())],
            vec![
                "node-hours lost to outages".to_string(),
                cell(self.manifest.node_faults.node_hours_down()),
            ],
            vec![
                "scheduler policy".to_string(),
                format!(
                    "retries {} | backoff {:.0}s x{:.1} cap {:.0}s | backfill {}",
                    self.policy.max_retries,
                    self.policy.base_backoff,
                    self.policy.backoff_multiplier,
                    self.policy.max_backoff,
                    if self.policy.backfill { "on" } else { "off" }
                ),
            ],
        ];
        Table {
            title: "Degraded-mode accounting (goodput vs offered load)".to_string(),
            header: ["metric", "value"].map(String::from).to_vec(),
            rows,
        }
    }

    fn outcome_rows(&self) -> Table {
        Table {
            title: "Job outcomes under node failures".to_string(),
            header: [
                "job",
                "workload",
                "variant",
                "outcome",
                "attempts",
                "lost (node-s)",
            ]
            .map(String::from)
            .to_vec(),
            rows: self
                .schedules
                .iter()
                .zip(&self.manifest.jobs)
                .filter(|(s, _)| s.attempts.len() > 1 || s.outcome == JobOutcome::Abandoned)
                .map(|(s, j)| {
                    vec![
                        j.id.to_string(),
                        j.workload.clone(),
                        j.variant.name().to_string(),
                        match s.outcome {
                            JobOutcome::CompletedAfterRetry(n) => {
                                format!("completed-after-retry({n})")
                            }
                            o => o.name().to_string(),
                        },
                        s.attempts.len().to_string(),
                        format!("{:.3}", s.lost_node_secs(j.nodes)),
                    ]
                })
                .collect(),
        }
    }

    fn slowdown_vs_healthy_table(&self) -> Table {
        // Scheduler-level turnaround (terminal end - submit) of completed
        // jobs, grouped by (workload, variant), against the same jobs'
        // turnaround in the healthy counterfactual schedule.
        let mut rows = Vec::new();
        for p in &self.profiles {
            let group: Vec<usize> = self
                .manifest
                .jobs
                .iter()
                .filter(|j| {
                    j.workload == p.workload
                        && j.variant.name() == p.variant
                        && self.schedules[j.id].outcome.completed()
                })
                .map(|j| j.id)
                .collect();
            if group.is_empty() {
                continue;
            }
            let degraded: Vec<f64> = group
                .iter()
                .map(|&i| {
                    let s = &self.schedules[i];
                    (s.final_attempt().end - s.submit).max(0.0)
                })
                .collect();
            let healthy: Vec<f64> = group
                .iter()
                .map(|&i| {
                    let p = &self.healthy_placements[i];
                    (p.end - p.submit).max(0.0)
                })
                .collect();
            let qd = Quantiles::of(&degraded);
            let qh = Quantiles::of(&healthy);
            let ratio = if qh.mean > 0.0 {
                qd.mean / qh.mean
            } else {
                f64::NAN
            };
            rows.push(vec![
                p.workload.clone(),
                p.variant.clone(),
                group.len().to_string(),
                format!("{:.3}", qh.p50),
                format!("{:.3}", qd.p50),
                format!("{:.3}", qh.p99),
                format!("{:.3}", qd.p99),
                cell(ratio),
            ]);
        }
        Table {
            title: "Turnaround slowdown vs healthy fleet".to_string(),
            header: [
                "workload",
                "variant",
                "jobs",
                "healthy p50 (s)",
                "degraded p50 (s)",
                "healthy p99 (s)",
                "degraded p99 (s)",
                "mean slowdown",
            ]
            .map(String::from)
            .to_vec(),
            rows,
        }
    }

    /// Render the full report as `repro -- fleet-sweep` prints it.
    pub fn render(&self) -> String {
        let mut out = String::from("== Fleet sweep: multi-tenant shared-PFS characterization\n");
        out.push_str(&format!(
            "jobs {} | scale {:.4} | seed {} | cluster {} nodes | arrival {}\n",
            self.records.len(),
            self.scale,
            self.seed,
            self.manifest.cluster_nodes,
            self.manifest.arrival
        ));
        let makespan = self.placements.iter().map(|p| p.end).fold(0.0f64, f64::max);
        out.push_str(&format!(
            "admission digest {:016x} | schedule makespan {:.3} s | mean queue wait {:.3} s\n\n",
            self.admission_digest(),
            makespan,
            self.mean_wait()
        ));
        out.push_str(&self.profile_table().render());
        out.push('\n');
        out.push_str(&self.distribution_table().render());
        out.push('\n');
        out.push_str(&self.correlation_table().render());
        out.push('\n');
        out.push_str(&self.noisy_neighbor_table().render());
        if let Some(s) = &self.spill {
            out.push('\n');
            out.push_str(&self.spill_table(s).render());
        }
        if self.is_degraded() {
            out.push('\n');
            out.push_str(&self.outage_table().render());
            out.push('\n');
            out.push_str(&self.degraded_accounting_table().render());
            out.push('\n');
            out.push_str(&self.outcome_rows().render());
            out.push('\n');
            out.push_str(&self.slowdown_vs_healthy_table().render());
        }
        out
    }

    /// Machine-readable mirror of [`FleetReport::render`]. Carries digests
    /// plus the aggregated tables, not the per-job records (the render has
    /// those in aggregate; the manifest digest pins the raw identity).
    /// Its bytes are FNV-pinned by `tests/fleet_resilience.rs`.
    pub fn to_json(&self) -> Json {
        let jnum = |x: f64| {
            if x.is_finite() {
                Json::Float(x)
            } else {
                Json::Null
            }
        };
        let quantiles = attributes()
            .iter()
            .map(|(name, f)| {
                let xs: Vec<f64> = self.records.iter().map(|r| f(r)).collect();
                let q = Quantiles::of(&xs);
                (
                    *name,
                    Json::obj([
                        ("n", Json::Int(q.n as i128)),
                        ("min", jnum(q.min)),
                        ("p50", jnum(q.p50)),
                        ("p90", jnum(q.p90)),
                        ("p99", jnum(q.p99)),
                        ("max", jnum(q.max)),
                        ("mean", jnum(q.mean)),
                    ]),
                )
            })
            .collect::<Vec<_>>();
        let profiles = self
            .profiles
            .iter()
            .map(|p| {
                Json::obj([
                    ("workload", Json::Str(p.workload.clone())),
                    ("variant", Json::Str(p.variant.clone())),
                    ("runtime_s", jnum(p.runtime_s)),
                    ("data_frac", jnum(p.data_frac)),
                    ("meta_frac", jnum(p.meta_frac)),
                ])
            })
            .collect::<Vec<_>>();
        let mut members = vec![
            ("n_jobs", Json::Int(self.records.len() as i128)),
            ("scale", Json::Float(self.scale)),
            ("seed", Json::Int(self.seed as i128)),
            (
                "cluster_nodes",
                Json::Int(self.manifest.cluster_nodes as i128),
            ),
            ("arrival", Json::Str(self.manifest.arrival.clone())),
            (
                "admission_digest",
                Json::Str(format!("{:016x}", self.admission_digest())),
            ),
            (
                "report_digest",
                Json::Str(format!("{:016x}", fnv1a64(&self.render()))),
            ),
            ("mean_queue_wait_s", jnum(self.mean_wait())),
            (
                "quantiles",
                Json::Obj(
                    quantiles
                        .into_iter()
                        .map(|(k, v)| (k.to_string(), v))
                        .collect(),
                ),
            ),
            ("profiles", Json::Arr(profiles)),
        ];
        // Spill keys appear only when the fleet spilled, keeping the
        // in-memory JSON bit-identical to the pre-spill output.
        if let Some(s) = &self.spill {
            members.push((
                "spill",
                Json::obj([
                    ("jobs", Json::Int(s.jobs as i128)),
                    ("fully_durable", Json::Int(s.fully_durable as i128)),
                    ("partial", Json::Int(s.partial as i128)),
                    ("lost_entirely", Json::Int(s.lost_entirely as i128)),
                    ("lost_records", Json::Int(s.lost_records as i128)),
                    ("mean_complete_frac", jnum(s.mean_complete_frac)),
                ]),
            ));
        }
        // Degraded-mode keys appear only under an active plan, keeping
        // the healthy JSON bit-identical to the pre-change output.
        if self.is_degraded() {
            let (clean, retried, abandoned) = self.outcome_counts();
            members.push((
                "node_faults",
                Json::obj([
                    (
                        "outages",
                        Json::Int(self.manifest.node_faults.outages.len() as i128),
                    ),
                    (
                        "node_hours_down",
                        jnum(self.manifest.node_faults.node_hours_down()),
                    ),
                    ("completed_clean", Json::Int(clean as i128)),
                    ("completed_after_retry", Json::Int(retried as i128)),
                    ("abandoned", Json::Int(abandoned as i128)),
                    ("retry_amplification", jnum(self.retry_amplification())),
                    ("offered_node_secs", jnum(self.offered_node_secs())),
                    ("goodput_node_secs", jnum(self.useful_work_node_secs())),
                    ("lost_work_node_secs", jnum(self.lost_work_node_secs())),
                    ("goodput_frac", jnum(self.goodput_frac())),
                ]),
            ));
        }
        Json::obj(members)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nan_cells_render_as_dashes() {
        assert_eq!(cell(f64::NAN), "-");
        assert_eq!(cell(f64::INFINITY), "-");
        assert_eq!(cell(1.25), "1.2500");
    }

    #[test]
    fn correlation_attrs_are_a_subset_of_the_attribute_list() {
        let names: Vec<&str> = attributes().iter().map(|(n, _)| *n).collect();
        for a in CORR_ATTRS {
            assert!(names.contains(&a), "{a} missing from attributes()");
        }
    }
}
