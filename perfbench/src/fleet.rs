//! `fleet`: the datacenter mode. 200 heterogeneous jobs of the standard mix
//! at scale 0.02, analysed in memory by the streaming analyser, fanned out
//! over 2 workers by `Driver::Parallel`.
//!
//! The untraced pass is one `fleet_sweep` call plus the report render. The
//! wave structure runs inside that call, so the traced pass re-drives the
//! same inputs through the library's public per-step calls (manifest,
//! profiles, schedule, interference, per-job simulate → seal → fold,
//! render) and checks that the re-driven report renders byte-identically
//! to the untraced one.

use std::collections::BTreeMap;
use std::time::Instant;

use exemplar_workloads::{
    cm1, cosmoflow, hacc, ior, jag, montage, montage_pegasus, WorkloadKind, WorkloadRun,
};
use recorder_sim::chunk::columnar_capacity_bytes;
use recorder_sim::{ChunkedTrace, ColumnarTrace, DEFAULT_CHUNK_ROWS};
use sim_core::{Dur, SimTime};
use storage_sim::{FaultPlan, GpfsConfig, InterferenceSchedule};
use vani_core::analyzer::TraceProfile;
use vani_core::sweep::{retry_seed, Driver};
use vani_core::tenancy::contention::interference_for;
use vani_core::tenancy::{
    build_manifest, fleet_sweep, parse_workload, resilient_schedule, FleetConfig, FleetReport,
    JobDemand, JobRecord, JobSchedule, JobVariant, ProfileSummary, ScheduleArrivals, TenantDemand,
    KNOWN_WORKLOADS,
};
use vani_rt::{par, Rng};

use crate::spans::{SpanId, Spans};
use crate::stats::{digest_str, tail_percentile};
use crate::{Pass, Phase, Traced};

/// Jobs in the fleet.
pub const JOBS: usize = 200;
/// Scale every job runs at.
pub const SCALE: f64 = 0.02;
/// Worker threads of the fan-out.
pub const WORKERS: usize = 2;

/// Generated inputs and the reference output.
pub struct Setup {
    cfg: FleetConfig,
    manifest_digest: u64,
    reference: String,
}

/// The work one job of `(workload, variant)` brings at [`SCALE`]: its
/// median job time in tenths of a millisecond, measured on a 2-core x86-64
/// VM, and its interface-layer operations. Only the ratios matter; they
/// steer [`config`] and nothing else.
fn job_work(workload: &str, v: JobVariant) -> [f64; 2] {
    use JobVariant::{Baseline, Crashy, Faulted};
    match (workload, v) {
        ("cm1", Baseline) => [53.0, 10546.0],
        ("cm1", Faulted) => [50.0, 10546.0],
        ("cm1", Crashy) => [64.0, 10596.0],
        ("cosmoflow", Crashy) => [746.0, 47648.0],
        ("cosmoflow", _) => [490.0, 31808.0],
        ("jag", _) => [246.0, 4220.0],
        ("montage-mpi", Baseline) => [37.0, 1587.0],
        ("montage-mpi", _) => [33.0, 1587.0],
        ("montage-pegasus", Baseline) => [304.0, 17195.0],
        ("montage-pegasus", _) => [247.0, 17195.0],
        ("hacc", _) => [2.0, 288.0],
        _ => [1.0, 8.0],
    }
}

/// Candidate fleets drawn for one benchmark seed.
const MAX_DRAWS: usize = 4096;
/// How far a fleet's estimated work may lie from the mix's expectation.
const WORK_BAND: f64 = 0.01;

/// How far `cfg`'s drawn manifest lies from the mix's expected work, by
/// the larger of the two [`job_work`] measures.
fn work_offset(cfg: &FleetConfig) -> f64 {
    let live: Vec<_> = cfg.mix.iter().filter(|t| t.weight > 0).collect();
    let weight: f64 = live.iter().map(|t| t.weight as f64).sum();
    let manifest = build_manifest(cfg).expect("the standard fleet is valid");
    (0..2)
        .map(|k| {
            let expected: f64 = live
                .iter()
                .map(|t| t.weight as f64 * job_work(&t.workload, t.variant)[k])
                .sum::<f64>()
                * cfg.n_jobs as f64
                / weight;
            let drawn: f64 = manifest
                .jobs
                .iter()
                .map(|j| job_work(&j.workload, j.variant)[k])
                .sum();
            (drawn / expected - 1.0).abs()
        })
        .fold(0.0, f64::max)
}

/// The fleet for benchmark seed `seed`: the first of a seeded sequence of
/// standard fleets whose estimated work lies within [`WORK_BAND`] of the
/// mix's expected work. Job costs differ by two orders of magnitude across
/// the mix, so unconditioned 200-job draws vary their total work by about
/// 8% from seed to seed; conditioning holds the work steady while the
/// job mix, arrivals and job seeds stay random.
pub fn config(seed: u64) -> FleetConfig {
    let mut rng = Rng::new(seed);
    let mut best: Option<(f64, FleetConfig)> = None;
    for _ in 0..MAX_DRAWS {
        let cfg = FleetConfig::standard(JOBS, SCALE, rng.next_u64());
        let off = work_offset(&cfg);
        if off <= WORK_BAND {
            return cfg;
        }
        if best.as_ref().is_none_or(|(b, _)| off < *b) {
            best = Some((off, cfg));
        }
    }
    best.expect("MAX_DRAWS is positive").1
}

/// Whether `report` holds a record for every manifest job, in order.
fn covers_manifest(report: &FleetReport) -> bool {
    report.records.len() == report.manifest.jobs.len()
        && report
            .records
            .iter()
            .zip(&report.manifest.jobs)
            .all(|(r, j)| r.job_id == j.id)
}

/// Build the configuration and manifest and run the fleet once for the
/// reference render.
pub fn setup(seed: u64) -> Setup {
    par::set_threads(WORKERS);
    let cfg = config(seed);
    let manifest = build_manifest(&cfg).expect("the standard fleet is valid");
    let report = fleet_sweep(&cfg, Driver::Parallel).expect("the standard fleet runs");
    assert!(
        covers_manifest(&report),
        "reference fleet lacks job records"
    );
    Setup {
        manifest_digest: digest_str(&manifest.render()),
        reference: report.render(),
        cfg,
    }
}

/// Digest of the generated inputs (the manifest).
pub fn input_digest(s: &Setup) -> u64 {
    s.manifest_digest
}

/// One timed `fleet_sweep` + render, checked against the reference.
pub fn pass(s: &Setup) -> Pass {
    let t0 = Instant::now();
    let report = fleet_sweep(&s.cfg, Driver::Parallel).expect("the standard fleet runs");
    let sweep_s = t0.elapsed().as_secs_f64();
    let text = report.render();
    let wall_s = t0.elapsed().as_secs_f64();
    let n = s.cfg.n_jobs as u64;
    let ok = text == s.reference && covers_manifest(&report);
    // Capture and replay run inside the sweep and cannot be timed apart
    // from outside: both rates count the fleet's interface-layer records
    // against the sweep's time.
    let ops: f64 = report
        .records
        .iter()
        .map(|r| (r.data_ops + r.meta_ops) as f64)
        .sum();
    Pass {
        wall_s,
        jobs: n as f64,
        capture: Phase {
            records: ops,
            secs: sweep_s,
        },
        replay: Phase {
            records: ops,
            secs: sweep_s,
        },
        attempted: n,
        failed: if ok { 0 } else { n },
        trace_bytes: 0,
    }
}

/// The plan `JobVariant::Faulted` jobs run under (mirrors the library).
fn faulted_plan() -> FaultPlan {
    let forever = SimTime::from_secs(30 * 24 * 3600);
    FaultPlan::none()
        .with_nsd_brownout(SimTime::ZERO, forever, 1.5)
        .with_mds_brownout(SimTime::ZERO, forever, 4.0)
}

/// The plan a `JobVariant::Crashy` job runs under (mirrors the library).
fn crashy_plan(baseline: Dur) -> FaultPlan {
    FaultPlan::none().with_rank_crash(0, SimTime::from_nanos(baseline.as_nanos() / 2))
}

/// One job through the exemplar's public `run_with` entry.
fn run_job(
    kind: WorkloadKind,
    seed: u64,
    faults: FaultPlan,
    interference: InterferenceSchedule,
) -> WorkloadRun {
    macro_rules! with {
        ($params:expr, $run:expr) => {{
            let mut p = $params;
            p.faults = faults;
            p.interference = interference;
            $run(p)
        }};
    }
    match kind {
        WorkloadKind::Cm1 => with!(cm1::Cm1Params::scaled(SCALE), |p| cm1::run_with(
            p, SCALE, seed
        )),
        WorkloadKind::Hacc => with!(hacc::HaccParams::scaled(SCALE), |p| hacc::run_with(
            p, SCALE, seed
        )),
        WorkloadKind::Cosmoflow => {
            with!(cosmoflow::CosmoflowParams::scaled(SCALE), |p| {
                cosmoflow::run_with(p, SCALE, seed)
            })
        }
        WorkloadKind::Jag => with!(jag::JagParams::scaled(SCALE), |p| jag::run_with(
            p, SCALE, seed
        )),
        WorkloadKind::MontageMpi => with!(montage::MontageParams::scaled(SCALE), |p| {
            montage::run_with(p, SCALE, seed)
        }),
        WorkloadKind::MontagePegasus => {
            with!(montage_pegasus::PegasusParams::scaled(SCALE), |p| {
                montage_pegasus::run_with(p, SCALE, seed)
            })
        }
        WorkloadKind::Ior => with!(ior::IorParams::scaled(SCALE), |p| ior::run(p, seed)),
    }
}

/// A dedicated profile: runtime estimate and demand fractions.
#[derive(Debug, Clone, Copy)]
struct Profile {
    runtime: Dur,
    demand: TenantDemand,
}

fn profile_of(run: &WorkloadRun, pfs_capacity_scale: f64) -> Profile {
    let cfg = GpfsConfig::lassen();
    let cap = pfs_capacity_scale.max(1e-6);
    let data_capacity = cfg.n_data_servers as f64 * cfg.server_bw as f64 * cap;
    let meta_capacity = cfg.n_meta_servers as f64 / cfg.meta_op_cost.as_secs_f64() * cap;
    let s = run.world.storage.pfs().stats();
    let rt = run.runtime().as_secs_f64().max(1e-9);
    Profile {
        runtime: run.runtime(),
        demand: TenantDemand {
            data_frac: ((s.bytes_read + s.bytes_written) as f64 / rt / data_capacity).min(8.0),
            meta_frac: (s.meta_ops as f64 / rt / meta_capacity).min(8.0),
        },
    }
}

fn workload_id(kind: WorkloadKind) -> &'static str {
    KNOWN_WORKLOADS
        .iter()
        .copied()
        .find(|w| parse_workload(w).ok() == Some(kind))
        .expect("every kind has an id")
}

/// Counts one simulated job contributes to the layer totals.
#[derive(Debug, Default, Clone, Copy)]
struct SimCounts {
    steps: u64,
    records: u64,
    pfs_ops: u64,
}

fn sim_counts(run: &WorkloadRun) -> SimCounts {
    let s = run.world.storage.pfs().stats();
    SimCounts {
        steps: run.report.steps,
        records: run.columnar_view().len() as u64,
        pfs_ops: s.data_ops + s.meta_ops,
    }
}

/// A fan-out wave: each item runs inside a `job` span under the wave's
/// span, on the library's worker pool.
fn wave<T: Send + Sync, R: Send>(
    spans: &Spans,
    name: &'static str,
    parent: SpanId,
    items: Vec<T>,
    f: impl Fn(SpanId, T) -> R + Sync,
) -> Vec<R> {
    spans.time(name, Some(parent), |wave_id| {
        par::par_map_owned(items, |item| {
            spans.time("par.job", Some(wave_id), |job_id| f(job_id, item))
        })
    })
}

/// A wave-2 job's outputs: its record, its sealed trace (for the decode
/// probe) and its counts.
struct JobOut {
    record: JobRecord,
    chunked: ChunkedTrace,
    counts: SimCounts,
}

/// The traced re-drive of one fleet pass.
pub fn traced_pass(s: &Setup, spans: &Spans, root: SpanId) -> Traced {
    let cfg = &s.cfg;
    let manifest = spans.time("tenancy.manifest", Some(root), |_| {
        build_manifest(cfg).expect("the standard fleet is valid")
    });

    // Distinct (workload, variant) combos, in the library's order.
    let mut combos: Vec<(WorkloadKind, JobVariant)> = Vec::new();
    for w in KNOWN_WORKLOADS {
        let kind = parse_workload(w).expect("known");
        for v in [
            JobVariant::Baseline,
            JobVariant::Faulted,
            JobVariant::Crashy,
        ] {
            let present = manifest
                .jobs
                .iter()
                .any(|j| j.workload == w && j.variant == v);
            let crash_anchor = v == JobVariant::Baseline
                && manifest
                    .jobs
                    .iter()
                    .any(|j| j.workload == w && j.variant == JobVariant::Crashy);
            if present || crash_anchor {
                combos.push((kind, v));
            }
        }
    }

    let profile_job = |job: SpanId, (kind, plan): (WorkloadKind, FaultPlan)| {
        let run = spans.time("sim", Some(job), |_| {
            run_job(kind, cfg.seed, plan, InterferenceSchedule::none())
        });
        (profile_of(&run, cfg.pfs_capacity_scale), sim_counts(&run))
    };
    let w1_combos: Vec<(WorkloadKind, JobVariant)> = combos
        .iter()
        .copied()
        .filter(|(_, v)| *v != JobVariant::Crashy)
        .collect();
    let w1_items = w1_combos
        .iter()
        .map(|&(k, v)| {
            let plan = if v == JobVariant::Faulted {
                faulted_plan()
            } else {
                FaultPlan::none()
            };
            (k, plan)
        })
        .collect();
    let w1 = wave(spans, "fleet.profile", root, w1_items, profile_job);
    let mut counts: Vec<SimCounts> = w1.iter().map(|(_, c)| *c).collect();
    let mut profiles: Vec<((WorkloadKind, JobVariant), Profile)> = w1_combos
        .iter()
        .copied()
        .zip(w1.into_iter().map(|(p, _)| p))
        .collect();
    let baseline_runtime = |profiles: &[((WorkloadKind, JobVariant), Profile)], kind| {
        profiles
            .iter()
            .find(|((k, v), _)| *k == kind && *v == JobVariant::Baseline)
            .map(|(_, p)| p.runtime)
            .expect("baseline profile exists for every crashy workload")
    };
    let crashy: Vec<WorkloadKind> = combos
        .iter()
        .filter(|(_, v)| *v == JobVariant::Crashy)
        .map(|(k, _)| *k)
        .collect();
    if !crashy.is_empty() {
        let items = crashy
            .iter()
            .map(|&k| (k, crashy_plan(baseline_runtime(&profiles, k))))
            .collect();
        let w1b = wave(spans, "fleet.profile", root, items, profile_job);
        counts.extend(w1b.iter().map(|(_, c)| *c));
        profiles.extend(
            crashy
                .iter()
                .map(|&k| (k, JobVariant::Crashy))
                .zip(w1b.into_iter().map(|(p, _)| p)),
        );
    }
    let profile_for = |workload: &str, v: JobVariant| -> Profile {
        let kind = parse_workload(workload).expect("validated");
        profiles
            .iter()
            .find(|((k, pv), _)| *k == kind && *pv == v)
            .map(|(_, p)| *p)
            .expect("every manifest combo was profiled")
    };

    let submits: Vec<f64> = manifest.jobs.iter().map(|j| j.submit).collect();
    let demands: Vec<JobDemand> = manifest
        .jobs
        .iter()
        .map(|j| JobDemand {
            nodes: j.nodes,
            est_runtime: profile_for(&j.workload, j.variant).runtime.as_secs_f64(),
        })
        .collect();
    let schedules: Vec<JobSchedule> = spans.time("tenancy.schedule", Some(root), |_| {
        let arrivals = ScheduleArrivals::from_process(&cfg.arrival, &submits);
        resilient_schedule(
            cfg.cluster_nodes,
            &demands,
            &arrivals,
            &manifest.node_faults,
            &cfg.sched,
        )
    });
    let placements: Vec<_> = schedules.iter().map(JobSchedule::as_placement).collect();
    let tenant_demands: Vec<TenantDemand> = manifest
        .jobs
        .iter()
        .map(|j| profile_for(&j.workload, j.variant).demand)
        .collect();
    let interference: Vec<InterferenceSchedule> =
        spans.time("tenancy.interference", Some(root), |_| {
            (0..manifest.jobs.len())
                .map(|i| interference_for(i, &placements, &tenant_demands))
                .collect()
        });

    let items: Vec<usize> = (0..manifest.jobs.len()).collect();
    let job_out = |job_span: SpanId, i: usize| -> JobOut {
        let j = &manifest.jobs[i];
        let kind = parse_workload(&j.workload).expect("validated");
        let plan = match j.variant {
            JobVariant::Baseline => FaultPlan::none(),
            JobVariant::Faulted => faulted_plan(),
            JobVariant::Crashy => crashy_plan(baseline_runtime(&profiles, kind)),
        };
        let retries = schedules[i].outcome.retries();
        let schedule = interference[i].clone();
        let run = spans.time("sim", Some(job_span), |_| {
            run_job(kind, retry_seed(j.seed, retries), plan, schedule.clone())
        });
        let chunked = spans.time("codec.seal", Some(job_span), |_| {
            let c: ColumnarTrace = run.columnar();
            ChunkedTrace::from_columnar(&c, DEFAULT_CHUNK_ROWS)
        });
        let p = spans.time("analyzer.fold", Some(job_span), |_| {
            TraceProfile::streaming(&chunked, run.runtime())
        });
        let stats = run.world.storage.pfs().stats();
        let rt = run.runtime().as_secs_f64();
        let dedicated = profile_for(&j.workload, j.variant).runtime.as_secs_f64();
        let record = JobRecord {
            job_id: j.id,
            workload: j.workload.clone(),
            variant: j.variant,
            submit: placements[i].submit,
            start: placements[i].start,
            nodes: run.world.alloc.spec.nodes,
            n_ranks: run.world.alloc.total_ranks(),
            runtime: rt,
            io_time_frac: p.io_time_frac,
            read_bytes: p.read_bytes,
            write_bytes: p.write_bytes,
            data_ops: p.data_ops,
            meta_ops: p.meta_ops,
            agg_bw: (p.read_bytes + p.write_bytes) as f64 / rt.max(1e-9),
            mean_neighbor_load: schedule
                .mean_data_load(SimTime::from_nanos(run.runtime().as_nanos())),
            tenant_delay_secs: stats.tenant_delay_nanos as f64 / 1e9,
            contended_ops: stats.contended_data_ops + stats.contended_meta_ops,
            fault_events: p.fault_events,
            restart_events: p.restart_events,
            slowdown: rt / dedicated.max(1e-9),
            outcome: schedules[i].outcome,
            retries,
            lost_work_node_secs: schedules[i].lost_node_secs(j.nodes),
            trace_complete_frac: 1.0,
            trace_lost_records: 0,
        };
        JobOut {
            record,
            chunked,
            counts: sim_counts(&run),
        }
    };
    let outs = wave(spans, "fleet.jobs", root, items, job_out);

    let mut records = Vec::with_capacity(outs.len());
    let mut chunked = Vec::with_capacity(outs.len());
    for o in outs {
        counts.push(o.counts);
        records.push(o.record);
        chunked.push(o.chunked);
    }
    let n_records = records.len();
    let text = spans.time("report", Some(root), |_| {
        FleetReport {
            scale: cfg.scale,
            seed: cfg.seed,
            manifest,
            placements: placements.clone(),
            profiles: profiles
                .iter()
                .map(|((k, v), p)| ProfileSummary {
                    workload: workload_id(*k).to_string(),
                    variant: v.name().to_string(),
                    runtime_s: p.runtime.as_secs_f64(),
                    data_frac: p.demand.data_frac,
                    meta_frac: p.demand.meta_frac,
                })
                .collect(),
            records,
            policy: cfg.sched,
            schedules,
            healthy_placements: placements,
            spill: None,
        }
        .render()
    });

    let n = cfg.n_jobs as u64;
    let failed = if text == s.reference && n_records == cfg.n_jobs {
        0
    } else {
        n
    };

    let mut layers: BTreeMap<&'static str, f64> = BTreeMap::new();
    for c in &counts {
        *layers.entry("sim.steps").or_default() += c.steps as f64;
        *layers.entry("sim.records").or_default() += c.records as f64;
        *layers.entry("sim.pfs_ops").or_default() += c.pfs_ops as f64;
    }
    let (mut bytes, mut recs, mut chunks) = (0f64, 0f64, 0f64);
    for t in &chunked {
        bytes += t.compressed_bytes() as f64;
        recs += t.len() as f64;
        chunks += t.chunks.len() as f64;
    }
    layers.insert("codec.bytes", bytes);
    layers.insert("codec.records", recs);
    layers.insert("codec.chunks", chunks);
    layers.insert("analyzer.records", recs);
    layers.insert("report.bytes", text.len() as f64);
    Traced {
        layers,
        attempted: n,
        failed,
        workers: WORKERS,
        probe: Box::new(move || decode_probe(&chunked)),
    }
}

/// Decode every chunk of every job once: the decode share of the fold.
fn decode_probe(traces: &[ChunkedTrace]) -> f64 {
    let mut buf = ColumnarTrace::default();
    let t = Instant::now();
    for trace in traces {
        for ch in &trace.chunks {
            buf.clear_rows();
            ch.decode_into(&mut buf, false)
                .expect("freshly sealed chunk decodes");
        }
    }
    std::hint::black_box(columnar_capacity_bytes(&buf));
    t.elapsed().as_secs_f64()
}

/// Per-pass job latency figures from the wave-2 job spans.
pub fn job_latency(job_ms: &[f64]) -> (f64, f64, f64) {
    let p50 = tail_percentile(job_ms, &[50.0]).map_or(0.0, |t| t.value);
    let tail = tail_percentile(job_ms, &[50.0, 90.0, 95.0]).map_or(0.0, |t| t.value);
    (p50, tail, job_ms.len() as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fleets_are_seeded_and_hold_their_work_steady() {
        for seed in 1..6 {
            let a = config(seed);
            assert_eq!(a.seed, config(seed).seed, "same seed, same fleet");
            assert_eq!(a.n_jobs, JOBS);
            assert!(work_offset(&a) <= WORK_BAND);
            let m = build_manifest(&a).expect("valid");
            let other = build_manifest(&config(seed + 100)).expect("valid");
            assert_ne!(
                m.render(),
                other.render(),
                "different seeds, different fleets"
            );
        }
    }
}
