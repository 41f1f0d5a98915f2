//! The Vani Analyzer: extracts the paper's workload attributes from a
//! captured run (§IV-C).
//!
//! Mirrors the paper's pipeline: the Recorder trace is converted to columns
//! (`recorder-sim::columnar`, the parquet step) and the attributes are
//! computed with group-by/filter kernels (the DASK step). `JobUtility`-style
//! system attributes come from the run's allocation and storage
//! configuration rather than the trace.
//!
//! # One fold, one driver
//!
//! Every trace-derived attribute comes out of one per-record fold,
//! `fold_fused_record`, whose shard accumulator carries *everything at
//! once* — byte and op counters, per-rank aggregates, per-file profiles,
//! per-app profiles, producer/consumer file sets, request-size and
//! bandwidth histograms, and the interface-selection index lists that
//! feed the online phase and access-pattern detectors. One driver
//! (`crate::streaming`) runs that fold over batches of records in capture
//! order: [`TraceProfile::fused`] lends a whole in-memory trace as a
//! single batch, and [`TraceProfile::streaming_source`] lends one decoded
//! chunk at a time. Shards merge in morsel order and every floating-point
//! reduction happens in a key-sorted or capture order, so the profile is
//! **bit-identical across worker counts and batchings**.
//!
//! The integration suite `analyzer_fused_vs_multipass` checks the driver
//! against a one-scan-per-statistic oracle that lives in `tests/common/`.

use exemplar_workloads::harness::{WorkloadKind, WorkloadRun};
use recorder_sim::chunk::BitWords;
use recorder_sim::record::{Layer, OpKind};
use recorder_sim::{ChunkMeta, ColumnarTrace};
use sim_core::stats::{DistributionFit, Summary};

use sim_core::{Dur, Histogram, SimTime, TimeSeries};
use std::collections::HashSet;

/// Per-file profile: who touches it and how much.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FileProfile {
    /// Interned path.
    pub path: String,
    /// Ranks that read it.
    pub readers: HashSet<u32>,
    /// Ranks that write it.
    pub writers: HashSet<u32>,
    /// Ranks that performed metadata ops on it (open/close/stat).
    pub openers: HashSet<u32>,
    /// Bytes read.
    pub read_bytes: u64,
    /// Bytes written.
    pub write_bytes: u64,
    /// Data ops.
    pub data_ops: u64,
    /// Metadata ops.
    pub meta_ops: u64,
    /// Total time spent in ops on this file.
    pub time: Dur,
    /// Final size (from the trace's high-water mark).
    pub size: u64,
}

impl FileProfile {
    /// Every rank that touches the file (data or metadata access — the
    /// paper classifies CM1's step files as shared because many leaders
    /// open them even though only rank 0 writes).
    pub(crate) fn touchers(&self) -> usize {
        self.readers
            .union(&self.writers)
            .chain(self.openers.difference(&self.readers))
            .collect::<HashSet<_>>()
            .len()
    }

    /// Shared = touched by more than one rank (the paper's classification).
    pub fn is_shared(&self) -> bool {
        self.touchers() > 1
    }
}

/// One detected I/O phase (Table V).
#[derive(Debug, Clone, PartialEq)]
pub struct PhaseInfo {
    /// Phase start.
    pub start: SimTime,
    /// Phase end.
    pub end: SimTime,
    /// Bytes moved in the phase.
    pub bytes: u64,
    /// Data ops in the phase.
    pub data_ops: u64,
    /// Metadata ops in the phase.
    pub meta_ops: u64,
    /// Dominant transfer size in the phase.
    pub dominant_xfer: u64,
}

impl PhaseInfo {
    /// Phase duration.
    pub(crate) fn runtime(&self) -> Dur {
        self.end.since(self.start)
    }
}

/// Per-application (workflow step) profile.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct AppProfile {
    /// Kernel name.
    pub name: String,
    /// Distinct ranks that executed it.
    pub processes: usize,
    /// Bytes read / written.
    pub read_bytes: u64,
    /// Bytes written.
    pub write_bytes: u64,
    /// Data / metadata ops.
    pub data_ops: u64,
    /// Metadata ops.
    pub meta_ops: u64,
    /// Wall span of its records.
    pub first: SimTime,
    /// Last record end.
    pub last: SimTime,
}

/// All workload attributes derivable from the columnar trace alone (no
/// allocation or storage state needed). [`Analysis`] is this plus the
/// run-level attributes; benchmarks and tests profile bare synthetic
/// traces through this type directly.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceProfile {
    /// Mean per-rank time spent inside I/O calls, as a fraction of runtime.
    pub io_time_frac: f64,
    /// Bytes read at the interface layer.
    pub read_bytes: u64,
    /// Bytes written at the interface layer.
    pub write_bytes: u64,
    /// Interface-layer data op count.
    pub data_ops: u64,
    /// Interface-layer metadata op count.
    pub meta_ops: u64,
    /// Detected interface ("POSIX", "STDIO", "HDF5-MPI-IO").
    pub interface: String,
    /// "Seq" / "Mixed" access pattern.
    pub access_pattern: String,
    /// Request-size histogram (Figures 1a–6a, left panel).
    pub req_sizes: Histogram,
    /// Per-request bandwidth histogram, bytes/s buckets (right panel).
    pub req_bandwidth: Histogram,
    /// Read-bytes timeline (Figures 1c–6c).
    pub read_timeline: TimeSeries,
    /// Write-bytes timeline.
    pub write_timeline: TimeSeries,
    /// Per-file profiles.
    pub files: Vec<FileProfile>,
    /// Detected I/O phases.
    pub phases: Vec<PhaseInfo>,
    /// Per-application profiles (workflows have several).
    pub apps: Vec<AppProfile>,
    /// App-level data dependencies (producer → consumer).
    pub app_deps: Vec<(String, String)>,
    /// Failed attempts absorbed or surfaced by the resilience middleware
    /// (`Fault` records; counted over every layer, outside the interface
    /// selection — fault records are neither data nor metadata ops).
    pub fault_events: u64,
    /// Backoff waits before re-submission (`Retry` records).
    pub retry_events: u64,
    /// Payload bytes re-submitted by retries (feeds retry amplification).
    pub retried_bytes: u64,
    /// Wall time inside fault detection and backoff waits — the trace's
    /// "time lost to faults".
    pub fault_time: Dur,
    /// Durable checkpoints written (`Checkpoint` records).
    pub ckpt_events: u64,
    /// Wall time inside checkpoint write sequences (`Checkpoint` spans).
    pub ckpt_time: Dur,
    /// Job restarts after fatal crashes (`RestartEpoch` records).
    pub restart_events: u64,
    /// Work thrown away by crashes: last durable checkpoint → instant of
    /// death (`Crash` spans).
    pub crash_lost_time: Dur,
    /// Scheduler requeue + relaunch latency (`RestartEpoch` spans).
    pub recovery_time: Dur,
}

/// The complete analysis of one workload run.
#[derive(Debug, Clone, PartialEq)]
pub struct Analysis {
    /// Which workload.
    pub kind: WorkloadKind,
    /// Scale it ran at.
    pub scale: f64,
    /// Job runtime (engine makespan).
    pub job_time: Dur,
    /// Mean per-rank time spent inside I/O calls, as a fraction of runtime.
    pub io_time_frac: f64,
    /// Nodes / ranks-per-node / total ranks.
    pub nodes: u32,
    /// Ranks per node.
    pub ranks_per_node: u32,
    /// Total ranks.
    pub n_ranks: u32,
    /// Bytes read at the interface layer.
    pub read_bytes: u64,
    /// Bytes written at the interface layer.
    pub write_bytes: u64,
    /// Interface-layer data / metadata op counts.
    pub data_ops: u64,
    /// Metadata ops at the interface layer.
    pub meta_ops: u64,
    /// Detected interface ("POSIX", "STDIO", "HDF5-MPI-IO").
    pub interface: String,
    /// "Sequential" / "Mixed" access pattern.
    pub access_pattern: String,
    /// Request-size histogram (Figures 1a–6a, left panel).
    pub req_sizes: Histogram,
    /// Per-request bandwidth histogram, bytes/s buckets (right panel).
    pub req_bandwidth: Histogram,
    /// Read-bytes timeline (Figures 1c–6c).
    pub read_timeline: TimeSeries,
    /// Write-bytes timeline.
    pub write_timeline: TimeSeries,
    /// Per-file profiles.
    pub files: Vec<FileProfile>,
    /// Detected I/O phases.
    pub phases: Vec<PhaseInfo>,
    /// Per-application profiles (workflows have several).
    pub apps: Vec<AppProfile>,
    /// App-level data dependencies (producer → consumer).
    pub app_deps: Vec<(String, String)>,
    /// Failed attempts absorbed or surfaced by the resilience middleware.
    pub fault_events: u64,
    /// Backoff waits before re-submission.
    pub retry_events: u64,
    /// Payload bytes re-submitted by retries.
    pub retried_bytes: u64,
    /// Wall time inside fault detection and backoff waits.
    pub fault_time: Dur,
    /// Durable checkpoints written.
    pub ckpt_events: u64,
    /// Wall time inside checkpoint write sequences.
    pub ckpt_time: Dur,
    /// Job restarts after fatal crashes.
    pub restart_events: u64,
    /// Work thrown away by crashes (re-run after restarting).
    pub crash_lost_time: Dur,
    /// Scheduler requeue + relaunch latency across all restarts.
    pub recovery_time: Dur,
    /// Bytes each *failed* NSD server's stripes rerouted onto survivors,
    /// indexed by the home server (from the PFS service model; all zeros
    /// when no outage was injected).
    pub rerouted_by_server: Vec<u64>,
    /// Dataset value-distribution fit (Table VI "Data dist").
    pub data_dist: DistributionFit,
    /// The columnar trace, retained for figure rendering.
    pub trace: ColumnarTrace,
}

impl Analysis {
    /// Analyze a completed run: [`TraceProfile::fused`] over its trace.
    pub fn from_run(run: &WorkloadRun) -> Analysis {
        let c = run.columnar();
        let p = TraceProfile::fused(&c, run.runtime());
        let data_dist = fit_data_distribution(run, &p.files);
        Analysis {
            kind: run.kind,
            scale: run.scale,
            job_time: run.runtime(),
            io_time_frac: p.io_time_frac,
            nodes: run.world.alloc.spec.nodes,
            ranks_per_node: run.world.alloc.spec.ranks_per_node,
            n_ranks: run.world.alloc.total_ranks(),
            read_bytes: p.read_bytes,
            write_bytes: p.write_bytes,
            data_ops: p.data_ops,
            meta_ops: p.meta_ops,
            interface: p.interface,
            access_pattern: p.access_pattern,
            req_sizes: p.req_sizes,
            req_bandwidth: p.req_bandwidth,
            read_timeline: p.read_timeline,
            write_timeline: p.write_timeline,
            files: p.files,
            phases: p.phases,
            apps: p.apps,
            app_deps: p.app_deps,
            fault_events: p.fault_events,
            retry_events: p.retry_events,
            retried_bytes: p.retried_bytes,
            fault_time: p.fault_time,
            ckpt_events: p.ckpt_events,
            ckpt_time: p.ckpt_time,
            restart_events: p.restart_events,
            crash_lost_time: p.crash_lost_time,
            recovery_time: p.recovery_time,
            rerouted_by_server: run.world.storage.pfs().rerouted_by_server().to_vec(),
            data_dist,
            trace: c,
        }
    }

    /// Number of distinct files used.
    pub fn n_files(&self) -> usize {
        self.files.len()
    }

    /// Files touched by more than one rank.
    pub fn shared_files(&self) -> usize {
        self.files.iter().filter(|f| f.is_shared()).count()
    }

    /// Files touched by exactly one rank (file-per-process).
    pub fn fpp_files(&self) -> usize {
        self.files.len() - self.shared_files()
    }

    /// Data-op fraction of interface-layer ops.
    pub fn data_frac(&self) -> f64 {
        let total = self.data_ops + self.meta_ops;
        if total == 0 {
            0.0
        } else {
            self.data_ops as f64 / total as f64
        }
    }

    /// Total bytes moved.
    pub fn io_bytes(&self) -> u64 {
        self.read_bytes + self.write_bytes
    }

    /// Sum of final file sizes (the dataset footprint, Table X).
    pub(crate) fn dataset_bytes(&self) -> u64 {
        self.files.iter().map(|f| f.size).sum()
    }

    /// Mean per-rank I/O time in seconds.
    pub fn io_time(&self) -> f64 {
        self.io_time_frac * self.job_time.as_secs_f64()
    }

    /// Faults per interface-layer I/O op (Table VI-style "Error rate").
    pub fn error_rate(&self) -> f64 {
        let ops = self.data_ops + self.meta_ops;
        if ops == 0 {
            0.0
        } else {
            self.fault_events as f64 / ops as f64
        }
    }

    /// Retried bytes over logical bytes: how much extra payload the
    /// middleware re-moved to land the logical I/O.
    pub fn retry_amplification(&self) -> f64 {
        let logical = self.io_bytes();
        if logical == 0 {
            0.0
        } else {
            self.retried_bytes as f64 / logical as f64
        }
    }

    /// Seconds of simulated wall time lost inside fault detection and
    /// backoff waits.
    pub fn time_lost_to_faults(&self) -> f64 {
        self.fault_time.as_secs_f64()
    }

    /// Times the job restarted after a fatal crash.
    pub fn restart_count(&self) -> u64 {
        self.restart_events
    }

    /// Seconds of completed work thrown away by crashes (everything since
    /// the last durable checkpoint, re-run after restarting).
    pub(crate) fn time_lost_to_crashes(&self) -> f64 {
        self.crash_lost_time.as_secs_f64()
    }

    /// Seconds spent writing durable checkpoints — the insurance premium
    /// the checkpoint-interval sweep trades against work lost.
    pub(crate) fn checkpoint_overhead(&self) -> f64 {
        self.ckpt_time.as_secs_f64()
    }

    /// Seconds between crashes and the relaunched job's first event
    /// (scheduler requeue + relaunch), across all restarts.
    pub(crate) fn recovery_seconds(&self) -> f64 {
        self.recovery_time.as_secs_f64()
    }

    /// The request-size range covering the bulk of data ops (granularity
    /// attribute of Table VI). Returns (p10-ish bucket, p90-ish bucket).
    pub fn granularity(&self) -> (u64, u64) {
        let mut lo = u64::MAX;
        let mut hi = 0;
        let total = self.req_sizes.total().max(1);
        let mut seen = 0;
        for (bucket, count) in self.req_sizes.iter() {
            seen += count;
            if seen as f64 / total as f64 >= 0.05 && lo == u64::MAX {
                lo = bucket;
            }
            if seen as f64 / total as f64 <= 0.95 {
                hi = bucket.max(hi);
            }
        }
        if lo == u64::MAX {
            (0, 0)
        } else {
            (lo, hi.max(lo))
        }
    }
}

/// Workflow-step name for an app id, from an interned name table.
fn app_name_from(names: &[String], app: u16) -> String {
    names
        .get(app as usize)
        .cloned()
        .unwrap_or_else(|| format!("app{app}"))
}

/// Mean-per-rank I/O-time fraction from per-rank I/O times visited in
/// ascending rank order, so the non-associative f64 accumulation is
/// byte-stable run to run (summing in HashMap iteration order is not).
fn io_frac_sorted(times: impl Iterator<Item = Dur>, job_time: Dur) -> f64 {
    let mut sum = 0.0f64;
    let mut n = 0u64;
    for t in times {
        sum += t.as_secs_f64();
        n += 1;
    }
    if n == 0 || job_time == Dur::ZERO {
        return 0.0;
    }
    ((sum / n as f64) / job_time.as_secs_f64()).min(1.0)
}

/// Sort file profiles for emission: most-read first, path as the tiebreak
/// (paths are unique per file id, so the order is total and byte-stable).
fn sort_files(mut v: Vec<FileProfile>) -> Vec<FileProfile> {
    v.sort_by(|a, b| b.read_bytes.cmp(&a.read_bytes).then(a.path.cmp(&b.path)));
    v
}

/// Sort app profiles for emission by (first record, name) — the name
/// tiebreak keeps the order byte-stable when two workflow steps start at
/// the same instant (HashMap drain order is not deterministic).
fn sort_apps(mut v: Vec<AppProfile>) -> Vec<AppProfile> {
    v.sort_by(|a, b| a.first.cmp(&b.first).then_with(|| a.name.cmp(&b.name)));
    v
}

// ---------------------------------------------------------------------------
// The fused per-record fold
// ---------------------------------------------------------------------------

/// Dense per-file accumulator inside the fused shard (a [`FileProfile`]
/// with the rank/app sets as bitsets — an insert is one bounds check and an
/// OR, not a SipHash probe — plus the producer/consumer app sets that
/// drive workflow dependency edges).
#[derive(Debug, Default, Clone)]
struct FileAcc {
    /// Appears in the interface selection (emitted as a [`FileProfile`]).
    profiled: bool,
    read_bytes: u64,
    write_bytes: u64,
    data_ops: u64,
    meta_ops: u64,
    time: Dur,
    size: u64,
    readers: BitWords,
    writers: BitWords,
    openers: BitWords,
    /// Apps that read / wrote this file at *any* layer (dependency edges).
    reader_apps: BitWords,
    writer_apps: BitWords,
}

impl FileAcc {
    fn merge(&mut self, other: &FileAcc) {
        self.profiled |= other.profiled;
        self.read_bytes += other.read_bytes;
        self.write_bytes += other.write_bytes;
        self.data_ops += other.data_ops;
        self.meta_ops += other.meta_ops;
        self.time += other.time;
        self.size = self.size.max(other.size);
        self.readers.merge(&other.readers);
        self.writers.merge(&other.writers);
        self.openers.merge(&other.openers);
        self.reader_apps.merge(&other.reader_apps);
        self.writer_apps.merge(&other.writer_apps);
    }
}

/// Dense per-app accumulator (an [`AppProfile`] with the rank set as a
/// bitset). `first` starts at `u64::MAX` so any record lowers it.
#[derive(Debug, Clone)]
struct AppAcc {
    seen: bool,
    read_bytes: u64,
    write_bytes: u64,
    data_ops: u64,
    meta_ops: u64,
    first: u64,
    last: u64,
    ranks: BitWords,
}

impl Default for AppAcc {
    fn default() -> Self {
        AppAcc {
            seen: false,
            read_bytes: 0,
            write_bytes: 0,
            data_ops: 0,
            meta_ops: 0,
            first: u64::MAX,
            last: 0,
            ranks: BitWords::default(),
        }
    }
}

impl AppAcc {
    fn merge(&mut self, other: &AppAcc) {
        self.seen |= other.seen;
        self.read_bytes += other.read_bytes;
        self.write_bytes += other.write_bytes;
        self.data_ops += other.data_ops;
        self.meta_ops += other.meta_ops;
        self.first = self.first.min(other.first);
        self.last = self.last.max(other.last);
        self.ranks.merge(&other.ranks);
    }
}

/// Id-space dimensions for the dense shard accumulators, from the merged
/// chunk metadata.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Dims {
    pub(crate) n_files: usize,
    pub(crate) n_apps: usize,
    pub(crate) n_ranks: usize,
}

/// Per-file accumulators with slot indirection: a flat `file id → slot`
/// vector plus a compact list of accumulators in first-touch order. Lookup
/// stays O(1), but per-shard setup zeroes 4 bytes per file id instead of a
/// whole [`FileAcc`], and merging visits only the files a shard touched —
/// traces with many files and short morsels (Pegasus-style workflows)
/// would otherwise pay O(shards × files) in allocation and merge.
#[derive(Debug)]
struct FileTable {
    /// File id → index into `ids`/`accs`; `u32::MAX` = untouched.
    slot: Vec<u32>,
    /// Touched file ids in first-touch order.
    ids: Vec<u32>,
    accs: Vec<FileAcc>,
}

impl FileTable {
    fn new(n_files: usize) -> FileTable {
        FileTable {
            slot: vec![u32::MAX; n_files],
            ids: Vec::new(),
            accs: Vec::new(),
        }
    }

    #[inline]
    fn get(&mut self, fid: usize) -> &mut FileAcc {
        let s = self.slot[fid];
        if s != u32::MAX {
            return &mut self.accs[s as usize];
        }
        self.slot[fid] = self.accs.len() as u32;
        self.ids.push(fid as u32);
        self.accs.push(FileAcc::default());
        self.accs.last_mut().expect("just pushed")
    }

    fn merge(&mut self, other: &FileTable) {
        for (k, &fid) in other.ids.iter().enumerate() {
            self.get(fid as usize).merge(&other.accs[k]);
        }
    }

    /// Touched `(file id, accumulator)` pairs in first-touch order.
    fn iter(&self) -> impl Iterator<Item = (u32, &FileAcc)> {
        self.ids.iter().copied().zip(&self.accs)
    }
}

/// The fold's shard accumulator: one morsel's worth of every statistic the
/// analyzer needs, in dense array-indexed form. Merged in morsel order.
///
/// The index lists are batch-local: the driver feeds them to the online
/// detectors, then clears them before the batch's shard merges into the
/// run-global accumulator.
#[derive(Debug)]
pub(crate) struct FusedShard {
    /// Interface-selection indices, ascending (morsel concat keeps order).
    pub(crate) io_idx: Vec<u32>,
    /// Data-op subset of `io_idx`, ascending.
    pub(crate) data_idx: Vec<u32>,
    read_bytes: u64,
    write_bytes: u64,
    meta_ops: u64,
    fault_events: u64,
    retry_events: u64,
    retried_bytes: u64,
    fault_time: Dur,
    ckpt_events: u64,
    ckpt_time: Dur,
    restart_events: u64,
    crash_lost_time: Dur,
    recovery_time: Dur,
    /// Indexed by rank.
    rank_aggs: Vec<recorder_sim::columnar::GroupAgg>,
    req_sizes: Histogram,
    req_bandwidth: Histogram,
    /// Slot-indirect per-file accumulators.
    files: FileTable,
    /// Indexed by app id.
    apps: Vec<AppAcc>,
}

impl FusedShard {
    pub(crate) fn new(dims: Dims) -> FusedShard {
        FusedShard {
            io_idx: Vec::new(),
            data_idx: Vec::new(),
            read_bytes: 0,
            write_bytes: 0,
            meta_ops: 0,
            fault_events: 0,
            retry_events: 0,
            retried_bytes: 0,
            fault_time: Dur::ZERO,
            ckpt_events: 0,
            ckpt_time: Dur::ZERO,
            restart_events: 0,
            crash_lost_time: Dur::ZERO,
            recovery_time: Dur::ZERO,
            rank_aggs: vec![Default::default(); dims.n_ranks],
            req_sizes: Histogram::new(),
            req_bandwidth: Histogram::new(),
            files: FileTable::new(dims.n_files),
            apps: vec![AppAcc::default(); dims.n_apps],
        }
    }

    pub(crate) fn merge(&mut self, other: FusedShard) {
        self.io_idx.extend(other.io_idx);
        self.data_idx.extend(other.data_idx);
        self.read_bytes += other.read_bytes;
        self.write_bytes += other.write_bytes;
        self.meta_ops += other.meta_ops;
        self.fault_events += other.fault_events;
        self.retry_events += other.retry_events;
        self.retried_bytes += other.retried_bytes;
        self.fault_time += other.fault_time;
        self.ckpt_events += other.ckpt_events;
        self.ckpt_time += other.ckpt_time;
        self.restart_events += other.restart_events;
        self.crash_lost_time += other.crash_lost_time;
        self.recovery_time += other.recovery_time;
        for (a, b) in self.rank_aggs.iter_mut().zip(&other.rank_aggs) {
            a.ops += b.ops;
            a.bytes += b.bytes;
            a.time += b.time;
        }
        self.req_sizes.merge(&other.req_sizes);
        self.req_bandwidth.merge(&other.req_bandwidth);
        self.files.merge(&other.files);
        for (a, b) in self.apps.iter_mut().zip(&other.apps) {
            if b.seen {
                a.merge(b);
            }
        }
    }
}

/// Interface-selection context for the fused per-record fold: which layers
/// are "the interface", which files those layers touch, and whether POSIX
/// ops on other files fall through into the selection.
pub(crate) struct SelCtx<'a> {
    pub(crate) iface_mask: [bool; 6],
    pub(crate) iface_file: &'a [bool],
    pub(crate) posix_fallback: bool,
}

impl SelCtx<'_> {
    /// The interface-selection predicate (shared by the fold and the
    /// access-pattern replay so the two selections can never diverge).
    #[inline]
    pub(crate) fn in_sel(&self, c: &ColumnarTrace, i: usize) -> bool {
        self.iface_mask[c.layer[i].code() as usize]
            || (self.posix_fallback
                && c.layer[i] == Layer::Posix
                && c.file_id(i).is_some_and(|f| !self.iface_file[f.0 as usize]))
    }
}

/// Fold record `i` of batch `c` into a [`FusedShard`]: the analyzer's
/// entire per-record inner loop. Index pushes use `i` relative to `c` —
/// chunk-local when `c` is a decoded chunk buffer.
#[inline]
pub(crate) fn fold_fused_record(acc: &mut FusedShard, c: &ColumnarTrace, i: usize, ctx: &SelCtx) {
    let op = c.op[i];
    // Resilience records are neither data nor metadata ops; tally them
    // before the is_io() skip.
    match op {
        OpKind::Fault => {
            acc.fault_events += 1;
            acc.fault_time += Dur(c.end[i] - c.start[i]);
            return;
        }
        OpKind::Retry => {
            acc.retry_events += 1;
            acc.retried_bytes += c.bytes[i];
            acc.fault_time += Dur(c.end[i] - c.start[i]);
            return;
        }
        OpKind::Checkpoint => {
            acc.ckpt_events += 1;
            acc.ckpt_time += Dur(c.end[i] - c.start[i]);
            return;
        }
        OpKind::Crash => {
            acc.crash_lost_time += Dur(c.end[i] - c.start[i]);
            return;
        }
        OpKind::RestartEpoch => {
            acc.restart_events += 1;
            acc.recovery_time += Dur(c.end[i] - c.start[i]);
            return;
        }
        _ => {}
    }
    if !op.is_io() {
        return;
    }
    let rank = c.rank[i] as usize;
    let file = c.file_id(i).map(|f| f.0 as usize);
    let dur = Dur(c.end[i] - c.start[i]);

    // App profiles cover I/O at *every* layer.
    let app = &mut acc.apps[c.app[i] as usize];
    app.seen = true;
    app.ranks.insert(rank);
    app.first = app.first.min(c.start[i]);
    app.last = app.last.max(c.end[i]);
    match op {
        OpKind::Read => {
            app.read_bytes += c.bytes[i];
            app.data_ops += 1;
            if let Some(f) = file {
                acc.files.get(f).reader_apps.insert(c.app[i] as usize);
            }
        }
        OpKind::Write => {
            app.write_bytes += c.bytes[i];
            app.data_ops += 1;
            if let Some(f) = file {
                acc.files.get(f).writer_apps.insert(c.app[i] as usize);
            }
        }
        _ => app.meta_ops += 1,
    }

    // Everything else covers the interface selection only.
    if !ctx.in_sel(c, i) {
        return;
    }
    acc.io_idx.push(i as u32);

    let agg = &mut acc.rank_aggs[rank];
    agg.ops += 1;
    agg.bytes += c.bytes[i];
    agg.time += dur;

    if let Some(f) = file {
        let fa = acc.files.get(f);
        fa.profiled = true;
        fa.time += dur;
        match op {
            OpKind::Read => {
                fa.readers.insert(rank);
                fa.read_bytes += c.bytes[i];
                fa.data_ops += 1;
                fa.size = fa.size.max(c.offset[i] + c.bytes[i]);
            }
            OpKind::Write => {
                fa.writers.insert(rank);
                fa.write_bytes += c.bytes[i];
                fa.data_ops += 1;
                fa.size = fa.size.max(c.offset[i] + c.bytes[i]);
            }
            _ => {
                fa.meta_ops += 1;
                fa.openers.insert(rank);
            }
        }
    }

    if op.is_data() {
        acc.data_idx.push(i as u32);
        match op {
            OpKind::Read => acc.read_bytes += c.bytes[i],
            OpKind::Write => acc.write_bytes += c.bytes[i],
            _ => {}
        }
        if c.bytes[i] > 0 {
            acc.req_sizes.record(c.bytes[i]);
            let bw = dur.bandwidth(c.bytes[i]);
            if bw.is_finite() {
                acc.req_bandwidth.record(bw as u64);
            }
        }
    } else {
        acc.meta_ops += 1;
    }
}

/// Emit a [`TraceProfile`] from the run-global fused accumulator plus the
/// detector outputs: per-file and per-app emission order, the
/// dependency-edge set, and the per-rank f64 reduction.
#[allow(clippy::too_many_arguments)]
pub(crate) fn emit_profile(
    fused: FusedShard,
    file_paths: &[String],
    app_names: &[String],
    job_time: Dur,
    interface: String,
    access_pattern: String,
    phases: Vec<PhaseInfo>,
    read_timeline: TimeSeries,
    write_timeline: TimeSeries,
    data_ops: u64,
) -> TraceProfile {
    let io_time_frac = io_frac_sorted(
        fused.rank_aggs.iter().filter(|g| g.ops > 0).map(|g| g.time),
        job_time,
    );

    let files = sort_files(
        fused
            .files
            .iter()
            .filter(|(_, fa)| fa.profiled)
            .map(|(fid, fa)| FileProfile {
                path: file_paths.get(fid as usize).cloned().unwrap_or_default(),
                readers: to_hashset(&fa.readers),
                writers: to_hashset(&fa.writers),
                openers: to_hashset(&fa.openers),
                read_bytes: fa.read_bytes,
                write_bytes: fa.write_bytes,
                data_ops: fa.data_ops,
                meta_ops: fa.meta_ops,
                time: fa.time,
                size: fa.size,
            })
            .collect(),
    );

    let apps = sort_apps(
        fused
            .apps
            .iter()
            .enumerate()
            .filter(|(_, a)| a.seen)
            .map(|(id, a)| AppProfile {
                name: app_name_from(app_names, id as u16),
                processes: a.ranks.count(),
                read_bytes: a.read_bytes,
                write_bytes: a.write_bytes,
                data_ops: a.data_ops,
                meta_ops: a.meta_ops,
                first: SimTime(a.first),
                last: SimTime(a.last),
            })
            .collect(),
    );

    // Producer → consumer edges through each file's app bitsets.
    let mut dep_set = HashSet::new();
    for (_, fa) in fused.files.iter() {
        if fa.writer_apps.is_empty() || fa.reader_apps.is_empty() {
            continue;
        }
        for wr in fa.writer_apps.iter() {
            for rd in fa.reader_apps.iter() {
                if wr != rd {
                    dep_set.insert((
                        app_name_from(app_names, wr as u16),
                        app_name_from(app_names, rd as u16),
                    ));
                }
            }
        }
    }
    let mut app_deps: Vec<_> = dep_set.into_iter().collect();
    app_deps.sort();

    TraceProfile {
        io_time_frac,
        read_bytes: fused.read_bytes,
        write_bytes: fused.write_bytes,
        data_ops,
        meta_ops: fused.meta_ops,
        interface,
        access_pattern,
        req_sizes: fused.req_sizes,
        req_bandwidth: fused.req_bandwidth,
        read_timeline,
        write_timeline,
        files,
        phases,
        apps,
        app_deps,
        fault_events: fused.fault_events,
        retry_events: fused.retry_events,
        retried_bytes: fused.retried_bytes,
        fault_time: fused.fault_time,
        ckpt_events: fused.ckpt_events,
        ckpt_time: fused.ckpt_time,
        restart_events: fused.restart_events,
        crash_lost_time: fused.crash_lost_time,
        recovery_time: fused.recovery_time,
    }
}

/// A rank bitset as the public profile's `HashSet`.
fn to_hashset(ids: &BitWords) -> HashSet<u32> {
    ids.iter().map(|i| i as u32).collect()
}

impl TraceProfile {
    /// Profile a whole in-memory trace: the one analyzer driver with `c`
    /// lent as a single batch. Nothing is sealed, decoded or copied, and
    /// the trace gauge is not charged (the trace is the caller's).
    pub fn fused(c: &ColumnarTrace, job_time: Dur) -> TraceProfile {
        let meta = ChunkMeta::of_rows(c, 0..c.len());
        crate::streaming::drive(&meta, &c.file_paths, &c.app_names, job_time, &mut |fold| {
            fold(c);
            Ok(())
        })
        .expect("an in-memory scan cannot fail")
    }
}

/// Sample the dataset's value bytes and classify the distribution. Samples
/// the most-read files, skipping the first KiB of format headers.
fn fit_data_distribution(run: &WorkloadRun, files: &[FileProfile]) -> DistributionFit {
    let mut summary = Summary::new();
    let store = run.world.storage.pfs().store();
    let mut sampled = 0;
    for f in files.iter().filter(|f| f.read_bytes > 0).take(4) {
        if let Some(key) = store.lookup(&f.path) {
            let bytes = store.read(key, 1024, 8192).unwrap_or_default();
            for &b in &bytes {
                summary.record(b as f64);
            }
            sampled += 1;
        }
    }
    if sampled == 0 {
        return DistributionFit::Unknown;
    }
    DistributionFit::classify(&summary)
}

#[cfg(test)]
mod tests {
    use super::*;
    use exemplar_workloads::{cm1, cosmoflow, hacc, jag, montage};
    use sim_core::units::KIB;

    #[test]
    fn hacc_analysis_matches_expected_shape() {
        let run = hacc::run(0.02, 1);
        let a = Analysis::from_run(&run);
        assert_eq!(a.interface, "POSIX");
        assert_eq!(a.shared_files(), 0, "HACC is strict FPP");
        assert_eq!(a.fpp_files(), run.world.alloc.total_ranks() as usize);
        assert_eq!(a.read_bytes, a.write_bytes);
        assert_eq!(a.access_pattern, "Seq");
        assert_eq!(a.data_dist, DistributionFit::Uniform);
        // Metadata around half of ops.
        assert!((0.3..=0.85).contains(&(1.0 - a.data_frac())));
    }

    #[test]
    fn cm1_analysis_finds_rank0_writer_and_phases() {
        // Multiple nodes so several leaders open the shared step files.
        let mut p = cm1::Cm1Params::scaled(0.02);
        p.nodes = 4;
        let run = cm1::run_with(p, 0.02, 42);
        let a = Analysis::from_run(&run);
        assert_eq!(a.interface, "POSIX");
        // Output files are shared (opened by leaders) but written by rank 0.
        let out_files: Vec<&FileProfile> = a
            .files
            .iter()
            .filter(|f| f.path.contains("/out/"))
            .collect();
        assert!(!out_files.is_empty());
        for f in &out_files {
            assert!(f.writers.iter().all(|&r| r == 0), "only rank 0 writes");
            assert!(f.is_shared(), "leaders open the step files");
        }
        // Multiple I/O phases: config read then per-step writes.
        assert!(a.phases.len() >= 2, "phases: {}", a.phases.len());
        assert_eq!(a.data_dist, DistributionFit::Normal);
    }

    #[test]
    fn cosmoflow_analysis_detects_hdf5_and_metadata_storm() {
        let run = cosmoflow::run(0.002, 5);
        let a = Analysis::from_run(&run);
        assert_eq!(a.interface, "HDF5-MPI-IO");
        assert!(a.shared_files() > 0);
        // The dataset itself is fully shared; only rank-0's checkpoint
        // files register as FPP through the POSIX fallback.
        assert!(
            a.files
                .iter()
                .filter(|f| f.path.contains("univ_"))
                .all(|f| f.is_shared()),
            "every dataset file is shared"
        );
        assert!(
            a.meta_ops > a.data_ops,
            "metadata ops {} must exceed data ops {}",
            a.meta_ops,
            a.data_ops
        );
        assert_eq!(a.data_dist, DistributionFit::Gamma);
    }

    #[test]
    fn jag_analysis_is_stdio_small_access() {
        let run = jag::run(0.02, 9);
        let a = Analysis::from_run(&run);
        assert_eq!(a.interface, "STDIO");
        let (_, hi) = a.granularity();
        assert!(hi <= 4 * KIB, "JAG granularity {hi} stays under 4 KiB");
        assert_eq!(a.data_dist, DistributionFit::Normal);
    }

    #[test]
    fn montage_analysis_sees_workflow_apps_and_deps() {
        let run = montage::run(0.02, 2);
        let a = Analysis::from_run(&run);
        assert_eq!(a.interface, "STDIO");
        assert!(
            a.apps.len() >= 5,
            "apps: {:?}",
            a.apps.iter().map(|x| &x.name).collect::<Vec<_>>()
        );
        // mProject produces what mAddMPI consumes.
        assert!(
            a.app_deps
                .iter()
                .any(|(from, to)| from == "mProject" && to == "mAddMPI"),
            "deps: {:?}",
            a.app_deps
        );
        assert!(a.data_frac() > 0.5, "Montage is data-op dominated");
    }

    #[test]
    fn histograms_and_timelines_conserve_bytes() {
        let run = hacc::run(0.02, 1);
        let a = Analysis::from_run(&run);
        let hist_bytes: u128 = a.req_sizes.sum();
        assert_eq!(hist_bytes, (a.read_bytes + a.write_bytes) as u128);
        let tl_total = a.read_timeline.total() + a.write_timeline.total();
        let expect = (a.read_bytes + a.write_bytes) as f64;
        assert!((tl_total - expect).abs() < 1e-6 * expect);
    }

    #[test]
    fn phase_one_of_hacc_is_the_checkpoint() {
        let run = hacc::run(0.02, 1);
        let a = Analysis::from_run(&run);
        assert!(!a.phases.is_empty());
        let p0 = &a.phases[0];
        // First phase writes the checkpoint: data-dominated, large xfers.
        assert!(p0.bytes > 0);
        assert!(p0.data_ops > 0);
    }
}
