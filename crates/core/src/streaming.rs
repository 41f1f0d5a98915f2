//! The analyzer's one driver: fold batches of records, in capture order,
//! into the fused accumulators and the online detectors.
//!
//! Every entry point is a short call into the private `drive` function,
//! which takes the merged [`ChunkMeta`] of the trace (layer presence,
//! id-space bounds and per-layer file sets), the intern tables, the job
//! time, and a *batch scanner*: a callback that lends `&ColumnarTrace`
//! batches in capture order. Each batch is folded through
//! `fold_fused_record` with [`vani_rt::par::par_fold_shards_sized`],
//! then feeds `PhaseBuilder`, `PatternTracker` and the timelines.
//!
//! * [`TraceProfile::fused`] lends a whole in-memory trace as one batch,
//!   with its statistics from one `ChunkMeta::of_rows` over every row.
//! * [`TraceProfile::streaming_source`] decodes each chunk of a
//!   [`ChunkSource`] — an in-memory [`ChunkedTrace`] or an on-disk
//!   [`SpillSource`](recorder_sim::SpillSource) — into one recycled,
//!   gauge-charged buffer and lends that buffer, so peak resident trace
//!   bytes are bounded by the chunk size, not the trace length.
//!
//! # Online detectors
//!
//! Phases and the access pattern are defined over the trace *sorted by
//! start time*, which a batch-at-a-time pass never materializes:
//!
//! * **Phases** — `PhaseBuilder` keeps an ordered cluster list with
//!   gap-threshold merging. Records insert in any order; the final
//!   clusters are exactly the sorted scan's phases (a phase cut falls
//!   between sorted records `i-1, i` iff `start_i` exceeds the max end of
//!   all earlier-starting records by more than the threshold — a property
//!   of the *set* of intervals, not the visit order).
//! * **Access pattern** — `PatternTracker` compares each data op's
//!   offset with the previous end for the same `(rank, file)` in capture
//!   order, carrying a certificate: if every cell's starts arrive
//!   nondecreasing, capture order and stable-sorted order agree cell-wise
//!   and the counts are identical. The simulator's tracer appends each
//!   rank's stream in time order, so the certificate holds on every real
//!   trace; if it ever fails, the tracker asks the scanner for a second
//!   pass and replays a sorted scan (correct, but unbounded memory — the
//!   price of a trace that was shuffled after capture).
//! * **Timelines** — f64 bin accumulation is non-associative, so
//!   contributions are added in capture order: batch order × in-batch
//!   order, the same sequence however the trace is batched.
//!
//! # Determinism contract
//!
//! For every trace, worker count, and chunk size,
//! `TraceProfile::streaming(&ChunkedTrace::from_columnar(&c, k), t)` equals
//! `TraceProfile::fused(&c, t)` on all fields (`==`, which for the f64
//! fields means bit-identity). The pinning suites are
//! `tests/streaming_vs_fused.rs` and `tests/spill_identity.rs`; the
//! one-scan-per-statistic oracle in `tests/common/multipass.rs` restates
//! the rules below independently.

use recorder_sim::chunk::{columnar_capacity_bytes, GaugeCharge};
use recorder_sim::record::{Layer, OpKind};
use recorder_sim::spill::{ChunkSource, SpillError};
use recorder_sim::{ChunkMeta, ChunkedTrace, ColumnarTrace};
use sim_core::{Dur, Histogram, SimTime, TimeSeries};
use std::collections::HashMap;
use vani_rt::par;

use crate::analyzer::{
    emit_profile, fold_fused_record, Dims, FusedShard, PhaseInfo, SelCtx, TraceProfile,
};

/// Morsel size for the intra-batch parallel fold. Any in-order contiguous
/// partition of a batch produces identical merged shards (the accumulators
/// are sums, maxima, bitsets, and in-order index concatenation), so this is
/// a pure tuning knob — small enough to spread one chunk across workers.
const STREAM_MORSEL: usize = 8192;

/// Timeline bin width: 128 bins over the run.
fn timeline_bin(job_time: Dur) -> Dur {
    Dur((job_time.as_nanos() / 128).max(1))
}

/// The phase-splitting gap — the paper's "threshold between two I/O
/// calls": `job_time / 50`, floored at 1 ms.
fn phase_threshold(job_time: Dur) -> Dur {
    Dur((job_time.as_nanos() / 50).max(1_000_000))
}

/// Layers counted as "the interface" for op statistics.
fn interface_layers(interface: &str) -> Vec<Layer> {
    match interface {
        "HDF5-MPI-IO" => vec![Layer::HighLevel, Layer::MpiIo],
        "STDIO" => vec![Layer::Stdio],
        _ => vec![Layer::Posix],
    }
}

/// Identify the workload's I/O interface from a layer-presence table
/// indexed by [`Layer::code`] (Table I).
fn interface_from_presence(present: &[bool; 6]) -> String {
    if present[Layer::MpiIo.code() as usize] && present[Layer::HighLevel.code() as usize] {
        "HDF5-MPI-IO".to_string()
    } else if present[Layer::Stdio.code() as usize] {
        "STDIO".to_string()
    } else {
        "POSIX".to_string()
    }
}

fn dominant_bucket(h: &Histogram) -> u64 {
    h.iter()
        .max_by_key(|&(_, count)| count)
        .map(|(b, _)| b)
        .unwrap_or(0)
}

/// One phase cluster under construction (a [`PhaseInfo`] plus the open
/// transfer-size histogram).
#[derive(Debug, Clone)]
struct Cluster {
    /// Min record start in the cluster (clusters stay sorted by this).
    start: SimTime,
    /// Max record end in the cluster.
    end: SimTime,
    bytes: u64,
    data_ops: u64,
    meta_ops: u64,
    hist: Histogram,
}

/// Online phase detection: maintains the invariant that consecutive
/// clusters are separated by a start-to-end gap strictly above the
/// threshold, so the cluster list is exactly the phase partition the
/// sorted scan would produce, no matter the insertion order.
#[derive(Debug)]
pub(crate) struct PhaseBuilder {
    threshold: Dur,
    clusters: Vec<Cluster>,
}

impl PhaseBuilder {
    pub(crate) fn new(threshold: Dur) -> PhaseBuilder {
        PhaseBuilder {
            threshold,
            clusters: Vec::new(),
        }
    }

    /// Insert interface-selection record `i` of `c`.
    pub(crate) fn insert(&mut self, c: &ColumnarTrace, i: usize) {
        let s = SimTime(c.start[i]);
        let e = SimTime(c.end[i]);
        let is_data = c.op[i].is_data();
        let bytes = c.bytes[i];
        // First cluster whose min start exceeds s; the only join-left
        // candidate is its predecessor (cluster ends strictly increase, so
        // if even the nearest left end is more than a threshold away, every
        // earlier one is too).
        let pos = self.clusters.partition_point(|cl| cl.start <= s);
        let idx = if pos > 0 && s.since(self.clusters[pos - 1].end) <= self.threshold {
            let cl = &mut self.clusters[pos - 1];
            cl.end = cl.end.max(e);
            pos - 1
        } else {
            self.clusters.insert(
                pos,
                Cluster {
                    start: s,
                    end: e,
                    bytes: 0,
                    data_ops: 0,
                    meta_ops: 0,
                    hist: Histogram::new(),
                },
            );
            pos
        };
        let cl = &mut self.clusters[idx];
        if is_data {
            cl.bytes += bytes;
            cl.data_ops += 1;
            if bytes > 0 {
                cl.hist.record(bytes);
            }
        } else {
            cl.meta_ops += 1;
        }
        // The grown end may now bridge the gap to the right neighbor(s).
        while idx + 1 < self.clusters.len()
            && self.clusters[idx + 1].start.since(self.clusters[idx].end) <= self.threshold
        {
            let next = self.clusters.remove(idx + 1);
            let cl = &mut self.clusters[idx];
            cl.end = cl.end.max(next.end);
            cl.bytes += next.bytes;
            cl.data_ops += next.data_ops;
            cl.meta_ops += next.meta_ops;
            cl.hist.merge(&next.hist);
        }
    }

    /// The finished phase list, in start order.
    pub(crate) fn finish(self) -> Vec<PhaseInfo> {
        self.clusters
            .into_iter()
            .map(|cl| PhaseInfo {
                start: cl.start,
                end: cl.end,
                bytes: cl.bytes,
                data_ops: cl.data_ops,
                meta_ops: cl.meta_ops,
                dominant_xfer: dominant_bucket(&cl.hist),
            })
            .collect()
    }
}

/// Per-(rank, file) frontier cells: dense when the id-space product is
/// small (at most [`DENSE_LIMIT`] cells), `HashMap` otherwise. Each cell
/// holds `(last end offset, last start time)`.
#[derive(Debug)]
enum Cells {
    Dense {
        stride: usize,
        last_end: Vec<u64>,
        last_start: Vec<u64>,
    },
    Sparse(HashMap<(u32, u32), (u64, u64)>),
}

/// Online access-pattern detection over data ops in capture order, with a
/// sorted-order certificate (see the module docs).
#[derive(Debug)]
pub(crate) struct PatternTracker {
    cells: Cells,
    seq: u64,
    total: u64,
    violated: bool,
}

/// Largest dense frontier table worth allocating: 4M cells.
const DENSE_LIMIT: usize = 4 << 20;

impl PatternTracker {
    pub(crate) fn new(dims: Dims) -> PatternTracker {
        let cells = dims.n_ranks.saturating_mul(dims.n_files);
        let cells = if cells <= DENSE_LIMIT {
            Cells::Dense {
                stride: dims.n_files.max(1),
                // u64::MAX end = cell untouched.
                last_end: vec![u64::MAX; cells],
                last_start: vec![0; cells],
            }
        } else {
            Cells::Sparse(HashMap::new())
        };
        PatternTracker {
            cells,
            seq: 0,
            total: 0,
            violated: false,
        }
    }

    /// Observe selected data record `i` of `c` (capture order).
    pub(crate) fn observe(&mut self, c: &ColumnarTrace, i: usize) {
        let Some(f) = c.file_id(i) else { return };
        let new_end = c.offset[i] + c.bytes[i];
        match &mut self.cells {
            Cells::Dense {
                stride,
                last_end,
                last_start,
            } => {
                let cell = c.rank[i] as usize * *stride + f.0 as usize;
                if last_end[cell] != u64::MAX {
                    if c.start[i] < last_start[cell] {
                        self.violated = true;
                    }
                    self.total += 1;
                    if c.offset[i] >= last_end[cell] {
                        self.seq += 1;
                    }
                }
                last_end[cell] = new_end;
                last_start[cell] = c.start[i];
            }
            Cells::Sparse(map) => {
                if let Some(&(prev_end, prev_start)) = map.get(&(c.rank[i], f.0)) {
                    if c.start[i] < prev_start {
                        self.violated = true;
                    }
                    self.total += 1;
                    if c.offset[i] >= prev_end {
                        self.seq += 1;
                    }
                }
                map.insert((c.rank[i], f.0), (new_end, c.start[i]));
            }
        }
    }

    /// Classify. If the certificate failed, re-scan every batch and
    /// replay the frontier scan in stable start order (the sorted scan's
    /// visit order).
    fn finish(self, ctx: &SelCtx, scan: &mut ScanBatches) -> Result<String, SpillError> {
        let (seq, total) = if self.violated {
            replay_sorted(ctx, scan)?
        } else {
            (self.seq, self.total)
        };
        Ok(if total == 0 || seq as f64 / total as f64 >= 0.85 {
            "Seq".to_string()
        } else {
            "Mixed".to_string()
        })
    }
}

/// Fallback path: collect every selected data record that names a file (in
/// capture order), stable-sort by start, and replay the frontier scan.
fn replay_sorted(ctx: &SelCtx, scan: &mut ScanBatches) -> Result<(u64, u64), SpillError> {
    let mut recs: Vec<(u64, u32, u32, u64, u64)> = Vec::new();
    scan(&mut |b| {
        for i in 0..b.len() {
            if !b.op[i].is_data() || !ctx.in_sel(b, i) {
                continue;
            }
            if let Some(f) = b.file_id(i) {
                recs.push((b.start[i], b.rank[i], f.0, b.offset[i], b.bytes[i]));
            }
        }
    })?;
    // Vec::sort_by_key is stable: equal starts keep capture order.
    recs.sort_by_key(|r| r.0);
    let mut last: HashMap<(u32, u32), u64> = HashMap::new();
    let mut seq = 0u64;
    let mut total = 0u64;
    for &(_, rank, file, offset, bytes) in &recs {
        if let Some(&prev_end) = last.get(&(rank, file)) {
            total += 1;
            if offset >= prev_end {
                seq += 1;
            }
        }
        last.insert((rank, file), offset + bytes);
    }
    Ok((seq, total))
}

/// A batch scanner: lends every batch of a trace to its callback, in
/// capture order. [`drive`] calls it once for the fold and a second time
/// only for [`PatternTracker`]'s sorted-replay fallback. It costs one
/// indirect call per batch, never one per record.
pub(crate) type ScanBatches<'a> =
    dyn FnMut(&mut dyn FnMut(&ColumnarTrace)) -> Result<(), SpillError> + 'a;

/// The one analyzer driver (see the module docs): fold every batch `scan`
/// lends into the run-global accumulator and the online detectors, then
/// emit the profile. `meta` is the merged statistics of all the batches.
pub(crate) fn drive(
    meta: &ChunkMeta,
    file_paths: &[String],
    app_names: &[String],
    job_time: Dur,
    scan: &mut ScanBatches,
) -> Result<TraceProfile, SpillError> {
    let dims = Dims {
        n_files: meta.n_files.max(file_paths.len()),
        n_apps: meta.n_apps.max(app_names.len()),
        n_ranks: meta.n_ranks,
    };
    let interface = interface_from_presence(&meta.present);
    let mut iface_mask = [false; 6];
    for l in interface_layers(&interface) {
        iface_mask[l.code() as usize] = true;
    }
    // Files touched at the interface layers: POSIX ops on *other* files
    // fall through into the selection (checkpoints written with raw
    // open/write/close while the dataset goes through HDF5 or stdio).
    let mut iface_file = vec![false; dims.n_files];
    for (files, _) in meta.layer_files.iter().zip(iface_mask).filter(|(_, m)| *m) {
        for f in files.iter() {
            iface_file[f] = true;
        }
    }
    let ctx = SelCtx {
        iface_mask,
        iface_file: &iface_file,
        posix_fallback: !iface_mask[Layer::Posix.code() as usize],
    };

    let mut global = FusedShard::new(dims);
    let mut phases = PhaseBuilder::new(phase_threshold(job_time));
    let mut pattern = PatternTracker::new(dims);
    let bin = timeline_bin(job_time);
    let mut read_timeline = TimeSeries::new(bin);
    let mut write_timeline = TimeSeries::new(bin);
    let mut data_ops = 0u64;

    scan(&mut |batch| {
        let mut shard = par::par_fold_shards_sized(
            batch.len(),
            STREAM_MORSEL,
            || FusedShard::new(dims),
            |acc: &mut FusedShard, range| {
                // One exact reservation per morsel instead of doubling
                // growth (the index lists can't outgrow the morsel).
                acc.io_idx.reserve(range.len());
                acc.data_idx.reserve(range.len());
                for i in range {
                    fold_fused_record(acc, batch, i, &ctx);
                }
            },
            FusedShard::merge,
        );

        // Feed the online detectors from the batch-local index lists
        // (ascending = capture order), then drop the lists before the
        // shard folds into the run-global accumulator.
        for &i in &shard.io_idx {
            phases.insert(batch, i as usize);
        }
        for &i in &shard.data_idx {
            pattern.observe(batch, i as usize);
        }
        for &i in &shard.data_idx {
            let i = i as usize;
            let ts = match batch.op[i] {
                OpKind::Read => &mut read_timeline,
                OpKind::Write => &mut write_timeline,
                _ => continue,
            };
            ts.add(
                SimTime(batch.start[i]),
                SimTime(batch.end[i]),
                batch.bytes[i] as f64,
            );
        }
        data_ops += shard.data_idx.len() as u64;
        shard.io_idx.clear();
        shard.data_idx.clear();
        global.merge(shard);
    })?;

    let phases = phases.finish();
    let access_pattern = pattern.finish(&ctx, scan)?;

    Ok(emit_profile(
        global,
        file_paths,
        app_names,
        job_time,
        interface,
        access_pattern,
        phases,
        read_timeline,
        write_timeline,
        data_ops,
    ))
}

impl TraceProfile {
    /// Profile a chunked trace chunk-at-a-time in bounded memory. See the
    /// module docs for the determinism contract that ties it to
    /// [`TraceProfile::fused`].
    pub fn streaming(t: &ChunkedTrace, job_time: Dur) -> TraceProfile {
        TraceProfile::streaming_source(t, job_time).expect("in-memory chunk scan cannot fail")
    }

    /// Profile any [`ChunkSource`] — an in-memory [`ChunkedTrace`] or an
    /// on-disk [`SpillSource`](recorder_sim::SpillSource) — chunk-at-a-time
    /// in bounded memory. The fold visits chunks in capture order
    /// regardless of source, so the profile is bit-identical across
    /// sources holding the same chunks.
    ///
    /// Every decoded chunk is checked against its seal-time meta before it
    /// is folded, whatever the source: this one decode is where a strict
    /// spill source's chunk content is verified. A chunk that fails to
    /// decode or disagrees with its meta stops the fold with
    /// [`SpillError::Codec`] naming its capture index; a disk-backed scan
    /// that fails surfaces its own error.
    pub fn streaming_source(
        src: &dyn ChunkSource,
        job_time: Dur,
    ) -> Result<TraceProfile, SpillError> {
        // One decode buffer, recycled across chunks and charged against
        // the process-wide trace gauge — this buffer (one chunk of
        // columns) IS the streaming path's resident trace memory.
        let mut buf = ColumnarTrace::default();
        let mut charge = GaugeCharge::new(0);
        let meta = src.merged_meta();
        drive(
            &meta,
            src.file_paths(),
            src.app_names(),
            job_time,
            &mut |fold| {
                // The scan cannot be stopped from inside, so a failed chunk
                // turns the rest of the visits into no-ops.
                let mut index = 0u64;
                let mut failed = None;
                let scanned = src.scan_chunks(&mut |chunk| {
                    if failed.is_some() {
                        return;
                    }
                    buf.clear_rows();
                    let verified = match chunk.decode_into(&mut buf, false) {
                        Err(e) => Err(e.to_string()),
                        Ok(()) if ChunkMeta::of_rows(&buf, 0..chunk.rows) != chunk.meta => {
                            Err("decoded rows disagree with the seal-time meta".into())
                        }
                        Ok(()) => Ok(()),
                    };
                    charge.resync(columnar_capacity_bytes(&buf));
                    match verified {
                        Ok(()) => fold(&buf),
                        Err(detail) => {
                            failed = Some(SpillError::Codec {
                                chunk: index,
                                detail,
                            })
                        }
                    }
                    index += 1;
                });
                failed.map_or(scanned, Err)
            },
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use recorder_sim::record::{AppId, FileId};
    use recorder_sim::DEFAULT_CHUNK_ROWS;

    fn xorshift(state: &mut u64) -> u64 {
        let mut x = *state;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        *state = x;
        x
    }

    /// A messy synthetic trace: several ranks and files, POSIX + STDIO
    /// layers, bursts separated by long gaps (multiple phases), occasional
    /// resilience records.
    fn synthetic(n: usize, seed: u64) -> ColumnarTrace {
        let mut c = ColumnarTrace::default();
        c.file_paths = (0..8).map(|f| format!("/data/f{f}")).collect();
        c.app_names = vec!["writer".into(), "reader".into()];
        let mut s = seed | 1;
        let mut t = 0u64;
        for i in 0..n {
            let r = xorshift(&mut s);
            // Long gap every ~200 records → phase boundaries.
            t += if r % 199 == 0 {
                3_000_000_000
            } else {
                r % 5_000
            };
            let rank = (r >> 8) % 6;
            let file = (r >> 16) % 8;
            let op = match (r >> 24) % 10 {
                0..=3 => OpKind::Write,
                4..=6 => OpKind::Read,
                7 => OpKind::Open,
                8 => OpKind::Close,
                _ => {
                    if i % 97 == 0 {
                        OpKind::Fault
                    } else {
                        OpKind::Stat
                    }
                }
            };
            let layer = if (r >> 32) % 3 == 0 {
                Layer::Stdio
            } else {
                Layer::Posix
            };
            let bytes = (r >> 40) % 65536;
            c.push_row(
                rank as u32,
                rank as u32 / 2,
                AppId(((r >> 5) % 2) as u16),
                layer,
                op,
                SimTime(t),
                SimTime(t + 1_000 + r % 9_000),
                Some(FileId(file as u32)),
                (i as u64) * 4096 % (1 << 30),
                bytes,
            );
        }
        c
    }

    #[test]
    fn streaming_matches_fused_across_chunk_sizes() {
        let job = Dur::from_secs(120);
        for n in [0usize, 1, 63, 1000, 5000] {
            let c = synthetic(n, 0x5eed + n as u64);
            let fused = TraceProfile::fused(&c, job);
            for chunk_rows in [64usize, 1024, DEFAULT_CHUNK_ROWS] {
                let t = ChunkedTrace::from_columnar(&c, chunk_rows);
                let stream = TraceProfile::streaming(&t, job);
                assert_eq!(stream, fused, "n={n} chunk_rows={chunk_rows}");
            }
        }
    }
}
