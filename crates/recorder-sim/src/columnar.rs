//! Column-major trace storage and analysis kernels.
//!
//! Recorder logs are row-major; the paper converts them to parquet and runs
//! DASK over the columns because filtering and aggregation are hopelessly
//! slow row-by-row. [`ColumnarTrace`] is that conversion: a struct-of-arrays
//! copy of the trace with parallel filter and group-by kernels (built on
//! [`vani_rt::par`]) the analyzer builds everything else out of.

use crate::record::{AppId, FileId, Layer, OpKind, TraceRecord};
use crate::tracer::Tracer;
use sim_core::{Dur, SimTime};
use std::collections::HashMap;
use vani_rt::par;

/// Sentinel for "no file" in the file column.
pub(crate) const NO_FILE: u32 = u32::MAX;

/// A struct-of-arrays view of a whole trace.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ColumnarTrace {
    /// Caller rank per record.
    pub rank: Vec<u32>,
    /// Caller node per record.
    pub node: Vec<u32>,
    /// Application id per record.
    pub app: Vec<u16>,
    /// Capture layer per record.
    pub layer: Vec<Layer>,
    /// Operation per record.
    pub op: Vec<OpKind>,
    /// Start time (ns) per record.
    pub start: Vec<u64>,
    /// End time (ns) per record.
    pub end: Vec<u64>,
    /// File id per record (`u32::MAX` = none).
    pub file: Vec<u32>,
    /// Offset per record.
    pub offset: Vec<u64>,
    /// Bytes moved per record.
    pub bytes: Vec<u64>,
    /// File id → path.
    pub file_paths: Vec<String>,
    /// App id → name.
    pub app_names: Vec<String>,
}

/// Aggregate over a group of records.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct GroupAgg {
    /// Record count.
    pub ops: u64,
    /// Total bytes.
    pub bytes: u64,
    /// Total busy time.
    pub time: Dur,
}

impl ColumnarTrace {
    /// Columnar view of a captured trace.
    ///
    /// Since the tracer captures straight into columns this is a plain
    /// clone of the column vectors (one memcpy per column) — the historical
    /// row → column transpose is gone. Kept as a compat shim; prefer
    /// [`Tracer::columnar`] for a borrowed view that copies nothing.
    pub fn from_tracer(t: &Tracer) -> Self {
        t.to_columnar()
    }

    /// Empty trace with all ten columns pre-sized for `n` records.
    pub fn with_capacity(n: usize) -> Self {
        ColumnarTrace {
            rank: Vec::with_capacity(n),
            node: Vec::with_capacity(n),
            app: Vec::with_capacity(n),
            layer: Vec::with_capacity(n),
            op: Vec::with_capacity(n),
            start: Vec::with_capacity(n),
            end: Vec::with_capacity(n),
            file: Vec::with_capacity(n),
            offset: Vec::with_capacity(n),
            bytes: Vec::with_capacity(n),
            file_paths: Vec::new(),
            app_names: Vec::new(),
        }
    }

    /// Reserve room for at least `additional` more records in every column.
    pub(crate) fn reserve(&mut self, additional: usize) {
        self.rank.reserve(additional);
        self.node.reserve(additional);
        self.app.reserve(additional);
        self.layer.reserve(additional);
        self.op.reserve(additional);
        self.start.reserve(additional);
        self.end.reserve(additional);
        self.file.reserve(additional);
        self.offset.reserve(additional);
        self.bytes.reserve(additional);
    }

    /// Drop every record while keeping column capacity and the intern
    /// tables. The chunked capture path seals a full buffer and recycles it
    /// for the next chunk without reallocating.
    pub fn clear_rows(&mut self) {
        self.rank.clear();
        self.node.clear();
        self.app.clear();
        self.layer.clear();
        self.op.clear();
        self.start.clear();
        self.end.clear();
        self.file.clear();
        self.offset.clear();
        self.bytes.clear();
    }

    /// Append one record directly to the columns (the capture hot path —
    /// no intermediate row struct is materialized).
    #[allow(clippy::too_many_arguments)]
    pub fn push_row(
        &mut self,
        rank: u32,
        node: u32,
        app: AppId,
        layer: Layer,
        op: OpKind,
        start: SimTime,
        end: SimTime,
        file: Option<FileId>,
        offset: u64,
        bytes: u64,
    ) {
        self.rank.push(rank);
        self.node.push(node);
        self.app.push(app.0);
        self.layer.push(layer);
        self.op.push(op);
        self.start.push(start.as_nanos());
        self.end.push(end.as_nanos());
        self.file.push(file.map(|f| f.0).unwrap_or(NO_FILE));
        self.offset.push(offset);
        self.bytes.push(bytes);
    }

    /// Convert raw records to columns.
    pub fn from_records(
        records: &[TraceRecord],
        file_paths: Vec<String>,
        app_names: Vec<String>,
    ) -> Self {
        let n = records.len();
        let mut c = ColumnarTrace {
            rank: Vec::with_capacity(n),
            node: Vec::with_capacity(n),
            app: Vec::with_capacity(n),
            layer: Vec::with_capacity(n),
            op: Vec::with_capacity(n),
            start: Vec::with_capacity(n),
            end: Vec::with_capacity(n),
            file: Vec::with_capacity(n),
            offset: Vec::with_capacity(n),
            bytes: Vec::with_capacity(n),
            file_paths,
            app_names,
        };
        for r in records {
            c.rank.push(r.rank);
            c.node.push(r.node);
            c.app.push(r.app.0);
            c.layer.push(r.layer);
            c.op.push(r.op);
            c.start.push(r.start.as_nanos());
            c.end.push(r.end.as_nanos());
            c.file.push(r.file.map(|f| f.0).unwrap_or(NO_FILE));
            c.offset.push(r.offset);
            c.bytes.push(r.bytes);
        }
        c
    }

    /// Reconstruct row-major records (inverse of [`Self::from_records`]).
    pub fn to_records(&self) -> Vec<TraceRecord> {
        (0..self.len())
            .map(|i| TraceRecord {
                rank: self.rank[i],
                node: self.node[i],
                app: AppId(self.app[i]),
                layer: self.layer[i],
                op: self.op[i],
                start: SimTime(self.start[i]),
                end: SimTime(self.end[i]),
                file: self.file_id(i),
                offset: self.offset[i],
                bytes: self.bytes[i],
            })
            .collect()
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        self.rank.len()
    }

    /// Whether the trace is empty.
    pub fn is_empty(&self) -> bool {
        self.rank.is_empty()
    }

    /// The file id of record `i`, if any.
    pub fn file_id(&self, i: usize) -> Option<FileId> {
        (self.file[i] != NO_FILE).then(|| FileId(self.file[i]))
    }

    /// Duration of record `i`.
    pub fn dur(&self, i: usize) -> Dur {
        Dur(self.end[i].saturating_sub(self.start[i]))
    }

    /// Indices matching a predicate, in record order (parallel scan with a
    /// sequential fast path below `rt::par::SEQ_THRESHOLD` records).
    pub fn select<P>(&self, pred: P) -> Vec<u32>
    where
        P: Fn(usize) -> bool + Sync,
    {
        par::par_filter_indices(self.len(), pred)
    }

    /// Indices of all I/O operations (data + metadata).
    pub fn io_ops(&self) -> Vec<u32> {
        self.select(|i| self.op[i].is_io())
    }

    /// Indices of data operations at a given layer, or across layers.
    pub fn data_ops(&self, layer: Option<Layer>) -> Vec<u32> {
        self.select(|i| self.op[i].is_data() && layer.is_none_or(|l| self.layer[i] == l))
    }

    /// Indices of metadata operations at a given layer, or across layers.
    pub fn meta_ops(&self, layer: Option<Layer>) -> Vec<u32> {
        self.select(|i| self.op[i].is_meta() && layer.is_none_or(|l| self.layer[i] == l))
    }

    /// Sum of `bytes` over a selection.
    pub fn sum_bytes(&self, sel: &[u32]) -> u64 {
        par::par_reduce(
            sel,
            || 0u64,
            |acc, &i| acc + self.bytes[i as usize],
            |a, b| a + b,
        )
    }

    /// Sum of durations over a selection.
    pub fn sum_time(&self, sel: &[u32]) -> Dur {
        Dur(par::par_reduce(
            sel,
            || 0u64,
            |acc, &i| acc + (self.end[i as usize] - self.start[i as usize]),
            |a, b| a + b,
        ))
    }

    /// Group a selection by file id.
    pub fn group_by_file(&self, sel: &[u32]) -> HashMap<u32, GroupAgg> {
        self.group_by(sel, |i| self.file[i])
    }

    /// Group a selection by rank.
    pub fn group_by_rank(&self, sel: &[u32]) -> HashMap<u32, GroupAgg> {
        self.group_by(sel, |i| self.rank[i])
    }

    /// Group a selection by app id.
    pub fn group_by_app(&self, sel: &[u32]) -> HashMap<u16, GroupAgg> {
        self.group_by(sel, |i| self.app[i])
    }

    /// Generic group-by over a selection.
    pub(crate) fn group_by<K, F>(&self, sel: &[u32], key: F) -> HashMap<K, GroupAgg>
    where
        K: std::hash::Hash + Eq + Send,
        F: Fn(usize) -> K + Sync,
    {
        par::par_group_by(
            sel,
            |&i| key(i as usize),
            |agg: &mut GroupAgg, &i| {
                let i = i as usize;
                agg.ops += 1;
                agg.bytes += self.bytes[i];
                agg.time += Dur(self.end[i] - self.start[i]);
            },
            |a, b| {
                a.ops += b.ops;
                a.bytes += b.bytes;
                a.time += b.time;
            },
        )
    }

    /// Latest end over the whole trace.
    pub fn t_max(&self) -> SimTime {
        SimTime(par::par_reduce(
            &self.end,
            || 0u64,
            |acc, &t| acc.max(t),
            |a, b| a.max(b),
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_trace() -> Tracer {
        let mut t = Tracer::new();
        let f0 = t.file_id("/a");
        let f1 = t.file_id("/b");
        let app = t.app_id("app");
        // rank 0: open, write 100 B (1 s), close on /a
        t.record(
            0,
            0,
            app,
            Layer::Posix,
            OpKind::Open,
            SimTime(0),
            SimTime(10),
            Some(f0),
            0,
            0,
        );
        t.record(
            0,
            0,
            app,
            Layer::Posix,
            OpKind::Write,
            SimTime(10),
            SimTime(1_000_000_010),
            Some(f0),
            0,
            100,
        );
        t.record(
            0,
            0,
            app,
            Layer::Posix,
            OpKind::Close,
            SimTime(1_000_000_010),
            SimTime(1_000_000_020),
            Some(f0),
            0,
            0,
        );
        // rank 1: read 50 B on /b, compute
        t.record(
            1,
            0,
            app,
            Layer::Stdio,
            OpKind::Read,
            SimTime(0),
            SimTime(500),
            Some(f1),
            0,
            50,
        );
        t.record(
            1,
            0,
            app,
            Layer::App,
            OpKind::Compute,
            SimTime(500),
            SimTime(10_000),
            None,
            0,
            0,
        );
        t
    }

    #[test]
    fn conversion_round_trips() {
        let t = sample_trace();
        let c = ColumnarTrace::from_tracer(&t);
        assert_eq!(c.len(), 5);
        let back = c.to_records();
        assert_eq!(back.len(), 5);
        let again =
            ColumnarTrace::from_records(&back, t.file_paths().to_vec(), t.app_names().to_vec());
        assert_eq!(again, c);
    }

    #[test]
    fn selections_split_data_and_meta() {
        let c = ColumnarTrace::from_tracer(&sample_trace());
        assert_eq!(c.data_ops(None).len(), 2);
        assert_eq!(c.meta_ops(None).len(), 2);
        assert_eq!(c.io_ops().len(), 4);
        assert_eq!(c.data_ops(Some(Layer::Posix)).len(), 1);
        assert_eq!(c.data_ops(Some(Layer::Stdio)).len(), 1);
    }

    #[test]
    fn aggregates_are_correct() {
        let c = ColumnarTrace::from_tracer(&sample_trace());
        let data = c.data_ops(None);
        assert_eq!(c.sum_bytes(&data), 150);
        let by_file = c.group_by_file(&data);
        assert_eq!(by_file[&0].bytes, 100);
        assert_eq!(by_file[&1].bytes, 50);
        let by_rank = c.group_by_rank(&c.io_ops());
        assert_eq!(by_rank[&0].ops, 3);
        assert_eq!(by_rank[&1].ops, 1);
    }

    #[test]
    fn t_max_is_the_latest_end() {
        let c = ColumnarTrace::from_tracer(&sample_trace());
        assert_eq!(c.t_max(), SimTime(1_000_000_020));
    }

    // Deterministic randomized sweeps (seeded `vani_rt::Rng`) — converted
    // from the original proptest suites.

    /// Row → column → row is the identity for arbitrary records.
    #[test]
    fn randomized_round_trip() {
        let mut r = vani_rt::Rng::new(0xc001_0001);
        for _ in 0..64 {
            let n = r.uniform_u64(0, 50) as usize;
            let records: Vec<TraceRecord> = (0..n)
                .map(|_| {
                    let rank = r.uniform_u64(0, 8) as u32;
                    let start = r.uniform_u64(0, 1_000);
                    let dur = r.uniform_u64(1, 1_000);
                    let bytes = r.uniform_u64(0, 65536);
                    TraceRecord {
                        rank,
                        node: r.uniform_u64(0, 4) as u32,
                        app: AppId(0),
                        layer: Layer::Posix,
                        op: if bytes % 2 == 0 {
                            OpKind::Read
                        } else {
                            OpKind::Open
                        },
                        start: SimTime(start),
                        end: SimTime(start + dur),
                        file: if bytes % 3 == 0 {
                            None
                        } else {
                            Some(FileId(rank))
                        },
                        offset: r.uniform_u64(0, 4096),
                        bytes,
                    }
                })
                .collect();
            let c = ColumnarTrace::from_records(&records, vec!["/f".into(); 8], vec!["a".into()]);
            assert_eq!(c.to_records(), records);
        }
    }

    /// group_by_rank partitions the selection: totals match.
    #[test]
    fn randomized_group_by_partitions() {
        let mut r = vani_rt::Rng::new(0xc001_0002);
        for _ in 0..64 {
            let n = r.uniform_u64(1, 100) as usize;
            let records: Vec<TraceRecord> = (0..n)
                .map(|i| TraceRecord {
                    rank: r.uniform_u64(0, 5) as u32,
                    node: 0,
                    app: AppId(0),
                    layer: Layer::Posix,
                    op: OpKind::Write,
                    start: SimTime(i as u64),
                    end: SimTime(i as u64 + 1),
                    file: None,
                    offset: 0,
                    bytes: r.uniform_u64(1, 100),
                })
                .collect();
            let c = ColumnarTrace::from_records(&records, vec![], vec!["a".into()]);
            let sel = c.data_ops(None);
            let groups = c.group_by_rank(&sel);
            let total_ops: u64 = groups.values().map(|g| g.ops).sum();
            let total_bytes: u64 = groups.values().map(|g| g.bytes).sum();
            assert_eq!(total_ops, n as u64);
            assert_eq!(total_bytes, c.sum_bytes(&sel));
        }
    }
}
