//! An HDF5-like self-describing container format ("H5SIM").
//!
//! Real structure, simplified encoding: a 512-byte superblock pointing at a
//! JSON object header that indexes datasets (name, shape, element size, and
//! a contiguous or chunked layout). The behavioral properties the paper
//! depends on are faithfully reproduced:
//!
//! * opening a file costs *real small reads* of the superblock and header —
//!   on a shared file over MPI-IO those metadata reads are what storm the
//!   metadata service and thrash lock tokens (CosmoFlow, Fig. 3),
//! * an **unchunked** dataset accessed through MPI-IO performs a header
//!   validation read per access ("no file chunking … slows down the multiple
//!   metadata accesses on the dataset, due to collective I/O", §IV-A3),
//! * a **chunked** dataset reads whole chunks through a per-handle chunk
//!   cache (the `chunking` optimization of §IV-D5).

use crate::posix::{self, Fd, OpenFlags};
use crate::world::IoWorld;
use hpc_cluster::topology::RankId;
use recorder_sim::record::{Layer, OpKind};
use sim_core::SimTime;
use std::collections::HashMap;
use std::sync::Arc;
use storage_sim::file::ContentView;
use storage_sim::IoErr;
use vani_rt::{Json, JsonError};

/// Superblock size and magic.
const SUPERBLOCK: u64 = 512;
const MAGIC: &[u8; 8] = b"H5SIM001";

/// Per-open options.
#[derive(Debug, Clone, PartialEq)]
pub struct H5Options {
    /// Access the file through MPI-IO semantics (collective metadata:
    /// per-access header validation on unchunked datasets).
    pub use_mpiio: bool,
    /// Chunk cache capacity per handle (HDF5 default is tiny — the paper
    /// quotes 4 KiB as the default chunk cache, §I).
    pub chunk_cache_bytes: u64,
}

impl Default for H5Options {
    fn default() -> Self {
        H5Options {
            use_mpiio: false,
            chunk_cache_bytes: 4096,
        }
    }
}

/// Storage layout of one dataset.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum DsLayout {
    /// One contiguous extent at `offset`.
    Contiguous {
        /// Byte offset of element 0.
        offset: u64,
    },
    /// Fixed-size chunks stored back to back starting at `offset`.
    Chunked {
        /// First chunk's byte offset.
        offset: u64,
        /// Bytes per chunk.
        chunk_bytes: u64,
    },
}

/// A dataset's header entry.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct DatasetInfo {
    /// Dataset name.
    pub name: String,
    /// Logical shape (the paper's "#dims" format attribute).
    pub shape: Vec<u64>,
    /// Bytes per element.
    pub dtype_size: u32,
    /// Physical layout.
    pub layout: DsLayout,
}

impl DatasetInfo {
    /// Total bytes of the dataset.
    pub(crate) fn nbytes(&self) -> u64 {
        self.shape.iter().product::<u64>() * self.dtype_size as u64
    }
}

/// Render the object header: `{"datasets":[…]}`, one
/// `{"name","shape","dtype_size","layout"}` object per dataset, the layout
/// externally tagged (`{"Chunked":{"offset":N,"chunk_bytes":M}}`) so
/// existing H5SIM files keep parsing.
fn header_bytes(datasets: &[DatasetInfo]) -> Vec<u8> {
    let int = |n: u64| Json::Int(n as i128);
    let entries = datasets
        .iter()
        .map(|d| {
            let layout = match d.layout {
                DsLayout::Contiguous { offset } => {
                    Json::obj([("Contiguous", Json::obj([("offset", int(offset))]))])
                }
                DsLayout::Chunked {
                    offset,
                    chunk_bytes,
                } => Json::obj([(
                    "Chunked",
                    Json::obj([("offset", int(offset)), ("chunk_bytes", int(chunk_bytes))]),
                )]),
            };
            Json::obj([
                ("name", Json::Str(d.name.clone())),
                (
                    "shape",
                    Json::Arr(d.shape.iter().map(|&n| int(n)).collect()),
                ),
                ("dtype_size", int(d.dtype_size as u64)),
                ("layout", layout),
            ])
        })
        .collect();
    Json::obj([("datasets", Json::Arr(entries))])
        .render()
        .into_bytes()
}

/// Parse an object header written by `header_bytes`. Anything else —
/// not UTF-8 JSON, a missing or wrong-typed member, an unknown layout tag,
/// a zero chunk size or a dataset whose extent overflows `u64` — is an
/// error, so a reader never indexes or divides by a bad value.
fn parse_header(bytes: &[u8]) -> Result<Vec<DatasetInfo>, JsonError> {
    let text = std::str::from_utf8(bytes).map_err(|_| JsonError::shape("header is not UTF-8"))?;
    let doc = Json::parse(text)?;
    let dataset = |d: &Json| -> Result<DatasetInfo, JsonError> {
        let layout = d.field("layout")?;
        let (offset, chunk_bytes) = if let Some(body) = layout.get("Contiguous") {
            (body.field("offset")?.as_u64()?, None)
        } else if let Some(body) = layout.get("Chunked") {
            let chunk_bytes = body.field("chunk_bytes")?.as_u64()?;
            (body.field("offset")?.as_u64()?, Some(chunk_bytes))
        } else {
            return Err(JsonError::shape("unknown layout"));
        };
        let shape = (d.field("shape")?.as_arr()?.iter())
            .map(Json::as_u64)
            .collect::<Result<Vec<_>, _>>()?;
        let dtype_size = u32::try_from(d.field("dtype_size")?.as_u64()?)
            .map_err(|_| JsonError::shape("dtype_size out of range"))?;
        let end = (shape.iter())
            .try_fold(dtype_size as u64, |n, &dim| n.checked_mul(dim))
            .and_then(|n| n.checked_add(offset));
        if end.is_none() || chunk_bytes == Some(0) {
            return Err(JsonError::shape("dataset extent out of range"));
        }
        Ok(DatasetInfo {
            name: d.field("name")?.as_str()?.to_string(),
            shape,
            dtype_size,
            layout: match chunk_bytes {
                None => DsLayout::Contiguous { offset },
                Some(chunk_bytes) => DsLayout::Chunked {
                    offset,
                    chunk_bytes,
                },
            },
        })
    };
    doc.field("datasets")?
        .as_arr()?
        .iter()
        .map(dataset)
        .collect()
}

/// The layout of an H5SIM file with a given dataset list, for staging
/// files directly into a file store without simulating the producer (the
/// paper's CosmoFlow corpus pre-exists the job). The superblock and object
/// header depend on the spec list alone, so they are rendered once and
/// every file staged from one layout shares them. Dataset bodies are
/// synthetic pattern segments, so a 32 MiB file costs a few hundred bytes
/// of memory.
pub struct H5Layout {
    datasets: Vec<DatasetInfo>,
    header: Arc<Vec<u8>>,
    superblock: Arc<Vec<u8>>,
}

impl H5Layout {
    /// Lay out `(name, shape, dtype_size, chunk_bytes)` datasets back to
    /// back after the superblock, the object header after them.
    pub fn new(specs: &[(&str, &[u64], u32, Option<u64>)]) -> H5Layout {
        let mut eof = SUPERBLOCK;
        let mut datasets = Vec::new();
        for (name, shape, dtype_size, chunk_bytes) in specs {
            datasets.push(DatasetInfo {
                name: name.to_string(),
                shape: shape.to_vec(),
                dtype_size: *dtype_size,
                layout: match chunk_bytes {
                    None => DsLayout::Contiguous { offset: eof },
                    Some(cb) => DsLayout::Chunked {
                        offset: eof,
                        chunk_bytes: (*cb).max(1),
                    },
                },
            });
            eof += shape.iter().product::<u64>() * *dtype_size as u64;
        }
        let header = header_bytes(&datasets);
        let mut sb = vec![0u8; SUPERBLOCK as usize];
        sb[..8].copy_from_slice(MAGIC);
        sb[8..16].copy_from_slice(&eof.to_le_bytes());
        sb[16..24].copy_from_slice(&(header.len() as u64).to_le_bytes());
        H5Layout {
            datasets,
            header: Arc::new(header),
            superblock: Arc::new(sb),
        }
    }

    /// Stage a complete file at `path`: each dataset body is the pattern
    /// fill of `seed` xor its offset, the header and superblock are the
    /// layout's shared bytes.
    pub fn materialize(
        &self,
        store: &mut storage_sim::file::FileStore,
        path: &str,
        seed: u64,
    ) -> Result<(), IoErr> {
        use storage_sim::file::Segment;
        let key = store.create(path, false)?;
        let mut eof = SUPERBLOCK;
        for d in &self.datasets {
            store.write(
                key,
                eof,
                Segment::Pattern {
                    seed: seed ^ eof,
                    len: d.nbytes().max(1),
                },
            )?;
            eof += d.nbytes();
        }
        store.write(key, eof, Segment::Bytes(self.header.clone()))?;
        store.write(key, 0, Segment::Bytes(self.superblock.clone()))?;
        Ok(())
    }
}

/// A chunk-cache entry key.
type ChunkIdx = u64;

/// Reader handle for an H5SIM file.
pub struct H5File {
    fd: Fd,
    opts: H5Options,
    datasets: Arc<[DatasetInfo]>,
    header_offset: u64,
    cache: HashMap<(usize, ChunkIdx), u64>,
    cache_bytes: u64,
    cache_order: Vec<(usize, ChunkIdx)>,
}

/// Open an existing file: superblock read, header read, JSON parse. Both
/// reads are real small reads in the trace. The parse is not simulated
/// work, so a header whose exact bytes the world has parsed before reuses
/// that parse; a malformed header is parsed, and refused, every time.
pub fn open(
    w: &mut IoWorld,
    rank: RankId,
    path: &str,
    opts: H5Options,
    now: SimTime,
) -> (Result<H5File, IoErr>, SimTime) {
    let t0 = now;
    let flags = OpenFlags::read_only();
    let (fd, t) = if opts.use_mpiio {
        crate::mpiio::open(w, rank, path, flags, now)
    } else {
        posix::open(w, rank, path, flags, now)
    };
    let fd = match fd {
        Ok(f) => f,
        Err(e) => return (Err(e), t),
    };
    // Superblock. Unlike every other POSIX record, this read's record
    // starts at the open's start `t0`, so it spans the open too. Figure 7's
    // preload runs count that span as POSIX read time, and starting it at
    // `t` (as `posix::call` would) moves Figure 7's pinned I/O times.
    let node = w.node_of(rank);
    let (handle, path_id) = {
        let of = w.fd(rank, fd).expect("just opened");
        (of.handle, of.path_id)
    };
    let (res, t_sb) =
        crate::resilience::with_retries(w, rank, Some(path_id), 0, SUPERBLOCK, t, |w, t| {
            w.storage.read_view(node, handle, 0, SUPERBLOCK, t)
        });
    let got = res.as_ref().map_or(0, ContentView::len);
    let t = w.trace_io(
        rank,
        Layer::Posix,
        OpKind::Read,
        t0,
        t_sb,
        Some(path_id),
        0,
        got,
    );
    let sb = match res {
        Ok(sb) => sb.to_vec(),
        Err(e) => return (Err(e), t),
    };
    if sb.len() < 24 || &sb[..8] != MAGIC {
        return (Err(IoErr::Invalid), t);
    }
    let header_offset = u64::from_le_bytes(sb[8..16].try_into().expect("8 bytes"));
    let header_len = u64::from_le_bytes(sb[16..24].try_into().expect("8 bytes"));
    if header_offset == 0 {
        return (Err(IoErr::Invalid), t); // file never closed properly
    }
    // Object header.
    let (res, t) = posix::pread_view(w, rank, fd, header_offset, header_len, t);
    let header = match res {
        Ok(h) => h.to_vec(),
        Err(e) => return (Err(e), t),
    };
    let datasets = match w.h5_headers.get(&header) {
        Some(d) => d.clone(),
        None => {
            let Ok(d) = parse_header(&header) else {
                return (Err(IoErr::Invalid), t);
            };
            let d: Arc<[DatasetInfo]> = d.into();
            w.h5_headers.insert(header, d.clone());
            d
        }
    };
    let end = w.trace_io(
        rank,
        Layer::HighLevel,
        OpKind::Open,
        t0,
        t,
        Some(path_id),
        0,
        0,
    );
    (
        Ok(H5File {
            fd,
            opts,
            datasets,
            header_offset,
            cache: HashMap::new(),
            cache_bytes: 0,
            cache_order: Vec::new(),
        }),
        end,
    )
}

impl H5File {
    /// Read `len` bytes of a dataset starting at byte `offset` within it.
    /// Returns bytes read and completion time.
    pub fn read(
        &mut self,
        w: &mut IoWorld,
        rank: RankId,
        name: &str,
        offset: u64,
        len: u64,
        now: SimTime,
    ) -> (Result<u64, IoErr>, SimTime) {
        let t0 = now;
        let Some(idx) = self.datasets.iter().position(|d| d.name == name) else {
            return (Err(IoErr::NotFound), now);
        };
        let ds = self.datasets[idx].clone();
        let path_id = w.fd(rank, self.fd).map(|of| of.path_id).ok();
        let nbytes = ds.nbytes();
        let len = len.min(nbytes.saturating_sub(offset));
        let mut t = now;
        let total;
        match ds.layout {
            DsLayout::Contiguous { offset: base } => {
                if self.opts.use_mpiio {
                    // Collective-metadata validation per access — the
                    // unchunked-over-MPI-IO tax: a small header read (which
                    // thrashes the lock token across nodes) plus an MDS
                    // round trip (which storms the metadata service).
                    let (res, t2) = posix::read_at(w, rank, self.fd, self.header_offset, 256, t);
                    if let Err(e) = res {
                        return (Err(e), t2);
                    }
                    let (res, t3) = posix::fstat(w, rank, self.fd, t2);
                    if let Err(e) = res {
                        return (Err(e), t3);
                    }
                    let t4 = w.trace_io(rank, Layer::HighLevel, OpKind::Stat, t, t3, path_id, 0, 0);
                    t = t4;
                }
                let (res, t2) = posix::read_at(w, rank, self.fd, base + offset, len, t);
                match res {
                    Ok(n) => {
                        total = n;
                        t = t2;
                    }
                    Err(e) => return (Err(e), t2),
                }
            }
            DsLayout::Chunked {
                offset: base,
                chunk_bytes,
            } => {
                let first = offset / chunk_bytes;
                let last = (offset + len).saturating_sub(1) / chunk_bytes;
                let mut got = 0u64;
                for c in first..=last {
                    if self.cache_hit(idx, c) {
                        // Cache hit: memcpy-ish cost only.
                        t = t + sim_core::Dur::from_nanos(200);
                        got += chunk_bytes.min(nbytes - c * chunk_bytes);
                        continue;
                    }
                    let c_off = base + c * chunk_bytes;
                    let c_len = chunk_bytes.min(nbytes - c * chunk_bytes);
                    let (res, t2) = posix::read_at(w, rank, self.fd, c_off, c_len, t);
                    match res {
                        Ok(n) => {
                            got += n;
                            t = t2;
                            self.cache_insert(idx, c, c_len);
                        }
                        Err(e) => return (Err(e), t2),
                    }
                }
                total = got.min(len);
            }
        }
        let end = w.trace_io(
            rank,
            Layer::HighLevel,
            OpKind::Read,
            t0,
            t,
            path_id,
            offset,
            total,
        );
        (Ok(total), end)
    }

    fn cache_hit(&self, ds: usize, chunk: ChunkIdx) -> bool {
        self.cache.contains_key(&(ds, chunk))
    }

    fn cache_insert(&mut self, ds: usize, chunk: ChunkIdx, bytes: u64) {
        if bytes > self.opts.chunk_cache_bytes {
            return; // chunk bigger than the cache: uncacheable
        }
        self.cache.insert((ds, chunk), bytes);
        self.cache_order.push((ds, chunk));
        self.cache_bytes += bytes;
        while self.cache_bytes > self.opts.chunk_cache_bytes && !self.cache_order.is_empty() {
            let victim = self.cache_order.remove(0);
            if let Some(b) = self.cache.remove(&victim) {
                self.cache_bytes -= b.min(self.cache_bytes);
            }
        }
    }

    /// Close the file.
    pub fn close(
        self,
        w: &mut IoWorld,
        rank: RankId,
        now: SimTime,
    ) -> (Result<(), IoErr>, SimTime) {
        let path_id = w.fd(rank, self.fd).map(|of| of.path_id).ok();
        let (res, t) = if self.opts.use_mpiio {
            crate::mpiio::close(w, rank, self.fd, now)
        } else {
            posix::close(w, rank, self.fd, now)
        };
        let end = w.trace_io(rank, Layer::HighLevel, OpKind::Close, now, t, path_id, 0, 0);
        (res, end)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_core::units::MIB;

    fn world() -> IoWorld {
        IoWorld::lassen(1, 2, 4)
    }

    fn make_file(w: &mut IoWorld, path: &str, chunk: Option<u64>) -> SimTime {
        let store = w.storage.pfs_mut().store_mut();
        H5Layout::new(&[("full", &[512, 512, 4], 2, chunk)])
            .materialize(store, path, 7)
            .unwrap();
        SimTime::ZERO
    }

    /// Stage raw bytes as a file, bypassing the container format.
    fn stage_raw(w: &mut IoWorld, path: &str, bytes: Vec<u8>) {
        let store = w.storage.pfs_mut().store_mut();
        let key = store.create(path, false).unwrap();
        store
            .write(
                key,
                0,
                storage_sim::file::Segment::Bytes(std::sync::Arc::new(bytes)),
            )
            .unwrap();
    }

    #[test]
    fn materialize_open_read_round_trip() {
        let mut w = world();
        let t = make_file(&mut w, "/p/gpfs1/sim.h5", None);
        let r = RankId(0);
        let (f, t) = open(&mut w, r, "/p/gpfs1/sim.h5", H5Options::default(), t);
        let mut f = f.unwrap();
        let ds = f.datasets.iter().find(|d| d.name == "full").unwrap();
        assert_eq!(ds.shape, vec![512, 512, 4]);
        assert_eq!(ds.nbytes(), 512 * 512 * 4 * 2);
        let (n, t) = f.read(&mut w, r, "full", 0, 1 * MIB, t);
        assert_eq!(n.unwrap(), 1 * MIB);
        let (res, _) = f.close(&mut w, r, t);
        res.unwrap();
    }

    #[test]
    fn open_costs_small_metadata_reads() {
        let mut w = world();
        let t = make_file(&mut w, "/p/gpfs1/meta.h5", None);
        let before = w.tracer.len();
        let r = RankId(0);
        let (f, _t) = open(&mut w, r, "/p/gpfs1/meta.h5", H5Options::default(), t);
        f.unwrap();
        let new: Vec<_> = w.tracer.columnar().to_records()[before..].to_vec();
        // Superblock + header POSIX reads are small.
        let small_reads: Vec<u64> = new
            .iter()
            .filter(|rec| rec.layer == Layer::Posix && rec.op == OpKind::Read)
            .map(|rec| rec.bytes)
            .collect();
        assert_eq!(small_reads.len(), 2);
        assert!(small_reads.iter().all(|&b| b < 4096));
        // And a HighLevel open record.
        assert!(new
            .iter()
            .any(|rec| rec.layer == Layer::HighLevel && rec.op == OpKind::Open));
    }

    #[test]
    fn mpiio_unchunked_reads_pay_per_access_metadata() {
        let mut w = world();
        let t = make_file(&mut w, "/p/gpfs1/cf.h5", None);
        let r = RankId(0);
        let opts = H5Options {
            use_mpiio: true,
            ..Default::default()
        };
        let (f, mut t) = open(&mut w, r, "/p/gpfs1/cf.h5", opts, t);
        let mut f = f.unwrap();
        let before = w.tracer.len();
        for i in 0..4u64 {
            let (res, t2) = f.read(&mut w, r, "full", i * MIB, MIB, t);
            res.unwrap();
            t = t2;
        }
        let metas = w.tracer.columnar().to_records()[before..]
            .iter()
            .filter(|rec| rec.layer == Layer::HighLevel && rec.op == OpKind::Stat)
            .count();
        assert_eq!(metas, 4, "one header validation per access");
    }

    #[test]
    fn chunked_reads_use_the_chunk_cache() {
        let mut w = world();
        let t = make_file(&mut w, "/p/gpfs1/ch.h5", Some(64 * 1024));
        let r = RankId(0);
        let opts = H5Options {
            use_mpiio: false,
            chunk_cache_bytes: 1 * MIB,
        };
        let (f, t) = open(&mut w, r, "/p/gpfs1/ch.h5", opts, t);
        let mut f = f.unwrap();
        let posix_reads = |w: &IoWorld| {
            w.tracer
                .columnar()
                .to_records()
                .iter()
                .filter(|rec| rec.layer == Layer::Posix && rec.op == OpKind::Read)
                .count()
        };
        let before = posix_reads(&w);
        let (_, t) = f.read(&mut w, r, "full", 0, 128 * 1024, t);
        let after_first = posix_reads(&w);
        assert_eq!(after_first - before, 2, "two 64 KiB chunks fetched");
        // Re-read the same range: all cache hits, no POSIX reads.
        let (_, _t) = f.read(&mut w, r, "full", 0, 128 * 1024, t);
        assert_eq!(posix_reads(&w), after_first);
    }

    #[test]
    fn corrupt_superblock_is_rejected() {
        let mut w = world();
        let r = RankId(0);
        stage_raw(
            &mut w,
            "/p/gpfs1/bad.h5",
            b"not an hdf5 file at all, promise!".to_vec(),
        );
        let (res, _) = open(
            &mut w,
            r,
            "/p/gpfs1/bad.h5",
            H5Options::default(),
            SimTime::ZERO,
        );
        assert_eq!(res.err().unwrap(), IoErr::Invalid);
    }

    #[test]
    fn unclosed_file_without_header_offset_is_invalid() {
        let mut w = world();
        let r = RankId(0);
        // A producer that never closed the file: the superblock carries the
        // magic but still points at no object header.
        let mut sb = vec![0u8; SUPERBLOCK as usize];
        sb[..8].copy_from_slice(MAGIC);
        stage_raw(&mut w, "/p/gpfs1/unclosed.h5", sb);
        let (res, _) = open(
            &mut w,
            r,
            "/p/gpfs1/unclosed.h5",
            H5Options::default(),
            SimTime::ZERO,
        );
        assert_eq!(res.err().unwrap(), IoErr::Invalid);
    }

    /// Stage a file whose superblock points at `header`, bypassing
    /// `materialize`'s writer.
    fn stage_with_header(w: &mut IoWorld, path: &str, header: &[u8]) {
        let mut bytes = vec![0u8; SUPERBLOCK as usize];
        bytes[..8].copy_from_slice(MAGIC);
        bytes[8..16].copy_from_slice(&SUPERBLOCK.to_le_bytes());
        bytes[16..24].copy_from_slice(&(header.len() as u64).to_le_bytes());
        bytes.extend_from_slice(header);
        stage_raw(w, path, bytes);
    }

    #[test]
    fn materialized_header_bytes_are_pinned() {
        let mut w = world();
        let store = w.storage.pfs_mut().store_mut();
        let specs: &[(&str, &[u64], u32, Option<u64>)] = &[
            ("full", &[512, 512, 4], 2, None),
            ("chunked \"x\"", &[64, 3], 4, Some(4096)),
        ];
        H5Layout::new(specs)
            .materialize(store, "/p/gpfs1/pin.h5", 7)
            .unwrap();
        let key = store.lookup("/p/gpfs1/pin.h5").unwrap();
        let sb = store.view(key, 0, 24).unwrap().to_vec();
        assert_eq!(&sb[..8], MAGIC);
        let off = u64::from_le_bytes(sb[8..16].try_into().unwrap());
        let len = u64::from_le_bytes(sb[16..24].try_into().unwrap());
        assert_eq!((off, len), (2_098_432, 218));
        let header = String::from_utf8(store.view(key, off, len).unwrap().to_vec()).unwrap();
        assert_eq!(
            header,
            r#"{"datasets":[{"name":"full","shape":[512,512,4],"dtype_size":2,"layout":{"Contiguous":{"offset":512}}},{"name":"chunked \"x\"","shape":[64,3],"dtype_size":4,"layout":{"Chunked":{"offset":2097664,"chunk_bytes":4096}}}]}"#
        );
        // The pinned header opens back to the datasets it was written from.
        let (f, _) = open(
            &mut w,
            RankId(0),
            "/p/gpfs1/pin.h5",
            H5Options::default(),
            SimTime::ZERO,
        );
        let names: Vec<_> = f.unwrap().datasets.iter().map(|d| d.name.clone()).collect();
        assert_eq!(names, ["full", "chunked \"x\""]);
    }

    #[test]
    fn header_parses_are_shared_by_exact_bytes_and_failures_are_not_kept() {
        let mut w = world();
        let r = RankId(0);
        let layout = H5Layout::new(&[("d", &[64], 4, None)]);
        let paths = ["/p/gpfs1/a.h5", "/p/gpfs1/b.h5"];
        for (i, path) in paths.iter().enumerate() {
            let store = w.storage.pfs_mut().store_mut();
            layout.materialize(store, path, i as u64).unwrap();
        }
        let mut opened = Vec::new();
        for path in paths {
            let (f, _) = open(&mut w, r, path, H5Options::default(), SimTime::ZERO);
            opened.push(f.unwrap().datasets);
        }
        assert!(Arc::ptr_eq(&opened[0], &opened[1]), "one parse serves both");
        assert_eq!(w.h5_headers.len(), 1);
        stage_with_header(&mut w, "/p/gpfs1/bad.h5", b"not json");
        for _ in 0..2 {
            let (res, _) = open(
                &mut w,
                r,
                "/p/gpfs1/bad.h5",
                H5Options::default(),
                SimTime::ZERO,
            );
            assert_eq!(res.err(), Some(IoErr::Invalid));
        }
        assert_eq!(w.h5_headers.len(), 1, "a failed parse is not kept");
    }

    #[test]
    fn malformed_headers_open_as_invalid() {
        let ok = r#"{"datasets":[{"name":"d","shape":[4],"dtype_size":2,"layout":{"Contiguous":{"offset":512}}}]}"#;
        let bad: &[&[u8]] = &[
            b"not json at all",
            b"\xff\xfe{}",
            br#"{"datasets":[{"name":"d","shape":[4],"dtype_size":2,"layout":{"Contiguous":{"offset":"512"}}}]}"#,
            br#"{"datasets":[{"name":"d","shape":[4],"dtype_size":2,"layout":{"Contiguous":{"offset":-1}}}]}"#,
            br#"{"datasets":[{"name":"d","shape":[4],"dtype_size":2,"layout":{"Contiguous":{"offset":5.0}}}]}"#,
            br#"{"datasets":[{"name":"d","shape":[4],"dtype_size":2,"layout":{"Striped":{"offset":512}}}]}"#,
            br#"{"datasets":[{"name":"d","shape":[4],"dtype_size":2,"layout":{"Chunked":{"offset":512,"chunk_bytes":0}}}]}"#,
            br#"{"datasets":[{"name":"d","shape":[4294967296,4294967296],"dtype_size":2,"layout":{"Contiguous":{"offset":512}}}]}"#,
            br#"{"datasets":[{"name":"d","shape":[4],"dtype_size":4294967296,"layout":{"Contiguous":{"offset":512}}}]}"#,
            br#"{"datasets":{}}"#,
            br#"{"datasets":[{"shape":[4],"dtype_size":2,"layout":{"Contiguous":{"offset":512}}}]}"#,
        ];
        let r = RankId(0);
        let mut w = world();
        stage_with_header(&mut w, "/p/gpfs1/ok.h5", ok.as_bytes());
        let (res, _) = open(
            &mut w,
            r,
            "/p/gpfs1/ok.h5",
            H5Options::default(),
            SimTime::ZERO,
        );
        assert!(res.is_ok(), "the well-formed control header opens");
        for (i, header) in bad.iter().enumerate() {
            let path = format!("/p/gpfs1/bad{i}.h5");
            stage_with_header(&mut w, &path, header);
            let (res, _) = open(&mut w, r, &path, H5Options::default(), SimTime::ZERO);
            assert_eq!(
                res.err(),
                Some(IoErr::Invalid),
                "{}",
                String::from_utf8_lossy(header)
            );
        }
    }
}
