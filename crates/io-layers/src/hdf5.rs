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
use storage_sim::IoErr;
use vani_rt::{FromJson, Json, JsonError, ToJson};

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

#[derive(Debug)]
struct Header {
    datasets: Vec<DatasetInfo>,
}

// The on-disk header format uses externally-tagged enums
// (`{"Chunked": {"offset": N, "chunk_bytes": M}}`) so existing H5SIM files
// keep parsing.
impl ToJson for DsLayout {
    fn to_json(&self) -> Json {
        match self {
            DsLayout::Contiguous { offset } => {
                Json::obj([("Contiguous", Json::obj([("offset", offset.to_json())]))])
            }
            DsLayout::Chunked {
                offset,
                chunk_bytes,
            } => Json::obj([(
                "Chunked",
                Json::obj([
                    ("offset", offset.to_json()),
                    ("chunk_bytes", chunk_bytes.to_json()),
                ]),
            )]),
        }
    }
}

impl FromJson for DsLayout {
    fn from_json(j: &Json) -> Result<Self, JsonError> {
        if let Some(body) = j.get("Contiguous") {
            Ok(DsLayout::Contiguous {
                offset: body.decode_field("offset")?,
            })
        } else if let Some(body) = j.get("Chunked") {
            Ok(DsLayout::Chunked {
                offset: body.decode_field("offset")?,
                chunk_bytes: body.decode_field("chunk_bytes")?,
            })
        } else {
            Err(JsonError::shape("unknown DsLayout variant"))
        }
    }
}

impl ToJson for DatasetInfo {
    fn to_json(&self) -> Json {
        Json::obj([
            ("name", self.name.to_json()),
            ("shape", self.shape.to_json()),
            ("dtype_size", self.dtype_size.to_json()),
            ("layout", self.layout.to_json()),
        ])
    }
}

impl FromJson for DatasetInfo {
    fn from_json(j: &Json) -> Result<Self, JsonError> {
        Ok(DatasetInfo {
            name: j.decode_field("name")?,
            shape: j.decode_field("shape")?,
            dtype_size: j.decode_field("dtype_size")?,
            layout: j.decode_field("layout")?,
        })
    }
}

impl ToJson for Header {
    fn to_json(&self) -> Json {
        Json::obj([("datasets", self.datasets.to_json())])
    }
}

impl FromJson for Header {
    fn from_json(j: &Json) -> Result<Self, JsonError> {
        Ok(Header {
            datasets: j.decode_field("datasets")?,
        })
    }
}

/// Materialize a complete H5SIM file directly into a file store, without
/// simulating the producer. Used to stage input datasets (the paper's
/// CosmoFlow corpus pre-exists the job). Dataset bodies are synthetic
/// pattern segments, so a 32 MiB file costs a few hundred bytes of memory.
pub fn materialize(
    store: &mut storage_sim::file::FileStore,
    path: &str,
    specs: &[(&str, &[u64], u32, Option<u64>)],
    seed: u64,
) -> Result<(), IoErr> {
    use storage_sim::file::Segment;
    let key = store.create(path, false)?;
    let mut eof = SUPERBLOCK;
    let mut datasets = Vec::new();
    for (name, shape, dtype_size, chunk_bytes) in specs {
        let nbytes = shape.iter().product::<u64>() * *dtype_size as u64;
        store.write(
            key,
            eof,
            Segment::Pattern {
                seed: seed ^ eof,
                len: nbytes.max(1),
            },
        )?;
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
        eof += nbytes;
    }
    let json = vani_rt::json::to_vec(&Header { datasets });
    let hlen = json.len() as u64;
    store.write(key, eof, Segment::Bytes(std::sync::Arc::new(json)))?;
    let mut sb = vec![0u8; SUPERBLOCK as usize];
    sb[..8].copy_from_slice(MAGIC);
    sb[8..16].copy_from_slice(&eof.to_le_bytes());
    sb[16..24].copy_from_slice(&hlen.to_le_bytes());
    store.write(key, 0, Segment::Bytes(std::sync::Arc::new(sb)))?;
    Ok(())
}

/// A chunk-cache entry key.
type ChunkIdx = u64;

/// Reader handle for an H5SIM file.
pub struct H5File {
    fd: Fd,
    opts: H5Options,
    datasets: Vec<DatasetInfo>,
    header_offset: u64,
    cache: HashMap<(usize, ChunkIdx), u64>,
    cache_bytes: u64,
    cache_order: Vec<(usize, ChunkIdx)>,
}

/// Open an existing file: superblock read, header read, JSON parse. Every
/// one of those is a real small read in the trace.
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
    // Superblock.
    let node = w.node_of(rank);
    let (handle, path_id) = {
        let of = w.fd(rank, fd).expect("just opened");
        (of.handle, of.path_id)
    };
    let (res, t_sb) =
        crate::resilience::with_retries(w, rank, Some(path_id), 0, SUPERBLOCK, t, |w, t| {
            w.storage.read_view(node, handle, 0, SUPERBLOCK, t)
        });
    let (sb, t) = match res {
        Ok(sb) => (sb.to_vec(), t_sb),
        Err(e) => return (Err(e), t_sb),
    };
    let t = w.trace_io(
        rank,
        Layer::Posix,
        OpKind::Read,
        t0,
        t,
        Some(path_id),
        0,
        sb.len() as u64,
    );
    if sb.len() < 24 || &sb[..8] != MAGIC {
        return (Err(IoErr::Invalid), t);
    }
    let header_offset = u64::from_le_bytes(sb[8..16].try_into().expect("8 bytes"));
    let header_len = u64::from_le_bytes(sb[16..24].try_into().expect("8 bytes"));
    if header_offset == 0 {
        return (Err(IoErr::Invalid), t); // file never closed properly
    }
    // Object header.
    let (res, t_hdr) = crate::resilience::with_retries(
        w,
        rank,
        Some(path_id),
        header_offset,
        header_len,
        t,
        |w, t| {
            w.storage
                .read_view(node, handle, header_offset, header_len, t)
        },
    );
    let (hjson, t2) = match res {
        Ok(h) => (h.to_vec(), t_hdr),
        Err(e) => return (Err(e), t_hdr),
    };
    let t = w.trace_io(
        rank,
        Layer::Posix,
        OpKind::Read,
        t,
        t2,
        Some(path_id),
        header_offset,
        hjson.len() as u64,
    );
    let header: Header = match vani_rt::json::from_slice(&hjson) {
        Ok(h) => h,
        Err(_) => return (Err(IoErr::Invalid), t),
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
            datasets: header.datasets,
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
    use sim_core::Dur;

    fn world() -> IoWorld {
        IoWorld::lassen(1, 2, Dur::from_secs(3600), 4)
    }

    fn make_file(w: &mut IoWorld, path: &str, chunk: Option<u64>) -> SimTime {
        let store = w.storage.pfs_mut().store_mut();
        materialize(store, path, &[("full", &[512, 512, 4], 2, chunk)], 7).unwrap();
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
}
