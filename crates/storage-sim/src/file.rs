//! Inodes, sparse content, and the flat namespace.
//!
//! File content is a sparse map of windows over immutable [`Segment`]s. A
//! segment is either byte-backed (real data, used by format layers that
//! must round-trip headers) or pattern-backed (a deterministic synthetic
//! fill used for the multi-gigabyte checkpoint bodies the workloads move,
//! which would be wasteful to materialize). A segment is never modified
//! after it is written: an overwrite that lands inside one only narrows
//! the windows that keep its surviving head and tail, so a split costs two
//! `Arc` or pattern clones and every surviving byte keeps its value.
//!
//! Reads hand out a [`ContentView`]: the windows overlapping the range,
//! clipped to end of file. The view is the only place bytes are copied,
//! and only when a caller asks for them ([`ContentView::copy_to`],
//! [`ContentView::to_vec`]); timing-only reads never touch content.

use crate::err::IoErr;
use crate::path as vpath;
use std::collections::BTreeMap;
use std::collections::HashMap;
use std::sync::Arc;

/// Stable identifier of a file within one [`FileStore`] (an inode number).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct FileKey(pub u64);

/// The source of one contiguous run of file content.
#[derive(Debug, Clone)]
pub enum Segment {
    /// Real bytes.
    Bytes(Arc<Vec<u8>>),
    /// A deterministic synthetic fill of `len` bytes derived from `seed`.
    Pattern {
        /// Seed for the fill function.
        seed: u64,
        /// Length in bytes.
        len: u64,
    },
}

impl Segment {
    /// Length of the segment in bytes.
    pub fn len(&self) -> u64 {
        match self {
            Segment::Bytes(b) => b.len() as u64,
            Segment::Pattern { len, .. } => *len,
        }
    }
}

/// The deterministic synthetic fill: mixes seed and offset so different
/// files and offsets produce different bytes, reproducibly.
pub fn pattern_byte(seed: u64, off: u64) -> u8 {
    let x = (seed ^ off).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    (x >> 56) as u8
}

/// Bytes `[skip, skip + len)` of one immutable segment.
#[derive(Debug, Clone)]
struct Window {
    seg: Segment,
    skip: u64,
    len: u64,
}

impl Window {
    fn whole(seg: Segment) -> Window {
        let len = seg.len();
        Window { seg, skip: 0, len }
    }

    /// The sub-window `[from, to)`, relative to this window's first byte.
    fn sub(&self, from: u64, to: u64) -> Window {
        debug_assert!(from <= to && to <= self.len);
        Window {
            seg: self.seg.clone(),
            skip: self.skip + from,
            len: to - from,
        }
    }

    /// Copy `dst.len()` bytes starting `from` bytes into the window.
    fn copy_to(&self, from: u64, dst: &mut [u8]) {
        let at = self.skip + from;
        match &self.seg {
            Segment::Bytes(b) => dst.copy_from_slice(&b[at as usize..at as usize + dst.len()]),
            Segment::Pattern { seed, .. } => {
                for (d, off) in dst.iter_mut().zip(at..) {
                    *d = pattern_byte(*seed, off);
                }
            }
        }
    }
}

/// A zero-copy view of a byte range of one file, taken at one instant.
///
/// Holds the windows that overlapped the range (shared with the file, not
/// copied); gaps between them are holes and read as zeros. Segments are
/// immutable, so a view keeps returning the bytes it was taken over even
/// after the file is overwritten, truncated or unlinked.
#[derive(Debug, Clone, Default)]
pub struct ContentView {
    /// Windows in ascending order, each with its offset within the view.
    parts: Vec<(u64, Window)>,
    len: u64,
}

impl ContentView {
    /// Length of the view in bytes.
    pub fn len(&self) -> u64 {
        self.len
    }

    /// Whether the view is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Copy view bytes `[from, from + dst.len())` into `dst`. Holes read
    /// as zeros.
    ///
    /// # Panics
    /// If the range runs past the end of the view.
    pub fn copy_to(&self, from: u64, dst: &mut [u8]) {
        let end = from + dst.len() as u64;
        assert!(end <= self.len, "copy past the end of a content view");
        // `filled` is the next view offset not yet written to `dst`.
        let mut filled = from;
        let first = self.parts.partition_point(|(o, w)| o + w.len <= from);
        for (w_off, w) in &self.parts[first..] {
            if *w_off >= end {
                break;
            }
            let lo = (*w_off).max(from);
            let hi = (w_off + w.len).min(end);
            dst[(filled - from) as usize..(lo - from) as usize].fill(0);
            w.copy_to(
                lo - w_off,
                &mut dst[(lo - from) as usize..(hi - from) as usize],
            );
            filled = hi;
        }
        dst[(filled - from) as usize..].fill(0);
    }

    /// Every byte of the view.
    pub fn to_vec(&self) -> Vec<u8> {
        let mut out = vec![0u8; self.len as usize];
        self.copy_to(0, &mut out);
        out
    }
}

/// A file's content: non-overlapping windows keyed by start offset, plus a
/// logical size (which may exceed the last window — sparse tail reads as
/// zeros, like POSIX).
#[derive(Debug, Clone, Default)]
pub struct SegmentMap {
    segs: BTreeMap<u64, Window>,
    size: u64,
}

impl SegmentMap {
    /// Logical file size.
    pub fn size(&self) -> u64 {
        self.size
    }

    /// Write a segment at `offset`, narrowing whatever windows overlap it.
    pub(crate) fn write(&mut self, offset: u64, seg: Segment) {
        let len = seg.len();
        if len == 0 {
            return;
        }
        let end = offset + len;
        // Split a window that starts before `offset` and overlaps it.
        if let Some((&w_off, w)) = self.segs.range(..offset).next_back() {
            let w_end = w_off + w.len;
            if w_end > offset {
                let head = w.sub(0, offset - w_off);
                let tail = (w_end > end).then(|| w.sub(end - w_off, w.len));
                self.segs.insert(w_off, head);
                if let Some(t) = tail {
                    self.segs.insert(end, t);
                }
            }
        }
        // Remove or trim windows starting inside [offset, end).
        while let Some((&o, _)) = self.segs.range(offset..end).next() {
            let w = self.segs.remove(&o).expect("key just found");
            if o + w.len > end {
                self.segs.insert(end, w.sub(end - o, w.len));
            }
        }
        self.segs.insert(offset, Window::whole(seg));
        self.size = self.size.max(end);
    }

    /// A zero-copy view of `len` bytes at `offset`, clipped to end of file.
    pub(crate) fn view(&self, offset: u64, len: u64) -> ContentView {
        let end = offset.saturating_add(len).min(self.size);
        if end <= offset {
            return ContentView::default();
        }
        let first = self
            .segs
            .range(..=offset)
            .next_back()
            .map_or(offset, |(&o, _)| o);
        let parts = self
            .segs
            .range(first..end)
            .filter(|(&w_off, w)| w_off + w.len > offset)
            .map(|(&w_off, w)| {
                let lo = w_off.max(offset);
                let hi = (w_off + w.len).min(end);
                (lo - offset, w.sub(lo - w_off, hi - w_off))
            })
            .collect();
        ContentView {
            parts,
            len: end - offset,
        }
    }

    /// How many bytes of `[offset, offset+len)` lie within the file —
    /// the timing-only read used for bulk synthetic data.
    pub(crate) fn readable_len(&self, offset: u64, len: u64) -> u64 {
        let end = (offset + len).min(self.size);
        end.saturating_sub(offset)
    }

    /// Truncate to `new_size`.
    pub(crate) fn truncate(&mut self, new_size: u64) {
        self.segs.split_off(&new_size);
        if let Some((&w_off, w)) = self.segs.range(..new_size).next_back() {
            if w_off + w.len > new_size {
                let head = w.sub(0, new_size - w_off);
                self.segs.insert(w_off, head);
            }
        }
        self.size = new_size;
    }
}

/// Metadata and content of one file.
#[derive(Debug, Clone)]
pub(crate) struct FileNode {
    /// Content map.
    pub data: SegmentMap,
    /// Whether this node is a directory.
    pub is_dir: bool,
}

/// A flat namespace of files and directories, the common core of every tier.
///
/// Parent directories are created implicitly (the job scripts in the paper
/// all `mkdir -p` their output trees before running).
#[derive(Debug, Default, Clone)]
pub struct FileStore {
    nodes: Vec<Option<FileNode>>,
    by_path: HashMap<String, FileKey>,
    bytes_stored: u64,
    capacity: Option<u64>,
}

impl FileStore {
    /// New store with a byte capacity (exceeding it yields `NoSpace`).
    pub(crate) fn with_capacity(capacity: u64) -> Self {
        FileStore {
            capacity: Some(capacity),
            ..Default::default()
        }
    }

    /// Change the capacity after construction. Shrinking below the bytes
    /// already stored is rejected with `NoSpace` (the store never discards
    /// data to satisfy a reconfiguration).
    pub(crate) fn set_capacity(&mut self, capacity: Option<u64>) -> Result<(), IoErr> {
        if let Some(c) = capacity {
            if self.bytes_stored > c {
                return Err(IoErr::NoSpace);
            }
        }
        self.capacity = capacity;
        Ok(())
    }

    /// Look up a path.
    pub fn lookup(&self, path: &str) -> Option<FileKey> {
        let p = vpath::normalize(path).ok()?;
        self.by_path.get(&p).copied()
    }

    /// Create a file (or return the existing one when `exclusive` is false).
    pub fn create(&mut self, path: &str, exclusive: bool) -> Result<FileKey, IoErr> {
        let p = vpath::normalize(path)?;
        if let Some(&k) = self.by_path.get(&p) {
            let node = self.get(k)?;
            if node.is_dir {
                return Err(IoErr::IsDir);
            }
            if exclusive {
                return Err(IoErr::AlreadyExists);
            }
            return Ok(k);
        }
        self.mkdirs(vpath::parent(&p))?;
        let key = FileKey(self.nodes.len() as u64);
        self.nodes.push(Some(FileNode {
            data: SegmentMap::default(),
            is_dir: false,
        }));
        self.by_path.insert(p, key);
        Ok(key)
    }

    /// Create a directory chain.
    pub fn mkdirs(&mut self, path: &str) -> Result<(), IoErr> {
        let p = vpath::normalize(path)?;
        if p == "/" {
            return Ok(());
        }
        // Create ancestors first.
        self.mkdirs(vpath::parent(&p))?;
        match self.by_path.get(&p) {
            Some(&k) => {
                if !self.get(k)?.is_dir {
                    return Err(IoErr::NotDir);
                }
            }
            None => {
                let key = FileKey(self.nodes.len() as u64);
                self.nodes.push(Some(FileNode {
                    data: SegmentMap::default(),
                    is_dir: true,
                }));
                self.by_path.insert(p, key);
            }
        }
        Ok(())
    }

    /// Access a node.
    pub(crate) fn get(&self, key: FileKey) -> Result<&FileNode, IoErr> {
        self.nodes
            .get(key.0 as usize)
            .and_then(|n| n.as_ref())
            .ok_or(IoErr::NotFound)
    }

    fn get_mut(&mut self, key: FileKey) -> Result<&mut FileNode, IoErr> {
        self.nodes
            .get_mut(key.0 as usize)
            .and_then(|n| n.as_mut())
            .ok_or(IoErr::NotFound)
    }

    /// File size.
    pub fn size_of(&self, key: FileKey) -> Result<u64, IoErr> {
        Ok(self.get(key)?.data.size())
    }

    /// Write a segment; enforces capacity on growth.
    pub fn write(&mut self, key: FileKey, offset: u64, seg: Segment) -> Result<u64, IoErr> {
        let cap = self.capacity;
        let stored = self.bytes_stored;
        let node = self.get_mut(key)?;
        if node.is_dir {
            return Err(IoErr::IsDir);
        }
        let old = node.data.size();
        let new_end = offset + seg.len();
        let growth = new_end.saturating_sub(old);
        if let Some(c) = cap {
            if stored + growth > c {
                return Err(IoErr::NoSpace);
            }
        }
        let n = seg.len();
        node.data.write(offset, seg);
        self.bytes_stored += growth;
        Ok(n)
    }

    /// Zero-copy read: a view of the range, clipped to end of file.
    pub(crate) fn view(&self, key: FileKey, offset: u64, len: u64) -> Result<ContentView, IoErr> {
        let node = self.get(key)?;
        if node.is_dir {
            return Err(IoErr::IsDir);
        }
        Ok(node.data.view(offset, len))
    }

    /// Materializing read.
    pub fn read(&self, key: FileKey, offset: u64, len: u64) -> Result<Vec<u8>, IoErr> {
        Ok(self.view(key, offset, len)?.to_vec())
    }

    /// Timing-only read: bytes available in the range.
    pub(crate) fn readable_len(&self, key: FileKey, offset: u64, len: u64) -> Result<u64, IoErr> {
        let node = self.get(key)?;
        if node.is_dir {
            return Err(IoErr::IsDir);
        }
        Ok(node.data.readable_len(offset, len))
    }

    /// Truncate a file.
    pub fn truncate(&mut self, key: FileKey, new_size: u64) -> Result<(), IoErr> {
        let node = self.get_mut(key)?;
        if node.is_dir {
            return Err(IoErr::IsDir);
        }
        let old = node.data.size();
        node.data.truncate(new_size);
        self.bytes_stored = self.bytes_stored + new_size.saturating_sub(old)
            - old.saturating_sub(new_size).min(self.bytes_stored);
        Ok(())
    }

    /// Remove a file.
    pub(crate) fn unlink(&mut self, path: &str) -> Result<(), IoErr> {
        let p = vpath::normalize(path)?;
        let key = *self.by_path.get(&p).ok_or(IoErr::NotFound)?;
        let node = self.get(key)?;
        if node.is_dir {
            return Err(IoErr::IsDir);
        }
        self.bytes_stored -= node.data.size().min(self.bytes_stored);
        self.by_path.remove(&p);
        self.nodes[key.0 as usize] = None;
        Ok(())
    }

    /// Snapshot a file's content map (cheap: segments are `Arc`-backed).
    pub fn snapshot(&self, key: FileKey) -> Result<SegmentMap, IoErr> {
        Ok(self.get(key)?.data.clone())
    }

    /// Create (or replace) a file with a pre-built content map. Used by
    /// preload passes that copy datasets between tiers without
    /// materializing bytes.
    pub fn insert_snapshot(&mut self, path: &str, data: SegmentMap) -> Result<FileKey, IoErr> {
        let key = self.create(path, false)?;
        let old = self.get(key)?.data.size();
        let new = data.size();
        if let Some(c) = self.capacity {
            if self.bytes_stored - old.min(self.bytes_stored) + new > c {
                return Err(IoErr::NoSpace);
            }
        }
        self.bytes_stored = self.bytes_stored - old.min(self.bytes_stored) + new;
        self.get_mut(key)?.data = data;
        Ok(key)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn create_write_read_round_trip() {
        let mut fs = FileStore::default();
        let k = fs.create("/p/gpfs1/data.bin", false).unwrap();
        fs.write(k, 0, Segment::Bytes(Arc::new(b"hello world".to_vec())))
            .unwrap();
        assert_eq!(fs.read(k, 0, 5).unwrap(), b"hello");
        assert_eq!(fs.read(k, 6, 100).unwrap(), b"world");
        assert_eq!(fs.size_of(k).unwrap(), 11);
    }

    #[test]
    fn overwrite_splits_segments() {
        let mut fs = FileStore::default();
        let k = fs.create("/f", false).unwrap();
        fs.write(k, 0, Segment::Bytes(Arc::new(vec![b'a'; 10])))
            .unwrap();
        fs.write(k, 3, Segment::Bytes(Arc::new(vec![b'b'; 4])))
            .unwrap();
        assert_eq!(fs.read(k, 0, 10).unwrap(), b"aaabbbbaaa");
    }

    #[test]
    fn sparse_holes_read_as_zeros() {
        let mut fs = FileStore::default();
        let k = fs.create("/f", false).unwrap();
        fs.write(k, 8, Segment::Bytes(Arc::new(vec![1, 2])))
            .unwrap();
        let data = fs.read(k, 0, 10).unwrap();
        assert_eq!(&data[..8], &[0u8; 8]);
        assert_eq!(&data[8..], &[1, 2]);
    }

    #[test]
    fn pattern_segments_are_deterministic() {
        let mut fs = FileStore::default();
        let k = fs.create("/big", false).unwrap();
        fs.write(
            k,
            0,
            Segment::Pattern {
                seed: 42,
                len: 1 << 20,
            },
        )
        .unwrap();
        let a = fs.read(k, 1000, 64).unwrap();
        let b = fs.read(k, 1000, 64).unwrap();
        assert_eq!(a, b);
        assert_eq!(fs.readable_len(k, 0, 2 << 20).unwrap(), 1 << 20);
        // Not all zero — the pattern has content.
        assert!(a.iter().any(|&x| x != 0));
    }

    #[test]
    fn exclusive_create_fails_on_existing() {
        let mut fs = FileStore::default();
        fs.create("/x", false).unwrap();
        assert_eq!(fs.create("/x", true), Err(IoErr::AlreadyExists));
        assert!(fs.create("/x", false).is_ok());
    }

    #[test]
    fn capacity_enforced() {
        let mut fs = FileStore::with_capacity(100);
        let k = fs.create("/f", false).unwrap();
        fs.write(k, 0, Segment::Pattern { seed: 1, len: 80 })
            .unwrap();
        assert_eq!(
            fs.write(k, 80, Segment::Pattern { seed: 1, len: 40 }),
            Err(IoErr::NoSpace)
        );
        // Overwrite within the file is fine — no growth.
        assert!(fs
            .write(k, 0, Segment::Pattern { seed: 2, len: 80 })
            .is_ok());
    }

    #[test]
    fn unlink_frees_space() {
        let mut fs = FileStore::with_capacity(100);
        let k = fs.create("/f", false).unwrap();
        fs.write(k, 0, Segment::Pattern { seed: 1, len: 100 })
            .unwrap();
        fs.unlink("/f").unwrap();
        assert_eq!(fs.bytes_stored, 0);
        assert_eq!(fs.lookup("/f"), None);
        let k2 = fs.create("/g", false).unwrap();
        assert!(fs
            .write(k2, 0, Segment::Pattern { seed: 1, len: 100 })
            .is_ok());
    }

    #[test]
    fn file_over_directory_conflicts() {
        let mut fs = FileStore::default();
        fs.create("/a/b/c", false).unwrap();
        // "/a/b" is a directory; creating a file there must fail.
        assert_eq!(fs.create("/a/b", false), Err(IoErr::IsDir));
        // And a directory over the file "/a/b/c" must fail.
        assert_eq!(fs.mkdirs("/a/b/c"), Err(IoErr::NotDir));
    }

    #[test]
    fn truncate_shrinks_and_zero_extends() {
        let mut fs = FileStore::default();
        let k = fs.create("/f", false).unwrap();
        fs.write(k, 0, Segment::Bytes(Arc::new(b"abcdefgh".to_vec())))
            .unwrap();
        fs.truncate(k, 3).unwrap();
        assert_eq!(fs.size_of(k).unwrap(), 3);
        assert_eq!(fs.read(k, 0, 10).unwrap(), b"abc");
        fs.truncate(k, 6).unwrap();
        assert_eq!(fs.read(k, 0, 10).unwrap(), &[b'a', b'b', b'c', 0, 0, 0]);
    }

    // Deterministic randomized sweeps (seeded `vani_rt::Rng`) — converted
    // from the original proptest suites.

    /// The bytes a segment holds, for the model tests.
    fn segment_bytes(seg: &Segment) -> Vec<u8> {
        match seg {
            Segment::Bytes(b) => b.to_vec(),
            Segment::Pattern { seed, len } => (0..*len).map(|i| pattern_byte(*seed, i)).collect(),
        }
    }

    /// Random overlapping byte and pattern writes, with holes: the whole
    /// file, and `read` and `view().to_vec()` at random ranges (including
    /// ranges that cross holes and end of file), agree with a `Vec<u8>`
    /// model.
    #[test]
    fn randomized_segment_map_matches_vec_model() {
        let mut r = vani_rt::Rng::new(0xf11e_0001);
        for _ in 0..64 {
            let mut sm = SegmentMap::default();
            let mut model: Vec<u8> = Vec::new();
            for _ in 0..r.uniform_u64(1, 24) {
                let off = r.uniform_u64(0, 512);
                let len = r.uniform_u64(1, 96);
                let seg = if r.uniform_u64(0, 2) == 0 {
                    Segment::Bytes(Arc::new(
                        (0..len).map(|_| r.uniform_u64(0, 256) as u8).collect(),
                    ))
                } else {
                    Segment::Pattern {
                        seed: r.uniform_u64(0, 1 << 40),
                        len,
                    }
                };
                let end = (off + len) as usize;
                if model.len() < end {
                    model.resize(end, 0);
                }
                model[off as usize..end].copy_from_slice(&segment_bytes(&seg));
                sm.write(off, seg);
            }
            assert_eq!(sm.size(), model.len() as u64);
            assert_eq!(sm.view(0, model.len() as u64 + 32).to_vec(), model);
            for _ in 0..32 {
                let off = r.uniform_u64(0, model.len() as u64 + 16);
                let len = r.uniform_u64(0, 200);
                let lo = (off as usize).min(model.len());
                let hi = ((off + len) as usize).min(model.len());
                let want = &model[lo..hi];
                let view = sm.view(off, len);
                assert_eq!(view.len(), want.len() as u64);
                assert_eq!(view.to_vec(), want, "view({off}, {len})");
                assert_eq!(sm.view(off, len).to_vec(), want, "read({off}, {len})");
                // A partial copy out of the middle of the view.
                if view.len() > 2 {
                    let mut mid = vec![0xAAu8; view.len() as usize - 2];
                    view.copy_to(1, &mut mid);
                    assert_eq!(mid, want[1..want.len() - 1]);
                }
            }
        }
    }

    /// readable_len never exceeds the requested length or the file size.
    #[test]
    fn randomized_readable_len_bounds() {
        let mut r = vani_rt::Rng::new(0xf11e_0002);
        for _ in 0..256 {
            let off = r.uniform_u64(0, 10_000);
            let len = r.uniform_u64(0, 10_000);
            let size = r.uniform_u64(0, 10_000);
            let mut sm = SegmentMap::default();
            if size > 0 {
                sm.write(0, Segment::Pattern { seed: 3, len: size });
            }
            let rl = sm.readable_len(off, len);
            assert!(rl <= len);
            assert!(off + rl <= size.max(off));
        }
    }

    /// Overwriting the middle of a segment leaves its head and tail bytes
    /// exactly as they were, for byte- and pattern-backed content.
    #[test]
    fn split_overwrite_keeps_head_and_tail_bytes() {
        for seg in [
            Segment::Bytes(Arc::new((0..100u8).collect())),
            Segment::Pattern { seed: 7, len: 100 },
        ] {
            let mut fs = FileStore::default();
            let k = fs.create("/split", false).unwrap();
            fs.write(k, 0, seg).unwrap();
            let before = fs.read(k, 0, 100).unwrap();
            fs.write(k, 10, Segment::Bytes(Arc::new(vec![0xEE; 10])))
                .unwrap();
            let after = fs.read(k, 0, 100).unwrap();
            assert_eq!(after[..10], before[..10], "head");
            assert_eq!(after[10..20], [0xEE; 10]);
            assert_eq!(after[20..], before[20..], "tail");
        }
    }

    /// A view is a snapshot: overwriting or truncating the file after the
    /// view was taken does not change the bytes it returns.
    #[test]
    fn views_keep_their_bytes_after_the_file_changes() {
        let mut fs = FileStore::default();
        let k = fs.create("/snap", false).unwrap();
        fs.write(k, 0, Segment::Pattern { seed: 3, len: 64 })
            .unwrap();
        let view = fs.view(k, 8, 32).unwrap();
        let before = view.to_vec();
        fs.write(k, 0, Segment::Bytes(Arc::new(vec![1; 64])))
            .unwrap();
        fs.truncate(k, 4).unwrap();
        assert_eq!(view.to_vec(), before);
    }
}
