//! Buffered C stdio over POSIX.
//!
//! `fwrite`/`fread` coalesce small application calls into buffer-sized POSIX
//! operations — this is why Montage's millions of sub-4 KiB record accesses
//! do not turn into millions of syscalls, and why its STDIO-level transfer
//! sizes differ from the POSIX-level ones in the multi-level trace.
//!
//! Buffer hits cost a memcpy; misses flush/fill through [`crate::posix`],
//! whose records appear beneath the `Stdio` records in the trace. The read
//! buffer is a zero-copy [`ContentView`] of the file, so only the bytes a
//! materializing `fread_data` takes are ever copied.

use crate::posix::{self, Fd, OpenFlags, Whence};
use crate::world::IoWorld;
use hpc_cluster::topology::RankId;
use recorder_sim::record::{Layer, OpKind};
use sim_core::units::GIB;
use sim_core::{Dur, SimTime};
use storage_sim::file::{pattern_byte, ContentView};
use storage_sim::IoErr;

/// Default stream buffer size (glibc's `BUFSIZ`).
pub(crate) const BUFSIZ: u64 = 8192;

/// Cost of moving `bytes` through the user-space buffer.
fn memcpy_cost(bytes: u64) -> Dur {
    Dur::from_nanos(100) + Dur::for_transfer(bytes, 8 * GIB)
}

/// A buffered stream handle (`FILE*`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FileStream(pub u32);

/// Internal stream state, stored per process.
#[derive(Debug)]
pub(crate) struct Stream {
    fd: Fd,
    path_id: recorder_sim::record::FileId,
    bufsize: u64,
    /// Logical stream position.
    pos: u64,
    /// Pending write buffer: file offset of its first byte + contents.
    wbuf_start: u64,
    wbuf: Vec<u8>,
    /// Read cache: file offset of its first byte + the view of the file
    /// taken at refill. Segments are immutable, so the view keeps the
    /// bytes of refill time even if another rank overwrites the file,
    /// exactly like a copied buffer; writes and seeks on this stream drop
    /// it.
    rbuf_start: u64,
    rbuf: ContentView,
}

/// Per-process stream tables live in the world, keyed by rank.
#[derive(Debug, Default)]
pub struct StreamTable {
    streams: Vec<Option<Stream>>,
}

impl StreamTable {
    fn alloc(&mut self, s: Stream) -> FileStream {
        if let Some(i) = self.streams.iter().position(Option::is_none) {
            self.streams[i] = Some(s);
            FileStream(i as u32)
        } else {
            self.streams.push(Some(s));
            FileStream(self.streams.len() as u32 - 1)
        }
    }

    fn get(&mut self, h: FileStream) -> Result<&mut Stream, IoErr> {
        self.streams
            .get_mut(h.0 as usize)
            .and_then(Option::as_mut)
            .ok_or(IoErr::BadFd)
    }

    fn take(&mut self, h: FileStream) -> Result<Stream, IoErr> {
        self.streams
            .get_mut(h.0 as usize)
            .and_then(Option::take)
            .ok_or(IoErr::BadFd)
    }
}

fn tables(w: &mut IoWorld) -> &mut Vec<StreamTable> {
    &mut w.stdio_streams
}

/// Open a stream. Modes: `"r"`, `"w"`, `"a"`, `"r+"`, `"w+"`.
pub fn fopen(
    w: &mut IoWorld,
    rank: RankId,
    path: &str,
    mode: &str,
    now: SimTime,
) -> (Result<FileStream, IoErr>, SimTime) {
    fopen_buffered(w, rank, path, mode, BUFSIZ, now)
}

/// Open a stream with an explicit buffer size (`setvbuf`).
pub fn fopen_buffered(
    w: &mut IoWorld,
    rank: RankId,
    path: &str,
    mode: &str,
    bufsize: u64,
    now: SimTime,
) -> (Result<FileStream, IoErr>, SimTime) {
    let flags = match mode {
        "r" => OpenFlags::read_only(),
        "r+" => OpenFlags::read_write(),
        "w" | "w+" => OpenFlags::write_create(),
        "a" | "a+" => OpenFlags::append(),
        _ => return (Err(IoErr::Invalid), now),
    };
    let t0 = now;
    let (fd, t) = posix::open(w, rank, path, flags, now);
    let fd = match fd {
        Ok(f) => f,
        Err(e) => {
            let end = w.trace_io(rank, Layer::Stdio, OpKind::Open, t0, t, None, 0, 0);
            return (Err(e), end);
        }
    };
    let path_id = w.tracer.file_id(path);
    let stream = Stream {
        fd,
        path_id,
        bufsize: bufsize.max(1),
        pos: 0,
        wbuf_start: 0,
        wbuf: Vec::new(),
        rbuf_start: 0,
        rbuf: ContentView::default(),
    };
    let h = tables(w)[rank.0 as usize].alloc(stream);
    let op = if matches!(mode, "w" | "w+" | "a" | "a+") {
        OpKind::Create
    } else {
        OpKind::Open
    };
    let end = w.trace_io(rank, Layer::Stdio, op, t0, t, Some(path_id), 0, 0);
    (Ok(h), end)
}

/// Flush the write buffer through POSIX; returns completion time.
fn flush_wbuf(
    w: &mut IoWorld,
    rank: RankId,
    h: FileStream,
    now: SimTime,
) -> Result<SimTime, IoErr> {
    let (fd, start, buf) = {
        let s = tables(w)[rank.0 as usize].get(h)?;
        if s.wbuf.is_empty() {
            return Ok(now);
        }
        let buf = std::mem::take(&mut s.wbuf);
        (s.fd, s.wbuf_start, buf)
    };
    let (res, t) = posix::write_at(w, rank, fd, start, &buf, now);
    res?;
    Ok(t)
}

/// Write bytes through the stream buffer.
pub fn fwrite(
    w: &mut IoWorld,
    rank: RankId,
    h: FileStream,
    data: &[u8],
    now: SimTime,
) -> (Result<u64, IoErr>, SimTime) {
    fwrite_inner(w, rank, h, data, now)
}

/// Write a synthetic pattern through the stream buffer. Patterns small
/// enough to buffer are materialized (the buffer is at most `bufsize`);
/// larger ones bypass the buffer as a direct POSIX pattern write.
pub fn fwrite_pattern(
    w: &mut IoWorld,
    rank: RankId,
    h: FileStream,
    len: u64,
    seed: u64,
    now: SimTime,
) -> (Result<u64, IoErr>, SimTime) {
    let bufsize = match tables(w)[rank.0 as usize].get(h) {
        Ok(s) => s.bufsize,
        Err(e) => return (Err(e), now),
    };
    if len <= bufsize {
        let data: Vec<u8> = (0..len).map(|i| pattern_byte(seed, i)).collect();
        return fwrite_inner(w, rank, h, &data, now);
    }
    // Large write: flush pending buffer, then write directly.
    let t0 = now;
    let (fd, pos, path_id) = match tables(w)[rank.0 as usize].get(h) {
        Ok(s) => (s.fd, s.pos, s.path_id),
        Err(e) => return (Err(e), now),
    };
    let t = match flush_wbuf(w, rank, h, now) {
        Ok(t) => t,
        Err(e) => return (Err(e), now),
    };
    let (res, t2) = posix::write_pattern_at(w, rank, fd, pos, len, seed, t);
    match res {
        Ok(n) => {
            let s = tables(w)[rank.0 as usize].get(h).expect("stream exists");
            s.pos += n;
            s.rbuf = ContentView::default();
            let end = w.trace_io(
                rank,
                Layer::Stdio,
                OpKind::Write,
                t0,
                t2,
                Some(path_id),
                pos,
                n,
            );
            (Ok(n), end)
        }
        Err(e) => (Err(e), t2),
    }
}

fn fwrite_inner(
    w: &mut IoWorld,
    rank: RankId,
    h: FileStream,
    data: &[u8],
    now: SimTime,
) -> (Result<u64, IoErr>, SimTime) {
    let t0 = now;
    let (path_id, pos) = match tables(w)[rank.0 as usize].get(h) {
        Ok(s) => (s.path_id, s.pos),
        Err(e) => return (Err(e), now),
    };
    let mut t = now;
    let mut written = 0u64;
    let mut remaining = data;
    while !remaining.is_empty() {
        // Check buffer adjacency and capacity.
        let (needs_flush, take) = {
            let s = tables(w)[rank.0 as usize].get(h).expect("checked");
            let buf_end = s.wbuf_start + s.wbuf.len() as u64;
            let adjacent = s.wbuf.is_empty() || buf_end == s.pos;
            if !adjacent || s.wbuf.len() as u64 >= s.bufsize {
                (true, 0usize)
            } else {
                let space = (s.bufsize - s.wbuf.len() as u64) as usize;
                (false, space.min(remaining.len()))
            }
        };
        if needs_flush {
            t = match flush_wbuf(w, rank, h, t) {
                Ok(t2) => t2,
                Err(e) => return (Err(e), t),
            };
            let s = tables(w)[rank.0 as usize].get(h).expect("checked");
            s.wbuf_start = s.pos;
            continue;
        }
        let s = tables(w)[rank.0 as usize].get(h).expect("checked");
        if s.wbuf.is_empty() {
            s.wbuf_start = s.pos;
        }
        s.wbuf.extend_from_slice(&remaining[..take]);
        s.pos += take as u64;
        written += take as u64;
        remaining = &remaining[take..];
        t = t + memcpy_cost(take as u64);
    }
    // Invalidate the read cache on writes.
    tables(w)[rank.0 as usize].get(h).expect("checked").rbuf = ContentView::default();
    let end = w.trace_io(
        rank,
        Layer::Stdio,
        OpKind::Write,
        t0,
        t,
        Some(path_id),
        pos,
        written,
    );
    (Ok(written), end)
}

/// Read `len` bytes through the stream buffer (timing + count only; bulk
/// reads larger than the buffer are accounted without materializing, so a
/// 750 MiB FITS sweep costs no memory).
pub fn fread(
    w: &mut IoWorld,
    rank: RankId,
    h: FileStream,
    len: u64,
    now: SimTime,
) -> (Result<u64, IoErr>, SimTime) {
    match fread_impl(w, rank, h, len, now, false) {
        (Ok((n, _)), t) => (Ok(n), t),
        (Err(e), t) => (Err(e), t),
    }
}

/// Read and materialize `len` bytes through the stream buffer.
pub fn fread_data(
    w: &mut IoWorld,
    rank: RankId,
    h: FileStream,
    len: u64,
    now: SimTime,
) -> (Result<Vec<u8>, IoErr>, SimTime) {
    match fread_impl(w, rank, h, len, now, true) {
        (Ok((_, d)), t) => (Ok(d), t),
        (Err(e), t) => (Err(e), t),
    }
}

fn fread_impl(
    w: &mut IoWorld,
    rank: RankId,
    h: FileStream,
    len: u64,
    now: SimTime,
    materialize: bool,
) -> (Result<(u64, Vec<u8>), IoErr>, SimTime) {
    let t0 = now;
    let (path_id, start_pos) = match tables(w)[rank.0 as usize].get(h) {
        Ok(s) => (s.path_id, s.pos),
        Err(e) => return (Err(e), now),
    };
    // Writes must land before reads observe the file.
    let mut t = match flush_wbuf(w, rank, h, now) {
        Ok(t) => t,
        Err(e) => return (Err(e), now),
    };
    let mut out: Vec<u8> = Vec::with_capacity(if materialize {
        len.min(1 << 20) as usize
    } else {
        0
    });
    let mut count = 0u64;
    let mut remaining = len;
    while remaining > 0 {
        let (fd, pos, bufsize, hit) = {
            let s = tables(w)[rank.0 as usize].get(h).expect("checked");
            let rb_end = s.rbuf_start + s.rbuf.len();
            let hit = s.pos >= s.rbuf_start && s.pos < rb_end;
            (s.fd, s.pos, s.bufsize, hit)
        };
        if hit {
            let s = tables(w)[rank.0 as usize].get(h).expect("checked");
            let off_in = s.pos - s.rbuf_start;
            let take = (s.rbuf.len() - off_in).min(remaining);
            if materialize {
                append_view(&mut out, &s.rbuf, off_in, take);
            }
            count += take;
            s.pos += take;
            remaining -= take;
            t = t + memcpy_cost(take);
            continue;
        }
        if remaining >= bufsize && !materialize {
            // Large timing-only read: bypass the buffer and account bytes
            // without materializing them.
            let (res, t2) = posix::read_at(w, rank, fd, pos, remaining, t);
            match res {
                Ok(0) => {
                    t = t2;
                    break;
                }
                Ok(n) => {
                    count += n;
                    let s = tables(w)[rank.0 as usize].get(h).expect("checked");
                    s.pos += n;
                    remaining -= n;
                    t = t2;
                    if n < remaining + n {
                        // Short read = EOF.
                        if n < bufsize {
                            break;
                        }
                    }
                }
                Err(e) => return (Err(e), t2),
            }
            continue;
        }
        if remaining >= bufsize && materialize {
            // Large materializing read: fetch the exact range.
            let (res, t2) = pread_view(w, rank, fd, pos, remaining, t);
            match res {
                Ok(view) => {
                    if view.is_empty() {
                        t = t2;
                        break;
                    }
                    let n = view.len();
                    append_view(&mut out, &view, 0, n);
                    count += n;
                    let s = tables(w)[rank.0 as usize].get(h).expect("checked");
                    s.pos += n;
                    remaining -= n;
                    t = t2;
                    if n < bufsize {
                        break; // EOF
                    }
                }
                Err(e) => return (Err(e), t2),
            }
            continue;
        }
        // Fill the read cache with one buffer-sized POSIX read.
        let (view, t2) = {
            let (res, t2) = pread_view(w, rank, fd, pos, bufsize, t);
            match res {
                Ok(v) => (v, t2),
                Err(e) => return (Err(e), t2),
            }
        };
        t = t2;
        if view.is_empty() {
            break; // EOF
        }
        let s = tables(w)[rank.0 as usize].get(h).expect("checked");
        s.rbuf_start = pos;
        s.rbuf = view;
    }
    let end = w.trace_io(
        rank,
        Layer::Stdio,
        OpKind::Read,
        t0,
        t,
        Some(path_id),
        start_pos,
        count,
    );
    (Ok((count, out)), end)
}

/// Append view bytes `[from, from + n)` to `out`.
fn append_view(out: &mut Vec<u8>, view: &ContentView, from: u64, n: u64) {
    let at = out.len();
    out.resize(at + n as usize, 0);
    view.copy_to(from, &mut out[at..]);
}

/// pread of `len` bytes at `pos` that hands back a view of the content
/// (buffer refills and the large `fread_data` path), traced at the POSIX
/// layer.
fn pread_view(
    w: &mut IoWorld,
    rank: RankId,
    fd: Fd,
    pos: u64,
    len: u64,
    now: SimTime,
) -> (Result<ContentView, IoErr>, SimTime) {
    let node = w.node_of(rank);
    let (handle, path_id) = {
        let Ok(of) = w.fd(rank, fd) else {
            return (Err(IoErr::BadFd), now);
        };
        (of.handle, of.path_id)
    };
    let (res, t_settle) =
        crate::resilience::with_retries(w, rank, Some(path_id), pos, len, now, |w, t| {
            w.storage.read_view(node, handle, pos, len, t)
        });
    match res {
        Ok(view) => {
            let end = w.trace_io(
                rank,
                Layer::Posix,
                OpKind::Read,
                now,
                t_settle,
                Some(path_id),
                pos,
                view.len(),
            );
            (Ok(view), end)
        }
        Err(e) => (Err(e), t_settle),
    }
}

/// Reposition the stream (flushes pending writes, drops the read cache).
pub fn fseek(
    w: &mut IoWorld,
    rank: RankId,
    h: FileStream,
    offset: i64,
    whence: Whence,
    now: SimTime,
) -> (Result<u64, IoErr>, SimTime) {
    let (fd, path_id) = match tables(w)[rank.0 as usize].get(h) {
        Ok(s) => (s.fd, s.path_id),
        Err(e) => return (Err(e), now),
    };
    let t = match flush_wbuf(w, rank, h, now) {
        Ok(t) => t,
        Err(e) => return (Err(e), now),
    };
    let (res, t2) = posix::lseek(w, rank, fd, offset, whence, t);
    match res {
        Ok(newpos) => {
            let s = tables(w)[rank.0 as usize].get(h).expect("checked");
            s.pos = newpos;
            s.rbuf = ContentView::default();
            let end = w.trace_io(
                rank,
                Layer::Stdio,
                OpKind::Seek,
                now,
                t2,
                Some(path_id),
                newpos,
                0,
            );
            (Ok(newpos), end)
        }
        Err(e) => (Err(e), t2),
    }
}

/// Close the stream: flush, close the descriptor.
pub fn fclose(
    w: &mut IoWorld,
    rank: RankId,
    h: FileStream,
    now: SimTime,
) -> (Result<(), IoErr>, SimTime) {
    let path_id = match tables(w)[rank.0 as usize].get(h) {
        Ok(s) => s.path_id,
        Err(e) => return (Err(e), now),
    };
    let t = match flush_wbuf(w, rank, h, now) {
        Ok(t) => t,
        Err(e) => return (Err(e), now),
    };
    let s = match tables(w)[rank.0 as usize].take(h) {
        Ok(s) => s,
        Err(e) => return (Err(e), t),
    };
    let (res, t2) = posix::close(w, rank, s.fd, t);
    let end = w.trace_io(
        rank,
        Layer::Stdio,
        OpKind::Close,
        now,
        t2,
        Some(path_id),
        0,
        0,
    );
    (res, end)
}

#[cfg(test)]
mod tests {
    use super::*;
    use recorder_sim::record::Layer as L;

    fn world() -> IoWorld {
        IoWorld::lassen(1, 2, Dur::from_secs(3600), 9)
    }

    #[test]
    fn buffered_writes_coalesce_into_few_posix_ops() {
        let mut w = world();
        let r = RankId(0);
        let (h, mut t) = fopen(&mut w, r, "/p/gpfs1/buf.dat", "w", SimTime::ZERO);
        let h = h.unwrap();
        // 64 writes of 256 B = 16 KiB = 2 × BUFSIZ flushes.
        for _ in 0..64 {
            let (n, t2) = fwrite(&mut w, r, h, &[7u8; 256], t);
            assert_eq!(n.unwrap(), 256);
            t = t2;
        }
        let (_, t) = fclose(&mut w, r, h, t);
        let _ = t;
        let posix_writes = w
            .tracer
            .columnar()
            .to_records()
            .iter()
            .filter(|rec| rec.layer == L::Posix && rec.op == OpKind::Write)
            .count();
        let stdio_writes = w
            .tracer
            .columnar()
            .to_records()
            .iter()
            .filter(|rec| rec.layer == L::Stdio && rec.op == OpKind::Write)
            .count();
        assert_eq!(stdio_writes, 64);
        assert_eq!(
            posix_writes, 2,
            "16 KiB should flush as two 8 KiB POSIX writes"
        );
    }

    #[test]
    fn data_round_trips_through_the_buffer() {
        let mut w = world();
        let r = RankId(0);
        let (h, t) = fopen(&mut w, r, "/p/gpfs1/rt.dat", "w", SimTime::ZERO);
        let h = h.unwrap();
        let payload: Vec<u8> = (0..1000u32).map(|i| (i % 251) as u8).collect();
        let (_, t) = fwrite(&mut w, r, h, &payload, t);
        let (_, t) = fclose(&mut w, r, h, t);
        let (h2, t) = fopen(&mut w, r, "/p/gpfs1/rt.dat", "r", t);
        let h2 = h2.unwrap();
        let (data, _) = fread_data(&mut w, r, h2, 1000, t);
        assert_eq!(data.unwrap(), payload);
    }

    #[test]
    fn buffered_reads_fill_once_then_hit() {
        let mut w = world();
        let r = RankId(0);
        let (h, t) = fopen(&mut w, r, "/p/gpfs1/rd.dat", "w", SimTime::ZERO);
        let h = h.unwrap();
        let (_, t) = fwrite(&mut w, r, h, &vec![1u8; 8192], t);
        let (_, t) = fclose(&mut w, r, h, t);
        let n_posix_before = |w: &IoWorld| {
            w.tracer
                .columnar()
                .to_records()
                .iter()
                .filter(|rec| rec.layer == L::Posix && rec.op == OpKind::Read)
                .count()
        };
        let (h, mut t2) = fopen(&mut w, r, "/p/gpfs1/rd.dat", "r", t);
        let h = h.unwrap();
        for _ in 0..32 {
            let (n, tn) = fread(&mut w, r, h, 256, t2);
            assert_eq!(n.unwrap(), 256);
            t2 = tn;
        }
        // 32 × 256 B = 8 KiB = exactly one buffer fill.
        assert_eq!(n_posix_before(&w), 1);
    }

    #[test]
    fn buffered_view_keeps_refill_time_bytes_after_another_rank_overwrites() {
        let mut w = world();
        let (r0, r1) = (RankId(0), RankId(1));
        let path = "/p/gpfs1/shared.dat";
        let (h, t) = fopen(&mut w, r0, path, "w", SimTime::ZERO);
        let (_, t) = fwrite(&mut w, r0, h.unwrap(), &[1u8; 4096], t);
        let (_, t) = fclose(&mut w, r0, h.unwrap(), t);
        // Rank 0's first fread fills its buffer with the whole file.
        let (h, t) = fopen(&mut w, r0, path, "r", t);
        let h = h.unwrap();
        let (head, t) = fread_data(&mut w, r0, h, 16, t);
        assert_eq!(head.unwrap(), [1u8; 16]);
        // Rank 1 overwrites the file underneath it.
        let (h1, t) = fopen(&mut w, r1, path, "r+", t);
        let (_, t) = fwrite(&mut w, r1, h1.unwrap(), &[2u8; 4096], t);
        let (_, t) = fclose(&mut w, r1, h1.unwrap(), t);
        // Buffer hits still return the bytes of refill time...
        let (rest, t) = fread_data(&mut w, r0, h, 100, t);
        assert_eq!(rest.unwrap(), [1u8; 100]);
        // ...until a seek drops the buffer and the next fill sees rank 1's.
        let (_, t) = fseek(&mut w, r0, h, 0, Whence::Set, t);
        let (fresh, _) = fread_data(&mut w, r0, h, 16, t);
        assert_eq!(fresh.unwrap(), [2u8; 16]);
    }

    #[test]
    fn fseek_flushes_and_repositions() {
        let mut w = world();
        let r = RankId(0);
        let (h, t) = fopen(&mut w, r, "/p/gpfs1/sk.dat", "w+", SimTime::ZERO);
        let h = h.unwrap();
        let (_, t) = fwrite(&mut w, r, h, b"abcdef", t);
        let (p, t) = fseek(&mut w, r, h, 2, Whence::Set, t);
        assert_eq!(p.unwrap(), 2);
        let (data, _) = fread_data(&mut w, r, h, 2, t);
        assert_eq!(data.unwrap(), b"cd");
    }

    #[test]
    fn large_writes_bypass_the_buffer() {
        let mut w = world();
        let r = RankId(0);
        let (h, t) = fopen(&mut w, r, "/p/gpfs1/big.dat", "w", SimTime::ZERO);
        let h = h.unwrap();
        let (n, t) = fwrite_pattern(&mut w, r, h, 1 << 20, 3, t);
        assert_eq!(n.unwrap(), 1 << 20);
        let (_, _t) = fclose(&mut w, r, h, t);
        let posix_writes: Vec<u64> = w
            .tracer
            .columnar()
            .to_records()
            .iter()
            .filter(|rec| rec.layer == L::Posix && rec.op == OpKind::Write)
            .map(|rec| rec.bytes)
            .collect();
        assert_eq!(posix_writes, vec![1 << 20]);
    }

    #[test]
    fn eof_reads_return_short() {
        let mut w = world();
        let r = RankId(0);
        let (h, t) = fopen(&mut w, r, "/p/gpfs1/eof.dat", "w", SimTime::ZERO);
        let h = h.unwrap();
        let (_, t) = fwrite(&mut w, r, h, &[9u8; 100], t);
        let (_, t) = fclose(&mut w, r, h, t);
        let (h, t) = fopen(&mut w, r, "/p/gpfs1/eof.dat", "r", t);
        let h = h.unwrap();
        let (n, t) = fread(&mut w, r, h, 1000, t);
        assert_eq!(n.unwrap(), 100);
        let (n2, _) = fread(&mut w, r, h, 10, t);
        assert_eq!(n2.unwrap(), 0);
    }

    #[test]
    fn invalid_mode_is_rejected() {
        let mut w = world();
        let (res, _) = fopen(&mut w, RankId(0), "/p/gpfs1/x", "q", SimTime::ZERO);
        assert_eq!(res.unwrap_err(), IoErr::Invalid);
    }

    #[test]
    fn append_mode_via_stdio() {
        let mut w = world();
        let r = RankId(0);
        let (h, t) = fopen(&mut w, r, "/p/gpfs1/ap", "w", SimTime::ZERO);
        let (_, t) = fwrite(&mut w, r, h.unwrap(), b"xy", t);
        let (_, t) = fclose(&mut w, r, h.unwrap(), t);
        let (h, t) = fopen(&mut w, r, "/p/gpfs1/ap", "a", t);
        let h = h.unwrap();
        // Append starts at EOF once we seek there explicitly.
        let (_, t) = fseek(&mut w, r, h, 0, Whence::End, t);
        let (_, t) = fwrite(&mut w, r, h, b"z", t);
        let (_, t) = fclose(&mut w, r, h, t);
        let (h, t) = fopen(&mut w, r, "/p/gpfs1/ap", "r", t);
        let (data, _) = fread_data(&mut w, r, h.unwrap(), 10, t);
        assert_eq!(data.unwrap(), b"xyz");
    }
}
