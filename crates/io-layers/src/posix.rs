//! The POSIX interface: timed syscalls over the storage system with a
//! per-process descriptor table.
//!
//! Every call appends a `Posix`-layer trace record. Data can be written as
//! real bytes (format layers need round-trips) or as synthetic pattern fills
//! (bulk checkpoint bodies), and reads can either materialize bytes or just
//! account for them — see `storage-sim`'s segment model.

use crate::world::{IoWorld, OpenFile};
use hpc_cluster::topology::RankId;
use recorder_sim::record::{Layer, OpKind};
use sim_core::SimTime;
use std::sync::Arc;
use storage_sim::file::Segment;
use storage_sim::IoErr;

/// A POSIX file descriptor.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Fd(pub u32);

/// Open flags (a simplified `O_*` set).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct OpenFlags {
    /// Create if missing (`O_CREAT`).
    pub create: bool,
    /// Fail if it already exists (`O_EXCL`).
    pub exclusive: bool,
    /// Allow writes (`O_WRONLY`/`O_RDWR`).
    pub write: bool,
    /// Truncate on open (`O_TRUNC`).
    pub truncate: bool,
    /// Position writes at EOF (`O_APPEND`).
    pub append: bool,
}

impl OpenFlags {
    /// Read-only open.
    pub fn read_only() -> Self {
        OpenFlags::default()
    }

    /// Create-or-truncate for writing (`O_CREAT|O_WRONLY|O_TRUNC`).
    pub fn write_create() -> Self {
        OpenFlags {
            create: true,
            write: true,
            truncate: true,
            ..Default::default()
        }
    }

    /// Read-write without truncation.
    pub fn read_write() -> Self {
        OpenFlags {
            write: true,
            ..Default::default()
        }
    }

    /// Append-mode create.
    pub(crate) fn append() -> Self {
        OpenFlags {
            create: true,
            write: true,
            append: true,
            ..Default::default()
        }
    }
}

/// `lseek` whence.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Whence {
    /// From the beginning.
    Set,
    /// Relative to the current position.
    Cur,
    /// Relative to EOF.
    End,
}

/// Open a file. Returns the descriptor and the completion time.
pub fn open(
    w: &mut IoWorld,
    rank: RankId,
    path: &str,
    flags: OpenFlags,
    now: SimTime,
) -> (Result<Fd, IoErr>, SimTime) {
    let node = w.node_of(rank);
    let path_id = w.tracer.file_id(path);
    let op = if flags.create {
        OpKind::Create
    } else {
        OpKind::Open
    };
    let (res, t_settle) =
        crate::resilience::with_retries(w, rank, Some(path_id), 0, 0, now, |w, t| {
            w.storage.open(node, path, flags.create, flags.exclusive, t)
        });
    match res.map(|h| (h, t_settle)) {
        Ok((handle, t_open)) => {
            let mut end = t_open;
            let mut size = match handle.tier {
                storage_sim::mounts::Tier::Pfs => {
                    w.storage.pfs().store().size_of(handle.key).unwrap_or(0)
                }
                storage_sim::mounts::Tier::NodeLocal(i) => w.storage.locals()[i as usize]
                    .store(node)
                    .size_of(handle.key)
                    .unwrap_or(0),
            };
            if flags.truncate && flags.write && size > 0 {
                match handle.tier {
                    storage_sim::mounts::Tier::Pfs => {
                        let _ = w.storage.pfs_mut().store_mut().truncate(handle.key, 0);
                    }
                    storage_sim::mounts::Tier::NodeLocal(i) => {
                        let _ = w.storage.locals_mut()[i as usize]
                            .store_mut(node)
                            .truncate(handle.key, 0);
                    }
                }
                size = 0;
            }
            let slot = match w.proc_mut(rank).alloc_fd() {
                Some(s) => s,
                None => {
                    let end = w.trace_io(rank, Layer::Posix, op, now, end, Some(path_id), 0, 0);
                    return (Err(IoErr::TooManyOpenFiles), end);
                }
            };
            w.proc_mut(rank).fds[slot] = Some(OpenFile {
                handle,
                pos: 0,
                path_id,
                writable: flags.write,
                append: flags.append,
                known_size: size,
            });
            end = w.trace_io(rank, Layer::Posix, op, now, end, Some(path_id), 0, 0);
            (Ok(Fd(slot as u32)), end)
        }
        Err(e) => {
            let end = w.trace_io(rank, Layer::Posix, op, now, t_settle, Some(path_id), 0, 0);
            (Err(e), end)
        }
    }
}

/// Close a descriptor.
pub fn close(w: &mut IoWorld, rank: RankId, fd: Fd, now: SimTime) -> (Result<(), IoErr>, SimTime) {
    let node = w.node_of(rank);
    let Some(of) = w.procs[rank.0 as usize]
        .fds
        .get_mut(fd.0 as usize)
        .and_then(Option::take)
    else {
        return (Err(IoErr::BadFd), now);
    };
    let t = w.storage.close(node, of.handle, now);
    let end = w.trace_io(
        rank,
        Layer::Posix,
        OpKind::Close,
        now,
        t,
        Some(of.path_id),
        0,
        0,
    );
    (Ok(()), end)
}

fn resolve_write_pos(of: &OpenFile) -> u64 {
    if of.append {
        of.known_size
    } else {
        of.pos
    }
}

/// Write a synthetic pattern of `len` bytes at the current position.
pub fn write_pattern(
    w: &mut IoWorld,
    rank: RankId,
    fd: Fd,
    len: u64,
    seed: u64,
    now: SimTime,
) -> (Result<u64, IoErr>, SimTime) {
    write_seg(w, rank, fd, None, Segment::Pattern { seed, len }, now)
}

/// `pwrite`: write at an explicit offset without moving the position.
pub(crate) fn write_at(
    w: &mut IoWorld,
    rank: RankId,
    fd: Fd,
    offset: u64,
    data: &[u8],
    now: SimTime,
) -> (Result<u64, IoErr>, SimTime) {
    write_seg(
        w,
        rank,
        fd,
        Some(offset),
        Segment::Bytes(Arc::new(data.to_vec())),
        now,
    )
}

/// `pwrite` of a synthetic pattern.
pub(crate) fn write_pattern_at(
    w: &mut IoWorld,
    rank: RankId,
    fd: Fd,
    offset: u64,
    len: u64,
    seed: u64,
    now: SimTime,
) -> (Result<u64, IoErr>, SimTime) {
    write_seg(
        w,
        rank,
        fd,
        Some(offset),
        Segment::Pattern { seed, len },
        now,
    )
}

fn write_seg(
    w: &mut IoWorld,
    rank: RankId,
    fd: Fd,
    offset: Option<u64>,
    seg: Segment,
    now: SimTime,
) -> (Result<u64, IoErr>, SimTime) {
    let node = w.node_of(rank);
    let (handle, path_id, pos, advance) = {
        let Ok(of) = w.fd(rank, fd) else {
            return (Err(IoErr::BadFd), now);
        };
        if !of.writable {
            return (Err(IoErr::ReadOnly), now);
        }
        let pos = offset.unwrap_or_else(|| resolve_write_pos(of));
        (of.handle, of.path_id, pos, offset.is_none())
    };
    // The segment is cloned per attempt: a transiently-failed write never
    // reaches the store, so the retry must re-submit the same payload.
    let bytes = seg.len();
    let (res, t_settle) =
        crate::resilience::with_retries(w, rank, Some(path_id), pos, bytes, now, |w, t| {
            w.storage.write(node, handle, pos, seg.clone(), t)
        });
    match res.map(|n| (n, t_settle)) {
        Ok((n, t)) => {
            {
                let of = w.procs[rank.0 as usize].fds[fd.0 as usize]
                    .as_mut()
                    .expect("fd checked above");
                if advance {
                    of.pos = pos + n;
                }
                of.known_size = of.known_size.max(pos + n);
            }
            let end = w.trace_io(
                rank,
                Layer::Posix,
                OpKind::Write,
                now,
                t,
                Some(path_id),
                pos,
                n,
            );
            (Ok(n), end)
        }
        Err(e) => {
            let end = w.trace_io(
                rank,
                Layer::Posix,
                OpKind::Write,
                now,
                t_settle,
                Some(path_id),
                pos,
                0,
            );
            (Err(e), end)
        }
    }
}

/// Timing-only read of `len` bytes at the current position; returns bytes
/// actually read (0 at EOF) and advances the position.
pub fn read(
    w: &mut IoWorld,
    rank: RankId,
    fd: Fd,
    len: u64,
    now: SimTime,
) -> (Result<u64, IoErr>, SimTime) {
    read_common(w, rank, fd, None, len, now)
}

/// `pread`: timing-only read at an explicit offset.
pub fn read_at(
    w: &mut IoWorld,
    rank: RankId,
    fd: Fd,
    offset: u64,
    len: u64,
    now: SimTime,
) -> (Result<u64, IoErr>, SimTime) {
    read_common(w, rank, fd, Some(offset), len, now)
}

fn read_common(
    w: &mut IoWorld,
    rank: RankId,
    fd: Fd,
    offset: Option<u64>,
    len: u64,
    now: SimTime,
) -> (Result<u64, IoErr>, SimTime) {
    let node = w.node_of(rank);
    let (handle, path_id, pos) = {
        let Ok(of) = w.fd(rank, fd) else {
            return (Err(IoErr::BadFd), now);
        };
        (of.handle, of.path_id, offset.unwrap_or(of.pos))
    };
    let (res, t_settle) =
        crate::resilience::with_retries(w, rank, Some(path_id), pos, len, now, |w, t| {
            w.storage.read_len(node, handle, pos, len, t)
        });
    match res.map(|n| (n, t_settle)) {
        Ok((n, t)) => {
            if offset.is_none() {
                let of = w.procs[rank.0 as usize].fds[fd.0 as usize]
                    .as_mut()
                    .expect("fd checked above");
                of.pos = pos + n;
            }
            let end = w.trace_io(
                rank,
                Layer::Posix,
                OpKind::Read,
                now,
                t,
                Some(path_id),
                pos,
                n,
            );
            (Ok(n), end)
        }
        Err(e) => {
            let end = w.trace_io(
                rank,
                Layer::Posix,
                OpKind::Read,
                now,
                t_settle,
                Some(path_id),
                pos,
                0,
            );
            (Err(e), end)
        }
    }
}

/// Reposition a descriptor; returns the new absolute position. Traced as a
/// metadata (`Seek`) record with zero storage cost, like a real `lseek`.
pub fn lseek(
    w: &mut IoWorld,
    rank: RankId,
    fd: Fd,
    offset: i64,
    whence: Whence,
    now: SimTime,
) -> (Result<u64, IoErr>, SimTime) {
    let (path_id, new_pos) = {
        let Ok(of) = w.fd(rank, fd) else {
            return (Err(IoErr::BadFd), now);
        };
        let base = match whence {
            Whence::Set => 0i128,
            Whence::Cur => of.pos as i128,
            Whence::End => of.known_size as i128,
        };
        let target = base + offset as i128;
        if target < 0 {
            return (Err(IoErr::Invalid), now);
        }
        (of.path_id, target as u64)
    };
    w.procs[rank.0 as usize].fds[fd.0 as usize]
        .as_mut()
        .expect("fd checked above")
        .pos = new_pos;
    let end = w.trace_io(
        rank,
        Layer::Posix,
        OpKind::Seek,
        now,
        now,
        Some(path_id),
        new_pos,
        0,
    );
    (Ok(new_pos), end)
}

/// Flush a descriptor to stable storage.
pub fn fsync(w: &mut IoWorld, rank: RankId, fd: Fd, now: SimTime) -> (Result<(), IoErr>, SimTime) {
    let node = w.node_of(rank);
    let (handle, path_id) = {
        let Ok(of) = w.fd(rank, fd) else {
            return (Err(IoErr::BadFd), now);
        };
        (of.handle, of.path_id)
    };
    let t = w.storage.fsync(node, handle, now);
    let end = w.trace_io(
        rank,
        Layer::Posix,
        OpKind::Sync,
        now,
        t,
        Some(path_id),
        0,
        0,
    );
    (Ok(()), end)
}

/// `fstat`: metadata query on an open descriptor — one MDS round trip on
/// the PFS (this is the call HDF5's collective-metadata validation turns
/// into, which is what storms the metadata service in CosmoFlow).
pub(crate) fn fstat(
    w: &mut IoWorld,
    rank: RankId,
    fd: Fd,
    now: SimTime,
) -> (Result<u64, IoErr>, SimTime) {
    let (handle, path_id, size) = {
        let Ok(of) = w.fd(rank, fd) else {
            return (Err(IoErr::BadFd), now);
        };
        (of.handle, of.path_id, of.known_size)
    };
    let t = match handle.tier {
        storage_sim::mounts::Tier::Pfs => w.storage.pfs_mut().meta_op(now),
        storage_sim::mounts::Tier::NodeLocal(_) => now + sim_core::Dur::from_nanos(400),
    };
    let end = w.trace_io(
        rank,
        Layer::Posix,
        OpKind::Stat,
        now,
        t,
        Some(path_id),
        0,
        0,
    );
    (Ok(size), end)
}

/// Stat a path; returns the file size.
pub fn stat(
    w: &mut IoWorld,
    rank: RankId,
    path: &str,
    now: SimTime,
) -> (Result<u64, IoErr>, SimTime) {
    let node = w.node_of(rank);
    let path_id = w.tracer.file_id(path);
    let (res, t_settle) =
        crate::resilience::with_retries(w, rank, Some(path_id), 0, 0, now, |w, t| {
            w.storage.stat(node, path, t)
        });
    match res {
        Ok(size) => {
            let end = w.trace_io(
                rank,
                Layer::Posix,
                OpKind::Stat,
                now,
                t_settle,
                Some(path_id),
                0,
                0,
            );
            (Ok(size), end)
        }
        Err(e) => {
            let end = w.trace_io(
                rank,
                Layer::Posix,
                OpKind::Stat,
                now,
                t_settle,
                Some(path_id),
                0,
                0,
            );
            (Err(e), end)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_core::Dur;

    fn world() -> IoWorld {
        IoWorld::lassen(2, 2, Dur::from_secs(3600), 5)
    }

    #[test]
    fn open_write_read_close_round_trip() {
        let mut w = world();
        let r = RankId(0);
        let (fd, t) = open(
            &mut w,
            r,
            "/p/gpfs1/t.bin",
            OpenFlags::write_create(),
            SimTime::ZERO,
        );
        let fd = fd.unwrap();
        let (n, t2) = write_pattern(&mut w, r, fd, 5, 1, t);
        assert_eq!(n.unwrap(), 5);
        let (pos, t3) = lseek(&mut w, r, fd, 0, Whence::Set, t2);
        assert_eq!(pos.unwrap(), 0);
        let (n, t4) = read(&mut w, r, fd, 5, t3);
        assert_eq!(n.unwrap(), 5);
        let (res, _) = close(&mut w, r, fd, t4);
        res.unwrap();
        // Trace has create, write, seek, read, close at POSIX layer.
        let ops: Vec<OpKind> = w.tracer.columnar().op.clone();
        assert_eq!(
            ops,
            vec![
                OpKind::Create,
                OpKind::Write,
                OpKind::Seek,
                OpKind::Read,
                OpKind::Close
            ]
        );
        assert!(w.tracer.columnar().layer.iter().all(|&l| l == Layer::Posix));
    }

    #[test]
    fn position_advances_and_eof_reads_zero() {
        let mut w = world();
        let r = RankId(0);
        let (fd, t) = open(
            &mut w,
            r,
            "/p/gpfs1/x",
            OpenFlags::write_create(),
            SimTime::ZERO,
        );
        let fd = fd.unwrap();
        let (_, t) = write_pattern(&mut w, r, fd, 100, 1, t);
        let (pos, t) = lseek(&mut w, r, fd, 0, Whence::Set, t);
        assert_eq!(pos.unwrap(), 0);
        let (n1, t) = read(&mut w, r, fd, 60, t);
        assert_eq!(n1.unwrap(), 60);
        let (n2, t) = read(&mut w, r, fd, 60, t);
        assert_eq!(n2.unwrap(), 40);
        let (n3, _) = read(&mut w, r, fd, 60, t);
        assert_eq!(n3.unwrap(), 0); // EOF
    }

    #[test]
    fn append_mode_writes_at_eof() {
        let mut w = world();
        let r = RankId(0);
        let (fd, t) = open(
            &mut w,
            r,
            "/p/gpfs1/log",
            OpenFlags::append(),
            SimTime::ZERO,
        );
        let fd = fd.unwrap();
        let (_, t) = write_pattern(&mut w, r, fd, 3, 1, t);
        // Seek somewhere irrelevant; append ignores it.
        let (_, t) = lseek(&mut w, r, fd, 0, Whence::Set, t);
        let (_, t) = write_pattern(&mut w, r, fd, 3, 2, t);
        let (size, _) = stat(&mut w, r, "/p/gpfs1/log", t);
        assert_eq!(size.unwrap(), 6, "the second write landed at EOF");
    }

    #[test]
    fn truncate_on_open_clears_contents() {
        let mut w = world();
        let r = RankId(0);
        let (fd, t) = open(
            &mut w,
            r,
            "/p/gpfs1/tr",
            OpenFlags::write_create(),
            SimTime::ZERO,
        );
        let (_, t) = write_pattern(&mut w, r, fd.unwrap(), 4, 1, t);
        let (_, t) = close(&mut w, r, fd.unwrap(), t);
        let (fd2, t) = open(&mut w, r, "/p/gpfs1/tr", OpenFlags::write_create(), t);
        let (size, _) = stat(&mut w, r, "/p/gpfs1/tr", t);
        assert_eq!(size.unwrap(), 0);
        let _ = fd2;
    }

    #[test]
    fn read_only_fd_rejects_writes() {
        let mut w = world();
        let r = RankId(0);
        let (fd, t) = open(
            &mut w,
            r,
            "/p/gpfs1/ro",
            OpenFlags::write_create(),
            SimTime::ZERO,
        );
        let (_, t) = close(&mut w, r, fd.unwrap(), t);
        let (fd, t) = open(&mut w, r, "/p/gpfs1/ro", OpenFlags::read_only(), t);
        let (res, _) = write_pattern(&mut w, r, fd.unwrap(), 1, 1, t);
        assert_eq!(res.unwrap_err(), IoErr::ReadOnly);
    }

    #[test]
    fn bad_fd_is_rejected_everywhere() {
        let mut w = world();
        let r = RankId(0);
        let bad = Fd(42);
        assert_eq!(
            read(&mut w, r, bad, 1, SimTime::ZERO).0.unwrap_err(),
            IoErr::BadFd
        );
        assert_eq!(
            write_pattern(&mut w, r, bad, 1, 1, SimTime::ZERO)
                .0
                .unwrap_err(),
            IoErr::BadFd
        );
        assert_eq!(
            close(&mut w, r, bad, SimTime::ZERO).0.unwrap_err(),
            IoErr::BadFd
        );
        assert_eq!(
            lseek(&mut w, r, bad, 0, Whence::Set, SimTime::ZERO)
                .0
                .unwrap_err(),
            IoErr::BadFd
        );
    }

    #[test]
    fn fd_exhaustion_returns_emfile() {
        let mut w = world();
        let r = RankId(0);
        w.proc_mut(r).max_fds = 3;
        let mut t = SimTime::ZERO;
        let mut fds = Vec::new();
        for i in 0..3 {
            let (fd, t2) = open(
                &mut w,
                r,
                &format!("/p/gpfs1/f{i}"),
                OpenFlags::write_create(),
                t,
            );
            fds.push(fd.unwrap());
            t = t2;
        }
        let (res, t) = open(&mut w, r, "/p/gpfs1/f3", OpenFlags::write_create(), t);
        assert_eq!(res.unwrap_err(), IoErr::TooManyOpenFiles);
        // Closing one frees a slot.
        let (_, t) = close(&mut w, r, fds[1], t);
        let (res, _) = open(&mut w, r, "/p/gpfs1/f4", OpenFlags::write_create(), t);
        assert!(res.is_ok());
    }

    #[test]
    fn ranks_have_independent_fd_tables() {
        let mut w = world();
        let (fd0, t) = open(
            &mut w,
            RankId(0),
            "/p/gpfs1/a",
            OpenFlags::write_create(),
            SimTime::ZERO,
        );
        let (fd1, _) = open(
            &mut w,
            RankId(1),
            "/p/gpfs1/b",
            OpenFlags::write_create(),
            t,
        );
        // Both get fd 0 in their own tables.
        assert_eq!(fd0.unwrap(), Fd(0));
        assert_eq!(fd1.unwrap(), Fd(0));
    }

    #[test]
    fn pwrite_pread_do_not_move_position() {
        let mut w = world();
        let r = RankId(0);
        let (fd, t) = open(
            &mut w,
            r,
            "/p/gpfs1/p",
            OpenFlags::write_create(),
            SimTime::ZERO,
        );
        let fd = fd.unwrap();
        let (_, t) = write_at(&mut w, r, fd, 10, b"zz", t);
        let (n, t) = read_at(&mut w, r, fd, 10, 2, t);
        assert_eq!(n.unwrap(), 2);
        // Position still 0.
        let (pos, _) = lseek(&mut w, r, fd, 0, Whence::Cur, t);
        assert_eq!(pos.unwrap(), 0);
    }

    #[test]
    fn shm_paths_work_through_posix() {
        let mut w = world();
        let r = RankId(0);
        let (fd, t) = open(
            &mut w,
            r,
            "/dev/shm/fast",
            OpenFlags::write_create(),
            SimTime::ZERO,
        );
        let fd = fd.unwrap();
        let start = t;
        let (_, t) = write_pattern(&mut w, r, fd, 1 << 20, 1, t);
        // 1 MiB to shm takes ~32 µs, while GPFS would take milliseconds.
        assert!(t.since(start) < Dur::from_micros(200));
    }
}
