//! Middleware interceptors (§II-B, §IV-D1): transparent I/O accelerators a
//! workload-aware storage stack can insert once it knows the workload's
//! attributes. Nothing outside this module's own tests calls them yet:
//! the optimizer's rules that name them (async I/O, compression) are
//! not applied to any workload.
//!
//! * [`WriteBuffer`] — Hermes/UnifyFS-style hierarchical buffering: writes
//!   to matching paths are redirected to the node-local tier and drained to
//!   the PFS on `drain` (what the paper's async-I/O guideline enables),
//! * [`Prefetcher`] — HFetch-style sequential prefetch: detects sequential
//!   reads per descriptor and pre-issues the next extent so the following
//!   read is already in flight,
//! * [`Compression`] — HCompress-style adaptive compression: trades CPU
//!   time for bytes moved, with the ratio chosen from the dataset's value
//!   distribution (Table VI's "Data dist" attribute).

use crate::posix::{self, Fd};
use crate::world::IoWorld;
use hpc_cluster::topology::RankId;
use recorder_sim::record::{Layer, OpKind};
use sim_core::stats::DistributionFit;
use sim_core::units::MIB;
use sim_core::{Dur, SimTime};
use std::collections::HashMap;
use storage_sim::IoErr;

/// Hierarchical write buffering: redirect writes under `match_prefix` to the
/// node-local tier, remembering what must eventually reach the PFS.
#[derive(Debug, Default)]
pub struct WriteBuffer {
    /// Pending drains: (shm path, pfs path, bytes).
    pending: Vec<(String, String, u64)>,
}

impl WriteBuffer {
    /// New empty buffer layer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Rewrite a PFS path to its node-local staging location.
    pub fn stage_path(pfs_path: &str) -> String {
        format!("/dev/shm/stage{pfs_path}")
    }

    /// Write `len` pattern bytes to the staged (node-local) location instead
    /// of the PFS, recording the intent to drain.
    pub fn write_staged(
        &mut self,
        w: &mut IoWorld,
        rank: RankId,
        pfs_path: &str,
        len: u64,
        seed: u64,
        now: SimTime,
    ) -> (Result<u64, IoErr>, SimTime) {
        let staged = Self::stage_path(pfs_path);
        let t0 = now;
        let (fd, t) = posix::open(w, rank, &staged, posix::OpenFlags::write_create(), now);
        let fd = match fd {
            Ok(f) => f,
            Err(e) => return (Err(e), t),
        };
        let (res, t) = posix::write_pattern(w, rank, fd, len, seed, t);
        let n = match res {
            Ok(n) => n,
            Err(e) => return (Err(e), t),
        };
        let (_, t) = posix::close(w, rank, fd, t);
        self.pending
            .push((staged.clone(), pfs_path.to_string(), len));
        let path_id = w.tracer.file_id(pfs_path);
        let end = w.trace_io(
            rank,
            Layer::Middleware,
            OpKind::Write,
            t0,
            t,
            Some(path_id),
            0,
            n,
        );
        (Ok(n), end)
    }

    /// Number of files awaiting drain.
    pub fn pending(&self) -> usize {
        self.pending.len()
    }

    /// Drain all staged files to the PFS (the async flush at phase end).
    pub fn drain(
        &mut self,
        w: &mut IoWorld,
        rank: RankId,
        now: SimTime,
    ) -> (Result<u64, IoErr>, SimTime) {
        let t0 = now;
        let mut t = now;
        let mut moved = 0u64;
        for (_staged, pfs_path, len) in self.pending.drain(..) {
            let (fd, t2) = posix::open(w, rank, &pfs_path, posix::OpenFlags::write_create(), t);
            let fd = match fd {
                Ok(f) => f,
                Err(e) => return (Err(e), t2),
            };
            let (res, t3) = posix::write_pattern(w, rank, fd, len, 1, t2);
            match res {
                Ok(n) => moved += n,
                Err(e) => return (Err(e), t3),
            }
            let (_, t4) = posix::close(w, rank, fd, t3);
            t = t4;
        }
        let end = w.trace_io(rank, Layer::Middleware, OpKind::Sync, t0, t, None, 0, moved);
        (Ok(moved), end)
    }
}

/// Sequential-read prefetcher. Tracks the last extent per descriptor; when a
/// read continues sequentially, the *next* extent is fetched in the
/// background so the subsequent read returns at memory speed.
#[derive(Debug, Default)]
pub struct Prefetcher {
    /// fd → (next expected offset, prefetched extent end).
    state: HashMap<u32, (u64, u64)>,
    /// How far ahead to fetch.
    pub window: u64,
    /// Prefetch hits served.
    pub hits: u64,
}

impl Prefetcher {
    /// New prefetcher with a 4 MiB look-ahead window.
    pub fn new() -> Self {
        Prefetcher {
            window: 4 * MIB,
            ..Default::default()
        }
    }

    /// Read through the prefetcher.
    pub fn read(
        &mut self,
        w: &mut IoWorld,
        rank: RankId,
        fd: Fd,
        offset: u64,
        len: u64,
        now: SimTime,
    ) -> (Result<u64, IoErr>, SimTime) {
        let t0 = now;
        let entry = self.state.get(&fd.0).copied();
        let sequential = entry.is_some_and(|(next, _)| next == offset);
        let covered = entry.is_some_and(|(_, pf_end)| offset + len <= pf_end);
        let (n, mut t) = if sequential && covered {
            // Already prefetched: memory-speed service.
            self.hits += 1;
            (
                len,
                now + Dur::from_micros(2) + Dur::for_transfer(len, 8 * sim_core::units::GIB),
            )
        } else {
            let (res, t) = posix::read_at(w, rank, fd, offset, len, now);
            match res {
                Ok(n) => (n, t),
                Err(e) => return (Err(e), t),
            }
        };
        if sequential || entry.is_none() {
            // Fire-and-forget the next window; its completion time is not
            // awaited but it occupies the servers.
            let pf_start = offset + len;
            let (res, _ignored_end) = posix::read_at(w, rank, fd, pf_start, self.window, t);
            if res.is_ok() {
                self.state.insert(fd.0, (pf_start, pf_start + self.window));
            }
        } else {
            self.state.insert(fd.0, (offset + len, offset + len));
        }
        let path_id = w.fd(rank, fd).map(|of| of.path_id).ok();
        t = w.trace_io(
            rank,
            Layer::Middleware,
            OpKind::Read,
            t0,
            t,
            path_id,
            offset,
            n,
        );
        (Ok(n), t)
    }
}

/// Compression middleware configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct CompressionCfg {
    /// Compression throughput (bytes/sec of input).
    pub compress_bw: u64,
    /// Decompression throughput.
    pub decompress_bw: u64,
    /// Achieved ratio (output/input) per value distribution; the paper's
    /// HCompress reference shows distribution-dependent ratios, including
    /// ratios above 1.0 (inflation) for adverse distributions.
    pub ratio_uniform: f64,
    /// Ratio for normal-distributed values.
    pub ratio_normal: f64,
    /// Ratio for gamma-distributed values.
    pub ratio_gamma: f64,
}

impl Default for CompressionCfg {
    fn default() -> Self {
        CompressionCfg {
            compress_bw: 500 * MIB,
            decompress_bw: 1500 * MIB,
            ratio_uniform: 1.12, // incompressible: 12 % inflation (§I, ref [10])
            ratio_normal: 0.55,
            ratio_gamma: 0.40,
        }
    }
}

/// Compression interceptor.
#[derive(Debug, Default)]
pub struct Compression {
    /// Active configuration.
    pub cfg: CompressionCfg,
}

impl Compression {
    /// New interceptor with defaults.
    pub fn new(cfg: CompressionCfg) -> Self {
        Compression { cfg }
    }

    /// The ratio applied for a given data distribution.
    pub fn ratio_for(&self, dist: DistributionFit) -> f64 {
        match dist {
            DistributionFit::Uniform => self.cfg.ratio_uniform,
            DistributionFit::Normal => self.cfg.ratio_normal,
            DistributionFit::Gamma => self.cfg.ratio_gamma,
            DistributionFit::Unknown => 1.0,
        }
    }

    /// Write `len` logical bytes with compression: CPU cost plus a smaller
    /// (or larger!) physical write.
    pub fn write(
        &self,
        w: &mut IoWorld,
        rank: RankId,
        fd: Fd,
        offset: u64,
        len: u64,
        dist: DistributionFit,
        seed: u64,
        now: SimTime,
    ) -> (Result<u64, IoErr>, SimTime) {
        let t0 = now;
        let cpu = Dur::for_transfer(len, self.cfg.compress_bw);
        let t = now + cpu;
        let phys = (len as f64 * self.ratio_for(dist)).round() as u64;
        let (res, t) = posix::write_pattern_at(w, rank, fd, offset, phys, seed, t);
        match res {
            Ok(_) => {
                let path_id = w.fd(rank, fd).map(|of| of.path_id).ok();
                let end = w.trace_io(
                    rank,
                    Layer::Middleware,
                    OpKind::Write,
                    t0,
                    t,
                    path_id,
                    offset,
                    len,
                );
                (Ok(len), end)
            }
            Err(e) => (Err(e), t),
        }
    }

    /// Read `len` logical bytes with decompression.
    pub fn read(
        &self,
        w: &mut IoWorld,
        rank: RankId,
        fd: Fd,
        offset: u64,
        len: u64,
        dist: DistributionFit,
        now: SimTime,
    ) -> (Result<u64, IoErr>, SimTime) {
        let t0 = now;
        let phys = (len as f64 * self.ratio_for(dist)).round() as u64;
        let (res, t) = posix::read_at(w, rank, fd, offset, phys, now);
        match res {
            Ok(_) => {
                let t = t + Dur::for_transfer(len, self.cfg.decompress_bw);
                let path_id = w.fd(rank, fd).map(|of| of.path_id).ok();
                let end = w.trace_io(
                    rank,
                    Layer::Middleware,
                    OpKind::Read,
                    t0,
                    t,
                    path_id,
                    offset,
                    len,
                );
                (Ok(len), end)
            }
            Err(e) => (Err(e), t),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::posix::OpenFlags;

    fn world() -> IoWorld {
        IoWorld::lassen(2, 2, Dur::from_secs(3600), 6)
    }

    #[test]
    fn write_buffer_stages_then_drains() {
        let mut w = world();
        let r = RankId(0);
        let mut wb = WriteBuffer::new();
        let (n, t) = wb.write_staged(
            &mut w,
            r,
            "/p/gpfs1/out/inter.tbl",
            1 * MIB,
            1,
            SimTime::ZERO,
        );
        assert_eq!(n.unwrap(), 1 * MIB);
        assert_eq!(wb.pending(), 1);
        // Staged write is fast (node-local): well under a PFS round trip.
        assert!(t.since(SimTime::ZERO) < Dur::from_millis(2));
        // The file exists in shm, not on the PFS.
        assert!(w
            .storage
            .pfs()
            .store()
            .lookup("/p/gpfs1/out/inter.tbl")
            .is_none());
        let (moved, t2) = wb.drain(&mut w, r, t);
        assert_eq!(moved.unwrap(), 1 * MIB);
        assert_eq!(wb.pending(), 0);
        assert!(w
            .storage
            .pfs()
            .store()
            .lookup("/p/gpfs1/out/inter.tbl")
            .is_some());
        assert!(t2 > t);
    }

    #[test]
    fn prefetcher_accelerates_sequential_scans() {
        let mut w = world();
        let r = RankId(0);
        let (fd, t) = posix::open(
            &mut w,
            r,
            "/p/gpfs1/seq.dat",
            OpenFlags::write_create(),
            SimTime::ZERO,
        );
        let fd = fd.unwrap();
        let (_, t) = posix::write_pattern(&mut w, r, fd, 32 * MIB, 1, t);
        let mut pf = Prefetcher::new();
        let mut t = t;
        for i in 0..16u64 {
            let (res, t2) = pf.read(&mut w, r, fd, i * MIB, MIB, t);
            res.unwrap();
            t = t2;
        }
        assert!(
            pf.hits >= 12,
            "sequential scan should hit the window, got {}",
            pf.hits
        );
    }

    #[test]
    fn prefetcher_random_access_does_not_hit() {
        let mut w = world();
        let r = RankId(0);
        let (fd, t) = posix::open(
            &mut w,
            r,
            "/p/gpfs1/rnd.dat",
            OpenFlags::write_create(),
            SimTime::ZERO,
        );
        let fd = fd.unwrap();
        let (_, t) = posix::write_pattern(&mut w, r, fd, 32 * MIB, 1, t);
        let mut pf = Prefetcher::new();
        let mut t = t;
        for i in [30u64, 2, 17, 9, 25, 1, 13] {
            let (res, t2) = pf.read(&mut w, r, fd, i * MIB, MIB, t);
            res.unwrap();
            t = t2;
        }
        assert_eq!(pf.hits, 0);
    }

    #[test]
    fn compression_shrinks_normal_and_inflates_uniform() {
        let mut w = world();
        let r = RankId(0);
        let (fd, t) = posix::open(
            &mut w,
            r,
            "/p/gpfs1/c.dat",
            OpenFlags::write_create(),
            SimTime::ZERO,
        );
        let fd = fd.unwrap();
        let cmp = Compression::new(CompressionCfg::default());
        let bytes_before = w.storage.pfs().stats().bytes_written;
        let (res, t) = cmp.write(&mut w, r, fd, 0, 10 * MIB, DistributionFit::Normal, 1, t);
        res.unwrap();
        let normal_written = w.storage.pfs().stats().bytes_written - bytes_before;
        assert!(normal_written < 6 * MIB, "normal data should compress");
        let before2 = w.storage.pfs().stats().bytes_written;
        let (res, _t) = cmp.write(&mut w, r, fd, 0, 10 * MIB, DistributionFit::Uniform, 1, t);
        res.unwrap();
        let uniform_written = w.storage.pfs().stats().bytes_written - before2;
        assert!(uniform_written > 10 * MIB, "uniform data should inflate");
    }

    #[test]
    fn compression_read_pays_cpu_time() {
        let mut w = world();
        let r = RankId(0);
        let (fd, t) = posix::open(
            &mut w,
            r,
            "/p/gpfs1/d.dat",
            OpenFlags::write_create(),
            SimTime::ZERO,
        );
        let fd = fd.unwrap();
        let (_, t) = posix::write_pattern(&mut w, r, fd, 10 * MIB, 1, t);
        let cmp = Compression::new(CompressionCfg::default());
        let (res, t2) = cmp.read(&mut w, r, fd, 0, 8 * MIB, DistributionFit::Gamma, t);
        assert_eq!(res.unwrap(), 8 * MIB);
        // Decompress cost alone is ≥ 8 MiB / 1500 MiB/s ≈ 5.3 ms.
        assert!(t2.since(t) >= Dur::from_millis(5));
    }
}
