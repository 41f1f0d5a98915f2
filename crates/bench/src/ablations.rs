//! Storage-knob ablations: the §IV-D mapping rules evaluated empirically by
//! sweeping one knob at a time and reporting the resulting *simulated* I/O
//! completion time. Simulated time is deterministic, so the table is a
//! pinned `repro` artifact (`repro -- ablations`), not a timing benchmark.

use hpc_cluster::topology::RankId;
use io_layers::hdf5::{self, H5Options};
use io_layers::mpiio::{self, MpiIoHints};
use io_layers::posix::{self, OpenFlags};
use io_layers::world::IoWorld;
use sim_core::units::{KIB, MIB};
use sim_core::{Dur, SimTime};
use vani_core::tables::Table;

/// Stripe-size sweep (§IV-D3): a 64 MiB sequential write under a PFS
/// block size of `block` bytes, client cache off.
fn stripe_size(block: u64) -> SimTime {
    let mut w = IoWorld::lassen(2, 2, Dur::from_secs(600), 3);
    let mut cfg = w.storage.pfs().config().clone();
    cfg.block_size = block;
    cfg.client_cache_bytes = 0;
    w.storage
        .pfs_mut()
        .set_config(cfg)
        .expect("a block size or cache size change is a valid PFS config");
    let r = RankId(0);
    let (fd, mut t) = posix::open(
        &mut w,
        r,
        "/p/gpfs1/s.bin",
        OpenFlags::write_create(),
        SimTime::ZERO,
    );
    let fd = fd.expect("a fresh file system creates the file");
    for _ in 0..4 {
        t = posix::write_pattern(&mut w, r, fd, 16 * MIB, 1, t).1;
    }
    t
}

/// Chunk-cache sweep (§IV-D5): two passes of 64 KiB reads over a chunked
/// HDF5 dataset with a `cache`-byte chunk cache; the second pass hits (or
/// misses) the cache.
fn chunk_cache(cache: u64) -> SimTime {
    let mut w = IoWorld::lassen(1, 1, Dur::from_secs(600), 3);
    hdf5::materialize(
        w.storage.pfs_mut().store_mut(),
        "/p/gpfs1/c.h5",
        &[("d", &[1 << 20, 1, 1], 2, Some(64 * KIB))],
        9,
    )
    .expect("a fresh PFS has room for the dataset");
    let r = RankId(0);
    let opts = H5Options {
        use_mpiio: false,
        chunk_cache_bytes: cache,
    };
    let (f, mut t) = hdf5::open(&mut w, r, "/p/gpfs1/c.h5", opts, SimTime::ZERO);
    let mut f = f.expect("the dataset was just materialized");
    for _ in 0..2 {
        for i in 0..16u64 {
            t = f.read(&mut w, r, "d", i * 64 * KIB, 64 * KIB, t).1;
        }
    }
    t
}

/// Tier comparison (§V): 256 writes of 4 KiB to `path`, the PFS or
/// node-local shm, client cache off.
fn small_op_tier(path: &str) -> SimTime {
    let mut w = IoWorld::lassen(1, 1, Dur::from_secs(600), 3);
    let mut cfg = w.storage.pfs().config().clone();
    cfg.client_cache_bytes = 0;
    w.storage
        .pfs_mut()
        .set_config(cfg)
        .expect("a block size or cache size change is a valid PFS config");
    let r = RankId(0);
    let (fd, mut t) = posix::open(&mut w, r, path, OpenFlags::write_create(), SimTime::ZERO);
    let fd = fd.expect("a fresh file system creates the file");
    for _ in 0..256 {
        t = posix::write_pattern(&mut w, r, fd, 4 * KIB, 1, t).1;
    }
    t
}

/// Collective-buffering sweep (§IV-D1): 16 ranks on 4 nodes read a shared
/// 64 MiB extent collectively through `cb` aggregators.
fn cb_nodes(cb: u32) -> SimTime {
    let mut w = IoWorld::lassen(4, 4, Dur::from_secs(600), 3);
    let r = RankId(0);
    let (fd, t) = mpiio::open(
        &mut w,
        r,
        "/p/gpfs1/cb.bin",
        OpenFlags::write_create(),
        SimTime::ZERO,
    );
    let fd = fd.expect("a fresh file system creates the file");
    let (_, t) = mpiio::write_at(&mut w, r, fd, 0, 64 * MIB, 1, t);
    let hints = MpiIoHints {
        cb_nodes: Some(cb),
        cb_buffer_size: 4 * MIB,
    };
    let mut end = t;
    for rank_idx in 0..16u32 {
        let role = mpiio::plan_collective(rank_idx, 16, 4, (0, 64 * MIB), &hints);
        let rr = RankId(rank_idx);
        let (fd_r, t_open) = mpiio::open(&mut w, rr, "/p/gpfs1/cb.bin", OpenFlags::read_only(), t);
        let (_, t_done) = mpiio::collective_read_part(
            &mut w,
            rr,
            fd_r.expect("the file was just written"),
            &role,
            &hints,
            t_open,
        );
        end = end.max(t_done);
    }
    end
}

/// Render every ablation point, one row each, as the `ablations` artifact.
pub fn render() -> String {
    let mut rows: Vec<(&str, String, SimTime)> = Vec::new();
    for block in [MIB, 4 * MIB, 8 * MIB, 16 * MIB] {
        let point = format!("{} MiB", block / MIB);
        rows.push(("stripe size", point, stripe_size(block)));
    }
    for cache in [4 * KIB, 256 * KIB, 4 * MIB] {
        let point = if cache < MIB {
            format!("{} KiB", cache / KIB)
        } else {
            format!("{} MiB", cache / MIB)
        };
        rows.push(("chunk cache", point, chunk_cache(cache)));
    }
    for (tier, path) in [("gpfs", "/p/gpfs1/t.bin"), ("shm", "/dev/shm/t.bin")] {
        rows.push(("small-op tier", tier.to_string(), small_op_tier(path)));
    }
    for cb in [1, 4, 16] {
        rows.push(("cb_nodes", cb.to_string(), cb_nodes(cb)));
    }
    Table {
        title: "Ablations: simulated I/O completion time, one storage knob at a time".into(),
        header: vec!["Knob".into(), "Setting".into(), "Simulated (s)".into()],
        rows: rows
            .into_iter()
            .map(|(knob, point, t)| vec![knob.into(), point, format!("{:.6}", t.as_secs_f64())])
            .collect(),
    }
    .render()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn each_knob_moves_completion_time_the_way_the_mapping_rules_predict() {
        assert!(small_op_tier("/dev/shm/t.bin") < small_op_tier("/p/gpfs1/t.bin"));
        assert!(chunk_cache(4 * MIB) <= chunk_cache(4 * KIB));
    }
}
