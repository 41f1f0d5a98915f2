//! The engine world shared by all rank scripts: storage, tracer, and
//! per-process state.

use hpc_cluster::job::JobAlloc;
use hpc_cluster::mpi::MpiCostModel;
use hpc_cluster::topology::{ClusterSpec, NodeId, RankId};
use recorder_sim::record::{AppId, Layer, OpKind};
use recorder_sim::Tracer;
use sim_core::{Dur, SimTime};
use std::collections::HashMap;
use std::sync::Arc;
use storage_sim::mounts::{FileHandle, StorageSystem};
use vani_rt::Rng;

/// One open POSIX descriptor.
#[derive(Debug, Clone)]
pub struct OpenFile {
    /// The storage-level handle.
    pub handle: FileHandle,
    /// Current file position.
    pub pos: u64,
    /// Interned path for tracing.
    pub path_id: recorder_sim::record::FileId,
    /// Whether writes are permitted.
    pub writable: bool,
    /// Whether writes always go to EOF.
    pub append: bool,
    /// Size as known to this descriptor (used for append positioning).
    pub known_size: u64,
}

/// Per-process (per-rank) state: descriptor table and current application.
#[derive(Debug)]
pub struct ProcState {
    /// POSIX fd table: index = fd.
    pub fds: Vec<Option<OpenFile>>,
    /// The application (workflow step) this process is currently executing.
    pub app: AppId,
    /// Maximum open descriptors (`ulimit -n`).
    pub max_fds: usize,
}

impl ProcState {
    fn new(max_fds: usize) -> Self {
        ProcState {
            fds: Vec::new(),
            app: AppId(0),
            max_fds,
        }
    }

    /// Allocate the lowest free descriptor slot.
    pub(crate) fn alloc_fd(&mut self) -> Option<usize> {
        if let Some(i) = self.fds.iter().position(Option::is_none) {
            return Some(i);
        }
        if self.fds.len() >= self.max_fds {
            return None;
        }
        self.fds.push(None);
        Some(self.fds.len() - 1)
    }
}

/// The shared world the engine threads every rank script through.
pub struct IoWorld {
    /// The job's allocation (rank → node mapping).
    pub alloc: JobAlloc,
    /// The storage system (PFS + node-local tiers).
    pub storage: StorageSystem,
    /// The trace capture sink.
    pub tracer: Tracer,
    /// Per-rank process state.
    pub procs: Vec<ProcState>,
    /// Collective cost model (shared with the engine's configuration).
    pub mpi: MpiCostModel,
    /// Workload-visible RNG (shuffles, sample synthesis).
    pub rng: Rng,
    /// Per-rank stdio stream tables (index = rank).
    pub stdio_streams: Vec<crate::stdio::StreamTable>,
    /// Retry/backoff interceptor the layers route storage calls through.
    pub resilience: crate::resilience::Resilience,
    /// Dataset lists of the H5SIM object headers parsed so far, keyed on
    /// the exact header bytes (successful parses only).
    pub(crate) h5_headers: HashMap<Vec<u8>, Arc<[crate::hdf5::DatasetInfo]>>,
}

impl IoWorld {
    /// Assemble a world for a job on a cluster.
    pub(crate) fn new(
        cluster: &ClusterSpec,
        alloc: JobAlloc,
        storage: StorageSystem,
        tracer: Tracer,
        seed: u64,
    ) -> Self {
        let n = alloc.total_ranks() as usize;
        IoWorld {
            mpi: MpiCostModel::from_node(&cluster.node),
            procs: (0..n).map(|_| ProcState::new(1024)).collect(),
            stdio_streams: (0..n)
                .map(|_| crate::stdio::StreamTable::default())
                .collect(),
            alloc,
            storage,
            tracer,
            rng: Rng::for_component(seed, "workload"),
            resilience: crate::resilience::Resilience::new(seed),
            h5_headers: HashMap::new(),
        }
    }

    /// A Lassen world: standard storage system and an enabled tracer.
    pub fn lassen(nodes: u32, ranks_per_node: u32, seed: u64) -> Self {
        let cluster = ClusterSpec::lassen();
        let spec = hpc_cluster::job::JobSpec::lassen(nodes, ranks_per_node);
        let alloc = JobAlloc::allocate(&cluster, spec);
        let storage = StorageSystem::lassen(nodes as usize, seed);
        IoWorld::new(&cluster, alloc, storage, Tracer::new(), seed)
    }

    /// The node a rank runs on.
    pub fn node_of(&self, rank: RankId) -> NodeId {
        self.alloc.node_of(rank)
    }

    /// Set the application name for a rank (workflow steps switch this).
    pub fn set_app(&mut self, rank: RankId, name: &str) {
        let id = self.tracer.app_id(name);
        self.procs[rank.0 as usize].app = id;
    }

    /// The application id of a rank.
    pub(crate) fn app_of(&self, rank: RankId) -> AppId {
        self.procs[rank.0 as usize].app
    }

    /// Record a CPU compute span for a rank and return its end time.
    pub fn compute(&mut self, rank: RankId, dur: Dur, now: SimTime) -> SimTime {
        self.trace_io(
            rank,
            Layer::App,
            OpKind::Compute,
            now,
            now + dur,
            None,
            0,
            0,
        )
    }

    /// Record a GPU compute span for a rank and return its end time.
    pub fn gpu_compute(&mut self, rank: RankId, dur: Dur, now: SimTime) -> SimTime {
        self.trace_io(
            rank,
            Layer::App,
            OpKind::GpuCompute,
            now,
            now + dur,
            None,
            0,
            0,
        )
    }

    /// Shorthand: capture an I/O record; returns its end time. Public so
    /// workload skeletons can record synthetic transfers (e.g. preload
    /// copies) that bypass the layer functions.
    #[allow(clippy::too_many_arguments)]
    pub fn trace_io(
        &mut self,
        rank: RankId,
        layer: Layer,
        op: OpKind,
        start: SimTime,
        end: SimTime,
        file: Option<recorder_sim::record::FileId>,
        offset: u64,
        bytes: u64,
    ) -> SimTime {
        let node = self.node_of(rank).0;
        let app = self.app_of(rank);
        self.tracer.record(
            rank.0, node, app, layer, op, start, end, file, offset, bytes,
        );
        end
    }

    /// Mutable access to a rank's proc state.
    pub fn proc_mut(&mut self, rank: RankId) -> &mut ProcState {
        &mut self.procs[rank.0 as usize]
    }

    /// Look up an open descriptor.
    pub(crate) fn fd(
        &self,
        rank: RankId,
        fd: crate::posix::Fd,
    ) -> Result<&OpenFile, storage_sim::IoErr> {
        self.procs[rank.0 as usize]
            .fds
            .get(fd.0 as usize)
            .and_then(|f| f.as_ref())
            .ok_or(storage_sim::IoErr::BadFd)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn world_setup_places_ranks() {
        let w = IoWorld::lassen(2, 4, 1);
        assert_eq!(w.procs.len(), 8);
        assert_eq!(w.node_of(RankId(5)).0, 1);
    }

    #[test]
    fn compute_records_land_in_trace() {
        let mut w = IoWorld::lassen(1, 1, 1);
        w.set_app(RankId(0), "test-app");
        let end = w.compute(RankId(0), Dur::from_secs(2), SimTime::ZERO);
        assert_eq!(end, SimTime::from_secs(2));
        let end2 = w.gpu_compute(RankId(0), Dur::from_secs(1), end);
        assert_eq!(end2, SimTime::from_secs(3));
        assert_eq!(w.tracer.len(), 2);
        assert_eq!(
            w.tracer.columnar().op[..2],
            [OpKind::Compute, OpKind::GpuCompute]
        );
        let app = w.tracer.columnar().to_records()[0].app;
        assert_eq!(w.tracer.app_name(app), "test-app");
    }

    #[test]
    fn fd_allocation_reuses_lowest_slot() {
        let mut p = ProcState::new(4);
        assert_eq!(p.alloc_fd(), Some(0));
        p.fds[0] = None; // nothing stored yet; simulate reuse
        assert_eq!(p.alloc_fd(), Some(0));
    }

    #[test]
    fn fd_table_exhausts() {
        let mut p = ProcState::new(2);
        let a = p.alloc_fd().unwrap();
        p.fds[a] = Some(dummy_open());
        let b = p.alloc_fd().unwrap();
        p.fds[b] = Some(dummy_open());
        assert_eq!(p.alloc_fd(), None);
    }

    fn dummy_open() -> OpenFile {
        OpenFile {
            handle: FileHandle {
                tier: storage_sim::mounts::Tier::Pfs,
                key: storage_sim::file::FileKey(0),
            },
            pos: 0,
            path_id: recorder_sim::record::FileId(0),
            writable: true,
            append: false,
            known_size: 0,
        }
    }
}
