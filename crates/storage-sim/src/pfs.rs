//! A GPFS-like parallel file system simulator.
//!
//! The model reproduces the mechanisms the paper's characterization hinges
//! on:
//!
//! * **Striped data servers** — requests are split into `block_size` stripes
//!   routed to a pool of NSD servers; large transfers parallelize across
//!   servers while small transfers are dominated by per-op overhead (CM1's
//!   4 KiB writes at ~64 MiB/s vs 64 GiB/s aggregate large reads).
//! * **Metadata servers with queueing** — every open/create/close/stat is a
//!   serviced request on a small MDS pool, so metadata storms (CosmoFlow's
//!   collective HDF5 opens) saturate and dominate I/O time.
//! * **Distributed lock tokens** — a data operation on a file opened by more
//!   than one node pays a token-transfer cost whenever the previous operation
//!   came from a different node. Single-writer files keep their token (CM1),
//!   file-per-process workloads never share (HACC), while interleaved shared
//!   access (CosmoFlow over MPI-IO) thrashes.
//! * **Per-node client write-behind cache** — small writes absorb at memory
//!   speed and drain asynchronously; reads of data just written on the same
//!   node hit the cache (Montage's transient 600–1300 MiB/s spikes).
//! * **Service-time jitter** — deterministic pseudo-random variation that
//!   spreads per-rank bandwidth the way HACC's Figure 2(c) shows.

use crate::err::IoErr;
use crate::faults::FaultPlan;
use crate::file::{ContentView, FileKey, FileStore, Segment};
use crate::tenancy::InterferenceSchedule;
use hpc_cluster::topology::NodeId;
use sim_core::units::{GIB, MIB, TIB};
use sim_core::{BandwidthChannel, Dur, ServerPool, ServerQueue, SimTime};
use std::collections::{HashMap, HashSet, VecDeque};
use vani_rt::Rng;

/// Tunable parameters of the parallel file system (the knobs the paper's
/// optimizer reconfigures live here and in the MPI-IO layer).
#[derive(Debug, Clone, PartialEq)]
pub struct GpfsConfig {
    /// Number of NSD data servers.
    pub n_data_servers: usize,
    /// Per-server streaming bandwidth, bytes/second.
    pub server_bw: u64,
    /// Fixed per-request service overhead at a data server.
    pub server_op_overhead: Dur,
    /// Stripe/block size: requests are split at this granularity. This is
    /// the "stripe size" knob of §IV-D3.
    pub block_size: u64,
    /// Number of metadata servers.
    pub n_meta_servers: usize,
    /// Service time of one metadata operation.
    pub meta_op_cost: Dur,
    /// Whether byte-range lock tokens are enforced (the ROMIO/GPFS
    /// "locking" knob of §IV-D3).
    pub lock_enabled: bool,
    /// Cost of transferring a file's lock token between nodes.
    pub lock_cost: Dur,
    /// Per-node client write-behind cache capacity; 0 disables caching.
    pub client_cache_bytes: u64,
    /// Client-side memory bandwidth for cache hits.
    pub client_mem_bw: u64,
    /// Fixed client/syscall overhead per operation.
    pub client_overhead: Dur,
    /// Total file-system capacity in bytes.
    pub capacity: u64,
    /// Multiplicative service-time jitter amplitude (0 = deterministic).
    pub jitter_amp: f64,
}

impl GpfsConfig {
    /// Calibrated to the paper's testbed (Table IX: 64 GiB/s with 32-node
    /// IOR, >2000 physical disks behind ~96 effective servers, 24 PiB).
    pub fn lassen() -> Self {
        GpfsConfig {
            n_data_servers: 96,
            server_bw: 700 * MIB,
            server_op_overhead: Dur::from_micros(45),
            block_size: 8 * MIB,
            n_meta_servers: 8,
            meta_op_cost: Dur::from_micros(40),
            lock_enabled: true,
            lock_cost: Dur::from_micros(400),
            client_cache_bytes: 256 * MIB,
            client_mem_bw: 8 * GIB,
            client_overhead: Dur::from_micros(12),
            capacity: 24 * 1024 * TIB,
            jitter_amp: 0.25,
        }
    }

    /// A small, fast-to-simulate configuration for unit tests.
    pub fn tiny() -> Self {
        GpfsConfig {
            n_data_servers: 4,
            server_bw: 100 * MIB,
            server_op_overhead: Dur::from_micros(50),
            block_size: 1 * MIB,
            n_meta_servers: 1,
            meta_op_cost: Dur::from_micros(50),
            lock_enabled: true,
            lock_cost: Dur::from_micros(200),
            client_cache_bytes: 4 * MIB,
            client_mem_bw: 4 * GIB,
            client_overhead: Dur::from_micros(10),
            capacity: 64 * GIB,
            jitter_amp: 0.0,
        }
    }
}

/// Aggregate counters the shared-storage entity (Table IX) reports.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PfsStats {
    /// Bytes read from servers (cache hits excluded).
    pub bytes_read: u64,
    /// Bytes written (including cached writes).
    pub bytes_written: u64,
    /// Data operations served.
    pub data_ops: u64,
    /// Metadata operations served.
    pub meta_ops: u64,
    /// Reads satisfied from the client cache.
    pub cache_hits: u64,
    /// Lock-token transfers performed.
    pub token_transfers: u64,
    /// Transient errors injected by the active fault plan.
    pub transient_errors: u64,
    /// Stripes rerouted away from servers in an outage window.
    pub rerouted_stripes: u64,
    /// Bytes carried by rerouted stripes.
    pub rerouted_bytes: u64,
    /// Metadata operations serviced under an MDS brownout.
    pub browned_meta_ops: u64,
    /// Data transfers whose stripes were stretched by competing tenants.
    pub contended_data_ops: u64,
    /// Metadata operations stretched by competing tenants.
    pub contended_meta_ops: u64,
    /// Total extra service time attributable to tenant contention, in
    /// nanoseconds (the "noisy neighbor tax" the fleet reports surface).
    pub tenant_delay_nanos: u64,
}

#[derive(Debug, Default)]
struct NodeCache {
    /// Bytes of each file resident in this node's cache.
    files: HashMap<FileKey, u64>,
    /// FIFO eviction order.
    order: VecDeque<FileKey>,
    used: u64,
}

impl NodeCache {
    fn insert(&mut self, key: FileKey, bytes: u64, cap: u64) {
        if cap == 0 || bytes > cap {
            return;
        }
        let entry = self.files.entry(key).or_insert_with(|| {
            self.order.push_back(key);
            0
        });
        *entry += bytes;
        self.used += bytes;
        while self.used > cap {
            let Some(victim) = self.order.pop_front() else {
                break;
            };
            if let Some(b) = self.files.remove(&victim) {
                self.used -= b.min(self.used);
            }
        }
    }

    fn holds(&self, key: FileKey, bytes: u64) -> bool {
        self.files.get(&key).is_some_and(|&b| b >= bytes)
    }

    fn forget(&mut self, key: FileKey) {
        if let Some(b) = self.files.remove(&key) {
            self.used -= b.min(self.used);
        }
    }
}

/// The GPFS-like parallel file system.
pub struct GpfsSim {
    cfg: GpfsConfig,
    store: FileStore,
    data_servers: ServerPool,
    meta_servers: ServerPool,
    nics: Vec<BandwidthChannel>,
    lock_queues: HashMap<FileKey, ServerQueue>,
    /// Which node last wrote each (file, block): byte-range write tokens at
    /// block granularity.
    block_writer: HashMap<(FileKey, u64), NodeId>,
    /// Nodes that currently have each file open.
    openers: HashMap<FileKey, HashSet<NodeId>>,
    caches: Vec<NodeCache>,
    /// Per-node write-behind backlog: (flush completion, bytes) entries.
    pending_flush: Vec<VecDeque<(SimTime, u64)>>,
    /// Per-node running sum of backlog bytes.
    pending_bytes: Vec<u64>,
    /// Completion time of the last asynchronous flush per file.
    flush_horizon: HashMap<FileKey, SimTime>,
    rng: Rng,
    /// Active fault schedule; `None` means the fault plane is fully inert
    /// (no extra RNG draws, bit-identical to pre-fault behavior).
    fault_plan: Option<FaultPlan>,
    /// Dedicated RNG stream for transient-error draws, so activating a
    /// plan never perturbs the service-jitter stream.
    fault_rng: Rng,
    /// Competing-tenant load schedule; `None` means a dedicated machine
    /// (no extra draws, bit-identical to pre-tenancy behavior).
    interference: Option<InterferenceSchedule>,
    /// Bytes rerouted *away* from each server while it was down — the
    /// per-server outage impact the analyzer reports.
    rerouted_per_server: Vec<u64>,
    stats: PfsStats,
}

impl GpfsSim {
    /// Build the file system serving `n_nodes` clients whose NICs have the
    /// given bandwidth and latency.
    pub fn new(cfg: GpfsConfig, n_nodes: usize, nic_bw: u64, nic_latency: Dur, seed: u64) -> Self {
        GpfsSim {
            store: FileStore::with_capacity(cfg.capacity),
            data_servers: ServerPool::new(cfg.n_data_servers),
            meta_servers: ServerPool::new(cfg.n_meta_servers),
            nics: (0..n_nodes)
                .map(|_| BandwidthChannel::new(nic_bw, nic_latency))
                .collect(),
            lock_queues: HashMap::new(),
            block_writer: HashMap::new(),
            openers: HashMap::new(),
            caches: (0..n_nodes).map(|_| NodeCache::default()).collect(),
            pending_flush: (0..n_nodes).map(|_| VecDeque::new()).collect(),
            pending_bytes: vec![0; n_nodes],
            flush_horizon: HashMap::new(),
            rng: Rng::for_component(seed, "gpfs"),
            fault_plan: None,
            fault_rng: Rng::for_component(seed, "faults"),
            interference: None,
            rerouted_per_server: vec![0; cfg.n_data_servers],
            stats: PfsStats::default(),
            cfg,
        }
    }

    /// The active configuration.
    pub fn config(&self) -> &GpfsConfig {
        &self.cfg
    }

    /// Replace the configuration (used by the optimizer's reconfiguration
    /// passes). Capacity changes take effect in the store — shrinking below
    /// the bytes already stored is rejected with `NoSpace`. Server pools
    /// are rebuilt when their counts change; queues are preserved otherwise.
    pub fn set_config(&mut self, cfg: GpfsConfig) -> Result<(), IoErr> {
        self.store.set_capacity(Some(cfg.capacity))?;
        if cfg.n_data_servers != self.cfg.n_data_servers {
            self.data_servers = ServerPool::new(cfg.n_data_servers);
            self.rerouted_per_server = vec![0; cfg.n_data_servers];
        }
        if cfg.n_meta_servers != self.cfg.n_meta_servers {
            self.meta_servers = ServerPool::new(cfg.n_meta_servers);
        }
        self.cfg = cfg;
        Ok(())
    }

    /// Install (or clear, with an empty plan) the fault schedule. An empty
    /// plan leaves the simulator bit-identical to one that never had a
    /// plan installed.
    pub fn set_fault_plan(&mut self, plan: FaultPlan) {
        self.fault_plan = if plan.is_empty() { None } else { Some(plan) };
    }

    /// Install (or clear, with an empty schedule) the competing-tenant
    /// load schedule. An empty schedule leaves the simulator bit-identical
    /// to one that never had a schedule installed — this is what lets a
    /// single-tenant fleet reproduce dedicated-run results exactly.
    pub fn set_interference(&mut self, schedule: InterferenceSchedule) {
        self.interference = if schedule.is_empty() {
            None
        } else {
            Some(schedule)
        };
    }

    /// Bytes rerouted away from each NSD server while it was in an outage
    /// window (indexed by server; the per-server outage impact).
    pub fn rerouted_by_server(&self) -> &[u64] {
        &self.rerouted_per_server
    }

    /// Aggregate counters.
    pub fn stats(&self) -> &PfsStats {
        &self.stats
    }

    /// The namespace, for assertions and dataset inspection.
    pub fn store(&self) -> &FileStore {
        &self.store
    }

    /// Mutable namespace access (used by preload passes that materialize
    /// datasets without simulating the producer application).
    pub fn store_mut(&mut self) -> &mut FileStore {
        &mut self.store
    }

    fn jittered(&mut self, d: Dur) -> Dur {
        if self.cfg.jitter_amp <= 0.0 {
            d
        } else {
            Dur::from_secs_f64(d.as_secs_f64() * self.rng.jitter(self.cfg.jitter_amp))
        }
    }

    /// Draw a transient data-path fault, if the active plan injects them.
    /// Runs before any store mutation so a retried write never lands twice.
    fn transient_data_fault(&mut self) -> Result<(), IoErr> {
        let rate = self.fault_plan.as_ref().map_or(0.0, |p| p.data_error_rate);
        if rate > 0.0 && self.fault_rng.bernoulli(rate) {
            self.stats.transient_errors += 1;
            return Err(IoErr::TransientIo);
        }
        Ok(())
    }

    /// Draw a transient metadata-path fault, if the active plan injects them.
    fn transient_meta_fault(&mut self) -> Result<(), IoErr> {
        let rate = self.fault_plan.as_ref().map_or(0.0, |p| p.meta_error_rate);
        if rate > 0.0 && self.fault_rng.bernoulli(rate) {
            self.stats.transient_errors += 1;
            return Err(IoErr::ServerUnavailable);
        }
        Ok(())
    }

    fn meta_service(&mut self, now: SimTime) -> SimTime {
        self.stats.meta_ops += 1;
        let mut svc = self.jittered(self.cfg.meta_op_cost);
        let slow = self
            .fault_plan
            .as_ref()
            .map_or(1.0, |p| p.mds_slowdown(now));
        if slow > 1.0 {
            svc = Dur::from_secs_f64(svc.as_secs_f64() * slow);
            self.stats.browned_meta_ops += 1;
        }
        let tenant = self
            .interference
            .as_ref()
            .map_or(1.0, |i| i.meta_factor(now));
        if tenant > 1.0 {
            let base = svc.as_secs_f64();
            svc = Dur::from_secs_f64(base * tenant);
            self.stats.contended_meta_ops += 1;
            self.stats.tenant_delay_nanos += (base * (tenant - 1.0) * 1e9) as u64;
        }
        let (_, end) = self.meta_servers.serve(now, svc);
        end
    }

    /// One bare metadata operation (directory scan, lookup miss, etc.).
    pub fn meta_op(&mut self, now: SimTime) -> SimTime {
        self.meta_service(now + self.cfg.client_overhead)
    }

    /// Open (optionally creating) a file. Costs one MDS op for the lookup
    /// plus one more when the file is created.
    pub fn open(
        &mut self,
        node: NodeId,
        path: &str,
        create: bool,
        exclusive: bool,
        now: SimTime,
    ) -> Result<(FileKey, SimTime), IoErr> {
        self.transient_meta_fault()?;
        let t = now + self.cfg.client_overhead;
        let t = self.meta_service(t);
        let existing = self.store.lookup(path);
        let key = match (existing, create) {
            (Some(k), _) if exclusive && create => {
                // Paid the lookup, then fail like a real MDS round-trip.
                let _ = k;
                return Err(IoErr::AlreadyExists);
            }
            (Some(k), _) => k,
            (None, true) => {
                let k = self.store.create(path, exclusive)?;
                let t_create = self.meta_service(t);
                return self.finish_open(node, k, t_create).map(|e| (k, e));
            }
            (None, false) => return Err(IoErr::NotFound),
        };
        if self.store.get(key)?.is_dir {
            return Err(IoErr::IsDir);
        }
        self.finish_open(node, key, t).map(|e| (key, e))
    }

    fn finish_open(&mut self, node: NodeId, key: FileKey, end: SimTime) -> Result<SimTime, IoErr> {
        self.openers.entry(key).or_default().insert(node);
        Ok(end)
    }

    /// Close a file: one MDS op. Write-behind flushes keep draining in the
    /// background (GPFS semantics); only `fsync` waits for them. Closing
    /// releases the node's cache tokens for the file, so a later reader —
    /// even on the same node — goes back to the servers (this is why the
    /// paper's intermediate-file re-reads averaged only ~5 MB/s per request
    /// while writes enjoyed write-behind at ~91 MB/s, Fig. 5c).
    pub(crate) fn close(&mut self, node: NodeId, key: FileKey, now: SimTime) -> SimTime {
        if let Some(set) = self.openers.get_mut(&key) {
            set.remove(&node);
        }
        self.caches[node.0 as usize].forget(key);
        self.meta_service(now + self.cfg.client_overhead)
    }

    /// Stat: one MDS op.
    pub(crate) fn stat(&mut self, path: &str, now: SimTime) -> Result<(u64, SimTime), IoErr> {
        self.transient_meta_fault()?;
        let end = self.meta_service(now + self.cfg.client_overhead);
        let key = self.store.lookup(path).ok_or(IoErr::NotFound)?;
        Ok((self.store.size_of(key)?, end))
    }

    /// Unlink: one MDS op.
    pub(crate) fn unlink(&mut self, path: &str, now: SimTime) -> Result<SimTime, IoErr> {
        self.transient_meta_fault()?;
        let end = self.meta_service(now + self.cfg.client_overhead);
        if let Some(key) = self.store.lookup(path) {
            self.block_writer.retain(|(k, _), _| *k != key);
            self.lock_queues.remove(&key);
            self.openers.remove(&key);
            for c in &mut self.caches {
                c.forget(key);
            }
        }
        self.store.unlink(path)?;
        Ok(end)
    }

    /// Whether the file is currently open on more than one node.
    fn is_shared(&self, key: FileKey) -> bool {
        self.openers.get(&key).is_some_and(|s| s.len() > 1)
    }

    /// Acquire byte-range lock tokens for a data op covering
    /// `[offset, offset+bytes)`. GPFS tokens are tracked at block
    /// granularity: a *write* to a block last written by another node, or a
    /// *read* of a block with a foreign dirty writer, transfers the token
    /// (serialized on the file's lock queue). Disjoint-region parallel
    /// writers therefore only conflict at block boundaries, while
    /// interleaved small shared accesses thrash.
    fn acquire_token(
        &mut self,
        node: NodeId,
        key: FileKey,
        offset: u64,
        bytes: u64,
        is_write: bool,
        now: SimTime,
    ) -> SimTime {
        if !self.cfg.lock_enabled || !self.is_shared(key) || bytes == 0 {
            return now;
        }
        let block = self.cfg.block_size.max(1);
        let first = offset / block;
        let last = (offset + bytes - 1) / block;
        let mut transfers = 0u64;
        for b in first..=last {
            match self.block_writer.get(&(key, b)) {
                Some(&holder) if holder == node => {}
                Some(_) => {
                    // Foreign dirty block: revoke.
                    transfers += 1;
                    if is_write {
                        self.block_writer.insert((key, b), node);
                    } else {
                        self.block_writer.remove(&(key, b));
                    }
                }
                None => {
                    if is_write {
                        // First writer acquires the range: one transfer.
                        transfers += 1;
                        self.block_writer.insert((key, b), node);
                    }
                }
            }
        }
        if transfers == 0 {
            return now;
        }
        self.stats.token_transfers += transfers;
        let svc = self.jittered(self.cfg.lock_cost) * transfers;
        let q = self.lock_queues.entry(key).or_default();
        let (_, end) = q.serve(now, svc);
        end
    }

    /// Move `bytes` through the node's NIC and stripe them over the data
    /// servers; returns completion time. Under a fault plan, stripes whose
    /// home server is in an outage window are rerouted to the next
    /// surviving server (the survivors absorb the load through queueing
    /// contention); brownouts and straggler nodes inflate stripe service
    /// time. Fails with `ServerUnavailable` only when every server is down.
    fn stripe_transfer(
        &mut self,
        node: NodeId,
        key: FileKey,
        offset: u64,
        bytes: u64,
        now: SimTime,
    ) -> Result<SimTime, IoErr> {
        let nic = &mut self.nics[node.0 as usize];
        let after_nic = nic.transfer(now, bytes);
        let n = self.cfg.n_data_servers.max(1);
        // Precompute the fault picture at arrival time: the outage set and
        // the combined brownout/straggler slowdown are constant across the
        // stripes of one transfer.
        let (slow, down) = match &self.fault_plan {
            Some(p) => (
                p.data_slowdown(after_nic) * p.node_slowdown(node.0),
                (0..n)
                    .map(|s| p.server_down(s as u32, after_nic))
                    .collect::<Vec<bool>>(),
            ),
            None => (1.0, Vec::new()),
        };
        if !down.is_empty() && down.iter().all(|&d| d) {
            return Err(IoErr::ServerUnavailable);
        }
        // Competing-tenant stretch, like the fault picture constant across
        // the stripes of one transfer (evaluated at arrival time).
        let tenant = self
            .interference
            .as_ref()
            .map_or(1.0, |i| i.data_factor(after_nic));
        if tenant > 1.0 {
            self.stats.contended_data_ops += 1;
        }
        let mut end = after_nic;
        let block = self.cfg.block_size.max(1);
        let mut off = offset;
        let mut left = bytes;
        while left > 0 {
            let in_block = (block - (off % block)).min(left);
            let stripe_idx = (key.0 + off / block) as usize;
            let svc = self.cfg.server_op_overhead + Dur::for_transfer(in_block, self.cfg.server_bw);
            let mut svc = self.jittered(svc);
            if slow > 1.0 {
                svc = Dur::from_secs_f64(svc.as_secs_f64() * slow);
            }
            if tenant > 1.0 {
                let base = svc.as_secs_f64();
                svc = Dur::from_secs_f64(base * tenant);
                self.stats.tenant_delay_nanos += (base * (tenant - 1.0) * 1e9) as u64;
            }
            let mut target = stripe_idx;
            if !down.is_empty() && down[target % n] {
                let home = target % n;
                let probe = (1..n)
                    .find(|&p| !down[(target + p) % n])
                    .expect("a live server exists");
                target += probe;
                self.rerouted_per_server[home] += in_block;
                self.stats.rerouted_stripes += 1;
                self.stats.rerouted_bytes += in_block;
            }
            let (_, stripe_end) = self.data_servers.serve_on(target, after_nic, svc);
            end = end.max(stripe_end);
            off += in_block;
            left -= in_block;
        }
        Ok(end)
    }

    /// Write a segment. Small writes absorb into the node's write-behind
    /// cache (memory speed) and drain asynchronously; writes larger than the
    /// cache go straight to the servers.
    pub(crate) fn write(
        &mut self,
        node: NodeId,
        key: FileKey,
        offset: u64,
        seg: Segment,
        now: SimTime,
    ) -> Result<(u64, SimTime), IoErr> {
        self.transient_data_fault()?;
        let bytes = seg.len();
        let n = self.store.write(key, offset, seg)?;
        self.stats.bytes_written += bytes;
        self.stats.data_ops += 1;
        let t0 = now + self.cfg.client_overhead;
        let locked = self.acquire_token(node, key, offset, bytes, true, t0);
        // Write-behind absorbs only while the node's flush backlog fits in
        // the cache; a saturated cache forces write-through (this is what
        // throttles HACC's 632 MiB/rank checkpoints down to server speed).
        let ni = node.0 as usize;
        while let Some(&(end, b)) = self.pending_flush[ni].front() {
            if end <= now {
                self.pending_flush[ni].pop_front();
                self.pending_bytes[ni] -= b.min(self.pending_bytes[ni]);
            } else {
                break;
            }
        }
        let cacheable = self.cfg.client_cache_bytes > 0
            && bytes <= self.cfg.client_cache_bytes
            && self.pending_bytes[ni] + bytes <= self.cfg.client_cache_bytes;
        if cacheable {
            // Absorb at memory speed; schedule the drain in the background.
            let absorb_end = locked + Dur::for_transfer(bytes, self.cfg.client_mem_bw);
            let flush_end = self.stripe_transfer(node, key, offset, bytes, absorb_end)?;
            let horizon = self.flush_horizon.entry(key).or_insert(SimTime::ZERO);
            *horizon = (*horizon).max(flush_end);
            self.pending_flush[ni].push_back((flush_end, bytes));
            self.pending_bytes[ni] += bytes;
            self.caches[node.0 as usize].insert(key, bytes, self.cfg.client_cache_bytes);
            Ok((n, absorb_end))
        } else {
            let end = self.stripe_transfer(node, key, offset, bytes, locked)?;
            Ok((n, end))
        }
    }

    /// Convenience: write a synthetic pattern of `len` bytes.
    pub fn write_pattern(
        &mut self,
        node: NodeId,
        key: FileKey,
        offset: u64,
        len: u64,
        seed: u64,
        now: SimTime,
    ) -> Result<(u64, SimTime), IoErr> {
        self.write(node, key, offset, Segment::Pattern { seed, len }, now)
    }

    fn read_timing(
        &mut self,
        node: NodeId,
        key: FileKey,
        offset: u64,
        got: u64,
        now: SimTime,
    ) -> Result<SimTime, IoErr> {
        self.stats.data_ops += 1;
        let t0 = now + self.cfg.client_overhead;
        if got == 0 {
            return Ok(t0);
        }
        if self.caches[node.0 as usize].holds(key, got) {
            // Client cache hit: memory speed, no server involvement.
            self.stats.cache_hits += 1;
            return Ok(t0 + Dur::for_transfer(got, self.cfg.client_mem_bw));
        }
        self.stats.bytes_read += got;
        let locked = self.acquire_token(node, key, offset, got, false, t0);
        self.stripe_transfer(node, key, offset, got, locked)
    }

    /// Timing-only read: returns bytes available and completion time.
    pub(crate) fn read_len(
        &mut self,
        node: NodeId,
        key: FileKey,
        offset: u64,
        len: u64,
        now: SimTime,
    ) -> Result<(u64, SimTime), IoErr> {
        self.transient_data_fault()?;
        let got = self.store.readable_len(key, offset, len)?;
        let end = self.read_timing(node, key, offset, got, now)?;
        Ok((got, end))
    }

    /// Content read: a zero-copy view of the bytes read, timed like
    /// [`read_len`](Self::read_len).
    pub(crate) fn read_view(
        &mut self,
        node: NodeId,
        key: FileKey,
        offset: u64,
        len: u64,
        now: SimTime,
    ) -> Result<(ContentView, SimTime), IoErr> {
        self.transient_data_fault()?;
        let view = self.store.view(key, offset, len)?;
        let end = self.read_timing(node, key, offset, view.len(), now)?;
        Ok((view, end))
    }

    /// Wait for this file's outstanding write-behind flushes, then one MDS op.
    pub(crate) fn fsync(&mut self, key: FileKey, now: SimTime) -> SimTime {
        let start = now.max(
            self.flush_horizon
                .get(&key)
                .copied()
                .unwrap_or(SimTime::ZERO),
        );
        self.meta_service(start + self.cfg.client_overhead)
    }

    /// Observed aggregate data-server bandwidth ceiling, bytes/second.
    pub fn aggregate_bw(&self) -> u64 {
        self.cfg.server_bw * self.cfg.n_data_servers as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_core::units::KIB;

    fn sim(cfg: GpfsConfig) -> GpfsSim {
        GpfsSim::new(cfg, 4, 1 * GIB, Dur::from_micros(2), 7)
    }

    #[test]
    fn open_creates_and_costs_metadata() {
        let mut fs = sim(GpfsConfig::tiny());
        let (k, end) = fs
            .open(NodeId(0), "/p/gpfs1/a.bin", true, false, SimTime::ZERO)
            .unwrap();
        assert!(end > SimTime::ZERO);
        assert_eq!(fs.stats().meta_ops, 2); // lookup + create
        let (k2, _) = fs
            .open(NodeId(1), "/p/gpfs1/a.bin", false, false, end)
            .unwrap();
        assert_eq!(k, k2);
        assert_eq!(fs.stats().meta_ops, 3);
    }

    #[test]
    fn open_missing_fails_but_still_costs_lookup() {
        let mut fs = sim(GpfsConfig::tiny());
        let r = fs.open(NodeId(0), "/p/gpfs1/nope", false, false, SimTime::ZERO);
        assert_eq!(r.unwrap_err(), IoErr::NotFound);
        assert_eq!(fs.stats().meta_ops, 1);
    }

    #[test]
    fn small_write_absorbs_into_cache_and_read_hits() {
        let mut fs = sim(GpfsConfig::tiny());
        let (k, t) = fs
            .open(NodeId(0), "/f", true, false, SimTime::ZERO)
            .unwrap();
        let (n, wend) = fs.write_pattern(NodeId(0), k, 0, 64 * KIB, 1, t).unwrap();
        assert_eq!(n, 64 * KIB);
        // Cached write is much faster than a synchronous 64 KiB PFS write:
        // memory absorb ≈ 16 µs vs server path ≈ 50 µs + transfer.
        let absorb = wend.since(t);
        assert!(absorb < Dur::from_micros(200), "absorb took {absorb}");
        // Same-node read hits the cache.
        let hits_before = fs.stats().cache_hits;
        let (_, rend) = fs.read_len(NodeId(0), k, 0, 64 * KIB, wend).unwrap();
        assert_eq!(fs.stats().cache_hits, hits_before + 1);
        assert!(rend.since(wend) < Dur::from_micros(100));
        // Remote read misses it and pays the server path.
        let (_, rend2) = fs.read_len(NodeId(1), k, 0, 64 * KIB, wend).unwrap();
        assert!(rend2.since(wend) > Dur::from_micros(100));
    }

    #[test]
    fn large_write_bypasses_cache_and_stripes() {
        let mut cfg = GpfsConfig::tiny();
        cfg.client_cache_bytes = 1 * MIB;
        let mut fs = sim(cfg);
        let (k, t) = fs
            .open(NodeId(0), "/big", true, false, SimTime::ZERO)
            .unwrap();
        // 8 MiB write at 1 MiB blocks: 8 stripes over 4 servers → 2 rounds.
        let (_, end) = fs.write_pattern(NodeId(0), k, 0, 8 * MIB, 1, t).unwrap();
        let elapsed = end.since(t).as_secs_f64();
        // Server-side: 2 sequential MiB per server at 100 MiB/s ≈ 20 ms,
        // NIC: 8 MiB at 1 GiB/s ≈ 8 ms (pipelined before servers).
        assert!(elapsed > 0.015, "too fast: {elapsed}");
        assert!(elapsed < 0.1, "too slow: {elapsed}");
    }

    #[test]
    fn small_ops_are_overhead_dominated() {
        let mut cfg = GpfsConfig::tiny();
        cfg.client_cache_bytes = 0; // force synchronous writes
        let mut fs = sim(cfg);
        let (k, mut t) = fs
            .open(NodeId(0), "/log", true, false, SimTime::ZERO)
            .unwrap();
        let start = t;
        for i in 0..100u64 {
            let (_, end) = fs
                .write_pattern(NodeId(0), k, i * 4096, 4096, 1, t)
                .unwrap();
            t = end;
        }
        let bw = t.since(start).bandwidth(100 * 4096);
        // 4 KiB per ~100 µs ≈ 40 MiB/s: far below the 400 MiB/s aggregate.
        assert!(bw < 80.0 * MIB as f64, "bw {bw}");
    }

    #[test]
    fn token_transfers_only_on_cross_node_sharing() {
        let mut cfg = GpfsConfig::tiny();
        cfg.client_cache_bytes = 0;
        let mut fs = sim(cfg);
        let (k, t0) = fs
            .open(NodeId(0), "/shared", true, false, SimTime::ZERO)
            .unwrap();
        let (_, t1) = fs.open(NodeId(1), "/shared", false, false, t0).unwrap();
        // Node 0 writes repeatedly: one transfer (initial grab), then none.
        let (_, t2) = fs.write_pattern(NodeId(0), k, 0, 4096, 1, t1).unwrap();
        let (_, t3) = fs.write_pattern(NodeId(0), k, 4096, 4096, 1, t2).unwrap();
        assert_eq!(fs.stats().token_transfers, 1);
        // Node 1 touches it: token moves.
        let (_, t4) = fs.read_len(NodeId(1), k, 0, 4096, t3).unwrap();
        assert_eq!(fs.stats().token_transfers, 2);
        // Ping-pong: every alternation transfers.
        let (_, t5) = fs.write_pattern(NodeId(0), k, 0, 4096, 1, t4).unwrap();
        let _ = fs.read_len(NodeId(1), k, 0, 4096, t5).unwrap();
        assert_eq!(fs.stats().token_transfers, 4);
    }

    #[test]
    fn unshared_files_never_pay_tokens() {
        let mut fs = sim(GpfsConfig::tiny());
        let (k, t) = fs
            .open(NodeId(2), "/fpp.2", true, false, SimTime::ZERO)
            .unwrap();
        let mut t = t;
        for i in 0..10 {
            let (_, end) = fs
                .write_pattern(NodeId(2), k, i * 4096, 4096, 1, t)
                .unwrap();
            t = end;
        }
        assert_eq!(fs.stats().token_transfers, 0);
    }

    #[test]
    fn fsync_waits_for_background_flush() {
        let mut fs = sim(GpfsConfig::tiny());
        let (k, t) = fs
            .open(NodeId(0), "/f", true, false, SimTime::ZERO)
            .unwrap();
        let (_, wend) = fs.write_pattern(NodeId(0), k, 0, 2 * MIB, 1, t).unwrap();
        let synced = fs.fsync(k, wend);
        // The flush of 2 MiB at ~100 MiB/s takes ≈ 20 ms beyond the absorb.
        assert!(synced.since(wend) > Dur::from_millis(5));
    }

    #[test]
    fn capacity_exhaustion_surfaces_nospace() {
        let mut cfg = GpfsConfig::tiny();
        cfg.capacity = 10 * MIB;
        let mut fs = sim(cfg);
        let (k, t) = fs
            .open(NodeId(0), "/f", true, false, SimTime::ZERO)
            .unwrap();
        let r = fs.write_pattern(NodeId(0), k, 0, 11 * MIB, 1, t);
        assert_eq!(r.unwrap_err(), IoErr::NoSpace);
    }

    #[test]
    fn parallel_clients_beat_one_client() {
        // Aggregate bandwidth grows when ranks on different nodes write
        // different files concurrently (arrivals at t=0 from four nodes).
        let mut cfg = GpfsConfig::tiny();
        cfg.client_cache_bytes = 0;
        let mut fs = sim(cfg.clone());
        let mut keys = Vec::new();
        let mut t_open = SimTime::ZERO;
        for n in 0..4u32 {
            let (k, te) = fs
                .open(NodeId(n), &format!("/f{n}"), true, false, SimTime::ZERO)
                .unwrap();
            keys.push(k);
            t_open = t_open.max(te);
        }
        let mut ends = Vec::new();
        for (n, &k) in keys.iter().enumerate() {
            let (_, e) = fs
                .write_pattern(NodeId(n as u32), k, 0, 4 * MIB, 1, t_open)
                .unwrap();
            ends.push(e);
        }
        let par_end = ends.iter().max().unwrap().since(t_open).as_secs_f64();

        // Sequential on one node:
        let mut fs2 = sim(cfg);
        let (k, t) = fs2
            .open(NodeId(0), "/f", true, false, SimTime::ZERO)
            .unwrap();
        let mut t = t;
        for i in 0..4 {
            let (_, e) = fs2
                .write_pattern(NodeId(0), k, i * 4 * MIB, 4 * MIB, 1, t)
                .unwrap();
            t = e;
        }
        let seq_end = t.since(t_open).as_secs_f64();
        assert!(
            par_end < seq_end * 0.85,
            "parallel {par_end} not faster than sequential {seq_end}"
        );
    }

    #[test]
    fn stat_and_unlink_round_trip() {
        let mut fs = sim(GpfsConfig::tiny());
        let (k, t) = fs
            .open(NodeId(0), "/s", true, false, SimTime::ZERO)
            .unwrap();
        let (_, t2) = fs.write_pattern(NodeId(0), k, 0, 1000, 1, t).unwrap();
        let (size, t3) = fs.stat("/s", t2).unwrap();
        assert_eq!(size, 1000);
        let t4 = fs.unlink("/s", t3).unwrap();
        assert_eq!(fs.stat("/s", t4).map(|x| x.0), Err(IoErr::NotFound));
    }

    #[test]
    fn set_config_applies_capacity() {
        let mut fs = sim(GpfsConfig::tiny());
        let mut cfg = fs.config().clone();
        cfg.capacity = 10 * MIB;
        fs.set_config(cfg).unwrap();
        let (k, t) = fs
            .open(NodeId(0), "/f", true, false, SimTime::ZERO)
            .unwrap();
        let r = fs.write_pattern(NodeId(0), k, 0, 11 * MIB, 1, t);
        assert_eq!(r.unwrap_err(), IoErr::NoSpace);
    }

    #[test]
    fn set_config_rejects_shrink_below_stored() {
        let mut fs = sim(GpfsConfig::tiny());
        let (k, t) = fs
            .open(NodeId(0), "/f", true, false, SimTime::ZERO)
            .unwrap();
        fs.write_pattern(NodeId(0), k, 0, 8 * MIB, 1, t).unwrap();
        let mut cfg = fs.config().clone();
        cfg.capacity = 1 * MIB;
        assert_eq!(fs.set_config(cfg), Err(IoErr::NoSpace));
    }

    #[test]
    fn nsd_outage_reroutes_to_survivors() {
        let mut cfg = GpfsConfig::tiny();
        cfg.client_cache_bytes = 0;
        let mut fs = sim(cfg);
        fs.set_fault_plan(crate::faults::FaultPlan::none().with_nsd_outage(
            0,
            SimTime::ZERO,
            SimTime::from_secs(1000),
        ));
        let (k, t) = fs
            .open(NodeId(0), "/f", true, false, SimTime::ZERO)
            .unwrap();
        // 4 MiB over 1 MiB blocks on 4 servers: normally one stripe per
        // server; with server 0 down its stripe lands elsewhere.
        let (_, _end) = fs.write_pattern(NodeId(0), k, 0, 4 * MIB, 1, t).unwrap();
        assert!(fs.stats().rerouted_stripes >= 1);
        assert!(fs.rerouted_by_server()[0] >= 1 * MIB);
        assert_eq!(fs.rerouted_by_server()[1], 0);
    }

    #[test]
    fn outage_slows_aggregate_but_completes() {
        let mut cfg = GpfsConfig::tiny();
        cfg.client_cache_bytes = 0;
        let mut healthy = sim(cfg.clone());
        let mut degraded = sim(cfg);
        degraded.set_fault_plan(crate::faults::FaultPlan::none().with_nsd_outage(
            1,
            SimTime::ZERO,
            SimTime::from_secs(1000),
        ));
        let run = |fs: &mut GpfsSim| {
            let (k, t) = fs
                .open(NodeId(0), "/f", true, false, SimTime::ZERO)
                .unwrap();
            let (_, end) = fs.write_pattern(NodeId(0), k, 0, 16 * MIB, 1, t).unwrap();
            end.since(t).as_secs_f64()
        };
        let t_ok = run(&mut healthy);
        let t_deg = run(&mut degraded);
        // One of four servers down: survivors absorb its share, so the
        // transfer slows by roughly its share plus contention (≥ 1/4 here
        // since the rerouted stripes serialize behind a survivor).
        assert!(t_deg > t_ok * 1.15, "degraded {t_deg} vs healthy {t_ok}");
    }

    #[test]
    fn all_servers_down_is_typed_unavailable() {
        let mut cfg = GpfsConfig::tiny();
        cfg.client_cache_bytes = 0;
        let mut fs = sim(cfg);
        let mut plan = crate::faults::FaultPlan::none();
        for s in 0..4 {
            plan = plan.with_nsd_outage(s, SimTime::ZERO, SimTime::from_secs(1000));
        }
        fs.set_fault_plan(plan);
        let (k, t) = fs
            .open(NodeId(0), "/f", true, false, SimTime::ZERO)
            .unwrap();
        let r = fs.write_pattern(NodeId(0), k, 0, 1 * MIB, 1, t);
        assert_eq!(r.unwrap_err(), IoErr::ServerUnavailable);
    }

    #[test]
    fn mds_brownout_lengthens_metadata() {
        let mut healthy = sim(GpfsConfig::tiny());
        let mut browned = sim(GpfsConfig::tiny());
        browned.set_fault_plan(crate::faults::FaultPlan::none().with_mds_brownout(
            SimTime::ZERO,
            SimTime::from_secs(1000),
            10.0,
        ));
        let t_ok = healthy
            .open(NodeId(0), "/a", true, false, SimTime::ZERO)
            .unwrap()
            .1;
        let t_slow = browned
            .open(NodeId(0), "/a", true, false, SimTime::ZERO)
            .unwrap()
            .1;
        assert!(t_slow.as_nanos() > t_ok.as_nanos() * 5);
        assert_eq!(browned.stats().browned_meta_ops, 2);
    }

    #[test]
    fn transient_errors_are_seeded_and_typed() {
        let collect = |seed: u64| {
            let mut fs = GpfsSim::new(GpfsConfig::tiny(), 4, 1 * GIB, Dur::from_micros(2), seed);
            fs.set_fault_plan(crate::faults::FaultPlan::none().with_error_rates(0.3, 0.3));
            let mut outcomes = Vec::new();
            let (k, mut t) = loop {
                match fs.open(NodeId(0), "/f", true, false, SimTime::ZERO) {
                    Ok(x) => break x,
                    Err(e) => {
                        assert_eq!(e, IoErr::ServerUnavailable);
                        outcomes.push(false);
                    }
                }
            };
            for i in 0..32u64 {
                match fs.write_pattern(NodeId(0), k, i * 4096, 4096, 1, t) {
                    Ok((_, end)) => {
                        outcomes.push(true);
                        t = end;
                    }
                    Err(e) => {
                        assert_eq!(e, IoErr::TransientIo);
                        outcomes.push(false);
                    }
                }
            }
            (outcomes, fs.stats().transient_errors)
        };
        let (a, ea) = collect(42);
        let (b, eb) = collect(42);
        let (c, _) = collect(43);
        assert_eq!(a, b, "same seed must fault identically");
        assert_eq!(ea, eb);
        assert!(
            ea > 0,
            "a 30% rate over 33 attempts should fault at least once"
        );
        assert_ne!(a, c, "different seeds should fault differently");
    }

    #[test]
    fn empty_interference_is_bit_identical_to_none() {
        let run = |install_empty: bool| {
            let mut fs = sim(GpfsConfig::lassen());
            if install_empty {
                fs.set_interference(InterferenceSchedule::none());
            }
            let (k, t) = fs
                .open(NodeId(0), "/f", true, false, SimTime::ZERO)
                .unwrap();
            let (_, e1) = fs.write_pattern(NodeId(0), k, 0, 32 * MIB, 1, t).unwrap();
            let (_, e2) = fs.read_len(NodeId(1), k, 0, 32 * MIB, e1).unwrap();
            (e1, e2, fs.stats().clone())
        };
        assert_eq!(run(false), run(true));
    }

    #[test]
    fn zero_load_windows_clear_the_schedule() {
        let mut fs = sim(GpfsConfig::tiny());
        fs.set_interference(InterferenceSchedule::none().with_window(
            SimTime::ZERO,
            SimTime::from_secs(100),
            0.0,
            0.0,
        ));
        assert!(fs.interference.is_none());
    }

    #[test]
    fn tenant_load_slows_data_and_meta_paths() {
        let mut cfg = GpfsConfig::tiny();
        cfg.client_cache_bytes = 0;
        let run = |schedule: Option<InterferenceSchedule>| {
            let mut fs = sim(cfg.clone());
            if let Some(s) = schedule {
                fs.set_interference(s);
            }
            let (k, t) = fs
                .open(NodeId(0), "/f", true, false, SimTime::ZERO)
                .unwrap();
            let (_, end) = fs.write_pattern(NodeId(0), k, 0, 8 * MIB, 1, t).unwrap();
            (end.since(SimTime::ZERO).as_secs_f64(), fs.stats().clone())
        };
        let (t_alone, s_alone) = run(None);
        let loaded = InterferenceSchedule::none().with_window(
            SimTime::ZERO,
            SimTime::from_secs(1000),
            1.0,
            1.0,
        );
        let (t_shared, s_shared) = run(Some(loaded));
        // Doubled competing demand halves the effective rate, so the
        // server-dominated transfer takes noticeably longer.
        assert!(
            t_shared > t_alone * 1.5,
            "shared {t_shared} vs alone {t_alone}"
        );
        assert_eq!(s_alone.contended_data_ops, 0);
        assert_eq!(s_alone.tenant_delay_nanos, 0);
        assert!(s_shared.contended_data_ops >= 1);
        assert!(s_shared.contended_meta_ops >= 2); // open lookup + create
        assert!(s_shared.tenant_delay_nanos > 0);
    }

    #[test]
    fn interference_outside_its_window_is_inert() {
        let cfg = GpfsConfig::tiny();
        let run = |schedule: Option<InterferenceSchedule>| {
            let mut fs = sim(cfg.clone());
            if let Some(s) = schedule {
                fs.set_interference(s);
            }
            let (k, t) = fs
                .open(NodeId(0), "/f", true, false, SimTime::ZERO)
                .unwrap();
            let (_, e1) = fs.write_pattern(NodeId(0), k, 0, 2 * MIB, 1, t).unwrap();
            (e1, fs.stats().clone())
        };
        // A window far in the future never covers any op of this short run.
        let future = InterferenceSchedule::none().with_window(
            SimTime::from_secs(1_000_000),
            SimTime::from_secs(2_000_000),
            4.0,
            4.0,
        );
        assert_eq!(run(None), run(Some(future)));
    }

    #[test]
    fn empty_plan_is_bit_identical_to_no_plan() {
        let run = |install_empty: bool| {
            let mut fs = sim(GpfsConfig::lassen());
            if install_empty {
                fs.set_fault_plan(crate::faults::FaultPlan::none());
            }
            let (k, t) = fs
                .open(NodeId(0), "/f", true, false, SimTime::ZERO)
                .unwrap();
            let (_, e1) = fs.write_pattern(NodeId(0), k, 0, 32 * MIB, 1, t).unwrap();
            let (_, e2) = fs.read_len(NodeId(1), k, 0, 32 * MIB, e1).unwrap();
            (e1, e2, fs.stats().clone())
        };
        assert_eq!(run(false), run(true));
    }
}
