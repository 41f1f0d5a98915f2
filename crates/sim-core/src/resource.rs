//! Queueing-theoretic resource models.
//!
//! These are the primitives from which the storage and network simulators
//! build contention: a FIFO single-server queue ([`ServerQueue`]), a pool of
//! identical servers with earliest-free dispatch ([`ServerPool`]), and a
//! serializing bandwidth channel ([`BandwidthChannel`]).
//!
//! The simulation dispatches requests in global arrival-time order (the
//! engine's event queue guarantees this), so a simple `next_free` horizon per
//! server reproduces FIFO queueing delay exactly.

use crate::time::{Dur, SimTime};

/// A single FIFO server: requests are serviced back-to-back in arrival order.
#[derive(Debug, Clone, Default)]
pub struct ServerQueue {
    next_free: SimTime,
}

impl ServerQueue {
    /// New idle server.
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Serve a request arriving at `arrival` with service demand `service`.
    /// Returns `(start, end)` of service.
    pub fn serve(&mut self, arrival: SimTime, service: Dur) -> (SimTime, SimTime) {
        let start = arrival.max(self.next_free);
        let end = start + service;
        self.next_free = end;
        (start, end)
    }

    /// Earliest instant at which a new arrival would begin service.
    pub(crate) fn next_free(&self) -> SimTime {
        self.next_free
    }
}

/// A pool of identical FIFO servers; each request is dispatched to the server
/// that frees up earliest (central-queue approximation of an M/M/k station).
///
/// An optional `route` lets callers pin a request to a specific member (e.g.
/// a file stripe that lives on one object server).
#[derive(Debug, Clone)]
pub struct ServerPool {
    servers: Vec<ServerQueue>,
}

impl ServerPool {
    /// Create a pool of `n` idle servers (`n >= 1`).
    pub fn new(n: usize) -> Self {
        assert!(n >= 1, "a server pool needs at least one server");
        ServerPool {
            servers: vec![ServerQueue::new(); n],
        }
    }

    /// Serve on the earliest-free server. Returns `(start, end)`.
    pub fn serve(&mut self, arrival: SimTime, service: Dur) -> (SimTime, SimTime) {
        let idx = self
            .servers
            .iter()
            .enumerate()
            .min_by_key(|(_, s)| s.next_free())
            .map(|(i, _)| i)
            .expect("pool is non-empty");
        self.servers[idx].serve(arrival, service)
    }

    /// Serve on a specific server (e.g. stripe routing). `which` is taken
    /// modulo the pool size so callers can pass raw stripe indices.
    pub fn serve_on(&mut self, which: usize, arrival: SimTime, service: Dur) -> (SimTime, SimTime) {
        let n = self.servers.len();
        self.servers[which % n].serve(arrival, service)
    }
}

/// A shared link that serializes transfers at a fixed byte rate, with a fixed
/// per-message latency. Models NICs and backbone links.
#[derive(Debug, Clone)]
pub struct BandwidthChannel {
    bytes_per_sec: u64,
    latency: Dur,
    queue: ServerQueue,
}

impl BandwidthChannel {
    /// A channel moving `bytes_per_sec` with `latency` per message.
    pub fn new(bytes_per_sec: u64, latency: Dur) -> Self {
        assert!(bytes_per_sec > 0, "channel bandwidth must be positive");
        BandwidthChannel {
            bytes_per_sec,
            latency,
            queue: ServerQueue::new(),
        }
    }

    /// Transfer `bytes` starting no earlier than `arrival`; returns the
    /// completion time (queueing + latency + serialization).
    pub fn transfer(&mut self, arrival: SimTime, bytes: u64) -> SimTime {
        let service = self.latency + Dur::for_transfer(bytes, self.bytes_per_sec);
        self.queue.serve(arrival, service).1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn idle_server_starts_immediately() {
        let mut s = ServerQueue::new();
        let (start, end) = s.serve(SimTime::from_secs(10), Dur::from_secs(2));
        assert_eq!(start, SimTime::from_secs(10));
        assert_eq!(end, SimTime::from_secs(12));
    }

    #[test]
    fn busy_server_queues_fifo() {
        let mut s = ServerQueue::new();
        s.serve(SimTime::ZERO, Dur::from_secs(5));
        // Arrives at t=1 but must wait until t=5.
        let (start, end) = s.serve(SimTime::from_secs(1), Dur::from_secs(1));
        assert_eq!(start, SimTime::from_secs(5));
        assert_eq!(end, SimTime::from_secs(6));
    }

    #[test]
    fn pool_spreads_load_across_servers() {
        let mut p = ServerPool::new(4);
        // Four simultaneous arrivals each take 1s: all should finish at t=1.
        let ends: Vec<SimTime> = (0..4)
            .map(|_| p.serve(SimTime::ZERO, Dur::from_secs(1)).1)
            .collect();
        assert!(ends.iter().all(|&e| e == SimTime::from_secs(1)));
        // A fifth queues behind one of them.
        let (_, end5) = p.serve(SimTime::ZERO, Dur::from_secs(1));
        assert_eq!(end5, SimTime::from_secs(2));
    }

    #[test]
    fn pool_routing_pins_to_one_server() {
        let mut p = ServerPool::new(4);
        let (_, e1) = p.serve_on(2, SimTime::ZERO, Dur::from_secs(1));
        let (_, e2) = p.serve_on(2, SimTime::ZERO, Dur::from_secs(1));
        let (_, e3) = p.serve_on(6, SimTime::ZERO, Dur::from_secs(1)); // 6 % 4 == 2
        assert_eq!(e1, SimTime::from_secs(1));
        assert_eq!(e2, SimTime::from_secs(2));
        assert_eq!(e3, SimTime::from_secs(3));
    }

    #[test]
    fn channel_serializes_transfers() {
        // 1 MiB/s channel, zero latency: two 1 MiB messages take 2 seconds.
        let mut c = BandwidthChannel::new(1 << 20, Dur::ZERO);
        let t1 = c.transfer(SimTime::ZERO, 1 << 20);
        let t2 = c.transfer(SimTime::ZERO, 1 << 20);
        assert_eq!(t1, SimTime::from_secs(1));
        assert_eq!(t2, SimTime::from_secs(2));
    }

    #[test]
    fn channel_latency_applies_per_message() {
        let mut c = BandwidthChannel::new(1 << 30, Dur::from_micros(5));
        let t = c.transfer(SimTime::ZERO, 0);
        assert_eq!(t, SimTime::ZERO + Dur::from_micros(5));
    }

    // Deterministic randomized sweeps (seeded `vani_rt::Rng`) — converted
    // from the original proptest suites.

    /// FIFO invariant: for non-decreasing arrivals, service start times
    /// are non-decreasing and never precede arrival.
    #[test]
    fn randomized_fifo_start_ordering() {
        let mut r = vani_rt::Rng::new(0x5e57_0001);
        for _ in 0..128 {
            let n = r.uniform_u64(1, 100) as usize;
            let mut arrivals: Vec<u64> = (0..n).map(|_| r.uniform_u64(0, 10_000)).collect();
            let services: Vec<u64> = (0..n).map(|_| r.uniform_u64(1, 1_000)).collect();
            arrivals.sort_unstable();
            let mut s = ServerQueue::new();
            let mut last_start = SimTime::ZERO;
            for (&a, &svc) in arrivals.iter().zip(&services) {
                let (start, end) = s.serve(SimTime(a), Dur(svc));
                assert!(start >= SimTime(a));
                assert!(start >= last_start);
                assert_eq!(end, start + Dur(svc));
                last_start = start;
            }
        }
    }
}
