//! Deterministic event queue.
//!
//! A thin priority queue over `(time, sequence)` pairs. Ties in time are
//! broken by insertion order, which makes simulation schedules reproducible
//! regardless of payload type or hash ordering.

use crate::time::SimTime;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// An event scheduled at a point in virtual time.
#[derive(Debug, Clone)]
pub struct QueuedEvent<T> {
    /// When the event fires.
    pub time: SimTime,
    /// Monotonic insertion index used for FIFO tie-breaking.
    pub seq: u64,
    /// Caller payload.
    pub payload: T,
}

impl<T> PartialEq for QueuedEvent<T> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl<T> Eq for QueuedEvent<T> {}

impl<T> PartialOrd for QueuedEvent<T> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<T> Ord for QueuedEvent<T> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so the earliest event pops first,
        // with the lowest sequence number winning ties.
        other
            .time
            .cmp(&self.time)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// A deterministic min-priority event queue.
///
/// ```
/// use sim_core::{EventQueue, SimTime};
/// let mut q = EventQueue::new();
/// q.push(SimTime::from_secs(2), "later");
/// q.push(SimTime::from_secs(1), "sooner");
/// q.push(SimTime::from_secs(1), "sooner-but-second");
/// assert_eq!(q.pop().unwrap().payload, "sooner");
/// assert_eq!(q.pop().unwrap().payload, "sooner-but-second");
/// assert_eq!(q.pop().unwrap().payload, "later");
/// assert!(q.pop().is_none());
/// ```
#[derive(Debug, Clone)]
pub struct EventQueue<T> {
    heap: BinaryHeap<QueuedEvent<T>>,
    next_seq: u64,
    /// Highest time popped so far; used to detect causality violations.
    now: SimTime,
}

impl<T> Default for EventQueue<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> EventQueue<T> {
    /// Create an empty queue at time zero.
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            next_seq: 0,
            now: SimTime::ZERO,
        }
    }

    /// Create an empty queue with room for `cap` pending events, avoiding
    /// the heap's incremental growth when the event count is known up front
    /// (e.g. one wake-up event per rank in the cluster engine).
    pub fn with_capacity(cap: usize) -> Self {
        EventQueue {
            heap: BinaryHeap::with_capacity(cap),
            next_seq: 0,
            now: SimTime::ZERO,
        }
    }

    /// Schedule `payload` at `time`.
    ///
    /// # Panics
    /// In debug builds, panics if `time` is earlier than the last popped
    /// event — scheduling into the past is a simulation bug.
    pub fn push(&mut self, time: SimTime, payload: T) {
        debug_assert!(
            time >= self.now,
            "event scheduled in the past: {time} < now {}",
            self.now
        );
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(QueuedEvent { time, seq, payload });
    }

    /// Remove and return the earliest event, advancing `now` to its time.
    pub fn pop(&mut self) -> Option<QueuedEvent<T>> {
        let ev = self.heap.pop()?;
        self.now = ev.time;
        Some(ev)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        for &t in &[5u64, 1, 3, 2, 4] {
            q.push(SimTime::from_secs(t), t);
        }
        let order: Vec<u64> = std::iter::from_fn(|| q.pop().map(|e| e.payload)).collect();
        assert_eq!(order, vec![1, 2, 3, 4, 5]);
    }

    #[test]
    fn ties_break_by_insertion_order() {
        let mut q = EventQueue::new();
        for i in 0..100u32 {
            q.push(SimTime::from_secs(7), i);
        }
        let order: Vec<u32> = std::iter::from_fn(|| q.pop().map(|e| e.payload)).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn clock_advances_with_pops() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_secs(3), ());
        q.push(SimTime::from_secs(9), ());
        assert_eq!(q.now, SimTime::ZERO);
        q.pop();
        assert_eq!(q.now, SimTime::from_secs(3));
        q.pop();
        assert_eq!(q.now, SimTime::from_secs(9));
    }

    // The check is a `debug_assert!`, so a release build has nothing to
    // panic on: the test exists only where the assertion does.
    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "scheduled in the past")]
    fn scheduling_into_the_past_panics_in_debug() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_secs(5), ());
        q.pop();
        q.push(SimTime::from_secs(1), ());
    }

    // Deterministic randomized sweeps (seeded `vani_rt::Rng`) — converted
    // from the original proptest suites.

    /// Popped times are non-decreasing for arbitrary insertion orders.
    #[test]
    fn randomized_pop_order_is_sorted() {
        let mut r = vani_rt::Rng::new(0xe7e7_0001);
        for _ in 0..128 {
            let n = r.uniform_u64(0, 200) as usize;
            let times: Vec<u64> = (0..n).map(|_| r.uniform_u64(0, 1_000_000)).collect();
            let mut q = EventQueue::new();
            for &t in &times {
                q.push(SimTime(t), t);
            }
            let mut last = 0u64;
            while let Some(ev) = q.pop() {
                assert!(ev.time.0 >= last);
                last = ev.time.0;
            }
        }
    }

    /// The queue yields exactly the multiset of inserted payloads.
    #[test]
    fn randomized_no_events_lost() {
        let mut r = vani_rt::Rng::new(0xe7e7_0002);
        for _ in 0..128 {
            let n = r.uniform_u64(0, 200) as usize;
            let times: Vec<u64> = (0..n).map(|_| r.uniform_u64(0, 1_000)).collect();
            let mut q = EventQueue::new();
            for (i, &t) in times.iter().enumerate() {
                q.push(SimTime(t), i);
            }
            let mut seen: Vec<usize> = std::iter::from_fn(|| q.pop().map(|e| e.payload)).collect();
            seen.sort_unstable();
            assert_eq!(seen, (0..times.len()).collect::<Vec<_>>());
        }
    }
}
