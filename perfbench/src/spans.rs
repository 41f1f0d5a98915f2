//! Spans the benchmark records around its own calls into the library.
//!
//! A span is a name, a start, an end and the span that caused it. Spans are
//! kept in memory and summarised when the traced run ends. A span's self
//! time is its duration minus the part of that interval its direct
//! children cover; the self time of a pass's root span is the time no
//! measured call accounts for (the residual).

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Identifies one span within a [`Spans`] log.
pub type SpanId = u64;

/// One timed interval.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Unique within its log.
    pub id: SpanId,
    /// The span whose work caused this one, if any.
    pub parent: Option<SpanId>,
    /// Layer name, e.g. `codec.seal`.
    pub name: &'static str,
    /// Start, nanoseconds since the log's epoch.
    pub start_ns: u64,
    /// End, nanoseconds since the log's epoch.
    pub end_ns: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// A thread-safe in-memory span log.
#[derive(Debug)]
pub struct Spans {
    epoch: Instant,
    next: AtomicU64,
    log: Mutex<Vec<Span>>,
}

impl Default for Spans {
    fn default() -> Self {
        Spans::new()
    }
}

impl Spans {
    /// An empty log whose epoch is now.
    pub fn new() -> Spans {
        Spans {
            epoch: Instant::now(),
            next: AtomicU64::new(0),
            log: Mutex::new(Vec::new()),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Run `f` inside a span named `name`; `f` receives the new span's id
    /// so nested calls can name it as their parent.
    pub fn time<R>(
        &self,
        name: &'static str,
        parent: Option<SpanId>,
        f: impl FnOnce(SpanId) -> R,
    ) -> R {
        // Ids only need to be unique; no other data is published through
        // this counter.
        let id = self.next.fetch_add(1, Ordering::Relaxed) + 1;
        let start_ns = self.now_ns();
        let r = f(id);
        let end_ns = self.now_ns();
        self.log
            .lock()
            .expect("span log poisoned by a panicking worker")
            .push(Span {
                id,
                parent,
                name,
                start_ns,
                end_ns,
            });
        r
    }

    /// The recorded spans, in completion order.
    pub fn into_spans(self) -> Vec<Span> {
        self.log
            .into_inner()
            .expect("span log poisoned by a panicking worker")
    }
}

/// Length of the union of `intervals`, each clipped to `[lo, hi)`.
pub fn covered_ns(mut intervals: Vec<(u64, u64)>, lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut covered = 0u64;
    let mut reach = lo;
    for (s, e) in intervals {
        let (s, e) = (s.max(reach), e.min(hi));
        if e > s {
            covered += e - s;
            reach = e;
        }
    }
    covered
}

/// `span`'s duration minus the part its direct children in `all` cover.
pub fn self_ns(span: &Span, all: &[Span]) -> u64 {
    let children: Vec<(u64, u64)> = all
        .iter()
        .filter(|c| c.parent == Some(span.id))
        .map(|c| (c.start_ns, c.end_ns))
        .collect();
    span.dur_ns() - covered_ns(children, span.start_ns, span.end_ns)
}

/// Per-name call count, total time and self time.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Totals {
    /// Spans with this name.
    pub calls: u64,
    /// Sum of their durations.
    pub total_ns: u64,
    /// Sum of their self times.
    pub self_ns: u64,
}

/// Summarise a log by span name.
pub fn totals(all: &[Span]) -> BTreeMap<&'static str, Totals> {
    let mut out: BTreeMap<&'static str, Totals> = BTreeMap::new();
    for s in all {
        let t = out.entry(s.name).or_default();
        t.calls += 1;
        t.total_ns += s.dur_ns();
        t.self_ns += self_ns(s, all);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: SpanId, parent: Option<SpanId>, name: &'static str, s: u64, e: u64) -> Span {
        Span {
            id,
            parent,
            name,
            start_ns: s,
            end_ns: e,
        }
    }

    #[test]
    fn self_times_and_residual_sum_to_the_root() {
        let all = vec![
            span(1, None, "pass", 0, 100),
            span(2, Some(1), "a", 10, 40),
            span(3, Some(2), "b", 20, 30),
            span(4, Some(1), "c", 50, 90),
        ];
        let t = totals(&all);
        assert_eq!(t["a"].self_ns, 20);
        assert_eq!(t["b"].self_ns, 10);
        assert_eq!(t["c"].self_ns, 40);
        // The root's self time is the residual: 100 - (30 + 40).
        assert_eq!(t["pass"].self_ns, 30);
        let sum: u64 = t.values().map(|x| x.self_ns).sum();
        assert_eq!(sum, 100);
    }

    #[test]
    fn overlapping_children_are_counted_once() {
        // Two workers under one wave span: [10,60) and [30,80) cover 70.
        let all = vec![
            span(1, None, "wave", 0, 100),
            span(2, Some(1), "job", 10, 60),
            span(3, Some(1), "job", 30, 80),
        ];
        let t = totals(&all);
        assert_eq!(t["wave"].self_ns, 30);
        assert_eq!(t["job"].calls, 2);
        assert_eq!(t["job"].total_ns, 100);
    }

    #[test]
    fn children_are_clipped_to_the_parent() {
        assert_eq!(covered_ns(vec![(0, 50), (40, 120)], 10, 100), 90);
        assert_eq!(covered_ns(vec![], 0, 10), 0);
    }

    #[test]
    fn recorded_spans_nest_by_id() {
        let log = Spans::new();
        log.time("outer", None, |id| log.time("inner", Some(id), |_| ()));
        let all = log.into_spans();
        assert_eq!(all.len(), 2);
        let outer = all.iter().find(|s| s.name == "outer").expect("outer");
        let inner = all.iter().find(|s| s.name == "inner").expect("inner");
        assert_eq!(inner.parent, Some(outer.id));
        assert!(inner.start_ns >= outer.start_ns && inner.end_ns <= outer.end_ns);
    }
}
