//! Scoped-thread data parallelism with deterministic results.
//!
//! The executor replaces `rayon` for the suite's analysis kernels. Work is
//! split into chunks whose boundaries depend only on the input length —
//! never on the worker count — and per-chunk results are combined in chunk
//! order on the calling thread. Consequently every entry point returns
//! **bit-identical** results whether it runs on one thread or many, which
//! is what lets the determinism suite compare a parallel run against the
//! sequential fallback.
//!
//! Worker count resolution, in priority order:
//! 1. compiled out entirely under `--cfg single_thread` (always sequential),
//! 2. [`set_threads`] (process-wide, mainly for tests),
//! 3. the `VANI_THREADS` environment variable,
//! 4. [`std::thread::available_parallelism`].

use std::collections::HashMap;
use std::hash::Hash;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// A panic raised inside a parallel worker, caught by the executor and
/// re-thrown with its origin attached. Every entry point in this module
/// unwinds with a `Box<WorkerPanic>` payload when a task panics, so callers
/// that `catch_unwind` see *which* worker and chunk failed and the original
/// panic message — instead of a bare unwind from an anonymous scoped
/// thread.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct WorkerPanic {
    /// Index of the worker thread the panic fired on (0 on the sequential
    /// and small-input paths, which run on the calling thread).
    pub worker: usize,
    /// Index of the chunk whose task panicked. When several chunks panic in
    /// one run, the lowest-indexed one observed is reported.
    pub chunk: usize,
    /// The panic payload's message (`&str`/`String` payloads verbatim).
    pub message: String,
}

impl std::fmt::Display for WorkerPanic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "worker {} panicked in chunk {}: {}",
            self.worker, self.chunk, self.message
        )
    }
}

impl std::error::Error for WorkerPanic {}

/// Extract a human-readable message from a panic payload: `&str` and
/// `String` payloads verbatim, a nested `WorkerPanic` by its display
/// form, anything else as a placeholder.
pub fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else if let Some(wp) = payload.downcast_ref::<WorkerPanic>() {
        wp.to_string()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Process-wide worker-count override (0 = unset).
static THREAD_OVERRIDE: AtomicUsize = AtomicUsize::new(0);

/// Force the worker count for subsequent calls (0 clears the override).
/// Intended for tests and the determinism harness.
pub fn set_threads(n: usize) {
    THREAD_OVERRIDE.store(n, Ordering::SeqCst);
}

/// The number of worker threads parallel calls will use.
pub(crate) fn num_threads() -> usize {
    if cfg!(single_thread) {
        return 1;
    }
    let over = THREAD_OVERRIDE.load(Ordering::SeqCst);
    if over > 0 {
        return over;
    }
    if let Ok(s) = std::env::var("VANI_THREADS") {
        if let Ok(n) = s.trim().parse::<usize>() {
            if n > 0 {
                return n;
            }
        }
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Inputs at or below this length are processed as a single chunk on the
/// calling thread by the auto-chunked entry points. Spawning scoped threads
/// costs on the order of tens of microseconds; at ~10 ns of work per item a
/// few thousand items don't amortize it, and small unit-test traces were
/// paying that overhead on every query. Chunk boundaries still depend only
/// on the input length, so results stay deterministic.
pub(crate) const SEQ_THRESHOLD: usize = 4096;

/// Chunk size used for an input of `len` items: small enough to balance
/// load across many workers, large enough to amortize dispatch. Depends
/// only on `len`, which is what makes results thread-count-independent.
fn chunk_size(len: usize) -> usize {
    (len / 64).clamp(256, 16_384).min(len.max(1))
}

/// [`run_chunked`] with automatic chunk sizing and the small-input
/// sequential fast path: inputs of at most [`SEQ_THRESHOLD`] items run as
/// one chunk on the calling thread, skipping thread spawn entirely.
fn run_chunked_auto<R, F>(len: usize, work: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize, std::ops::Range<usize>) -> R + Sync,
{
    if len == 0 {
        return Vec::new();
    }
    if len <= SEQ_THRESHOLD {
        return vec![run_caught(0, 0, 0..len, &work)];
    }
    run_chunked(len, chunk_size(len), work)
}

/// Run one chunk's task, converting a panic into a [`WorkerPanic`] unwind
/// so the origin (worker, chunk, message) survives to the caller.
fn run_caught<R, F>(worker: usize, chunk: usize, range: std::ops::Range<usize>, work: &F) -> R
where
    F: Fn(usize, std::ops::Range<usize>) -> R,
{
    catch_unwind(AssertUnwindSafe(|| work(chunk, range))).unwrap_or_else(|payload| {
        resume_unwind(Box::new(WorkerPanic {
            worker,
            chunk,
            message: panic_message(&*payload),
        }))
    })
}

/// Run `work(chunk_index, start..end)` over every chunk of `csize` items
/// of `0..len` and return the per-chunk outputs in chunk order. The
/// scheduling backbone of every entry point below.
fn run_chunked<R, F>(len: usize, csize: usize, work: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize, std::ops::Range<usize>) -> R + Sync,
{
    if len == 0 {
        return Vec::new();
    }
    debug_assert!(csize > 0);
    let nchunks = len.div_ceil(csize);
    let workers = num_threads().min(nchunks);
    if workers <= 1 {
        return (0..nchunks)
            .map(|c| run_caught(0, c, c * csize..((c + 1) * csize).min(len), &work))
            .collect();
    }
    let next = AtomicUsize::new(0);
    let results: Mutex<Vec<Option<R>>> = Mutex::new((0..nchunks).map(|_| None).collect());
    // First worker panic observed, lowest chunk index winning: a panicking
    // worker stops claiming chunks, the rest drain the queue, and the run
    // re-raises the failure as a typed payload after the scope joins.
    let failure: Mutex<Option<WorkerPanic>> = Mutex::new(None);
    let worker_loop = |w: usize| loop {
        let c = next.fetch_add(1, Ordering::Relaxed);
        if c >= nchunks {
            break;
        }
        let range = c * csize..((c + 1) * csize).min(len);
        match catch_unwind(AssertUnwindSafe(|| work(c, range))) {
            Ok(out) => {
                results.lock().expect("no panics hold the results lock")[c] = Some(out);
            }
            Err(payload) => {
                let wp = WorkerPanic {
                    worker: w,
                    chunk: c,
                    message: panic_message(&*payload),
                };
                let mut slot = failure.lock().expect("no panics hold the failure lock");
                if slot.as_ref().map_or(true, |prev| wp.chunk < prev.chunk) {
                    *slot = Some(wp);
                }
                break;
            }
        }
    };
    std::thread::scope(|scope| {
        // The calling thread participates as worker 0 instead of parking in
        // the scope join, so a run at `workers` parallelism spawns only
        // `workers - 1` threads. Scenario sweeps dispatch a handful of
        // expensive tasks at a time; batching one worker onto the caller
        // removes a spawn/join round trip from every dispatch (the 2-worker
        // fan-out previously paid two spawns to use at most one extra core).
        for w in 1..workers {
            let worker_loop = &worker_loop;
            scope.spawn(move || worker_loop(w));
        }
        worker_loop(0);
    });
    if let Some(wp) = failure.into_inner().expect("scope joined all workers") {
        resume_unwind(Box::new(wp));
    }
    results
        .into_inner()
        .expect("scope joined all workers")
        .into_iter()
        .map(|r| r.expect("every chunk ran"))
        .collect()
}

/// Parallel map over owned items (the `into_par_iter().map().collect()`
/// shape): consumes the vector, outputs in input order. Each item is its
/// own work unit, so this is the coarse task-parallel entry point — use it
/// for a handful of expensive jobs, not millions of cheap ones.
pub fn par_map_owned<T, R, F>(items: Vec<T>, f: F) -> Vec<R>
where
    T: Send + Sync,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    let slots: Vec<Mutex<Option<T>>> = items.into_iter().map(|t| Mutex::new(Some(t))).collect();
    let per_chunk = run_chunked(slots.len(), 1, |_, range| {
        range
            .map(|i| {
                let item = slots[i]
                    .lock()
                    .expect("slot lock is uncontended")
                    .take()
                    .expect("each slot is consumed once");
                f(item)
            })
            .collect::<Vec<R>>()
    });
    let mut out = Vec::with_capacity(slots.len());
    for chunk in per_chunk {
        out.extend(chunk);
    }
    out
}

/// Parallel fold-then-combine. Each deterministic chunk is folded
/// left-to-right from `identity()`, and chunk accumulators are combined
/// left-to-right in chunk order, so the full reduction tree is a pure
/// function of `items.len()` — bit-identical on any worker count, even for
/// non-associative floating-point folds.
pub fn par_reduce<T, A, F, C>(
    items: &[T],
    identity: impl Fn() -> A + Sync,
    fold: F,
    combine: C,
) -> A
where
    T: Sync,
    A: Send,
    F: Fn(A, &T) -> A + Sync,
    C: Fn(A, A) -> A,
{
    let per_chunk = run_chunked_auto(items.len(), |_, range| {
        items[range].iter().fold(identity(), &fold)
    });
    per_chunk.into_iter().fold(identity(), combine)
}

/// Morsel-driven parallel fold over the index space `0..len`, cut into
/// morsels of `morsel` indices.
///
/// Each morsel is folded into a fresh shard accumulator from `identity()`
/// by a worker, and shard accumulators are merged **in morsel order** on
/// the calling thread. Morsel boundaries depend only on `len` and
/// `morsel`, so the merge tree is bit-identical on any worker count, even
/// when `merge` is non-commutative or accumulates floats.
///
/// This is the kernel behind the analyzer's fold: the accumulator can be
/// an arbitrarily wide struct (histograms, bitsets, index lists), so one
/// traversal of a batch of records computes every statistic at once.
pub fn par_fold_shards_sized<A, I, F, M>(
    len: usize,
    morsel: usize,
    identity: I,
    fold: F,
    merge: M,
) -> A
where
    A: Send,
    I: Fn() -> A + Sync,
    F: Fn(&mut A, std::ops::Range<usize>) + Sync,
    M: Fn(&mut A, A),
{
    assert!(
        morsel > 0,
        "par_fold_shards_sized: morsel size must be positive"
    );
    let shards = run_chunked(len, morsel, |_, range| {
        let mut acc = identity();
        fold(&mut acc, range);
        acc
    });
    let mut out = identity();
    for shard in shards {
        merge(&mut out, shard);
    }
    out
}

/// Parallel filter over indices `0..len`: the sorted list of indices for
/// which `pred` holds. Output order equals sequential order because chunks
/// are concatenated in chunk order.
pub fn par_filter_indices<P>(len: usize, pred: P) -> Vec<u32>
where
    P: Fn(usize) -> bool + Sync,
{
    let per_chunk = run_chunked_auto(len, |_, range| {
        range
            .filter(|&i| pred(i))
            .map(|i| i as u32)
            .collect::<Vec<u32>>()
    });
    let mut out = Vec::new();
    for chunk in per_chunk {
        out.extend(chunk);
    }
    out
}

/// Parallel group-by kernel: classify every item with `key`, fold items of
/// equal key with `fold`, merge per-chunk tables with `merge`. The merge
/// order is chunk order, so any non-commutative `merge` still produces
/// deterministic values.
pub fn par_group_by<T, K, A, KF, FF, MF>(items: &[T], key: KF, fold: FF, merge: MF) -> HashMap<K, A>
where
    T: Sync,
    K: Hash + Eq + Send,
    A: Default + Send,
    KF: Fn(&T) -> K + Sync,
    FF: Fn(&mut A, &T) + Sync,
    MF: Fn(&mut A, A),
{
    let per_chunk = run_chunked_auto(items.len(), |_, range| {
        let mut table: HashMap<K, A> = HashMap::new();
        for item in &items[range] {
            fold(table.entry(key(item)).or_default(), item);
        }
        table
    });
    let mut out: HashMap<K, A> = HashMap::new();
    for table in per_chunk {
        for (k, v) in table {
            match out.entry(k) {
                std::collections::hash_map::Entry::Occupied(mut e) => merge(e.get_mut(), v),
                std::collections::hash_map::Entry::Vacant(e) => {
                    e.insert(v);
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Run `f` under a forced worker count, restoring the default after.
    fn with_threads<R>(n: usize, f: impl FnOnce() -> R) -> R {
        set_threads(n);
        let r = f();
        set_threads(0);
        r
    }

    #[test]
    fn par_map_owned_consumes_in_order() {
        let xs: Vec<String> = (0..3000).map(|i| format!("v{i}")).collect();
        let expect: Vec<usize> = xs.iter().map(|s| s.len()).collect();
        let got = with_threads(3, || par_map_owned(xs, |s| s.len()));
        assert_eq!(got, expect);
    }

    #[test]
    fn par_reduce_floats_bit_identical_across_thread_counts() {
        // Sums of many varied floats: the chunked tree must give the exact
        // same bits for 1 worker and 8 workers.
        let xs: Vec<f64> = (0..100_000)
            .map(|i| ((i * 2654435761u64) % 1000) as f64 * 0.1)
            .collect();
        let one = with_threads(1, || {
            par_reduce(&xs, || 0.0f64, |a, &x| a + x, |a, b| a + b)
        });
        let eight = with_threads(8, || {
            par_reduce(&xs, || 0.0f64, |a, &x| a + x, |a, b| a + b)
        });
        assert_eq!(one.to_bits(), eight.to_bits());
    }

    #[test]
    fn par_filter_indices_matches_sequential() {
        let seq: Vec<u32> = (0..50_000u32).filter(|i| i % 7 == 0).collect();
        let par = with_threads(5, || par_filter_indices(50_000, |i| i % 7 == 0));
        assert_eq!(par, seq);
    }

    #[test]
    fn par_group_by_totals_match() {
        let xs: Vec<u64> = (0..30_000).collect();
        let groups = with_threads(4, || {
            par_group_by(
                &xs,
                |&x| (x % 13) as u32,
                |acc: &mut u64, &x| *acc += x,
                |acc, v| *acc += v,
            )
        });
        assert_eq!(groups.len(), 13);
        let total: u64 = groups.values().sum();
        assert_eq!(total, xs.iter().sum::<u64>());
    }

    #[test]
    fn empty_inputs_are_fine() {
        let xs: Vec<u64> = Vec::new();
        assert!(par_filter_indices(0, |_| true).is_empty());
        assert_eq!(par_reduce(&xs, || 7u64, |a, _| a, |a, _| a), 7);
        assert!(par_group_by(&xs, |&x| x, |_: &mut u64, _| {}, |_, _| {}).is_empty());
    }

    #[test]
    fn num_threads_is_positive() {
        assert!(num_threads() >= 1);
    }

    #[test]
    fn par_fold_shards_matches_sequential_fold() {
        // Wide accumulator: (sum, count, min) folded over ranges.
        let n = 100_000usize;
        let run = || {
            par_fold_shards_sized(
                n,
                4096,
                || (0u64, 0u64, u64::MAX),
                |acc, range| {
                    for i in range {
                        acc.0 += i as u64 * 3;
                        acc.1 += 1;
                        acc.2 = acc.2.min(i as u64 ^ 0x5a5a);
                    }
                },
                |a, b| {
                    a.0 += b.0;
                    a.1 += b.1;
                    a.2 = a.2.min(b.2);
                },
            )
        };
        let seq = with_threads(1, run);
        let par8 = with_threads(8, run);
        assert_eq!(seq, par8);
        assert_eq!(seq.1, n as u64);
        assert_eq!(seq.0, (0..n as u64).map(|i| i * 3).sum());
    }

    #[test]
    fn par_fold_shards_sized_merges_in_morsel_order() {
        // Explicit morsel size, non-commutative merge: the concatenation must
        // equal 0..n for every worker count and any morsel size.
        for &(n, morsel) in &[
            (10_000usize, 256usize),
            (10_000, 8192),
            (5, 2),
            (4096, 4096),
        ] {
            let got = with_threads(8, || {
                par_fold_shards_sized(
                    n,
                    morsel,
                    Vec::new,
                    |acc: &mut Vec<u32>, range| acc.extend(range.map(|i| i as u32)),
                    |a, mut b| a.append(&mut b),
                )
            });
            assert_eq!(
                got,
                (0..n as u32).collect::<Vec<u32>>(),
                "n={n} morsel={morsel}"
            );
        }
    }

    #[test]
    fn par_fold_shards_empty_is_identity() {
        let got = par_fold_shards_sized(0, 64, || 41u32, |acc, _| *acc += 1, |a, b| *a += b);
        assert_eq!(got, 41); // no morsels: the identity comes back untouched
    }

    #[test]
    fn deliberate_panic_surfaces_as_typed_error() {
        // One task out of ten panics: the typed error names the chunk
        // (item index, csize = 1), a worker in range, and the payload text.
        let payload = with_threads(4, || {
            let xs: Vec<u32> = (0..10).collect();
            catch_unwind(AssertUnwindSafe(|| {
                par_map_owned(xs, |x| if x == 7 { panic!("boom at {x}") } else { x })
            }))
            .unwrap_err()
        });
        let err = payload
            .downcast::<WorkerPanic>()
            .expect("typed WorkerPanic payload");
        assert_eq!(err.chunk, 7);
        assert!(err.worker < 4, "worker index out of range: {}", err.worker);
        assert!(
            err.message.contains("boom at 7"),
            "payload lost: {}",
            err.message
        );
        let shown = err.to_string();
        assert!(
            shown.contains("worker") && shown.contains("chunk 7"),
            "{shown}"
        );
    }

    #[test]
    fn threaded_kernels_unwind_with_worker_panic_payload() {
        // A panic inside a large auto-chunked kernel (threaded path) must
        // carry the typed payload, not a bare unwind.
        let payload = with_threads(4, || {
            catch_unwind(AssertUnwindSafe(|| {
                par_filter_indices(10_000, |i| {
                    if i == 9_999 {
                        panic!("late failure")
                    }
                    true
                })
            }))
            .unwrap_err()
        });
        let wp = payload
            .downcast::<WorkerPanic>()
            .expect("typed WorkerPanic payload");
        assert!(wp.message.contains("late failure"), "{}", wp.message);
    }

    #[test]
    fn sequential_paths_also_type_their_panics() {
        // Small input → calling-thread fast path; worker is 0 by definition.
        let payload = catch_unwind(AssertUnwindSafe(|| {
            par_filter_indices(3, |i| if i == 2 { panic!("tiny") } else { true })
        }))
        .unwrap_err();
        let wp = payload
            .downcast::<WorkerPanic>()
            .expect("typed payload on fast path");
        assert_eq!(wp.worker, 0);
        assert!(wp.message.contains("tiny"));
    }

    #[test]
    fn small_inputs_run_on_calling_thread() {
        // Below SEQ_THRESHOLD the auto-chunked entry points must not spawn:
        // every closure call observes the caller's thread id.
        let caller = std::thread::current().id();
        let xs: Vec<u64> = (0..SEQ_THRESHOLD as u64).collect();
        let ids = with_threads(8, || {
            par_reduce(
                &xs,
                Vec::new,
                |mut acc, _| {
                    acc.push(std::thread::current().id());
                    acc
                },
                |mut a, b| {
                    a.extend(b);
                    a
                },
            )
        });
        assert_eq!(ids.len(), xs.len());
        assert!(ids.iter().all(|&id| id == caller));
    }
}
