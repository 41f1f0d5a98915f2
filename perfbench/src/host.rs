//! Host-side measurements: the process's resident-memory peak and a fixed
//! reference kernel that makes drift in host speed visible.

use std::collections::HashMap;
use std::time::Instant;

/// Field `key` of `/proc/self/status`, converted from kB to bytes.
fn status_kb(key: &str) -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(key))?;
    let kb: u64 = line[key.len()..]
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kb * 1024)
}

/// The process's resident-set high-water mark in bytes.
pub fn peak_rss_bytes() -> Option<u64> {
    status_kb("VmHWM:")
}

#[cfg(all(target_os = "linux", target_env = "gnu"))]
fn release_free_heap() {
    extern "C" {
        fn malloc_trim(pad: usize) -> i32;
    }
    // SAFETY: glibc's `malloc_trim` takes a plain integer, touches only
    // the allocator's own free lists, and is safe to call at any time.
    unsafe {
        malloc_trim(0);
    }
}

#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
fn release_free_heap() {}

/// Return freed heap pages to the kernel, then reset the resident-set
/// high-water mark to the current resident set, so a later
/// [`peak_rss_bytes`] covers what is live now plus what ran after this
/// call, not the garbage set-up left behind. Returns whether the kernel
/// accepted the reset.
pub fn reset_peak_rss() -> bool {
    release_free_heap();
    std::fs::write("/proc/self/clear_refs", b"5").is_ok()
}

/// Hash-map updates in one run of the reference kernel.
const REF_UPDATES: u64 = 400_000;
/// Distinct keys they touch (a table of a few MiB).
const REF_KEYS: u64 = 50_000;
/// Integers sorted in one run.
const REF_SORTED: u64 = 200_000;

/// Words a streaming run writes over (16 MiB, freshly mapped).
const REF_STREAM_WORDS: usize = 2 << 20;
/// Sweeps over them.
const REF_STREAM_SWEEPS: u64 = 3;
/// Steps of the register-only run.
const REF_ALU_STEPS: u64 = 8_000_000;

/// Random access: hash-map updates and lookups over a few MiB, then a
/// sort. Millions of operations per second.
fn random_access() -> f64 {
    let t = Instant::now();
    let mut map: HashMap<u64, u64> = HashMap::with_capacity(REF_KEYS as usize);
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    let mut acc = 0u64;
    for i in 0..REF_UPDATES {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let key = x % REF_KEYS;
        *map.entry(key).or_insert(0) += i;
        if let Some(v) = map.get(&(key ^ 1)) {
            acc = acc.wrapping_add(*v);
        }
    }
    let mut v: Vec<u64> = (0..REF_SORTED)
        .map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .collect();
    v.sort_unstable();
    std::hint::black_box((acc, &v));
    (REF_UPDATES + REF_SORTED) as f64 / t.elapsed().as_secs_f64() / 1e6
}

/// Streaming: sweep a 16 MiB buffer read-modify-write. Millions of word
/// updates per second; paging the buffer in is not timed.
fn streaming() -> f64 {
    let mut t = Instant::now();
    let mut acc = 0u64;
    with_fresh_words(REF_STREAM_WORDS, |v| {
        v.fill(1);
        t = Instant::now();
        for r in 0..REF_STREAM_SWEEPS {
            for x in v.iter_mut() {
                *x = x.wrapping_mul(3).wrapping_add(r);
                acc = acc.wrapping_add(*x);
            }
        }
    });
    std::hint::black_box(acc);
    (REF_STREAM_SWEEPS * REF_STREAM_WORDS as u64) as f64 / t.elapsed().as_secs_f64() / 1e6
}

/// Run `f` over `n` zeroed words mapped straight from the kernel and
/// unmapped afterwards. A heap buffer this size would stay in the
/// allocator's arenas (glibc raises its mmap threshold after the first
/// free) and change the resident peaks the program is measured by.
#[cfg(all(target_os = "linux", target_env = "gnu"))]
fn with_fresh_words(n: usize, f: impl FnOnce(&mut [u64])) {
    use std::ffi::c_void;
    extern "C" {
        fn mmap(
            addr: *mut c_void,
            len: usize,
            prot: i32,
            flags: i32,
            fd: i32,
            off: i64,
        ) -> *mut c_void;
        fn munmap(addr: *mut c_void, len: usize) -> i32;
    }
    const PROT_READ_WRITE: i32 = 0x1 | 0x2;
    const MAP_PRIVATE_ANONYMOUS: i32 = 0x02 | 0x20;
    let len = n * std::mem::size_of::<u64>();
    // SAFETY: a fresh private anonymous mapping, checked for failure, is
    // zeroed, page-aligned memory owned by this call alone; the slice over
    // it ends before `munmap` releases it.
    unsafe {
        let p = mmap(
            std::ptr::null_mut(),
            len,
            PROT_READ_WRITE,
            MAP_PRIVATE_ANONYMOUS,
            -1,
            0,
        );
        if p as isize == -1 {
            f(&mut vec![0u64; n]);
            return;
        }
        f(std::slice::from_raw_parts_mut(p.cast::<u64>(), n));
        munmap(p, len);
    }
}

#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
fn with_fresh_words(n: usize, f: impl FnOnce(&mut [u64])) {
    f(&mut vec![0u64; n]);
}

/// Register-only: a dependent xorshift and multiply chain. Millions of
/// steps per second.
fn alu() -> f64 {
    let t = Instant::now();
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    let mut acc = 0u64;
    for i in 0..REF_ALU_STEPS {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        acc = acc.wrapping_mul(x | 1).wrapping_add(i);
    }
    std::hint::black_box(acc);
    REF_ALU_STEPS as f64 / t.elapsed().as_secs_f64() / 1e6
}

/// One run of the reference kernel (about 60 ms): the geometric mean of
/// its random-access, streaming and register-only speeds. The three parts
/// slow down under different neighbours (cache, memory bandwidth, core);
/// on a shared 2-core VM their mean tracked the workloads' pass rates
/// across runs better than any one part did.
fn ref_kernel() -> f64 {
    (random_access() * streaming() * alu()).cbrt()
}

/// Host speed now, in millions of reference operations per second: the
/// mean over `threads` concurrent runs of the reference kernel. The work
/// is fixed and owned by the benchmark, so a change in this number is the
/// host, not the program.
pub fn ref_mops(threads: usize) -> f64 {
    let rates: Vec<f64> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads.max(1)).map(|_| s.spawn(ref_kernel)).collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("reference kernel does not panic"))
            .collect()
    });
    rates.iter().sum::<f64>() / rates.len() as f64
}

/// One reading of host speed: the mean [`ref_mops`] over a stretch of
/// back-to-back kernel runs, and how long the stretch took.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RefSample {
    /// Millions of reference operations per second.
    pub mops: f64,
    /// Seconds the kernel ran.
    pub secs: f64,
}

/// Host speed over at least `secs` of back-to-back [`ref_mops`] runs (at
/// least one). A single short run catches bursts a pass of a second or
/// more averages out, so readings beside a pass run for a share of it.
pub fn ref_sample(threads: usize, secs: f64) -> RefSample {
    let t = Instant::now();
    let mut weighted = 0.0;
    let mut last = 0.0;
    loop {
        let mops = ref_mops(threads);
        let now = t.elapsed().as_secs_f64();
        weighted += mops * (now - last);
        last = now;
        if now >= secs {
            return RefSample {
                mops: weighted / now,
                secs: now,
            };
        }
    }
}

/// The time-weighted mean speed of `samples`: the host's mean speed over
/// every stretch the kernel ran (0 for no samples).
pub fn mean_mops(samples: &[RefSample]) -> f64 {
    let secs: f64 = samples.iter().map(|s| s.secs).sum();
    let ops: f64 = samples.iter().map(|s| s.mops * s.secs).sum();
    crate::stats::rate(ops, secs)
}

/// The host speed rescaled figures are expressed at, in [`ref_mops`]
/// units: about the mean a shared 2-core x86-64 VM reaches.
pub const REF_NOMINAL_MOPS: f64 = 225.0;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_speed_weights_samples_by_time() {
        let s = |mops, secs| RefSample { mops, secs };
        assert_eq!(mean_mops(&[s(10.0, 1.0), s(40.0, 2.0)]), 30.0);
        assert_eq!(mean_mops(&[]), 0.0);
    }

    #[test]
    fn a_sample_runs_for_its_share() {
        let r = ref_sample(1, 0.05);
        assert!(r.secs >= 0.05 && r.mops > 0.0);
    }
}
