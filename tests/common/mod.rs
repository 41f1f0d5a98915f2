//! Helpers shared by the root integration suites; a suite pulls them in
//! with `mod common;`. Each suite uses only some of them.
#![allow(dead_code)]

pub mod exemplars;
pub mod fcfs;
pub mod multipass;
pub mod synthetic;

use std::sync::{Mutex, MutexGuard};

/// Run a suite's tests one at a time, for suites whose tests touch
/// process-wide state: a test that asserts a peak of the `trace_gauge`
/// must not overlap a test that charges it, and two worker sweeps must
/// not interleave their `rt::par::set_threads` calls. Each suite is its
/// own binary, so each gets its own lock.
pub fn serial() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    // A failing test poisons the lock; the tests after it still run.
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}
