//! Integration: the whole stack is deterministic — the same seed yields
//! bit-identical schedules for every workload.

mod common;

use common::exemplars::exemplars;
use vani_suite::storage::FaultPlan;
use vani_suite::workloads as wl;
use vani_suite::workloads::WorkloadKind;

fn fingerprint(run: &exemplar_workloads::WorkloadRun) -> (u64, usize, u64) {
    let c = run.columnar();
    let sum: u64 = c.end.iter().fold(0u64, |acc, &e| acc.wrapping_add(e));
    (run.report.makespan.as_nanos(), c.len(), sum)
}

#[test]
fn all_workloads_are_deterministic() {
    let kinds = &WorkloadKind::ALL[..6];
    let first = exemplars(kinds, 5, &FaultPlan::none());
    let again = exemplars(kinds, 5, &FaultPlan::none());
    for ((name, a), (_, b)) in first.iter().zip(&again) {
        assert_eq!(
            fingerprint(a),
            fingerprint(b),
            "{name} is not deterministic"
        );
    }
}

/// The `vani_rt::par` entry points must be bit-identical to their
/// sequential path: chunk boundaries depend only on the input and chunk
/// results combine in chunk order, so the worker count must never change a
/// result — not even the floating-point rounding of a non-associative
/// reduction.
#[test]
fn parallel_kernels_match_sequential_bit_for_bit() {
    use vani_rt::par;

    let run = wl::cm1::run(0.01, 5);
    let c = run.columnar();
    let sel = c.data_ops(None);

    // (bytes, a non-associative f64 bandwidth sum) folded over 64-record
    // morsels: the merge tree decides the float's rounding.
    let compute = || {
        let (bytes, bw) = par::par_fold_shards_sized(
            sel.len(),
            64,
            || (0u64, 0.0f64),
            |acc, range| {
                for &i in &sel[range] {
                    let i = i as usize;
                    acc.0 += c.bytes[i];
                    acc.1 += c.dur(i).bandwidth(c.bytes[i]);
                }
            },
            |a, b| {
                a.0 += b.0;
                a.1 += b.1;
            },
        );
        (bytes, bw.to_bits())
    };

    par::set_threads(1);
    let seq = compute();
    par::set_threads(8);
    let par8 = compute();
    par::set_threads(0); // back to auto
    assert!(sel.len() > 64, "the fold must span several morsels");
    assert_eq!(seq, par8, "parallel results diverged from sequential");
    assert_eq!(seq.0, c.sum_bytes(&sel));
}

#[test]
fn different_seeds_change_jittered_timings() {
    let a = wl::hacc::run(0.02, 1);
    let b = wl::hacc::run(0.02, 2);
    // Same op counts (structure is seed-independent) ...
    assert_eq!(a.world.tracer.len(), b.world.tracer.len());
    // ... but service-time jitter shifts the makespan.
    assert_ne!(a.report.makespan, b.report.makespan);
}
