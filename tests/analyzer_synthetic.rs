//! Unit-level analyzer behavior against hand-built synthetic runs: phase
//! detection boundaries, access-pattern classification, and interface
//! detection, exercised through a minimal scripted workload so every record
//! is under the test's control.

use vani_suite::cluster::engine::{RankScript, StepEffect};
use vani_suite::cluster::topology::RankId;
use vani_suite::layers::posix::{self, Fd, OpenFlags, Whence};
use vani_suite::layers::world::IoWorld;
use vani_suite::sim::{Dur, SimTime};
use vani_suite::storage::{FaultPlan, InterferenceSchedule};
use vani_suite::vani::analyzer::Analysis;
use vani_suite::workloads::harness::{execute, WorkloadKind};

/// A scripted op for the synthetic rank.
#[derive(Clone)]
enum SynOp {
    /// Write `len` bytes at the current position.
    Write(u64),
    /// Read `len` bytes at the current position.
    Read(u64),
    /// Seek to an absolute offset.
    Seek(u64),
    /// Idle (compute) for the duration — creates inter-phase gaps.
    Idle(Dur),
}

struct SynScript {
    path: String,
    ops: Vec<SynOp>,
    idx: usize,
    fd: Option<Fd>,
}

impl RankScript<IoWorld> for SynScript {
    fn next_step(&mut self, w: &mut IoWorld, rank: RankId, now: SimTime) -> StepEffect {
        if self.fd.is_none() {
            let (fd, t) = posix::open(w, rank, &self.path, OpenFlags::write_create(), now);
            self.fd = Some(fd.expect("open"));
            return StepEffect::busy_until(t);
        }
        let fd = self.fd.expect("opened");
        if self.idx >= self.ops.len() {
            let (_, t) = posix::close(w, rank, fd, now);
            self.idx += 1;
            if self.idx == self.ops.len() + 1 {
                return StepEffect::busy_until(t);
            }
            return StepEffect::done();
        }
        let op = self.ops[self.idx].clone();
        self.idx += 1;
        let t = match op {
            SynOp::Write(len) => posix::write_pattern(w, rank, fd, len, 1, now).1,
            SynOp::Read(len) => posix::read(w, rank, fd, len, now).1,
            SynOp::Seek(to) => posix::lseek(w, rank, fd, to as i64, Whence::Set, now).1,
            SynOp::Idle(d) => w.compute(rank, d, now),
        };
        StepEffect::busy_until(t)
    }
}

fn run_script(ops: Vec<SynOp>) -> Analysis {
    let world = IoWorld::lassen(1, 1, 3);
    let run = execute(
        WorkloadKind::Ior,
        1.0,
        world,
        FaultPlan::none(),
        InterferenceSchedule::none(),
        vec![],
        |_, _| {
            let script = SynScript {
                path: "/p/gpfs1/syn.bin".to_string(),
                ops: ops.clone(),
                idx: 0,
                fd: None,
            };
            vec![Box::new(script) as Box<dyn RankScript<IoWorld>>]
        },
    );
    Analysis::from_run(&run)
}

#[test]
fn two_bursts_separated_by_a_long_idle_are_two_phases() {
    // Burst 1: ten writes. Long idle (≫ runtime/50). Burst 2: ten reads.
    let mut ops = vec![SynOp::Write(1 << 20); 10];
    ops.push(SynOp::Idle(Dur::from_secs(60)));
    ops.push(SynOp::Seek(0));
    ops.extend(vec![SynOp::Read(1 << 20); 10]);
    let a = run_script(ops);
    assert_eq!(a.profile.phases.len(), 2, "expected exactly two phases");
    assert!(a.profile.phases[0].data_ops >= 10);
    assert!(a.profile.phases[1].data_ops >= 10);
    assert!(a.profile.phases[1].start > a.profile.phases[0].end);
}

#[test]
fn back_to_back_bursts_are_one_phase() {
    let mut ops = vec![SynOp::Write(1 << 20); 10];
    ops.push(SynOp::Seek(0));
    ops.extend(vec![SynOp::Read(1 << 20); 10]);
    let a = run_script(ops);
    assert_eq!(a.profile.phases.len(), 1, "no gap → one phase");
}

#[test]
fn monotone_offsets_classify_sequential() {
    let a = run_script(vec![SynOp::Write(4096); 50]);
    assert_eq!(a.profile.access_pattern, "Seq");
}

#[test]
fn shuffled_offsets_classify_mixed() {
    // Seek backwards before most writes: offsets are non-monotonic.
    let mut ops = Vec::new();
    for i in 0..30u64 {
        let dst = if i % 2 == 0 {
            (30 - i) * 8192
        } else {
            i * 8192
        };
        ops.push(SynOp::Seek(dst));
        ops.push(SynOp::Write(4096));
    }
    let a = run_script(ops);
    assert_eq!(a.profile.access_pattern, "Mixed");
}

#[test]
fn pure_posix_run_detects_posix_interface() {
    let a = run_script(vec![SynOp::Write(4096); 4]);
    assert_eq!(a.profile.interface, "POSIX");
    assert_eq!(a.profile.files.len(), 1);
    assert_eq!(a.profile.fpp_files(), 1);
    assert_eq!(a.profile.shared_files(), 0);
}

#[test]
fn dominant_transfer_size_reported_per_phase() {
    // 20 writes of 4 KiB and 2 of 1 MiB: the phase's dominant transfer is
    // the 4 KiB bucket.
    let mut ops = vec![SynOp::Write(4096); 20];
    ops.extend(vec![SynOp::Write(1 << 20); 2]);
    let a = run_script(ops);
    assert_eq!(a.profile.phases.len(), 1);
    assert_eq!(a.profile.phases[0].dominant_xfer, 4096);
}

#[test]
fn io_time_fraction_reflects_idle_share() {
    // One tiny write and a huge idle: I/O fraction must be near zero.
    let a = run_script(vec![SynOp::Write(4096), SynOp::Idle(Dur::from_secs(100))]);
    assert!(
        a.profile.io_time_frac < 0.01,
        "io frac {}",
        a.profile.io_time_frac
    );
    // All I/O and no idle: fraction should be large.
    let b = run_script(vec![SynOp::Write(8 << 20); 30]);
    assert!(
        b.profile.io_time_frac > 0.5,
        "io frac {}",
        b.profile.io_time_frac
    );
}
