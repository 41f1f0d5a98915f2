//! Integration: failure paths propagate cleanly through the layers.

use storage_sim::IoErr;
use vani_suite::cluster::topology::RankId;
use vani_suite::layers::posix::{self, OpenFlags};
use vani_suite::layers::stdio;
use vani_suite::layers::world::IoWorld;
use vani_suite::sim::SimTime;

#[test]
fn enospc_surfaces_through_posix_and_stdio() {
    let mut w = IoWorld::lassen(1, 1, 1);
    let mut cfg = w.storage.pfs().config().clone();
    cfg.capacity = 1 << 20; // 1 MiB file system
    w.storage.pfs_mut().set_config(cfg).unwrap();
    let r = RankId(0);
    // The reduced capacity now takes effect on the PFS itself: a 2 MiB
    // write into the 1 MiB file system must fail with ENOSPC.
    let (fd, t) = posix::open(
        &mut w,
        r,
        "/p/gpfs1/fill",
        OpenFlags::write_create(),
        SimTime::ZERO,
    );
    let fd = fd.unwrap();
    let (res, t) = posix::write_pattern(&mut w, r, fd, 2 << 20, 1, t);
    assert_eq!(
        res.unwrap_err(),
        IoErr::NoSpace,
        "2 MiB cannot fit in a 1 MiB PFS"
    );
    // A write that fits still succeeds (the failed write left no residue).
    let (ok, t) = posix::write_pattern(&mut w, r, fd, 512 << 10, 1, t);
    ok.unwrap();
    // The node-local tier is independent: shm still enforces its own limit.
    let (sfd, t) = posix::open(&mut w, r, "/dev/shm/fill", OpenFlags::write_create(), t);
    let sfd = sfd.unwrap();
    let (res, t) = posix::write_pattern(&mut w, r, sfd, 200 << 30, 1, t);
    assert_eq!(
        res.unwrap_err(),
        IoErr::NoSpace,
        "200 GiB cannot fit in /dev/shm"
    );
    // And stdio over the full PFS surfaces the same typed error.
    let (sh, t) = stdio::fopen(&mut w, r, "/p/gpfs1/fill2", "w", t);
    let sh = sh.unwrap();
    let (res, t) = stdio::fwrite_pattern(&mut w, r, sh, 1 << 20, 1, t);
    let flush = stdio::fclose(&mut w, r, sh, t).0;
    assert!(
        res.is_err() || flush.is_err(),
        "ENOSPC must surface through stdio (write or flush-on-close)"
    );
}

#[test]
fn fd_exhaustion_and_recovery() {
    let mut w = IoWorld::lassen(1, 1, 1);
    let r = RankId(0);
    w.proc_mut(r).max_fds = 4;
    let mut t = SimTime::ZERO;
    let mut fds = Vec::new();
    for i in 0..4 {
        let (fd, t2) = posix::open(
            &mut w,
            r,
            &format!("/p/gpfs1/f{i}"),
            OpenFlags::write_create(),
            t,
        );
        fds.push(fd.unwrap());
        t = t2;
    }
    let (err, t) = posix::open(&mut w, r, "/p/gpfs1/f4", OpenFlags::write_create(), t);
    assert_eq!(err.unwrap_err(), IoErr::TooManyOpenFiles);
    let (_, t) = posix::close(&mut w, r, fds[0], t);
    let (ok, _) = posix::open(&mut w, r, "/p/gpfs1/f4", OpenFlags::write_create(), t);
    ok.unwrap();
}

#[test]
fn missing_files_fail_cleanly_at_every_layer() {
    let mut w = IoWorld::lassen(1, 1, 1);
    let r = RankId(0);
    let (e1, t) = posix::open(
        &mut w,
        r,
        "/p/gpfs1/nope",
        OpenFlags::read_only(),
        SimTime::ZERO,
    );
    assert_eq!(e1.unwrap_err(), IoErr::NotFound);
    let (e2, t2) = stdio::fopen(&mut w, r, "/p/gpfs1/nope", "r", t);
    assert_eq!(e2.unwrap_err(), IoErr::NotFound);
    let (e3, _) = io_layers::hdf5::open(&mut w, r, "/p/gpfs1/nope.h5", Default::default(), t2);
    assert_eq!(e3.err().unwrap(), IoErr::NotFound);
}

#[test]
fn deadlock_detection_catches_missing_gate() {
    use vani_suite::cluster::engine::{
        Blocker, Engine, FnScript, GateId, Outcome, RankScript, RunHalt, StepEffect,
    };
    use vani_suite::cluster::mpi::MpiCostModel;
    let world = ();
    let script = FnScript(|_w: &mut (), _r, _n| StepEffect {
        outcome: Outcome::WaitGate(GateId(1)),
        open_gates: vec![],
    });
    let scripts: Vec<Box<dyn RankScript<()>>> = vec![Box::new(script)];
    let cost = MpiCostModel {
        latency: sim_core::Dur::from_micros(1),
        bandwidth: 1 << 30,
    };
    let mut e = Engine::new(world, scripts, cost);
    // The engine reports the deadlock as a typed error naming the exact
    // rank and gate — no panic, no unwinding.
    let RunHalt::Deadlock(err) = e.run().unwrap_err() else {
        panic!("expected a deadlock");
    };
    assert_eq!(err.blocked.len(), 1);
    assert_eq!(err.blocked[0].1, Blocker::Gate(GateId(1)));
    let msg = err.to_string();
    assert!(
        msg.contains("deadlock"),
        "diagnostic must say deadlock: {msg}"
    );
    assert!(
        msg.contains("gate 1"),
        "diagnostic must name the gate: {msg}"
    );
    assert!(
        msg.contains("rank0") || msg.contains("rank 0") || msg.contains("r0"),
        "diagnostic must name the rank: {msg}"
    );
}
