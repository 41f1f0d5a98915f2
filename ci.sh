#!/usr/bin/env bash
# Tier-1 verification, fully offline (see DESIGN.md, "Hermeticity").
#
# --offline proves the zero-external-dependency invariant: the build must
# succeed with an empty registry cache. --workspace is required because the
# root package (vani-suite) does not depend on the `bench` crate, so a plain
# `cargo build` at the root would silently skip it.
set -euo pipefail
cd "$(dirname "$0")"

# CI writes nothing to the tree: this snapshot of the working tree's status,
# compared at the end, fails CI if any step created, changed or deleted a
# file outside the ignored build outputs.
tree_before="$(git status --porcelain)"

# Formatting is a gate, not a suggestion: the whole tree is rustfmt-clean
# as of the failure-domain PR, and drift compounds fast in a repo this
# cross-cutting.
cargo fmt --check

# Warnings are errors in CI: the crash-recovery plane threads state through
# many layers, and an unused field or import is usually a wiring mistake.
RUSTFLAGS="-D warnings" cargo build --release --offline --workspace

# Bounded-memory smoke: Figure 8 (Montage) at scale 0.15 under a 368 MiB
# address-space cap. The simulated store holds each byte once (staged
# headers and prefixes are shared, STDIO buffers keep synthetic writes as
# pattern pieces), each sweep point drops its baseline run before the
# optimized run simulates, and each run's captured columns are folded in
# place instead of copied into an analysis. The run is pinned to one
# worker (`VANI_THREADS=1` keeps all work on the calling thread), so no
# two sweep points overlap and no worker thread reserves a glibc arena of
# its own; with two workers the need moved by tens of MiB with timing.
# Bisected to 4 MiB over three runs, it completes under caps down to
# 334-337 MiB; the cap is 1.09x the largest. The cap applies to the built
# binary in a subshell, not to cargo.
( ulimit -v 376832; VANI_THREADS=1 VANI_SCALE=0.15 target/release/repro fig8 > /dev/null )

# Bounded-memory smoke: the crash sweep at scale 0.25 under a 276 MiB
# address-space cap, on one worker for the same reason. Each grid cell
# folds its run's captured columns in place, keeps only its `CrashPoint`
# (and wave 1 its makespan) and drops the run. Bisected to 4 MiB over
# three runs, it completes under caps down to 236-253 MiB; the cap is
# 1.09x the largest.
( ulimit -v 282624; VANI_THREADS=1 VANI_SCALE=0.25 target/release/repro crash-sweep > /dev/null )

# Clippy's correctness, suspicious and perf groups are errors: each flags
# code that is wrong, probably wrong or needlessly slow, never style.
cargo clippy --offline --workspace --all-targets -- \
    -D clippy::correctness -D clippy::suspicious -D clippy::perf

# Rustdoc warnings are errors too: a doc link to a deleted or private item
# (the usual leftover of narrowing the public surface) fails here.
RUSTDOCFLAGS="-D warnings" cargo doc --offline --workspace --no-deps
cargo test -q --offline --workspace

# Every suite and every crate's unit tests again in a release build, which
# drops debug assertions: a test that holds only in debug fails here
# instead of in the first release run, and the heavy suites (streaming and
# spill identity at 1/2/8 workers, the 10^6-record ring bound, spill
# torture and corruption, crash recovery, the fleet at any worker count)
# run at release speed. Each integration suite is a test binary of its
# own, so the process-wide trace gauge is never shared across suites.
cargo test --release --offline --workspace

# The repository benchmark is a workspace of its own (perfbench/) that
# calls the library's public functions, so the workspace build above does
# not compile it. Build and test it here: a library signature change that
# breaks the benchmark fails CI instead of the benchmark run.
cargo test --release --offline --manifest-path perfbench/Cargo.toml

# Pinned paper-six render: the benchmark's paper-six workload compares the
# rendered tables and YAML of seed 7 against a pinned digest and reports
# `"correct": true` on its last line only when they match, so any change
# to the paper's rendered output fails CI.
paper_six="$(cargo run --release --offline -q --manifest-path perfbench/Cargo.toml -- \
    --workload paper-six --seed 7 --seconds 2 --trace 0 | tail -n 1)"
case "$paper_six" in
    *'"correct": true'*) ;;
    *) echo "ci: paper-six render digest mismatch: $paper_six" >&2; exit 1 ;;
esac

# Fleet cross-check: the benchmark's traced fleet pass re-drives the
# 200-job standard fleet through the library's per-step calls, sealing
# each job's trace and folding it chunk by chunk, and reports
# `"correct": true` on its last line only when that report renders byte
# for byte like `fleet_sweep`'s, which folds each job's captured columns
# in place. Any divergence between the two analysis paths fails CI.
fleet="$(cargo run --release --offline -q --manifest-path perfbench/Cargo.toml -- \
    --workload fleet --seed 7 --seconds 2 --trace 1 | tail -n 1)"
case "$fleet" in
    *'"correct": true'*) ;;
    *) echo "ci: fleet cross-check mismatch: $fleet" >&2; exit 1 ;;
esac

# Spill round trip gates: the benchmark's trace-roundtrip workload captures
# 4M synthetic records through a v4 spill log, replays them off disk and
# checks the profile against the in-memory fused one; its last line holds
# `"correct": true` only when every record round-tripped. The same run with
# `--corrupt-log` flips one byte of each log before replay and must report
# `"correct": false`: the XXH64 frame checksum has to catch the flip. The
# replay is `open_strict` (frames, checksums and meta bounds, no chunk
# decode) then the streaming fold, which checks each chunk's decode against
# its seal-time meta. The traced run replays through the benchmark's own
# `ChunkSource` wrapper, so it must also be correct: the chunk check lives
# in the fold, not in one source type.
roundtrip() {
    cargo run --release --offline -q --manifest-path perfbench/Cargo.toml -- \
        --workload trace-roundtrip --seed 5 --seconds 2 --trace 0 "$@" | tail -n 1
}
roundtrip_clean="$(roundtrip)"
case "$roundtrip_clean" in
    *'"correct": true'*) ;;
    *) echo "ci: trace-roundtrip is not correct: $roundtrip_clean" >&2; exit 1 ;;
esac
roundtrip_corrupt="$(roundtrip --corrupt-log)"
case "$roundtrip_corrupt" in
    *'"correct": false'*) ;;
    *) echo "ci: trace-roundtrip missed a corrupted log: $roundtrip_corrupt" >&2; exit 1 ;;
esac
roundtrip_traced="$(cargo run --release --offline -q --manifest-path perfbench/Cargo.toml -- \
    --workload trace-roundtrip --seed 5 --seconds 2 --trace 1 | tail -n 1)"
case "$roundtrip_traced" in
    *'"correct": true'*) ;;
    *) echo "ci: traced trace-roundtrip is not correct: $roundtrip_traced" >&2; exit 1 ;;
esac

# fleet-sweep smoke: the multi-tenant datacenter mode end to end in short
# mode (64 jobs), checked by its exit code. That its report is
# byte-identical at any worker count is asserted by `tests/fleet_sweep.rs`.
cargo run --release --offline -p bench --bin repro -- fleet-sweep --short

# fleet-sweep degraded smoke: the short fleet under the standard node
# failure domain. It is the one binary path that renders the degraded
# tables (outage timeline, goodput accounting, job outcomes, slowdown vs
# the healthy fleet) and the scheduler-policy row; checked by its exit
# code.
cargo run --release --offline -p bench --bin repro -- fleet-sweep --short --node-faults > /dev/null

# fleet-sweep spill smoke: the short fleet with every per-job trace
# staged through an on-disk spill log. The report gains the spill
# durability section (all records durable on a clean run) and the job
# logs land in the scratch directory; checked by its exit code. Then the
# binary's own recovery check walks one of those logs and must find it
# clean (sealed, fully committed, nothing quarantined).
spill_dir="$(mktemp -d)"
trap 'rm -rf "$spill_dir"' EXIT
cargo run --release --offline -p bench --bin repro -- fleet-sweep --short --spill "$spill_dir" > /dev/null
spill_logs=("$spill_dir"/job-*.vsp3)
fsck_out="$(target/release/repro trace-fsck "${spill_logs[0]}")"
case "$fsck_out" in
    *'verdict : clean'*) ;;
    *) echo "ci: trace-fsck found ${spill_logs[0]} unclean:" >&2
       echo "$fsck_out" >&2
       exit 1 ;;
esac

tree_after="$(git status --porcelain)"
if [ "$tree_after" != "$tree_before" ]; then
    echo "ci: a step changed the working tree:" >&2
    diff <(printf '%s\n' "$tree_before") <(printf '%s\n' "$tree_after") >&2 || true
    exit 1
fi

echo "ci: OK"
