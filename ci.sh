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

# Clippy's correctness, suspicious and perf groups are errors: each flags
# code that is wrong, probably wrong or needlessly slow, never style.
cargo clippy --offline --workspace --all-targets -- \
    -D clippy::correctness -D clippy::suspicious -D clippy::perf

# Rustdoc warnings are errors too: a doc link to a deleted or private item
# (the usual leftover of narrowing the public surface) fails here.
RUSTDOCFLAGS="-D warnings" cargo doc --offline --workspace --no-deps
cargo test -q --offline --workspace

# The same unit tests of the simulation core and the analysis crate in a
# release build, which drops debug assertions: a test that holds only in
# debug fails here instead of in the first release run, and the
# scheduler's unit tests run at release speed.
cargo test --release --offline -p sim-core -p vani-core --lib

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

# Ring-bound suite, a test binary of its own because the trace gauge is
# process-wide: at 10^6 synthetic records the streaming analyzer's peak
# resident trace bytes stay under the chunk-ring budget
# (resident_bound(DEFAULT_CHUNK_ROWS, RING_SLOTS)), in memory and off
# disk, and both profiles equal the in-memory fused one.
cargo test --release --offline --test streaming_ring_bound

# Codec property suite: seeded adversarial column shapes (random, constant,
# runs, ramps, width-boundary extremes) round-trip bit-exactly through the
# delta/RLE/raw codec, the recycled-buffer decoder, sealed chunks reloaded
# from a spill log, and chunked traces at every chunk size; corrupt buffers
# surface typed errors instead of decoding.
cargo test --release --offline --test codec_roundtrip

# Streaming-vs-fused suite: the bounded-memory streaming analyzer is
# byte-identical to the fused single-pass profile on all seven exemplar
# workloads, clean and faulted, at 1/2/8 workers and several chunk sizes;
# live chunked capture equals batch conversion; peak resident trace bytes
# stay under the ring bound.
cargo test --release --offline --test streaming_vs_fused

# Sweep byte-identity suite: tables, YAML, and the fault report pinned
# equal between sequential and parallel drivers at 1/2/8 workers, with and
# without an active FaultPlan.
cargo test --release --offline --test sweep_parallel_vs_sequential

# Failure-injection suite, run explicitly: typed errors surface cleanly
# through every layer and deadlocks come back as rank → gate diagnostics.
cargo test --release --offline --test failure_injection

# fault-sweep smoke: the deterministic fault plane end to end. On the
# `repro -- fault-sweep` report the suite asserts the CosmoFlow-vs-HACC
# MDS-brownout ordering (metadata-bound degrades >= 2x more), the
# NSD-outage bandwidth cost, and that preload-to-shm shields the training
# read path from PFS faults.
cargo test --release --offline --test fault_sweep

# Crash-recovery suite: checkpoint/restart byte-identity at 1/2/8 workers
# (with and without an extra degradation plan), the crash-sweep tradeoff
# report, and supervised sweeps isolating a panicking scenario.
cargo test --release --offline --test crash_recovery

# Trace-salvage suite: truncated (mid-frame and at every commit boundary)
# and corrupted spill logs recover their longest committed prefix and are
# never reported complete, the analyzer and the multipass oracle agree on
# salvaged columns, the YAML completeness annotation appears, and a
# crashed run's trace round-trips with its resilience attributes.
cargo test --release --offline --test trace_salvage

# fleet-sweep smoke: the multi-tenant datacenter mode end to end in short
# mode (64 jobs), checked by its exit code. That its report is
# byte-identical at any worker count is asserted by the fleet suite below.
cargo run --release --offline -p bench --bin repro -- fleet-sweep --short

# fleet-sweep degraded smoke: the short fleet under the standard node
# failure domain. It is the one binary path that renders the degraded
# tables (outage timeline, goodput accounting, job outcomes, slowdown vs
# the healthy fleet) and the scheduler-policy row; checked by its exit
# code.
cargo run --release --offline -p bench --bin repro -- fleet-sweep --short --node-faults > /dev/null

# Fleet suite: manifest/admission/report byte-identity at 1/2/8 workers
# with and without active FaultPlans and for the 64-job `--short` fleet
# in memory and spilled, single-tenant fleet byte-equal to the dedicated
# run, and typed errors for bad fleet configurations.
cargo test --release --offline --test fleet_sweep

# Fleet failure-domain suite: with an active NodeFaultPlan the degraded
# report (outage timeline, goodput accounting, retry outcomes) is
# byte-identical at 1/2/8 workers; with an empty plan the render is
# FNV-pinned bit-identical to the pre-failure-domain fleet; a killed
# job completes after requeue with its lost work charged, and a job past
# its retry budget is abandoned without being simulated.
cargo test --release --offline --test fleet_resilience

# Spill identity suite: spill-capture -> recover -> off-disk streaming
# analysis is bit-identical to the in-memory fused profile on all seven
# exemplars, clean and faulted, at 1/2/8 workers and two chunk sizes;
# spill, load and spill again writes identical bytes; capture and
# analysis stay under the chunk-ring resident bound.
cargo test --release --offline --test spill_identity

# Spill torture suite: every injected fault class (torn final write,
# partial append, ENOSPC, bit flip, crash-before-commit) at several
# target chunks recovers the longest committed prefix with a typed
# diagnostic — never a panic — and analyzing the recovered prefix off
# disk equals in-memory streaming over the same records at 1/2/8
# workers. ENOSPC leaves no temp-file litter.
cargo test --release --offline --test spill_torture

# Persistence corruption property suite: seeded random truncations and
# bit flips of a v4 spill log never panic any loader — typed errors or
# honest-prefix salvage only, and a salvage that lost records is never
# reported complete — and a strict replay of any mutant fails typed or
# equals the clean profile. Checksum-fixed meta mutations are caught as
# codec-class damage: by the decoding walk at fsck/salvage time, inside
# the strict fold (which decodes each chunk once and checks its meta), or
# at strict open for metas that would size or index the fold out of range.
cargo test --release --offline --test persist_corruption

# fleet-sweep spill smoke: the short fleet with every per-job trace
# staged through an on-disk spill log. The report gains the spill
# durability section (all records durable on a clean run) and the job
# logs land in the scratch directory; checked by its exit code.
spill_dir="$(mktemp -d)"
cargo run --release --offline -p bench --bin repro -- fleet-sweep --short --spill "$spill_dir" > /dev/null
rm -rf "$spill_dir"

tree_after="$(git status --porcelain)"
if [ "$tree_after" != "$tree_before" ]; then
    echo "ci: a step changed the working tree:" >&2
    diff <(printf '%s\n' "$tree_before") <(printf '%s\n' "$tree_after") >&2 || true
    exit 1
fi

echo "ci: OK"
