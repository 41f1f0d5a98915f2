#!/usr/bin/env bash
# Tier-1 verification, fully offline (see DESIGN.md, "Hermeticity").
#
# --offline proves the zero-external-dependency invariant: the build must
# succeed with an empty registry cache. --workspace is required because the
# root package (vani-suite) does not depend on the `bench` crate, so a plain
# `cargo build` at the root would silently skip it.
set -euo pipefail
cd "$(dirname "$0")"

# Formatting is a gate, not a suggestion: the whole tree is rustfmt-clean
# as of the failure-domain PR, and drift compounds fast in a repo this
# cross-cutting.
cargo fmt --check

# Warnings are errors in CI: the crash-recovery plane threads state through
# many layers, and an unused field or import is usually a wiring mistake.
RUSTFLAGS="-D warnings" cargo build --release --offline --workspace
cargo test -q --offline --workspace
cargo bench -q --offline -p bench --no-run

# The repository benchmark is a workspace of its own (perfbench/) that
# calls the library's public functions, so the workspace build above does
# not compile it. Build and test it here: a library signature change that
# breaks the benchmark fails CI instead of the benchmark run.
cargo test --release --offline --manifest-path perfbench/Cargo.toml

# bench-smoke: exercise the analyzer old-vs-new harness end to end in its
# short mode. Regenerates BENCH_analyzer.json at the repo root and asserts
# (inside the binary) that the fused, multipass, and streaming profiles
# stay equal on every measured trace, and that the streaming analyzer's
# peak resident trace bytes never exceed the chunk-ring budget
# (resident_bound(DEFAULT_CHUNK_ROWS, RING_SLOTS)). A regression in either
# invariant fails this step.
cargo run --release --offline -p bench --bin bench_analyzer -- --short

# Codec property suite: seeded adversarial column shapes (random, constant,
# runs, ramps, width-boundary extremes) round-trip bit-exactly through the
# delta/RLE/raw codec, the recycled-buffer decoder, hex transport, sealed
# chunks, and chunked traces at every chunk size; corrupt buffers surface
# typed errors instead of decoding.
cargo test --release --offline --test codec_roundtrip

# Streaming-vs-fused suite: the bounded-memory streaming analyzer is
# byte-identical to the fused single-pass profile on all seven exemplar
# workloads, clean and faulted, at 1/2/8 workers and several chunk sizes;
# live chunked capture equals batch conversion; peak resident trace bytes
# stay under the ring bound; the adaptive sampler is off by default and
# deterministic when budgeted.
cargo test --release --offline --test streaming_vs_fused

# pipeline bench-smoke: the scenario-parallel sweep driver end to end in
# short mode. Regenerates BENCH_pipeline.json and fails (inside the
# binary) if parallel output diverges from the sequential driver at any
# worker count, or if the direct and emulated-legacy capture paths ever
# produce different columns.
cargo run --release --offline -p bench --bin repro -- bench-pipeline --short

# Sweep byte-identity suite: tables, YAML, and the fault report pinned
# equal between sequential and parallel drivers at 1/2/8 workers, with and
# without an active FaultPlan.
cargo test --release --offline --test sweep_parallel_vs_sequential

# Failure-injection suite, run explicitly: typed errors surface cleanly
# through every layer and deadlocks come back as rank → gate diagnostics.
cargo test --release --offline --test failure_injection

# fault-sweep smoke: the deterministic fault plane end to end. The suite
# asserts the CosmoFlow-vs-HACC MDS-brownout ordering (metadata-bound
# degrades >= 2x more), the NSD-outage bandwidth cost, and that preload-
# to-shm shields the training read path from PFS faults.
cargo test --release --offline --test fault_sweep

# Crash-recovery suite: checkpoint/restart byte-identity at 1/2/8 workers
# (with and without an extra degradation plan), the crash-sweep tradeoff
# report, and supervised sweeps isolating a panicking scenario.
cargo test --release --offline --test crash_recovery

# Trace-salvage suite: truncated and corrupted row-group captures recover
# their longest consistent prefix, the fused and multipass analyzers agree
# on salvaged columns, and the YAML completeness annotation appears.
cargo test --release --offline --test trace_salvage

# fleet-sweep smoke: the multi-tenant datacenter mode end to end in short
# mode (64 jobs). Regenerates BENCH_fleet.json and fails (inside the
# binary) if the rendered fleet report diverges from the sequential driver
# at any worker count; invalid mixes exit 2 with a typed FleetError.
cargo run --release --offline -p bench --bin repro -- fleet-sweep --short

# Fleet suite: manifest/admission/report byte-identity at 1/2/8 workers
# with and without active FaultPlans, single-tenant fleet byte-equal to
# the dedicated run, and typed errors for bad fleet configurations.
cargo test --release --offline --test fleet_sweep

# Fleet failure-domain suite: with an active NodeFaultPlan the degraded
# report (outage timeline, goodput accounting, retry outcomes) is
# byte-identical at 1/2/8 workers; with an empty plan the render and JSON
# are FNV-pinned bit-identical to the pre-failure-domain fleet; a killed
# job completes after requeue with its lost work charged, and a job past
# its retry budget is abandoned without being simulated.
cargo test --release --offline --test fleet_resilience

# Spill identity suite: spill-capture -> recover -> off-disk streaming
# analysis is bit-identical to the in-memory fused profile on all seven
# exemplars, clean and faulted, at 1/2/8 workers and two chunk sizes; a
# v3 log loads through every v1/v2 persistence entry point; capture and
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
# bit flips over all three trace generations (v1 row-group JSON, v2
# chunked JSON, v3 binary spill log) never panic any loader — typed
# errors or honest-prefix salvage only — and a checksum-fixed meta
# mutation is caught by deep verification as codec-class damage.
cargo test --release --offline --test persist_corruption

# fleet-sweep spill smoke: the short fleet with every per-job trace
# staged through an on-disk spill log. The report gains the spill
# durability section (all records durable on a clean run) and the job
# logs land in the scratch directory; exits non-zero on any divergence.
spill_dir="$(mktemp -d)"
cargo run --release --offline -p bench --bin repro -- fleet-sweep --short --spill "$spill_dir" > /dev/null
rm -rf "$spill_dir"

echo "ci: OK"
