#!/usr/bin/env bash
# Lint + format + tier-1 verify gate for the FF-INT8 workspace.
#
# Usage:
#   scripts/check.sh          # fmt --check, clippy -D warnings, doc -D warnings,
#                             # release build (workspace + ff_bench), tests
#                             # (incl. doc-tests), then the two sizes ROADMAP
#                             # tracks (src lines, public items) and nproc
#   scripts/check.sh --fast   # skip the release build (lints + debug tests only)
#
# This wraps the tier-1 verify flow from ROADMAP.md (`cargo build --release &&
# cargo test -q`) with the static gates so CI and local runs agree.

set -euo pipefail
cd "$(dirname "$0")/.."

fast=0
if [[ "${1:-}" == "--fast" ]]; then
    fast=1
fi

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> cargo clippy --all-targets -- -D warnings"
cargo clippy --all-targets -- -D warnings

echo "==> cargo doc --workspace --no-deps (RUSTDOCFLAGS=-D warnings)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --quiet

if [[ "$fast" -eq 0 ]]; then
    echo "==> cargo build --release"
    cargo build --release
fi

if [[ "$fast" -eq 0 ]]; then
    # The benchmark harness is a stand-alone package (own manifest, own lock
    # file) that calls the crates' public API; building it here makes a
    # public-API break fail this gate instead of the benchmark driver.
    echo "==> cargo build --release --offline --manifest-path ff_bench/Cargo.toml"
    cargo build --release --offline --manifest-path ff_bench/Cargo.toml
fi

# Root `default-members` covers every crate, so this also runs every
# crate's doc-tests.
echo "==> cargo test -q"
cargo test -q

if [[ "$fast" -eq 0 ]]; then
    # Serve smoke gate: tiny FF-INT8 model → freeze → save/load → 100
    # concurrent requests through the micro-batcher → accuracy parity with
    # direct in-memory inference asserted (crates/serve/tests/smoke.rs).
    echo "==> serve smoke gate (release)"
    cargo test -q --release -p ff-serve --test smoke

    # Interrupt-resume smoke gate: train 2 epochs → FF8C checkpoint →
    # resume 1 epoch → history and weights bit-identical to 3 straight
    # epochs (crates/core/tests/checkpoint.rs).
    echo "==> interrupt-resume smoke gate (release)"
    cargo test -q --release -p ff-core --test checkpoint interrupt_resume_smoke_gate

    # Network smoke gate: spawn the FF8P TCP server on an ephemeral port →
    # N concurrent client predicts (single + pipelined) → clean shutdown →
    # served predictions bit-identical to in-process frozen inference, so
    # accuracy parity is exact (crates/net/tests/smoke.rs).
    echo "==> network smoke gate (release)"
    cargo test -q --release -p ff-net --test smoke

    # Chaos smoke gate: seeded fault plans (short reads/writes, stalls,
    # mid-frame resets, corruption, raw garbage) against a live server
    # under a watchdog — zero hangs, zero leaked pool slots, typed errors
    # only, and every answer bit-identical to a direct model call
    # (crates/net/tests/chaos.rs).
    echo "==> chaos smoke gate (release)"
    cargo test -q --release -p ff-net --test chaos

    # Multi-model smoke gate: train two models → serve both from one port
    # behind the registry → per-model bit-exact parity vs direct calls →
    # hot-swap one entry from a rotated FF8C checkpoint during live
    # traffic → auth failures (missing/wrong/out-of-scope token) return
    # typed Unauthorized, unknown ids return UnknownModel
    # (crates/net/tests/multimodel.rs).
    echo "==> multi-model smoke gate (release)"
    cargo test -q --release -p ff-net --test multimodel

    # Distributed-training smoke gate: a 2-worker loopback FF8D cluster
    # trains, checkpoints mid-epoch, survives a worker death (deterministic
    # fault injection), resumes — and every run's weights are asserted
    # bit-identical to the single-process sequential trainer
    # (crates/dist/tests/parity.rs).
    echo "==> distributed-training smoke gate (release)"
    cargo test -q --release -p ff-dist --test parity

    # Trace smoke gate: serve under concurrent load → TraceDump/MetricsDump
    # over the wire → every sampled trace is complete with monotonic stage
    # stamps whose reply-written offset lands at the end-to-end latency, and
    # the per-stage histograms in StatsReply account for every request
    # (crates/net/tests/trace.rs).
    echo "==> trace smoke gate (release)"
    cargo test -q --release -p ff-net --test trace

    # Cluster-trace smoke gate: a capture-all 2-worker FF8D run must yield
    # one wire-dumpable ClusterSpan per training step with every coordinator
    # phase and worker stamp present and monotonic, per-kind wire accounting
    # that adds up against the protocol's known frame counts, error counters
    # that have moved by the time the peer reads the typed reply, and a
    # previous-version hello refused by name
    # (crates/dist/tests/cluster_trace.rs).
    echo "==> cluster-trace smoke gate (release)"
    cargo test -q --release -p ff-dist --test cluster_trace
fi

# The two sizes ROADMAP tracks — quote these in the PR description — and the
# cores the engine's threaded paths (and their tests) had: with 1, every GEMM
# and the threaded serving test ran serially.
src_files() { find crates -path '*/src/*' -name '*.rs'; }
echo "==> crates/*/src lines: $(src_files | xargs cat | wc -l)"
echo "==> public items: $(src_files | xargs grep -rhE '^\s*pub (fn|struct|enum|trait|const|type|mod|static) ' | wc -l)"
echo "==> available parallelism (nproc): $(nproc)"

echo "All checks passed."
