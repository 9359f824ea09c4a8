#!/usr/bin/env bash
# CI gate for the SPADE reproduction workspace.
#
# Runs the same checks as .github/workflows/ci.yml:
#   1. cargo fmt --check        — formatting
#   2. cargo clippy -D warnings — lints, all targets
#   3. scripts/lint.sh          — spade-lint repo invariants (lock order,
#                                 determinism, panic surface) + fixture
#                                 self-check + allowlist drift
#   4. cargo test -q            — unit + integration + property + doc tests
#   5. examples                 — the four library examples, release
#   6. experiments golden       — spade-experiments --reduced --jobs 1
#                                 stdout vs tests/golden/experiments_reduced.txt
#   7. dse smoke with --jobs 4  — the parallel sweep path, reduced grid,
#                                 legacy drive + one scripted scenario,
#                                 full-sweep, delta (the exact counter
#                                 line), and adaptive execution
#   8. perf smoke               — reduced dse (release) vs committed reference
#   9. serve smoke              — spade-serve + 50 spade-loadgen requests:
#                                 warm rate > 0, zero errors, clean SHUTDOWN,
#                                 wall time vs committed reference
#  10. digest gate              — perfbench (built --locked) export digests
#                                 for seeds 0-11 and held-out 1009 vs
#                                 perfbench/reference_digests.txt
#  11. cargo doc --no-deps      — rustdoc with warnings denied (doc rot gate)
#
# The repository benchmark is perfbench (see perfbench/README.md); only its
# digest mode is part of this gate, not its timed runs.

set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> spade-lint (lock order, determinism, panic surface)"
scripts/lint.sh

echo "==> cargo test -q --workspace"
cargo test -q --workspace

echo "==> examples (quickstart, accelerator_comparison, sparsity_explorer, dse_explorer)"
for example in quickstart accelerator_comparison sparsity_explorer dse_explorer; do
    cargo run -q --release --example "$example"
done

echo "==> experiments golden (spade-experiments --reduced --jobs 1 vs tests/golden/experiments_reduced.txt)"
cargo run -q --release -p spade-bench --bin spade-experiments -- --reduced --jobs 1 \
    | diff -u tests/golden/experiments_reduced.txt - || {
    echo "experiments golden FAILED: --reduced stdout differs from the committed golden"
    exit 1
}

echo "==> dse smoke (reduced grid, 4 worker threads)"
cargo run -q -p spade-bench --bin spade-experiments -- --reduced dse --jobs 4

echo "==> dse smoke (scripted stop-and-go scenario, persistent world)"
cargo run -q -p spade-bench --bin spade-experiments -- --reduced dse --jobs 4 --scenario stop-and-go

echo "==> dse smoke (stop-and-go scenario, temporal delta execution)"
delta_out=$(cargo run -q -p spade-bench --bin spade-experiments -- --reduced dse --jobs 4 --scenario stop-and-go --delta)
echo "$delta_out" | grep -Fxq "delta execution: 4/5 frames patched, 30/46/19 layers reused/patched/full, modelled rulegen speedup 1.76x" || {
    echo "delta smoke FAILED: the delta counters differ from the expected line"
    echo "$delta_out" | grep "delta execution" || true
    exit 1
}

echo "==> dse smoke (adaptive exploration, reduced grid)"
adaptive_out=$(cargo run -q -p spade-bench --bin spade-experiments -- --reduced dse --jobs 4 --adaptive)
echo "$adaptive_out" | grep -q "cells screened by roofline bound" || {
    echo "adaptive smoke FAILED: no screening summary in output"
    exit 1
}

echo "==> perf smoke (release reduced dse vs committed reference)"
scripts/perf_smoke.sh

echo "==> serve smoke (spade-serve request loop under spade-loadgen)"
scripts/serve_smoke.sh

echo "==> digest gate (perfbench export digests, seeds 0-11 and 1009, vs committed reference)"
scripts/digest_gate.sh

echo "==> cargo doc --no-deps (RUSTDOCFLAGS=-D warnings)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --quiet

echo "==> CI gate passed"
