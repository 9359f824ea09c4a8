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
#   5. dse smoke with --jobs 4  — the parallel sweep path, reduced grid,
#                                 legacy drive + one scripted scenario,
#                                 full-sweep, delta, and adaptive execution
#   6. perf smoke               — reduced dse (release) vs committed reference
#   7. serve smoke              — spade-serve + 50 spade-loadgen requests:
#                                 warm rate > 0, zero errors, clean SHUTDOWN,
#                                 wall time vs committed reference
#   8. cargo bench --no-run     — the experiments bench must compile
#   9. cargo doc --no-deps      — rustdoc with warnings denied (doc rot gate)

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

echo "==> dse smoke (reduced grid, 4 worker threads)"
cargo run -q -p spade-bench --bin spade-experiments -- --reduced dse --jobs 4

echo "==> dse smoke (scripted stop-and-go scenario, persistent world)"
cargo run -q -p spade-bench --bin spade-experiments -- --reduced dse --jobs 4 --scenario stop-and-go

echo "==> dse smoke (stop-and-go scenario, temporal delta execution)"
cargo run -q -p spade-bench --bin spade-experiments -- --reduced dse --jobs 4 --scenario stop-and-go --delta

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

echo "==> cargo bench -p spade-bench --no-run"
cargo bench -p spade-bench --no-run

echo "==> cargo doc --no-deps (RUSTDOCFLAGS=-D warnings)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --quiet

echo "==> CI gate passed"
