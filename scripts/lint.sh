#!/usr/bin/env bash
# spade-lint gate: repo-invariant static analysis (lock order, determinism
# taint over the call graph, panic surface). Units of measure and export
# schemas are checked by the compiler and `cargo test` instead.
#
#   1. spade-lint over the workspace — zero unannotated findings allowed
#   2. machine-readable artifact — `--json` report archived under target/
#      for CI to upload next to the bench snapshots
#   3. fixture self-check — every committed known-bad fixture must FAIL its
#      pass and every known-good fixture must pass, so a regression in the
#      analyzer itself cannot silently green the gate
#   4. allowlist drift — `spade-lint --summary` must match the committed
#      crates/analysis/ALLOWLIST.md, so every new suppression shows up as
#      a reviewable diff
#   5. self-benchmark — the full workspace run must stay within 3x the
#      committed reference wall time (scripts/lint_bench_reference_ms), so
#      an accidentally quadratic pass is caught before it slows every CI run
set -euo pipefail
cd "$(dirname "$0")/.."
# shellcheck source=scripts/now_ms.sh
. scripts/now_ms.sh

echo "==> spade-lint: build"
cargo build -q -p spade-analysis
LINT=target/debug/spade-lint
FIX=crates/analysis/fixtures

echo "==> spade-lint: workspace invariants"
start=$(now_ms)
"$LINT" --root .
end=$(now_ms)
lint_ms=$(( end - start ))

echo "==> spade-lint: JSON artifact"
mkdir -p target
"$LINT" --root . --json > target/spade-lint.json
echo "wrote target/spade-lint.json"

echo "==> spade-lint: fixture self-check"
expect_fail() {
    local label=$1
    shift
    if "$LINT" "$@" >/dev/null 2>&1; then
        echo "ERROR: known-bad fixture passed the $label pass" >&2
        exit 1
    fi
}
expect_fail lock-order   --lock-order  "$FIX/lock_order_bad.rs"
expect_fail determinism  --determinism "$FIX/determinism_bad.rs"
expect_fail taint-chain  --determinism "$FIX/taint_chain_bad_a.rs" "$FIX/taint_chain_bad_b.rs"
"$LINT" --lock-order  "$FIX/lock_order_good.rs"  >/dev/null
"$LINT" --determinism "$FIX/determinism_good.rs" >/dev/null
echo "bad fixtures rejected, good fixtures accepted"

echo "==> spade-lint: allowlist is current"
"$LINT" --root . --summary > target/spade-lint-summary.md
if ! diff -u crates/analysis/ALLOWLIST.md target/spade-lint-summary.md; then
    echo "ERROR: crates/analysis/ALLOWLIST.md is stale. Regenerate with:" >&2
    echo "  cargo run -q -p spade-analysis --bin spade-lint -- --summary > crates/analysis/ALLOWLIST.md" >&2
    exit 1
fi

echo "==> spade-lint: self-benchmark"
ref=$(cat scripts/lint_bench_reference_ms)
limit=$(( ref * 3 ))
echo "workspace lint run: ${lint_ms} ms (reference ${ref} ms, limit ${limit} ms)"
if [ "$lint_ms" -gt "$limit" ]; then
    echo "ERROR: spade-lint took ${lint_ms} ms > ${limit} ms (3x the committed reference)." >&2
    echo "If a new pass legitimately costs this much, re-measure and update" >&2
    echo "scripts/lint_bench_reference_ms; otherwise find the accidental blowup." >&2
    exit 1
fi

echo "==> spade-lint gate passed"
