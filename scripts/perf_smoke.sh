#!/usr/bin/env bash
# Cheap perf-regression gate for CI: times the reduced-grid DSE sweep
# (release profile, 4 workers) and fails when it exceeds 3x the committed
# reference wall time. The generous 3x margin absorbs runner-speed noise;
# the gate exists to catch order-of-magnitude hot-path regressions, not
# percent-level drift (perfbench, see perfbench/README.md, measures that).
#
# The reference lives in scripts/dse_smoke_reference_ms and is refreshed
# whenever a PR intentionally moves the hot path.
# It is an absolute wall time, so if CI migrates to a genuinely slower runner
# class, re-measure there and commit the new reference rather than widening
# the margin.
set -euo pipefail
cd "$(dirname "$0")/.."
# shellcheck source=scripts/now_ms.sh
. scripts/now_ms.sh

cargo build --release -q -p spade-bench --bin spade-experiments

start=$(now_ms)
./target/release/spade-experiments --reduced dse --jobs 4 >/dev/null
end=$(now_ms)
ms=$(( end - start ))

ref=$(cat scripts/dse_smoke_reference_ms)
limit=$(( ref * 3 ))
echo "reduced-grid dse sweep: ${ms} ms (reference ${ref} ms, limit ${limit} ms)"
if [ "$ms" -gt "$limit" ]; then
    echo "perf smoke FAILED: ${ms} ms > ${limit} ms (3x the committed reference)"
    exit 1
fi
echo "perf smoke passed"
