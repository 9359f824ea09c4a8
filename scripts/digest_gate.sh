#!/usr/bin/env bash
# Byte-identity gate for CI: builds perfbench against its committed lockfile
# and fails unless the sweep workloads' export digests for seeds 0-11 equal
# the first 24 lines of perfbench/reference_digests.txt, and those of the
# held-out seed 1009 equal its last two lines (one sweep-enlarged and one
# sweep-sim line per seed, about 0.55 s per seed in release).
#
# A change that moves any exported number fails here; refresh the reference
# only when that move is intended (see perfbench/README.md).
set -euo pipefail
cd "$(dirname "$0")/.."

cargo build --release --locked -q --manifest-path perfbench/Cargo.toml

check() {
    local first=$1 last=$2 expected=$3
    local actual
    actual=$(perfbench/target/release/perfbench --record-digests "$first" "$last")
    if [ "$actual" != "$expected" ]; then
        echo "digest gate FAILED: perfbench --record-digests $first $last differs from the reference"
        diff <(echo "$expected") <(echo "$actual") || true
        exit 1
    fi
}
check 0 11 "$(head -n 24 perfbench/reference_digests.txt)"
check 1009 1009 "$(tail -n 2 perfbench/reference_digests.txt)"
echo "digest gate passed: seeds 0-11 and 1009 match perfbench/reference_digests.txt"
