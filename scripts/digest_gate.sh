#!/usr/bin/env bash
# Byte-identity gate for CI: builds perfbench against its committed lockfile
# and fails unless the sweep workloads' export digests for seeds 0-11 equal
# the first 24 lines of perfbench/reference_digests.txt (one sweep-enlarged
# and one sweep-sim line per seed, about 0.55 s per seed in release).
#
# A change that moves any exported number fails here; refresh the reference
# only when that move is intended (see perfbench/README.md).
set -euo pipefail
cd "$(dirname "$0")/.."

cargo build --release --locked -q --manifest-path perfbench/Cargo.toml

expected=$(head -n 24 perfbench/reference_digests.txt)
actual=$(perfbench/target/release/perfbench --record-digests 0 11)
if [ "$actual" != "$expected" ]; then
    echo "digest gate FAILED: perfbench --record-digests 0 11 differs from the reference"
    diff <(echo "$expected") <(echo "$actual") || true
    exit 1
fi
echo "digest gate passed: seeds 0-11 match perfbench/reference_digests.txt"
