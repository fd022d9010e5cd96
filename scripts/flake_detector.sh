#!/usr/bin/env bash
# Flake detector: runs the seeded chaos suites several times and fails on
# any divergence. Every suite here draws all randomness from fixed seeds,
# so a test that passes only sometimes — or a chaos digest that changes
# between identically-seeded runs — is a determinism bug, not bad luck.
set -euo pipefail

cd "$(dirname "$0")/.."

RUNS="${RUNS:-3}"
SEED="${SEED:-29}"

cargo build --release --tests --example loadgen

echo "==> flake detector: ${RUNS}x seeded test suites"
for run in $(seq 1 "$RUNS"); do
  echo "--- run ${run}/${RUNS}: chaos_serving"
  cargo test -q --release --test chaos_serving
  echo "--- run ${run}/${RUNS}: net_serving"
  cargo test -q --release --test net_serving
  echo "--- run ${run}/${RUNS}: cluster_serving"
  cargo test -q --release --test cluster_serving
done

echo "==> flake detector: ${RUNS}x loadgen chaos digest comparison"
digests=()
for run in $(seq 1 "$RUNS"); do
  out="$(timeout 180 cargo run --release --example loadgen -- \
    --clients 3 --jobs 48 --workers 3 --policy prefer-specialized \
    --chaos --seed "$SEED")"
  digest="$(printf '%s\n' "$out" | sed -n 's/^chaos digest: //p')"
  if [[ -z "$digest" ]]; then
    echo "run ${run}: loadgen printed no chaos digest" >&2
    exit 1
  fi
  echo "--- run ${run}/${RUNS}: chaos digest ${digest}"
  digests+=("$digest")
done
for digest in "${digests[@]}"; do
  if [[ "$digest" != "${digests[0]}" ]]; then
    echo "chaos digest diverged across identically-seeded runs: ${digests[*]}" >&2
    exit 1
  fi
done

echo "flake detector: ${RUNS}/${RUNS} runs agree (digest ${digests[0]})"
