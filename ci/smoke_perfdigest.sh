#!/usr/bin/env bash
# Outcome-identity smoke: run each perfbench workload for one short
# pass at seed 42 and compare the digest it prints with the pinned
# value below. The digest covers every simulated outcome of the pass
# (engine: core.CanonicalDigest; distributed: distrib.UsageDigest), so
# a change that only touches performance must leave all three equal.
# A change that alters scheduling outcomes on purpose updates the
# pins in the same commit and says why.
set -euo pipefail
cd "$(dirname "$0")/.."

declare -A want=(
  [loaded-10k]=c7bce5a2c783351f64420fee66fdec17cc12c4ed87a3101db3bafceaea1c8723
  [churn-1k]=1d133feef4829789a3472182157a5bb4b451629b472cd8fd8ae1f0a10c297825
  [distrib-hub-128]=ee0d5c6457f6675599eaf6c4ef6b4096afbb2c8b13163aa550bba9c73ed735b0
)

fail=0
for w in loaded-10k churn-1k distrib-hub-128; do
  # --seconds 0: one measured pass (plus the bare pass the benchmark
  # always compares it with).
  if ! out=$(bash perfbench/run.sh --workload "$w" --seed 42 --seconds 0 --trace 0); then
    echo "$out" | grep -E '^(correctness|  problem):' >&2 || true
    echo "$w: benchmark run failed" >&2
    fail=1
    continue
  fi
  got=$(echo "$out" | awk '/^digest: / {print $2; exit}')
  if [ "$got" = "${want[$w]}" ]; then
    echo "$w: digest $got ok"
  else
    echo "$w: digest ${got:-<none>}, want ${want[$w]}" >&2
    fail=1
  fi
done
[ "$fail" = 0 ] || { echo "perf digest smoke test FAILED" >&2; exit 1; }
echo "perf digest smoke test passed"
