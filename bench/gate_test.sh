#!/usr/bin/env bash
# Checks `main.exe gate` on copies of the committed baselines without
# running any simulation: an unchanged copy passes, one changed digit in
# a simulated-clock artifact fails the byte-identity check, and a
# wall-clock headline scaled to 0.8x fails the ratio check.
#
#   bash bench/gate_test.sh MAIN_EXE BASELINE_DIR
set -euo pipefail
main=$(realpath "$1")
base=$2
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

# expect EXIT_CODE PATTERN FRESH_DIR
expect() {
  local out code=0
  out=$("$main" gate "$base" "$3") || code=$?
  if [ "$code" != "$1" ] || ! grep -q "$2" <<<"$out"; then
    echo "$out"
    echo "gate_test: FAIL: $3: want exit $1 and '$2', got exit $code" >&2
    exit 1
  fi
}

cp -r "$base" "$tmp/same"
expect 0 "gate: PASS" "$tmp/same"

cp -r "$base" "$tmp/digit"
sed -i -E 's/("n": ?)8192/\18193/' "$tmp/digit/BENCH_reduction.json"
expect 1 "BENCH_reduction.json differs" "$tmp/digit"

cp -r "$base" "$tmp/ratio"
jit="$tmp/ratio/BENCH_jit.json"
v=$(sed -n -E 's/.*"max_speedup": ?([0-9.]+).*/\1/p' "$jit")
scaled=$(awk -v v="$v" 'BEGIN { printf "%.3f", v * 0.8 }')
sed -i -E "s/(\"max_speedup\": ?)$v/\1$scaled/" "$jit"
expect 1 "jit max_speedup regressed" "$tmp/ratio"

echo "gate_test: all checks passed"
