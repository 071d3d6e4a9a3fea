#!/usr/bin/env bash
# Paired same-host A/B throughput comparison.
#
# Single-host wall-clock drifts by ±10% minute to minute on shared
# machines, so comparing a benchmark number recorded yesterday against
# one recorded today mostly measures the host, not the code. This
# script interleaves runs of a BASELINE bench binary and a CURRENT
# bench binary — base, new, base, new, ... within the same minutes on
# the same host — and reports the per-round ratios, the pooled
# aggregate ratio, the median per-round ratio and how many rounds the
# current binary won. Judge a gain (or "no regression") by the win
# count and the median, not by the pooled sum alone: one noisy round
# can swing the pooled ratio.
#
# Usage:
#   scripts/paired_bench.sh <baseline-binary> [current-binary] [rounds]
#
#   baseline-binary  a sim_throughput bench binary from the baseline
#                    commit (build one with:
#                      git checkout <base> && cargo bench -p vex-bench --no-run
#                    then copy target/release/deps/sim_throughput-* aside)
#   current-binary   defaults to the newest
#                    target/release/deps/sim_throughput-* (run
#                    `cargo bench -p vex-bench --no-run` first)
#   rounds           interleaved rounds, default 3
#
# Each binary writes its JSON artifact to a temp path via
# BENCH_SIM_THROUGHPUT_OUT, so the checked-in BENCH_sim_throughput.json
# is never touched.
set -euo pipefail

BASE_BIN=${1:?usage: paired_bench.sh <baseline-binary> [current-binary] [rounds]}
CUR_BIN=${2:-}
ROUNDS=${3:-3}

repo_root=$(cd "$(dirname "$0")/.." && pwd)

if [[ -z "$CUR_BIN" ]]; then
    CUR_BIN=$(ls -t "$repo_root"/target/release/deps/sim_throughput-* 2>/dev/null \
        | grep -v '\.d$' | head -1 || true)
    [[ -n "$CUR_BIN" ]] || {
        echo "error: no current bench binary found; run 'cargo bench -p vex-bench --no-run' first" >&2
        exit 1
    }
fi

for bin in "$BASE_BIN" "$CUR_BIN"; do
    [[ -x "$bin" ]] || { echo "error: $bin is not executable" >&2; exit 1; }
done

workdir=$(mktemp -d)
trap 'rm -rf "$workdir"' EXIT

echo "baseline: $BASE_BIN"
echo "current:  $CUR_BIN"
echo "rounds:   $ROUNDS (interleaved base/current per round)"
echo

for ((r = 1; r <= ROUNDS; r++)); do
    BENCH_SIM_THROUGHPUT_OUT="$workdir/base_$r.json" "$BASE_BIN" --bench >/dev/null
    BENCH_SIM_THROUGHPUT_OUT="$workdir/cur_$r.json" "$CUR_BIN" --bench >/dev/null
    python3 - "$workdir" "$r" <<'EOF'
import json, sys
d, r = sys.argv[1], sys.argv[2]
b = json.load(open(f"{d}/base_{r}.json"))["aggregate_cycles_per_sec"]
c = json.load(open(f"{d}/cur_{r}.json"))["aggregate_cycles_per_sec"]
print(f"round {r}: baseline {b/1e6:7.3f} M cyc/s   current {c/1e6:7.3f} M cyc/s   ratio {c/b:.3f}x")
EOF
done

python3 - "$workdir" "$ROUNDS" <<'EOF'
import json, sys
d, n = sys.argv[1], int(sys.argv[2])
base = [json.load(open(f"{d}/base_{r}.json"))["aggregate_cycles_per_sec"] for r in range(1, n + 1)]
cur = [json.load(open(f"{d}/cur_{r}.json"))["aggregate_cycles_per_sec"] for r in range(1, n + 1)]
ratios = sorted(c / b for b, c in zip(base, cur))
pooled = sum(cur) / sum(base)
mid = len(ratios) // 2
median = ratios[mid] if len(ratios) % 2 else (ratios[mid - 1] + ratios[mid]) / 2
wins = sum(r > 1 for r in ratios)
print()
print(f"pooled ratio (sum current / sum baseline): {pooled:.3f}x")
print(f"median per-round ratio: {median:.3f}x")
print(f"current faster in {wins} of {n} rounds")
print(f"per-round ratios: min {ratios[0]:.3f}x  max {ratios[-1]:.3f}x")
EOF
