#!/bin/sh
# Runs every workload once and prints its result line, so one command
# shows every end-to-end metric (or, with trace 1, every per-layer metric)
# by name and unit. Exits non-zero if any workload failed a check.
#
# Usage: sh perfbench/run_all.sh [seed] [seconds] [trace]
set -u
seed=${1:-1}
seconds=${2:-30}
trace=${3:-0}
manifest="$(dirname "$0")/Cargo.toml"
status=0
for w in xpander_hyb_skew fattree_pfabric_a2a fluid_jellyfish_tp flowsim_fig15; do
    out=$(cargo run --quiet --release --offline --manifest-path "$manifest" -- \
        --workload "$w" --seed "$seed" --seconds "$seconds" --trace "$trace") || status=1
    printf '%s: %s\n' "$w" "$(printf '%s\n' "$out" | tail -n 1)"
done
exit "$status"
