#!/bin/sh
# Paired engine-speed gate (`make obs-guard`): is the working tree
# slower than HEAD? HEAD is built from `git archive` in a temporary
# directory; then ten perfbench simulate-stream pairs run, seeds 1-10,
# one run per side, alternating which side runs first so a drift in
# host load charges both sides alike. A run that exits non-zero or
# reads incorrect fails the gate (perfbench itself exits 0 on an
# incorrect run). Otherwise `resim_bench compare` judges the pairs with
# the bounds in BENCHMARK.json, and its status is the gate's: 1 on a
# `worse` row.
set -eu

ROOT=$(cd "$(dirname "$0")/.." && pwd)
TMP=$(mktemp -d)
trap 'rm -rf "$TMP"' EXIT

mkdir "$TMP/parent"
(cd "$ROOT" && git archive HEAD) | tar -x -C "$TMP/parent"

# run SIDE TREE SEED: one measurement, appended to $TMP/SIDE.jsonl.
run() {
    out="$TMP/$1-$3.out"
    if ! bash "$2/perfbench/run.sh" --workload simulate-stream --seed "$3" \
        --seconds 16 --json "$TMP/$1.jsonl" > "$out"; then
        echo "obs-guard: FAILED: $1 run, seed $3, exited non-zero"
        exit 1
    fi
    last=$(tail -n 1 "$out")
    case "$last" in
        *'"correct":true'*'"failed":0,'*) ;;
        *)
            echo "obs-guard: FAILED: $1 run, seed $3, is incorrect: $last"
            exit 1 ;;
    esac
    echo "obs-guard: seed $3 $1: $(grep '^simulate-stream wall_best_ms ' "$out")"
}

for seed in 1 2 3 4 5 6 7 8 9 10; do
    if [ $((seed % 2)) -eq 1 ]; then
        run parent "$TMP/parent" "$seed"
        run change "$ROOT" "$seed"
    else
        run change "$ROOT" "$seed"
        run parent "$TMP/parent" "$seed"
    fi
done

cd "$ROOT"
status=0
./_build/default/perfbench/resim_bench.exe compare \
    "$TMP/parent.jsonl" "$TMP/change.jsonl" || status=$?
exit "$status"
