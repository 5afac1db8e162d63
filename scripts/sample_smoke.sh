#!/bin/sh
# Sampled-simulation smoke test, wired into `make check` (and available
# as `make sample-smoke`): run one kernel end to end under --sample,
# check the --metrics document carries the sample section, check the
# run is deterministic for a fixed seed, check the spec grammar is
# enforced (exit 2), and push one sampled sweep through the grid.
# Everything under `timeout`. The sample section's contents (spec,
# intervals, a CI covering the full run's IPC) are checked by the dune
# test `sample:cli` ("sampled metrics cover the full run").
set -eu

ROOT=$(cd "$(dirname "$0")/.." && pwd)
CLI="$ROOT/_build/default/bin/resim_cli.exe"
TMP=$(mktemp -d)
trap 'rm -rf "$TMP"' EXIT

if [ ! -x "$CLI" ]; then
    (cd "$ROOT" && dune build bin/resim_cli.exe)
fi

fail=0

# --- one sampled run, metrics spliced --------------------------------
timeout 300 "$CLI" simulate -k gzip -s 4000 --sample 200:1800:7 \
    --metrics "$TMP/sampled.json" > "$TMP/first.out"

if ! grep -q 'sampled (200:1800:7):' "$TMP/first.out"; then
    echo "FAIL simulate: no sampled summary line"
    fail=1
fi
if ! grep -q '"sample"' "$TMP/sampled.json"; then
    echo "FAIL metrics: no sample section in the JSON document"
    fail=1
fi

# --- determinism: a fixed seed reproduces the report -----------------
timeout 300 "$CLI" simulate -k gzip -s 4000 --sample 200:1800:7 \
    > "$TMP/second.out"
grep 'sampled (' "$TMP/first.out" > "$TMP/first.sampled"
grep 'sampled (' "$TMP/second.out" > "$TMP/second.sampled"
if ! cmp -s "$TMP/first.sampled" "$TMP/second.sampled"; then
    echo "FAIL determinism: two runs with the same seed diverged"
    diff "$TMP/first.sampled" "$TMP/second.sampled" || true
    fail=1
fi

# --- the spec grammar is enforced before any work --------------------
for bad in nonsense 0:100 100:-1 1:2:3:4; do
    if "$CLI" simulate -k gzip -s 256 --sample "$bad" \
        > /dev/null 2>&1; then
        echo "FAIL spec: --sample $bad was accepted"
        fail=1
    else
        status=$?
        if [ "$status" -ne 2 ]; then
            echo "FAIL spec: --sample $bad exited $status, expected 2"
            fail=1
        fi
    fi
done

# --- sampled sweep through the quick grid ----------------------------
timeout 600 "$CLI" sweep --quick -j 2 --sample 200:1800:7 \
    --metrics "$TMP/sweep.json" > "$TMP/sweep.out"
if ! grep -q '"sample"' "$TMP/sweep.json"; then
    echo "FAIL sweep: no per-job sample sections in the metrics"
    fail=1
fi

if [ "$fail" -ne 0 ]; then
    echo "sample-smoke: FAILED"
    exit 1
fi
echo "sample-smoke: all clean"
