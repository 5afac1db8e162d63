#!/bin/sh
# Observability smoke test, wired into `make check` (and available as
# `make obs-smoke`): simulate a kernel with --pipetrace/--metrics,
# validate the JSONL stream with the resim-check schema validator
# (RSM-P codes, both clean and deliberately corrupted), check the
# metrics document carries the stall-cause taxonomy, and run the
# profile subcommand end to end. Everything under `timeout`. That the
# `--metrics` and `profile --json` documents parse is a dune test
# (sample:cli "exit-code table").
set -eu

ROOT=$(cd "$(dirname "$0")/.." && pwd)
CLI="$ROOT/_build/default/bin/resim_cli.exe"
TMP=$(mktemp -d)
trap 'rm -rf "$TMP"' EXIT

if [ ! -x "$CLI" ]; then
    (cd "$ROOT" && dune build bin/resim_cli.exe)
fi

fail=0

# --- pipetrace + metrics + waterfall through one simulate run --------
# (the waterfall's rows, header and legend are a dune test:
# obs:render "simulate --waterfall 8")
timeout 120 "$CLI" simulate -k gzip -s 256 \
    --pipetrace "$TMP/run.jsonl" --metrics "$TMP/run.json" \
    --waterfall 8 > /dev/null

for artifact in run.jsonl run.json; do
    if [ ! -s "$TMP/$artifact" ]; then
        echo "FAIL simulate: $artifact missing or empty"
        fail=1
    fi
done
if ! grep -q '"e":"C"' "$TMP/run.jsonl"; then
    echo "FAIL pipetrace: no commit events in the stream"
    fail=1
fi
if ! grep -q '"stall_causes"' "$TMP/run.json"; then
    echo "FAIL metrics: no stall_causes section"
    fail=1
fi

# CSV flavour: a header line plus one row, same column count.
timeout 120 "$CLI" simulate -k gzip -s 256 --metrics "$TMP/run.csv" \
    > /dev/null
header_cols=$(head -1 "$TMP/run.csv" | tr ',' '\n' | wc -l)
row_cols=$(sed -n 2p "$TMP/run.csv" | tr ',' '\n' | wc -l)
if [ "$header_cols" -ne "$row_cols" ] || [ "$header_cols" -lt 20 ]; then
    echo "FAIL metrics csv: header/row column mismatch ($header_cols/$row_cols)"
    fail=1
fi

# --- schema validation: clean stream passes, corruption fails --------
if ! timeout 60 "$CLI" lint --pipetrace "$TMP/run.jsonl" \
        > "$TMP/lint.out"; then
    echo "FAIL lint --pipetrace: clean stream rejected"
    cat "$TMP/lint.out"
    fail=1
fi
if ! grep -q 'clean' "$TMP/lint.out"; then
    echo "FAIL lint --pipetrace: did not report clean"
    fail=1
fi

{ head -5 "$TMP/run.jsonl"
  echo '{"c":1,"e":"Z"}'
  echo 'not json at all'
} > "$TMP/corrupt.jsonl"
status=0
timeout 60 "$CLI" lint --pipetrace "$TMP/corrupt.jsonl" \
    > "$TMP/corrupt.out" 2>&1 || status=$?
if [ "$status" -ne 1 ]; then
    echo "FAIL lint --pipetrace: corrupt stream exit $status, want 1"
    fail=1
fi
for code in RSM-P002 RSM-P001; do
    if ! grep -q "$code" "$TMP/corrupt.out"; then
        echo "FAIL lint --pipetrace: $code not reported"
        fail=1
    fi
done

# --- profile: every engine phase attributed, JSON written ------------
timeout 120 "$CLI" profile -k gzip -s 256 --json "$TMP/prof.json" \
    > "$TMP/profile.out"
for phase in commit writeback issue dispatch decouple fetch account; do
    if ! grep -q "engine/$phase" "$TMP/profile.out"; then
        echo "FAIL profile: engine/$phase missing from the section table"
        fail=1
    fi
done
if [ ! -s "$TMP/prof.json" ]; then
    echo "FAIL profile: --json wrote nothing"
    fail=1
fi

if [ "$fail" -ne 0 ]; then
    echo "obs-smoke: FAILED"
    exit 1
fi
echo "obs-smoke: clean"
