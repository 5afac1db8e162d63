#!/bin/sh
# Trace-frontier smoke test, wired into `make check` (and available as
# `make trace-smoke`): the foreign-format adapters and the streaming
# path end to end through the CLI.
#
#   1. Both foreign profiles (text, riscv) adapt, lint clean and
#      simulate with nonzero synthesized wrong-path fetches; malformed
#      input exits 1 with an RSM-A file:line diagnostic (never a
#      backtrace) and a missing file exits 2 with RSM-T009.
#   2. `simulate -t` (every trace file streams through the chunked
#      cursor) produces metrics byte-identical to an independent
#      oracle: the same kernel generated in memory (`simulate -k`).
#      A streamed-header file agrees with itself through a pipe
#      (`-t -`, no flag) and with the no-op --stream flag.
#   3. Sharded traces (tracegen --records-per-shard) lint clean shard
#      by shard and simulate identically to the unsharded trace.
#   4. Constant-memory guard: plain `simulate -t` on a 2M-record trace
#      stays within a peak-RSS budget several times below what holding
#      the trace in memory costs (measured: ~19 MB streamed; the
#      retired materialized path peaked at ~220 MB on this trace), so
#      a regression that silently materializes the trace fails the
#      gate.
set -eu

ROOT=$(cd "$(dirname "$0")/.." && pwd)
CLI="$ROOT/_build/default/bin/resim_cli.exe"
TMP=$(mktemp -d)
trap 'rm -rf "$TMP"' EXIT

if [ ! -x "$CLI" ]; then
    (cd "$ROOT" && dune build bin/resim_cli.exe)
fi

fail=0

expect_exit() {
    # expect_exit LABEL WANT STATUS
    if [ "$3" -ne "$2" ]; then
        echo "FAIL $1: exit $3, want $2"
        fail=1
    fi
}

metric() {
    # metric FILE KEY -> integer value
    grep -o "\"$2\":[ ]*[0-9-]*" "$1" | head -1 | grep -o '[0-9-]*$'
}

# --- 1. foreign formats ------------------------------------------------

# Text profile: a loop whose branch at 0x1004 alternates taken (back to
# 0x1000) and not-taken (falls through to 0x1008), so the synthesis
# predictor must mispredict and emit tagged wrong-path blocks.
i=0
while [ $i -lt 100 ]; do
    printf '1000 0 1 2 3\n1004 0 2 1 1\n' >> "$TMP/text.trc"
    if [ $((i % 2)) -eq 1 ]; then
        printf '1008 0 3 2 1\n' >> "$TMP/text.trc"
    fi
    i=$((i + 1))
done

# RISC-V profile: lw / mul / sw / bne loop, taken five times then
# falling through to a nop.
i=0
while [ $i -lt 6 ]; do
    printf '1000 0005a503 mem %x\n' $((32768 + 8 * i)) >> "$TMP/riscv.trc"
    printf '1004 02c58533\n1008 00a62023 mem %x\n100c fed61ae3\n' \
        $((36864 + 8 * i)) >> "$TMP/riscv.trc"
    i=$((i + 1))
done
printf '1010 00000013\n' >> "$TMP/riscv.trc"

for fmt in text riscv; do
    status=0
    timeout 60 "$CLI" lint "$TMP/$fmt.trc" --format "$fmt" \
        > "$TMP/lint.out" 2>&1 || status=$?
    expect_exit "$fmt lint clean" 0 $status
    status=0
    timeout 60 "$CLI" simulate -t "$TMP/$fmt.trc" --format "$fmt" \
        --metrics "$TMP/m_$fmt.json" > /dev/null 2>&1 || status=$?
    expect_exit "$fmt simulate" 0 $status
    wrong=$(metric "$TMP/m_$fmt.json" fetched_wrong_path)
    if [ "${wrong:-0}" -le 0 ]; then
        echo "FAIL $fmt: fetched_wrong_path=$wrong, want > 0 (synthesized wrong path must reach the engine)"
        fail=1
    fi
done

# Malformed foreign input: typed RSM-A with file:line, exit 1, and
# never an uncaught exception.
printf '1000 0 1 2 3\n1004 9 1 2 3\n' > "$TMP/bad.trc"
status=0
timeout 60 "$CLI" simulate -t "$TMP/bad.trc" --format text \
    > "$TMP/bad.out" 2>&1 || status=$?
expect_exit "malformed text simulate" 1 $status
if ! grep -q 'RSM-A003' "$TMP/bad.out" || ! grep -q 'bad.trc:2' "$TMP/bad.out"; then
    echo "FAIL malformed text: no RSM-A003 file:line diagnostic"
    cat "$TMP/bad.out"
    fail=1
fi
status=0
timeout 60 "$CLI" lint "$TMP/bad.trc" --format text > /dev/null 2>&1 || status=$?
expect_exit "malformed text lint" 1 $status

# Missing trace file: structured RSM-T009, exit 2, no backtrace.
status=0
timeout 60 "$CLI" simulate -t /nonexistent/no-such.rtr \
    > "$TMP/missing.out" 2>&1 || status=$?
expect_exit "missing trace file" 2 $status
if ! grep -q 'RSM-T009' "$TMP/missing.out"; then
    echo "FAIL missing file: no RSM-T009 diagnostic"
    cat "$TMP/missing.out"
    fail=1
fi
if grep -qi 'backtrace\|Fatal error' "$TMP/missing.out"; then
    echo "FAIL missing file: leaked a backtrace"
    fail=1
fi

# --- 2. streamed == an in-memory oracle ---------------------------------

# The oracle generates the same kernel trace in memory and never reads
# a file, so it shares no decode or stream code with `-t`.
timeout 120 "$CLI" tracegen -k gzip -s 4000 -o "$TMP/t.rtr" > /dev/null
timeout 120 "$CLI" simulate -k gzip -s 4000 --metrics "$TMP/k.json" \
    > /dev/null
timeout 120 "$CLI" simulate -t "$TMP/t.rtr" --metrics "$TMP/a.json" \
    > /dev/null
if ! cmp -s "$TMP/k.json" "$TMP/a.json"; then
    echo "FAIL streamed file: metrics differ from the in-memory kernel run"
    fail=1
fi

# Streamed-header file (count unknown to the producer): the file, the
# same bytes through a pipe with no flag, and the no-op --stream flag.
timeout 120 "$CLI" tracegen --stream --limit 50000 -k gzip \
    > "$TMP/s.rtr" 2> /dev/null
timeout 120 "$CLI" simulate -t "$TMP/s.rtr" --metrics "$TMP/sa.json" \
    > /dev/null
timeout 120 "$CLI" simulate -t "$TMP/s.rtr" --stream \
    --metrics "$TMP/sb.json" > /dev/null
timeout 120 "$CLI" simulate -t - --metrics "$TMP/sc.json" \
    < "$TMP/s.rtr" > /dev/null
if ! cmp -s "$TMP/sa.json" "$TMP/sb.json" \
    || ! cmp -s "$TMP/sa.json" "$TMP/sc.json"; then
    echo "FAIL streamed header: file/--stream/pipe metrics disagree"
    fail=1
fi

# --- 3. shards ---------------------------------------------------------

mkdir "$TMP/shards"
timeout 120 "$CLI" tracegen -k gzip -s 4000 --records-per-shard 512 \
    -o "$TMP/shards/t.rtr" > /dev/null
count=$(ls "$TMP/shards"/t.*.rtr | wc -l)
if [ "$count" -lt 2 ]; then
    echo "FAIL shards: expected several shards, got $count"
    fail=1
fi
for shard in "$TMP/shards"/t.*.rtr; do
    status=0
    timeout 60 "$CLI" lint "$shard" > /dev/null 2>&1 || status=$?
    expect_exit "shard $(basename "$shard") lints alone" 0 $status
done
timeout 120 "$CLI" simulate -t "$TMP/shards/t" --metrics "$TMP/c.json" \
    > /dev/null
if ! cmp -s "$TMP/a.json" "$TMP/c.json"; then
    echo "FAIL shards: concatenated metrics differ from unsharded trace"
    fail=1
fi

# --- 4. constant-memory guard ------------------------------------------

# 2M records: the streamed path was measured at ~19 MB peak RSS, the
# retired materialized path at ~220 MB. Budget 64 MB on the default
# `simulate -t` — a silent materialization (or an unbounded refill
# buffer) blows through it.
RSS_BUDGET_KB=65536
timeout 300 "$CLI" tracegen --stream --limit 2000000 -k gzip \
    > "$TMP/big.rtr" 2> /dev/null

# Background the CLI directly (no `timeout` wrapper: $pid must be the
# simulator itself for /proc VmHWM); the poll loop doubles as the
# watchdog.
"$CLI" simulate -t "$TMP/big.rtr" \
    --metrics "$TMP/p.json" > /dev/null 2>&1 &
pid=$!
peak=0
ticks=0
while kill -0 "$pid" 2> /dev/null; do
    v=$(awk '/VmHWM/ { print $2 }' "/proc/$pid/status" 2> /dev/null || echo 0)
    if [ "${v:-0}" -gt "$peak" ]; then peak=$v; fi
    ticks=$((ticks + 1))
    if [ "$ticks" -gt 6000 ]; then
        echo "FAIL constant-memory guard: simulate still running after ~600s"
        kill -9 "$pid" 2> /dev/null || true
        fail=1
        break
    fi
    sleep 0.1
done
status=0
wait "$pid" || status=$?
expect_exit "2M-record simulate -t" 0 $status
if [ "$peak" -gt "$RSS_BUDGET_KB" ]; then
    echo "FAIL constant-memory guard: peak RSS ${peak} kB > budget ${RSS_BUDGET_KB} kB"
    fail=1
fi
committed=$(metric "$TMP/p.json" committed)
if [ "${committed:-0}" -le 1000000 ]; then
    echo "FAIL constant-memory guard: committed=$committed, want > 1000000"
    fail=1
fi

if [ "$fail" -ne 0 ]; then
    echo "trace smoke: FAILED"
    exit 1
fi
echo "trace smoke: OK (foreign formats, -t == in-memory kernel, shards, peak RSS ${peak} kB <= ${RSS_BUDGET_KB} kB)"
