#!/bin/sh
# No-sink throughput guard (`make obs-guard`): the observability layer
# must cost nothing when no sink is attached. Re-measures the full
# bench grid with the current binary and compares host MIPS against
# the committed BENCH_engine.json anchors.
#
# Individual grid points swing several percent with host load (the
# anchors were measured best-of-9 on one machine state), so the guard
# gates on the geometric mean of the new/anchor ratios across the
# whole grid: an aggregate regression beyond the tolerance (default
# 2%) fails; single-point noise does not. Per-point deltas are printed
# so a genuine hot-path regression is still visible even when the
# aggregate passes. Costs a full bench run (~minutes); run it when
# touching engine hot paths, not on every check.
set -eu

ROOT=$(cd "$(dirname "$0")/.." && pwd)
CLI="$ROOT/_build/default/bin/resim_cli.exe"
ANCHORS="$ROOT/BENCH_engine.json"
TOLERANCE="${OBS_GUARD_TOLERANCE:-0.02}"
TMP=$(mktemp -d)
trap 'rm -rf "$TMP"' EXIT

if ! command -v python3 > /dev/null 2>&1; then
    echo "obs-guard: skipped (python3 not available)"
    exit 0
fi
if [ ! -f "$ANCHORS" ]; then
    echo "obs-guard: skipped (no $ANCHORS anchors committed)"
    exit 0
fi
if [ ! -x "$CLI" ]; then
    (cd "$ROOT" && dune build bin/resim_cli.exe)
fi

timeout 1800 "$CLI" bench --json "$TMP/bench.json" > /dev/null

python3 - "$ANCHORS" "$TMP/bench.json" "$TOLERANCE" <<'EOF'
import json, math, sys

anchors_path, fresh_path, tolerance = sys.argv[1], sys.argv[2], float(sys.argv[3])
anchors = {(m["kernel"], m["config"]): m["host_mips"]
           for m in json.load(open(anchors_path))["measurements"]}
fresh = json.load(open(fresh_path))["measurements"]

ratios = []
for m in fresh:
    key = (m["kernel"], m["config"])
    anchor = anchors.get(key)
    if anchor is None or anchor <= 0.0:
        continue
    ratio = m["host_mips"] / anchor
    ratios.append(ratio)
    print(f"{key[0]:8s} {key[1]:16s} "
          f"anchor {anchor:7.4f}  now {m['host_mips']:7.4f}  "
          f"{(ratio - 1.0) * 100.0:+6.1f}%")

if not ratios:
    print("obs-guard: skipped (no comparable grid points)")
    sys.exit(0)

geomean = math.exp(sum(math.log(r) for r in ratios) / len(ratios))
print(f"geometric mean over {len(ratios)} point(s): "
      f"{(geomean - 1.0) * 100.0:+.2f}% (tolerance -{tolerance * 100.0:.0f}%)")
if geomean < 1.0 - tolerance:
    print("obs-guard: FAILED — aggregate no-sink throughput regressed")
    sys.exit(1)
print("obs-guard: clean")
EOF

# --- sampled configuration gate --------------------------------------
# The bench document also carries the sampled-simulation section (one
# sampled run per kernel at the reference configuration, DESIGN.md
# §13): every point's 95% CI must cover its own full-run IPC, and the
# engine-level speedup must stay real (> 1x). A statistics or warm-up
# regression shows up here before it shows up in anyone's results.
python3 - "$TMP/bench.json" <<'EOF'
import json, sys

sampled = json.load(open(sys.argv[1])).get("sampled")
if not sampled:
    print("obs-guard: skipped sampled gate (no sampled section)")
    sys.exit(0)

failed = False
for point in sampled:
    flag = "ok" if point["covered"] else "CI MISS"
    print(f"sampled {point['kernel']:8s} {point['spec']:14s} "
          f"IPC {point['mean_ipc']:6.4f} vs full {point['full_ipc']:6.4f}  "
          f"speedup {point['speedup']:5.2f}x  {flag}")
    if not point["covered"]:
        failed = True
    if point["speedup"] <= 1.0:
        print(f"obs-guard: sampled {point['kernel']} is not faster "
              f"than the full run")
        failed = True

if failed:
    print("obs-guard: FAILED — sampled configuration gate")
    sys.exit(1)
print("obs-guard: sampled gate clean")
EOF
