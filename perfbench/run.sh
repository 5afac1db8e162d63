#!/usr/bin/env bash
# Build ReSim and the benchmark from source, then run one measurement:
#   bash perfbench/run.sh --workload W --seed N --seconds S --trace 0|1
# Everything the run writes stays inside the checkout (_build/ and
# perfbench/_work/).
set -eu
root=$(cd "$(dirname "$0")/.." && pwd)
cd "$root"
if [ ! -f dune-project ] || [ ! -f bin/resim_cli.ml ] || [ ! -f BENCHMARK.json ]; then
    echo "perfbench: $root is not a ReSim source checkout" >&2
    exit 2
fi
mkdir -p perfbench/_work
export DUNE_CACHE=disabled
export XDG_CACHE_HOME="$root/perfbench/_work/cache"
export TMPDIR="$root/perfbench/_work"
dune build --root . bin/resim_cli.exe perfbench/resim_bench.exe 1>&2
exec ./_build/default/perfbench/resim_bench.exe "$@"
