# Convenience targets; the source of truth is dune.

.PHONY: all build test check lint obs-guard

# Wall-clock guard on the PR gate: a hang in any step (the very class
# of bug the robustness layer exists to prevent) fails the gate after
# the ceiling instead of wedging it. Ceilings are generous multiples
# of normal wall time, so only a genuine hang trips them.
TIMEOUT := timeout

all: build

build:
	dune build

test:
	dune runtest

# resim-check layer 3: the hot-path source lint over lib/core and the
# per-record files of lib/trace, lib/bpred, lib/isa and lib/tracegen
# (bin/resim_lint.ml; rules RSM-L001..L005, catalog in DESIGN.md §9).
# `dune runtest` runs it too.
lint:
	dune build @lint

# The PR gate: the full build, then the test suite. `dune runtest` is
# the whole gate: it also checks every dune file's formatting (@fmt)
# and runs the source lint (@lint). The CLI ends of the other layers
# are dune test groups: the resim-dsafe analysis of all of lib/ within
# its annotation budget and the analyzer's exit codes on racy and clean
# fixtures are dsafe; the trace frontier (foreign formats, -t files,
# pipes and shards against the in-memory kernel run, the peak-RSS
# guard) is frontier:cli; sampled simulation and every fault-injection
# class through faultgen/lint/simulate --degraded are sample:cli;
# observability (pipetrace, metrics JSON and CSV, RSM-P schema
# validation, waterfall, profile) is obs:render; resimd (exit codes,
# cache hit, sweep grid, supervision, SIGTERM drain) is serve:cli;
# perfbench's smoke runs every benchmark workload on tiny inputs.
check:
	$(TIMEOUT) 900 dune build
	$(TIMEOUT) 1800 dune runtest

# Paired engine-speed gate: ten interleaved perfbench simulate-stream
# pairs, HEAD (built from `git archive`) against the working tree,
# judged by `resim_bench compare` with the bounds in BENCHMARK.json.
# Fails on any incorrect run or a `worse` row. Takes about 7 minutes on
# a 2-CPU host; use when touching engine hot paths.
obs-guard: build
	$(TIMEOUT) 2400 sh scripts/obs_bench_guard.sh
