# Convenience targets; the source of truth is dune.

.PHONY: all build test check lint dsafe obs-guard trace-smoke

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
lint:
	dune build @lint

# resim-check layer 4: the resim-dsafe domain-safety analyzer over all
# of lib/ (bin/resim_dsafe.ml; codes RSM-D001..D008, catalog in
# DESIGN.md §15). Gates the concurrency layer: every shared mutable
# object must be Atomic, lock-bracketed via Sync.with_lock, or carry a
# justified `resim-dsafe:` annotation, within the checked-in budget.
# Its negative self-test (racy fixtures rejected, the annotation budget
# enforced) is the dune test group dsafe.
dsafe:
	dune build @dsafe

# The PR gate: formatting, full build, source lint, domain-safety
# analysis (dsafe), test suite and the trace-frontier smoke. The CLI
# ends of the other layers are dune test groups: the dsafe analyzer's
# exit codes on racy and clean fixtures are in dsafe; sampled
# simulation (--sample, determinism, spec grammar, sampled sweep) and
# every fault-injection class through faultgen/lint/simulate
# --degraded are sample:cli; observability (pipetrace, metrics JSON
# and CSV, RSM-P schema validation, waterfall, profile) is obs:render;
# resimd (exit codes, cache hit, sweep grid, supervision, SIGTERM
# drain) is serve:cli; perfbench's smoke runs every benchmark
# workload on tiny inputs.
check:
	$(TIMEOUT) 300 dune build @fmt
	$(TIMEOUT) 900 dune build
	$(TIMEOUT) 300 dune build @lint
	$(TIMEOUT) 300 dune build @dsafe
	$(TIMEOUT) 1800 dune runtest
	$(MAKE) trace-smoke

# The trace frontier end to end (DESIGN.md §17): foreign-format
# adapters (text + riscv) through lint/simulate with synthesized
# wrong-path blocks, streamed-vs-in-memory metrics identity (file,
# streamed header, pipe), per-shard lint + sharded-vs-unsharded
# identity, and a peak-RSS guard proving the streamed path stays
# O(chunk) on a 2M-record trace.
trace-smoke: build
	$(TIMEOUT) 900 sh scripts/trace_smoke.sh

# Paired engine-speed gate: ten interleaved perfbench simulate-stream
# pairs, HEAD (built from `git archive`) against the working tree,
# judged by `resim_bench compare` with the bounds in BENCHMARK.json.
# Fails on any incorrect run or a `worse` row. Takes about 7 minutes on
# a 2-CPU host; use when touching engine hot paths.
obs-guard: build
	$(TIMEOUT) 2400 sh scripts/obs_bench_guard.sh
