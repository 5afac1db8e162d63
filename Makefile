# Convenience targets; the source of truth is dune.

.PHONY: all build test check lint dsafe dsafe-smoke bench faultsmoke obs-smoke obs-guard sample-smoke serve-smoke trace-smoke bench-service

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

# resim-check layer 3: the hot-path source lint over lib/core
# (bin/resim_lint.ml; rules RSM-L001..L004, catalog in DESIGN.md §9).
lint:
	dune build @lint

# resim-check layer 4: the resim-dsafe domain-safety analyzer over all
# of lib/ (bin/resim_dsafe.ml; codes RSM-D001..D008, catalog in
# DESIGN.md §15). Gates the concurrency layer: every shared mutable
# object must be Atomic, lock-bracketed via Sync.with_lock, or carry a
# justified `resim-dsafe:` annotation, within the checked-in budget.
dsafe:
	dune build @dsafe

# Negative self-test of the gate: the analyzer must *fail* on a
# deliberately racy scratch module with the expected RSM-D codes and
# pass a clean one (scripts/dsafe_smoke.sh).
dsafe-smoke: build
	$(TIMEOUT) 300 sh scripts/dsafe_smoke.sh

# The PR gate: formatting, full build, source lint, domain-safety
# analysis (dsafe) plus its negative smoke, test suite, a
# bench smoke that exercises the --json path end to end, the
# fault-injection smoke (every corruption class through the CLI), the
# observability smoke (pipetrace + metrics + schema + profile), the
# sampled-simulation smoke (--sample end to end, determinism, spec
# grammar, sampled sweep), the resimd smoke and the trace-frontier
# smoke.
check:
	$(TIMEOUT) 300 dune build @fmt
	$(TIMEOUT) 900 dune build
	$(TIMEOUT) 300 dune build @lint
	$(TIMEOUT) 300 dune build @dsafe
	$(TIMEOUT) 1800 dune runtest
	$(TIMEOUT) 600 dune exec bench/main.exe -- --quick --json /dev/null
	$(MAKE) dsafe-smoke
	$(MAKE) faultsmoke
	$(MAKE) obs-smoke
	$(MAKE) sample-smoke
	$(MAKE) serve-smoke
	$(MAKE) trace-smoke

# Every Fault_inject corruption class end to end through resim
# faultgen / lint / simulate --degraded, each step under timeout.
faultsmoke: build
	$(TIMEOUT) 600 sh scripts/faultsmoke.sh

# Observability end to end: simulate --pipetrace/--metrics/--waterfall,
# RSM-P schema validation (clean + corrupted), resim profile.
obs-smoke: build
	$(TIMEOUT) 600 sh scripts/obs_smoke.sh

# Sampled simulation end to end: simulate --sample (metrics splice,
# determinism, spec grammar) and one sampled sweep (DESIGN.md §13).
sample-smoke: build
	$(TIMEOUT) 900 sh scripts/sample_smoke.sh

# resimd end to end (DESIGN.md §16): daemon up, simulate/sweep/lint
# jobs over the wire with the documented exit codes, cache hit on
# resubmission, crashed-worker supervision, garbage-frame handling,
# loadgen --quick, SIGTERM drain with no stale socket.
serve-smoke: build
	$(TIMEOUT) 900 sh scripts/serve_smoke.sh

# The trace frontier end to end (DESIGN.md §17): foreign-format
# adapters (text + riscv) through lint/simulate with synthesized
# wrong-path blocks, streamed-vs-in-memory metrics identity (file,
# streamed header, pipe), per-shard lint + sharded-vs-unsharded
# identity, and a peak-RSS guard proving the streamed path stays
# O(chunk) on a 2M-record trace.
trace-smoke: build
	$(TIMEOUT) 900 sh scripts/trace_smoke.sh

# Refresh the committed service benchmark (BENCH_service.json):
# jobs/sec and p50/p99 latency at 1/4/16 clients against a local
# daemon.
bench-service: build
	$(TIMEOUT) 900 sh scripts/bench_service.sh

# No-sink throughput guard: full bench grid vs the committed
# BENCH_engine.json anchors, gated on the geometric mean (default 2%
# tolerance; OBS_GUARD_TOLERANCE overrides). Costs a full bench run —
# use when touching engine hot paths.
obs-guard: build
	$(TIMEOUT) 2400 sh scripts/obs_bench_guard.sh

# Refresh the committed perf trajectory (full engine grid, no paper
# tables; takes a few minutes).
bench:
	dune exec bin/resim_cli.exe -- bench --json BENCH_engine.json
