# Convenience targets over dune. `make chaos` is the fault-injection
# smoke: the resilience figure at a small scale plus one chaos run
# that must demote and finish with zero invariant violations.

DUNE ?= dune
SCALE ?= 0.05
SEED ?= 5
JOBS ?= 4

.PHONY: all build test bench bench-compare compare report figures chaos trace \
  check repro clean

all: build

build:
	$(DUNE) build

test: build
	$(DUNE) runtest

bench: build
	$(DUNE) exec bench/main.exe -- -j $(JOBS)

# Differential perf check: a scaled-down figure subset with the heap
# oracle vs the timing wheel, diffed by the registry's regression
# engine (fails on regressions past the threshold). The CI perf-smoke
# job runs this.
bench-compare: build
	BENCH_SCALE=$(SCALE) BENCH_COST_CACHE= $(DUNE) exec bench/main.exe -- \
	  -j $(JOBS) --engine-queue=heap --json bench_heap.json fig1a fig7 fig9
	BENCH_SCALE=$(SCALE) BENCH_COST_CACHE= $(DUNE) exec bench/main.exe -- \
	  -j $(JOBS) --engine-queue=wheel --json bench_wheel.json fig1a fig7 fig9
	$(DUNE) exec bin/asman_cli.exe -- compare bench_heap.json \
	  bench_wheel.json --threshold 75 --strict-sections

# Diff any two runs taken on the same axes (seed, scale, workers, ...):
# registry ids or record files (bench --json writes one).
#   make bench-compare && make compare OLD=bench_heap.json NEW=bench_wheel.json
compare: build
	@test -n "$(OLD)" -a -n "$(NEW)" || \
	  { echo "usage: make compare OLD=<run> NEW=<run>"; exit 2; }
	$(DUNE) exec bin/asman_cli.exe -- compare $(OLD) $(NEW)

# Render the run registry (runs/) as a self-contained HTML trend page.
report: build
	$(DUNE) exec bin/asman_cli.exe -- report --out report.html

figures: build
	$(DUNE) exec bin/asman_cli.exe -- experiment all --scale $(SCALE) \
	  --seed $(SEED) --jobs $(JOBS)

chaos: build
	$(DUNE) exec bin/asman_cli.exe -- experiment resilience \
	  --scale $(SCALE) --seed $(SEED) --jobs $(JOBS)
	$(DUNE) exec bin/asman_cli.exe -- run --vm lu --vm lu --vm lu \
	  --sched asman --rounds 6 --scale $(SCALE) --seed $(SEED) \
	  --chaos ipi-loss-10 --invariants record

# Trace smoke: fig1a with tracing and metrics on, then validate that
# both exports parse (the trace loads in Perfetto / chrome://tracing).
trace: build
	$(DUNE) exec bin/asman_cli.exe -- experiment fig1a --scale $(SCALE) \
	  --seed $(SEED) --jobs $(JOBS) --trace=trace.json --metrics=metrics.json
	$(DUNE) exec bin/asman_cli.exe -- validate-json trace.json
	$(DUNE) exec bin/asman_cli.exe -- validate-json metrics.json

# SimCheck fuzz: CASES random full-stack scenarios judged by the
# scheduler oracles; failures shrink to minimal JSON repros in the
# working directory. Replay one with `make repro CASE=repro-...json`.
CASES ?= 200

check: build
	$(DUNE) exec bin/asman_cli.exe -- check --cases $(CASES) \
	  --seed $(SEED) --jobs $(JOBS)

repro: build
	@test -n "$(CASE)" || { echo "usage: make repro CASE=repro-....json"; exit 2; }
	$(DUNE) exec bin/asman_cli.exe -- repro $(CASE)

clean:
	$(DUNE) clean
