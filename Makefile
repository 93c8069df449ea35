# Convenience targets for the StreamApprox reproduction.
#
#   make test       — the tier-1 verification suite (tests + figure benchmarks)
#   make smoke      — fast end-to-end sanity run of examples/quickstart.py
#   make bench      — only the figure-reproduction benchmarks
#   make bench-json — benchmarks with machine-readable results for
#                     trajectory tracking (benchmarks/results/bench.json,
#                     plus per-figure artifacts BENCH_fig4a.json and
#                     BENCH_fig6a.json under benchmarks/results/);
#                     includes the budget-loop convergence gate
#                     (REPRO_ADAPT_MAX_INTERVALS tunes its deadline),
#                     and the columnar-vs-shim wall-clock gate
#                     (REPRO_FIG4A_MIN_COLUMNAR_SPEEDUP, default 1.0);
#                     fig6a's rows are reported, not gated
#   make chaos      — fault-tolerance chaos suite (crash/resume + shard
#                     kills); REPRO_CHAOS_SEEDS selects the seed matrix,
#                     e.g. make chaos REPRO_CHAOS_SEEDS="7,19,23"
#   make check      — test + smoke (what CI runs on every push/PR)
#   make loc        — src/ lines per file and the total (CI prints it;
#                     simplicity changes record it in CHANGES.md)

PYTHON ?= python
export PYTHONPATH := src$(if $(PYTHONPATH),:$(PYTHONPATH),)

BENCH_JSON ?= benchmarks/results/bench.json

.PHONY: test smoke bench bench-json chaos check loc

# Extra pytest flags, e.g. make check PYTEST_ARGS=--benchmark-json=out.json
PYTEST_ARGS ?=

test:
	$(PYTHON) -m pytest -x -q $(PYTEST_ARGS)

smoke:
	$(PYTHON) examples/quickstart.py

bench:
	$(PYTHON) -m pytest -x -q benchmarks/

bench-json:
	$(PYTHON) -m pytest -x -q benchmarks/ --benchmark-json=$(BENCH_JSON)

# Seeds the chaos harness parametrizes over (tests/chaos/conftest.py).
REPRO_CHAOS_SEEDS ?= 7
chaos:
	REPRO_CHAOS_SEEDS="$(REPRO_CHAOS_SEEDS)" $(PYTHON) -m pytest -x -q tests/chaos

check: test smoke

loc:
	@find src -name '*.py' | sort | xargs wc -l
