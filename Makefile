# Convenience targets for the Measures-in-SQL reproduction.

.PHONY: test test-slow bench report snapshot compare shell tpch serve server-smoke replay-smoke measurebench examples lint validate all

# The committed perf baseline the regression gate compares against.
BASELINE ?= benchmarks/BENCH_2026-08-07.json

test:
	pytest tests/

# The opt-in slow tier: TPC-H at SF >= 0.05 (excluded from `make test`).
test-slow:
	pytest tests/ -m slow

bench:
	pytest benchmarks/ --benchmark-only

report:
	python -m benchmarks.report

snapshot:
	python -m benchmarks.report --snapshot --out benchmarks/

compare:
	rm -rf .bench-compare && mkdir -p .bench-compare
	python -m benchmarks.report --snapshot --out .bench-compare/ --repeats 5
	python -m benchmarks.report --compare $(BASELINE) .bench-compare/BENCH_*.json

shell:
	python -m repro

# Interactive shell over the generated TPC-H tables + measure layer.
tpch:
	python -m repro.workloads --tpch --summaries --sf 0.01

serve:
	python -m repro.server --listings

server-smoke:
	python scripts/server_smoke.py

# Record the paper listings through the server, replay the journal, and
# require a byte-identical --diff (plus a rejected injected mismatch).
replay-smoke:
	python scripts/replay_smoke.py replay/journal.jsonl

# Two seconds of each benchmark workload, then traced runs: fails on a
# wrong result or a layer entry point the tracer can no longer wrap.  The
# expansion layer is traced only under strategy_auto.
MEASUREBENCH_WORKLOADS = tpch_cold strategy_auto listings_server_rw

measurebench:
	@for w in $(MEASUREBENCH_WORKLOADS); do \
		python3 measurebench/run.py --workload $$w --seed 1 --seconds 2 --trace 0 || exit 1; \
	done
	python3 measurebench/run.py --workload listings_server_rw --seed 1 --seconds 2 --trace 1
	python3 measurebench/run.py --workload strategy_auto --seed 1 --seconds 2 --trace 1

examples:
	@for f in examples/*.py; do echo "== $$f =="; python $$f > /dev/null && echo ok; done

lint:
	python -m repro.analysis --self-check
	python -m repro.analysis --flip-check
	python -m repro.analysis --lock-check

validate:
	REPRO_VALIDATE=1 pytest tests/

# What CI runs: the suites, the gates, and the end-to-end smokes.
all: test lint bench report examples server-smoke replay-smoke measurebench
