PY ?= python
export PYTHONPATH := src$(if $(PYTHONPATH),:$(PYTHONPATH))

.PHONY: test check-docs api-docs check-api-docs bench bench-smoke bench-baseline bench-gate memory-gate \
	perfbench-smoke

## tier-1 verification gate
test:
	$(PY) -m pytest -x -q

## documentation cross-reference + docstring-coverage gate
check-docs:
	$(PY) tools/check_docs.py

## regenerate the Markdown API reference under docs/api/ from docstrings
api-docs:
	$(PY) tools/gen_api_docs.py

## fail if docs/api/ is stale relative to the source docstrings
check-api-docs:
	$(PY) tools/gen_api_docs.py --check

## perf-regression gate: current hot paths vs BENCH_BASELINE.json (>2.5x fails)
bench-gate:
	$(PY) tools/check_bench.py

## memory-regression gate: streaming-audit peak must stay flat across 10x runs
memory-gate:
	$(PY) -m pytest tests/system/test_streaming_memory.py -q

## hot-path + store micros and the E10 availability experiment as plain
## tests (no timing) — fast sanity check
bench-smoke:
	$(PY) -m pytest benchmarks/bench_micro_hotpaths.py benchmarks/bench_store.py \
		benchmarks/bench_e10_availability.py benchmarks/bench_e11_recovery.py \
		benchmarks/bench_e12_sim_live.py \
		benchmarks/bench_streaming_audit.py benchmarks/bench_parallel_engine.py \
		-q --benchmark-disable

## repo benchmark smoke: short checked runs of both workloads (every operation
## must commit everything, stay serializable and atomic, and match its pinned
## digest) plus one traced run; fails on a non-zero exit code
perfbench-smoke:
	for workload in stream-uniform contended-2pc; do \
		$(PY) perfbench/run.py --workload $$workload --seed 0 --seconds 5 --trace 0 || exit 1; \
	done
	$(PY) perfbench/run.py --workload stream-uniform --seed 0 --seconds 5 --trace 1

## full pytest-benchmark run of the hot-path micros
bench:
	$(PY) -m pytest benchmarks/bench_micro_hotpaths.py -q

## refresh BENCH_BASELINE.json (seed vs optimised A/B; exits non-zero on drift)
bench-baseline:
	$(PY) benchmarks/baseline.py
