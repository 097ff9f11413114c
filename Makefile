# Canonical workflows for the reproduction.

.PHONY: install test test-fast test-mp chaos chaos-mp lint bench-pytest perf-smoke report examples explain-demo clean

install:
	python setup.py develop

test:
	pytest tests/ 2>&1 | tee test_output.txt

test-fast:
	pytest tests/ -m "not slow"

# The full suite again with every engine build routed through the
# multiprocess backend (one supervised parse-ahead process;
# docs/ROBUSTNESS.md, "Process supervision") — the whole tier-1 suite
# doubles as a byte-identity check for it.
test-mp:
	REPRO_EXEC_BACKEND=multiprocess pytest tests/

chaos:
	pytest tests/ -m chaos -v

# Process-level chaos: a SIGKILLed / stalled parse worker, poison
# files, exhausted restart budgets, process and /dev/shm leak checks
# against the multiprocess backend.
chaos-mp:
	pytest tests/test_chaos_mp.py tests/test_supervise.py -v

# Paper-invariant lint pack + typing gate
# (docs/STATIC_ANALYSIS.md); every rule is per file, so the incremental cache re-lints only edited files.
# mypy runs when installed (dev extra).  The second pass holds
# benchmarks/ to the RPR008 clock fence: bench timing flows through
# util/timing.py.
lint:
	python -m repro lint src
	python -m repro lint benchmarks --select RPR008

# The repo's benchmark (BENCHMARK.json, benchmarks/perf/README.md) at
# smoke size: the harness's own tests, then one traced two-file
# web_serial run, one traced two-file text_bulk run (CPU indexers only,
# one run: the regroup-heavy shape), one traced two-file web_mp run
# (output check against the serial reference, survivor scan, /dev/shm
# leak scan) and one traced
# two-run merge_read run (both merged directories identical, the check
# terms decode the same before and after the merge; the trace wraps the
# reader.* and search.* spans).  Each run's last
# stdout line must say the output was correct and no operation failed,
# and the document line before it must carry no warning: a traced run
# warns ("cannot wrap ...") when a layer boundary the harness times was
# moved or renamed, and reports that layer as null.
PERF_SMOKE_CHECK = tail -n 2 | python3 -c 'import json, sys; doc, r = map(json.loads, sys.stdin.read().splitlines()); w = doc.get("warnings", []); print({k: r[k] for k in ("correct", "attempted", "failed")}, *w); sys.exit(0 if r["correct"] is True and r["failed"] == 0 and not w else 1)'

perf-smoke:
	PYTHONPATH=src python -m pytest benchmarks/perf -q
	python3 benchmarks/perf/run.py --workload web_serial --seed 1 --smoke --trace 1 | $(PERF_SMOKE_CHECK)
	python3 benchmarks/perf/run.py --workload text_bulk --seed 1 --smoke --trace 1 | $(PERF_SMOKE_CHECK)
	python3 benchmarks/perf/run.py --workload web_mp --seed 1 --smoke --trace 1 | $(PERF_SMOKE_CHECK)
	python3 benchmarks/perf/run.py --workload merge_read --seed 1 --smoke --trace 1 | $(PERF_SMOKE_CHECK)

# The paper-reproduction scripts under pytest-benchmark: each regenerates
# one table/figure into benchmarks/reports/<name>.txt.  Not a perf gate —
# "did this PR make it faster" is BENCHMARK.json's question.
bench-pytest:
	pytest benchmarks/ --benchmark-only 2>&1 | tee bench_output.txt

report:
	python -m repro report --output REPORT.md
	python tools/gen_api_docs.py

# Seeded multiprocess demo build with telemetry and the sampling
# profiler on, then `repro explain`: where the engine's wall went, the
# lane chart, stage totals, the metrics and the top profile frames, plus
# a folded-stack export for flamegraph.pl.  Open
# /tmp/repro_explain_demo/index/trace.json in Perfetto for the timeline
# (docs/OBSERVABILITY.md).
explain-demo:
	rm -rf /tmp/repro_explain_demo
	python -m repro generate congress /tmp/repro_explain_demo --seed 7
	python -m repro build /tmp/repro_explain_demo/congress_mini \
		/tmp/repro_explain_demo/index --parsers 2 --cpu-indexers 2 --gpus 1 \
		--exec multiprocess --profile --profile-interval 0.005
	python -m repro explain /tmp/repro_explain_demo/index \
		--folded /tmp/repro_explain_demo/stacks.folded
	python -m repro verify /tmp/repro_explain_demo/index

examples:
	python examples/quickstart.py /tmp/repro_example_qs
	python examples/gpu_simulation.py
	python examples/paper_scale_simulation.py
	python examples/search_engine.py /tmp/repro_example_se
	python examples/baseline_comparison.py /tmp/repro_example_bc

clean:
	rm -rf .bench_data .pytest_cache
	find . -name __pycache__ -type d -exec rm -rf {} +
