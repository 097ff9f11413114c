"""Merge-phase throughput (§III.F): one timed merge with its stats table.

The ablation suite checks the *claim* (merge < 10% of build time); this
script reports what one merge of the mini-ClueWeb build read, wrote and
kept resident.  Merge speed across PRs is gated by the ``merge_read``
workload in ``BENCHMARK.json``, not here.
"""

from __future__ import annotations

import os
import shutil

from conftest import report

from repro.postings.merge import merge_index
from repro.util.fmt import render_table
from repro.util.timing import Timer


def test_merge_throughput(benchmark, engine_result, data_dir):
    """One timed merge of the cached build's run files."""
    merged_dir = os.path.join(data_dir, "bench_merge_out")

    def do_merge():
        shutil.rmtree(merged_dir, ignore_errors=True)
        with Timer() as t:
            stats = merge_index(engine_result.output_dir, merged_dir)
        return stats, t.elapsed

    stats, merge_wall = benchmark.pedantic(do_merge, rounds=1, iterations=1)
    mbps = stats["input_bytes"] / 1e6 / merge_wall if merge_wall > 0 else 0.0
    rows = [
        ["input runs", stats["input_runs"]],
        ["terms", stats["terms"]],
        ["postings", stats["postings"]],
        ["input bytes", stats["input_bytes"]],
        ["output bytes", stats["output_bytes"]],
        ["peak resident postings", stats["peak_resident_postings"]],
        ["wall seconds", f"{merge_wall:.3f}"],
        ["MB/s", f"{mbps:.1f}"],
    ]
    report("merge_throughput", render_table(["Metric", "Value"], rows))
    assert stats["terms"] > 0 and stats["postings"] > 0
