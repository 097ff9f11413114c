"""Table VII + Fig 12 — comparison with the fastest known indexers.

Prints the Table VII platform matrix and the Fig 12 throughput bars:
this paper (± GPUs, from the calibrated pipeline simulation) against
Ivory MapReduce (99 nodes, ClueWeb09) and Single-Pass MapReduce (8
nodes, .GOV2) from the cluster cost model.  Checked claim: "our ...
algorithm achieves the best raw performance with or without GPUs even
when compared to much larger clusters."
"""

from __future__ import annotations

from conftest import report

from repro.analysis.figures import fig12_comparison
from repro.analysis.tables import table7_platforms
from repro.baselines.cluster import (
    CLUEWEB09_MR_STATS,
    IVORY_PLATFORM,
    ClusterModel,
)
from repro.util.ascii_chart import bar_chart
from repro.util.fmt import render_table


def test_table7_report(benchmark):
    headers, rows = benchmark(table7_platforms)
    report("table7_platforms", render_table(headers, rows))
    assert len(rows) == 3


def test_fig12_report(benchmark):
    bars = benchmark.pedantic(fig12_comparison, rounds=1, iterations=1)
    rows = [
        [b.system, b.dataset, b.nodes, b.cores,
         f"{b.throughput_mbps:.2f}", f"{b.mbps_per_core:.2f}"]
        for b in bars
    ]
    rows.append(["[paper] This paper", "ClueWeb09", 1, 8, "262.76", "32.85"])
    rows.append(["[paper] This paper (no GPUs)", "ClueWeb09", 1, 8, "204.32", "25.54"])
    chart = bar_chart({b.system: b.throughput_mbps for b in bars}, unit=" MB/s")
    report(
        "fig12_comparison",
        render_table(
            ["System", "Dataset", "Nodes", "Cores", "MB/s", "MB/s/core"], rows
        )
        + "\n\n" + chart,
    )
    thpt = [b.throughput_mbps for b in bars]
    assert thpt == sorted(thpt, reverse=True)  # ours-GPU > ours > Ivory > SP-MR


def test_cluster_model_breakdown(benchmark):
    """Time the Ivory job pricing and print its phase breakdown."""
    model = ClusterModel(IVORY_PLATFORM)
    breakdown = benchmark(model.index_time_breakdown, CLUEWEB09_MR_STATS, "ivory")
    rows = [[k, f"{v:.1f}"] for k, v in breakdown.items()]
    report("fig12_ivory_breakdown", render_table(["Phase", "Seconds"], rows))
    assert breakdown["total_s"] > breakdown["raw_total_s"]
