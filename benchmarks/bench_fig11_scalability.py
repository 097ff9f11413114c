"""Fig 11 — scalability of the parallel indexers (per-file throughput).

Regenerates the per-file indexing-throughput series for scenarios (ii),
(iii) and (iv) over the 1,492-file paper-scale workload.  Checked claims:
the sharp early decline flattening out (the inverse-B-tree-depth shape),
the cliff at file index 1,200 where the Wikipedia.org files begin, and
the combined CPU+GPU configuration being "especially affected".

Also measures the *functional* engine's read-ahead for real: a serial
build of the mini ClueWeb with and without ``parse_prefetch`` under
seeded slow storage, asserting read-ahead is faster in wall-clock while
staying byte-identical (docs/ARCHITECTURE.md, "Execution backends").
"""

from __future__ import annotations

import hashlib
import os
import shutil

from conftest import report

from repro.analysis.figures import fig11_per_file_series
from repro.core.config import PlatformConfig
from repro.core.engine import IndexingEngine
from repro.robustness.faults import FaultPlan, FaultSpec, inject
from repro.util.ascii_chart import line_chart
from repro.util.fmt import render_table


def test_fig11_report(benchmark):
    out = benchmark.pedantic(
        fig11_per_file_series, kwargs={"sample_points": 16}, rounds=1, iterations=1
    )
    headers = ["File index"] + [str(i) for i in out["file_index"]]
    rows = []
    for name in ("1 CPU indexer", "2 CPU indexers", "2 CPU + 2 GPU indexers"):
        rows.append([name] + [f"{v:.0f}" for v in out[name]])
    rows.append([
        "[paper] qualitative",
        *(["decline→plateau"] + ["·"] * (len(out["file_index"]) - 2) + ["cliff@1200"]),
    ])
    table = render_table(headers, rows)
    drops = "\n".join(
        f"{name}: post-cliff/pre-cliff throughput ratio = {out[f'{name} drop']:.2f}"
        for name in ("1 CPU indexer", "2 CPU indexers", "2 CPU + 2 GPU indexers")
    )
    chart = line_chart(
        out["file_index"],
        {name: out[name] for name in
         ("1 CPU indexer", "2 CPU indexers", "2 CPU + 2 GPU indexers")},
    )
    report(
        "fig11_scalability",
        table + "\n\nWikipedia-segment drop factors:\n" + drops
        + "\n\nper-file MB/s vs file index:\n" + chart,
    )

    assert out["segment_boundary"] == 1200
    combined = out["2 CPU + 2 GPU indexers"]
    assert combined[0] > combined[3]  # early decline
    assert out["2 CPU + 2 GPU indexers drop"] < out["2 CPU indexers drop"]


def _index_digest(out_dir: str) -> str:
    """One hash over the index artifacts (build logs / telemetry excluded)."""
    skip = {"build.manifest", "checkpoint.bin", "run.metrics.json", "trace.json"}
    h = hashlib.sha256()
    for name in sorted(os.listdir(out_dir)):
        path = os.path.join(out_dir, name)
        if name in skip or os.path.isdir(path):
            continue
        h.update(name.encode())
        with open(path, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def test_prefetch_beats_serial_on_slow_storage(benchmark, cw_mini, data_dir):
    """Real wall-clock: the serial loop with and without read-ahead.

    What threads can and cannot buy here is governed by the GIL: on a
    hot page cache this corpus is almost entirely Python-bound (its
    read+gunzip portion is ~1% of the build), so the overlap the paper
    gets from extra *cores* is not reachable from CPython threads and
    ``parse_prefetch``'s win is hiding **I/O latency** — exactly the
    paper's slow-shared-disk setting.  The measured comparison therefore
    runs both builds under the robustness layer's seeded slow-storage
    profile (one `slow` fault per container read, as a cold
    network-attached store would behave): without read-ahead the loop
    eats every read stall inline, with it the parser-w* pool hides them
    behind indexing.  A hot-cache pair is reported too (unasserted) so
    the GIL caveat stays visible.
    """

    def build(mode: str, prefetch: int, delay_s: float = 0.0):
        out = os.path.join(data_dir, f"prefetch_bench_{mode}")
        shutil.rmtree(out, ignore_errors=True)
        cfg = PlatformConfig(
            sample_fraction=0.05, files_per_run=8, exec_backend="serial",
            parse_prefetch=prefetch,
        )
        plan = FaultPlan(specs=[
            FaultSpec(kind="slow", stage="build", delay_s=delay_s),
        ])
        with inject(plan):
            return IndexingEngine(cfg).build(cw_mini, out), out

    delay = 0.15  # per-file read latency of the simulated slow store
    hot_serial, _ = build("hot_serial", 0)
    hot_ahead, _ = build("hot_ahead", 2)
    serial, serial_out = build("serial", 0, delay_s=delay)
    ahead, ahead_out = benchmark.pedantic(
        build, args=("ahead", 2), kwargs={"delay_s": delay},
        rounds=1, iterations=1,
    )
    rows = [
        ["serial, hot cache", f"{hot_serial.wall_seconds:.2f}"],
        ["serial + parse_prefetch=2, hot cache", f"{hot_ahead.wall_seconds:.2f}"],
        ["serial, slow store", f"{serial.wall_seconds:.2f}"],
        ["serial + parse_prefetch=2, slow store", f"{ahead.wall_seconds:.2f}"],
    ]
    speedup = serial.wall_seconds / ahead.wall_seconds
    report(
        "fig11_prefetch_wall_clock",
        render_table(["Mode", "wall s"], rows)
        + f"\n\nslow-store speedup: {speedup:.2f}x "
        + f"({delay * 1000:.0f} ms injected latency per container read)",
    )
    # Identical index bytes, strictly less wall time under I/O latency.
    assert _index_digest(serial_out) == _index_digest(ahead_out)
    assert ahead.wall_seconds < serial.wall_seconds
