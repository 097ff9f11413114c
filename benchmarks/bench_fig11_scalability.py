"""Fig 11 — scalability of the parallel indexers (per-file throughput).

Regenerates the per-file indexing-throughput series for scenarios (ii),
(iii) and (iv) over the 1,492-file paper-scale workload.  Checked claims:
the sharp early decline flattening out (the inverse-B-tree-depth shape),
the cliff at file index 1,200 where the Wikipedia.org files begin, and
the combined CPU+GPU configuration being "especially affected".

Also measures the *functional* engine's parse-ahead for real: a build of
the mini ClueWeb under the serial and the multiprocess backend with
seeded slow storage, asserting the parse worker is faster in wall-clock
while staying byte-identical (docs/ARCHITECTURE.md, "Execution
backends").
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


#: What the parse-ahead report says the numbers mean.
_PARSE_AHEAD_TRADE_OFF = """\
The trade-off: the multiprocess backend's one parse worker reads,
inflates and parses each file ahead of the engine, so a slow read hides
behind indexing the file before it.  It reads one file at a time, as
the paper's scheduler serializes reads from its one shared disk, so it
hides at most one read stall at once.  The deleted parse_prefetch=2
thread pool overlapped two injected sleeps and was faster on the slow
store (2.05 / 2.12 s in two runs on a 2-core box just before its
deletion, where the worker took 2.77 / 2.56 s); on a hot cache it
bought nothing (1.26 / 1.43 s against 1.14 / 1.51 s serial), because
its threads share one GIL.  On a hot cache the worker pays process
start-up and each parsed file's trip across the process boundary; on
this 12-file corpus that can cost as much as the parsing it hides, so
the hot rows go either way from run to run and are not asserted."""


def test_parse_worker_beats_serial_on_slow_storage(benchmark, cw_mini, data_dir):
    """Real wall-clock: the serial loop, inline parse vs the parse worker.

    On a hot page cache this corpus is almost entirely Python-bound (its
    read+gunzip portion is ~1% of the build).  The asserted comparison
    runs both builds under the robustness layer's seeded slow-storage
    profile (one ``slow`` fault per container read, as a cold
    network-attached store would behave): the serial loop eats every
    read stall inline, the multiprocess backend's parse worker hides
    them behind indexing — the paper's slow-shared-disk setting.  A
    hot-cache pair is reported too (unasserted).
    """

    def build(mode: str, backend: str, delay_s: float = 0.0):
        out = os.path.join(data_dir, f"parse_ahead_bench_{mode}")
        shutil.rmtree(out, ignore_errors=True)
        cfg = PlatformConfig(
            sample_fraction=0.05, files_per_run=8, exec_backend=backend,
        )
        plan = FaultPlan(specs=[
            FaultSpec(kind="slow", stage="build", delay_s=delay_s),
        ])
        with inject(plan):
            return IndexingEngine(cfg).build(cw_mini, out), out

    delay = 0.15  # per-file read latency of the simulated slow store
    hot_serial, _ = build("hot_serial", "serial")
    hot_mp, _ = build("hot_mp", "multiprocess")
    serial, serial_out = build("serial", "serial", delay_s=delay)
    mp, mp_out = benchmark.pedantic(
        build, args=("mp", "multiprocess"), kwargs={"delay_s": delay},
        rounds=1, iterations=1,
    )
    rows = [
        ["serial, hot cache", f"{hot_serial.wall_seconds:.2f}"],
        ["multiprocess (1 parse worker), hot cache", f"{hot_mp.wall_seconds:.2f}"],
        ["serial, slow store", f"{serial.wall_seconds:.2f}"],
        ["multiprocess (1 parse worker), slow store", f"{mp.wall_seconds:.2f}"],
    ]
    speedup = serial.wall_seconds / mp.wall_seconds
    report(
        "fig11_parse_ahead_wall_clock",
        render_table(["Mode", "wall s"], rows)
        + f"\n\nslow-store speedup: {speedup:.2f}x "
        + f"({delay * 1000:.0f} ms injected latency per container read)\n\n"
        + _PARSE_AHEAD_TRADE_OFF,
    )
    # Identical index bytes, strictly less wall time under I/O latency.
    assert _index_digest(serial_out) == _index_digest(mp_out)
    assert mp.wall_seconds < serial.wall_seconds
