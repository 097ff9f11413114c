"""One rep, in a fresh interpreter: ``python child.py JOB.json``.

A fresh process per rep because that is what a user pays per ``repro
build``, and because process-wide caches (stem tables, memoised tokens)
must never be warm from a previous rep.  The job file names the operation
and its inputs; the result — timings, counts and, for a traced job, the
per-layer metrics — is written to ``job["result"]`` as JSON.  Output
checking is the parent's job, outside this process.
"""

from __future__ import annotations

import json
import os
import sys
from typing import Any

from repro.util.timing import now

import ops
import tracing


def _build(job: dict[str, Any]) -> dict[str, Any]:
    return ops.run_build(job["corpus_dir"], job["corpus"], job["config"], job["out_dir"])


def _merge_read(job: dict[str, Any]) -> dict[str, Any]:
    return ops.run_merge_read(job["index_dir"], job["out_dir"], job["queries"])


def _traced_build(job: dict[str, Any]) -> dict[str, Any]:
    rec, cap = tracing.Recorder(), tracing.Captured()
    tracing.install_build_wraps(rec, cap)
    try:
        result = _build(job)
    finally:
        rec.restore()
    layers = tracing.build_layer_metrics(rec, cap, result)
    layers.update(tracing.drive_layers(cap, job["config"], job["all_cpus"]))
    result["t_trace_end"] = now()
    return {**result, "layers": layers, "warnings": rec.warnings, "spans": rec.export()}


def _traced_merge_read(job: dict[str, Any]) -> dict[str, Any]:
    from repro.postings.reader import PostingsReader

    rec = tracing.Recorder()
    query_seconds: list[float] = []
    with rec.span("engine"):
        result = ops.run_merge_read(
            job["index_dir"], job["out_dir"], job["queries"], rec.span, query_seconds)
    layers = tracing.read_layer_metrics(rec, result, query_seconds)
    # The codec drive decodes what this workload decodes: every list of
    # the merged index.
    with PostingsReader(f"{job['out_dir']}/merged0") as reader:
        lists = [reader.postings(term_id) for term_id in reader.vocabulary().values()]
    layers.update(tracing.drive_codec(lists, job["config"]["codec"]))
    result["t_trace_end"] = now()
    return {**result, "layers": layers, "warnings": rec.warnings,
            "spans": rec.export(), "query_seconds": query_seconds}


_OPS = {
    ("build", False): _build,
    ("build", True): _traced_build,
    ("merge_read", False): _merge_read,
    ("merge_read", True): _traced_merge_read,
}


def main(job_path: str) -> None:
    with open(job_path, "r", encoding="utf-8") as fh:
        job = json.load(fh)
    # One core for a serial op (the core whose speed probe will be read),
    # every allowed core for a multiprocess one.
    os.sched_setaffinity(0, job["cpus"])
    result = _OPS[job["op"], job["trace"]](job)
    with open(job["result"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main(sys.argv[1])
