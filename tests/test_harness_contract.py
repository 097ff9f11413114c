"""The benchmark harness's contract with the program, checked in tier-1.

``benchmarks/perf/tracing.py`` times the program from outside: it wraps
layer entry points *by attribute* and replays captured parser output
through the per-token functions.  A wrap target that moved only produces a
warning and a ``null`` metric there, and ``benchmarks/perf`` is frozen in
any PR that claims a gain — so a refactor that breaks the contract (a
renamed binding, a changed ``ParsedBatch.collections`` shape, a codec
function that no longer round-trips what the parser emits) has to fail
``pytest -x -q`` here, not only the benchmark pipeline.
"""

from __future__ import annotations

import os
import sys

import pytest

from repro.corpus.synthetic import generate_collection

PERF_DIR = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                        "benchmarks", "perf")
if PERF_DIR not in sys.path:
    sys.path.insert(0, PERF_DIR)

import ops  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS, collection_spec  # noqa: E402

#: Layers a serial build executes on the engine side; none may read null.
_SERIAL_LAYERS = (
    "engine.wall_s", "corpus.read.mb_s", "parser.busy_s", "parser.self_s", "regroup.tokens_s",
    "assignment.sample_s", "indexer_cpu.tokens_s", "indexer_gpu.tokens_s",
    "run_write.postings_s", "checkpoint.count", "manifest.busy_s", "dict_write.terms_s",
    "simulate.busy_s",
)
_DRIVEN = (
    "dictionary.inserts_s", "dictionary.new_term_ratio", "postings.appends_s",
    "stream_codec.encode_mb_s", "stream_codec.decode_mb_s", "stream_codec.bytes_per_token",
    "codec.decode_postings_s", "shm_ring.roundtrip_mb_s",
)


@pytest.mark.parametrize("workload", ["web_serial", "web_mp"])
def test_build_wraps_install_cleanly_and_the_drives_run(tmp_path, workload):
    wl = WORKLOADS[workload].sized(smoke=True)
    collection = generate_collection(collection_spec(wl, 2), str(tmp_path / "corpus"))
    rec, cap = tracing.Recorder(), tracing.Captured()
    tracing.install_build_wraps(rec, cap)
    try:
        result = ops.run_build(
            collection.directory, collection.name, wl.config, str(tmp_path / "index"))
    finally:
        rec.restore()
    assert rec.warnings == []
    assert rec.unwrapped == set()

    layers = tracing.build_layer_metrics(rec, cap, result)
    assert all(value is not None for value in layers.values())
    serial = workload == "web_serial"
    if serial:
        assert all(layers[name] > 0 for name in _SERIAL_LAYERS)
        assert cap.cpu_tokens + cap.gpu_tokens == result["tokens"]
        assert cap.regroup_tokens > result["tokens"]  # + the sampling pass
        assert cap.texts and cap.parser_bytes == result["input_bytes"]
    else:
        # The engine decodes what the parse worker ships; nothing is
        # encoded engine-side or sent through a ring, and the run drain
        # is the serial one (``mp.encode_s`` / ``mp.ring_wait_s`` read 0,
        # ``mp.drain_s`` a few ms of accumulator hand-over).
        assert layers["mp.decode_s"] > 0
        assert cap.cpu_tokens + cap.gpu_tokens == result["tokens"]
        assert result["supervisor"] == {
            "restarts": 0, "heartbeat_misses": 0, "degraded": 0}
    assert len(cap.parsed) == len(collection.files)
    assert sum(p.batch.total_tokens for p in cap.parsed) == result["tokens"]

    # The drives read ``ParsedBatch.collections`` as ``{cidx: [(local doc,
    # [suffix, ...]), ...]}`` in consumption order and re-encode the
    # captured files through the stream codec.
    driven = tracing._drive_layers(cap, wl.config, sorted(os.sched_getaffinity(0)))
    assert all(driven[name] > 0 for name in _DRIVEN)
    assert ("tokenizer.tokens_s" in driven) == ("porter.hit_ratio" in driven) == serial
    # Every token of the build went through the dictionary drive.
    inserts = driven["dictionary.inserts_s"] * driven["dictionary.insert.busy_s"]
    assert round(inserts) == result["tokens"]
