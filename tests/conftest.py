"""Shared fixtures: tiny deterministic collections and reference indexes.

The engine/baseline integration tests need real on-disk collections; a
session-scoped tiny corpus keeps the whole suite fast while exercising
every code path (HTML stripping, gzip containers, multi-file ordering,
the Wikipedia-segment shift).
"""

from __future__ import annotations

import os

import pytest
from hypothesis import settings

from repro.corpus.synthetic import CollectionSpec, SegmentSpec, generate_collection
from repro.obs.schema import METRICS_FILENAME, load_metrics

# One Hypothesis profile for the suite: a property's verdict may depend on
# neither the wall clock (no per-example deadline on a loaded box) nor a
# random seed, and a failure prints the blob that reproduces it.
settings.register_profile("tier1", deadline=None, derandomize=True, print_blob=True)
settings.load_profile("tier1")


def deterministic_metric_sections(index_dir: str) -> dict:
    """A build's metric sections that must repeat exactly, build to build.

    Cut: ``supervisor.*`` only exists for the multiprocess backend (the
    CI matrix can force it onto any build via ``REPRO_EXEC_BACKEND``),
    and ``checkpoint.bytes`` tracks the output directory's path length
    (the checkpoint pickle embeds absolute run paths).  Everything else
    must match across backends and repeated builds.
    """
    payload = load_metrics(os.path.join(index_dir, METRICS_FILENAME))
    sections = {}
    for section in ("counters", "gauges", "histograms"):
        sections[section] = {
            k: v for k, v in payload[section].items()
            if not k.startswith("supervisor.")
        }
    sections["histograms"].pop("checkpoint.bytes", None)
    return sections


def _tiny_spec(name: str, seed: int, html: bool = True) -> CollectionSpec:
    return CollectionSpec(
        name=name,
        seed=seed,
        segments=(
            SegmentSpec(
                name="main",
                num_files=4,
                docs_per_file=10,
                tokens_per_doc_mean=60,
                vocab_size=3000,
                zipf_s=1.0,
                html=html,
            ),
            SegmentSpec(
                name="tail",
                num_files=2,
                docs_per_file=8,
                tokens_per_doc_mean=50,
                vocab_size=1500,
                zipf_s=0.9,
                html=html,
            ),
        ),
    )


@pytest.fixture(scope="session")
def tiny_collection(tmp_path_factory):
    """A 6-file, 56-document collection with two segments."""
    root = tmp_path_factory.mktemp("corpus")
    return generate_collection(_tiny_spec("tiny", seed=7), str(root))


@pytest.fixture(scope="session")
def tiny_text_collection(tmp_path_factory):
    """Pure-text variant (no HTML), for strip_html=False paths."""
    root = tmp_path_factory.mktemp("corpus_text")
    return generate_collection(_tiny_spec("tiny_text", seed=8, html=False), str(root))


@pytest.fixture(scope="session")
def reference_index(tiny_collection):
    """Ground-truth ``{term: [(doc, tf), ...]}`` built naively."""
    from repro.baselines.common import count_tf, parsed_documents

    index: dict[str, list[tuple[int, int]]] = {}
    for doc_id, terms in parsed_documents(tiny_collection):
        for term, tf in count_tf(terms).items():
            index.setdefault(term, []).append((doc_id, tf))
    return index
