"""Shared benchmark fixtures: cached corpora, engine builds, reporting.

Benchmarks are run with ``pytest benchmarks/ --benchmark-only``.  Each
bench both *times* a representative operation (the ``benchmark`` fixture)
and *regenerates* one of the paper's tables/figures, printing the rows and
writing them to ``benchmarks/reports/<name>.txt`` so the output survives
pytest's capture.

Generated corpora and engine builds are cached under ``.bench_data/`` in
the repository root to keep repeated benchmark runs fast.
"""

from __future__ import annotations

import os

import pytest

from repro.core.config import PlatformConfig
from repro.core.engine import IndexingEngine
from repro.corpus.datasets import clueweb09_mini, congress_mini, wikipedia_mini

BENCH_ROOT = os.path.dirname(os.path.abspath(__file__))
DATA_DIR = os.path.join(os.path.dirname(BENCH_ROOT), ".bench_data")
REPORTS_DIR = os.path.join(BENCH_ROOT, "reports")


def report(name: str, text: str) -> None:
    """Print a report block and persist it under benchmarks/reports/."""
    os.makedirs(REPORTS_DIR, exist_ok=True)
    banner = f"\n=== {name} ===\n{text}\n"
    print(banner)
    with open(os.path.join(REPORTS_DIR, f"{name}.txt"), "w", encoding="utf-8") as fh:
        fh.write(text + "\n")


@pytest.fixture(scope="session")
def data_dir():
    os.makedirs(DATA_DIR, exist_ok=True)
    return DATA_DIR


@pytest.fixture(scope="session")
def cw_mini(data_dir):
    """The ClueWeb09-profile mini collection (web + wikipedia segments)."""
    return clueweb09_mini(data_dir, scale=0.5)


@pytest.fixture(scope="session")
def wiki_mini(data_dir):
    return wikipedia_mini(data_dir, scale=0.5)


@pytest.fixture(scope="session")
def congress_mini_coll(data_dir):
    return congress_mini(data_dir, scale=0.5)


@pytest.fixture(scope="session")
def engine_result(cw_mini, data_dir):
    """One full functional engine build on the mini ClueWeb, cached for
    every bench that needs real measured artifacts."""
    out = os.path.join(data_dir, "engine_out")
    engine = IndexingEngine(PlatformConfig(sample_fraction=0.05))
    return engine.build(cw_mini, out)
