"""Smoke tests: the shipped examples run end to end.

Examples are documentation that executes; a refactor that breaks them
must fail the suite, not a reader.  Each example's ``main`` runs against
a throwaway work directory (the slower ones on the smallest scale their
preset supports).
"""

from __future__ import annotations

import glob
import importlib.util
import os
import subprocess
import sys

import pytest

EXAMPLES_DIR = os.path.join(os.path.dirname(__file__), "..", "examples")
REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _load(name: str):
    path = os.path.join(EXAMPLES_DIR, f"{name}.py")
    spec = importlib.util.spec_from_file_location(f"example_{name}", path)
    module = importlib.util.module_from_spec(spec)
    assert spec.loader is not None
    spec.loader.exec_module(module)
    return module


class TestExamples:
    def test_quickstart(self, tmp_path, capsys, monkeypatch):
        # Shrink the preset so the smoke test stays fast.
        import repro.corpus.datasets as datasets

        real = datasets.clueweb09_mini
        monkeypatch.setattr(
            "repro.corpus.datasets.clueweb09_mini",
            lambda root, scale=0.4, seed=9: real(root, scale=0.1, seed=seed),
        )
        module = _load("quickstart")
        module.main(str(tmp_path))
        out = capsys.readouterr().out
        assert "indexed" in out and "partial-list fetches" in out

    def test_gpu_simulation(self, capsys):
        module = _load("gpu_simulation")
        module.demo_warp_search()
        module.demo_memory_rules()
        module.demo_warp_costs()
        module.demo_device()
        out = capsys.readouterr().out
        assert "8 transactions" in out
        assert "slot" in out

    def test_paper_scale_simulation_runs(self, capsys):
        module = _load("paper_scale_simulation")
        module.main()
        out = capsys.readouterr().out
        assert "Table IV" in out and "Fig 12" in out
        assert "315.46" in out  # the paper column is printed

    def test_custom_corpus(self, tmp_path, capsys):
        module = _load("custom_corpus")
        module.main(str(tmp_path))
        out = capsys.readouterr().out
        assert "hardware.txt" in out and "BM25" in out

    @pytest.mark.slow
    def test_search_engine(self, tmp_path, capsys):
        module = _load("search_engine")
        module.main(str(tmp_path))
        out = capsys.readouterr().out
        assert "phrase query" in out

    @pytest.mark.slow
    def test_baseline_comparison(self, tmp_path, capsys):
        module = _load("baseline_comparison")
        module.main(str(tmp_path))
        out = capsys.readouterr().out
        assert "identical to engine: True" in out


def test_every_benchmark_script_imports():
    """Nothing else in tier-1 imports ``benchmarks/bench_*.py``; a rename
    in ``src/`` must not leave one of them with a dead import.  A fresh
    interpreter with ``benchmarks/`` first on ``sys.path`` resolves their
    ``from conftest import report`` the way pytest's rootdir does."""
    bench_dir = os.path.join(REPO, "benchmarks")
    names = sorted(
        os.path.basename(path)[: -len(".py")]
        for path in glob.glob(os.path.join(bench_dir, "bench_*.py"))
    )
    assert names, bench_dir
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [bench_dir, os.path.join(REPO, "src"), env.get("PYTHONPATH", "")]
    )
    proc = subprocess.run(
        [sys.executable, "-c", "".join(f"import {name}\n" for name in names)],
        capture_output=True, text=True, cwd=REPO, env=env,
    )
    assert proc.returncode == 0, proc.stderr
