"""Platform and algorithm configuration (the knobs of Section IV).

The paper's best configuration on two quad-core Xeon X5560 + two Tesla
C1060: **six parsers, two CPU indexers, two GPU indexers with 480 thread
blocks each** — the default here.  The experiment benchmarks construct
variants (Fig 10 sweeps ``num_parsers``, Table IV sweeps the indexer mix,
the ablations toggle regrouping/trie height/degree/caches/scheduling).
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field, replace

from repro.dictionary.btree import check_log_collections
from repro.dictionary.layout import DEFAULT_DEGREE
from repro.dictionary.trie import TrieTable

from repro.gpusim.costmodel import GPUSpec, TESLA_C1060
from repro.indexers.assignment import PopularityPolicy
from repro.postings.compression import CODECS
from repro.robustness.policy import ON_ERROR_POLICIES
from repro.robustness.retry import RetryPolicy
from repro.robustness.supervise import SupervisorPolicy

__all__ = [
    "PlatformConfig",
    "EXEC_BACKEND_ENV",
    "EXEC_BACKENDS",
]

#: Environment override for :attr:`PlatformConfig.exec_backend` — CI's
#: backend matrix forces the whole tier-1 suite through one backend
#: without touching any test's config construction.  Explicit
#: constructor arguments still win over the environment.
EXEC_BACKEND_ENV = "REPRO_EXEC_BACKEND"

#: Valid values of :attr:`PlatformConfig.exec_backend`; the first is the
#: default.
EXEC_BACKENDS = ("serial", "multiprocess")


def _default_exec_backend() -> str:
    raw = os.environ.get(EXEC_BACKEND_ENV, "").strip().lower()
    if not raw:
        return EXEC_BACKENDS[0]
    if raw not in EXEC_BACKENDS:
        raise ValueError(
            f"{EXEC_BACKEND_ENV} must be one of {EXEC_BACKENDS}, got {raw!r}"
        )
    return raw


@dataclass(frozen=True)
class PlatformConfig:
    """Everything the engine and the pipeline simulator need to know."""

    # --- pipeline shape (Fig 9) ---------------------------------------- #
    num_parsers: int = 6
    num_cpu_indexers: int = 2
    num_gpus: int = 2
    total_cores: int = 8
    buffer_capacity: int = 2

    # --- GPU (Section III.D.2 / IV.B) ---------------------------------- #
    gpu_spec: GPUSpec = TESLA_C1060
    thread_blocks_per_gpu: int = 480
    gpu_schedule: str = "dynamic"  # "dynamic" | "static" (ablation E)

    # --- dictionary (Section III.B) ------------------------------------ #
    trie_height: int = 3
    btree_degree: int = DEFAULT_DEGREE
    use_string_cache: bool = True

    # --- parsing (Section III.C) --------------------------------------- #
    strip_html: bool = True
    regroup: bool = True
    #: Both accept only ``0``; they exist because the frozen benchmark
    #: harness passes them.  Parsing ahead of the indexers is
    #: ``exec_backend="multiprocess"``, whose window is
    #: ``repro.core.mp_backend.PARSE_AHEAD_WINDOW``.
    parse_prefetch: int = 0
    pipeline_depth: int = 0
    #: Which execution backend runs the build (docs/ARCHITECTURE.md,
    #: "Execution backends"): ``"serial"`` (default — the inline
    #: reference loop) or ``"multiprocess"`` (the same loop fed by one
    #: supervised parse-ahead process).
    #: Both produce byte-identical output.  Overridable fleet-wide via
    #: ``REPRO_EXEC_BACKEND``; explicit values win over the environment.
    exec_backend: str = field(default_factory=_default_exec_backend)
    #: Supervision knobs for the multiprocess backend: restart budget,
    #: stall timeout, poison threshold, restart backoff (see
    #: :mod:`repro.robustness.supervise`).
    supervisor: SupervisorPolicy = field(default_factory=SupervisorPolicy)

    # --- load balancing (Section III.E) -------------------------------- #
    sample_fraction: float = 0.001
    popularity: PopularityPolicy = field(default_factory=PopularityPolicy)

    # --- output (Section III.F) ---------------------------------------- #
    codec: str = "varbyte"
    #: Spread run files round-robin over this many "disk" subdirectories
    #: (§III.F: "the output files can be written onto multiple disks",
    #: enabling parallel reading of the postings lists).
    output_stripes: int = 1
    #: Collection files per run.  The paper passes parsed results to the
    #: indexers "after processing a number of documents with a fixed total
    #: size, e.g. 1GB"; with 1GB collection files that is one file per run
    #: (the default), but smaller files can be grouped.
    files_per_run: int = 1
    #: Build an Ivory-style positional index: every posting carries the
    #: token's in-document positions, enabling phrase queries.  Selects a
    #: positional codec automatically when left on "varbyte".
    positional: bool = False

    # --- observability (docs/OBSERVABILITY.md) --------------------------- #
    #: Span tracing + metrics collection for the build.  On by default;
    #: when off, the engine runs with the null tracer/registry (near-zero
    #: overhead) and writes no ``run.metrics.json`` / ``trace.json``.
    telemetry: bool = True
    #: Sampling profiler (``repro build --profile``): the engine and
    #: the multiprocess backend's parse worker run a
    #: deterministic-interval stack sampler whose merged view is written
    #: as ``run.profile.json`` (see docs/OBSERVABILITY.md, "Profiling").
    #: Independent of ``telemetry`` — a profiled build with telemetry
    #: off still collects samples.
    profile: bool = False
    #: Sampler tick in seconds; smaller = finer attribution, more
    #: overhead.  The default 10ms keeps profiled builds within the
    #: ≤ 5% overhead gate pinned by ``tests/test_profile.py``.
    profile_interval_s: float = 0.01

    # --- robustness (docs/ROBUSTNESS.md) -------------------------------- #
    #: What to do with a permanently unreadable container file:
    #: ``"strict"`` aborts the build, ``"skip"`` records and continues,
    #: ``"quarantine"`` additionally moves the file aside for triage.
    on_error: str = "strict"
    #: Backoff schedule applied to every container read (sampling and
    #: build); only transient errors are retried.
    retry: RetryPolicy = field(default_factory=RetryPolicy)
    #: Where quarantined containers land (default: ``quarantine/`` inside
    #: the collection directory).
    quarantine_dir: str | None = None

    def __post_init__(self) -> None:
        if self.codec not in CODECS:
            raise ValueError(f"codec must be one of {sorted(CODECS)}, got {self.codec!r}")
        if self.positional:
            if self.codec == "varbyte":
                object.__setattr__(self, "codec", "varbyte-pos")
            elif self.codec != "varbyte-pos":
                raise ValueError(
                    f"positional indexes need a positional codec, not {self.codec!r}"
                )
            if not self.regroup:
                raise ValueError("positional indexing requires regrouping")
        check_log_collections(TrieTable(self.trie_height).num_collections)
        if self.num_parsers < 1:
            raise ValueError("need at least one parser")
        if self.output_stripes < 1:
            raise ValueError("need at least one output stripe")
        if self.files_per_run < 1:
            raise ValueError("need at least one file per run")
        for knob in ("parse_prefetch", "pipeline_depth"):
            if getattr(self, knob) != 0:
                raise ValueError(
                    f"{knob} must be 0; to parse ahead of the indexers use "
                    'exec_backend="multiprocess"'
                )
        if self.exec_backend not in EXEC_BACKENDS:
            raise ValueError(
                f"exec_backend must be one of {EXEC_BACKENDS}, "
                f"got {self.exec_backend!r}"
            )
        if self.num_cpu_indexers < 0 or self.num_gpus < 0:
            raise ValueError("indexer counts must be non-negative")
        if self.num_cpu_indexers == 0 and self.num_gpus == 0:
            raise ValueError(
                "need at least one indexer (CPU or GPU); use the pipeline "
                "simulator's parse_only mode for the Fig 10 parse-only series"
            )
        if self.profile_interval_s <= 0:
            raise ValueError("profile_interval_s must be > 0")
        if self.on_error not in ON_ERROR_POLICIES:
            raise ValueError(
                f"on_error must be one of {ON_ERROR_POLICIES}, got {self.on_error!r}"
            )
        if self.num_parsers + self.num_cpu_indexers > self.total_cores:
            raise ValueError(
                f"{self.num_parsers} parsers + {self.num_cpu_indexers} CPU "
                f"indexers oversubscribe the {self.total_cores} physical cores "
                "(the paper binds one thread per core)"
            )

    # ------------------------------------------------------------------ #

    def with_(self, **changes: object) -> "PlatformConfig":
        """Functional update, for experiment sweeps."""
        return replace(self, **changes)

    def describe(self) -> str:
        """One-line summary used by benchmark headers."""
        gpu = (
            f"{self.num_gpus} GPU ({self.thread_blocks_per_gpu} blocks, "
            f"{self.gpu_schedule})"
            if self.num_gpus
            else "no GPU"
        )
        backend = (
            f" / exec {self.exec_backend}"
            if self.exec_backend != EXEC_BACKENDS[0]
            else ""
        )
        return (
            f"{self.num_parsers} parsers / {self.num_cpu_indexers} CPU "
            f"indexers / {gpu}{backend}"
        )
