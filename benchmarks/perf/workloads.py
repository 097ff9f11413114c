"""The benchmark's four workloads, pinned.

Sizes are constants on purpose: a later PR is compared against its parent
on exactly these inputs, so nothing here may depend on the machine, the
time of day or an environment variable.  ``--smoke`` swaps in the
two-file sizes used by ``test_harness.py``; every other path through the
harness is identical.

Corpus profiles copy the segment shapes of
``repro.corpus.datasets.clueweb09_mini`` / ``wikipedia_mini`` (HTML-heavy
web crawl with a trailing wikipedia.org segment; pre-cleaned pure text) so
the numbers stay comparable with the paper-profile datasets the rest of
the repository uses, but the seed comes from ``--seed``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any

from repro.corpus.synthetic import CollectionSpec, SegmentSpec
from repro.util.rng import derive_seed

__all__ = ["Workload", "WORKLOADS", "collection_spec"]

#: Options shared by every build the harness runs.  Telemetry and the
#: profiler are off (they are measured by their own tests), the exec
#: backend and pipeline depth are explicit so ``REPRO_*`` variables cannot
#: change what is measured, and 5% sampling gives the assignment step a
#: non-trivial sample at these corpus sizes (one document per file).
_COMMON: dict[str, Any] = {
    "telemetry": False,
    "profile": False,
    "sample_fraction": 0.05,
    "pipeline_depth": 0,
    "parse_prefetch": 0,
    "codec": "varbyte",
}

#: The paper's heterogeneous shape scaled to a 2-core box.
_WEB_CONFIG: dict[str, Any] = {
    **_COMMON,
    "num_parsers": 2,
    "num_cpu_indexers": 1,
    "num_gpus": 1,
    "strip_html": True,
    "files_per_run": 1,
}

#: Pure text, CPU indexers only: no HTML strip, no gpusim.
_TEXT_CONFIG: dict[str, Any] = {
    **_COMMON,
    "num_parsers": 2,
    "num_cpu_indexers": 2,
    "num_gpus": 0,
    "strip_html": False,
}


@dataclass(frozen=True)
class Workload:
    """One set of inputs plus the operation timed on them."""

    name: str
    why: str
    #: ``"build"`` times ``IndexingEngine.build``; ``"merge_read"`` times
    #: merge + full decode + queries over an index built during set-up.
    op: str
    #: Corpus profile (``"web"`` or ``"text"``) and files per segment.
    corpus: str
    files: tuple[int, ...]
    smoke_files: tuple[int, ...]
    #: ``PlatformConfig`` keyword arguments of the timed build (for
    #: ``merge_read``: of the set-up build whose index is merged and read).
    config: dict[str, Any]
    #: Two-term queries per rep (``merge_read`` only).
    queries: int = 0

    def sized(self, smoke: bool) -> "Workload":
        """This workload at full or smoke size."""
        if not smoke:
            return self
        config = dict(self.config)
        # Keep the run structure (one run / several runs) at two files.
        one_run = self.config["files_per_run"] >= sum(self.files)
        config["files_per_run"] = 2 if one_run else 1
        return replace(
            self, files=self.smoke_files, config=config, queries=min(self.queries, 60))


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="web_serial",
            why="the paper's headline case: HTML web crawl, large fresh vocabulary, "
            "CPU+GPU indexers, one run (write_run + manifest + checkpoint) per file",
            op="build",
            corpus="web",
            files=(9, 2),
            smoke_files=(1, 1),
            config={**_WEB_CONFIG, "exec_backend": "serial"},
        ),
        Workload(
            name="text_bulk",
            why="the bypass: pure text, no HTML strip, no GPU, few new terms, one run "
            "and one checkpoint; postings stay resident until the single flush",
            op="build",
            corpus="text",
            files=(25,),
            smoke_files=(2,),
            config={**_TEXT_CONFIG, "exec_backend": "serial", "files_per_run": 25},
        ),
        Workload(
            name="web_mp",
            why="the web profile under exec_backend=multiprocess: stream codec, shm "
            "rings, drain and supervisor exist only here; output must equal serial",
            op="build",
            corpus="web",
            files=(5, 1),
            smoke_files=(1, 1),
            config={**_WEB_CONFIG, "exec_backend": "multiprocess"},
        ),
        Workload(
            name="merge_read",
            why="codec, run files and dictionary used the other way round: merge a "
            "10-run index twice, decode every list from both, answer 3000 two-term queries",
            op="merge_read",
            corpus="text",
            files=(30,),
            smoke_files=(2,),
            config={**_TEXT_CONFIG, "exec_backend": "serial", "files_per_run": 3},
            queries=3000,
        ),
    )
}


def collection_spec(workload: Workload, seed: int) -> CollectionSpec:
    """The workload's corpus for ``--seed``.

    Workloads sharing a profile share the derived seed, so ``web_mp`` and
    ``web_serial`` draw from the same vocabulary and document shapes.
    """
    derived = derive_seed(seed, "perf", workload.corpus)
    if workload.corpus == "web":
        n_web, n_wiki = workload.files
        segments = (
            SegmentSpec(
                name="web", num_files=n_web, docs_per_file=30,
                tokens_per_doc_mean=320, vocab_size=60_000, zipf_s=1.0,
                html=True, mean_term_length=7.2,
            ),
            SegmentSpec(
                name="wikipedia.org", num_files=n_wiki, docs_per_file=45,
                tokens_per_doc_mean=260, vocab_size=35_000, zipf_s=0.9,
                html=True, mean_term_length=7.6,
            ),
        )
    else:
        (n_text,) = workload.files
        segments = (
            SegmentSpec(
                name="articles", num_files=n_text, docs_per_file=30,
                tokens_per_doc_mean=480, vocab_size=25_000, zipf_s=1.05,
                html=False, stopword_rate=0.40, mean_term_length=7.0,
            ),
        )
    return CollectionSpec(name=workload.corpus, seed=derived, segments=segments)

