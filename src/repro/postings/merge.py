"""Optional post-processing merge of partial postings lists.

"If necessary, we can combine the partial postings lists of each term into
a single list in a post-processing step, with an additional cost of less
than 10% of the total running time."  This module implements that step: it
concatenates each term's partial lists across every run (in run order =
document order) and writes a single consolidated run file (run id ``0`` by
convention) plus a fresh ``runs.map``.  The merge benchmark checks the
<10% cost claim against the engine's build time.

The reader runs the same combine and keeps it unencoded.  :func:`open_runs`
CRC-verifies every run, then parses and checks its mapping table, before a
byte of it is used.  :func:`read_windows` decodes term windows whose lists
total about :data:`_WINDOW_BYTES` over all runs, one ``seek`` + ``read`` a
run, with the runs' strict ``decode_lists``.  :func:`join_window` orders a
window's lists by term, stably, so a term's lists stay in run order, whose
documents must ascend strictly from one to the next: the merge raises
``ValueError`` ("overlap") on a term where they do not, and encodes the
window in one ``encode_lists`` call, so it writes what ``write_run``
writes of the merged lists.  Memory: the runs' mapping tables (24 bytes
an entry) and one window's columns, never the index.
``peak_resident_postings`` reports the length of the longest merged list.

Codec handling: when ``codec`` is ``None`` the merged run keeps the input
runs' codec — positional or not — so a merge never silently re-encodes.
A run set that mixes codecs raises ``ValueError``; an explicit ``codec``
re-encodes the merged lists in that codec.
"""

from __future__ import annotations

import os
import shutil
from contextlib import ExitStack
from itertools import groupby
from typing import BinaryIO, Iterator, NamedTuple

import numpy as np

from repro.obs import runtime as obs
from repro.postings.compression import PostingsCodec, VarByteCodec, get_codec
from repro.postings.lists import _spans
from repro.postings.output import (
    DocRangeMap,
    EncodedBlock,
    RunWriter,
    read_run_table_from_file,
    verify_run_file,
)

__all__ = ["merge_index"]

#: Input payload bytes, summed over the runs, that one merge step holds.
_WINDOW_BYTES = 1 << 16


class InputRun(NamedTuple):
    """One verified input run: open handle, codec name and mapping table."""

    fh: BinaryIO
    codec: str
    #: ``(n_entries, 3)`` rows of ``(term_id, absolute offset, length)``.
    table: np.ndarray


class Joined(NamedTuple):
    """A window joined: ``term_ids[i]`` (ascending) has ``counts[i]`` postings
    of ``docs`` / ``tfs`` from ``parts[i]`` non-empty lists, which overlap in
    document order for the terms in ``clashes``."""

    term_ids: np.ndarray
    parts: np.ndarray
    counts: np.ndarray
    docs: np.ndarray
    tfs: np.ndarray
    positions: np.ndarray | None
    clashes: np.ndarray


def open_runs(range_map: DocRangeMap, stack: ExitStack) -> tuple[list[InputRun], int]:
    """Every run in run order, open in ``stack``, and their total bytes."""
    runs: list[InputRun] = []
    total = 0
    for run in range_map.runs:
        total += verify_run_file(run.path)  # never read a damaged run
        fh = stack.enter_context(open(run.path, "rb"))
        _, codec_name, _, _, table, _ = read_run_table_from_file(fh)
        runs.append(InputRun(fh, codec_name, table))
    return runs, total


def distinct_term_ids(runs: list[InputRun]) -> np.ndarray:
    """The sorted distinct term ids of the runs' tables."""
    # Not np.unique: its default sort pages in numpy's SIMD sort library,
    # 0.4 MB resident for one call.
    term_ids = np.concatenate([np.empty(0, np.int64), *(run.table[:, 0] for run in runs)])
    term_ids.sort(kind="stable")
    return term_ids[np.diff(term_ids, prepend=-1) != 0]


def read_windows(
    runs: list[InputRun], term_ids: np.ndarray, codecs: dict[str, PostingsCodec]
) -> Iterator[list[tuple]]:
    """Yield each window of ``term_ids`` as pieces ``(term ids, counts, docs,
    tfs, positions)``, one per stretch of adjacent runs of one codec."""
    weights = np.zeros(term_ids.size, dtype=np.int64)
    for run in runs:
        weights[np.searchsorted(term_ids, run.table[:, 0])] += run.table[:, 2]
    if not term_ids.size:
        return
    # A window ends with the term that takes the running total of list
    # bytes past the next multiple of the window size.
    windows = np.cumsum(weights) // _WINDOW_BYTES
    firsts = np.concatenate(([0], np.flatnonzero(windows[1:] != windows[:-1]) + 1))
    # Row range of every window in every run's table (term ids ascend).
    rows = [
        np.append(np.searchsorted(run.table[:, 0], term_ids[firsts]), len(run.table))
        for run in runs
    ]
    for window in range(len(firsts)):
        pieces = []
        # Lists are whole, so adjacent runs of one codec decode in one call.
        for name, group in groupby(zip(runs, rows), key=lambda item: item[0].codec):
            tables, data = [], []
            for run, cuts in group:
                table = run.table[cuts[window] : cuts[window + 1]]
                if len(table):
                    run.fh.seek(table[0, 1])
                    data.append(run.fh.read(table[-1, 1] + table[-1, 2] - table[0, 1]))
                    tables.append(table)
            if tables:
                ids, _, lengths = np.concatenate(tables).T
                pieces.append((ids, *codecs[name].decode_lists(b"".join(data), lengths)))
        yield pieces


def join_window(pieces: list[tuple], positional: bool) -> Joined:
    """Join a window's pieces term by term; ``positional`` keeps positions."""
    term_ids, counts, docs, tfs = (
        np.concatenate([piece[i] for piece in pieces]) for i in range(4)
    )
    # Empty lists add nothing; a term none of whose lists holds a posting
    # is left out, as the run writer leaves it out.
    listed = counts > 0
    starts = (np.cumsum(counts) - counts)[listed]
    term_ids, counts = term_ids[listed], counts[listed]
    # Stable: a term's lists stay in run order = document order.
    order = np.argsort(term_ids, kind="stable")
    term_ids, counts, starts = term_ids[order], counts[order], starts[order]
    follows = term_ids[1:] == term_ids[:-1]
    clash = follows & (docs[starts[1:]] <= docs[starts[:-1] + counts[:-1] - 1])
    leads = np.flatnonzero(np.diff(term_ids, prepend=-1))  # term ids are >= 0
    positions = None
    if positional:
        at = np.concatenate(([0], np.cumsum(tfs, dtype=np.int64)))
        flat = np.concatenate([piece[4] for piece in pieces])
        positions = flat[_spans(at[starts], at[starts + counts] - at[starts])]
    postings = _spans(starts, counts)
    return Joined(
        term_ids[leads],
        np.diff(leads, append=term_ids.size),
        np.add.reduceat(counts, leads),
        docs[postings],
        tfs[postings],
        positions,
        term_ids[1:][clash],
    )


def merge_index(
    input_dir: str,
    output_dir: str,
    codec: PostingsCodec | None = None,
) -> dict[str, int]:
    """Merge a multi-run index directory into a single-run directory.

    Returns summary statistics: terms merged, postings written, input and
    output byte sizes, and ``peak_resident_postings`` — the largest number
    of postings held in memory at once (the merged length of the most
    frequent term).  The dictionary file (if present) is copied verbatim
    because postings pointers are stable across the merge.

    Raises ``ValueError`` if the input runs do not all share one codec,
    and ``ValueError`` / ``EOFError`` for a run whose checksum holds but
    whose lists are malformed.
    """
    range_map = DocRangeMap.load(input_dir)
    tracer = obs.tracer()
    reg = obs.metrics()
    stats = {"postings": 0, "peak_resident_postings": 0}

    with ExitStack() as stack:
        with tracer.span(
            "merge.read_runs", cat="merge", lane="merge", runs=len(range_map.runs)
        ):
            runs, input_bytes = open_runs(range_map, stack)
        reg.count("merge.runs_read", len(runs))
        reg.count("merge.input_bytes", input_bytes)

        names = sorted({run.codec for run in runs})
        if len(names) > 1:
            raise ValueError(
                f"cannot merge runs with mixed codecs ({', '.join(names)}); "
                "rebuild or re-encode the runs with one codec first"
            )
        run_codec = get_codec(names[0]) if names else VarByteCodec()
        if codec is None:
            codec = run_codec  # preserve the run codec through the merge
        term_ids = distinct_term_ids(runs)

        os.makedirs(output_dir, exist_ok=True)
        writer = RunWriter(output_dir, codec=codec)
        with tracer.span(
            "merge.write", cat="merge", lane="merge", terms=len(term_ids)
        ):
            run_file = writer.write_encoded_run(
                0, _merged_blocks(runs, term_ids, run_codec, codec, stats)
            )

    reg.count("merge.terms", len(term_ids))
    reg.count("merge.output_bytes", run_file.byte_size)
    out_map = DocRangeMap()
    out_map.add(run_file)
    out_map.save(output_dir)

    dict_src = os.path.join(input_dir, "dictionary.bin")
    if os.path.exists(dict_src) and os.path.abspath(input_dir) != os.path.abspath(output_dir):
        shutil.copyfile(dict_src, os.path.join(output_dir, "dictionary.bin"))

    return {
        "terms": len(term_ids),
        "input_bytes": input_bytes,
        "output_bytes": run_file.byte_size,
        "input_runs": len(range_map.runs),
        **stats,
    }


def _merged_blocks(
    runs: list[InputRun],
    term_ids: np.ndarray,
    run_codec: PostingsCodec,
    codec: PostingsCodec,
    stats: dict[str, int],
) -> Iterator[EncodedBlock]:
    """Yield the merged lists of one window of ``term_ids`` after another."""
    positional = run_codec.positional
    for pieces in read_windows(runs, term_ids, {run_codec.name: run_codec}):
        term_ids, _, totals, docs, tfs, positions, clashes = join_window(pieces, positional)
        if clashes.size:
            raise ValueError("run files overlap in document order; input corrupt")
        if not totals.size:
            continue
        data, lengths = codec.encode_lists(totals, docs, tfs, positions)
        stats["postings"] += int(totals.sum())
        stats["peak_resident_postings"] = max(stats["peak_resident_postings"], int(totals.max()))
        yield term_ids.tolist(), lengths.tolist(), data, int(docs.min()), int(docs.max())

