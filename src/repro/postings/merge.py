"""Optional post-processing merge of partial postings lists.

"If necessary, we can combine the partial postings lists of each term into
a single list in a post-processing step, with an additional cost of less
than 10% of the total running time."  This module implements that step: it
concatenates each term's partial lists across every run (in run order =
document order) and writes a single consolidated run file (run id ``0`` by
convention) plus a fresh ``runs.map``.  The merge benchmark checks the
<10% cost claim against the engine's build time.

Every input run is CRC-verified and its mapping table parsed and checked
(:func:`~repro.postings.output.read_run_table_from_file`) before a byte of
it is used.  Then one path serves every codec.  The term axis is cut into
windows whose lists total about :data:`_WINDOW_BYTES` over all runs, one
``seek`` + ``read`` a run.  The runs' codec decodes each piece into columns
(:meth:`~repro.postings.compression.PostingsCodec.decode_lists`, the
reader's own strict decode).  A stable sort by term keeps each term's lists
in run order, whose documents must ascend strictly from one list to the
next (``ValueError``, "overlap", otherwise).  The output codec encodes the
window's merged lists in one call
(:meth:`~repro.postings.compression.PostingsCodec.encode_lists`), so a
merge writes what :meth:`~repro.postings.output.RunWriter.write_run` writes
of the merged lists.

Memory: the runs' mapping tables (24 bytes an entry) and one window's
columns, never the index.  ``peak_resident_postings`` reports the length
of the longest merged list.

Codec handling: when ``codec`` is ``None`` the merged run keeps the input
runs' codec — positional or not — so a merge never silently re-encodes.
A run set that mixes codecs raises ``ValueError``; an explicit ``codec``
re-encodes the merged lists in that codec.
"""

from __future__ import annotations

import os
from contextlib import ExitStack
from typing import BinaryIO, Iterator, NamedTuple

import numpy as np

from repro.obs import runtime as obs
from repro.postings.compression import PostingsCodec, VarByteCodec, get_codec
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


class _InputRun(NamedTuple):
    """One verified input run: open handle and mapping table."""

    fh: BinaryIO
    #: ``(n_entries, 3)`` rows of ``(term_id, absolute offset, length)``.
    table: np.ndarray


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

    input_bytes = 0
    stats = {"postings": 0, "peak_resident_postings": 0}

    with ExitStack() as stack:
        runs: list[_InputRun] = []
        codec_names: list[str] = []
        with tracer.span(
            "merge.read_runs", cat="merge", lane="merge", runs=len(range_map.runs)
        ):
            for run in range_map.runs:  # already sorted by run id = document order
                size = verify_run_file(run.path)  # never merge a damaged run
                input_bytes += size
                fh = stack.enter_context(open(run.path, "rb"))
                _, codec_name, _, _, table, _ = read_run_table_from_file(fh)
                runs.append(_InputRun(fh, table))
                codec_names.append(codec_name)
                reg.count("merge.runs_read")
                reg.count("merge.input_bytes", size)

        names = sorted(set(codec_names))
        if len(names) > 1:
            raise ValueError(
                f"cannot merge runs with mixed codecs ({', '.join(names)}); "
                "rebuild or re-encode the runs with one codec first"
            )
        run_codec = get_codec(names[0]) if names else VarByteCodec()
        if codec is None:
            codec = run_codec  # preserve the run codec through the merge
        # Sorted distinct term ids.  Not np.unique: its default sort pages
        # in numpy's SIMD sort library, 0.4 MB resident for one call.
        term_ids = np.sort(
            np.concatenate([np.empty(0, np.int64), *(run.table[:, 0] for run in runs)]),
            kind="stable",
        )
        distinct = np.ones(term_ids.size, dtype=bool)
        distinct[1:] = term_ids[1:] != term_ids[:-1]
        term_ids = term_ids[distinct]

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
        with open(dict_src, "rb") as src, open(
            os.path.join(output_dir, "dictionary.bin"), "wb"
        ) as dst:
            dst.write(src.read())

    return {
        "terms": len(term_ids),
        "input_bytes": input_bytes,
        "output_bytes": run_file.byte_size,
        "input_runs": len(range_map.runs),
        **stats,
    }


def _merged_blocks(
    runs: list[_InputRun],
    term_ids: np.ndarray,
    run_codec: PostingsCodec,
    codec: PostingsCodec,
    stats: dict[str, int],
) -> Iterator[EncodedBlock]:
    """Yield the merged lists of one window of ``term_ids`` after another."""
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
        for run, cuts in zip(runs, rows):
            table = run.table[cuts[window] : cuts[window + 1]]
            if not len(table):
                continue
            run.fh.seek(table[0, 1])
            piece = run.fh.read(table[-1, 1] + table[-1, 2] - table[0, 1])
            pieces.append((table[:, 0], *run_codec.decode_lists(piece, table[:, 2])))
        block = _merge_window(pieces, codec, stats)
        if block is not None:
            yield block


def _merge_window(
    pieces: list[tuple], codec: PostingsCodec, stats: dict[str, int]
) -> EncodedBlock | None:
    """Encode a window's lists, given run by run, merged term by term.

    ``pieces`` holds, per run, ``(term ids, counts, docs, tfs, positions)``
    of its lists in the window.  A term's merged list is its lists in run
    order, whose documents must ascend strictly from one to the next.
    """
    term_ids, counts, docs, tfs = (
        np.concatenate([piece[i] for piece in pieces]) for i in range(4)
    )
    positional = pieces[0][4] is not None
    # Empty lists add nothing; a term none of whose lists holds a posting
    # is left out, as the run writer leaves it out.
    listed = counts > 0
    starts = (np.cumsum(counts) - counts)[listed]
    term_ids, counts = term_ids[listed], counts[listed]
    if not counts.size:
        return None
    # Stable: a term's lists stay in run order = document order.
    order = np.argsort(term_ids, kind="stable")
    term_ids, counts, starts = term_ids[order], counts[order], starts[order]
    lead = np.concatenate(([True], term_ids[1:] != term_ids[:-1]))
    first_docs, last_docs = docs[starts], docs[starts + counts - 1]
    follows = ~lead[1:]
    if np.any(first_docs[1:][follows] <= last_docs[:-1][follows]):
        raise ValueError("run files overlap in document order; input corrupt")
    postings = _ranges(starts, counts)
    positions = None
    if positional:
        at = np.concatenate(([0], np.cumsum(tfs, dtype=np.int64)))
        flat = np.concatenate([piece[4] for piece in pieces])
        positions = flat[_ranges(at[starts], at[starts + counts] - at[starts])]
    leads = np.flatnonzero(lead)
    totals = np.add.reduceat(counts, leads)
    data, lengths = codec.encode_lists(totals, docs[postings], tfs[postings], positions)
    stats["postings"] += int(totals.sum())
    stats["peak_resident_postings"] = max(stats["peak_resident_postings"], int(totals.max()))
    return (
        term_ids[leads].tolist(),
        lengths.tolist(),
        data,
        int(first_docs.min()),
        int(last_docs.max()),
    )


def _ranges(starts: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """The indices ``starts[i] .. starts[i] + sizes[i] - 1`` for each ``i``, in turn."""
    return np.repeat(starts - (np.cumsum(sizes) - sizes), sizes) + np.arange(int(sizes.sum()))
