"""Optional post-processing merge of partial postings lists.

"If necessary, we can combine the partial postings lists of each term into
a single list in a post-processing step, with an additional cost of less
than 10% of the total running time."  This module implements that step: it
splices each term's partial lists across every run (in run order = document
order) and writes a single consolidated run file (run id ``0`` by
convention) plus a fresh ``runs.map``.  The merge benchmark checks the
<10% cost claim against the engine's build time.

Every input run is CRC-verified and its header parsed before a byte of it
is used: :func:`~repro.postings.output.read_run_table_from_file` returns
the mapping table as an integer array, already checked to ascend and to
tile the payload.  What happens next
depends on the codecs, not on a switch:

* **varbyte in, varbyte out — a byte splice.**  A varbyte list is
  ``uvarint(count)`` followed by ``(gap, tf)`` varint pairs, the first
  gap being ``first doc + 1``.  Concatenating a term's partial lists
  therefore changes two things only: the count, and the first gap of
  every list after the first, which becomes ``first doc − previous
  list's last doc``.  Everything else is copied as bytes.  The term axis
  is cut into chunks whose partial lists total about
  :data:`_WINDOW_BYTES` over all runs; in a run those lists lie back to
  back, so a chunk costs one ``seek`` + ``read`` per run.
  :func:`~repro.postings.compression.decode_uvarints` decodes each window
  whole, and per list ``(count, end of the count varint, first doc, end
  of the first gap, last doc)`` fall out as integer columns — with the
  checks a decode would make: a list that ends inside a varint, a count
  that disagrees with the list's length, a zero gap or term frequency,
  and runs that overlap in document order all raise.  No posting becomes
  a Python object.
* **anything else** (γ, Golomb, ``varbyte-pos``, or an explicit ``codec``
  that is not the runs' own) — decode each partial list, append to one
  :class:`~repro.postings.lists.PostingsList` per term, re-encode.

Memory: the runs' mapping tables (24 bytes an entry), one window with
its decoded columns, and one term's merged list — never the index.
``peak_resident_postings`` reports the last of these: the length of the
longest merged list.

Codec handling: when ``codec`` is ``None`` the merged run keeps the input
runs' codec — positional or not — so a merge never silently re-encodes.
A run set that mixes codecs cannot be spliced byte-for-byte and raises
``ValueError``; pass an explicit ``codec`` after re-encoding if that is
really intended.
"""

from __future__ import annotations

import os
from contextlib import ExitStack
from typing import BinaryIO, Iterator, NamedTuple

import numpy as np

from repro.obs import runtime as obs
from repro.postings.compression import (
    UVARINT_LIMITS,
    PostingsCodec,
    VarByteCodec,
    decode_uvarints,
    encode_uvarint,
    get_codec,
)
from repro.postings.lists import PostingsList
from repro.postings.output import (
    DocRangeMap,
    EncodedBlock,
    RunWriter,
    read_run_table_from_file,
    verify_run_file,
)

__all__ = ["merge_index"]

#: Input payload bytes, summed over the runs, that one splice step holds.
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
                size = verify_run_file(run.path)  # never splice a damaged run
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
            if _can_splice(run_codec, codec):
                run_file = writer.write_encoded_run(
                    0, _spliced_blocks(runs, term_ids, stats)
                )
            else:
                run_file = writer.write_run_streaming(
                    0, _reencoded_lists(runs, term_ids, run_codec, stats)
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


def _can_splice(run_codec: PostingsCodec, codec: PostingsCodec) -> bool:
    """Whether merged lists can be assembled from the runs' own bytes."""
    return type(run_codec) is VarByteCodec and type(codec) is VarByteCodec


# ---------------------------------------------------------------------- #
# Any codec: decode, append, re-encode
# ---------------------------------------------------------------------- #


def _reencoded_lists(
    runs: list[_InputRun],
    term_ids: np.ndarray,
    run_codec: PostingsCodec,
    stats: dict[str, int],
) -> Iterator[tuple[int, PostingsList]]:
    """Yield one fully merged term at a time, in term-id order."""
    tables = [
        {term_id: (offset, length) for term_id, offset, length in run.table.tolist()}
        for run in runs
    ]
    for term_id in term_ids.tolist():
        plist = PostingsList()
        for run, table in zip(runs, tables):
            loc = table.get(term_id)
            if loc is None:
                continue
            offset, length = loc
            run.fh.seek(offset)
            for entry in run_codec.decode(run.fh.read(length)):
                if run_codec.positional:
                    doc_id, tf, positions = entry
                    plist.add_posting(doc_id, tf, list(positions))
                else:
                    doc_id, tf = entry
                    plist.add_posting(doc_id, tf)
        stats["peak_resident_postings"] = max(stats["peak_resident_postings"], len(plist))
        stats["postings"] += len(plist)
        yield term_id, plist


# ---------------------------------------------------------------------- #
# varbyte → varbyte: splice the encoded bytes
# ---------------------------------------------------------------------- #


def _spliced_blocks(
    runs: list[_InputRun], term_ids: np.ndarray, stats: dict[str, int]
) -> Iterator[EncodedBlock]:
    """Yield the merged lists of one chunk of ``term_ids`` after another."""
    weights = np.zeros(term_ids.size, dtype=np.int64)
    for run in runs:
        weights[np.searchsorted(term_ids, run.table[:, 0])] += run.table[:, 2]
    if not term_ids.size:
        return
    # A chunk ends with the term that takes the running total of list
    # bytes past the next multiple of the window.
    windows = np.cumsum(weights) // _WINDOW_BYTES
    firsts = np.concatenate(([0], np.flatnonzero(windows[1:] != windows[:-1]) + 1))
    # Row range of every chunk in every run's table (term ids ascend).
    rows = [
        np.append(np.searchsorted(run.table[:, 0], term_ids[firsts]), len(run.table))
        for run in runs
    ]
    for chunk in range(len(firsts)):
        pieces: list[bytes] = []
        columns: list[np.ndarray] = []
        base = 0
        for run, cuts in zip(runs, rows):
            table = run.table[cuts[chunk] : cuts[chunk + 1]]
            if not len(table):
                continue
            run.fh.seek(table[0, 1])
            piece = run.fh.read(table[-1, 1] + table[-1, 2] - table[0, 1])
            columns.append(_scan_lists(piece, table, base))
            pieces.append(piece)
            base += len(piece)
        yield _splice(b"".join(pieces), np.concatenate(columns, axis=1), stats)


def _scan_lists(piece: bytes, table: np.ndarray, base: int) -> np.ndarray:
    """Per-list columns of a window that is ``table``'s lists back to back.

    Returns rows ``(term_id, count, end of the count varint, end of the
    first gap, end of the list, first doc, last doc)``, one column a
    list; byte positions count from ``base`` at the window's first byte.
    """
    if 0 in piece:
        # A canonical varint ends on its most significant group, so no
        # byte of a well-formed payload is zero (lists are never empty).
        raise ValueError("postings list holds a zero gap or term frequency")
    data = np.frombuffer(piece, dtype=np.uint8)
    terminator = data < 0x80
    starts = table[:, 1] - table[0, 1]
    ends = starts + table[:, 2]
    if not terminator[ends - 1].all():
        raise EOFError("postings list ends inside a varint")
    values = decode_uvarints(piece)
    varint_ends = np.flatnonzero(terminator) + 1
    # Index of each list's first varint, and one past its last.
    before = np.concatenate(([0], np.cumsum(terminator)))
    first, stop = before[starts], before[ends]
    counts = values[first]
    if (stop - first != 1 + 2 * counts).any():
        raise ValueError("postings list's count disagrees with its length")
    # Gaps sit at the odd positions of a list; their sum is last doc + 1.
    if int(values.max()) * int((stop - first).max()) >= 1 << 63:
        raise ValueError("postings list's doc ids do not fit 64 bits")
    odd = (np.arange(values.size) - np.repeat(first, stop - first)) & 1
    gap_sums = np.add.reduceat(values * odd, first)
    return np.stack((
        table[:, 0],
        counts,
        varint_ends[first] + base,
        varint_ends[first + 1] + base,
        ends + base,
        values[first + 1] - 1,
        gap_sums - 1,
    ))


def _splice(data: bytes, columns: np.ndarray, stats: dict[str, int]) -> EncodedBlock:
    """Merge a chunk's partial lists, given run by run, term by term."""
    # Stable: a term's lists stay in run order = document order.
    columns = columns[:, np.argsort(columns[0], kind="stable")]
    term_ids, counts, count_ends, gap_ends, list_ends, first_docs, last_docs = columns
    lead = np.concatenate(([True], term_ids[1:] != term_ids[:-1]))
    leads = np.flatnonzero(lead)
    totals = np.add.reduceat(counts, leads)
    # What precedes each list's copied bytes: the merged count for a
    # term's first list; for the others, whose own count and first gap
    # are dropped, the gap from the previous list's last doc.
    prefixes = first_docs - np.concatenate(([0], last_docs[:-1]))
    if (prefixes[~lead] < 1).any():
        raise ValueError("run files overlap in document order; input corrupt")
    prefixes[leads] = totals
    body_starts = np.where(lead, count_ends, gap_ends)
    lengths = np.add.reduceat(
        np.searchsorted(UVARINT_LIMITS, prefixes, side="right") + 1 + list_ends - body_starts,
        leads,
    )
    out = bytearray()
    for prefix, start, end in zip(
        prefixes.tolist(), body_starts.tolist(), list_ends.tolist()
    ):
        if prefix < 0x80:
            out.append(prefix)
        else:
            encode_uvarint(prefix, out)
        out += data[start:end]
    stats["postings"] += int(totals.sum())
    stats["peak_resident_postings"] = max(stats["peak_resident_postings"], int(totals.max()))
    return (
        term_ids[leads].tolist(),
        lengths.tolist(),
        bytes(out),
        int(first_docs.min()),
        int(last_docs.max()),
    )
