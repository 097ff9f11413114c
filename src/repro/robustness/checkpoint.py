"""Run-level checkpointing: the build manifest and the resume journal.

A run file is only useful after a crash if three things survived
together: the run's bytes, the metadata locating it, and the in-memory
indexing state needed to continue *exactly* where the run ended.  Two
artifacts provide that, both appended to at every run boundary (Fig 8's
natural barrier — all accumulators are drained, so the only live state is
the dictionary forest, the doc table, and a handful of counters):

- ``build.manifest`` — append-only JSON lines, human-readable provenance:
  a header (collection + config fingerprint) followed by one record per
  completed run carrying the file list it covered, the document-ID range,
  and the run file's CRC32.  Appends are flushed and fsynced, so the
  manifest never claims a run the disk does not hold.
- ``checkpoint.bin`` — an append-only journal, one fsynced record per run
  boundary.  The paper keeps the dictionary resident across runs so that
  a boundary costs only the run's own output; the journal keeps that
  property: a record holds what the run *added*, never the forest so far.

Record layout (little-endian)::

    u32 length | u32 crc32(payload) | payload
    payload = u32 N | N x (u32 log length | shard mutation log) | state pickle

The N mutation logs (one per indexer, CPU slots then GPU slots) are the
``(collection, suffix)`` of every insert that changed that indexer's
dictionary shard since the previous boundary, in order — see
:class:`~repro.dictionary.dictionary.DictionaryShard`.  The state pickle
is everything else the engine hands over (counters, assignment, per-file
work, doc table, robustness report) plus the indexer objects with their
shards' trees left out.

Resume replays every record's logs, in order, into empty shards.  B-tree
insertion is deterministic and an insert that is not in the log left its
tree untouched, so the replayed forest is node-for-node the crashed
build's and allocates the same term ids — which is why a resumed build's
output is byte-identical.  Every prefix of the journal is a complete
checkpoint of an earlier boundary.

Write order per run: run file → manifest append → journal append + fsync.
A crash between the last two leaves an extra manifest record; resume
truncates the manifest back to the journal's run count and re-indexes
that run deterministically.  A crash *during* the journal append leaves a
torn last record — short, or failing its CRC, and reaching the end of the
file; :func:`load_checkpoint` drops it (from the file too, so the next
append starts on a record boundary) and resume continues from the
boundary before, the same path as the orphan manifest record.  A bad
record with more bytes after it is not a torn append but damage:
:class:`~repro.robustness.errors.ChecksumError`.  ``checkpoint.bin`` is
deleted when a build completes — it is crash-recovery state, not part of
the index.
"""

from __future__ import annotations

import json
import os
import pickle
import struct
import zlib
from dataclasses import asdict, dataclass, field
from typing import Any, Sequence

from repro.obs import runtime as obs
from repro.robustness.errors import ChecksumError

__all__ = [
    "MANIFEST_FILENAME",
    "CHECKPOINT_FILENAME",
    "RunRecord",
    "BuildManifest",
    "save_checkpoint",
    "load_checkpoint",
    "clear_checkpoint",
    "crc32_of_file",
    "verify_run_record",
]

MANIFEST_FILENAME = "build.manifest"
CHECKPOINT_FILENAME = "checkpoint.bin"
_MANIFEST_VERSION = 1


def crc32_of_file(path: str) -> int:
    """CRC32 of a file's full contents (streamed)."""
    crc = 0
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            crc = zlib.crc32(chunk, crc)
    return crc & 0xFFFFFFFF


@dataclass(frozen=True)
class RunRecord:
    """One completed run, as recorded durably in the manifest."""

    run_id: int
    path: str  # relative to the index directory
    crc32: int
    min_doc: int | None
    max_doc: int | None
    entry_count: int
    byte_size: int
    first_doc: int  # doc-ID offset at the start of the run
    docs: int       # documents consumed by the run
    postings: int   # postings written by the run
    file_indices: tuple[int, ...] = field(default_factory=tuple)
    files: tuple[str, ...] = field(default_factory=tuple)  # basenames

    def to_json(self) -> str:
        payload = asdict(self)
        payload["type"] = "run"
        payload["file_indices"] = list(self.file_indices)
        payload["files"] = list(self.files)
        return json.dumps(payload, sort_keys=True)

    @classmethod
    def from_json(cls, obj: dict) -> "RunRecord":
        return cls(
            run_id=obj["run_id"],
            path=obj["path"],
            crc32=obj["crc32"],
            min_doc=obj["min_doc"],
            max_doc=obj["max_doc"],
            entry_count=obj["entry_count"],
            byte_size=obj["byte_size"],
            first_doc=obj["first_doc"],
            docs=obj["docs"],
            postings=obj["postings"],
            file_indices=tuple(obj.get("file_indices", ())),
            files=tuple(obj.get("files", ())),
        )


def verify_run_record(output_dir: str, record: RunRecord) -> None:
    """Check that a recorded run is still durable on disk."""
    path = os.path.join(output_dir, record.path)
    if not os.path.exists(path):
        raise FileNotFoundError(f"manifest records run {record.run_id} at {path}, "
                                "but the file is gone")
    actual = crc32_of_file(path)
    if actual != record.crc32:
        raise ChecksumError(path, record.crc32, actual)


class BuildManifest:
    """The append-only run ledger of one index directory."""

    def __init__(self, output_dir: str) -> None:
        self.output_dir = output_dir
        self.path = os.path.join(output_dir, MANIFEST_FILENAME)

    def exists(self) -> bool:
        return os.path.exists(self.path)

    # ------------------------------------------------------------------ #
    # Writing
    # ------------------------------------------------------------------ #

    def start(self, fingerprint: int, collection_name: str, num_files: int) -> None:
        """Begin a fresh manifest (truncates any previous build's)."""
        header = json.dumps(
            {
                "type": "header",
                "version": _MANIFEST_VERSION,
                "fingerprint": fingerprint,
                "collection": collection_name,
                "num_files": num_files,
            },
            sort_keys=True,
        )
        self._write_lines([header])

    def append_run(self, record: RunRecord) -> None:
        """Durably append one completed run."""
        with open(self.path, "a", encoding="ascii") as fh:
            fh.write(record.to_json() + "\n")
            fh.flush()
            os.fsync(fh.fileno())

    def truncate_runs(self, keep: int) -> list[RunRecord]:
        """Drop run records beyond the first ``keep`` (crash cleanup).

        Returns the records kept.
        """
        header, runs = self.load()
        kept = runs[:keep]
        lines = [json.dumps({**header, "type": "header"}, sort_keys=True)]
        lines.extend(r.to_json() for r in kept)
        self._write_lines(lines)
        return kept

    def _write_lines(self, lines: list[str]) -> None:
        tmp = self.path + ".tmp"
        with open(tmp, "w", encoding="ascii") as fh:
            fh.write("\n".join(lines) + "\n")
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, self.path)

    # ------------------------------------------------------------------ #
    # Reading
    # ------------------------------------------------------------------ #

    def load(self) -> tuple[dict, list[RunRecord]]:
        """Parse the manifest into ``(header, run records)``."""
        with open(self.path, "r", encoding="ascii") as fh:
            lines = [ln for ln in (l.strip() for l in fh) if ln]
        if not lines:
            raise ValueError(f"{self.path} is empty")
        header = json.loads(lines[0])
        if header.get("type") != "header":
            raise ValueError(f"{self.path} does not start with a header record")
        runs = []
        for ln in lines[1:]:
            obj = json.loads(ln)
            if obj.get("type") != "run":
                raise ValueError(f"{self.path}: unexpected record type {obj.get('type')!r}")
            runs.append(RunRecord.from_json(obj))
        runs.sort(key=lambda r: r.run_id)
        return header, runs


# ---------------------------------------------------------------------- #
# The resume journal
# ---------------------------------------------------------------------- #

_FRAME = struct.Struct("<II")  # payload length, crc32(payload)
_U32 = struct.Struct("<I")


def save_checkpoint(output_dir: str, state: dict, indexers: Sequence[Any]) -> str:
    """Append one run boundary's record to the journal; returns its path.

    Takes (and thereby empties) each indexer's shard mutation log, so the
    record carries exactly the dictionary growth since the previous call.
    ``state`` is pickled as is; the indexers are pickled beside it with
    their forests left out.
    """
    parts = [_U32.pack(len(indexers))]
    stubs = []
    for indexer in indexers:
        log = indexer.shard.take_mutation_log()
        parts += (_U32.pack(len(log)), log)
        stubs.append(indexer.without_forest())
    parts.append(pickle.dumps((state, stubs), protocol=pickle.HIGHEST_PROTOCOL))
    payload = b"".join(parts)
    header = _FRAME.pack(len(payload), zlib.crc32(payload))
    path = os.path.join(output_dir, CHECKPOINT_FILENAME)
    with open(path, "ab") as fh:
        fh.write(header)
        fh.write(payload)
        fh.flush()
        os.fsync(fh.fileno())
    obs.count("robustness.checkpoint_saves")
    obs.observe("checkpoint.bytes", len(header) + len(payload))
    return path


def _read_records(path: str) -> tuple[list[bytes], int]:
    """The journal's intact record payloads and the offset they end at.

    Stops at a torn tail (a bad record reaching the end of the file);
    raises :class:`ChecksumError` for a bad record followed by more bytes.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    payloads = []
    pos = 0
    while pos < len(data):
        body = pos + _FRAME.size
        if body > len(data):
            break
        length, stored = _FRAME.unpack_from(data, pos)
        end = body + length
        if end > len(data):
            break
        payload = data[body:end]
        actual = zlib.crc32(payload)
        if actual != stored:
            if end == len(data):
                break
            raise ChecksumError(path, stored, actual)
        payloads.append(payload)
        pos = end
    return payloads, pos


def _split_record(payload: bytes) -> tuple[list[bytes], memoryview]:
    """One record's per-indexer mutation logs and its state pickle."""
    (count,) = _U32.unpack_from(payload, 0)
    pos = _U32.size
    logs = []
    for _ in range(count):
        (length,) = _U32.unpack_from(payload, pos)
        pos += _U32.size
        logs.append(payload[pos : pos + length])
        pos += length
    return logs, memoryview(payload)[pos:]


def load_checkpoint(output_dir: str) -> dict | None:
    """The state at the last durable run boundary, or ``None``.

    Returns the ``state`` dict of the last intact record plus
    ``"indexers"``: the recorded indexer objects with their dictionary
    shards rebuilt by replaying every record's mutation logs.  A torn
    last record is cut off the file and counted
    (``robustness.checkpoint_torn_tails``); a journal left with no intact
    record is no checkpoint.
    """
    path = os.path.join(output_dir, CHECKPOINT_FILENAME)
    if not os.path.exists(path):
        return None
    payloads, valid_end = _read_records(path)
    if valid_end < os.path.getsize(path):
        obs.count("robustness.checkpoint_torn_tails")
        with open(path, "r+b") as fh:
            fh.truncate(valid_end)
            fh.flush()
            os.fsync(fh.fileno())
    if not payloads:
        return None
    records = [_split_record(payload) for payload in payloads]
    # Only the last record's pickle is needed: each is the full small state.
    state, indexers = pickle.loads(records[-1][1])
    # Transpose to one list of logs per indexer, oldest record first.
    logs = zip(*(record_logs for record_logs, _ in records))
    for indexer, shard_logs in zip(indexers, logs, strict=True):
        indexer.shard.rebuild(shard_logs)
    obs.count("robustness.checkpoint_loads")
    return {**state, "indexers": indexers}


def clear_checkpoint(output_dir: str) -> None:
    """Remove the crash-recovery journal (build finished, or starting over)."""
    path = os.path.join(output_dir, CHECKPOINT_FILENAME)
    if os.path.exists(path):
        os.remove(path)
