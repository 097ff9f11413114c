"""Per-layer timing taken from outside the program.

Two instruments, both living in the benchmark's own files:

* :class:`Recorder` installs timing wrappers *by attribute* on the coarse
  public entry points of each layer (a few hundred calls per build).  Each
  call becomes a span ``[name, start, end, parent]``; a span's self time
  is its duration minus its direct children, so the layers add up to the
  wall clock (``engine.coverage``).
* The ``drive_*`` functions replay inputs captured by those wrappers
  through functions that are called once per token and are too hot to
  wrap (a wrapper would cost more than the call).

A wrap target that no longer exists is recorded as a warning and turns
the metrics that depend on it into ``None``; it never raises, so a
refactor of the program cannot break the end-to-end gate.
"""

from __future__ import annotations

import gc
import importlib
import multiprocessing
import os
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator

from repro.util.timing import now

__all__ = ["Recorder", "Captured", "install_build_wraps", "build_layer_metrics",
           "read_layer_metrics", "drive_layers", "drive_codec"]

OnReturn = Callable[[tuple, dict, Any], None]


class Recorder:
    """In-memory span store plus the wrappers that feed it."""

    def __init__(self) -> None:
        #: ``[name, start, end, parent index or -1]`` in start order.
        self.spans: list[list[Any]] = []
        self.warnings: list[str] = []
        #: Span names with at least one wrap target that could not be found.
        self.unwrapped: set[str] = set()
        self._stack: list[int] = []
        self._undo: list[tuple[Any, str, Any]] = []
        # Forked workers inherit the wrappers; only the process that
        # installed them records (worker-side spans could never be read).
        self._pid = os.getpid()

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        index = len(self.spans)
        record = [name, now(), 0.0, self._stack[-1] if self._stack else -1]
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield
        finally:
            record[2] = now()
            self._stack.pop()

    # -- wrapping --------------------------------------------------------- #

    def wrap(self, target: str, name: str, on_return: OnReturn | None = None) -> None:
        """Time calls to ``"package.module:attr[.attr]"`` as spans ``name``.

        The *binding* named by ``target`` is replaced, so a function that a
        module imported with ``from x import f`` is wrapped at the importing
        module (``"repro.core.engine:save_checkpoint"``).
        """
        module_name, _, path = target.partition(":")
        *parents, leaf = path.split(".")
        try:
            owner: Any = importlib.import_module(module_name)
            for part in parents:
                owner = getattr(owner, part)
            raw = vars(owner)[leaf]
        except (ImportError, AttributeError, KeyError) as exc:
            self.warnings.append(f"cannot wrap {target} ({type(exc).__name__}: {exc}); "
                                 f"metrics from span {name!r} are null")
            self.unwrapped.add(name)
            return
        is_classmethod = isinstance(raw, classmethod)
        inner = raw.__func__ if is_classmethod else raw

        def timed(*args: Any, **kwargs: Any) -> Any:
            if os.getpid() != self._pid:
                return inner(*args, **kwargs)
            with self.span(name):
                result = inner(*args, **kwargs)
            if on_return is not None:
                on_return(args, kwargs, result)
            return result

        timed.__wrapped__ = inner  # type: ignore[attr-defined]
        setattr(owner, leaf, classmethod(timed) if is_classmethod else timed)
        self._undo.append((owner, leaf, raw))

    def restore(self) -> None:
        while self._undo:
            owner, leaf, raw = self._undo.pop()
            setattr(owner, leaf, raw)

    # -- analysis ----------------------------------------------------------- #

    def _duration(self, span: list[Any]) -> float:
        return span[2] - span[1]

    def busy(self, *names: str) -> float | None:
        """Seconds covered by spans in ``names`` (nested ones counted once)."""
        if self.unwrapped.intersection(names):
            return None
        total = 0.0
        for span in self.spans:
            if span[0] not in names:
                continue
            parent = span[3]
            while parent >= 0 and self.spans[parent][0] not in names:
                parent = self.spans[parent][3]
            if parent < 0:
                total += self._duration(span)
        return total

    def self_time(self, *names: str) -> float | None:
        """Seconds spent in spans ``names`` outside any child span."""
        if self.unwrapped.intersection(names):
            return None
        child_total = [0.0] * len(self.spans)
        for span in self.spans:
            if span[3] >= 0:
                child_total[span[3]] += self._duration(span)
        return sum(
            self._duration(span) - child_total[i]
            for i, span in enumerate(self.spans)
            if span[0] in names
        )

    def count(self, name: str) -> int | None:
        if name in self.unwrapped:
            return None
        return sum(1 for span in self.spans if span[0] == name)

    def export(self) -> list[list[Any]]:
        """Spans with times relative to the first span's start."""
        if not self.spans:
            return []
        epoch = self.spans[0][1]
        return [[s[0], s[1] - epoch, s[2] - epoch, s[3]] for s in self.spans]


# ---------------------------------------------------------------------- #
# Build wrappers
# ---------------------------------------------------------------------- #


@dataclass
class Captured:
    """What the build wrappers saw go by (inputs for the drives, counts)."""

    texts: list[str] = field(default_factory=list)
    read_bytes: int = 0
    #: ``ParsedFile`` objects the engine received (parsed in-process, or
    #: decoded from a parser worker's frame).
    parsed: list[Any] = field(default_factory=list)
    #: Uncompressed bytes parsed *in this process* (0 under multiprocess).
    parser_bytes: int = 0
    regroup_tokens: int = 0
    cpu_tokens: int = 0
    gpu_tokens: int = 0
    run_lists: list[dict[int, Any]] = field(default_factory=list)
    checkpoint_bytes: int = 0


def install_build_wraps(rec: Recorder, cap: Captured) -> None:
    """Wrap every layer boundary a build crosses on the engine side."""

    def on_read(_a: tuple, _k: dict, loaded: Any) -> None:
        cap.read_bytes += loaded.uncompressed_bytes

    def on_parser_read(_a: tuple, _k: dict, loaded: Any) -> None:
        cap.read_bytes += loaded.uncompressed_bytes
        cap.texts.extend(loaded.texts)

    def on_parsed(_a: tuple, _k: dict, parsed: Any) -> None:
        cap.parsed.append(parsed)
        cap.parser_bytes += parsed.metrics.uncompressed_bytes

    def on_decoded(_a: tuple, _k: dict, parsed: Any) -> None:
        cap.parsed.append(parsed)

    def on_regroup(_a: tuple, _k: dict, result: Any) -> None:
        cap.regroup_tokens += sum(result[1].values())

    def on_cpu(_a: tuple, _k: dict, report: Any) -> None:
        cap.cpu_tokens += report.tokens

    def on_gpu(_a: tuple, _k: dict, batch_report: Any) -> None:
        cap.gpu_tokens += batch_report.report.tokens

    def on_write_run(args: tuple, kwargs: dict, _run_file: Any) -> None:
        cap.run_lists.append(kwargs["lists"] if "lists" in kwargs else args[2])

    def on_checkpoint(_a: tuple, _k: dict, path: str) -> None:
        cap.checkpoint_bytes += os.path.getsize(path)

    rec.wrap("repro.core.engine:IndexingEngine.build", "engine")
    # Sampling resolves the loader through repro.parsing.docio at call
    # time; parse_file uses the name its module imported.
    rec.wrap("repro.parsing.docio:load_collection_file", "corpus.read", on_read)
    rec.wrap("repro.parsing.parser:load_collection_file", "corpus.read", on_parser_read)
    rec.wrap("repro.parsing.parser:Parser.parse_file", "parser", on_parsed)
    rec.wrap("repro.parsing.parser:Parser.parse_texts", "parser")
    rec.wrap("repro.parsing.parser:regroup", "regroup", on_regroup)
    rec.wrap("repro.core.engine:sample_collection", "assignment")
    rec.wrap("repro.core.engine:build_assignment", "assignment")
    rec.wrap("repro.indexers.cpu:CPUIndexer.index_batch", "indexer_cpu", on_cpu)
    rec.wrap("repro.indexers.gpu:GPUIndexer.index_batch", "indexer_gpu", on_gpu)
    rec.wrap("repro.postings.output:RunWriter.write_run", "run_write", on_write_run)
    rec.wrap("repro.core.engine:save_checkpoint", "checkpoint", on_checkpoint)
    rec.wrap("repro.core.engine:crc32_of_file", "manifest")
    rec.wrap("repro.robustness.checkpoint:BuildManifest.append_run", "manifest")
    rec.wrap("repro.dictionary.dictionary:Dictionary.combine", "dict_write")
    rec.wrap("repro.core.engine:save_dictionary", "dict_write")
    rec.wrap("repro.postings.output:DocRangeMap.save", "dict_write")
    rec.wrap("repro.postings.doctable:DocTable.save", "dict_write")
    rec.wrap("repro.core.engine:simulate_full_build", "simulate")
    # Engine side of the multiprocess backend: time blocked on (or copying
    # through) a ring, the stream codec, and the run-boundary drain.
    rec.wrap("repro.core.shm_ring:ShmRing.get_frame", "mp.ring")
    rec.wrap("repro.core.shm_ring:ShmRing.put_frame", "mp.ring")
    rec.wrap("repro.core.mp_backend:encode_batch", "mp.encode")
    rec.wrap("repro.core.mp_backend:decode_parsed_file", "mp.decode", on_decoded)
    rec.wrap("repro.core.mp_backend:decode_batch", "mp.decode")
    rec.wrap("repro.core.mp_backend:MultiprocessBackend.drain_run_postings", "mp.drain")


def _rate(amount: float, seconds: float | None) -> float | None:
    """``amount`` per second; 0 when the layer did no work, None if unwrapped."""
    if seconds is None:
        return None
    return amount / seconds if seconds > 0 else 0.0


def build_layer_metrics(rec: Recorder, cap: Captured, result: dict[str, Any]) -> dict[str, Any]:
    """Per-layer metrics of one traced build (``result`` from ``run_build``)."""
    wall = rec.busy("engine")
    engine_self = rec.self_time("engine")
    run_postings = sum(len(p) for lists in cap.run_lists for p in lists.values())
    supervisor = result.get("supervisor") or {}
    return {
        "engine.wall_s": wall,
        "engine.self_s": engine_self,
        "engine.coverage": None if not wall or engine_self is None else 1.0 - engine_self / wall,
        "corpus.read.busy_s": rec.busy("corpus.read"),
        "corpus.read.mb_s": _rate(cap.read_bytes / 1e6, rec.busy("corpus.read")),
        "parser.busy_s": rec.busy("parser"),
        "parser.self_s": rec.self_time("parser"),
        "parser.mb_s": _rate(cap.parser_bytes / 1e6, rec.busy("parser")),
        "regroup.busy_s": rec.busy("regroup"),
        "regroup.tokens_s": _rate(cap.regroup_tokens, rec.busy("regroup")),
        "assignment.sample_s": rec.busy("assignment"),
        "indexer_cpu.busy_s": rec.busy("indexer_cpu"),
        "indexer_cpu.tokens_s": _rate(cap.cpu_tokens, rec.busy("indexer_cpu")),
        "indexer_gpu.busy_s": rec.busy("indexer_gpu"),
        "indexer_gpu.tokens_s": _rate(cap.gpu_tokens, rec.busy("indexer_gpu")),
        "run_write.busy_s": rec.busy("run_write"),
        "run_write.postings_s": _rate(run_postings, rec.busy("run_write")),
        "run_write.count": rec.count("run_write"),
        "checkpoint.busy_s": rec.busy("checkpoint"),
        "checkpoint.bytes": None if "checkpoint" in rec.unwrapped else cap.checkpoint_bytes,
        "checkpoint.count": rec.count("checkpoint"),
        "manifest.busy_s": rec.busy("manifest"),
        "dict_write.busy_s": rec.busy("dict_write"),
        "dict_write.terms_s": _rate(result["terms"], rec.busy("dict_write")),
        "simulate.busy_s": rec.busy("simulate"),
        "mp.ring_wait_s": rec.busy("mp.ring"),
        "mp.encode_s": rec.busy("mp.encode"),
        "mp.decode_s": rec.busy("mp.decode"),
        "mp.drain_s": rec.busy("mp.drain"),
        "mp.restarts": supervisor.get("restarts", 0),
        "mp.heartbeat_misses": supervisor.get("heartbeat_misses", 0),
    }


def read_layer_metrics(rec: Recorder, result: dict[str, Any],
                       query_seconds: list[float]) -> dict[str, Any]:
    """Per-layer metrics of one traced ``run_merge_read``."""
    wall = rec.busy("engine")
    engine_self = rec.self_time("engine")
    ordered = sorted(query_seconds)

    def percentile_ms(q: float) -> float:
        return 1e3 * ordered[min(len(ordered) - 1, int(q * len(ordered)))]

    merges = rec.count("merge") or 1
    return {
        "engine.wall_s": wall,
        "engine.self_s": engine_self,
        "engine.coverage": 1.0 - engine_self / wall if wall else None,
        "merge.busy_s": rec.busy("merge"),
        "merge.postings_s": _rate(result["merged_postings"] * merges, rec.busy("merge")),
        "reader.open_s": rec.busy("reader.open"),
        "reader.postings_s": _rate(result["decoded_postings"], rec.busy("reader.scan")),
        "search.queries_s": _rate(len(ordered), sum(ordered)),
        "search.query_ms_p50": percentile_ms(0.50),
        "search.query_ms_p99": percentile_ms(0.99),
    }


# ---------------------------------------------------------------------- #
# Isolated drives of per-token functions
# ---------------------------------------------------------------------- #


def _timed(fn: Callable[[], Any]) -> tuple[float, Any]:
    t0 = now()
    value = fn()
    return now() - t0, value


def drive_codec(postings_lists: list[list[tuple[int, int]]], codec_name: str) -> dict[str, Any]:
    """Encode then decode every list once through the named codec."""
    from repro.postings.compression import get_codec

    codec = get_codec(codec_name)
    postings = sum(len(p) for p in postings_lists)
    encode_s, encoded = _timed(lambda: [codec.encode(p) for p in postings_lists])
    decode_s, decoded = _timed(lambda: [codec.decode(e) for e in encoded])
    if decoded != [list(p) for p in postings_lists]:
        raise AssertionError(f"{codec_name} does not round-trip the captured lists")
    return {
        "codec.encode_postings_s": _rate(postings, encode_s),
        "codec.decode_postings_s": _rate(postings, decode_s),
        "codec.bytes_per_posting": sum(map(len, encoded)) / postings if postings else 0.0,
    }


def _echo_frames(task_spec: Any, result_spec: Any, frames: int) -> None:
    """Helper process of the ring drive: send every frame straight back."""
    from repro.core.shm_ring import ShmRing

    tasks, results = ShmRing.attach(task_spec), ShmRing.attach(result_spec)
    try:
        for _ in range(frames):
            frame = tasks.get_frame(timeout=60.0)
            if frame is None:
                return
            results.put_frame(frame, timeout=60.0)
    finally:
        tasks.close()
        results.close()


def _drive_ring(frame_sizes: list[int], cpus: list[int]) -> dict[str, Any]:
    """Round-trip frames of the captured sizes through two rings.

    Producer and consumer need a core each, as in a multiprocess build, so
    this drive runs on all of ``cpus`` even when the traced build was pinned.
    """
    from repro.core.shm_ring import ShmRing
    from repro.robustness.supervise import SupervisorPolicy

    os.sched_setaffinity(0, cpus)
    capacity = SupervisorPolicy().ring_capacity_bytes
    tasks = ShmRing.create("perf-t", capacity)
    results = ShmRing.create("perf-r", capacity)
    helper = multiprocessing.get_context("spawn").Process(
        target=_echo_frames, args=(tasks.spec(), results.spec(), len(frame_sizes))
    )
    payloads = [bytes(size) for size in frame_sizes]
    helper.start()
    try:
        # One warm-up round trip so helper start-up is not timed.
        tasks.put_frame(b"", timeout=60.0)
        if results.get_frame(timeout=60.0) is None:
            raise RuntimeError("ring drive helper did not answer")
        t0 = now()
        for payload in payloads[1:]:
            tasks.put_frame(payload, timeout=60.0)
            if results.get_frame(timeout=60.0) is None:
                raise RuntimeError("ring drive helper stopped answering")
        seconds = now() - t0
        helper.join(timeout=10.0)
    finally:
        if helper.is_alive():
            helper.kill()
            helper.join(timeout=10.0)
        tasks.unlink()
        results.unlink()
    moved = 2 * sum(frame_sizes[1:])
    return {
        "shm_ring.roundtrip_mb_s": _rate(moved / 1e6, seconds),
        "shm_ring.frames_s": _rate(len(payloads) - 1, seconds),
    }


def drive_layers(cap: Captured, config: dict[str, Any], cpus: list[int]) -> dict[str, Any]:
    """Replay the captured inputs through the per-token layers, in isolation.

    Every drive starts from a cold object (fresh stemmer cache, empty
    dictionary shard, empty accumulator), as the first file of a build does.
    The captured inputs are frozen out of the garbage collector first: a
    drive should pay for collecting what *it* allocates, not for rescanning
    the whole captured corpus on every full collection.
    """
    gc.collect()
    gc.freeze()
    try:
        return _drive_layers(cap, config, cpus)
    finally:
        gc.unfreeze()


def _drive_layers(cap: Captured, config: dict[str, Any], cpus: list[int]) -> dict[str, Any]:
    from repro.dictionary.dictionary import DictionaryShard
    from repro.dictionary.trie import TrieTable
    from repro.parsing import stream_codec
    from repro.parsing.porter import PorterStemmer
    from repro.parsing.tokenizer import Tokenizer
    from repro.postings.lists import PostingsAccumulator

    metrics: dict[str, Any] = {}

    if cap.texts:  # multiprocess builds parse in workers: no texts engine-side
        tokenizer = Tokenizer(strip_html=config["strip_html"])
        seconds, per_doc = _timed(lambda: [list(tokenizer.tokens(t)) for t in cap.texts])
        tokens = [token for doc in per_doc for token in doc]
        metrics["tokenizer.busy_s"] = seconds
        metrics["tokenizer.tokens_s"] = _rate(len(tokens), seconds)

        stemmer = PorterStemmer()
        stem = stemmer.stem

        def stem_all() -> None:
            for token in tokens:
                stem(token)

        seconds, _ = _timed(stem_all)
        metrics["porter.busy_s"] = seconds
        metrics["porter.stems_s"] = _rate(len(tokens), seconds)
        metrics["porter.hit_ratio"] = 1.0 - stemmer.misses / len(tokens) if tokens else 0.0

    # The (collection, suffix) stream in the order an indexer consumes it,
    # with the global document id each occurrence lands on.
    stream: list[tuple[int, bytes, int]] = []
    doc_offset = 0
    for parsed in cap.parsed:
        for cidx, per_doc_suffixes in parsed.batch.collections.items():
            for local_doc, suffixes in per_doc_suffixes:
                doc = doc_offset + local_doc
                stream.extend((cidx, suffix, doc) for suffix in suffixes)
        doc_offset += parsed.batch.num_docs

    if stream:
        shard = DictionaryShard(TrieTable(height=3))
        insert = shard.insert_suffix

        def insert_all() -> None:
            for cidx, suffix, _doc in stream:
                insert(cidx, suffix)

        seconds, _ = _timed(insert_all)
        metrics["dictionary.insert.busy_s"] = seconds
        metrics["dictionary.inserts_s"] = _rate(len(stream), seconds)
        metrics["dictionary.new_term_ratio"] = shard.term_count() / len(stream)

        # Second (untimed) pass resolves term ids; every term now exists.
        occurrences = [(insert(cidx, suffix)[0], doc) for cidx, suffix, doc in stream]
        accumulator = PostingsAccumulator()
        add = accumulator.add_occurrence

        def append_all() -> None:
            for term_id, doc in occurrences:
                add(term_id, doc)

        seconds, _ = _timed(append_all)
        metrics["postings.append.busy_s"] = seconds
        metrics["postings.appends_s"] = _rate(len(occurrences), seconds)

    if cap.parsed:
        tokens = sum(p.batch.total_tokens for p in cap.parsed)
        encode_s, files = _timed(
            lambda: [stream_codec.encode_parsed_file(p) for p in cap.parsed])
        batch_encode_s, batches = _timed(
            lambda: [stream_codec.encode_batch(p.batch) for p in cap.parsed])
        decode_s, _ = _timed(lambda: [stream_codec.decode_parsed_file(f) for f in files])
        batch_decode_s, _ = _timed(lambda: [stream_codec.decode_batch(b) for b in batches])
        moved = sum(map(len, files)) + sum(map(len, batches))
        metrics["stream_codec.encode_mb_s"] = _rate(moved / 1e6, encode_s + batch_encode_s)
        metrics["stream_codec.decode_mb_s"] = _rate(moved / 1e6, decode_s + batch_decode_s)
        metrics["stream_codec.bytes_per_token"] = sum(map(len, files)) / tokens if tokens else 0.0

    lists = [plist.postings() for run in cap.run_lists for plist in run.values()]
    if lists:
        metrics.update(drive_codec(lists, config["codec"]))
    if cap.parsed:
        # Last, because it leaves the pinned core.  The frames a
        # multiprocess build moves are the encoded files (one extra
        # leading frame warms the helper up).
        metrics.update(_drive_ring([0] + [len(f) for f in files], cpus))
    return metrics

