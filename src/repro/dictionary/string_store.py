"""Term-string heap with the Fig 6 layout.

Term strings do not fit in fixed-size B-tree nodes, so nodes hold integer
*pointers* into this heap.  Following Fig 6 of the paper, each string is
stored as::

    [ length (1 byte) | payload bytes ... ]

with the length in the first byte, which bounds terms to 255 bytes ("without
loss of generality, we also assume that no term is longer than 255 bytes").

Pointers are byte offsets, which keeps the functional model identical to the
device-memory representation the CUDA kernels use.  One store serves every
tree of a dictionary shard (:class:`~repro.dictionary.btree.Forest`), and
the dictionary writer reads it as one column of bytes.
"""

from __future__ import annotations

import numpy as np

from repro.dictionary.layout import MAX_TERM_BYTES

__all__ = ["StringStore", "MAX_TERM_BYTES"]


class StringStore:
    """Append-only heap of length-prefixed byte strings."""

    __slots__ = ("_heap", "_count")

    def __init__(self) -> None:
        self._heap = bytearray()
        self._count = 0

    def add(self, payload: bytes) -> int:
        """Store ``payload`` and return its pointer (byte offset).

        Raises :class:`ValueError` for strings longer than 255 bytes, the
        paper's representational limit.
        """
        if len(payload) > MAX_TERM_BYTES:
            raise ValueError(
                f"term of {len(payload)} bytes exceeds the {MAX_TERM_BYTES}-byte "
                "limit imposed by the one-byte length prefix (Fig 6)"
            )
        ptr = len(self._heap)
        self._heap.append(len(payload))
        self._heap.extend(payload)
        self._count += 1
        return ptr

    def extend_packed(self, packed: bytes, count: int) -> None:
        """Append ``count`` strings already laid out as Fig 6 records
        (length byte, then payload), back to back: :meth:`add` each."""
        self._heap += packed
        self._count += count

    def padded(self, ptrs: np.ndarray) -> np.ndarray:
        """The payloads at ``ptrs``, a row each of a ``uint8`` matrix as
        wide as the longest, zero-padded.

        Gathers only those bytes (clipped at the heap's end, zeroed past
        each length) into a new array: no view of the heap outlives the
        call, so the heap can still grow.
        """
        heap = np.frombuffer(self._heap, dtype=np.uint8)
        lengths = heap[ptrs]
        cols = np.arange(int(lengths.max()) if len(lengths) else 0)
        rows = heap[np.minimum(np.asarray(ptrs)[:, None] + 1 + cols, len(heap) - 1)]
        rows[cols >= lengths[:, None]] = 0
        return rows

    def get(self, ptr: int) -> bytes:
        """Fetch the payload bytes at ``ptr``."""
        length = self._heap[ptr]
        return bytes(self._heap[ptr + 1 : ptr + 1 + length])

    def raw_bytes(self) -> bytes:
        """The heap exactly as it would sit in device memory (Fig 6)."""
        return bytes(self._heap)

    @property
    def byte_size(self) -> int:
        """Total heap bytes (length prefixes included)."""
        return len(self._heap)

    def __len__(self) -> int:
        """Number of strings stored."""
        return self._count
