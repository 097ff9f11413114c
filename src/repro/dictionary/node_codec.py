"""Binary node packing: the literal 512-byte layout of Table II.

The CUDA indexer does not see Python objects — it sees 512-byte nodes in
device memory, loaded into shared memory with one coalesced stream, plus
the Fig 6 length-prefixed string heap.  This module produces exactly that
representation:

- :func:`pack_node` / :func:`unpack_node` serialize one
  :class:`~repro.dictionary.btree.BTreeNode` to/from the Table II field
  order (valid count, 31 string pointers, leaf flag, 31 postings
  pointers, 32 child pointers, 31 four-byte caches, padding), every field
  a little-endian ``u32``;
- :class:`DeviceTreeImage` packs a whole B-tree into a contiguous node
  array + string heap (the "device memory" image) and can **search using
  only the bytes** — caches first, full heap strings on 4-byte ties,
  child pointers to descend — via the same Fig 7 warp comparison the GPU
  indexer models.  Tests assert byte-search ≡ object-search, proving the
  512-byte layout is complete.

Pointer-width note: device pointers are 4 bytes, so packing requires
string offsets, postings pointers and node ids below 2³² — true for any
single tree this reproduction builds (shard-prefixed *global* term ids do
not fit and are remapped by the engine's per-run mapping tables, exactly
the indirection the paper's output format provides).
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from itertools import accumulate

from repro.dictionary.btree import BTree, BTreeNode
from repro.dictionary.layout import DEFAULT_DEGREE, node_layout
from repro.gpusim.memory import SharedMemory
from repro.gpusim.reduction import warp_find_slot

__all__ = ["pack_node", "unpack_node", "DeviceTreeImage", "NULL_POINTER"]

#: Device null (no child / unused slot).
NULL_POINTER = 0xFFFFFFFF

_U32 = struct.Struct("<I")


def _offsets(degree: int) -> dict[str, int]:
    """Byte offset of each Table II field for a given degree."""
    layout = node_layout(degree)
    out = {}
    pos = 0
    for field in (
        "valid_term_number",
        "term_string_pointers",
        "leaf_indicator",
        "postings_pointers",
        "child_pointers",
        "string_caches",
    ):
        out[field] = pos
        pos += layout[field]
    out["padding"] = pos
    out["total"] = layout["total"]
    return out


def _check_u32(value: int, what: str) -> int:
    if not 0 <= value < NULL_POINTER:
        raise ValueError(f"{what} {value} does not fit a 4-byte device pointer")
    return value


def pack_node(
    node: BTreeNode,
    child_ids: list[int],
    degree: int = DEFAULT_DEGREE,
) -> bytes:
    """Serialize one node to its exact on-device bytes.

    ``child_ids`` are the device node ids of ``node.children`` (empty for
    leaves); unused slots are filled with :data:`NULL_POINTER`.
    """
    max_keys = 2 * degree - 1
    if node.nkeys > max_keys:
        raise ValueError(f"node has {node.nkeys} keys; degree {degree} holds {max_keys}")
    if len(child_ids) != len(node.children):
        raise ValueError("child_ids must be parallel to node.children")
    out = bytearray(node_layout(degree)["total"])
    off = _offsets(degree)

    _U32.pack_into(out, off["valid_term_number"], node.nkeys)
    for i, ptr in enumerate(node.string_ptrs):
        _U32.pack_into(out, off["term_string_pointers"] + 4 * i, _check_u32(ptr, "string pointer"))
    for i in range(node.nkeys, max_keys):
        _U32.pack_into(out, off["term_string_pointers"] + 4 * i, NULL_POINTER)
    _U32.pack_into(out, off["leaf_indicator"], 1 if node.leaf else 0)
    for i, ptr in enumerate(node.postings_ptrs):
        _U32.pack_into(out, off["postings_pointers"] + 4 * i, _check_u32(ptr, "postings pointer"))
    for i in range(node.nkeys, max_keys):
        _U32.pack_into(out, off["postings_pointers"] + 4 * i, NULL_POINTER)
    for i in range(max_keys + 1):
        child = child_ids[i] if i < len(child_ids) else NULL_POINTER
        if child != NULL_POINTER:
            _check_u32(child, "child pointer")
        _U32.pack_into(out, off["child_pointers"] + 4 * i, child)
    for i, cache in enumerate(node.caches):
        out[off["string_caches"] + 4 * i : off["string_caches"] + 4 * i + 4] = cache
    return bytes(out)


@dataclass
class UnpackedNode:
    """A node decoded back from device bytes."""

    nkeys: int
    leaf: bool
    string_ptrs: list[int]
    postings_ptrs: list[int]
    child_ids: list[int]
    caches: list[bytes]


def unpack_node(data: bytes, degree: int = DEFAULT_DEGREE) -> UnpackedNode:
    """Inverse of :func:`pack_node`."""
    off = _offsets(degree)
    if len(data) != off["total"]:
        raise ValueError(f"expected {off['total']} node bytes, got {len(data)}")
    max_keys = 2 * degree - 1
    nkeys = _U32.unpack_from(data, off["valid_term_number"])[0]
    if nkeys > max_keys:
        raise ValueError(f"corrupt node: {nkeys} keys > {max_keys}")
    leaf = bool(_U32.unpack_from(data, off["leaf_indicator"])[0])
    string_ptrs = [
        _U32.unpack_from(data, off["term_string_pointers"] + 4 * i)[0] for i in range(nkeys)
    ]
    postings_ptrs = [
        _U32.unpack_from(data, off["postings_pointers"] + 4 * i)[0] for i in range(nkeys)
    ]
    child_ids = []
    if not leaf:
        child_ids = [
            _U32.unpack_from(data, off["child_pointers"] + 4 * i)[0] for i in range(nkeys + 1)
        ]
    caches = [
        bytes(data[off["string_caches"] + 4 * i : off["string_caches"] + 4 * i + 4])
        for i in range(nkeys)
    ]
    return UnpackedNode(nkeys, leaf, string_ptrs, postings_ptrs, child_ids, caches)


class DeviceTreeImage:
    """A whole B-tree as device memory: node array + string heap.

    Node ``i`` occupies bytes ``[i·512, (i+1)·512)`` of :attr:`nodes`;
    :attr:`heap` is the Fig 6 string heap.  :meth:`search` runs the GPU
    algorithm over these bytes alone.
    """

    def __init__(
        self,
        nodes: bytes,
        heap: bytes,
        root_id: int,
        degree: int,
        postings_map: list[int] | None = None,
    ) -> None:
        self.nodes = nodes
        self.heap = heap
        self.root_id = root_id
        self.degree = degree
        self.node_size = node_layout(degree)["total"]
        #: When ids were remapped at build time: device postings pointer →
        #: original term id (the paper's run-header mapping-table
        #: indirection: "this mapping table is indexed by the pointers to
        #: postings lists stored in the dictionary").
        self.postings_map = postings_map
        if len(nodes) % self.node_size:
            raise ValueError("node array is not a whole number of nodes")

    @classmethod
    def build(cls, tree: BTree, remap_ids: bool = False) -> "DeviceTreeImage":
        """Pack every node of ``tree`` (BFS order, root first).

        The tree's strings, in the order they entered its forest's heap,
        are the image's heap, and string pointers are offsets into it.
        ``remap_ids`` replaces the tree's term ids by dense device-local
        u32 slots (recorded in :attr:`postings_map`).  The engine's shard
        ids occupy 40+ bits, so packing a shard's tree *requires* the
        remap — which is faithful: on the real GPU, postings pointers
        index the per-run mapping table, not global ids.
        """
        order: list[BTreeNode] = []
        ids: dict[int, int] = {}
        queue = [tree.root]
        while queue:
            node = queue.pop(0)
            ids[id(node)] = len(order)
            order.append(node)
            queue.extend(node.children)

        get, degree = tree.forest.store.get, tree.forest.degree
        shared = sorted(ptr for node in order for ptr in node.string_ptrs)
        strings = [get(ptr) for ptr in shared]
        local = dict(zip(shared, accumulate((len(s) + 1 for s in strings), initial=0)))
        heap = b"".join(bytes((len(s),)) + s for s in strings)

        postings_map: list[int] | None = [] if remap_ids else None
        blob = bytearray()
        for node in order:
            packed = BTreeNode(leaf=node.leaf)
            packed.caches, packed.children = node.caches, node.children
            packed.string_ptrs = [local[ptr] for ptr in node.string_ptrs]
            packed.postings_ptrs = node.postings_ptrs
            if postings_map is not None:
                packed.postings_ptrs = [len(postings_map) + i for i in range(node.nkeys)]
                postings_map += node.postings_ptrs
            blob += pack_node(packed, [ids[id(c)] for c in node.children], degree)
        return cls(bytes(blob), heap, root_id=0, degree=degree, postings_map=postings_map)

    def term_id_of(self, device_pointer: int) -> int:
        """Resolve a device postings pointer back to the original term id."""
        if self.postings_map is None:
            return device_pointer
        return self.postings_map[device_pointer]

    @property
    def node_count(self) -> int:
        return len(self.nodes) // self.node_size

    def node_bytes(self, node_id: int) -> bytes:
        if not 0 <= node_id < self.node_count:
            raise IndexError(f"node {node_id} outside image of {self.node_count} nodes")
        start = node_id * self.node_size
        return self.nodes[start : start + self.node_size]

    def heap_string(self, ptr: int) -> bytes:
        """Dereference a Fig 6 string pointer in the heap."""
        length = self.heap[ptr]
        return self.heap[ptr + 1 : ptr + 1 + length]

    # ------------------------------------------------------------------ #

    def search(
        self,
        suffix: bytes,
        shared: SharedMemory | None = None,
    ) -> int | None:
        """Find ``suffix`` using only the device bytes (Fig 7 over Fig 6).

        Each node on the descent is staged into ``shared`` memory (when
        provided) exactly as the kernel would, then all keys are compared
        by the warp: 4-byte caches first, heap dereference only on a
        non-conclusive tie.  Returns the postings pointer or ``None``.
        """
        query4 = suffix[:4].ljust(4, b"\x00")
        node_id = self.root_id
        while True:
            raw = self.node_bytes(node_id)
            if shared is not None:
                shared.reset()
                base = shared.alloc(self.node_size)
                shared.store(base, raw)
                # The warp reads the staged copy, never device memory.
                raw = shared.load(base, self.node_size)
            node = unpack_node(raw, self.degree)

            def compare(q: bytes, lane: int) -> int:
                cache = node.caches[lane]
                if query4 != cache:
                    return -1 if query4 < cache else 1
                if b"\x00" in cache:
                    return 0
                full = self.heap_string(node.string_ptrs[lane])
                if q == full:
                    return 0
                return -1 if q < full else 1

            slot, found = warp_find_slot(suffix, list(range(node.nkeys)), compare=compare)
            if found:
                return node.postings_ptrs[slot]
            if node.leaf:
                return None
            node_id = node.child_ids[slot]
