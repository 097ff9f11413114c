"""Warp-parallel comparison + reduction (Fig 7, and Harris [11]).

To locate a key inside a B-tree node, the paper assigns one thread per
stored term: all 31 comparisons happen in a single SIMD step, then "a
parallel reduction step [11] will enable us to identify the location of
the new term".  These functions execute that algorithm *literally* — an
array of per-lane comparison results reduced in log₂(warp) tree steps —
so tests can check it against the sequential binary search and the cost
model can charge the real step count.
"""

from __future__ import annotations

from typing import Callable, Sequence

__all__ = ["warp_compare_keys", "warp_reduce_min", "warp_find_slot", "REDUCTION_STEPS"]

WARP_SIZE = 32
#: log2(32) tree-reduction steps.
REDUCTION_STEPS = 5


def warp_compare_keys(
    query: bytes,
    keys: Sequence[bytes],
    compare: Callable[[bytes, bytes], int] | None = None,
) -> list[int]:
    """One SIMD step: every lane compares ``query`` to its key.

    Lane *i* produces ``sign(compare(query, keys[i]))``; lanes past the
    node's valid-term count (up to 31 keys in a 32-lane warp) behave as if
    their key were +∞ and produce −1, so the reduction always finds a slot.
    """
    if len(keys) >= WARP_SIZE:
        raise ValueError(f"a warp handles at most {WARP_SIZE - 1} keys, got {len(keys)}")
    if compare is None:
        compare = lambda a, b: (a > b) - (a < b)  # noqa: E731
    lanes = []
    for lane in range(WARP_SIZE):
        if lane < len(keys):
            lanes.append(compare(query, keys[lane]))
        else:
            lanes.append(-1)  # query < +infinity
    return lanes


def warp_reduce_min(values: Sequence[int]) -> tuple[int, int]:
    """Tree-reduce to the minimum value and its first lane index.

    Returns ``(min value, lane)`` after exactly ``REDUCTION_STEPS`` halving
    steps, the schedule of Harris's reduction kernel [11].  Ties resolve to
    the lowest lane, matching how the hardware's first-active-lane ballot
    would.
    """
    if len(values) != WARP_SIZE:
        raise ValueError(f"warp reduction needs {WARP_SIZE} lanes, got {len(values)}")
    vals = list(values)
    idx = list(range(WARP_SIZE))
    stride = WARP_SIZE // 2
    for _ in range(REDUCTION_STEPS):
        for lane in range(stride):
            other = lane + stride
            if vals[other] < vals[lane] or (
                vals[other] == vals[lane] and idx[other] < idx[lane]
            ):
                vals[lane] = vals[other]
                idx[lane] = idx[other]
        stride //= 2
    return vals[0], idx[0]


def warp_find_slot(
    query: bytes,
    keys: Sequence[bytes],
    compare: Callable[[bytes, bytes], int] | None = None,
) -> tuple[int, bool]:
    """Full Fig 7 node search: parallel compare, then reduction.

    Returns ``(slot, found)`` as the CPU binary search of
    :meth:`repro.dictionary.btree.BTree.search` finds them: ``slot`` is
    the index of the first key ≥ query.

    The reduction minimizes an encoding that ranks *equality* below
    *greater-than* lanes at the same position: lane i holding cmp result
    c ∈ {-1, 0, +1} encodes ``(c >= 0, lane)`` — the first lane where the
    query no longer sorts after the key.
    """
    lanes = warp_compare_keys(query, keys, compare)
    # Encode: a lane where query <= key competes with its own index; a
    # lane where the query still sorts after the key takes a +∞ sentinel.
    # Lanes past the valid keys compare against +∞ (cmp = −1), so a
    # competing lane always exists and the minimum is the first slot with
    # key >= query.
    encoded = [lane if lanes[lane] <= 0 else WARP_SIZE * 2 for lane in range(WARP_SIZE)]
    slot, _ = warp_reduce_min(encoded)
    # The reduction alone cannot distinguish "first key >= query" from
    # "first key == query"; the found bit is the winning lane's own
    # comparison result (one more SIMD-step read).
    found = slot < len(keys) and lanes[slot] == 0
    return slot, found
