"""The column kernel schedule against the per-item loop it replaced.

:meth:`KernelLaunch.run_cycles` schedules on columns: the dynamic queue's
heap loop reads only each item's total and records its block, and the
per-block sums come from ``np.bincount``.  ``tests/kernel_oracle.py`` is
the parent's per-item ``_assign`` / ``run``.  Every :class:`KernelResult`
field must have the same ``repr`` — floats bit for bit, ints as ints —
for any cycles, not just the integer-valued ones the GPU indexer charges.
"""

from __future__ import annotations

import dataclasses

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.gpusim.kernel import KernelLaunch, KernelResult, WorkItem
from tests.kernel_oracle import ParentKernelLaunch

#: Zero (a block that takes one stays the earliest to finish), values
#: whose sums tie block finish times, integer-valued cycles like the GPU
#: indexer's, and arbitrary floats (whose per-block sums depend on the
#: order they are added in).
_cycle = st.one_of(
    st.just(0.0),
    st.sampled_from((0.1, 0.2, 0.3, 0.7)),
    st.integers(0, 10**7).map(float),
    st.floats(),
)


@st.composite
def _items(draw) -> list[WorkItem]:
    """Up to 1,500 items, each field drawn from a small palette (so values
    repeat and tie) by a seeded generator."""
    palette = draw(st.lists(_cycle, min_size=1, max_size=8))
    n = draw(st.integers(0, 1500))
    rng = draw(st.randoms(use_true_random=False))
    return [
        WorkItem(i, rng.choice(palette), rng.choice(palette), rng.choice(palette))
        for i in range(n)
    ]


def _assert_same(new: KernelResult, old: KernelResult) -> None:
    for f in dataclasses.fields(KernelResult):
        assert repr(getattr(new, f.name)) == repr(getattr(old, f.name)), f.name


@settings(max_examples=50)
@given(
    items=_items(),
    num_blocks=st.sampled_from((1, 7, 30, 480, 1000)),
    schedule=st.sampled_from(("dynamic", "static")),
)
@example(items=[WorkItem(0, 0.0, 0.0, 0.0), WorkItem(1, 1.0, 0.0, 0.0)], num_blocks=7,
         schedule="dynamic")
def test_column_schedule_equals_the_per_item_loop(items, num_blocks, schedule):
    new = KernelLaunch(num_blocks=num_blocks, schedule=schedule).run(items)
    _assert_same(new, ParentKernelLaunch(num_blocks=num_blocks, schedule=schedule).run(items))


def test_run_is_run_cycles_on_the_items_columns():
    items = [WorkItem(i, 0.1 * i, 3.0, 0.7 * (i % 3)) for i in range(50)]
    launch = KernelLaunch(num_blocks=7)
    cycles = np.array([item[1:] for item in items])
    _assert_same(launch.run_cycles(cycles), launch.run(items))
    _assert_same(launch.run([]), launch.run_cycles(np.zeros((0, 3))))
