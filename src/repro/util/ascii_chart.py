"""Plain-text charts for the figure benchmarks.

The benchmark harnesses print the paper's *figures* as data series; these
helpers render them visually in the terminal/report files — horizontal
bar charts for Fig 12's comparison and multi-series line plots for the
Fig 10/11 curves — without any plotting dependency.
"""

from __future__ import annotations

from typing import Mapping, Sequence

__all__ = ["bar_chart", "line_chart"]

_BLOCKS = "▏▎▍▌▋▊▉█"


def bar_chart(
    values: Mapping[str, float],
    width: int = 50,
    unit: str = "",
) -> str:
    """Horizontal bar chart, one row per labelled value."""
    if not values:
        return "(no data)"
    peak = max(values.values()) or 1.0
    label_w = max(len(k) for k in values)
    lines = []
    for label, value in values.items():
        frac = max(0.0, value / peak)
        whole = int(frac * width)
        rem = int((frac * width - whole) * len(_BLOCKS))
        bar = "█" * whole + (_BLOCKS[rem] if rem and whole < width else "")
        lines.append(f"{label.ljust(label_w)} │{bar.ljust(width)}│ {value:.2f}{unit}")
    return "\n".join(lines)


def line_chart(
    x: Sequence[float],
    series: Mapping[str, Sequence[float]],
    height: int = 12,
    width: int = 64,
) -> str:
    """Multi-series character plot (each series gets a distinct glyph)."""
    if not series or not x:
        return "(no data)"
    glyphs = "ox+*#@"
    all_vals = [v for ys in series.values() for v in ys]
    lo, hi = min(all_vals), max(all_vals)
    span = hi - lo or 1.0
    xlo, xhi = min(x), max(x)
    xspan = xhi - xlo or 1.0

    grid = [[" "] * width for _ in range(height)]
    for si, (name, ys) in enumerate(series.items()):
        glyph = glyphs[si % len(glyphs)]
        for xv, yv in zip(x, ys):
            col = int((xv - xlo) / xspan * (width - 1))
            row = height - 1 - int((yv - lo) / span * (height - 1))
            grid[row][col] = glyph
    lines = []
    for r, row in enumerate(grid):
        y_label = hi - r * span / (height - 1) if height > 1 else hi
        lines.append(f"{y_label:10.1f} ┤{''.join(row)}")
    lines.append(" " * 11 + "└" + "─" * width)
    lines.append(f"{'':11} {xlo:<10.0f}{'':{max(0, width - 20)}}{xhi:>10.0f}")
    legend = "   ".join(
        f"{glyphs[i % len(glyphs)]} = {name}" for i, name in enumerate(series)
    )
    lines.append(" " * 11 + legend)
    return "\n".join(lines)
