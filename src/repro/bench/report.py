"""Plain-text rendering of experiment results in the paper's shapes."""

from __future__ import annotations

from typing import Dict, List, Sequence


def format_table(headers: Sequence[str], rows: Sequence[Sequence],
                 title: str = "") -> str:
    """Monospace-aligned table."""
    str_rows = [[_fmt(cell) for cell in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in str_rows:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))
    lines: List[str] = []
    if title:
        lines.append(title)
    lines.append("  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)))
    lines.append("  ".join("-" * w for w in widths))
    for row in str_rows:
        lines.append("  ".join(cell.rjust(widths[i])
                               for i, cell in enumerate(row)))
    return "\n".join(lines)


def _fmt(cell) -> str:
    if isinstance(cell, float):
        if cell >= 100:
            return f"{cell:.1f}"
        if cell >= 1:
            return f"{cell:.2f}"
        return f"{cell:.3f}"
    return str(cell)


def format_series(title: str, x_label: str, xs: Sequence,
                  series: Dict[str, Sequence[float]]) -> str:
    """A figure rendered as a table: one column per series."""
    headers = [x_label] + list(series)
    rows = []
    for index, x in enumerate(xs):
        rows.append([x] + [series[name][index] for name in series])
    return format_table(headers, rows, title=title)
