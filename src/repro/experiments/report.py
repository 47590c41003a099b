"""Plain-text rendering of experiment series and tables."""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence


def render_series(
    title: str, series: Mapping[str, Sequence[float]], x_key: Optional[str] = None
) -> str:
    """Render a figure's series as an aligned text table.

    The first column is the x axis — ``x_key``, by default the series'
    first key, as every experiment builds it; remaining columns follow
    insertion order, matching the paper's legend order.
    """
    x_key = x_key or next(iter(series))
    columns = [x_key] + [name for name in series if name != x_key]
    rows = len(series[x_key])
    widths = {
        name: max(len(name), max(len(_fmt(series[name][i])) for i in range(rows)))
        for name in columns
    }
    lines = [title, ""]
    lines.append("  ".join(name.rjust(widths[name]) for name in columns))
    lines.append("  ".join("-" * widths[name] for name in columns))
    for i in range(rows):
        lines.append(
            "  ".join(_fmt(series[name][i]).rjust(widths[name]) for name in columns)
        )
    return "\n".join(lines)


def render_table(title: str, rows: List[Dict[str, object]]) -> str:
    """Render a list of homogeneous dict rows as an aligned text table."""
    if not rows:
        return title + "\n(empty)"
    columns = list(rows[0].keys())
    widths = {
        name: max(len(str(name)), max(len(_fmt(row[name])) for row in rows))
        for name in columns
    }
    lines = [title, ""]
    lines.append("  ".join(str(name).ljust(widths[name]) for name in columns))
    lines.append("  ".join("-" * widths[name] for name in columns))
    for row in rows:
        lines.append(
            "  ".join(_fmt(row[name]).ljust(widths[name]) for name in columns)
        )
    return "\n".join(lines)


def _fmt(value: object) -> str:
    if isinstance(value, float):
        if value == int(value):
            return str(int(value))
        return f"{value:.2f}"
    return str(value)
