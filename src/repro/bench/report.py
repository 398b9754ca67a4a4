"""Plain-text reporting helpers for benchmark drivers."""

from __future__ import annotations

from typing import Sequence


def format_table(
    headers: Sequence[str], rows: Sequence[Sequence[object]], title: str | None = None
) -> str:
    """Render an aligned plain-text table."""
    str_rows = [[_fmt(cell) for cell in row] for row in rows]
    widths = [
        max(len(str(headers[i])), *(len(r[i]) for r in str_rows)) if str_rows else len(str(headers[i]))
        for i in range(len(headers))
    ]
    lines = []
    if title:
        lines.append(title)
    lines.append("  ".join(str(h).ljust(w) for h, w in zip(headers, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for row in str_rows:
        lines.append("  ".join(cell.ljust(w) for cell, w in zip(row, widths)))
    return "\n".join(lines)


def variant_table(title: str, totals: dict[str, dict[str, object]]) -> str:
    """One row per variant, one column per metric (sorted by name)."""
    metrics = sorted(next(iter(totals.values())))
    rows = [[label] + [values[k] for k in metrics]
            for label, values in totals.items()]
    return format_table(["variant"] + metrics, rows, title)


def _fmt(cell: object) -> str:
    if isinstance(cell, float):
        if cell == 0:
            return "0"
        if abs(cell) >= 1000 or abs(cell) < 0.01:
            return f"{cell:.3g}"
        return f"{cell:.3f}"
    return str(cell)


def series_summary(values: Sequence[float], points: int = 10) -> list[float]:
    """Downsample a per-query series to ``points`` evenly spaced samples."""
    if not values:
        return []
    n = len(values)
    idx = [min(n - 1, round(i * (n - 1) / max(1, points - 1))) for i in range(points)]
    return [values[i] for i in idx]
