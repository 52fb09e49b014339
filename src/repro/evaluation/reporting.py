"""Plain-text table/series rendering shared by the CLI and EXPERIMENTS.md."""

from __future__ import annotations

from typing import Iterable, Sequence

__all__ = ["format_table", "format_series"]


def format_table(
    headers: Sequence[str],
    rows: Iterable[Sequence[object]],
    title: str | None = None,
    float_format: str = "{:.2f}",
) -> str:
    """Render a list of rows as an aligned ASCII table."""
    rendered_rows: list[list[str]] = []
    for row in rows:
        rendered: list[str] = []
        for cell in row:
            if isinstance(cell, float):
                rendered.append(float_format.format(cell))
            elif cell is None:
                rendered.append("-")
            else:
                rendered.append(str(cell))
        rendered_rows.append(rendered)
    widths = [len(str(h)) for h in headers]
    for row in rendered_rows:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))
    lines = []
    if title:
        lines.append(title)
    header_line = " | ".join(str(h).ljust(widths[i]) for i, h in enumerate(headers))
    lines.append(header_line)
    lines.append("-+-".join("-" * w for w in widths))
    for row in rendered_rows:
        lines.append(" | ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)))
    return "\n".join(lines)


def format_series(
    name: str, xs: Sequence[float], ys: Sequence[float], precision: int = 3
) -> str:
    """Render an (x, y) series as one compact line per point."""
    points = ", ".join(
        f"({x:.{precision}g}, {y:.{precision}g})" for x, y in zip(xs, ys)
    )
    return f"{name}: {points}"


