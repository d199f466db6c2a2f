"""Plain-text table and series formatting for experiment outputs.

Benchmarks print their results as aligned text tables so that the regenerated
E1-E8 tables and figures (README "Running the evaluation") are readable
directly from the pytest output, with no plotting dependency.

Seed sweeps report variance: :func:`summarize_over_seeds` collapses the rows
of a multi-seed engine run into one row per cell with every numeric column
replaced by a ``(mean, half_width)`` pair (95 % confidence interval of the
mean, Student-t), which :func:`format_table` renders as ``mean ± half``.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, List, Mapping, Sequence, Tuple

__all__ = [
    "format_table",
    "format_series",
    "format_percent",
    "mean_ci",
    "summarize_over_seeds",
]


def format_table(headers: Sequence[str], rows: Iterable[Sequence[object]], title: str = "") -> str:
    """Render rows as an aligned plain-text table.

    Numeric cells are formatted with three decimals; everything else uses
    ``str``.  The return value ends with a newline so it can be printed
    directly.
    """
    rendered_rows: List[List[str]] = []
    for row in rows:
        rendered_rows.append([_format_cell(cell) for cell in row])
    widths = [len(h) for h in headers]
    for row in rendered_rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))

    lines: List[str] = []
    if title:
        lines.append(title)
    header_line = " | ".join(h.ljust(widths[i]) for i, h in enumerate(headers))
    lines.append(header_line)
    lines.append("-+-".join("-" * w for w in widths))
    for row in rendered_rows:
        lines.append(" | ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)))
    return "\n".join(lines) + "\n"


def format_series(name: str, xs: Sequence[object], ys: Sequence[object]) -> str:
    """Render an (x, y) series as the two-column table of a figure's data."""
    return format_table(["x", name], list(zip(xs, ys)))


def format_percent(value: float) -> str:
    """Format a ratio as a percentage with one decimal (``0.61 -> '61.0%'``)."""
    return f"{100.0 * value:.1f}%"


def _format_cell(cell: object) -> str:
    if isinstance(cell, bool):
        return str(cell)
    if isinstance(cell, float):
        return f"{cell:.3f}"
    if (
        isinstance(cell, tuple)
        and len(cell) == 2
        and all(isinstance(part, (int, float)) for part in cell)
    ):
        return f"{cell[0]:.3f} ± {cell[1]:.3f}"
    return str(cell)


# ---------------------------------------------------------------------------
# Seed-sweep variance reporting
# ---------------------------------------------------------------------------

#: Two-sided 95 % Student-t critical values by degrees of freedom (1-30);
#: larger samples use the normal value.  Hard-coded to keep scipy optional.
_T95 = (
    12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262, 2.228,
    2.201, 2.179, 2.160, 2.145, 2.131, 2.120, 2.110, 2.101, 2.093, 2.086,
    2.080, 2.074, 2.069, 2.064, 2.060, 2.056, 2.052, 2.048, 2.045, 2.042,
)
_Z95 = 1.960


def mean_ci(values: Sequence[float]) -> Tuple[float, float]:
    """Mean and 95 % confidence half-width of the mean (Student-t).

    A single observation has an undefined interval; its half-width is 0 so
    one-seed runs degrade to plain means.
    """
    values = [float(v) for v in values]
    if not values:
        raise ValueError("mean_ci needs at least one value")
    n = len(values)
    mean = sum(values) / n
    if n == 1:
        return mean, 0.0
    variance = sum((v - mean) ** 2 for v in values) / (n - 1)
    t = _T95[n - 2] if n - 1 <= len(_T95) else _Z95
    return mean, t * math.sqrt(variance / n)


def summarize_over_seeds(
    rows: Iterable[Mapping[str, object]],
    group_by: Sequence[str],
    drop: Sequence[str] = ("seed",),
) -> List[Dict[str, object]]:
    """Collapse per-seed rows into one row per ``group_by`` combination.

    Numeric columns become ``(mean, 95 % half-width)`` tuples — rendered by
    :func:`format_table` as ``mean ± half`` — plus an ``n_seeds`` count;
    non-numeric columns must be constant within a group and pass through.
    Row order follows first appearance of each group.
    """
    groups: Dict[Tuple, List[Mapping[str, object]]] = {}
    for row in rows:
        groups.setdefault(tuple(row[k] for k in group_by), []).append(row)

    summaries: List[Dict[str, object]] = []
    for key, members in groups.items():
        summary: Dict[str, object] = dict(zip(group_by, key))
        for column in members[0]:
            if column in group_by or column in drop:
                continue
            values = [m[column] for m in members]
            if all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in values):
                summary[column] = mean_ci(values)
            else:
                distinct = {repr(v) for v in values}
                if len(distinct) > 1:
                    raise ValueError(
                        f"non-numeric column {column!r} varies within group {key!r}"
                    )
                summary[column] = values[0]
        summary["n_seeds"] = len(members)
        summaries.append(summary)
    return summaries
