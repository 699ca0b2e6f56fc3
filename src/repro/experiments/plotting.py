"""Terminal plotting: render experiment comparisons as ASCII bar charts.

No plotting dependency is available offline, so examples render their
comparisons (Figure 7's token counts, per-tenant shares) as text.
"""

from __future__ import annotations

from typing import Optional, Sequence


def _scale(value: float, lo: float, hi: float, width: int) -> int:
    if hi <= lo:
        return 0
    return int(round((value - lo) / (hi - lo) * width))


def bar_chart(
    labels: Sequence[str],
    values: Sequence[float],
    width: int = 40,
    title: Optional[str] = None,
    unit: str = "",
) -> str:
    """Horizontal bar chart, one row per label."""
    if len(labels) != len(values):
        raise ValueError("labels and values must have the same length")
    if not labels:
        return title or ""
    lines = [title] if title else []
    hi = max(values)
    label_width = max(len(str(l)) for l in labels)
    for label, value in zip(labels, values):
        bar = "#" * max(1 if value > 0 else 0, _scale(value, 0, hi, width))
        lines.append(f"{str(label).ljust(label_width)}  {bar} {value:g}{unit}")
    return "\n".join(lines)
