"""Plain-text rendering of experiment results."""

from __future__ import annotations

from typing import Iterable, Optional, Sequence

from repro.serving.metrics import percentile
from repro.serving.request import Request


def format_table(
    headers: Sequence[str], rows: Iterable[Sequence], title: Optional[str] = None
) -> str:
    """Render rows as an aligned ASCII table."""
    str_rows = [[_fmt(cell) for cell in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in str_rows:
        if len(row) != len(headers):
            raise ValueError(
                f"row has {len(row)} cells but there are {len(headers)} headers"
            )
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = []
    if title:
        lines.append(title)
    lines.append("  ".join(h.ljust(w) for h, w in zip(headers, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for row in str_rows:
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def _fmt(cell) -> str:
    if isinstance(cell, float):
        if cell == 0:
            return "0"
        if abs(cell) >= 1000 or abs(cell) < 0.01:
            return f"{cell:.3g}"
        return f"{cell:.2f}"
    return str(cell)


def summarize_requests(requests: Sequence[Request], label: str = "") -> dict:
    """TTFT/RCT summary of a set of (possibly unfinished) requests."""
    ttfts = [r.ttft for r in requests if r.ttft is not None]
    rcts = [r.rct for r in requests if r.rct is not None]
    out = {
        "label": label,
        "submitted": len(requests),
        "completed": sum(1 for r in requests if r.done),
    }
    if ttfts:
        out["ttft_mean"] = sum(ttfts) / len(ttfts)
        out["ttft_p50"] = percentile(ttfts, 50)
        out["ttft_p95"] = percentile(ttfts, 95)
        out["ttft_max"] = max(ttfts)
    if rcts:
        out["rct_mean"] = sum(rcts) / len(rcts)
        out["rct_p50"] = percentile(rcts, 50)
        out["rct_p95"] = percentile(rcts, 95)
        out["rct_max"] = max(rcts)
    return out

