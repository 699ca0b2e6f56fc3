"""Human-readable rendering of a replication document and the catalog.

Two renderers over the same document: :func:`render_text` for the
terminal (``aqua-repro replicate``) and :func:`render_markdown` for
the ``--report out.md`` artifact CI uploads next to
``REPLICATION.json``.  :func:`render_catalog` renders the registry as
the traceability table of ``docs/replication.md``
(``aqua-repro replicate --list``).
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Union

from repro.experiments.report import format_table

_STATUS_MARK = {"PASS": "✅", "FAIL": "❌", "SKIP": "⏭️"}


def _fmt_measured(measured) -> str:
    if measured is None:
        return "-"
    if isinstance(measured, float):
        return f"{measured:.4g}"
    text = json.dumps(measured, default=str)
    return text if len(text) <= 60 else text[:57] + "..."


def render_text(doc: dict) -> str:
    """Terminal summary: one row per claim plus the verdict line."""
    rows = []
    for claim in doc["claims"]:
        rows.append(
            [
                claim["status"],
                claim["id"],
                claim["figure"],
                _fmt_measured(claim["measured"]),
                f"{claim['delta']:.3g}" if claim["delta"] is not None else "-",
            ]
        )
    s = doc["summary"]
    lines = [
        format_table(
            ["status", "claim", "figure", "measured", "margin"],
            rows,
            title="Replication verdict: does this repo still reproduce the paper?",
        ),
        "",
        f"verdict: {s['verdict']}  "
        f"({s['pass']} pass / {s['fail']} fail / {s['skip']} skip "
        f"of {s['total']} claims, {doc['seconds']:.1f}s)",
    ]
    if doc.get("cache"):
        lines.append(
            f"cache: {doc['cache']['hits']} hits / {doc['cache']['misses']} misses "
            f"({doc['cache']['dir']})"
        )
    for claim in doc["claims"]:
        if claim["status"] != "PASS" and claim["detail"]:
            lines.append(f"  {claim['status']} {claim['id']}: {claim['detail']}")
    return "\n".join(lines)


def render_markdown(doc: dict) -> str:
    """Markdown report with the per-claim traceability columns."""
    s = doc["summary"]
    lines = [
        "# Replication report",
        "",
        f"**Verdict: {s['verdict']}** — {s['pass']} pass / {s['fail']} fail / "
        f"{s['skip']} skip of {s['total']} claims.",
        "",
        f"Code fingerprint `{doc['code_fingerprint'][:16]}…`, "
        f"jobs={doc['jobs']}, {doc['seconds']:.1f}s"
        + (
            f", cache {doc['cache']['hits']} hits / {doc['cache']['misses']} misses."
            if doc.get("cache")
            else ", no cache."
        ),
        "",
        "| | claim | figure | measured | expected | margin |",
        "|---|---|---|---|---|---|",
    ]
    for claim in doc["claims"]:
        mark = _STATUS_MARK.get(claim["status"], claim["status"])
        delta = f"{claim['delta']:.3g}" if claim["delta"] is not None else "-"
        lines.append(
            f"| {mark} | `{claim['id']}` | {claim['figure']} "
            f"| {_fmt_measured(claim['measured'])} | {claim['expected']} | {delta} |"
        )
    problems = [c for c in doc["claims"] if c["status"] != "PASS" and c["detail"]]
    if problems:
        lines += ["", "## Non-passing claims", ""]
        for claim in problems:
            lines.append(f"- **{claim['id']}** ({claim['status']}): {claim['detail']}")
    lines += [
        "",
        "Claim-by-claim traceability (experiment cells, check, tolerance "
        "bands): see `docs/replication.md`.",
        "",
    ]
    return "\n".join(lines)


def render_catalog(claims) -> str:
    """The claim-by-claim traceability table, one markdown row per claim."""
    lines = [
        "| claim id | figure | paper claim | cells | check | tolerance bands |",
        "|---|---|---|---|---|---|",
    ]
    for claim in claims:
        cells = ", ".join(f"`{name}`" for name in claim.experiments)
        lines.append(
            f"| `{claim.id}` | {claim.figure} | {claim.claim} | {cells} "
            f"| `{claim.check.__name__}` | {claim.expected} |"
        )
    return "\n".join(lines)


def write_markdown(doc: dict, path: Union[str, Path]) -> Path:
    path = Path(path)
    path.write_text(render_markdown(doc))
    return path
