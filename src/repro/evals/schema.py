"""REPLICATION.json schema: structure, validation and (de)serialisation.

The replication document is the machine-readable verdict on "does this
codebase still reproduce the Aqua paper?".  It is versioned (``schema``
field), self-consistent (the ``summary`` counts must equal the claim
statuses), and round-trips through JSON byte-for-byte —
``tests/test_evals.py::test_replication_document_round_trips`` pins
this.  Its verdict is ``PASS`` only when every claim passes.  CI's
nightly replication job uploads it as an artifact and fails when its
verdict is ``FAIL``.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Union

from repro.evals.checks import STATUSES

#: Document schema marker; bump on any structural change.
REPLICATION_SCHEMA = "aqua-repro-replication/v2"

#: Required top-level keys of a replication document.
_TOP_KEYS = ("schema", "code_fingerprint", "jobs", "cache", "cells", "claims", "summary")

#: Required keys of each claim entry.
_CLAIM_KEYS = (
    "id",
    "figure",
    "claim",
    "experiments",
    "check",
    "tolerance",
    "expected",
    "status",
    "measured",
    "delta",
    "detail",
)


class SchemaError(ValueError):
    """A replication document does not conform to the schema."""


def validate_replication(doc: dict) -> dict:
    """Validate ``doc`` against the replication schema; return it.

    Raises :class:`SchemaError` with a pinpointed message on the first
    violation found.
    """
    if not isinstance(doc, dict):
        raise SchemaError(f"document must be a dict, got {type(doc).__name__}")
    for key in _TOP_KEYS:
        if key not in doc:
            raise SchemaError(f"missing top-level key {key!r}")
    if doc["schema"] != REPLICATION_SCHEMA:
        raise SchemaError(
            f"unknown schema {doc['schema']!r} (expected {REPLICATION_SCHEMA!r})"
        )
    if not isinstance(doc["claims"], list) or not doc["claims"]:
        raise SchemaError("claims must be a non-empty list")

    seen_ids = set()
    counts = {status: 0 for status in STATUSES}
    for i, claim in enumerate(doc["claims"]):
        for key in _CLAIM_KEYS:
            if key not in claim:
                raise SchemaError(f"claims[{i}] missing key {key!r}")
        if claim["status"] not in STATUSES:
            raise SchemaError(
                f"claims[{i}] ({claim['id']!r}) has invalid status {claim['status']!r}"
            )
        if claim["id"] in seen_ids:
            raise SchemaError(f"duplicate claim id {claim['id']!r}")
        seen_ids.add(claim["id"])
        if not claim["experiments"]:
            raise SchemaError(f"claims[{i}] ({claim['id']!r}) names no experiments")
        for name in claim["experiments"]:
            if name not in doc["cells"]:
                raise SchemaError(
                    f"claims[{i}] ({claim['id']!r}) references cell {name!r} "
                    "absent from the cells map"
                )
        counts[claim["status"]] += 1

    summary = doc["summary"]
    for key in ("total", "pass", "fail", "skip", "verdict"):
        if key not in summary:
            raise SchemaError(f"summary missing key {key!r}")
    expected = {
        "total": len(doc["claims"]),
        "pass": counts["PASS"],
        "fail": counts["FAIL"],
        "skip": counts["SKIP"],
    }
    for key, value in expected.items():
        if summary[key] != value:
            raise SchemaError(
                f"summary[{key!r}] = {summary[key]} disagrees with the "
                f"claim list ({value})"
            )
    # PASS only when every claim passes: a SKIP is not a pass.
    expected_verdict = "PASS" if counts["PASS"] == len(doc["claims"]) else "FAIL"
    if summary["verdict"] != expected_verdict:
        raise SchemaError(
            f"summary verdict {summary['verdict']!r} disagrees with the "
            f"claim statuses (expected {expected_verdict!r})"
        )
    return doc


def dump_replication(doc: dict) -> str:
    """Canonical JSON serialisation (validated first)."""
    validate_replication(doc)
    return json.dumps(doc, indent=2, default=str) + "\n"


def write_replication(doc: dict, path: Union[str, Path]) -> Path:
    """Validate and write the document; returns the path written."""
    path = Path(path)
    path.write_text(dump_replication(doc))
    return path
