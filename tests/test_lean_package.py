"""Guards that keep the package lean.

* Every module- and class-level ``def``/``class`` in ``src/repro`` has a
  caller: its name appears as a word in ``src/``, ``examples/``,
  ``bench/``, ``pyproject.toml`` or the CI workflows somewhere other
  than its own definition line, an ``import`` statement or an
  ``__all__`` list (a re-export is not a use).  A definition only its
  unit tests reach is not needed by the system; delete it with its
  tests rather than allowlist it.
* Every name a workflow's inline script imports from ``repro`` exists,
  so deleting a definition cannot leave CI calling it.
* ``import repro``, ``import repro.sim``, ``import repro.hardware``
  and ``import repro.serving`` stay light: none loads numpy, which
  every CLI call and spawned ``--jobs`` worker would pay.  The FlexGen
  window and the transfer ledger import it where they use it.
"""

import ast
import importlib
import os
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "repro"
WORD = re.compile(r"\w+")
#: An import line in a workflow's inline script.
IMPORT_LINE = re.compile(r"^\s*(?:from|import)\s.*$", re.MULTILINE)
#: ``from repro... import a, b`` in a workflow's inline script.
REPRO_IMPORT = re.compile(r"^\s*from (repro[\w.]*) import ([\w, ]+)$", re.MULTILINE)

#: Definitions kept without a caller, each with its reason.
ALLOWED = {
    # The AQUA-LIB policy interface of §B.1, exposed verbatim for
    # engines that move tensors themselves (docs/architecture.md).
    "done_moving_tensors": "paper's AQUA-LIB API",
    # Figure 3a's measured bandwidth points: the anchor data the link
    # model is fitted against (tests/test_calibration.py).
    "paper_fig3a_points": "paper's anchor data",
}


def _definitions():
    """``(path, line, name)`` of every module- and class-level def."""
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text())
        scopes = [tree.body]
        scopes += [node.body for node in tree.body if isinstance(node, ast.ClassDef)]
        for body in scopes:
            for node in body:
                if not isinstance(
                    node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
                ):
                    continue
                name = node.name
                if name.startswith("__") and name.endswith("__"):
                    continue
                yield path, node.lineno, name


def _reexports(text):
    """Words of a module's ``import`` statements and ``__all__`` lists."""
    words = Counter()
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, (ast.Import, ast.ImportFrom)) or (
            isinstance(node, ast.Assign)
            and any(getattr(t, "id", None) == "__all__" for t in node.targets)
        ):
            words.update(WORD.findall(ast.get_source_segment(text, node)))
    return words


def _word_counts():
    """Occurrences of every word in the files a caller may live in,
    outside import statements and ``__all__`` lists."""
    counts = Counter(WORD.findall((ROOT / "pyproject.toml").read_text()))
    for path in sorted((ROOT / ".github" / "workflows").glob("*.yml")):
        text = path.read_text()
        counts.update(WORD.findall(IMPORT_LINE.sub("", text)))
    for top in ("src", "examples", "bench"):
        for path in sorted((ROOT / top).rglob("*.py")):
            text = path.read_text()
            counts.update(WORD.findall(text))
            counts.subtract(_reexports(text))
    return counts


def test_every_definition_has_a_caller():
    counts = _word_counts()
    definitions = list(_definitions())
    assert set(ALLOWED) <= {name for _, _, name in definitions}, "stale allowlist"
    uncalled = []
    for path, line, name in definitions:
        own_line = path.read_text().splitlines()[line - 1]
        uses = counts[name] - WORD.findall(own_line).count(name)
        if not uses and name not in ALLOWED:
            uncalled.append(f"{path.relative_to(ROOT)}:{line} {name}")
    assert not uncalled, "definitions nothing calls:\n" + "\n".join(uncalled)


def test_workflow_imports_resolve():
    missing = []
    for path in sorted((ROOT / ".github" / "workflows").glob("*.yml")):
        for module, names in REPRO_IMPORT.findall(path.read_text()):
            for name in WORD.findall(names):
                if not hasattr(importlib.import_module(module), name):
                    missing.append(f"{path.relative_to(ROOT)}: {module}.{name}")
    assert not missing, "workflows import missing names:\n" + "\n".join(missing)


@pytest.mark.parametrize("module", ["repro", "repro.sim", "repro.hardware", "repro.serving"])
def test_import_does_not_load_numpy(module):
    code = f"import sys, {module}; print('numpy' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        check=True,
        cwd=ROOT,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
    )
    assert out.stdout.strip() == "False"
