"""Documentation <-> code consistency guards.

DESIGN.md's per-experiment index and EXPERIMENTS.md's test references
must point at files that exist, every example mentioned in the README
must be present, every registered claim must have a row in the
traceability table, which is generated from the registry, and every
documented CLI usage must parse — so the
documentation can be trusted as a map of the repository.
"""

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def referenced_bench_files(text: str) -> set[str]:
    names = set(re.findall(r"(test_[a-z0-9_]+\.py)", text))
    return names


def test_design_md_bench_references_exist():
    text = (ROOT / "DESIGN.md").read_text()
    for name in referenced_bench_files(text):
        assert (ROOT / "tests" / name).exists(), (
            f"DESIGN.md references missing file {name}"
        )


def test_experiments_md_bench_references_exist():
    text = (ROOT / "EXPERIMENTS.md").read_text()
    for name in referenced_bench_files(text):
        assert (ROOT / "tests" / name).exists(), (
            f"EXPERIMENTS.md references missing test {name}"
        )


def test_doc_test_pointers_resolve():
    """Every ``tests/<file>.py::<test>`` pointer in the docs must resolve
    to a real test function, so doc claims stay verifiable."""
    refs = []
    docs = sorted((ROOT / "docs").glob("*.md"))
    assert ROOT / "docs" / "replication.md" in docs
    assert ROOT / "docs" / "frontier.md" in docs
    for doc in docs + [ROOT / "DESIGN.md", ROOT / "EXPERIMENTS.md"]:
        refs.extend(
            re.findall(r"(test_[a-z0-9_]+\.py)::(test_[a-z0-9_]+)", doc.read_text())
        )
    assert refs, "expected at least one tests/...::test_* pointer in the docs"
    for fname, tname in refs:
        path = ROOT / "tests" / fname
        assert path.exists(), f"docs reference missing file {fname}"
        assert re.search(rf"^def {tname}\b", path.read_text(), re.M), (
            f"docs reference missing test {fname}::{tname}"
        )


def test_readme_examples_exist():
    text = (ROOT / "README.md").read_text()
    for name in re.findall(r"`([a-z0-9_]+\.py)`", text):
        if (ROOT / "examples" / name).exists():
            continue
        if name.startswith("test_"):
            hits = list((ROOT / "tests").glob(name))
        else:
            # Non-example code files mentioned in prose must exist in src/.
            hits = list((ROOT / "src").rglob(name))
        assert hits, f"README references missing file {name}"


def test_every_paper_figure_and_table_has_a_registered_claim():
    from repro import evals

    scored = set(evals.REGISTRY.experiments())
    figures = [f"fig{n:02d}" for n in (1, 2, 3, *range(7, 19))]
    for cell in (*figures, "tables", "e2e"):
        assert cell in scored, f"no registered claim scores {cell}"


def test_every_registered_claim_has_a_traceability_row():
    from repro import evals

    text = (ROOT / "docs" / "replication.md").read_text()
    rows = set(re.findall(r"^\| `([a-z0-9-]+)` \|", text, re.M))
    missing = [c.id for c in evals.get_claims() if c.id not in rows]
    assert not missing, f"docs/replication.md has no row for {missing}"


def test_traceability_table_is_generated_from_the_registry():
    """docs/replication.md's table is byte-equal to ``replicate --list``."""
    from repro import evals

    text = (ROOT / "docs" / "replication.md").read_text()
    start = text.index("| claim id |")
    end = text.index("\n\n", start)
    assert text[start:end] == evals.render_catalog(evals.get_claims()), (
        "regenerate the table: aqua-repro replicate --list"
    )


def test_every_example_is_smoke_tested():
    examples = {p.name for p in (ROOT / "examples").glob("*.py")}
    test_text = (ROOT / "tests" / "test_examples.py").read_text()
    for example in examples:
        assert example in test_text, f"{example} has no smoke test"


def test_cli_commands_documented_in_help():
    from repro.cli import COMMANDS, build_parser

    help_text = build_parser().format_help()
    for name in COMMANDS:
        assert name in help_text


def test_cli_usages_in_docs_match_the_parser():
    """Every ``aqua-repro <subcommand> --flag`` the docs show must parse:
    the subcommand must exist and each flag must be an option of that
    subcommand (catches docs drifting behind CLI changes)."""
    import argparse

    from repro.cli import build_parser

    parser = build_parser()
    subparsers = next(
        a for a in parser._actions if isinstance(a, argparse._SubParsersAction)
    )
    options = {
        name: {opt for act in sub._actions for opt in act.option_strings}
        for name, sub in subparsers.choices.items()
    }

    # A usage is "aqua-repro <word> ...rest of line", where the rest is
    # cut at a backtick (end of inline code) or a shell comment.
    usage_re = re.compile(r"aqua-repro\s+([a-z][a-z0-9_-]*)([^`#\n]*)")
    docs = sorted((ROOT / "docs").glob("*.md"))
    docs += [ROOT / "README.md", ROOT / "EXPERIMENTS.md", ROOT / "DESIGN.md"]
    usages = []
    for doc in docs:
        for match in usage_re.finditer(doc.read_text()):
            flags = re.findall(r"--[a-z][a-z0-9-]*", match.group(2))
            usages.append((doc.name, match.group(1), flags))

    assert any(cmd == "replicate" for _, cmd, _ in usages)
    # docs/frontier.md must actually show the frontier command in use,
    # and with its load-grid flag, so the guard below exercises it.
    assert any(
        doc == "frontier.md" and cmd == "frontier" for doc, cmd, _ in usages
    ), "docs/frontier.md must demonstrate 'aqua-repro frontier'"
    assert any(
        cmd == "frontier" and "--rates" in flags for _, cmd, flags in usages
    )
    for doc, cmd, flags in usages:
        assert cmd in options, f"{doc}: unknown subcommand 'aqua-repro {cmd}'"
        for flag in flags:
            assert flag in options[cmd], (
                f"{doc}: 'aqua-repro {cmd}' does not accept {flag}"
            )
