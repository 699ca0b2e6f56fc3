"""Tests for terminal plotting and the run-everything driver."""

import json

import pytest

from repro.experiments.plotting import bar_chart
from repro.experiments.runall import EXPERIMENTS, run_all


# ---------------------------------------------------------------------------
# Plotting
# ---------------------------------------------------------------------------
def test_bar_chart_renders_each_row():
    out = bar_chart(["aqua", "flexgen"], [900, 120], title="tokens")
    lines = out.splitlines()
    assert lines[0] == "tokens"
    assert lines[1].startswith("aqua")
    assert lines[1].count("#") > lines[2].count("#")


def test_bar_chart_zero_values():
    out = bar_chart(["a", "b"], [0, 10])
    assert "a" in out
    assert out.splitlines()[0].count("#") == 0


def test_bar_chart_mismatched_lengths():
    with pytest.raises(ValueError):
        bar_chart(["a"], [1, 2])


def test_bar_chart_empty():
    assert bar_chart([], [], title="t") == "t"


# ---------------------------------------------------------------------------
# run_all
# ---------------------------------------------------------------------------
def test_run_all_writes_json(tmp_path):
    messages = []
    manifest = run_all(
        str(tmp_path), only=["tables", "fig02"], progress=messages.append
    )
    assert set(manifest) == {"tables", "fig02"}
    for entry in manifest.values():
        data = json.loads(open(entry["path"]).read())
        assert data
    assert (tmp_path / "manifest.json").exists()
    assert any("running tables" in m for m in messages)


def test_run_all_unknown_experiment(tmp_path):
    with pytest.raises(KeyError):
        run_all(str(tmp_path), only=["fig99"])


def test_experiment_registry_covers_paper():
    for name in ("fig01", "fig07", "fig09", "fig13", "fig14", "tables", "e2e"):
        assert name in EXPERIMENTS
