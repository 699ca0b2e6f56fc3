"""Tests for the parallel experiment pool and the content-addressed cache.

The worker tasks live at module level in ``repro.experiments`` modules
(``_sweep_cell``, ``_fig09_cell``...); here we use a tiny arithmetic
task of our own so cache semantics are observable without running
simulations.  The determinism of *real* experiment subsets under
parallel execution is locked down in ``tests/test_determinism_golden.py``.
"""

import os
import pickle

import pytest

from repro.experiments.pool import (
    DEFAULT_CACHE_DIR,
    RunCache,
    RunSpec,
    canonical_kwargs,
    code_fingerprint,
    derive_seed,
    resolve_task,
    run_specs,
)

TASK = "tests.test_pool:poolable_task"


def poolable_task(x: int, y: int = 1, seed=None) -> dict:
    """Module-level so specs naming it survive pickling into workers."""
    return {"product": x * y, "seed": seed}


# ---------------------------------------------------------------------------
# RunSpec / primitives
# ---------------------------------------------------------------------------
def test_runspec_rejects_non_task_path():
    with pytest.raises(ValueError, match="module:callable"):
        RunSpec(task="not_a_path")


def test_runspec_rejects_non_json_kwargs():
    with pytest.raises(TypeError):
        RunSpec(task=TASK, kwargs={"fn": poolable_task})


def test_runspec_default_label_strips_private_prefix():
    assert RunSpec(task="m:_cell").label == "cell"
    assert RunSpec(task="m:cell", label="fancy").label == "fancy"


def test_canonical_kwargs_is_order_independent():
    assert canonical_kwargs({"a": 1, "b": 2}) == canonical_kwargs({"b": 2, "a": 1})


def test_resolve_task_roundtrip_and_errors():
    assert resolve_task(TASK) is poolable_task
    with pytest.raises(AttributeError):
        resolve_task("tests.test_pool:no_such_callable")


def test_derive_seed_stable_and_distinct():
    assert derive_seed("family", 0) == derive_seed("family", 0)
    assert derive_seed("family", 0) != derive_seed("family", 1)
    assert 0 <= derive_seed("family", 0) < 2**32


def test_code_fingerprint_stable_within_process():
    assert code_fingerprint() == code_fingerprint()
    assert len(code_fingerprint()) == 64


def test_default_cache_dir_is_gitignored():
    repo_root = os.path.join(os.path.dirname(__file__), os.pardir)
    with open(os.path.join(repo_root, ".gitignore")) as fh:
        assert f"{DEFAULT_CACHE_DIR}/" in fh.read().split()


# ---------------------------------------------------------------------------
# run_specs execution
# ---------------------------------------------------------------------------
def test_run_specs_serial_matches_parallel():
    specs = [
        RunSpec(task=TASK, kwargs={"x": i, "y": 3}, seed=derive_seed("t", i))
        for i in range(4)
    ]
    serial = run_specs(specs, jobs=1)
    parallel = run_specs(specs, jobs=2)
    assert [r.value for r in serial] == [r.value for r in parallel]
    assert [r.value["product"] for r in serial] == [0, 3, 6, 9]
    assert all(not r.cached for r in serial + parallel)


def test_run_specs_results_in_submission_order():
    specs = [RunSpec(task=TASK, kwargs={"x": i}) for i in range(5)]
    results = run_specs(specs, jobs=3)
    assert [r.spec.kwargs["x"] for r in results] == [0, 1, 2, 3, 4]


def test_run_specs_seed_is_forwarded():
    (result,) = run_specs([RunSpec(task=TASK, kwargs={"x": 1}, seed=99)], jobs=1)
    assert result.value["seed"] == 99


def test_run_specs_propagates_worker_exception():
    specs = [RunSpec(task=TASK, kwargs={"x": 1, "y": None})] * 2
    with pytest.raises(TypeError):
        run_specs(specs, jobs=2)


def test_run_specs_progress_lines(capsys):
    lines = []
    run_specs(
        [RunSpec(task=TASK, kwargs={"x": 2}, label="cell-a")],
        jobs=1,
        progress=lines.append,
    )
    assert lines == ["running cell-a..."]


def test_run_specs_spawn_start_method(monkeypatch):
    """Workers must survive ``spawn`` — the strictest start method."""
    monkeypatch.setenv("AQUA_POOL_START_METHOD", "spawn")
    specs = [RunSpec(task=TASK, kwargs={"x": i, "y": 2}) for i in range(2)]
    assert [r.value["product"] for r in run_specs(specs, jobs=2)] == [0, 2]


# ---------------------------------------------------------------------------
# RunCache
# ---------------------------------------------------------------------------
def _spec(x=5, seed=11):
    return RunSpec(task=TASK, kwargs={"x": x}, seed=seed)


def test_cache_miss_then_hit(tmp_path):
    cache = RunCache(tmp_path, fingerprint="f1")
    spec = _spec()
    assert cache.load(spec) is None
    results = run_specs([spec], jobs=1, cache=cache)
    assert not results[0].cached
    again = run_specs([spec], jobs=1, cache=cache)
    assert again[0].cached and again[0].value == results[0].value
    assert cache.stats.hits == 1 and cache.stats.misses == 2


def test_cache_key_sensitivity(tmp_path):
    """Changing task, kwargs, seed or fingerprint changes the address."""
    cache = RunCache(tmp_path, fingerprint="f1")
    base = cache.key(_spec())
    assert cache.key(_spec(x=6)) != base
    assert cache.key(_spec(seed=12)) != base
    assert cache.key(RunSpec(task="m:other", kwargs={"x": 5}, seed=11)) != base
    assert RunCache(tmp_path, fingerprint="f2").key(_spec()) != base
    assert cache.key(_spec()) == base  # and it is stable


def test_cache_fingerprint_change_invalidates(tmp_path):
    spec = _spec()
    old = RunCache(tmp_path, fingerprint="code-v1")
    run_specs([spec], jobs=1, cache=old)
    assert old.load(spec) is not None
    new = RunCache(tmp_path, fingerprint="code-v2")
    assert new.load(spec) is None  # same dir, new code: entry unreachable


def test_cache_none_bypasses_disk(tmp_path):
    """``--no-cache``: nothing is read or written."""
    spec = _spec()
    run_specs([spec], jobs=1, cache=None)
    assert list(tmp_path.iterdir()) == []


def test_cache_tolerates_corrupted_entry(tmp_path):
    cache = RunCache(tmp_path, fingerprint="f1")
    spec = _spec()
    run_specs([spec], jobs=1, cache=cache)
    path = cache.path(spec)
    path.write_bytes(b"not a pickle at all")
    assert cache.load(spec) is None  # miss, not a crash
    rerun = run_specs([spec], jobs=1, cache=cache)  # and it self-heals
    assert not rerun[0].cached
    assert cache.load(spec) is not None


def test_cache_rejects_wrong_schema_and_mismatched_key(tmp_path):
    cache = RunCache(tmp_path, fingerprint="f1")
    spec, other = _spec(), _spec(x=6)
    run_specs([spec], jobs=1, cache=cache)
    payload = pickle.loads(cache.path(spec).read_bytes())
    payload["schema"] = "aqua-repro-cache/v999"
    cache.path(spec).write_bytes(pickle.dumps(payload))
    assert cache.load(spec) is None
    # An entry copied to the wrong address must not be served.
    run_specs([spec], jobs=1, cache=cache)
    cache.path(other).write_bytes(cache.path(spec).read_bytes())
    assert cache.load(other) is None


def test_cache_hit_skips_execution_under_parallel_jobs(tmp_path):
    cache = RunCache(tmp_path, fingerprint="f1")
    specs = [RunSpec(task=TASK, kwargs={"x": i}) for i in range(3)]
    run_specs(specs, jobs=2, cache=cache)
    lines = []
    warm = run_specs(specs, jobs=2, cache=cache, progress=lines.append)
    assert all(r.cached for r in warm)
    assert all(line.startswith("cached ") for line in lines)
    assert cache.stats.hits == 3
