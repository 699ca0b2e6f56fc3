"""Parallel experiment fan-out with a content-addressed run cache.

Every sweep point, figure cell, resilience run and frontier cell is an
independent, sealed, deterministic simulation — which makes the
experiment layer embarrassingly parallel and perfectly memoisable.
This module provides both halves:

* **Fan-out** — :func:`run_specs` executes a list of :class:`RunSpec`
  tasks across CPU cores via ``concurrent.futures.ProcessPoolExecutor``
  and streams progress lines as futures complete.  ``jobs=1`` runs the
  tasks inline in the calling process, preserving the serial path
  exactly (no executor, no pickling).
* **Memoisation** — :class:`RunCache` is a content-addressed on-disk
  cache keyed on a digest of *(task callable path, canonicalised
  kwargs, seed, code fingerprint of the ``repro`` package)*.  Re-running
  ``aqua-repro all`` after an unrelated edit skips completed cells;
  editing any file under ``src/repro`` invalidates every entry (the
  blunt-but-sound rule: results may only be replayed against the exact
  code that produced them).

Determinism argument
--------------------
A task is a module-level callable plus JSON-canonicalisable kwargs plus
an optional integer seed.  Each simulation builds its own
:class:`~repro.sim.Environment` and derives all randomness from the
seed, so its result is a pure function of the spec — independent of
wall-clock time, host, process, and of *which other tasks run
concurrently*.  Parallel and serial executions therefore produce
byte-identical outputs, which ``tests/test_determinism_golden.py``
enforces on real experiment subsets.

Workers are spawn-safe by construction: the task travels as a
``"module:callable"`` string plus plain-data kwargs, and the worker
(:func:`_execute`) is itself a module-level function, so the pool works
under ``fork``, ``forkserver`` and ``spawn`` start methods alike.
"""

from __future__ import annotations

import hashlib
import importlib
import itertools
import json
import os
import pickle
import time
from concurrent.futures import ProcessPoolExecutor, as_completed
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Callable, Iterator, Optional, Sequence

from repro.telemetry.observing import Observation, observation_frame, observing

#: Default cache directory, relative to the current working directory.
DEFAULT_CACHE_DIR = ".aqua-cache"

#: Version salt folded into every cache key and derived seed; bump it
#: to invalidate all entries after a payload-format change.
_SALT = "aqua-repro-pool/v1"

#: On-disk payload schema marker (checked on load; mismatch = miss).
_PAYLOAD_SCHEMA = "aqua-repro-cache/v2"


def default_jobs() -> int:
    """The ``--jobs`` default: one worker per CPU this process may run
    on (``taskset`` and container CPU sets shrink the affinity mask)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0)) or 1
    return os.cpu_count() or 1


# ---------------------------------------------------------------------------
# Task abstraction
# ---------------------------------------------------------------------------
@dataclass
class RunSpec:
    """One independent simulation task.

    Parameters
    ----------
    task:
        ``"module:callable"`` path of a *module-level* callable — the
        spec must survive pickling into a spawn-started worker, so
        lambdas, closures and methods are rejected at resolve time.
    kwargs:
        Keyword arguments for the callable.  Must be JSON-canonicalisable
        (plain dicts/lists/strings/numbers/bools/None) so the cache key
        is well defined; pass model presets by registry *name* and
        resolve them inside the task.
    seed:
        Optional integer seed, passed to the callable as ``seed=``.
        Use :func:`derive_seed` to derive distinct deterministic seeds
        for families of related cells.
    label:
        Display name for progress lines (defaults to the callable name).
    """

    task: str
    kwargs: dict = field(default_factory=dict)
    seed: Optional[int] = None
    label: Optional[str] = None

    def __post_init__(self) -> None:
        if ":" not in self.task:
            raise ValueError(
                f"task must be a 'module:callable' path, got {self.task!r}"
            )
        canonical_kwargs(self.kwargs)  # raises TypeError early if not JSON-able
        if self.label is None:
            self.label = self.task.rsplit(":", 1)[1].lstrip("_")


@dataclass
class RunResult:
    """Outcome of one task: its value, cost, provenance and its rigs'
    observation exports (see :func:`repro.telemetry.observing`)."""

    spec: RunSpec
    value: object
    seconds: float  #: worker-side execution wall time (the *original* run's, when cached)
    cached: bool = False
    exports: list = field(default_factory=list)


def canonical_kwargs(kwargs: dict) -> str:
    """Canonical JSON form of a kwargs dict (sorted keys, no spaces).

    Raises ``TypeError`` when a value is not JSON-serialisable — specs
    must carry plain data so their cache keys are stable.
    """
    return json.dumps(kwargs, sort_keys=True, separators=(",", ":"))


def resolve_task(path: str) -> Callable:
    """Import and return the module-level callable named by ``path``."""
    module_name, _, attr = path.partition(":")
    module = importlib.import_module(module_name)
    try:
        fn = getattr(module, attr)
    except AttributeError:
        raise AttributeError(f"{module_name} has no callable {attr!r}") from None
    if not callable(fn):
        raise TypeError(f"{path} is not callable")
    return fn


def derive_seed(*parts) -> int:
    """Deterministic 32-bit seed from arbitrary labelling parts.

    ``derive_seed("frontier", "diurnal", 30.0, 4)`` is stable across processes,
    platforms and Python versions (it hashes the ``repr`` of each part),
    so per-cell seeds never depend on submission order.
    """
    h = hashlib.sha256(_SALT.encode())
    for part in parts:
        h.update(repr(part).encode())
        h.update(b"\0")
    return int.from_bytes(h.digest()[:4], "big")


# ---------------------------------------------------------------------------
# Code fingerprint + content-addressed cache
# ---------------------------------------------------------------------------
_fingerprint_cache: Optional[str] = None


def code_fingerprint(refresh: bool = False) -> str:
    """SHA-256 over every ``*.py`` file of the installed ``repro`` package.

    Any source change — even one that provably cannot affect a result —
    invalidates the cache.  That is deliberate: the cache must never be
    the reason a stale number survives a code change, and recomputing a
    cell is cheap compared to debugging one.
    """
    global _fingerprint_cache
    if _fingerprint_cache is not None and not refresh:
        return _fingerprint_cache
    import repro

    root = Path(repro.__file__).resolve().parent
    h = hashlib.sha256(b"aqua-repro-fingerprint/v1")
    for path in sorted(root.rglob("*.py")):
        h.update(str(path.relative_to(root)).encode())
        h.update(b"\0")
        h.update(path.read_bytes())
        h.update(b"\0")
    _fingerprint_cache = h.hexdigest()
    return _fingerprint_cache


@dataclass
class CacheStats:
    hits: int = 0
    misses: int = 0

    def to_dict(self) -> dict:
        return {"hits": self.hits, "misses": self.misses}


class RunCache:
    """Content-addressed on-disk cache of :class:`RunSpec` results.

    Entries live under ``cache_dir`` as ``<key>.pkl`` where ``key`` is
    :meth:`key`'s digest; payloads are pickles of a small dict carrying
    the value and the original run's wall seconds.  Every failure mode
    on the read side — missing file, truncated pickle, wrong schema,
    key mismatch — degrades to a miss and a re-run, never a crash; the
    write side is atomic (temp file + rename) and best-effort.
    """

    def __init__(
        self,
        cache_dir: str = DEFAULT_CACHE_DIR,
        fingerprint: Optional[str] = None,
    ) -> None:
        self.dir = Path(cache_dir)
        self.fingerprint = fingerprint or code_fingerprint()
        self.stats = CacheStats()

    def key(self, spec: RunSpec, observation: Optional[Observation] = None) -> str:
        """The content address: digest of task, kwargs, seed, code and,
        for an observed run, the observation settings."""
        h = hashlib.sha256(_SALT.encode())
        pieces = [spec.task, canonical_kwargs(spec.kwargs), repr(spec.seed), self.fingerprint]
        if observation:
            pieces.append(canonical_kwargs(asdict(observation)))
        for piece in pieces:
            h.update(piece.encode())
            h.update(b"\0")
        return h.hexdigest()

    def path(self, spec: RunSpec, observation: Optional[Observation] = None) -> Path:
        return self.dir / f"{self.key(spec, observation)}.pkl"

    def load(
        self, spec: RunSpec, observation: Optional[Observation] = None
    ) -> Optional[RunResult]:
        """Return the cached :class:`RunResult` or ``None`` (a miss).

        Corrupted or foreign entries are tolerated: any exception while
        reading or validating the payload counts as a miss.
        """
        path = self.path(spec, observation)
        try:
            with open(path, "rb") as fh:
                payload = pickle.load(fh)
            if payload["schema"] != _PAYLOAD_SCHEMA:
                raise ValueError(f"unknown payload schema {payload['schema']!r}")
            if payload["key"] != self.key(spec, observation):
                raise ValueError("cache entry key does not match its address")
            result = RunResult(
                spec=spec,
                value=payload["value"],
                seconds=float(payload["seconds"]),
                cached=True,
                exports=payload["exports"],
            )
        except Exception:
            self.stats.misses += 1
            return None
        self.stats.hits += 1
        return result

    def store(self, result: RunResult, observation: Optional[Observation] = None) -> None:
        """Persist a result (atomic, best-effort: IO errors are ignored)."""
        spec = result.spec
        payload = {
            "schema": _PAYLOAD_SCHEMA,
            "key": self.key(spec, observation),
            "task": spec.task,
            "kwargs": canonical_kwargs(spec.kwargs),
            "seed": spec.seed,
            "seconds": result.seconds,
            "value": result.value,
            "exports": result.exports,
        }
        path = self.path(spec, observation)
        tmp = path.with_suffix(f".tmp.{os.getpid()}")
        try:
            self.dir.mkdir(parents=True, exist_ok=True)
            with open(tmp, "wb") as fh:
                pickle.dump(payload, fh, protocol=pickle.HIGHEST_PROTOCOL)
            os.replace(tmp, path)
        except (OSError, pickle.PicklingError):
            try:
                tmp.unlink(missing_ok=True)
            except OSError:
                pass


# ---------------------------------------------------------------------------
# Execution engine
# ---------------------------------------------------------------------------
@contextmanager
def _fresh_ids() -> Iterator[None]:
    """Number a cell's requests and tensors from zero wherever it runs:
    the ids reach traces and dashboards, so they must not depend on what
    ran before in the same process (an inline cell, a reused worker)."""
    from repro.aqua import tensor as aqua_tensor
    from repro.memory import tensor as memory_tensor
    from repro.serving import request

    counters = [
        (request, "_REQUEST_IDS"),
        (memory_tensor, "_TENSOR_IDS"),
        (aqua_tensor, "_AQUA_TENSOR_IDS"),
    ]
    saved = [getattr(module, name) for module, name in counters]
    for module, name in counters:
        setattr(module, name, itertools.count())
    try:
        yield
    finally:
        for (module, name), counter in zip(counters, saved):
            setattr(module, name, counter)


def _execute(spec: RunSpec, observation: Optional[Observation]) -> RunResult:
    """Worker body: resolve the callable, run it observed, time it.

    Module-level (and fed only plain data) so it is valid under every
    multiprocessing start method, including ``spawn``.
    """
    fn = resolve_task(spec.task)
    call_kwargs = dict(spec.kwargs)
    if spec.seed is not None:
        call_kwargs["seed"] = spec.seed
    started = time.perf_counter()
    with _fresh_ids(), observing(observation, label=spec.label) as exports:
        value = fn(**call_kwargs)
    return RunResult(spec, value, time.perf_counter() - started, exports=exports)


def _mp_context():
    """Prefer ``fork`` (cheap workers); fall back to ``spawn``.

    Honour ``AQUA_POOL_START_METHOD`` so CI can force ``spawn`` and
    prove the workers really are spawn-safe.
    """
    import multiprocessing

    method = os.environ.get("AQUA_POOL_START_METHOD")
    if method is None:
        method = (
            "fork"
            if "fork" in multiprocessing.get_all_start_methods()
            else "spawn"
        )
    return multiprocessing.get_context(method)


def run_specs(
    specs: Sequence[RunSpec],
    jobs: Optional[int] = None,
    cache: Optional[RunCache] = None,
    progress: Optional[Callable[[str], None]] = None,
) -> list[RunResult]:
    """Run every spec; return results in *submission order*.

    ``jobs=None`` means :func:`default_jobs`; ``jobs=1`` executes the
    misses inline in this process (today's serial path, exactly);
    ``jobs>1`` fans them out over a process pool, streaming one
    progress line per completed future.  With a ``cache``, hits are
    returned without running anything and misses are stored after
    completion (in the parent process — workers never touch the disk).

    Inside :func:`~repro.telemetry.observing`, every cell runs observed
    with its settings (which join the cache key) and the cells' exports
    merge into the context in submission order, however they ran.

    A failing task raises its exception in the caller, like the serial
    path always has.
    """
    jobs = default_jobs() if jobs is None else max(1, int(jobs))
    say = progress if progress is not None else (lambda line: None)
    frame = observation_frame()
    observation = frame.settings if frame is not None else None
    results: list[Optional[RunResult]] = [None] * len(specs)

    pending: list[int] = []
    for i, spec in enumerate(specs):
        if cache is not None:
            hit = cache.load(spec, observation)
            if hit is not None:
                results[i] = hit
                say(f"cached {spec.label} (saved {hit.seconds:.2f}s)")
                continue
        pending.append(i)

    def finish(i: int, result: RunResult) -> None:
        if cache is not None:
            cache.store(result, observation)
        results[i] = result

    if jobs == 1 or len(pending) <= 1:
        for i in pending:
            say(f"running {specs[i].label}...")
            finish(i, _execute(specs[i], observation))
    else:
        workers = min(jobs, len(pending))
        with ProcessPoolExecutor(max_workers=workers, mp_context=_mp_context()) as pool:
            futures = {}
            for i in pending:
                say(f"running {specs[i].label}...")
                futures[pool.submit(_execute, specs[i], observation)] = i
            try:
                for done, future in enumerate(as_completed(futures), 1):
                    i = futures[future]
                    result = future.result()
                    result.spec = specs[i]  # the caller's object, not a copy
                    finish(i, result)
                    say(
                        f"finished {specs[i].label} in {result.seconds:.2f}s "
                        f"[{done}/{len(pending)}]"
                    )
            except BaseException:
                for future in futures:
                    future.cancel()
                raise
    if frame is not None:
        for result in results:
            frame.merge(result.exports)
    return results  # type: ignore[return-value]
