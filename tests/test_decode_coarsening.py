"""Exact decode windows: the vLLM engine fuses only quiet decode steps.

A window runs ``k`` decode steps of the running batch on one compute
grant and one wake at ``t_k``.  Steps ``1 … k−1`` are *quiet*: the
step-by-step path would pass their ends without deciding anything, so
they are accounted at the window's start with their own clocks, stamps
and blocks, and step ``k`` runs the per-step bookkeeping.  There is no
knob; ``decode_coarsen`` accepts only 1.

Each condition that ends a window has a case here, checked against the
step-loop reference (``tests/vllm_reference.py``) or against the
per-step path itself, which a per-event monitor forces (windows never
open under one).  Each case also asserts that windows really were open
around the boundary, and one guard fails if the engine stops fusing.
A cost guard fails if a window's Python work grows with the batch, for
vLLM and for Orca, which runs the same windowed step.
"""

import dataclasses
import gc
import hashlib
import sys
from pathlib import Path

import pytest

import repro.memory
import repro.serving
import repro.telemetry
from repro.aqua import AquaLib, Coordinator, LlmInformer
from repro.audit import ConservationAuditor
from repro.experiments.harness import build_consumer_rig
from repro.hardware import Server
from repro.models import CODELLAMA_34B, MISTRAL_7B, SD_15
from repro.models.llm import LLMSpec
from repro.serving import BatchEngine, Request, VLLMEngine
from repro.sim import Environment
from repro.telemetry import Telemetry
from repro.workloads.arrivals import submit_all
from repro.workloads.sharegpt import sharegpt_requests
from tests.test_vllm_oracle import (
    RecordingEngine,
    RecordingOrca,
    assert_matches,
    run_reference,
)
from tests.token_times import token_times
from tests.vllm_reference import Reference


def closed_batch(n, prompt=100, gen=40):
    """All arrivals at t=0 with equal lengths."""
    return [(0.0, prompt, gen)] * n


def sharegpt_trace(**kwargs):
    return [
        (r.arrival_time, r.prompt_tokens, r.max_new_tokens)
        for r in sharegpt_requests(**kwargs)
    ]


def fused_steps(engine):
    """Decode steps that ran inside windows."""
    return sum(k for _, k in engine.windows)


def per_step(env):
    """Force the per-step path: no window opens under a per-event monitor."""
    env.add_monitor(lambda now: None)


# ---------------------------------------------------------------------------
# Windows are exact
# ---------------------------------------------------------------------------
def test_vllm_coarsened_run_matches_exact_run():
    ref, engine = assert_matches({}, closed_batch(12))
    # Most of the run is fused: that is the payoff.
    assert fused_steps(engine) > len(ref.step_ends) / 2


def test_vllm_coarsening_with_open_arrivals_still_completes():
    trace = sharegpt_trace(rate=5, count=20, seed=3)
    ref, engine = assert_matches({}, trace)
    assert len(ref.completed) == 20
    assert engine.windows


def test_vllm_window_clamps_to_remaining_tokens():
    """A window never runs past a completion: step ``k`` is at latest
    the step that completes the first sequence."""
    ref, engine = assert_matches({}, closed_batch(4, gen=5))
    assert engine.metrics.tokens_generated == 20
    # Prefill emits token 1, so 4 decode steps remain: one window.
    assert [k for _, k in engine.windows] == [4]


def test_vllm_preemption_survives_coarsening():
    """KV exhaustion mid-run: a window stops before any step that would
    preempt, so the preempt/resume machinery sees every shortfall."""
    trace = [(0.0, 2000, 4000)] * 10
    ref, engine = assert_matches({"model": CODELLAMA_34B}, trace, horizon=1200.0)
    assert ref.preempted and engine.windows


def test_harness_defaults_stay_exact():
    """Rigs built by the harness decode exactly like the reference."""
    rig = build_consumer_rig("vllm", MISTRAL_7B, use_aqua=False)
    engine = rig.consumer_engine
    trace = sharegpt_trace(rate=8, count=20, seed=4)
    ref = Reference(
        engine.model,
        engine.server,
        engine.gpu,
        engine.allocator._free,
        engine.kv.block_tokens,
        engine.max_batch,
        "recompute",
    )
    ref.run(trace)
    requests = [Request(*spec) for spec in trace]
    rig.start()
    submit_all(rig.env, engine, requests)
    rig.env.run(until=120.0)
    assert [(r.generated_tokens, r.first_token_time, r.finish_time) for r in requests] == [
        (s.generated, s.first, s.finish) for s in sorted(ref.completed, key=lambda s: s.index)
    ]
    assert token_times(engine.metrics) == ref.token_times


def test_invalid_decode_coarsen_rejected():
    env = Environment()
    server = Server(env, n_gpus=1)
    for k in (0, 4):
        with pytest.raises(ValueError, match="decode_coarsen"):
            VLLMEngine(server.gpus[0], server, MISTRAL_7B, decode_coarsen=k)


# ---------------------------------------------------------------------------
# One case per stop condition
# ---------------------------------------------------------------------------
def test_arrival_on_an_interior_step_end_ends_the_window():
    trace = closed_batch(4, gen=60)
    ref, _ = run_reference({}, trace)
    landing = ref.step_ends[20]
    _, engine = assert_matches({}, [*trace, (landing, 50, 10)])
    # The window that would have run past the arrival ends on it.
    assert landing in {end for end, k in engine.windows}


def test_kv_shortfall_ends_the_window():
    """Blocks run out mid-window: the window ends on the step that
    preempts."""
    rig = {"utilization": 0.188}  # 27 blocks
    ref, engine = assert_matches(rig, closed_batch(4, prompt=90, gen=100))
    assert ref.preempted
    first_shortfall = ref.preempted[0][0]
    assert first_shortfall in {end for end, k in engine.windows}


def test_float_guard_shortens_the_window():
    """Right after t=0 one wake ``t_0 + (t_k − t_0)`` can miss ``t_k``
    by an ulp; the window then shrinks until it lands exactly."""
    trace = [(0.0, 1, 5)]
    ref, engine = assert_matches({}, trace)
    t0, t4 = ref.token_times[0], ref.step_ends[3]
    assert t0 + (t4 - t0) != t4  # the full 4-step window would miss
    assert [k for _, k in engine.windows] == [3]


def chunked_run(windows):
    """Run in 0.37 s slices, reading the engine between them and
    submitting one more request from outside at 1.11 s."""
    env = Environment()
    if not windows:
        per_step(env)
    server = Server(env, n_gpus=1)
    engine = RecordingEngine(server.gpus[0], server, MISTRAL_7B)
    engine.start()
    requests = sharegpt_requests(rate=4, count=8, seed=1)
    submit_all(env, engine, requests)
    seen = []
    for i in range(1, 40):
        env.run(until=0.37 * i)
        if i == 3:
            late = Request(arrival_time=env.now, prompt_tokens=300, max_new_tokens=50)
            engine.submit(late)
            requests.append(late)
        seen.append(
            (engine.metrics.tokens_generated, [r.generated_tokens for r in requests])
        )
    return engine, seen, [(r.first_token_time, r.finish_time) for r in requests]


def test_run_stop_time_ends_the_window():
    """``env.run(until=T)`` hands the world to its caller at ``T``: no
    window accounts a step past it, and what the caller submits then
    lands as it would between single steps."""
    fused, fused_seen, fused_times = chunked_run(windows=True)
    stepped, stepped_seen, stepped_times = chunked_run(windows=False)
    assert fused.windows and not stepped.windows
    assert fused_seen == stepped_seen
    assert fused_times == stepped_times
    assert token_times(fused.metrics) == token_times(stepped.metrics)


class ProducerEngine(RecordingEngine):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.ticks = []

    def producer_tick(self):
        self.ticks.append((self.env.now, self.iteration))
        yield from super().producer_tick()


def producer_run(windows):
    """A vLLM producer informing AQUA every 4 iterations, donating KV."""
    env = Environment()
    if not windows:
        per_step(env)
    server = Server(env, n_gpus=2)
    lib = AquaLib(server.gpus[0], server, Coordinator(), informer=LlmInformer())
    engine = ProducerEngine(
        server.gpus[0], server, MISTRAL_7B, aqua_lib=lib, inform_every=4
    )
    engine.start()
    requests = sharegpt_requests(rate=6, count=30, seed=2)
    submit_all(env, engine, requests)
    env.run(until=30.0)
    transcript = [(r.generated_tokens, r.first_token_time, r.finish_time) for r in requests]
    return engine, transcript


def test_windows_stop_at_producer_informs():
    fused, fused_transcript = producer_run(windows=True)
    stepped, stepped_transcript = producer_run(windows=False)
    assert fused.windows and not stepped.windows
    assert fused.ticks == stepped.ticks
    assert fused_transcript == stepped_transcript
    assert token_times(fused.metrics) == token_times(stepped.metrics)
    assert fused.allocator._free == stepped.allocator._free


class ContendedEngine(RecordingEngine):
    """Counts decode steps that found the GPU busy."""

    contended = 0

    def _decode_step(self):
        self.contended += bool(self.gpu.compute.users)
        yield from super()._decode_step()


def colocated_run(windows):
    """A vLLM engine sharing its GPU's compute queue with a diffusion
    engine, so decode steps often queue behind a batch."""
    env = Environment()
    if not windows:
        per_step(env)
    server = Server(env, n_gpus=1)
    gpu = server.gpus[0]
    engine = ContendedEngine(gpu, server, MISTRAL_7B, utilization=0.5)
    images = BatchEngine(gpu, server, SD_15, batch_size=2)
    engine.start()
    images.start()
    requests = sharegpt_requests(rate=6, count=20, seed=6)
    jobs = [Request(arrival_time=0.5 * i, prompt_tokens=1, max_new_tokens=1) for i in range(30)]
    submit_all(env, engine, requests)
    submit_all(env, images, jobs)
    env.run(until=30.0)
    return engine, [
        (r.generated_tokens, r.first_token_time, r.finish_time) for r in requests + jobs
    ]


def test_compute_waiter_ends_the_window():
    """Decode steps that queue behind the diffusion batches open no
    window.  (Today the horizon already rules them out: the holder's
    wake is a pending event.)"""
    fused, fused_transcript = colocated_run(windows=True)
    stepped, stepped_transcript = colocated_run(windows=False)
    assert fused.windows and fused.contended
    assert fused_transcript == stepped_transcript
    assert token_times(fused.metrics) == token_times(stepped.metrics)


#: Per-event audit of a vLLM run: one record per event, so it pins how
#: many events the run takes as well as what it produces.  Recorded
#: with free compute slots held at once (no grant event), with
#: INSTANT_DIGEST unchanged.  The run never preempts.
AUDIT_DIGEST = "c875ab548186c0445fb9254077b75f44391421a803017f00afb703362d7f0cfa"
#: Events the per-event audited run may process: each decode step and
#: each kernel costs its end, not a grant as well.
AUDIT_EVENT_BUDGET = 585


#: What the per-event audited run produces, one record per simulated
#: instant.  It pins behaviour, not cost: how many events an instant
#: takes to reach its state does not enter it.
INSTANT_DIGEST = "79f430378988edc66a2db2d629e4acbeecb566fdbdd2c5777f1288b4c8de6355"
INSTANTS = 495


class InstantDigest:
    """A per-event monitor that folds, for each distinct simulated
    instant, the state after that instant's last event: the auditor's
    violation count, the GPU's HBM reservations and busy time, the
    allocator's free blocks, and every request's progress."""

    def __init__(self, env, auditor, engine, requests):
        self.auditor = auditor
        self.engine = engine
        self.requests = requests
        self.instants = 0
        self._sha = hashlib.sha256()
        self._time = None
        self._state = None
        env.add_monitor(self._on_event)

    def _on_event(self, now):
        if self._state is not None and now != self._time:
            self._fold()
        self._time = now
        gpu = self.engine.gpu
        self._state = repr((
            now,
            len(self.auditor.violations),
            sorted(gpu.hbm.reservations.items()),
            gpu.busy_time,
            self.engine.allocator._free,
            [(r.generated_tokens, r.first_token_time, r.finish_time) for r in self.requests],
        ))

    def _fold(self):
        self._sha.update(self._state.encode() + b"\n")
        self._state = None
        self.instants += 1

    @property
    def digest(self):
        if self._state is not None:
            self._fold()
        return self._sha.hexdigest()


def audited_run(per_event):
    env = Environment()
    server = Server(env, n_gpus=1)
    auditor = ConservationAuditor(env).attach_server(server)
    engine = RecordingEngine(server.gpus[0], server, MISTRAL_7B, utilization=0.2)
    requests = sharegpt_requests(rate=8.0, count=16, seed=5)
    instants = None
    if per_event:
        auditor.watch(interval=None)
        instants = InstantDigest(env, auditor, engine, requests)
    engine.start()
    submit_all(env, engine, requests)
    env.run(until=15.0)
    return env, engine, auditor, instants


def test_per_event_audit_sees_every_step():
    env, engine, auditor, instants = audited_run(per_event=True)
    assert not engine.windows
    assert auditor.checks == env.events_processed
    assert auditor.digest == AUDIT_DIGEST
    assert (instants.digest, instants.instants) == (INSTANT_DIGEST, INSTANTS)
    assert env.events_processed <= AUDIT_EVENT_BUDGET
    assert engine.preemptions == 0
    # The same run without the monitor does fuse.
    bare_env, bare, _, _ = audited_run(per_event=False)
    assert bare.windows and bare_env.events_processed < env.events_processed


# ---------------------------------------------------------------------------
# Engaged guard
# ---------------------------------------------------------------------------
class CountingEngine(RecordingEngine):
    grants = 0

    def _decode_step(self):
        self.grants += 1
        yield from super()._decode_step()


def test_windows_stay_engaged_on_an_open_loop_drain():
    """A rule that silently stops fusing fails here: on a small
    open-loop burst drained at the batch limit, decode takes fewer than
    half as many compute grants as it runs steps."""
    env = Environment()
    server = Server(env, n_gpus=1)
    engine = CountingEngine(server.gpus[0], server, MISTRAL_7B)
    engine.start()
    requests = sharegpt_requests(rate=40.0, count=150, seed=0)
    submit_all(env, engine, requests)
    env.run(until=60.0)
    assert all(r.done for r in requests)
    passes = engine.grants + sum(k - 1 for _, k in engine.windows)
    assert engine.grants < passes / 2, (engine.grants, passes)


# ---------------------------------------------------------------------------
# Cost guard
# ---------------------------------------------------------------------------
class FixedPace(LLMSpec):
    """An LLM whose prefill and decode steps take fixed times, whatever
    the batch, so batches of any size run the same windows."""

    def prefill_time(self, gpu, n_tokens):
        return 0.1

    def decode_step_time(self, gpu, batch_size, context_tokens):
        return 0.01


PACED = FixedPace(
    **{f.name: getattr(MISTRAL_7B, f.name) for f in dataclasses.fields(MISTRAL_7B)}
)

#: Source directories whose executed lines the guard counts.
COUNTED = tuple(
    str(Path(package.__file__).parent) for package in (repro.serving, repro.memory)
)
#: With telemetry on, the hub's code is counted too.
COUNTED_TELEMETRY = COUNTED + (str(Path(repro.telemetry.__file__).parent),)


def traced_lines(run, counted=COUNTED) -> int:
    """Python line events ``run()`` executes in ``counted`` code.

    Garbage is collected first and the collector stays off while
    ``run()`` is traced: closing another test's suspended engine
    generator would otherwise add its ``with`` exit lines to the
    count whenever a collection happens to fall inside ``run()``."""
    lines = 0

    def local(frame, event, arg):
        nonlocal lines
        lines += event == "line"
        return local

    def called(frame, event, arg):
        return local if frame.f_code.co_filename.startswith(counted) else None

    gc.collect()
    gc.disable()
    sys.settrace(called)
    try:
        run()
    finally:
        sys.settrace(None)
        gc.enable()
    return lines


def window_lines(engine_cls, batch, telemetry=False):
    """Lines one decode step plus one window cost for a ``batch``-sized
    batch whose prompts all sit one token past a block boundary (the
    next crossing is 15 steps away) and whose outputs are far off.
    With ``telemetry`` the engine reports to a hub, whose lines count."""
    env = Environment()
    server = Server(env, n_gpus=1)
    if telemetry:
        Telemetry(env).attach_server(server)
    engine = engine_cls(server.gpus[0], server, PACED, max_batch=batch)
    engine.start()
    for _ in range(batch):
        engine.submit(Request(arrival_time=0.0, prompt_tokens=161, max_new_tokens=200))
    # Prefill ends at 0.1; the first decode step, cut short by this
    # stop, ends at 0.11.  The traced run finishes it, then opens a
    # window at 0.11 whose steps run to the stop at 0.205.
    env.run(until=0.105)
    assert len(engine.running) == batch and not engine.windows
    counted = COUNTED_TELEMETRY if telemetry else COUNTED
    lines = traced_lines(lambda: env.run(until=0.205), counted)
    assert [k for _, k in engine.windows] == [10]
    assert engine.metrics.tokens_generated == batch * 11
    return lines


@pytest.mark.parametrize(
    "engine_cls, telemetry",
    [
        (RecordingEngine, False),
        (RecordingOrca, False),
        (RecordingEngine, True),
        (RecordingOrca, True),
    ],
    ids=["vllm", "orca", "vllm-telemetry", "orca-telemetry"],
)
def test_window_cost_does_not_grow_with_the_batch(engine_cls, telemetry):
    """A window that neither completes nor crosses a block executes as
    many lines in the serving and memory layers at batch 8 as at batch
    128: per-sequence work cannot creep back into the decode path.
    Orca's reservations never cross a block; it opens the same window.
    With telemetry on, the hub's lines count too: decode attribution
    appends to the engine's step log and visits no sequence."""
    assert window_lines(engine_cls, 8, telemetry) == window_lines(
        engine_cls, 128, telemetry
    )
