"""Differential test: ``VLLMEngine``, ``OrcaEngine`` and ``CFSEngine``
against a step-loop reference.

``tests/vllm_reference.py`` restates vLLM continuous batching as a plain
loop with no simulation kernel.  Hypothesis draws small traces --
arrival times on a coarse grid (so some tie), prompt and output
lengths, a KV cache small enough to force preemption, the block size,
the batch limit -- and places extra arrivals exactly on the end of a
decode step.  The engine and the reference must then agree exactly on:

* every request's generated count, first-token and finish time (as
  ``repr``, so not merely to float precision);
* the token times (one per token), the completion order and the rejected
  prompts;
* the preemption sequence (time and victim);
* the allocator's free list at the end.

``OrcaEngine`` runs against the reference's ``"orca"`` mode on the same
traces, and ``CFSEngine`` (DRAM context switches) against its ``"cfs"``
mode with a drawn slice length; for CFS the preemption sequence is the
swap-outs of its context switches and the rejected prompts are the
queue heads it drops.  A second draw runs batches of up to 64 sequences
in all three modes, with shared output lengths and prompt block phases,
so that many completions and many block crossings land on one step.

The tier-1 budget is small; ``--hypothesis-profile=ci`` (registered in
``tests/conftest.py``) raises it.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.hardware import Server
from repro.models import MISTRAL_7B
from repro.serving import CFSEngine, OrcaEngine, Request, VLLMEngine
from repro.sim import Environment
from repro.workloads.arrivals import submit_all
from tests.token_times import token_times
from tests.vllm_reference import Reference

#: Examples per engine mode.
EXAMPLES = (
    settings.default.max_examples
    if settings.get_current_profile_name() == "ci"
    else 20
)

#: Simulated seconds the engine runs; every trace drains well before
#: it (asserted on the reference's clock).
HORIZON = 200.0

#: KV budgets of 27 to 109 blocks of 16 tokens (432 to 1,744 tokens)
#: on an A100-80G: small enough that most traces preempt, and some
#: prompts do not fit at all.
UTILIZATIONS = (0.188, 0.1885, 0.189, 0.19)


class RecordingEngine(VLLMEngine):
    """Logs each preemption as ``(time it started, victim index)`` and
    each decode window as ``(t_k, k)`` when ``k > 1``."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.preempted = []
        self.windows = []

    def _preempt_for(self, needy):
        before = list(self.running)
        super()._preempt_for(needy)
        self.preempted += [
            (self.env.now, r.req_id) for r in before if r not in self.running
        ]

    def _quiet_steps(self, batch, started, ends):
        self.windows.append((ends[-1], len(ends)))
        super()._quiet_steps(batch, started, ends)


class RecordingOrca(RecordingEngine, OrcaEngine):
    """An Orca engine's logs; its preemption log stays empty."""


class RecordingCFS(CFSEngine):
    """Logs each context switch's swap-outs as ``(time it started,
    index)`` and each queue head an empty round drops."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.preempted = []
        self.rejected = []

    def _swap_out(self, request):
        self.preempted.append((self.env.now, request.req_id))
        yield from super()._swap_out(request)

    def _evict_oversized(self):
        if self.waiting:
            self.rejected.append(self.waiting[0])
        super()._evict_oversized()


ENGINES = {"orca": RecordingOrca, "cfs": RecordingCFS}


def build(rig, start=0.0, env=None):
    """An engine on a fresh one-GPU server, in a fresh environment or
    ``env``; ``rig`` holds its keyword arguments (``model`` defaults to
    Mistral-7B) and ``engine`` names the reference mode of an Orca or
    CFS engine (default vLLM)."""
    kwargs = dict(rig)
    model = kwargs.pop("model", MISTRAL_7B)
    cls = ENGINES.get(kwargs.pop("engine", None), RecordingEngine)
    server = Server(env or Environment(start), n_gpus=1)
    return cls(server.gpus[0], server, model, **kwargs)


def run_reference(rig, trace, start=0.0, horizon=HORIZON):
    engine = build(rig, start)
    ref = Reference(
        engine.model,
        engine.server,
        engine.gpu,
        engine.allocator._free,
        engine.kv.block_tokens,
        engine.max_batch,
        rig.get("engine", "recompute"),
        start=start,
        slice_tokens=getattr(engine, "slice_tokens", None),
    )
    seqs = ref.run(trace)
    assert ref.now < start + horizon
    return ref, {
        "requests": [(s.generated, repr(s.first), repr(s.finish)) for s in seqs],
        "token_times": [repr(t) for t in ref.token_times],
        "completed": [s.index for s in ref.completed],
        "rejected": [s.index for s in ref.rejected],
        "preempted": [(repr(t), i) for t, i in ref.preempted],
        "free": ref.free,
    }


def start_engine(engine, trace):
    """Start ``engine`` and submit ``trace``; returns its requests."""
    engine.start()
    requests = [Request(a, p, m) for a, p, m in trace]
    for i, request in enumerate(requests):
        request.req_id = i
    submit_all(engine.env, engine, requests)
    return requests


def run_engine(rig, trace, start=0.0, horizon=HORIZON):
    engine = build(rig, start)
    requests = start_engine(engine, trace)
    engine.env.run(until=start + horizon)
    return engine, outcome(engine, requests)


def outcome(engine, requests):
    """What the oracle compares of a finished engine run."""
    return {
        "requests": [
            (r.generated_tokens, repr(r.first_token_time), repr(r.finish_time))
            for r in requests
        ],
        "token_times": [repr(t) for t in token_times(engine.metrics)],
        "completed": [r.req_id for r in engine.metrics.completed],
        "rejected": [r.req_id for r in engine.rejected],
        "preempted": [(repr(t), i) for t, i in engine.preempted],
        "free": list(engine.allocator._free),
    }


def assert_same(got, want):
    for key in want:
        assert got[key] == want[key], f"{key} diverged from the reference"


def assert_matches(rig, trace, start=0.0, horizon=HORIZON):
    """Run both from ``start`` and compare; returns both for further
    checks."""
    ref, want = run_reference(rig, trace, start, horizon)
    engine, got = run_engine(rig, trace, start, horizon)
    assert_same(got, want)
    return ref, engine


requests = st.tuples(
    st.integers(0, 20).map(lambda i: i * 0.05),  # a coarse grid: ties
    st.integers(1, 500),
    st.integers(1, 200),
)


def draw_rig(data, **extra):
    return {
        "utilization": data.draw(st.sampled_from(UTILIZATIONS)),
        "block_tokens": data.draw(st.sampled_from([1, 4, 16])),
        "max_batch": data.draw(st.integers(1, 12)),
        **extra,
    }


def draw_trace(data, rig):
    """A drawn trace plus up to three arrivals exactly on step ends."""
    trace = data.draw(st.lists(requests, min_size=2, max_size=10))
    # Extra arrivals exactly at decode-step ends.  Arrivals only affect
    # the schedule after they land, so each chosen end is still a step
    # end once the later extras are added.
    floor = 0.0
    for _ in range(data.draw(st.integers(0, 3))):
        ref, _ = run_reference(rig, trace)
        ends = [t for t in ref.step_ends if t >= floor]
        if not ends:
            break
        floor = data.draw(st.sampled_from(ends))
        prompt, max_new = data.draw(requests)[1:]
        trace.append((floor, prompt, max_new))
    return trace


#: KV budgets of 109 to about 930 blocks of 16 tokens: from heavy
#: preemption of a 64-sequence batch to none at all.
LARGE_UTILIZATIONS = (0.19, 0.195, 0.2, 0.21)


def draw_large(data, **extra):
    """A rig and trace with up to 64 sequences running at once.

    Arrivals land on a few instants, output lengths come from a short
    list (so many sequences complete on one step) and every prompt
    shares one block phase (so many sequences cross a block boundary on
    one step)."""
    block_tokens = data.draw(st.sampled_from([1, 4, 16]))
    rig = {
        "utilization": data.draw(st.sampled_from(LARGE_UTILIZATIONS)),
        "block_tokens": block_tokens,
        "max_batch": data.draw(st.integers(16, 64)),
        **extra,
    }
    phase = data.draw(st.integers(1, block_tokens))
    outputs = data.draw(st.lists(st.integers(1, 120), min_size=1, max_size=3))
    trace = data.draw(
        st.lists(
            st.tuples(
                st.integers(0, 3).map(lambda i: i * 0.1),
                st.integers(0, 200 // block_tokens).map(
                    lambda m: m * block_tokens + phase
                ),
                st.sampled_from(outputs),
            ),
            min_size=16,
            max_size=64,
        )
    )
    return rig, trace


oracle_settings = settings(
    max_examples=EXAMPLES,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

large_settings = settings(
    max_examples=max(EXAMPLES // 2, 10),
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


@oracle_settings
@given(data=st.data())
def test_engine_matches_reference(data):
    rig = draw_rig(data)
    assert_matches(rig, draw_trace(data, rig))


@oracle_settings
@given(data=st.data())
def test_orca_matches_reference(data):
    """Worst-case reservations: admission, rejection, completion order
    and the free list follow ``prompt + max_new`` blocks per request."""
    rig = draw_rig(data, engine="orca")
    assert_matches(rig, draw_trace(data, rig))


@oracle_settings
@given(data=st.data())
def test_cfs_matches_reference(data):
    """Slices, DRAM context switches (swap-out, then swap-in), rounds
    that prefill new prompts, and the evictions of empty rounds."""
    rig = draw_rig(data, engine="cfs", slice_tokens=data.draw(st.integers(1, 8)))
    assert_matches(rig, draw_trace(data, rig))


@oracle_settings
@given(data=st.data())
def test_engines_sharing_an_environment_match_the_reference(data):
    """Two to four engines of any mode, each on a server of its own in
    one environment.  Each server's GPU is a domain of its own, so an
    engine's windows run past the others' events; each engine must
    still match the reference run alone."""
    env = Environment()
    runs = []
    for _ in range(data.draw(st.integers(2, 4))):
        mode = data.draw(st.sampled_from(["recompute", "orca", "cfs"]))
        extra = {} if mode == "recompute" else {"engine": mode}
        if mode == "cfs":
            extra["slice_tokens"] = data.draw(st.integers(1, 8))
        rig = draw_rig(data, **extra)
        trace = draw_trace(data, rig)
        engine = build(rig, env=env)
        runs.append((rig, trace, engine, start_engine(engine, trace)))
    env.run(until=HORIZON)
    for rig, trace, engine, requests in runs:
        assert_same(outcome(engine, requests), run_reference(rig, trace)[1])


@pytest.mark.parametrize("mode", ["recompute", "orca", "cfs"])
@large_settings
@given(data=st.data())
def test_large_batches_match_reference(mode, data):
    """Batches of up to 64 sequences, with many completions and many
    block crossings landing on the same step."""
    if mode == "orca":
        extra = {"engine": mode}
    elif mode == "cfs":
        extra = {"engine": mode, "slice_tokens": data.draw(st.integers(1, 8))}
    else:
        extra = {}
    assert_matches(*draw_large(data, **extra))
