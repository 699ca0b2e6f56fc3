"""Per-token transcript lockdown for the decode-loop engines.

The golden audit digest (``tests/test_determinism_golden.py``) pins the
event stream of one offloading rig, but it cannot see a token stamped at
the wrong simulated time, a completion reordered, or a block returned to
the free list in a different order.  These digests can: each one hashes
the full transcript of a KV-starved run that is forced through
preemption, context switching (swapping) and aborts:

* every request's ``(req_id, generated_tokens, first_token_time,
  finish_time)``;
* the engine's token times (one per token), its completion order and its
  preemption count;
* the allocator's free list at the end of the run.

The constants were recorded before the engines' per-token bookkeeping
was rewritten for speed and must never be updated to make an engine
change pass: a mismatch means simulated behaviour moved.
"""

import hashlib
import json
import random

import pytest

from repro.hardware import Server
from repro.models import MISTRAL_7B
from repro.serving import CFSEngine, OrcaEngine, Request, VLLMEngine
from repro.sim import Environment
from repro.workloads.arrivals import submit_all
from tests.token_times import token_times

#: KV budget of 519 blocks (8,304 tokens) for Mistral-7B on an A100-80G:
#: well under the trace's peak demand, so every rig runs KV-starved.
UTILIZATION = 0.2

HORIZON = 60.0


def starved_trace(seed=11, n=32):
    """Staggered arrivals whose combined KV demand is ~3x the cache.

    The last request alone outgrows the cache mid-generation, so the
    vLLM rigs also take the "nothing left to preempt" abort path.
    """
    rng = random.Random(seed)
    requests = [
        Request(
            arrival_time=round(rng.uniform(0.0, 4.0), 3),
            prompt_tokens=rng.randint(100, 600),
            max_new_tokens=rng.randint(60, 500),
        )
        for _ in range(n)
    ]
    requests.append(Request(arrival_time=6.0, prompt_tokens=7900, max_new_tokens=900))
    return requests


def transcript_digest(engine, requests):
    metrics = engine.metrics
    transcript = {
        "requests": [
            [r.req_id, r.generated_tokens, repr(r.first_token_time), repr(r.finish_time)]
            for r in requests
        ],
        "token_times": [repr(t) for t in token_times(metrics)],
        "completed": [r.req_id for r in metrics.completed],
        "preemptions": getattr(engine, "preemptions", None),
        "free_list": list(engine.allocator._free),
    }
    blob = json.dumps(transcript, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()


def run_rig(engine_cls, **kwargs):
    env = Environment()
    server = Server(env, n_gpus=1)
    engine = engine_cls(
        server.gpus[0], server, MISTRAL_7B, utilization=UTILIZATION, **kwargs
    )
    engine.start()
    requests = starved_trace()
    # Request ids come from a process-wide counter; renumber so the
    # digest does not depend on which tests ran first.
    for i, request in enumerate(requests):
        request.req_id = i
    submit_all(env, engine, requests)
    env.run(until=HORIZON)
    return engine, requests


RIGS = {
    "vllm-recompute-k1": (VLLMEngine, dict()),
    "orca": (OrcaEngine, dict()),
    "cfs": (CFSEngine, dict(slice_tokens=5, use_aqua=False)),
}

#: Recorded before the one-pass decode bookkeeping landed.
TRANSCRIPT_DIGESTS = {
    "vllm-recompute-k1": "d4ed1f7696135b252c384836eecbf3e3e095bdd622002be21f1ee2d4f9dc1b8b",
    "orca": "3b5c4664321d07b21321f4908e0d30b61453ca1c97f6093e168e67da1e81b6aa",
    "cfs": "e278b02a566f7573fb16edbd05cf77fba0b269957a1e5f01f629cdbd357ceed8",
}


@pytest.mark.parametrize("rig", sorted(RIGS))
def test_transcript_digest_is_pinned(rig):
    engine_cls, kwargs = RIGS[rig]
    engine, requests = run_rig(engine_cls, **kwargs)
    # Non-vacuous: the rig really was starved and really finished.
    # (Orca's worst-case reservation rejects the oversized request.)
    rejected = getattr(engine, "rejected", [])
    assert all(r.done or r in rejected for r in requests)
    assert len(rejected) == (1 if isinstance(engine, OrcaEngine) else 0)
    if type(engine) is VLLMEngine:
        assert engine.preemptions > 0
    digest = transcript_digest(engine, requests)
    assert digest == TRANSCRIPT_DIGESTS[rig], (
        f"{rig}: per-token transcript diverged\n"
        f"  got      {digest}\n  expected {TRANSCRIPT_DIGESTS[rig]}"
    )
