"""Per-token transcript lockdown for the offloading long-prompt engines.

The golden audit digest (``tests/test_determinism_golden.py``) pins one
2-GPU FlexGen rig.  These digests cover the offload paths it misses:

* the 8-GPU NVSwitch rig of Figure 18 and of the ``offload`` bench
  workload — four FlexGen consumers, each paired with a producer;
* a DeepSpeed-style engine (synchronous context I/O) and a UVM-style
  engine (page-granular migration), each paired with a producer over
  the 2-GPU p2p NVLink.

Each rig is hashed three ways: the per-token transcript (each engine's
token times, one entry per token, and each request's token count, first
token and finish time), the conservation auditor's transfer digest (every
transfer's time, route, size and duration) and the latency-attribution
report of the server's hub.  The constants were recorded before the
decode step was cut to one child process, and are unedited since the
decode kernel became a ``GPU.launch`` with no process at all and free
DMA channels stopped costing a grant event.  The one exception is the
NVSwitch attribution digest, re-recorded when the four pairs came to
share their server's hub instead of hashing four per-rig reports: its
request rows are theirs merged by request id.  They must never be
updated to make an engine change pass: a mismatch means simulated
behaviour moved.
"""

import hashlib
import itertools
import json

import pytest

import repro.aqua.tensor
import repro.serving.request
from repro.aqua import AquaLib, BatchInformer, Coordinator
from repro.audit import ConservationAuditor
from repro.experiments.harness import build_consumer_rig
from repro.hardware import Server
from repro.models import AUDIOGEN, KANDINSKY, OPT_30B, SD_15, SD_XL
from repro.serving import BatchEngine, DeepSpeedEngine, UVMEngine
from repro.sim import Environment
from repro.telemetry import Telemetry
from repro.workloads.arrivals import submit_all
from repro.workloads.longprompt import long_prompt_requests
from tests.token_times import token_times

#: Producers donate for this long before the long prompts arrive.
WARM_UP = 1.0

#: Simulated seconds each rig runs after the warm-up.
HORIZON = 60.0

#: Three back-to-back 8,000-token prompts per consumer.  Each generates
#: a token count that is not a multiple of the AQUA ``respond_every``
#: cadence (16).  At least
#: two jobs per consumer finish inside the horizon (the attribution
#: report covers finished requests only); on the NVSwitch rig the third
#: is still decoding when the run stops.  The p2p engines decode more
#: slowly, so their jobs are shorter.
NVSWITCH_JOBS = dict(count=3, max_new_tokens=330)
P2P_JOBS = dict(count=3, max_new_tokens=70)

#: Ceiling on simulation events per generated token on the NVSwitch rig
#: (a bound on the decode step's event budget, not a pinned count).
#: The rig measures 4.03: idle producers sleep instead of polling.
MAX_EVENTS_PER_TOKEN = 4.1


@pytest.fixture(autouse=True)
def fresh_ids(monkeypatch):
    """Restart the global id counters: request ids reach the attribution
    report, so the digests must not depend on which tests ran first."""
    monkeypatch.setattr(repro.serving.request, "_REQUEST_IDS", itertools.count())
    monkeypatch.setattr(repro.aqua.tensor, "_AQUA_TENSOR_IDS", itertools.count())


def _sha(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


def nvswitch_rig():
    """Four FlexGen consumers offloading over an 8-GPU NVSwitch."""
    env = Environment()
    server = Server(env, n_gpus=8, topology="nvswitch")
    coordinator = Coordinator()
    auditor = ConservationAuditor(env).attach_server(server)
    rigs = [
        build_consumer_rig(
            "flexgen",
            OPT_30B,
            producer_model=producer,
            use_aqua=True,
            env=env,
            server=server,
            consumer_gpu=i,
            producer_gpu=4 + i,
            coordinator=coordinator,
            name_prefix=f"pair{i}-",
            telemetry=True,
        ).start()
        for i, producer in enumerate((SD_15, SD_XL, KANDINSKY, AUDIOGEN))
    ]
    requests = []
    for rig in rigs:
        job = long_prompt_requests(start=WARM_UP, **NVSWITCH_JOBS)
        submit_all(env, rig.consumer_engine, job)
        requests += job
    env.run(until=WARM_UP + HORIZON)
    engines = [rig.consumer_engine for rig in rigs]
    attribution = server.telemetry.attribution_report()
    return env, engines, requests, auditor, attribution


def p2p_rig(engine_cls):
    """One offloading engine paired with a diffusion producer over p2p
    NVLink."""
    env = Environment()
    server = Server(env, n_gpus=2)
    coordinator = Coordinator()
    auditor = ConservationAuditor(env).attach_server(server)
    tm = Telemetry(env)
    tm.attach_server(server)
    coordinator.telemetry = tm
    lib = AquaLib(server.gpus[0], server, coordinator)
    engine = engine_cls(server.gpus[0], server, OPT_30B, aqua_lib=lib, workspace_tokens=8000)
    producer_lib = AquaLib(server.gpus[1], server, coordinator, informer=BatchInformer())
    producer = BatchEngine(server.gpus[1], server, SD_15, aqua_lib=producer_lib)
    coordinator.pair(lib.name, producer_lib.name)
    producer.start()
    engine.start()
    requests = long_prompt_requests(start=WARM_UP, **P2P_JOBS)
    submit_all(env, engine, requests)
    env.run(until=WARM_UP + HORIZON)
    return env, [engine], requests, auditor, tm.attribution_report()


#: ``-k1`` names the per-step decode path the rig was recorded on.
RIGS = {
    "nvswitch-flexgen-k1": nvswitch_rig,
    "p2p-deepspeed": lambda: p2p_rig(DeepSpeedEngine),
    "p2p-uvm": lambda: p2p_rig(UVMEngine),
}

#: SHA-256 of (transcript, auditor transfer digest, attribution report)
#: per rig, recorded with two child processes per decode step.
TRANSCRIPT_DIGESTS = {
    "nvswitch-flexgen-k1": (
        "6224e1563d8fae37570cc055d75dc1438dadedd49b903b91bb9d8cca3aa6c8fb",
        "f836debf07a6c09aec3bde387698002d4c26796f069b90874036dcb772e77402",
        "9b8a46c39ec316bf857d0d038147d22e1e8e3ef8ce27c99b3b9f87a9e0399a60",
    ),
    "p2p-deepspeed": (
        "33715d58487efbc6e0753fef18ed76b61630a202f3f5c0e04b089a7f169fa2f3",
        "8db456688a3b8b1ec49c2d42a025d47ed1a73834ab26dd03dd987f0b45b57648",
        "835941476bed0cf8be9c9f11c04981d2844f7acbd0d65b3698db3930514e0f86",
    ),
    "p2p-uvm": (
        "4bf123e578363bbabdd68a710af77b23876fb9e9d29829726702132eab4e237f",
        "26674448255906debb18a44db3ba1eb1e0c830ae8bc638db0707331c895ab022",
        "b8acd021e5e9d94c4446f1f9eab540b8fdecfcc968310f2338af48e7adec6dd1",
    ),
}


def _digests(rig):
    env, engines, requests, auditor, attribution = RIGS[rig]()
    transcript = {
        "token_times": [[repr(t) for t in token_times(e.metrics)] for e in engines],
        "requests": [
            [r.generated_tokens, repr(r.first_token_time), repr(r.finish_time)]
            for r in requests
        ],
    }
    digests = (_sha(transcript), auditor.digest, _sha(attribution))
    return digests, env, engines, requests


@pytest.mark.parametrize("rig", sorted(RIGS))
def test_transcript_digest_is_pinned(rig):
    got, _, engines, requests = _digests(rig)
    # Non-vacuous: every engine finished at least two jobs, so the
    # attribution report covers them.
    finished = sum(r.finish_time is not None for r in requests)
    assert finished >= 2 * len(engines)
    names = ("transcript", "transfers", "attribution")
    for name, digest, golden in zip(names, got, TRANSCRIPT_DIGESTS[rig]):
        assert digest == golden, (
            f"{rig}: {name} diverged\n  got      {digest}\n  expected {golden}"
        )


def test_nvswitch_decode_step_event_budget():
    _, env, engines, _ = _digests("nvswitch-flexgen-k1")
    tokens = sum(engine.metrics.tokens_generated for engine in engines)
    assert tokens > 1000
    per_token = env.events_processed / tokens
    assert per_token <= MAX_EVENTS_PER_TOKEN, f"{per_token:.2f} events per token"
