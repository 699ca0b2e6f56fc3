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

The NVSwitch rig runs once more with no auditor and no hub, where
FlexGen decodes in windows.  ``UNOBSERVED_DIGEST`` hashes its
transcript, transfer statistics, channel ledgers and GPU busy times; it
was recorded while every decode step still retired its own events.
"""

import hashlib
import itertools
import json

import pytest

import repro.aqua.tensor
import repro.serving.request
from repro.audit import ConservationAuditor
from repro.experiments.harness import build_consumer_rig
from repro.hardware import Server, TransferStats
from repro.models import AUDIOGEN, KANDINSKY, OPT_30B, SD_15, SD_XL
from repro.sim import Environment
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
#: The rig measures 4.03: idle producers sleep instead of polling, and
#: its auditor and hub keep every decode window closed, so each step
#: still retires its own events.
MAX_EVENTS_PER_TOKEN = 4.1

#: The same ceiling without auditor or hub, where decode steps run in
#: windows with one wake that pass every ``respond()`` boundary owing
#: no move: the rig measures 0.044 (0.10 when every boundary ended a
#: window).
MAX_UNOBSERVED_EVENTS_PER_TOKEN = 0.06


@pytest.fixture(autouse=True)
def fresh_ids(monkeypatch):
    """Restart the global id counters: request ids reach the attribution
    report, so the digests must not depend on which tests ran first."""
    monkeypatch.setattr(repro.serving.request, "_REQUEST_IDS", itertools.count())
    monkeypatch.setattr(repro.aqua.tensor, "_AQUA_TENSOR_IDS", itertools.count())


def _sha(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


def _run_four_pairs(env, servers, telemetry):
    """On each of ``servers``, four FlexGen consumers on GPUs 0-3, each
    paired with a producer on GPU ``4 + i``, run through their jobs;
    returns the consumer engines and the jobs."""
    rigs = []
    for server in servers:
        on_server = []
        for i, producer in enumerate((SD_15, SD_XL, KANDINSKY, AUDIOGEN)):
            on_server.append(
                build_consumer_rig(
                    "flexgen",
                    OPT_30B,
                    producer_model=producer,
                    use_aqua=True,
                    env=env,
                    server=server,
                    consumer_gpu=i,
                    producer_gpu=4 + i,
                    coordinator=on_server[0].coordinator if on_server else None,
                    name_prefix=f"pair{i}-",
                    telemetry=telemetry,
                ).start()
            )
        rigs += on_server
    requests = []
    for rig in rigs:
        job = long_prompt_requests(start=WARM_UP, **NVSWITCH_JOBS)
        submit_all(env, rig.consumer_engine, job)
        requests += job
    env.run(until=WARM_UP + HORIZON)
    return [rig.consumer_engine for rig in rigs], requests


def nvswitch_rig():
    """Four FlexGen consumers offloading over an 8-GPU NVSwitch."""
    env = Environment()
    server = Server(env, n_gpus=8, topology="nvswitch")
    auditor = ConservationAuditor(env).attach_server(server)
    engines, requests = _run_four_pairs(env, [server], telemetry=True)
    attribution = server.telemetry.attribution_report()
    return env, engines, requests, auditor, attribution


def unobserved_nvswitch_rig():
    """The NVSwitch rig with no auditor and no hub: nothing watches it
    step by step."""
    env = Environment()
    server = Server(env, n_gpus=8, topology="nvswitch")
    engines, requests = _run_four_pairs(env, [server], telemetry=False)
    return env, server, engines, requests


def p2p_rig(kind):
    """One offloading engine paired with a diffusion producer over p2p
    NVLink."""
    env = Environment()
    server = Server(env, n_gpus=2)
    auditor = ConservationAuditor(env).attach_server(server)
    rig = build_consumer_rig(
        kind, OPT_30B, producer_model=SD_15, server=server, telemetry=True
    ).start()
    requests = long_prompt_requests(start=WARM_UP, **P2P_JOBS)
    submit_all(env, rig.consumer_engine, requests)
    env.run(until=WARM_UP + HORIZON)
    return env, [rig.consumer_engine], requests, auditor, rig.telemetry.attribution_report()


#: ``-k1`` names the per-step decode path the rig was recorded on.
RIGS = {
    "nvswitch-flexgen-k1": nvswitch_rig,
    "p2p-deepspeed": lambda: p2p_rig("deepspeed"),
    "p2p-uvm": lambda: p2p_rig("uvm"),
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


#: SHA-256 of the unobserved NVSwitch rig's transcript, transfer
#: statistics, channel ledgers and GPU busy times, recorded while every
#: decode step still retired its own events.
UNOBSERVED_DIGEST = (
    "c67c2513fa0d36553151b17bb8e3c7c23e067ab66f4b61dfbb9db414601050de"
)


def _ledgers(server, engines, requests):
    stats = server.transfer_stats
    return {
        "token_times": [[repr(t) for t in token_times(e.metrics)] for e in engines],
        "requests": [
            [r.generated_tokens, repr(r.first_token_time), repr(r.finish_time)]
            for r in requests
        ],
        "transfer_stats": [
            stats.count, repr(stats.bytes_total), repr(stats.busy_time),
            [[route, repr(nbytes)] for route, nbytes in stats.per_route.items()],
        ],
        "channels": [
            [name, repr(ch.bytes_moved), ch.transfer_count]
            for name, ch in server.interconnect.channels.items()
        ],
        "gpu_busy": [repr(gpu.busy_time) for gpu in server.gpus],
    }


def test_unobserved_nvswitch_rig_is_pinned():
    env, server, engines, requests = unobserved_nvswitch_rig()
    assert sum(r.finish_time is not None for r in requests) >= 2 * len(engines)
    assert _sha(_ledgers(server, engines, requests)) == UNOBSERVED_DIGEST
    tokens = sum(engine.metrics.tokens_generated for engine in engines)
    per_token = env.events_processed / tokens
    assert per_token <= MAX_UNOBSERVED_EVENTS_PER_TOKEN, f"{per_token:.2f} events per token"


def test_scale_out_rig_keeps_the_budget_and_merges_each_record_in_one_slice(monkeypatch):
    """Four unobserved NVSwitch servers, 16 consumers, in one
    environment.  Every deferred transfer record is merged in exactly
    one slice: each window's slices follow on from each other and their
    lengths sum to its size, so settling costs what is due, not what is
    held."""
    sizes, merged = {}, {}
    defer, merge = TransferStats.defer, TransferStats._merge

    def counting_defer(self, env, ends, *columns):
        defer(self, env, ends, *columns)
        sizes[id(self), self._seq] = len(ends)

    def counting_merge(self, slices):
        for window, _, index, stop in slices:
            key = id(self), window
            assert merged.get(key, 0) == index < stop
            merged[key] = stop
        merge(self, slices)

    monkeypatch.setattr(TransferStats, "defer", counting_defer)
    monkeypatch.setattr(TransferStats, "_merge", counting_merge)
    env = Environment()
    servers = [
        Server(env, n_gpus=8, topology="nvswitch", name=f"server{k}") for k in range(4)
    ]
    engines, requests = _run_four_pairs(env, servers, telemetry=False)
    assert sum(r.finish_time is not None for r in requests) >= 2 * len(engines) == 32
    tokens = sum(engine.metrics.tokens_generated for engine in engines)
    assert sum(server.transfer_stats.count for server in servers) == tokens
    assert sum(sizes.values()) > 0.9 * tokens
    assert merged == sizes
    per_token = env.events_processed / tokens
    assert per_token <= MAX_UNOBSERVED_EVENTS_PER_TOKEN, f"{per_token:.3f} events per token"


@pytest.mark.parametrize("n_servers", [1, 4])
def test_windows_leave_plain_python_floats(n_servers):
    """numpy computes a window's steps and merges its deferred records,
    but the clock, the token stamps and every ledger stay Python
    floats: a numpy scalar there would leak into every later sum and
    change how the values print."""
    env = Environment()
    servers = [
        Server(env, n_gpus=8, topology="nvswitch", name=f"server{k}")
        for k in range(n_servers)
    ]
    engines, _ = _run_four_pairs(env, servers, telemetry=False)
    assert env.events_processed < sum(e.metrics.tokens_generated for e in engines)
    values = {"env.now": [env.now]}
    values["step_times"] = [t for e in engines for t in e.metrics.step_times]
    for server in servers:
        stats = server.transfer_stats
        values.setdefault("transfer_stats", []).extend(
            [stats.busy_time, stats.bytes_total, *stats.per_route.values()]
        )
        values.setdefault("bytes_moved", []).extend(
            ch.bytes_moved for ch in server.interconnect.channels.values()
        )
        values.setdefault("gpu.busy_time", []).extend(gpu.busy_time for gpu in server.gpus)
    for name, column in values.items():
        assert column and {type(value) for value in column} == {float}, name


def test_nvswitch_decode_step_event_budget():
    _, env, engines, _ = _digests("nvswitch-flexgen-k1")
    tokens = sum(engine.metrics.tokens_generated for engine in engines)
    assert tokens > 1000
    per_token = env.events_processed / tokens
    assert per_token <= MAX_EVENTS_PER_TOKEN, f"{per_token:.2f} events per token"
