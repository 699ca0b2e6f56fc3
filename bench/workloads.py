"""The benchmark's four workloads, driven through the simulator's public API.

Each workload function takes the seed (plus size arguments that the
bench's own tests shrink) and does the workload's set-up: it builds the
rig and submits the generated trace.  It returns the timed region as a
zero-argument callable, which runs the simulation and returns its
outputs: ``sim_s`` (simulated seconds the timed region covered), the
per-layer counters (names as in ``BENCHMARK.json``) and a few values
that only feed the fingerprint and the invariants.

The seed reaches only the generators (ShareGPT, NHPP); the simulator
receives the generated requests.  Every arrival process is open-loop in
simulated time, so the generator cannot run late.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
from typing import Callable

import repro.sim
from repro.aqua import Coordinator
from repro.experiments.frontier import frontier_cell
from repro.experiments.harness import build_consumer_rig
from repro.faults import DmaStall, FaultInjector, FaultSchedule
from repro.hardware import Server
from repro.models import AUDIOGEN, KANDINSKY, LLAMA2_13B, MISTRAL_7B, OPT_30B, SD_15, SD_XL
from repro.serving import VLLMEngine
from repro.serving.metrics import percentile
from repro.sim import AllOf, AnyOf, Environment
from repro.telemetry import render_dashboard
from repro.telemetry.dashboard import dashboard_data
from repro.telemetry.slo import default_slo_policy
from repro.workloads.arrivals import submit_all
from repro.workloads.longprompt import long_prompt_requests
from repro.workloads.sharegpt import sharegpt_requests

GiB = float(2**30)

#: Simulated seconds the offload rig lets producers donate before the
#: long prompts arrive (inside the timed region).
OFFLOAD_WARM_UP = 1.0

#: The DMA stall of ``aqua-repro observe``: 2 s on the fetch link at t=12 s.
OBSERVED_STALL = DmaStall(at=12.0, channel="nvlink:gpu1->gpu0", duration=2.0)


def _counters(env, servers=(), engines=(), requests=(), libs=()) -> dict:
    """Per-layer counters read off public objects after a run.

    A layer the workload does not run reports 0.
    """
    ttfts = [r.ttft for r in requests if r.ttft is not None]
    stats = [server.transfer_stats for server in servers]
    return {
        "sim.events": env.events_processed,
        "serving.tokens": sum(e.metrics.tokens_generated for e in engines),
        "serving.completed": sum(len(e.metrics.completed) for e in engines),
        "serving.ttft_p50_s": float(percentile(ttfts, 50)) if ttfts else 0.0,
        "serving.ttft_p99_s": float(percentile(ttfts, 99)) if ttfts else 0.0,
        "serving.preemptions": sum(
            e.preemptions for e in engines if isinstance(e, VLLMEngine)
        ),
        "hardware.transfers": sum(s.count for s in stats),
        "hardware.transfer_gib": sum(s.bytes_total for s in stats) / GiB,
        "hardware.link_busy_s": float(sum(s.busy_time for s in stats)),
        "aqua.offloaded_fast_gib": sum(lib.offloaded_fast_bytes for lib in libs) / GiB,
        "aqua.offloaded_dram_gib": sum(lib.offloaded_dram_bytes for lib in libs) / GiB,
        "routing.offered": 0,
        "routing.completed": 0,
        "routing.shed": 0,
        "routing.goodput_rps": 0.0,
        "digest": "",
    }


# ---------------------------------------------------------------------------
# chat: one vLLM engine, open-loop ShareGPT, no AQUA
# ---------------------------------------------------------------------------
#: Arrivals outpace the engine, so it runs at its batch limit and its host
#: cost tracks the generated token count; ``sim_s`` is the simulated time
#: to drain the trace, which tracks the same count.  Their ratio then
#: barely depends on the seed.
CHAT_RATE = 40.0

#: Safety cap on the simulated time ``chat`` may take to drain, far above
#: the drain time (about 100 s).  The run normally stops at the drain.
CHAT_DRAIN_CAP = 1000.0


def chat(seed: int, requests: int = 1200) -> Callable[[], dict]:
    """Engine bookkeeping and the KV cache; no DMA, no AQUA."""
    env = Environment()
    server = Server(env, n_gpus=1)
    engine = VLLMEngine(server.gpus[0], server, MISTRAL_7B, decode_coarsen=1)
    engine.start()
    trace = sharegpt_requests(rate=CHAT_RATE, count=requests, seed=seed)
    for request in trace:
        request.on_finish = env.event()
    submit_all(env, engine, trace)
    drained = AllOf(env, [request.on_finish for request in trace])

    def run() -> dict:
        # The timed region ends at the drain, so it covers exactly ``sim_s``.
        env.run(until=AnyOf(env, [drained, env.timeout(CHAT_DRAIN_CAP)]))
        out = _counters(env, [server], [engine], trace)
        out.update(sim_s=env.now, offered=len(trace), requests=requests)
        return out

    return run


# ---------------------------------------------------------------------------
# offload: the 8-GPU NVSwitch stress rig (Figure 18)
# ---------------------------------------------------------------------------
def offload(seed: int, horizon: float = 600.0) -> Callable[[], dict]:
    """Kernel, DMA and AQUA: four FlexGen consumers offloading over NVSwitch.

    The workload has no randomness, so ``seed`` is unused.
    """
    del seed
    env = Environment()
    server = Server(env, n_gpus=8, topology="nvswitch")
    coordinator = Coordinator()
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
        ).start()
        for i, producer in enumerate((SD_15, SD_XL, KANDINSKY, AUDIOGEN))
    ]
    jobs = []
    for rig in rigs:  # one unbounded long prompt per consumer: closed loop
        job = long_prompt_requests(start=OFFLOAD_WARM_UP)
        submit_all(env, rig.consumer_engine, job)
        jobs += job

    def run() -> dict:
        env.run(until=OFFLOAD_WARM_UP + horizon)
        out = _counters(
            env,
            [server],
            [rig.consumer_engine for rig in rigs],
            jobs,
            [rig.consumer_lib for rig in rigs],
        )
        out["sim_s"] = OFFLOAD_WARM_UP + horizon
        return out

    return run


# ---------------------------------------------------------------------------
# observed: the golden 2-GPU p2p rig with every observer on and a DMA stall
# ---------------------------------------------------------------------------
#: 1200 ShareGPT requests over 400 simulated seconds.  Host work follows
#: the trace's token count, which varies with the seed; more requests would
#: steady it but push the traced run past the measurement time.  A higher
#: rate instead fills the producer's memory, so nothing is offloaded over
#: NVLink.
OBSERVED_RATE = 3.0


def observed(seed: int, requests: int = 1200, horizon: float = 400.0) -> Callable[[], dict]:
    """Telemetry, scraping, SLOs, audit and a fault on the offloading rig."""
    rig = build_consumer_rig(
        "flexgen",
        OPT_30B,
        producer_model=LLAMA2_13B,
        use_aqua=True,
        audit=True,
        audit_interval=1.0,
        telemetry=True,
        scrape_interval=1.0,
        slo_policy=default_slo_policy(),
    )
    injector = FaultInjector(rig.server, coordinator=rig.coordinator, telemetry=rig.telemetry)
    injector.install(FaultSchedule([OBSERVED_STALL]))
    rig.start()
    long_prompt = long_prompt_requests(start=3.0)
    submit_all(rig.env, rig.consumer_engine, long_prompt)
    trace = sharegpt_requests(rate=OBSERVED_RATE, count=requests, seed=seed)
    submit_all(rig.env, rig.producer_engine, trace)

    def run() -> dict:
        rig.env.run(until=horizon)
        tm = rig.telemetry
        # The exports a user of the observers pays for.
        prometheus = tm.prometheus_text()
        report = tm.observability_report()
        dashboard = render_dashboard(dashboard_data(tm, duration=horizon))
        rig.auditor.check(checkpoint="final")
        audit = rig.auditor.report()
        out = _counters(
            rig.env,
            [rig.server],
            [rig.consumer_engine, rig.producer_engine],
            long_prompt + trace,
            [rig.consumer_lib],
        )
        events = [entry["event"] for entry in injector.log]
        out.update(
            {
                "sim_s": horizon,
                "violations": len(audit.violations),
                "digest": audit.digest,
                "fault_log": events,
                "export_bytes": [
                    len(prometheus),
                    len(json.dumps(report, sort_keys=True, default=str)),
                    len(dashboard),
                ],
            }
        )
        return out

    return run


# ---------------------------------------------------------------------------
# frontier: one cluster frontier cell (router, admission, NHPP load)
# ---------------------------------------------------------------------------
@contextlib.contextmanager
def _environments_created():
    """Collect the ``Environment``s built while the block runs.

    ``frontier_cell`` returns no handle on its simulation, so the bench
    counts its events through the ``repro.sim.Environment`` name that
    the cell looks up when it is called.
    """
    created = []
    original = repro.sim.Environment

    class Counted(original):
        __slots__ = ()

        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            created.append(self)

    repro.sim.Environment = Counted
    try:
        yield created
    finally:
        repro.sim.Environment = original


def frontier(seed: int, duration: float = 900.0) -> Callable[[], dict]:
    """Routing, admission and NHPP generation; no AQUA, no DMA.

    The whole ``frontier_cell`` call is the timed region, because the
    public API cannot separate trace generation from the run.
    """

    def run() -> dict:
        with _environments_created() as envs:
            cell = frontier_cell(
                policy="slo-aware", rate=64.0, duration=duration, workload="diurnal", seed=seed
            )
        if len(envs) != 1:
            raise RuntimeError(
                f"expected frontier_cell to build one Environment, saw {len(envs)}"
            )
        env = envs[0]
        out = _counters(env)
        out.update(
            {
                "sim_s": env.now,
                "routing.offered": cell["offered"],
                "routing.completed": cell["completed"],
                "routing.shed": cell["shed_total"],
                "routing.goodput_rps": cell["goodput"],
                "violations": len(cell["violations"]),
                "digest": cell["ledger_digest"],
                "routed": cell["routed"],
                "ledger_ok": cell["ledger_ok"],
            }
        )
        return out

    return run


WORKLOADS = {"chat": chat, "offload": offload, "observed": observed, "frontier": frontier}


# ---------------------------------------------------------------------------
# Correctness
# ---------------------------------------------------------------------------
def _chat_invariants(out: dict) -> list[str]:
    bad = []
    if not out["serving.completed"] == out["offered"] == out["requests"]:
        bad.append(
            f"completed {out['serving.completed']} / offered {out['offered']}"
            f" / requests {out['requests']} differ"
        )
    return bad


def _offload_invariants(out: dict) -> list[str]:
    bad = []
    if out["hardware.transfers"] <= 0:
        bad.append("no DMA transfers")
    if out["serving.tokens"] <= 0:
        bad.append("no tokens generated")
    return bad


def _observed_invariants(out: dict) -> list[str]:
    bad = []
    if out["violations"]:
        bad.append(f"{out['violations']} audit violation(s)")
    kind = OBSERVED_STALL.kind
    if out["fault_log"] != [f"{kind}:apply", f"{kind}:clear"]:
        bad.append(f"stall not applied and cleared: log {out['fault_log']}")
    return bad


def _frontier_invariants(out: dict) -> list[str]:
    bad = []
    if not out["ledger_ok"]:
        bad.append("router ledger violations")
    if out["routing.offered"] != out["routed"] + out["routing.shed"]:
        bad.append(
            f"offered {out['routing.offered']} != routed {out['routed']}"
            f" + shed {out['routing.shed']}"
        )
    return bad


INVARIANTS = {
    "chat": _chat_invariants,
    "offload": _offload_invariants,
    "observed": _observed_invariants,
    "frontier": _frontier_invariants,
}


def fingerprint(outputs: dict) -> str:
    """SHA-256 over a run's simulated outputs (no host times in them)."""
    return hashlib.sha256(json.dumps(outputs, sort_keys=True).encode()).hexdigest()
