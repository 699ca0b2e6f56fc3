"""Observability showcase: one telemetered run of the offloading rig.

This experiment exists to exercise the whole :mod:`repro.telemetry`
stack on a small but representative workload — the Figure 7 rig (a
FlexGen long-prompt consumer offloading its context to an LLM producer
over NVLink) plus light interactive traffic on the producer, and
optionally one short DMA stall so the fault metrics are non-empty.

It returns everything the ``aqua-repro observe`` CLI command exports:

``telemetry``
    The live :class:`~repro.telemetry.Telemetry` hub (tracer included).
``report``
    The latency-attribution report (see ``docs/observability.md``).
``prometheus``
    Metrics in Prometheus text exposition format.
``metrics``
    The same registry as a JSON-friendly dict.
``fault_log``
    The injector's apply/clear log (empty when ``faults=False``).

Run it inside :func:`repro.telemetry.observing` to scrape it (scraper,
SLO tracker, flight recorder) and export its trace and dashboard data.
"""

from __future__ import annotations

from typing import Optional

from repro.experiments.harness import build_consumer_rig
from repro.faults import DmaStall, FaultInjector, FaultSchedule
from repro.models import LLAMA2_13B, OPT_30B
from repro.workloads.arrivals import submit_all
from repro.workloads.longprompt import long_prompt_requests
from repro.workloads.sharegpt import sharegpt_requests

#: Arrival time of the long-prompt request (the producer donates its
#: spare memory first).
WORKLOAD_START = 3.0

#: Decode budget of the long-prompt request — bounded, so the request
#: *finishes* and its latency attribution is complete.
MAX_NEW_TOKENS = 60


def observe_experiment(
    duration: float = 45.0,
    faults: bool = True,
    postmortem_dir: Optional[str] = None,
) -> dict:
    """One fully telemetered run of the FlexGen/NVLink offloading rig.

    Parameters
    ----------
    duration:
        Simulated seconds to run.
    faults:
        Inject a short (2 s) DMA stall on the fetch link at t=12 so the
        fault/retry metric families have samples.  ``False`` gives a
        clean run.
    postmortem_dir:
        Directory for flight-recorder post-mortem bundles (when scraped).
    """
    rig = build_consumer_rig(
        "flexgen",
        OPT_30B,
        producer_model=LLAMA2_13B,
        use_aqua=True,
        telemetry=True,
        postmortem_dir=postmortem_dir,
    )
    tm = rig.telemetry
    env = rig.env

    fault_log: list[dict] = []
    if faults:
        injector = FaultInjector(rig.server, coordinator=rig.coordinator)
        injector.install(
            FaultSchedule([DmaStall(at=12.0, channel="nvlink:gpu1->gpu0", duration=2.0)])
        )
        fault_log = injector.log

    rig.start()

    consumer_requests = long_prompt_requests(start=WORKLOAD_START, max_new_tokens=MAX_NEW_TOKENS)
    submit_all(env, rig.consumer_engine, consumer_requests)

    producer_requests = sharegpt_requests(rate=1.0, count=10, start=WORKLOAD_START)
    submit_all(env, rig.producer_engine, producer_requests)

    env.run(until=duration)

    return {
        "telemetry": tm,
        "report": tm.attribution_report(),
        "prometheus": tm.prometheus_text(),
        "metrics": tm.metrics_dict(),
        "fault_log": fault_log,
        "consumer_requests": consumer_requests,
        "producer_requests": producer_requests,
        "tokens_total": rig.consumer_engine.metrics.tokens_generated,
    }
