"""Byte-identity lock on every observer export.

Observation runs per decode step and per completion, not per token;
these digests pin what the observers export so that no change to how
the hub, registry, attributor or scraper is driven can move a byte of
it.  The values were recorded before that rework, on the per-token
implementation, and must never be updated to make a change pass.

The rig is a short telemetered Figure 7 run: a FlexGen long-prompt
consumer offloading over NVLink to a vLLM producer that serves its own
ShareGPT trace, with the default SLO policy, a 0.5 s scrape and a 2 s
DMA stall on the fetch link.
"""

import hashlib
import itertools
import json

import pytest

import repro.aqua.tensor
import repro.serving.request
from repro.experiments.harness import build_consumer_rig
from repro.faults import DmaStall, FaultInjector, FaultSchedule
from repro.models import LLAMA2_13B, OPT_30B
from repro.telemetry import render_dashboard
from repro.telemetry.dashboard import dashboard_data
from repro.telemetry.slo import default_slo_policy
from repro.workloads.arrivals import submit_all
from repro.workloads.longprompt import long_prompt_requests
from repro.workloads.sharegpt import sharegpt_requests

DURATION = 30.0

#: SHA-256 of (prometheus text, observability report, dashboard HTML,
#: attribution report).
GOLDEN = (
    "a7f2a172c6584746f30390505af4051bb3c00c7bd59ffbaaebd4c795ff2c9afb",
    "72ee5c57a5e615674a21c1d177196ab318dc3cc778138b81b345067e5714bfcc",
    "f70ac28186b9edb09e5e2ecbff87833841d3205277922391a15f9aa95056b5fe",
    "71436f3cae9150a7312466f35b49e4980e9480a3412beca25e9a57c5a7b8d8f2",
)


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _exports() -> tuple[str, str, str, str]:
    rig = build_consumer_rig(
        "flexgen",
        OPT_30B,
        producer_model=LLAMA2_13B,
        use_aqua=True,
        telemetry=True,
        scrape_interval=0.5,
        slo_policy=default_slo_policy(),
    )
    tm = rig.telemetry
    injector = FaultInjector(rig.server, coordinator=rig.coordinator, telemetry=tm)
    injector.install(
        FaultSchedule([DmaStall(at=8.0, channel="nvlink:gpu1->gpu0", duration=2.0)])
    )
    rig.start()
    submit_all(rig.env, rig.consumer_engine, long_prompt_requests(start=2.0, max_new_tokens=40))
    submit_all(
        rig.env, rig.producer_engine, sharegpt_requests(rate=3.0, count=60, seed=7)
    )
    rig.env.run(until=DURATION)
    return (
        _sha(tm.prometheus_text()),
        _sha(json.dumps(tm.observability_report(), sort_keys=True)),
        _sha(render_dashboard(dashboard_data(tm, duration=DURATION))),
        _sha(json.dumps(tm.attribution_report(), sort_keys=True)),
    )


@pytest.fixture
def fresh_ids(monkeypatch):
    """Restart the global id counters: request ids reach the attribution
    report and the dashboard, so the digests must not depend on how many
    requests earlier tests created."""
    monkeypatch.setattr(repro.serving.request, "_REQUEST_IDS", itertools.count())
    monkeypatch.setattr(repro.aqua.tensor, "_AQUA_TENSOR_IDS", itertools.count())


def test_observer_exports_are_byte_identical(fresh_ids):
    names = ("prometheus_text", "observability_report", "dashboard", "attribution_report")
    for name, digest, golden in zip(names, _exports(), GOLDEN):
        assert digest == golden, f"{name} moved"
