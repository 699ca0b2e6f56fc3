"""One telemetry hub per server.

Rigs that share a server (the four NVSwitch pairs of Figure 18 and of
the ``offload`` bench workload) share its hub: the engines, AQUA-LIB
instances and DMA of one machine report to one observer, which is
exported once.  A second hub cannot split a server silently: each way
of trying is refused.
"""

from collections import Counter

import pytest

from repro.aqua import AquaLib, Coordinator
from repro.experiments.harness import build_consumer_rig
from repro.faults import FaultInjector
from repro.hardware import Server
from repro.hardware.dma import Transfer
from repro.models import AUDIOGEN, KANDINSKY, MISTRAL_7B, OPT_30B, SD_15, SD_XL
from repro.serving import VLLMEngine
from repro.sim import Environment
from repro.telemetry import Observation, Telemetry, default_slo_policy, observing
from repro.telemetry.slo import SLObjective, SLOPolicy
from repro.telemetry.timeseries import MetricScraper
from repro.workloads.arrivals import submit_all
from repro.workloads.longprompt import long_prompt_requests


def test_rigs_sharing_a_server_share_its_hub(monkeypatch):
    scrapers = []
    start = MetricScraper.start
    monkeypatch.setattr(
        MetricScraper, "start", lambda self: scrapers.append(self) or start(self)
    )
    # Every request-scoped DMA hop, counted at the copy itself.
    hops = []
    run = Transfer.run

    def counted_run(self):
        result = yield from run(self)
        if self.ctx is not None and self.nbytes > 0:
            hops.extend(self.interconnect.route(self.src, self.dst).channels)
        return result

    monkeypatch.setattr(Transfer, "run", counted_run)

    env = Environment()
    server = Server(env, n_gpus=8, topology="nvswitch")
    coordinator = Coordinator()
    # The per-channel ledger the server's transfer stats account for.
    ledger = Counter()
    server.transfer_stats.listeners.append(
        lambda route, channels, nbytes, duration: ledger.update(
            {channel.name: nbytes for channel in channels}
        )
    )
    with observing(Observation(trace=True, scrape_interval=1.0), label="shared") as exports:
        rigs = [
            build_consumer_rig(
                "flexgen", OPT_30B, producer_model=producer, use_aqua=True,
                env=env, server=server, consumer_gpu=i, producer_gpu=4 + i,
                coordinator=coordinator, name_prefix=f"pair{i}-",
            ).start()
            for i, producer in enumerate((SD_15, SD_XL, KANDINSKY, AUDIOGEN))
        ]
        for rig in rigs:
            submit_all(env, rig.consumer_engine, long_prompt_requests(start=1.0))
        env.run(until=6.0)

    hub = server.telemetry
    assert all(rig.telemetry is hub for rig in rigs)
    assert len(scrapers) == 1

    assert [export["name"] for export in exports] == ["shared/pair0-flexgen-OPT-30B"]
    events = exports[0]["trace"]
    tracks = {e["args"]["name"] for e in events if e["name"] == "thread_name"}
    for rig in rigs:
        assert rig.consumer_engine.name in tracks
        assert f"aqua:{rig.consumer_lib.name}" in tracks
    dma = Counter(e["tid"] for e in events if e["name"] == "dma")
    tids = {e["tid"]: e["args"]["name"] for e in events if e["name"] == "thread_name"}
    assert hops, "no request-scoped copy ran"
    assert Counter({tids[tid]: n for tid, n in dma.items()}) == Counter(
        f"link:{channel.name}" for channel in hops
    )

    link_bytes = {
        dict(labels)["channel"]: child.value
        for labels, child in hub.link_bytes.children()
    }
    assert link_bytes == dict(ledger)


def test_a_second_hub_on_a_server_is_refused():
    server = Server(Environment(), n_gpus=2)
    Telemetry(server.env).attach_server(server)
    with pytest.raises(ValueError, match="server server0 already has a hub"):
        Telemetry(server.env).attach_server(server)


@pytest.mark.parametrize("component", ["engine", "aqua-lib"])
def test_a_hub_attached_after_a_component_is_refused(component):
    server = Server(Environment(), n_gpus=2)
    if component == "engine":
        VLLMEngine(server.gpus[0], server, MISTRAL_7B, name="early")
        built = "early"
    else:
        AquaLib(server.gpus[0], server, Coordinator())
        built = "AQUA-LIB server0/gpu0"
    with pytest.raises(ValueError, match=f"already runs {built} without a hub"):
        Telemetry(server.env).attach_server(server)
    assert server.telemetry is None


def test_a_coordinator_reporting_to_another_hub_is_refused():
    env = Environment()
    coordinator = Coordinator()
    build_consumer_rig(
        "flexgen", OPT_30B, producer_model=SD_15, env=env,
        server=Server(env, n_gpus=2), coordinator=coordinator, telemetry=True,
    )
    with pytest.raises(ValueError, match="coordinator already reports to another"):
        build_consumer_rig(
            "flexgen", OPT_30B, producer_model=SD_15, env=env,
            server=Server(env, n_gpus=2, name="server1"), coordinator=coordinator,
            telemetry=True,
        )


def test_the_injector_takes_its_servers_hub():
    env = Environment()
    server = Server(env, n_gpus=2)
    hub = Telemetry(env)
    hub.attach_server(server)
    assert FaultInjector(server).telemetry is hub
    assert FaultInjector(server, telemetry=hub).telemetry is hub
    with pytest.raises(ValueError, match="must be None or server server0's hub"):
        FaultInjector(server, telemetry=Telemetry(env))


def test_observability_settings_of_a_shared_hub_must_agree():
    hub = Telemetry(Environment())
    hub.attach_observability(scrape_interval=1.0, slo_policy=default_slo_policy())
    scraper = hub.scraper
    # The same settings (the policy compared by value) keep the layer.
    hub.attach_observability(scrape_interval=1.0, slo_policy=default_slo_policy())
    assert hub.scraper is scraper
    strict = SLOPolicy([SLObjective("ttft", tenant="", metric="ttft", threshold=0.1)])
    for settings in (
        dict(scrape_interval=2.0, slo_policy=default_slo_policy()),
        dict(scrape_interval=1.0),
        dict(scrape_interval=1.0, slo_policy=strict),
        dict(scrape_interval=1.0, slo_policy=default_slo_policy(), postmortem_dir="pm"),
    ):
        with pytest.raises(ValueError, match="hub already observed with"):
            hub.attach_observability(**settings)
    assert hub.scraper is scraper
