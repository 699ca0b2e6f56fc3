"""Scale-up domains: who merges, and what skipping other domains saves.

A domain (:class:`repro.sim.Domain`) is a set of GPUs that only its own
activity and global actors touch or read.  Pairing a consumer with a
producer merges their domains, and a telemetry hub merges its server's.
Windows of one domain run past the events of every other, so servers
sharing an environment cost about what they cost one at a time.
"""

from repro.aqua import AquaLib, Coordinator
from repro.hardware import Server
from repro.models import MISTRAL_7B
from repro.serving import VLLMEngine
from repro.sim import Environment
from repro.telemetry import Telemetry
from repro.workloads.arrivals import submit_all
from repro.workloads.sharegpt import sharegpt_requests


def test_pairing_merges_domains_for_good():
    server = Server(Environment(), n_gpus=4, topology="nvswitch")
    coordinator = Coordinator()
    libs = [AquaLib(gpu, server, coordinator) for gpu in server.gpus]
    domains = [gpu.domain.root() for gpu in server.gpus]
    assert len(set(map(id, domains))) == 4
    coordinator.pair(libs[0].name, libs[2].name)
    coordinator.pair(libs[1].name, libs[2].name)  # a shared producer
    assert server.gpus[0].domain.root() is server.gpus[1].domain.root()
    assert server.gpus[2].domain.root() is server.gpus[0].domain.root()
    assert server.gpus[3].domain.root() is not server.gpus[0].domain.root()
    coordinator.pair(libs[1].name, libs[3].name)  # re-pairing never splits
    assert len({id(gpu.domain.root()) for gpu in server.gpus}) == 1


def _telemetered_trace(stepped):
    env = Environment()
    if stepped:  # a per-event monitor looks at every event: no windows
        env.add_monitor(lambda now: None)
    server = Server(env, n_gpus=2)
    hub = Telemetry(env)
    hub.attach_server(server)
    for i in range(2):
        engine = VLLMEngine(server.gpus[i], server, MISTRAL_7B, name=f"vllm{i}", utilization=0.5)
        engine.start()
        requests = sharegpt_requests(rate=2.0, count=40, seed=i)
        for n, request in enumerate(requests):
            request.req_id = 100 * i + n  # flow ids: the same in both runs
        submit_all(env, engine, requests)
    env.run(until=60.0)
    return hub.tracer.to_chrome_events(), env.events_processed


def test_a_hub_sees_its_server_as_one_domain():
    """A hub records every engine on its server in one order, so its
    server's GPUs are one domain: two engines' windows stop at each
    other's events and the trace is the one stepping would write."""
    windowed, events = _telemetered_trace(stepped=False)
    stepped, stepped_events = _telemetered_trace(stepped=True)
    assert windowed == stepped
    assert events < stepped_events


def _vllm_server(env, seed):
    server = Server(env, n_gpus=1, name=f"server{seed}")
    engine = VLLMEngine(server.gpus[0], server, MISTRAL_7B)
    engine.start()
    submit_all(env, engine, sharegpt_requests(rate=2.0, count=200, seed=seed))
    return engine


def test_servers_sharing_an_environment_cost_what_they_cost_alone():
    """16 single-GPU vLLM servers in one environment process at most
    5% more events than the same servers run one at a time, with the
    same tokens and iterations.  (Before domains, every server's
    events cut every other's windows: 186,945 events against 34,145.)"""
    env = Environment()
    engines = [_vllm_server(env, seed) for seed in range(16)]
    env.run(until=200.0)
    alone = 0
    for seed, shared in enumerate(engines):
        own = Environment()
        engine = _vllm_server(own, seed)
        own.run(until=200.0)
        alone += own.events_processed
        assert (engine.metrics.tokens_generated, engine.iteration) == (
            shared.metrics.tokens_generated,
            shared.iteration,
        )
    assert env.events_processed <= 1.05 * alone
