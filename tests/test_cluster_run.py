"""Tests for the concurrent multi-tenant cluster experiment."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.experiments.cluster_run import (
    ClusterExperiment,
    Tenant,
    balanced_tenants,
    llm_heavy_tenants,
)


def test_tenant_validation():
    with pytest.raises(ValueError):
        Tenant("x", "OPT-30B", "mining")


def test_tenant_roles():
    assert Tenant("x", "OPT-30B", "longprompt").is_consumer_workload
    assert not Tenant("x", "StableDiffusion-1.5", "producer").is_consumer_workload


def test_tenant_placement_memory_signs():
    assert Tenant("x", "OPT-30B", "longprompt").placement_memory_bytes() < 0
    assert Tenant("x", "Mistral-7B", "lora").placement_memory_bytes() < 0
    assert Tenant("x", "StableDiffusion-1.5", "producer").placement_memory_bytes() > 0
    assert Tenant("x", "Llama-2-13B", "sharegpt").placement_memory_bytes() > 0


def test_tenant_memory_override():
    t = Tenant("x", "OPT-30B", "longprompt", memory_gib=-20)
    assert t.placement_memory_bytes() == -20 * 1024**3


def test_producer_cannot_run_llm_workload():
    exp = ClusterExperiment(n_servers=1, gpus_per_server=2)
    with pytest.raises(ValueError):
        exp.run([Tenant("x", "StableDiffusion-1.5", "codesummary")], duration=1.0)


def test_paper_splits_have_sixteen_tenants():
    assert len(balanced_tenants()) == 16
    assert len(llm_heavy_tenants()) == 16
    for tenants in (balanced_tenants(), llm_heavy_tenants()):
        names = [t.name for t in tenants]
        assert len(set(names)) == 16


def test_small_cluster_runs_concurrently():
    tenants = [
        Tenant("opt-0", "OPT-30B", "longprompt"),
        Tenant("sd-0", "StableDiffusion-1.5", "producer", rate=1.0),
        Tenant("code-0", "CodeLlama-34B", "codesummary", rate=1.0, count=5),
        Tenant("audio-0", "AudioGen", "producer", rate=1.0),
    ]
    exp = ClusterExperiment(n_servers=2, gpus_per_server=2)
    report = exp.run(tenants, duration=30.0)
    results = report["results"]
    assert set(results) == {"opt-0", "sd-0", "code-0", "audio-0"}
    # Consumers were paired and made progress.
    assert results["opt-0"].tokens > 100
    assert results["code-0"].completed > 0
    # Producers served their clients.
    assert results["sd-0"].completed > 0
    assert results["audio-0"].completed > 0
    # Each consumer landed on a server with its producer.
    placement = report["placement"]
    for consumer, producer in placement.pairs:
        assert placement.server_of[consumer] == placement.server_of[producer]


def test_cluster_aqua_beats_dram_for_consumers():
    tenants = [
        Tenant("opt-0", "OPT-30B", "longprompt"),
        Tenant("sd-0", "StableDiffusion-1.5", "producer", rate=1.0),
    ]

    def tokens(use_aqua):
        exp = ClusterExperiment(n_servers=1, gpus_per_server=2, use_aqua=use_aqua)
        report = exp.run(tenants, duration=30.0)
        return report["results"]["opt-0"].tokens

    assert tokens(True) > 3 * tokens(False)


def test_llm_heavy_cluster_pairs_all_consumers():
    exp = ClusterExperiment(n_servers=8, gpus_per_server=2)
    placement = exp.place(llm_heavy_tenants())
    consumers = [t.name for t in llm_heavy_tenants() if t.is_consumer_workload]
    matched = {c for c, _ in placement.pairs}
    assert set(consumers) <= matched


_HASH_SEED_RUN = """
import json
from repro.experiments.cluster_run import ClusterExperiment, Tenant

tenants = [
    Tenant("opt-0", "OPT-30B", "longprompt"),
    Tenant("sd-0", "StableDiffusion-1.5", "producer", rate=2.0),
    Tenant("code-0", "CodeLlama-34B", "codesummary", rate=1.0),
    Tenant("audio-0", "AudioGen", "producer", rate=2.0),
]
results = ClusterExperiment(n_servers=2).run(tenants, duration=10.0)["results"]
print(json.dumps({n: [r.completed, r.tokens] for n, r in sorted(results.items())}))
"""


def test_cluster_run_does_not_depend_on_the_string_hash_seed():
    """Per-tenant request seeds come from ``derive_seed``, not ``hash()``:
    two interpreters with different ``PYTHONHASHSEED`` values run the
    same cluster to the same completions and tokens."""
    src = str(Path(__file__).resolve().parent.parent / "src")

    def run(hash_seed: str) -> dict:
        env = {**os.environ, "PYTHONPATH": src, "PYTHONHASHSEED": hash_seed}
        out = subprocess.run(
            [sys.executable, "-c", _HASH_SEED_RUN],
            capture_output=True, text=True, check=True, env=env,
        )
        return json.loads(out.stdout)

    first, second = run("1"), run("2")
    assert first == second
    assert all(tokens > 0 for _, tokens in first.values())
