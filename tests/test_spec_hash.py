"""Hashing of the spec dataclasses that key the roofline caches.

:class:`~repro.models.llm.LLMSpec` and
:class:`~repro.hardware.specs.GPUSpec` compute their hash once per
instance.  It must be the hash their frozen dataclass would generate,
and it must be computed afresh in every process: string hashes are
salted per process, so a hash carried inside a pickle would make a
loaded spec miss its own preset in a set or a cache.
"""

import dataclasses
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.hardware.specs import A100_80G, H100_80G
from repro.models.llm import CODELLAMA_34B, LLAMA2_13B, MISTRAL_7B, OPT_30B, LLMSpec

PRESETS = [MISTRAL_7B, LLAMA2_13B, OPT_30B, CODELLAMA_34B, A100_80G, H100_80G]
IDS = [spec.name for spec in PRESETS]


def _twin(spec):
    """A freshly built spec with the same field values."""
    return type(spec)(**{f.name: getattr(spec, f.name) for f in dataclasses.fields(spec)})


def _generated_hash(spec) -> int:
    """The hash a plain frozen dataclass with ``spec``'s fields gives."""
    cls = type(spec)
    plain = dataclasses.make_dataclass(
        f"Plain{cls.__name__}",
        [(f.name, f.type) for f in dataclasses.fields(cls)],
        frozen=True,
    )
    return hash(plain(**{f.name: getattr(spec, f.name) for f in dataclasses.fields(cls)}))


@pytest.mark.parametrize("spec", PRESETS, ids=IDS)
def test_equal_specs_hash_equal(spec):
    for other in (dataclasses.replace(spec), _twin(spec)):
        assert other is not spec
        assert other == spec and hash(other) == hash(spec)
    assert hash(dataclasses.replace(spec, name=spec.name + "'")) != hash(spec)


@pytest.mark.parametrize("spec", PRESETS, ids=IDS)
def test_cached_hash_is_the_dataclass_hash(spec):
    assert hash(spec) == _generated_hash(spec)


@pytest.mark.parametrize("spec", PRESETS, ids=IDS)
def test_a_spec_survives_a_pickle_round_trip(spec):
    loaded = pickle.loads(pickle.dumps(spec))
    assert loaded == spec and hash(loaded) == hash(spec)
    assert loaded in set(PRESETS)


def test_a_spec_pickled_here_hashes_like_the_loading_process_preset():
    """Load in a process whose string hashes are salted differently."""
    seed = "2" if os.environ.get("PYTHONHASHSEED") == "1" else "1"
    child = (
        "import pickle, sys\n"
        "from repro.hardware.specs import A100_80G, H100_80G\n"
        "from repro.models.llm import CODELLAMA_34B, LLAMA2_13B, MISTRAL_7B, OPT_30B\n"
        "presets = [MISTRAL_7B, LLAMA2_13B, OPT_30B, CODELLAMA_34B, A100_80G, H100_80G]\n"
        "loaded = pickle.loads(sys.stdin.buffer.read())\n"
        "print(all(hash(s) == hash(p) for s, p in zip(loaded, presets)),\n"
        "      all(s in set(presets) for s in loaded))\n"
    )
    src = str(Path(repro.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": src}
    out = subprocess.run(
        [sys.executable, "-c", child],
        input=pickle.dumps(PRESETS),
        env=env,
        capture_output=True,
        check=True,
    )
    assert out.stdout.split() == [b"True", b"True"], out


def test_a_subclass_twin_hashes_alike_but_is_not_equal():
    class Paced(LLMSpec):
        pass

    paced = Paced(**{f.name: getattr(MISTRAL_7B, f.name) for f in dataclasses.fields(LLMSpec)})
    assert hash(paced) == hash(MISTRAL_7B) and paced != MISTRAL_7B


def test_specs_stay_frozen():
    with pytest.raises(dataclasses.FrozenInstanceError):
        A100_80G.name = "other"
    with pytest.raises(dataclasses.FrozenInstanceError):
        MISTRAL_7B.n_layers = 1
