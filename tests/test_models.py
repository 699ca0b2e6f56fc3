"""Tests for the model performance models, including Figure 2 behaviour."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hardware import A100_80G
from repro.hardware.specs import GiB
from repro.models import (
    AUDIOGEN,
    CODELLAMA_34B,
    KANDINSKY,
    LLAMA2_13B,
    MISTRAL_7B,
    OPT_30B,
    SD_15,
    LoRAAdapter,
    MTEB_ADAPTER,
    ZEPHYR_ADAPTER,
    get_model,
    synthesize_adapters,
)
from repro.models.llm import LLMSpec
from repro.models.registry import ALL_MODELS, BoundKind, classify


# ---------------------------------------------------------------------------
# LLM footprints
# ---------------------------------------------------------------------------
def test_weight_bytes_fp16():
    assert LLAMA2_13B.weight_bytes == pytest.approx(26e9, rel=0.01)
    assert OPT_30B.weight_bytes == pytest.approx(60e9, rel=0.01)


def test_kv_bytes_per_token_full_attention():
    # Llama-2-13B: 2 (K+V) * 40 layers * 40 heads * 128 dim * 2 bytes.
    assert LLAMA2_13B.kv_bytes_per_token == 2 * 40 * 40 * 128 * 2


def test_kv_bytes_per_token_gqa_smaller():
    """GQA models (Mistral, CodeLlama) have much smaller KV caches."""
    assert MISTRAL_7B.kv_bytes_per_token == 2 * 32 * 8 * 128 * 2
    assert MISTRAL_7B.kv_bytes_per_token < LLAMA2_13B.kv_bytes_per_token


def test_opt30b_long_prompt_kv_exceeds_free_memory():
    """The paper's premise: an 8000-token prompt on OPT-30B cannot fit.

    60 GB of weights + activation workspace leave less free HBM on an
    A100-80G than the ~11 GB KV cache of an 8000-token sequence.
    """
    kv = OPT_30B.kv_bytes(8000)
    free = OPT_30B.free_kv_bytes(A100_80G, workspace_tokens=8000)
    assert kv > free


def test_kv_bytes_negative_rejected():
    with pytest.raises(ValueError):
        LLAMA2_13B.kv_bytes(-1)


def test_invalid_geometry_rejected():
    with pytest.raises(ValueError):
        LLMSpec("x", 1e9, n_layers=4, n_heads=4, n_kv_heads=8, head_dim=64)
    with pytest.raises(ValueError):
        LLMSpec("x", 1e9, n_layers=0, n_heads=4, n_kv_heads=4, head_dim=64)


# ---------------------------------------------------------------------------
# LLM timing rooflines
# ---------------------------------------------------------------------------
def test_decode_single_stream_rate_realistic():
    """One Llama-2-13B stream decodes at tens of tokens/second on an A100."""
    step = LLAMA2_13B.decode_step_time(A100_80G, batch_size=1, context_tokens=500)
    rate = 1 / step
    assert 20 < rate < 120


def test_decode_batch_scales_throughput():
    """Batching decodes more tokens/s: the memory roofline is shared."""
    t1 = LLAMA2_13B.decode_throughput(A100_80G, batch_size=1, avg_context_tokens=500)
    t16 = LLAMA2_13B.decode_throughput(A100_80G, batch_size=16, avg_context_tokens=500)
    assert t16 > 5 * t1


def test_decode_memory_bound_at_moderate_batch():
    """Decode time is set by HBM streaming, not FLOPs, at batch 16."""
    spec = LLAMA2_13B
    memory = (
        spec.weight_bytes + spec.kv_bytes(16 * 500)
    ) / A100_80G.effective_hbm_bandwidth
    compute = 2 * spec.n_params * 16 / A100_80G.effective_flops
    assert memory > compute


def test_prefill_time_compute_bound_scales_with_tokens():
    short = LLAMA2_13B.prefill_time(A100_80G, 100)
    long = LLAMA2_13B.prefill_time(A100_80G, 2000)
    assert long > 5 * short


def test_prefill_zero_tokens():
    assert LLAMA2_13B.prefill_time(A100_80G, 0) == 0.0


def test_decode_zero_batch():
    assert LLAMA2_13B.decode_step_time(A100_80G, 0, 0) == 0.0


def test_negative_inputs_rejected():
    with pytest.raises(ValueError):
        LLAMA2_13B.prefill_time(A100_80G, -1)
    with pytest.raises(ValueError):
        LLAMA2_13B.decode_step_time(A100_80G, -1, 0)


@given(tokens=st.integers(min_value=1, max_value=16000))
@settings(max_examples=50, deadline=None)
def test_prefill_monotone_in_tokens(tokens):
    """Property: longer prompts never prefill faster."""
    t_a = LLAMA2_13B.prefill_time(A100_80G, tokens)
    t_b = LLAMA2_13B.prefill_time(A100_80G, tokens + 1)
    assert t_b >= t_a


@given(batch=st.integers(min_value=1, max_value=256))
@settings(max_examples=50, deadline=None)
def test_decode_step_monotone_in_batch(batch):
    """Property: larger batches never take less time per step."""
    t_a = LLAMA2_13B.decode_step_time(A100_80G, batch, batch * 100)
    t_b = LLAMA2_13B.decode_step_time(A100_80G, batch + 1, (batch + 1) * 100)
    assert t_b >= t_a


# ---------------------------------------------------------------------------
# Figure 2 behaviour: compute- vs memory-bound classification
# ---------------------------------------------------------------------------
def test_fig2_diffusion_plateau_leaves_free_memory():
    """Figure 2b: SD peaks in throughput with tens of GB of HBM free."""
    batch = SD_15.peak_throughput_batch(A100_80G)
    free = SD_15.free_memory(A100_80G, batch)
    assert free > 20 * GiB


def test_fig2_audio_plateau_leaves_free_memory():
    """Figure 2a: AudioGen peaks with tens of GB of HBM free."""
    batch = AUDIOGEN.peak_throughput_batch(A100_80G)
    assert AUDIOGEN.free_memory(A100_80G, batch) > 20 * GiB


def test_fig2_diffusion_throughput_plateaus():
    t8 = SD_15.throughput(A100_80G, 8)
    t32 = SD_15.throughput(A100_80G, 32)
    t64 = SD_15.throughput(A100_80G, 64)
    assert t32 > t8  # still scaling at small batch
    assert t64 < 1.1 * t32  # plateau: diminishing returns


def test_fig2_llm_exhausts_memory_at_peak():
    """Figure 2c: the LLM's peak batch nearly exhausts HBM."""
    free_hbm = A100_80G.hbm_bytes - LLAMA2_13B.weight_bytes
    batch = free_hbm // LLAMA2_13B.kv_bytes(800)
    kv = LLAMA2_13B.kv_bytes(batch * 800)
    free = A100_80G.hbm_bytes - LLAMA2_13B.weight_bytes - kv
    assert free < 5 * GiB


def test_classification_by_modality():
    assert classify(LLAMA2_13B) is BoundKind.MEMORY
    assert classify(CODELLAMA_34B) is BoundKind.MEMORY
    assert classify(SD_15) is BoundKind.COMPUTE
    assert classify(AUDIOGEN) is BoundKind.COMPUTE
    assert classify(KANDINSKY) is BoundKind.COMPUTE


def test_audio_batch_time_scales():
    assert AUDIOGEN.batch_time(A100_80G, 8) > AUDIOGEN.batch_time(A100_80G, 1)
    assert AUDIOGEN.batch_time(A100_80G, 0) == 0.0
    with pytest.raises(ValueError):
        AUDIOGEN.batch_time(A100_80G, -1)


def test_diffusion_invalid_batch_rejected():
    with pytest.raises(ValueError):
        SD_15.batch_time(A100_80G, -1)
    with pytest.raises(ValueError):
        SD_15.memory_used(-1)


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------
def test_registry_has_all_paper_models():
    for name in (
        "OPT-30B",
        "Llama-2-13B",
        "Mistral-7B",
        "CodeLlama-34B",
        "StableDiffusion-1.5",
        "StableDiffusion-XL",
        "Kandinsky-2.2",
        "AudioGen",
        "MusicGen",
    ):
        assert name in ALL_MODELS
        assert get_model(name).name == name


def test_registry_unknown_model():
    with pytest.raises(KeyError, match="unknown model"):
        get_model("GPT-5")


# ---------------------------------------------------------------------------
# LoRA adapters
# ---------------------------------------------------------------------------
def test_paper_adapter_sizes():
    assert ZEPHYR_ADAPTER.nbytes == 320 * 10**6
    assert MTEB_ADAPTER.nbytes == 160 * 10**6


def test_synthesize_adapters():
    adapters = synthesize_adapters(30, 320 * 10**6)
    assert len(adapters) == 30
    assert len({a.name for a in adapters}) == 30
    assert all(a.nbytes == 320 * 10**6 for a in adapters)


def test_adapter_validation():
    with pytest.raises(ValueError):
        LoRAAdapter(name="bad", nbytes=0)
    with pytest.raises(ValueError):
        LoRAAdapter(name="bad", nbytes=100, rank=0)
    with pytest.raises(ValueError):
        synthesize_adapters(-1, 100)


@pytest.mark.parametrize("model", [SD_15, AUDIOGEN])
def test_free_memory_of_a_batch_that_does_not_fit_raises(model):
    assert model.memory_used(1_000_000) > A100_80G.hbm_bytes
    with pytest.raises(ValueError, match="more than"):
        model.free_memory(A100_80G, 1_000_000)
