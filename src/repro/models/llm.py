"""Transformer LLM performance model.

Decode (one token for every sequence in the batch) is memory-bound on
modern GPUs: every step must stream the full weights plus the KV cache
of all live sequences through HBM.  Prefill (ingesting the prompt) is
compute-bound: ~2 FLOPs per parameter per token.  Both regimes are
captured by a max(memory-time, compute-time) roofline, which is what
makes LLM inference memory-bound in the paper's sense (§2.2) — the
number of concurrent sequences is limited by KV-cache space, not FLOPs.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

from repro.hardware.specs import GPUSpec, field_hash, rebuild

#: Bytes per value for FP16/BF16 inference.
FP16_BYTES = 2


@dataclass(frozen=True)
class LLMSpec:
    """Architecture and derived cost model of one decoder-only LLM.

    Attributes
    ----------
    name:
        Model identifier (matches the paper's Tables 1-2).
    n_params:
        Total parameter count.
    n_layers, n_heads, n_kv_heads, head_dim:
        Transformer geometry.  ``n_kv_heads < n_heads`` models
        grouped-query attention (Mistral, CodeLlama), which shrinks the
        KV cache.
    max_context:
        Maximum sequence length the model supports.
    dtype_bytes:
        Bytes per weight/KV element (2 for FP16).
    """

    name: str
    n_params: float
    n_layers: int
    n_heads: int
    n_kv_heads: int
    head_dim: int
    max_context: int = 4096
    dtype_bytes: int = FP16_BYTES

    def __post_init__(self) -> None:
        if self.n_kv_heads > self.n_heads:
            raise ValueError("n_kv_heads cannot exceed n_heads")
        if min(self.n_layers, self.n_heads, self.n_kv_heads, self.head_dim) < 1:
            raise ValueError("transformer geometry values must be >= 1")
        object.__setattr__(self, "_hash", field_hash(self))

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        return rebuild(self)

    # ------------------------------------------------------------------
    # Memory footprint
    # ------------------------------------------------------------------
    # cached_property on a frozen dataclass writes straight to __dict__,
    # bypassing the frozen __setattr__; these are read on every simulated
    # iteration and allocator decision.
    @cached_property
    def hidden_dim(self) -> int:
        return self.n_heads * self.head_dim

    @cached_property
    def weight_bytes(self) -> int:
        """Bytes of HBM consumed by the model weights."""
        return int(self.n_params * self.dtype_bytes)

    @cached_property
    def kv_bytes_per_token(self) -> int:
        """Bytes of KV cache for one token across all layers (K and V)."""
        return 2 * self.n_layers * self.n_kv_heads * self.head_dim * self.dtype_bytes

    def kv_bytes(self, n_tokens: int) -> int:
        """KV-cache bytes for a sequence of ``n_tokens``."""
        if n_tokens < 0:
            raise ValueError(f"negative token count {n_tokens}")
        return self.kv_bytes_per_token * n_tokens

    def activation_workspace_bytes(self, batch_tokens: int = 2048) -> int:
        """Scratch memory the serving engine must keep free for activations.

        Covers the live activation tensors of a prefill chunk: residual
        stream, attention inputs/outputs, the 4x-hidden MLP intermediate
        and attention scratch.  Engines size this for the largest prompt
        they admit.
        """
        per_token = 96 * self.hidden_dim * self.dtype_bytes
        return int(per_token * batch_tokens)

    def free_kv_bytes(
        self,
        gpu: GPUSpec,
        workspace_tokens: int = 2048,
        utilization: float = 0.9,
    ) -> int:
        """HBM bytes a serving engine can devote to KV cache.

        Mirrors real engines (e.g. vLLM's ``gpu_memory_utilization``):
        only a fraction of HBM is usable, and weights plus activation
        workspace come out of it first.  May be negative when the model
        plus workspace already exceed the budget.
        """
        budget = int(gpu.hbm_bytes * utilization)
        return budget - self.weight_bytes - self.activation_workspace_bytes(
            workspace_tokens
        )

    # ------------------------------------------------------------------
    # Timing rooflines
    # ------------------------------------------------------------------
    def prefill_time(self, gpu: GPUSpec, n_tokens: int) -> float:
        """Seconds to ingest a prompt of ``n_tokens`` (compute-bound)."""
        if n_tokens < 0:
            raise ValueError(f"negative token count {n_tokens}")
        if n_tokens == 0:
            return 0.0
        return _prefill_time(self, gpu, n_tokens)

    def decode_step_time(
        self, gpu: GPUSpec, batch_size: int, context_tokens: int
    ) -> float:
        """Seconds for one decode iteration.

        Parameters
        ----------
        batch_size:
            Number of sequences generating one token each.
        context_tokens:
            Total tokens of KV cache that must be read this step
            (summed across the batch).
        """
        if batch_size < 0 or context_tokens < 0:
            raise ValueError("batch_size and context_tokens must be >= 0")
        if batch_size == 0:
            return 0.0
        weight_read, compute, overhead = _decode_coeffs(self, gpu, batch_size)
        memory = (
            weight_read + self.kv_bytes_per_token * context_tokens
        ) / gpu.effective_hbm_bandwidth
        return max(memory, compute) + overhead

    def decode_throughput(
        self, gpu: GPUSpec, batch_size: int, avg_context_tokens: float
    ) -> float:
        """Steady-state tokens/second for a fixed batch."""
        step = self.decode_step_time(
            gpu, batch_size, int(batch_size * avg_context_tokens)
        )
        return batch_size / step if step > 0 else 0.0

    def __str__(self) -> str:
        return self.name


# ---------------------------------------------------------------------------
# Roofline caches
# ---------------------------------------------------------------------------
# Engines evaluate the rooflines every simulated iteration, and a
# frontier frontend once per prefill and once per decode, but the
# inputs repeat heavily: a (model, GPU, batch) triple pins the decode
# coefficients, and prompt lengths come from finite traces.  Both specs
# hash as their frozen dataclass would, but compute that hash once per
# instance (see :func:`~repro.hardware.specs.field_hash`), so a cache
# hit no longer re-hashes every field of both keys.  The expressions
# below must stay term-for-term identical to the pre-cache formulas —
# the determinism golden digest folds these floats via repr().


@lru_cache(maxsize=4096)
def _decode_coeffs(
    spec: LLMSpec, gpu: GPUSpec, batch_size: int
) -> tuple[float, float, float]:
    """(weight_read bytes, compute seconds, overhead seconds) for decode."""
    weight_read = spec.weight_bytes
    compute = 2.0 * spec.n_params * batch_size / gpu.effective_flops
    overhead = spec.n_layers * gpu.kernel_overhead
    return weight_read, compute, overhead


@lru_cache(maxsize=4096)
def _prefill_time(spec: LLMSpec, gpu: GPUSpec, n_tokens: int) -> float:
    linear_flops = 2.0 * spec.n_params * n_tokens
    # Attention score/context matmuls grow quadratically with length.
    attn_flops = 4.0 * spec.n_layers * spec.hidden_dim * float(n_tokens) ** 2
    compute = (linear_flops + attn_flops) / gpu.effective_flops
    # Prefill must still stream the weights at least once.
    memory = spec.weight_bytes / gpu.effective_hbm_bandwidth
    return max(compute, memory) + spec.n_layers * gpu.kernel_overhead


# ---------------------------------------------------------------------------
# Presets: the LLMs evaluated in the paper (Tables 1 and 2)
# ---------------------------------------------------------------------------
OPT_30B = LLMSpec(
    name="OPT-30B",
    n_params=30.0e9,
    n_layers=48,
    n_heads=56,
    n_kv_heads=56,
    head_dim=128,
    max_context=2048,
)

LLAMA2_13B = LLMSpec(
    name="Llama-2-13B",
    n_params=13.0e9,
    n_layers=40,
    n_heads=40,
    n_kv_heads=40,
    head_dim=128,
    max_context=4096,
)

MISTRAL_7B = LLMSpec(
    name="Mistral-7B",
    n_params=7.24e9,
    n_layers=32,
    n_heads=32,
    n_kv_heads=8,
    head_dim=128,
    max_context=8192,
)

CODELLAMA_34B = LLMSpec(
    name="CodeLlama-34B",
    n_params=34.0e9,
    n_layers=48,
    n_heads=64,
    n_kv_heads=8,
    head_dim=128,
    max_context=16384,
)
