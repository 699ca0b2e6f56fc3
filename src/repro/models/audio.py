"""Audio generation (AudioGen / MusicGen) performance model.

Like diffusion models, the audio generators the paper evaluates are
compute-bound (Figure 2a): batched autoregressive generation over a
small-vocabulary audio-token LM saturates the GPU's FLOPs long before
its memory, leaving tens of GB of free HBM — making them natural
memory producers for AQUA.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.hardware.specs import GiB, GPUSpec


@dataclass(frozen=True)
class AudioModelSpec:
    """Cost model for one text-to-audio generator.

    Attributes
    ----------
    name:
        Model identifier (AudioGen / MusicGen in Table 3).
    weight_bytes:
        FP16 weights of the audio LM + codec.
    seconds_of_audio:
        Default clip length generated per request.
    audio_tokens_per_second:
        Discrete codec tokens per second of generated audio.
    flops_per_token_per_sample:
        FLOPs of one decode step for one sample in the batch.
    activation_bytes_per_sample:
        Peak per-sample activation + codec working set.
    """

    name: str
    weight_bytes: int
    seconds_of_audio: float
    audio_tokens_per_second: float
    flops_per_token_per_sample: float
    activation_bytes_per_sample: int

    @property
    def tokens_per_clip(self) -> int:
        return int(self.seconds_of_audio * self.audio_tokens_per_second)

    def batch_time(self, gpu: GPUSpec, batch_size: int) -> float:
        """Seconds to generate a batch of audio clips together."""
        if batch_size < 0:
            raise ValueError(f"negative batch size {batch_size}")
        if batch_size == 0:
            return 0.0
        per_token = (
            gpu.kernel_overhead * 20
            + batch_size * self.flops_per_token_per_sample / gpu.effective_flops
        )
        return self.tokens_per_clip * per_token

    def throughput(self, gpu: GPUSpec, batch_size: int) -> float:
        """Clips per second at a given batch size."""
        t = self.batch_time(gpu, batch_size)
        return batch_size / t if t > 0 else 0.0

    def memory_used(self, batch_size: int) -> int:
        if batch_size < 0:
            raise ValueError(f"negative batch size {batch_size}")
        return self.weight_bytes + batch_size * self.activation_bytes_per_sample

    def free_memory(self, gpu: GPUSpec, batch_size: int) -> int:
        free = gpu.hbm_bytes - self.memory_used(batch_size)
        if free < 0:
            raise ValueError(
                f"{self.name}: a batch of {batch_size} needs {self.memory_used(batch_size)} "
                f"bytes, more than the {gpu.hbm_bytes} of {gpu.name}"
            )
        return free

    def peak_throughput_batch(self, gpu: GPUSpec, max_batch: int = 64) -> int:
        """Smallest batch reaching ~97% of the throughput plateau."""
        best = self.throughput(gpu, max_batch)
        for batch in range(1, max_batch + 1):
            if self.memory_used(batch) > gpu.hbm_bytes:
                return max(1, batch - 1)
            if self.throughput(gpu, batch) >= 0.97 * best:
                return batch
        return max_batch

    def __str__(self) -> str:
        return self.name


# ---------------------------------------------------------------------------
# Presets
# ---------------------------------------------------------------------------
AUDIOGEN = AudioModelSpec(
    name="AudioGen",
    weight_bytes=int(3 * GiB),
    seconds_of_audio=5.0,
    audio_tokens_per_second=50.0,
    flops_per_token_per_sample=40e9,
    activation_bytes_per_sample=int(0.6 * GiB),
)

MUSICGEN = AudioModelSpec(
    name="MusicGen",
    weight_bytes=int(6 * GiB),
    seconds_of_audio=8.0,
    audio_tokens_per_second=50.0,
    flops_per_token_per_sample=60e9,
    activation_bytes_per_sample=int(0.8 * GiB),
)
