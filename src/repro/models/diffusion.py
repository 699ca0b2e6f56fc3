"""Diffusion (image generation) performance model.

Image generators run a fixed number of denoising steps, each a dense
convolution/attention stack: throughput scales with batch size until
the GPU's FLOPs are saturated and then plateaus, with tens of GB of
HBM still free (paper Figure 2b).  That compute-bound profile is what
makes these models ideal *memory producers* for AQUA.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.hardware.specs import GiB, GPUSpec


@dataclass(frozen=True)
class DiffusionSpec:
    """Cost model for one latent-diffusion image generator.

    Attributes
    ----------
    name:
        Model identifier (SD, SD-XL, Kandinsky in the paper's Table 3).
    weight_bytes:
        HBM held by the UNet + text encoder + VAE in FP16.
    denoise_steps:
        Scheduler steps per image.
    flops_per_step_per_image:
        Dense FLOPs of one UNet evaluation for one image.
    activation_bytes_per_image:
        Peak activation memory per concurrent image in a batch.
    """

    name: str
    weight_bytes: int
    denoise_steps: int
    flops_per_step_per_image: float
    activation_bytes_per_image: int

    def batch_time(self, gpu: GPUSpec, batch_size: int) -> float:
        """Seconds to generate ``batch_size`` images together."""
        if batch_size < 0:
            raise ValueError(f"negative batch size {batch_size}")
        if batch_size == 0:
            return 0.0
        per_step = (
            gpu.kernel_overhead * 40  # scheduler + UNet launch overheads
            + batch_size * self.flops_per_step_per_image / gpu.effective_flops
        )
        return self.denoise_steps * per_step

    def throughput(self, gpu: GPUSpec, batch_size: int) -> float:
        """Images per second at a given batch size."""
        t = self.batch_time(gpu, batch_size)
        return batch_size / t if t > 0 else 0.0

    def memory_used(self, batch_size: int) -> int:
        """HBM bytes needed to run a batch of this size."""
        if batch_size < 0:
            raise ValueError(f"negative batch size {batch_size}")
        return self.weight_bytes + batch_size * self.activation_bytes_per_image

    def free_memory(self, gpu: GPUSpec, batch_size: int) -> int:
        """HBM left over while running a batch of this size."""
        free = gpu.hbm_bytes - self.memory_used(batch_size)
        if free < 0:
            raise ValueError(
                f"{self.name}: a batch of {batch_size} needs {self.memory_used(batch_size)} "
                f"bytes, more than the {gpu.hbm_bytes} of {gpu.name}"
            )
        return free

    def peak_throughput_batch(self, gpu: GPUSpec, max_batch: int = 64) -> int:
        """Smallest batch achieving ~97% of the throughput plateau.

        The paper picks a batch "anywhere on the plateau" to maximize
        free memory; this mirrors that choice.
        """
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
# Presets (FP16 weights; FLOPs from published UNet sizes at 512px/1024px)
# ---------------------------------------------------------------------------
SD_15 = DiffusionSpec(
    name="StableDiffusion-1.5",
    weight_bytes=int(4 * GiB),
    denoise_steps=50,
    flops_per_step_per_image=0.7e12,
    activation_bytes_per_image=int(0.8 * GiB),
)

SD_XL = DiffusionSpec(
    name="StableDiffusion-XL",
    weight_bytes=int(7 * GiB),
    denoise_steps=50,
    flops_per_step_per_image=3.0e12,
    activation_bytes_per_image=int(1.6 * GiB),
)

KANDINSKY = DiffusionSpec(
    name="Kandinsky-2.2",
    weight_bytes=int(6 * GiB),
    denoise_steps=50,
    flops_per_step_per_image=1.5e12,
    activation_bytes_per_image=int(1.2 * GiB),
)
