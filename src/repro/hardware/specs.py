"""Hardware specification presets.

All numbers come from public datasheets and the paper's own measurements:

* A100-80G: 80 GiB HBM2e at ~2.0 TB/s, 312 TFLOP/s FP16 (dense).
* NVLink-3 GPU pair: the paper measures ~100 GB/s effective at 2 MB
  transfers, saturating at ~250 GB/s (Figure 3a).  A ``latency +
  size/peak`` model with 12 us latency and 250 GB/s peak reproduces both
  points.
* PCIe 4.0 x16: ~25 GB/s effective (A100 hosts); PCIe 5.0 x16: 64 GB/s
  (quoted in the paper for comparison).
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from functools import cached_property

GiB = 1024**3
GB = 10**9
MB = 10**6
KB = 10**3


def field_hash(spec) -> int:
    """The hash ``@dataclass(frozen=True)`` generates for ``spec``: that
    of the tuple of its fields, in declaration order.

    ``GPUSpec`` and :class:`~repro.models.llm.LLMSpec` key the roofline
    caches, which hash them on every call; they compute this once, in
    ``__post_init__``, and return it from ``__hash__``.
    """
    return hash(tuple(getattr(spec, f.name) for f in fields(spec)))


def rebuild(spec) -> tuple:
    """``__reduce__`` for a spec whose hash is cached: rebuild it from its
    fields, so the loading process hashes it afresh.

    String hashes are salted per process, so a pickled hash would not
    match the loading process's presets.
    """
    return type(spec), tuple(getattr(spec, f.name) for f in fields(spec))


@dataclass(frozen=True)
class GPUSpec:
    """Static performance characteristics of one GPU.

    Attributes
    ----------
    name:
        Human-readable identifier.
    hbm_bytes:
        High-bandwidth memory capacity in bytes.
    hbm_bandwidth:
        HBM read/write bandwidth in bytes/s (drives memory-bound kernels).
    fp16_flops:
        Peak dense FP16 throughput in FLOP/s.
    flops_efficiency:
        Fraction of peak FLOP/s achievable by real inference kernels.
    kernel_overhead:
        Fixed per-kernel-launch overhead in seconds.
    copy_interference:
        Fractional slowdown of concurrent compute while this GPU is a
        source or destination of an interconnect copy (Figure 3b shows
        this is <5% in practice).
    """

    name: str
    hbm_bytes: int
    hbm_bandwidth: float
    fp16_flops: float
    flops_efficiency: float = 0.5
    kernel_overhead: float = 30e-6
    copy_interference: float = 0.03

    def __post_init__(self) -> None:
        object.__setattr__(self, "_hash", field_hash(self))

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        return rebuild(self)

    # cached_property works on a frozen dataclass (it writes straight to
    # ``__dict__``, bypassing the frozen ``__setattr__``); these are read
    # on every roofline evaluation, i.e. every simulated iteration.
    @cached_property
    def effective_flops(self) -> float:
        """Achievable FLOP/s for dense inference kernels."""
        return self.fp16_flops * self.flops_efficiency

    @cached_property
    def effective_hbm_bandwidth(self) -> float:
        """Achievable HBM bandwidth (real kernels reach ~80% of peak)."""
        return self.hbm_bandwidth * 0.8


@dataclass(frozen=True)
class LinkSpec:
    """A point-to-point data path with a latency + bandwidth cost model.

    The time to move ``n`` bytes is ``latency + n / peak_bandwidth``;
    the resulting *effective* bandwidth ``n / time`` is tiny for small
    transfers and approaches ``peak_bandwidth`` for large ones, matching
    the measured NVLink curve of Figure 3a.
    """

    name: str
    peak_bandwidth: float  # bytes / second
    latency: float  # seconds of fixed setup cost per transfer

    def transfer_time(self, nbytes: float) -> float:
        """Seconds to move ``nbytes`` over this link, uncontended."""
        if nbytes < 0:
            raise ValueError(f"negative transfer size {nbytes}")
        if nbytes == 0:
            return 0.0
        return self.latency + nbytes / self.peak_bandwidth

    def effective_bandwidth(self, nbytes: float) -> float:
        """Observed bandwidth (bytes/s) for a transfer of ``nbytes``."""
        if nbytes <= 0:
            return 0.0
        return nbytes / self.transfer_time(nbytes)


def transfer_time(spec: LinkSpec, nbytes: float) -> float:
    """Module-level convenience wrapper for :meth:`LinkSpec.transfer_time`."""
    return spec.transfer_time(nbytes)


def effective_bandwidth(spec: LinkSpec, nbytes: float) -> float:
    """Module-level wrapper for :meth:`LinkSpec.effective_bandwidth`."""
    return spec.effective_bandwidth(nbytes)


# ---------------------------------------------------------------------------
# GPU presets
# ---------------------------------------------------------------------------
A100_80G = GPUSpec(
    name="A100-80G",
    hbm_bytes=80 * GiB,
    hbm_bandwidth=2.0e12,
    fp16_flops=312e12,
)

H100_80G = GPUSpec(
    name="H100-80G",
    hbm_bytes=80 * GiB,
    hbm_bandwidth=3.35e12,
    fp16_flops=990e12,
)


# ---------------------------------------------------------------------------
# Link presets
# ---------------------------------------------------------------------------
#: PCIe 4.0 x16 as seen by an A100 (~25 GB/s effective for large DMA).
PCIE_GEN4_X16 = LinkSpec(name="PCIe-4.0-x16", peak_bandwidth=25 * GB, latency=10e-6)

#: PCIe 5.0 x16 (64 GB/s, quoted by the paper for newer hosts).
PCIE_GEN5_X16 = LinkSpec(name="PCIe-5.0-x16", peak_bandwidth=64 * GB, latency=8e-6)

#: Direct NVLink-3 between two A100s.  Calibrated against Figure 3a:
#: effective bandwidth is ~100 GB/s at 2 MB and saturates near 250 GB/s.
NVLINK3_P2P = LinkSpec(name="NVLink-3-P2P", peak_bandwidth=250 * GB, latency=12e-6)

#: NVLink-4 between two H100s (~450 GB/s per direction).
NVLINK4_P2P = LinkSpec(name="NVLink-4-P2P", peak_bandwidth=450 * GB, latency=10e-6)

#: Per-GPU port into an A100 NVSwitch fabric (300 GB/s per direction
#: nominal; slightly higher latency than a direct link).
NVSWITCH_A100 = LinkSpec(name="NVSwitch-A100", peak_bandwidth=270 * GB, latency=15e-6)
