"""Multi-GPU servers: the paper's two testbeds, as simulation objects."""

from __future__ import annotations

from typing import Generator, Hashable, Optional

from repro.hardware.dma import Transfer, TransferStats
from repro.hardware.gpu import GPU, HostDRAM
from repro.hardware.interconnect import Interconnect
from repro.hardware.specs import (
    A100_80G,
    NVLINK3_P2P,
    NVSWITCH_A100,
    PCIE_GEN4_X16,
    GiB,
    GPUSpec,
    LinkSpec,
)

#: Default host memory: both evaluation servers have 1 TB of DRAM.
DEFAULT_DRAM_BYTES = 1024 * GiB


class Server:
    """A multi-GPU server with NVLink/NVSwitch wiring and host DRAM.

    Parameters
    ----------
    env:
        Simulation environment.
    n_gpus:
        Number of GPUs (the paper uses 2 and 8).
    topology:
        ``"p2p"`` wires every GPU pair with a dedicated direct link
        (matching the 2-GPU testbed); ``"nvswitch"`` gives each GPU an
        ingress and egress port into a non-blocking fabric (the 8-GPU
        DGX-style testbed).
    gpu_spec, gpu_link, pcie_link:
        Hardware presets; defaults are the paper's A100-80G setup.
    dram_bytes:
        Host DRAM capacity (1 TB on both testbeds).
    name:
        Identifier used in routes and reports.
    """

    def __init__(
        self,
        env,
        n_gpus: int = 2,
        topology: str = "p2p",
        gpu_spec: GPUSpec = A100_80G,
        gpu_link: Optional[LinkSpec] = None,
        pcie_link: LinkSpec = PCIE_GEN4_X16,
        dram_bytes: int = DEFAULT_DRAM_BYTES,
        name: str = "server0",
    ) -> None:
        if n_gpus < 1:
            raise ValueError(f"n_gpus must be >= 1, got {n_gpus}")
        if topology not in ("p2p", "nvswitch"):
            raise ValueError(f"unknown topology {topology!r}")
        if gpu_link is None:
            gpu_link = NVLINK3_P2P if topology == "p2p" else NVSWITCH_A100

        self.env = env
        self.name = name
        self.topology = topology
        self.gpu_link = gpu_link
        self.pcie_link = pcie_link
        self.gpus = [GPU(env, i, gpu_spec, server=self) for i in range(n_gpus)]
        self.dram = HostDRAM(env, dram_bytes, server=self)
        self.interconnect = Interconnect(env)
        self.transfer_stats = TransferStats()
        #: Optional :class:`~repro.telemetry.Telemetry` hub of every DMA
        #: copy and component on this server; ``Telemetry.attach_server``
        #: installs it before anything is built here.
        self.telemetry = None
        self.hub_readers: list[str] = []  # components built (hub_for)
        self._wire()

    # ------------------------------------------------------------------
    # Topology construction
    # ------------------------------------------------------------------
    def _wire(self) -> None:
        ic = self.interconnect
        # PCIe: one full-duplex channel pair per GPU towards host DRAM.
        for gpu in self.gpus:
            up = ic.add_channel(f"{self.name}:pcie-up:gpu{gpu.index}", self.pcie_link)
            down = ic.add_channel(f"{self.name}:pcie-down:gpu{gpu.index}", self.pcie_link)
            ic.add_route(gpu, self.dram, [up.name])
            ic.add_route(self.dram, gpu, [down.name])

        if self.topology == "p2p":
            for a in self.gpus:
                for b in self.gpus:
                    if a is b:
                        continue
                    link = ic.add_channel(
                        f"{self.name}:nvlink:gpu{a.index}->gpu{b.index}", self.gpu_link
                    )
                    ic.add_route(a, b, [link.name])
        else:  # nvswitch
            for gpu in self.gpus:
                ic.add_channel(f"{self.name}:nvswitch-egress:gpu{gpu.index}", self.gpu_link)
                ic.add_channel(f"{self.name}:nvswitch-ingress:gpu{gpu.index}", self.gpu_link)
            for a in self.gpus:
                for b in self.gpus:
                    if a is b:
                        continue
                    ic.add_route(
                        a,
                        b,
                        [
                            f"{self.name}:nvswitch-egress:gpu{a.index}",
                            f"{self.name}:nvswitch-ingress:gpu{b.index}",
                        ],
                    )

    # ------------------------------------------------------------------
    # Operations
    # ------------------------------------------------------------------
    def transfer(
        self,
        src: Hashable,
        dst: Hashable,
        nbytes: float,
        pieces: int = 1,
        ctx: Optional[int] = None,
    ) -> Generator:
        """Copy ``nbytes`` from ``src`` to ``dst``; yield-from inside a process.

        ``ctx`` is the trace ID of the request the copy serves, if any —
        it ties the DMA hop into the request's causal trace.
        """
        return Transfer(
            self.env,
            self.interconnect,
            src,
            dst,
            nbytes,
            pieces=pieces,
            stats=self.transfer_stats,
            telemetry=self.telemetry,
            ctx=ctx,
        ).run()

    def hub_for(self, component: str):
        """The hub ``component``, being built here, keeps for its life."""
        self.hub_readers.append(component)
        return self.telemetry

    def transfer_time(self, src: Hashable, dst: Hashable, nbytes: float, pieces: int = 1) -> float:
        """Uncontended time for such a copy (no simulation side effects)."""
        t = Transfer(self.env, self.interconnect, src, dst, nbytes, pieces=pieces)
        if nbytes == 0:
            return 0.0
        return t.wire_time(self.interconnect.route(src, dst))

    @property
    def devices(self) -> list[Hashable]:
        return [*self.gpus, self.dram]

    def __repr__(self) -> str:
        return (
            f"<Server {self.name} gpus={len(self.gpus)} "
            f"topology={self.topology}>"
        )
