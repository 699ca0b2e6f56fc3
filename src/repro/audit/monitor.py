"""The conservation auditor: invariant checks over live simulation state.

:class:`ConservationAuditor` attaches to the objects whose books must
agree — servers (channels + transfer stats + memory pools), AQUA
coordinators (leases + allocations) and the per-GPU AQUA-LIB instances
the coordinator registers — and verifies the conservation laws at
configurable checkpoints:

**byte-conservation**
    Every channel's ``bytes_moved``/``transfer_count`` equals the sum of
    full payloads routed over it (each hop of a multi-hop route carries
    the whole payload), and ``TransferStats`` reconciles with the
    per-route ledger.  The auditor keeps an independent *shadow ledger*
    fed by :attr:`TransferStats.listeners
    <repro.hardware.dma.TransferStats.listeners>`, so a forged or
    mis-attributed counter cannot hide.

**pool-conservation**
    Per-GPU HBM and host-DRAM reservations sum to at most capacity;
    the ``aqua-offer`` tag on each producer equals its lease's
    ``offered - used``; every live tensor holds exactly its size at its
    device's pool; no reservation is orphaned (a ``tag#id`` entry with
    neither a live tensor nor a coordinator allocation behind it).

**placement**
    Every live :class:`~repro.aqua.tensor.AquaTensor`'s
    ``location``/``_device`` agrees with the coordinator's
    ``allocations`` map — including under fault injection, where books
    are reconciled lazily but must never disagree with each other.

**determinism**
    Every observed transfer and every checkpoint folds into a SHA-256
    event digest; two identical seeded runs produce byte-identical
    digests, so runs can be diffed.  (This law is checked *across* runs
    — see ``aqua-repro audit``.)

Checkpoints run either after every simulation event (via
:meth:`Environment.add_monitor <repro.sim.core.Environment.add_monitor>`)
or on a fixed simulated-time interval.  All checks are read-only.

The auditor must be attached to every coordinator whose tensors land on
the attached servers; otherwise their reservations look orphaned.  The
experiment harness (:func:`repro.experiments.harness.build_consumer_rig`
with ``audit=True``) wires this correctly.
"""

from __future__ import annotations

import hashlib
import math
import re
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional, Sequence

from repro.aqua.coordinator import DRAM
from repro.aqua.lib import AQUA_OFFER_TAG
from repro.aqua.tensor import Location

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.aqua.coordinator import Coordinator
    from repro.aqua.lib import AquaLib
    from repro.hardware.interconnect import Channel
    from repro.hardware.server import Server
    from repro.sim import Environment

#: The conservation laws the auditor enforces, in check order.
LAWS = ("byte-conservation", "pool-conservation", "placement", "determinism")

#: Reservation tags minted by AQUA tensors look like ``<base>#<id>``
#: (see :class:`~repro.aqua.tensor.AquaTensor`); nothing else in the
#: repository uses ``#`` in a tag, which is what makes orphan scanning
#: unambiguous.
_TENSOR_TAG = re.compile(r"^(?P<base>.+)#(?P<id>\d+)$")


@dataclass
class AuditViolation:
    """One broken invariant, pinned to a law, a subject and a time."""

    law: str
    subject: str
    message: str
    time: float
    checkpoint: str = ""

    def __str__(self) -> str:
        return f"[{self.law}] t={self.time:.3f} {self.subject}: {self.message}"


class AuditError(AssertionError):
    """Raised in strict mode when a checkpoint finds violations."""

    def __init__(self, violations: Sequence[AuditViolation]) -> None:
        self.violations = list(violations)
        lines = "\n".join(f"  {v}" for v in self.violations)
        super().__init__(f"{len(self.violations)} invariant violation(s):\n{lines}")


@dataclass
class AuditReport:
    """Outcome of an audited run: checkpoint count, violations, digest."""

    checks: int
    transfers_observed: int
    violations: list[AuditViolation] = field(default_factory=list)
    digest: str = ""

    @property
    def ok(self) -> bool:
        return not self.violations

    def to_dict(self) -> dict:
        """JSON-safe summary (for CLI output and experiment results)."""
        return {
            "ok": self.ok,
            "checks": self.checks,
            "transfers_observed": self.transfers_observed,
            "violations": [str(v) for v in self.violations],
            "digest": self.digest,
        }


class ConservationAuditor:
    """Opt-in invariant monitor for AQUA simulations.

    Parameters
    ----------
    env:
        The simulation environment (supplies checkpoint time).
    strict:
        Raise :class:`AuditError` at the first checkpoint that finds a
        violation instead of collecting them.
    rel_tol, abs_tol:
        Float comparison slack for byte counters (transfer sizes are
        floats; accumulation order differs between ledger and shadow).
    """

    def __init__(
        self,
        env: "Environment",
        strict: bool = False,
        rel_tol: float = 1e-9,
        abs_tol: float = 1e-3,
    ) -> None:
        self.env = env
        self.strict = strict
        self.rel_tol = rel_tol
        self.abs_tol = abs_tol
        self.violations: list[AuditViolation] = []
        self.checks = 0
        self.transfers_observed = 0
        self._servers: list["Server"] = []
        self._coordinators: list["Coordinator"] = []
        #: Shadow ledger, keyed by channel name (channel names are
        #: globally unique; cluster fabrics share channel objects
        #: between server interconnects).
        self._channels: dict[str, "Channel"] = {}
        self._base_bytes: dict[str, float] = {}
        self._base_count: dict[str, int] = {}
        self._shadow_bytes: dict[str, float] = {}
        self._shadow_count: dict[str, int] = {}
        #: Per-TransferStats baselines and shadows, keyed by object id.
        self._stats: dict[int, dict] = {}
        self._sha = hashlib.sha256()
        self._watch_interval: Optional[float] = None
        self._watching_events = False

    # ==================================================================
    # Attachment
    # ==================================================================
    def attach_server(self, server: "Server") -> "ConservationAuditor":
        """Observe a server's channels, pools and transfer statistics."""
        if server in self._servers:
            return self
        self._servers.append(server)
        for name, channel in server.interconnect.channels.items():
            if name not in self._channels:
                self._channels[name] = channel
                self._base_bytes[name] = channel.bytes_moved
                self._base_count[name] = channel.transfer_count
        stats = server.transfer_stats
        if id(stats) not in self._stats:
            self._stats[id(stats)] = {
                "stats": stats,
                "base_count": stats.count,
                "base_bytes": stats.bytes_total,
                "shadow_count": 0,
                "shadow_bytes": 0.0,
            }
            # The listener signature carries no collector identity, so
            # bind the stats key into the callback at registration time.
            key = id(stats)

            def observe(route_name, channels, nbytes, duration, _key=key):
                self._on_transfer(_key, route_name, channels, nbytes, duration)

            stats.listeners.append(observe)
        return self

    def attach_coordinator(self, coordinator: "Coordinator") -> "ConservationAuditor":
        """Audit a coordinator's leases/allocations against its libs' books."""
        if coordinator not in self._coordinators:
            self._coordinators.append(coordinator)
        return self

    # ==================================================================
    # Checkpoint scheduling
    # ==================================================================
    def watch(self, interval: Optional[float] = 1.0) -> "ConservationAuditor":
        """Start checkpointing: every ``interval`` simulated seconds, or
        after *every* simulation event when ``interval`` is ``None``."""
        if interval is None:
            if not self._watching_events:
                self.env.add_monitor(self._on_event)
                self._watching_events = True
        else:
            self._watch_interval = float(interval)
            self.env.process(self._watcher(self._watch_interval))
        return self

    def _on_event(self, now: float) -> None:
        self.check(checkpoint="event")

    def _watcher(self, interval: float):
        while True:
            yield self.env.timeout(interval)
            self.check(checkpoint=f"t={self.env.now:.3f}")

    # ==================================================================
    # Observation
    # ==================================================================
    def _on_transfer(
        self,
        stats_key: int,
        route_name: str,
        channels: Sequence["Channel"],
        nbytes: float,
        duration: float,
    ) -> None:
        self.transfers_observed += 1
        entry = self._stats.get(stats_key)
        if entry is not None:
            entry["shadow_count"] += 1
            entry["shadow_bytes"] += nbytes
        for channel in channels:
            name = channel.name
            if name not in self._channels:
                # A channel wired after attach (cluster fabric): adopt it
                # with a zero baseline relative to this first sighting.
                self._channels[name] = channel
                self._base_bytes[name] = channel.bytes_moved - nbytes
                self._base_count[name] = channel.transfer_count - 1
            self._shadow_bytes[name] = self._shadow_bytes.get(name, 0.0) + nbytes
            self._shadow_count[name] = self._shadow_count.get(name, 0) + 1
        self._fold(
            f"T|{self.env.now!r}|{route_name}|{nbytes!r}|{duration!r}|"
            + ",".join(ch.name for ch in channels)
        )

    def _fold(self, record: str) -> None:
        self._sha.update(record.encode())
        self._sha.update(b"\n")

    @property
    def digest(self) -> str:
        """Hex SHA-256 over every observed transfer and checkpoint.

        Identical seeded runs produce identical digests; any divergence
        in event timing, routing or byte counts changes it.
        """
        return self._sha.hexdigest()

    # ==================================================================
    # The checkpoint
    # ==================================================================
    def check(self, checkpoint: str = "manual") -> list[AuditViolation]:
        """Run every law now; returns (and records) new violations."""
        before = len(self.violations)
        self.checks += 1
        self._check_byte_conservation(checkpoint)
        self._check_pools_and_placement(checkpoint)
        new = self.violations[before:]
        self._fold(
            f"C|{checkpoint}|{self.env.now!r}|checks={self.checks}"
            f"|violations={len(self.violations)}"
        )
        if new and self.strict:
            raise AuditError(new)
        return new

    def report(self) -> AuditReport:
        return AuditReport(
            checks=self.checks,
            transfers_observed=self.transfers_observed,
            violations=list(self.violations),
            digest=self.digest,
        )

    # ------------------------------------------------------------------
    def _flag(self, law: str, subject: str, message: str, checkpoint: str) -> None:
        self.violations.append(
            AuditViolation(
                law=law,
                subject=subject,
                message=message,
                time=self.env.now,
                checkpoint=checkpoint,
            )
        )

    def _close(self, a: float, b: float) -> bool:
        return math.isclose(a, b, rel_tol=self.rel_tol, abs_tol=self.abs_tol)

    # ------------------------------------------------------------------
    # Law 1: byte conservation
    # ------------------------------------------------------------------
    def _check_byte_conservation(self, checkpoint: str) -> None:
        for name, channel in self._channels.items():
            expected_bytes = self._base_bytes[name] + self._shadow_bytes.get(name, 0.0)
            expected_count = self._base_count[name] + self._shadow_count.get(name, 0)
            if not self._close(channel.bytes_moved, expected_bytes):
                self._flag(
                    "byte-conservation",
                    name,
                    f"bytes_moved={channel.bytes_moved:.0f} but routed "
                    f"payloads sum to {expected_bytes:.0f}",
                    checkpoint,
                )
            if channel.transfer_count != expected_count:
                self._flag(
                    "byte-conservation",
                    name,
                    f"transfer_count={channel.transfer_count} but "
                    f"{expected_count} transfers were routed over it",
                    checkpoint,
                )
        for entry in self._stats.values():
            stats = entry["stats"]
            expected_bytes = entry["base_bytes"] + entry["shadow_bytes"]
            expected_count = entry["base_count"] + entry["shadow_count"]
            if stats.count != expected_count:
                self._flag(
                    "byte-conservation",
                    "TransferStats",
                    f"count={stats.count}, observed {expected_count}",
                    checkpoint,
                )
            if not self._close(stats.bytes_total, expected_bytes):
                self._flag(
                    "byte-conservation",
                    "TransferStats",
                    f"bytes_total={stats.bytes_total:.0f}, observed payloads "
                    f"sum to {expected_bytes:.0f}",
                    checkpoint,
                )
            per_route_sum = sum(stats.per_route.values())
            if not self._close(per_route_sum, stats.bytes_total):
                self._flag(
                    "byte-conservation",
                    "TransferStats",
                    f"per_route ledger sums to {per_route_sum:.0f}, "
                    f"bytes_total={stats.bytes_total:.0f}",
                    checkpoint,
                )

    # ------------------------------------------------------------------
    # Laws 2 + 3: pool conservation and placement consistency
    # ------------------------------------------------------------------
    def _libs(self) -> dict[str, "AquaLib"]:
        libs: dict[str, "AquaLib"] = {}
        for coordinator in self._coordinators:
            libs.update(coordinator.libs)
        return libs

    def _check_pools_and_placement(self, checkpoint: str) -> None:
        for server in self._servers:
            for gpu in server.gpus:
                self._check_pool_bounds(gpu.hbm, gpu.name, checkpoint)
            self._check_pool_bounds(server.dram.pool, server.dram.name, checkpoint)

        libs = self._libs()
        live: dict[int, tuple] = {}  # tensor_id -> (tensor, lib)
        for lib in libs.values():
            for tensor in lib.tensors.values():
                live[tensor.id] = (tensor, lib)

        allocations: dict[int, object] = {}
        for coordinator in self._coordinators:
            snap = coordinator.audit_snapshot()
            allocations.update(snap["allocations"])
            self._check_leases(coordinator, snap, libs, checkpoint)
            self._check_allocations(snap, libs, live, checkpoint)

        for tensor_id, (tensor, lib) in live.items():
            self._check_tensor(tensor, lib, allocations, checkpoint)

        if self._coordinators:
            self._check_orphans(live, allocations, checkpoint)

    def _check_pool_bounds(self, pool, name: str, checkpoint: str) -> None:
        snapshot = pool.snapshot()
        for tag, nbytes in snapshot.items():
            if nbytes < 0:
                self._flag(
                    "pool-conservation",
                    name,
                    f"negative reservation {nbytes} under {tag!r}",
                    checkpoint,
                )
        used = sum(snapshot.values())
        if used > pool.capacity:
            self._flag(
                "pool-conservation",
                name,
                f"reservations sum to {used} > capacity {pool.capacity}",
                checkpoint,
            )

    def _check_leases(self, coordinator, snap: dict, libs: dict, checkpoint: str) -> None:
        for producer, lease in snap["leases"].items():
            parked = sum(
                a.nbytes
                for a in snap["allocations"].values()
                if a.location == producer
            )
            if lease.used != parked:
                self._flag(
                    "pool-conservation",
                    producer,
                    f"lease.used={lease.used} but allocations park {parked} "
                    "bytes there",
                    checkpoint,
                )
            if not 0 <= lease.used <= lease.offered:
                self._flag(
                    "pool-conservation",
                    producer,
                    f"lease.used={lease.used} outside [0, offered="
                    f"{lease.offered}]",
                    checkpoint,
                )
            lib = libs.get(producer)
            if lib is not None and lease.offered != lib.donated_bytes:
                self._flag(
                    "pool-conservation",
                    producer,
                    f"lease.offered={lease.offered} but the library donated "
                    f"{lib.donated_bytes}",
                    checkpoint,
                )
            device = coordinator.devices.get(producer)
            if device is not None:
                held = device.hbm.held(AQUA_OFFER_TAG)
                if held != lease.offered - lease.used:
                    self._flag(
                        "pool-conservation",
                        producer,
                        f"'{AQUA_OFFER_TAG}' holds {held} bytes; lease says "
                        f"offered-used = {lease.offered - lease.used}",
                        checkpoint,
                    )
        # A donation with no lease behind it is stranded memory.
        for name, lib in libs.items():
            if lib.donated_bytes > 0 and name not in snap["leases"]:
                self._flag(
                    "pool-conservation",
                    name,
                    f"library donated {lib.donated_bytes} bytes but the "
                    "coordinator holds no lease",
                    checkpoint,
                )

    def _check_allocations(
        self, snap: dict, libs: dict, live: dict, checkpoint: str
    ) -> None:
        for tensor_id, alloc in snap["allocations"].items():
            if alloc.consumer in libs and tensor_id not in live:
                self._flag(
                    "placement",
                    f"tensor#{tensor_id}",
                    f"coordinator allocation at {alloc.location} has no live "
                    f"tensor in {alloc.consumer}'s library",
                    checkpoint,
                )

    def _check_tensor(
        self, tensor, lib, allocations: dict, checkpoint: str
    ) -> None:
        alloc = allocations.get(tensor.id)
        if alloc is None:
            if self._coordinators:
                self._flag(
                    "placement",
                    tensor.tag,
                    "live tensor has no coordinator allocation",
                    checkpoint,
                )
            return
        if alloc.nbytes != tensor.nbytes:
            self._flag(
                "placement",
                tensor.tag,
                f"tensor is {tensor.nbytes} bytes, allocation says "
                f"{alloc.nbytes}",
                checkpoint,
            )
        if tensor.location is Location.DRAM:
            book_location = DRAM
            pool = lib.server.dram.pool
            pool_name = lib.server.dram.name
            device_ok = tensor._device is lib.server.dram
        elif tensor.location is Location.PRODUCER:
            book_location = getattr(tensor._device, "name", None)
            pool = tensor._device.hbm
            pool_name = book_location
            device_ok = True
        else:  # FREED tensors must not linger in lib.tensors
            self._flag(
                "placement", tensor.tag, "freed tensor still registered", checkpoint
            )
            return
        if alloc.location != book_location:
            self._flag(
                "placement",
                tensor.tag,
                f"tensor books say {book_location!r}, coordinator says "
                f"{alloc.location!r}",
                checkpoint,
            )
            return
        if not device_ok:
            self._flag(
                "placement",
                tensor.tag,
                "DRAM tensor's device pointer is not the host DRAM",
                checkpoint,
            )
        held = pool.held(tensor.tag)
        if held != tensor.nbytes:
            self._flag(
                "pool-conservation",
                tensor.tag,
                f"{pool_name} holds {held} bytes under this tag, tensor is "
                f"{tensor.nbytes}",
                checkpoint,
            )

    def _check_orphans(self, live: dict, allocations: dict, checkpoint: str) -> None:
        live_tags = {tensor.tag for tensor, _ in live.values()}
        pools = []
        for server in self._servers:
            pools.extend((gpu.name, gpu.hbm) for gpu in server.gpus)
            pools.append((server.dram.name, server.dram.pool))
        for pool_name, pool in pools:
            for tag in pool.snapshot():
                match = _TENSOR_TAG.match(tag)
                if match is None:
                    continue
                tensor_id = int(match.group("id"))
                if tag in live_tags or tensor_id in allocations:
                    continue
                self._flag(
                    "pool-conservation",
                    pool_name,
                    f"orphaned reservation {tag!r}: no live tensor and no "
                    "coordinator allocation",
                    checkpoint,
                )
