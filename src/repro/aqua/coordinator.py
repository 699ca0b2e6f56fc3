"""The AQUA central coordinator (§3, §B).

The coordinator is a thread-safe datastore behind REST endpoints.  It
tracks which GPUs are memory *producers* (holding active leases of
spare HBM), which *consumers* they are paired with (decided by
AQUA-PLACER before models start), where every offloaded AQUA TENSOR
lives, and in-flight reclaim requests.

Endpoints (all payloads are JSON-like dicts; GPUs are identified by
their names):

=======================  ====================================================
``POST /pair``           Pair a consumer GPU with its producer (from the placer).
``POST /lease``          Producer offers ``nbytes`` of spare HBM.
``POST /reclaim_request``Producer asks for its memory back.
``GET  /reclaim_status`` Producer polls whether consumers have evacuated.
``POST /allocate``       Consumer asks where a new tensor should live.
``POST /free``           Consumer frees a tensor.
``POST /moved``          Consumer confirms a tensor migration finished.
``POST /move_failed``    Consumer rolls back a migration whose copy never ran.
``GET  /respond``        Consumer fetches the migrations it must perform.
``POST /gpu_failed``     Health daemon reports a failed GPU (contents lost).
``POST /gpu_recovered``  Health daemon reports the GPU is back (empty).
``POST /link_degraded``  Consumer's NVLink path is no faster than PCIe.
``POST /link_restored``  Consumer's NVLink path is healthy again.
``GET  /health``         Current failed GPUs and degraded consumers.
``GET  /offers``         Debug view of live leases.
``GET  /stats``          Snapshot of the whole datastore.
=======================  ====================================================
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Optional

from repro.aqua.rest import Response, RestRouter

#: Sentinel location meaning "host DRAM fallback".
DRAM = "dram"


@dataclass
class Lease:
    """A producer's standing offer of spare HBM."""

    producer: str
    offered: int
    used: int = 0
    #: While False, no new allocations may land on this producer.
    accepting: bool = True

    @property
    def free(self) -> int:
        return self.offered - self.used


@dataclass
class Allocation:
    """Where one offloaded tensor lives."""

    tensor_id: int
    consumer: str
    location: str  # producer GPU name, or DRAM
    nbytes: int


@dataclass
class ReclaimRequest:
    """An in-flight request by a producer to get its memory back."""

    producer: str
    pending_tensors: set[int] = field(default_factory=set)

    @property
    def done(self) -> bool:
        return not self.pending_tensors


class Coordinator:
    """Central bookkeeping for AQUA leases, pairings and tensors.

    Parameters
    ----------
    strict_json:
        Run the REST router in wire-faithful mode: every payload and
        body is round-tripped through JSON (see
        :class:`~repro.aqua.rest.RestRouter`).  Dict keys arrive as
        strings, exactly as over a socket.
    """

    def __init__(self, strict_json: bool = False) -> None:
        self._lock = threading.RLock()
        self.router = RestRouter(strict_json=strict_json)
        #: Data-plane registry: GPU name -> device object.  Populated by
        #: AquaLib instances when they register; stands in for the
        #: cluster addressing a real deployment gets from NCCL ranks.
        self.devices: dict = {}
        #: Control-plane registry: GPU name -> AquaLib instance.  Also
        #: populated at AquaLib construction; the conservation audit
        #: (:mod:`repro.audit`) discovers the per-GPU books through it.
        self.libs: dict = {}
        self.leases: dict[str, Lease] = {}
        self.pairings: dict[str, str] = {}  # consumer -> producer
        self.allocations: dict[int, Allocation] = {}
        self.reclaims: dict[str, ReclaimRequest] = {}
        #: Migrations owed per consumer: tensor_id -> target location.
        self._migrations: dict[str, dict[int, str]] = {}
        #: GPUs currently reported failed by the health daemon
        #: (:class:`~repro.faults.FaultInjector`).  No allocations or
        #: leases land on these until recovery.
        self.failed_gpus: set[str] = set()
        #: Consumers whose NVLink fast path is currently degraded below
        #: the PCIe fallback; their tensors stay in (or move to) DRAM.
        self.degraded_consumers: set[str] = set()
        #: Optional :class:`~repro.telemetry.Telemetry` hub (installed by
        #: the experiment harness).  Counts REST traffic per endpoint and
        #: queued migrations per reason.
        self.telemetry = None
        self._install_routes()

    # ------------------------------------------------------------------
    # REST facade
    # ------------------------------------------------------------------
    def request(self, method: str, path: str, payload: Optional[dict] = None) -> Response:
        """Entry point used by AQUA-LIB's southbound interface."""
        if self.telemetry is not None:
            self.telemetry.coordinator_requests.labels(
                method=method, path=path
            ).inc()
        return self.router.request(method, path, payload)

    def _count_migration(self, reason: str, n: int = 1) -> None:
        if self.telemetry is not None and n > 0:
            self.telemetry.migrations_queued.labels(reason=reason).inc(n)

    def _install_routes(self) -> None:
        route = self.router.route

        @route("POST", "/pair")
        def pair(payload: dict) -> Response:
            return self.pair(payload["consumer"], payload["producer"])

        @route("POST", "/lease")
        def lease(payload: dict) -> Response:
            return self.lease(payload["producer"], int(payload["nbytes"]))

        @route("POST", "/reclaim_request")
        def reclaim_request(payload: dict) -> Response:
            return self.reclaim_request(payload["producer"])

        @route("GET", "/reclaim_status")
        def reclaim_status(payload: dict) -> Response:
            return self.reclaim_status(payload["producer"])

        @route("POST", "/allocate")
        def allocate(payload: dict) -> Response:
            return self.allocate(
                payload["consumer"], int(payload["tensor_id"]), int(payload["nbytes"])
            )

        @route("POST", "/free")
        def free(payload: dict) -> Response:
            return self.free(int(payload["tensor_id"]))

        @route("POST", "/moved")
        def moved(payload: dict) -> Response:
            return self.moved(int(payload["tensor_id"]), payload["location"])

        @route("POST", "/move_failed")
        def move_failed(payload: dict) -> Response:
            return self.move_failed(int(payload["tensor_id"]), payload["location"])

        @route("GET", "/respond")
        def respond(payload: dict) -> Response:
            return self.respond(payload["consumer"])

        @route("POST", "/gpu_failed")
        def gpu_failed(payload: dict) -> Response:
            return self.gpu_failed(payload["gpu"])

        @route("POST", "/gpu_recovered")
        def gpu_recovered(payload: dict) -> Response:
            return self.gpu_recovered(payload["gpu"])

        @route("POST", "/link_degraded")
        def link_degraded(payload: dict) -> Response:
            return self.link_degraded(payload["consumer"])

        @route("POST", "/link_restored")
        def link_restored(payload: dict) -> Response:
            return self.link_restored(payload["consumer"])

        @route("GET", "/health")
        def health(payload: dict) -> Response:
            with self._lock:
                return Response.json(
                    {
                        "failed_gpus": sorted(self.failed_gpus),
                        "degraded_consumers": sorted(self.degraded_consumers),
                    }
                )

        @route("GET", "/offers")
        def offers(payload: dict) -> Response:
            with self._lock:
                body = {
                    name: {"offered": l.offered, "used": l.used, "accepting": l.accepting}
                    for name, l in self.leases.items()
                }
            return Response.json({"leases": body})

        @route("GET", "/stats")
        def stats(payload: dict) -> Response:
            with self._lock:
                return Response.json(
                    {
                        "leases": len(self.leases),
                        "pairings": dict(self.pairings),
                        "allocations": len(self.allocations),
                        "offloaded_bytes": sum(
                            a.nbytes
                            for a in self.allocations.values()
                            if a.location != DRAM
                        ),
                        "dram_bytes": sum(
                            a.nbytes
                            for a in self.allocations.values()
                            if a.location == DRAM
                        ),
                    }
                )

    # ------------------------------------------------------------------
    # Handlers (also callable directly; every one takes the lock)
    # ------------------------------------------------------------------
    def pair(self, consumer: str, producer: str) -> Response:
        """Record the placer's consumer->producer assignment, which
        merges the two GPUs' domains (:class:`~repro.sim.Domain`)."""
        with self._lock:
            self.pairings[consumer] = producer
            if consumer in self.devices and producer in self.devices:
                self.devices[consumer].domain.merge(self.devices[producer].domain)
            return Response.json({"consumer": consumer, "producer": producer})

    def lease(self, producer: str, nbytes: int) -> Response:
        """Producer offers ``nbytes`` of HBM (adds to an existing lease)."""
        if nbytes <= 0:
            return Response.error(f"lease size must be positive, got {nbytes}")
        with self._lock:
            if producer in self.reclaims:
                return Response.error(
                    f"{producer} has a reclaim in progress", status=409
                )
            if producer in self.failed_gpus:
                return Response.error(f"{producer} is marked failed", status=409)
            lease = self.leases.get(producer)
            if lease is None:
                lease = Lease(producer=producer, offered=0)
                self.leases[producer] = lease
            lease.offered += nbytes
            lease.accepting = True
            return Response.json({"producer": producer, "offered": lease.offered})

    def reclaim_request(self, producer: str) -> Response:
        """Producer wants all its donated memory back.

        Marks the lease non-accepting and queues a migration to DRAM
        for every tensor currently parked on the producer.
        """
        with self._lock:
            lease = self.leases.get(producer)
            if lease is None:
                return Response.error(f"{producer} has no lease", status=404)
            lease.accepting = False
            reclaim = self.reclaims.setdefault(producer, ReclaimRequest(producer))
            queued = 0
            for alloc in self.allocations.values():
                if alloc.location == producer:
                    reclaim.pending_tensors.add(alloc.tensor_id)
                    self._migrations.setdefault(alloc.consumer, {})[
                        alloc.tensor_id
                    ] = DRAM
                    queued += 1
            self._count_migration("reclaim", queued)
            if reclaim.done:
                self._finish_reclaim(producer)
                return Response.json({"pending": 0, "done": True})
            return Response.json(
                {"pending": len(reclaim.pending_tensors), "done": False}
            )

    def reclaim_status(self, producer: str) -> Response:
        """Poll an in-flight reclaim; completes it when drained."""
        with self._lock:
            reclaim = self.reclaims.get(producer)
            if reclaim is None:
                return Response.json({"pending": 0, "done": True})
            if reclaim.done:
                self._finish_reclaim(producer)
                return Response.json({"pending": 0, "done": True})
            return Response.json(
                {"pending": len(reclaim.pending_tensors), "done": False}
            )

    def _finish_reclaim(self, producer: str) -> None:
        """Drop the drained lease so the producer can reuse its memory."""
        self.reclaims.pop(producer, None)
        self.leases.pop(producer, None)

    def allocate(self, consumer: str, tensor_id: int, nbytes: int) -> Response:
        """Pick the location for a new tensor: paired producer, else DRAM."""
        if nbytes <= 0:
            return Response.error(f"tensor size must be positive, got {nbytes}")
        with self._lock:
            if tensor_id in self.allocations:
                return Response.error(
                    f"tensor {tensor_id} already allocated", status=409
                )
            location = DRAM
            producer = self.pairings.get(consumer)
            if (
                producer is not None
                and producer not in self.failed_gpus
                and consumer not in self.degraded_consumers
            ):
                lease = self.leases.get(producer)
                if lease is not None and lease.accepting and lease.free >= nbytes:
                    lease.used += nbytes
                    location = producer
            self.allocations[tensor_id] = Allocation(
                tensor_id=tensor_id,
                consumer=consumer,
                location=location,
                nbytes=nbytes,
            )
            return Response.json({"location": location})

    def free(self, tensor_id: int) -> Response:
        """Release a tensor's allocation wherever it lives."""
        with self._lock:
            alloc = self.allocations.pop(tensor_id, None)
            if alloc is None:
                return Response.error(f"unknown tensor {tensor_id}", status=404)
            self._release_location(alloc)
            self._migrations.get(alloc.consumer, {}).pop(tensor_id, None)
            reclaim = self.reclaims.get(alloc.location)
            if reclaim is not None:
                reclaim.pending_tensors.discard(tensor_id)
            return Response.json({"freed": alloc.nbytes})

    def moved(self, tensor_id: int, location: str) -> Response:
        """Consumer confirms a tensor now lives at ``location``."""
        with self._lock:
            alloc = self.allocations.get(tensor_id)
            if alloc is None:
                return Response.error(f"unknown tensor {tensor_id}", status=404)
            old = alloc.location
            if old == location:
                return Response.json({"location": location})
            self._release_location(alloc)
            if location != DRAM:
                lease = self.leases.get(location)
                if lease is None or not lease.accepting or lease.free < alloc.nbytes:
                    return Response.error(
                        f"no capacity on {location} for tensor {tensor_id}",
                        status=409,
                    )
                lease.used += alloc.nbytes
            alloc.location = location
            self._migrations.get(alloc.consumer, {}).pop(tensor_id, None)
            reclaim = self.reclaims.get(old)
            if reclaim is not None:
                reclaim.pending_tensors.discard(tensor_id)
            return Response.json({"location": location})

    def move_failed(self, tensor_id: int, location: str) -> Response:
        """Consumer reports a migration whose data-plane copy never ran.

        ``location`` is where the bytes physically still are (the
        migration's *source*).  The earlier ``/moved`` optimistically
        pointed the books at the target; this rolls them back so the
        ledger matches reality, then re-queues the migration so a later
        ``/respond`` retries it.  Re-charging a non-accepting lease is
        deliberate: the bytes are parked there whether or not the lease
        accepts *new* tenants, and a reclaim in flight must keep waiting
        for them.
        """
        with self._lock:
            alloc = self.allocations.get(tensor_id)
            if alloc is None:
                return Response.error(f"unknown tensor {tensor_id}", status=404)
            if alloc.location == location:
                return Response.json({"location": location})
            target = alloc.location
            self._release_location(alloc)
            if location != DRAM:
                lease = self.leases.get(location)
                if lease is None:
                    return Response.error(
                        f"no lease on {location} to roll tensor {tensor_id} "
                        "back onto",
                        status=409,
                    )
                lease.used += alloc.nbytes
                reclaim = self.reclaims.get(location)
                if reclaim is not None:
                    reclaim.pending_tensors.add(tensor_id)
            alloc.location = location
            # The move is still owed; retry it at a later boundary.
            self._migrations.setdefault(alloc.consumer, {})[tensor_id] = target
            self._count_migration("retry")
            return Response.json({"location": location, "requeued": target})

    def respond(self, consumer: str) -> Response:
        """Migrations this consumer must perform at its next boundary.

        Forced moves (reclaims) come first; then opportunistic upgrades
        of DRAM tensors into the paired producer's free lease.

        The migration map is keyed by *string* tensor ids — JSON objects
        cannot have int keys, and this payload must survive a real HTTP
        round trip (:class:`~repro.aqua.rest.RestRouter` ``strict_json``
        mode enforces exactly that).  Clients convert back with
        ``int()`` (see :meth:`AquaLib.get_tensors_to_move
        <repro.aqua.lib.AquaLib.get_tensors_to_move>`).
        """
        with self._lock:
            moves = dict(self._migrations.get(consumer, {}))
            producer = self.pairings.get(consumer)
            if (
                producer is not None
                and producer not in self.failed_gpus
                and consumer not in self.degraded_consumers
            ):
                lease = self.leases.get(producer)
                if lease is not None and lease.accepting:
                    budget = lease.free
                    upgrades = 0
                    for alloc in self.allocations.values():
                        if (
                            alloc.consumer == consumer
                            and alloc.location == DRAM
                            and alloc.tensor_id not in moves
                            and alloc.nbytes <= budget
                        ):
                            moves[alloc.tensor_id] = producer
                            budget -= alloc.nbytes
                            upgrades += 1
                    self._count_migration("upgrade", upgrades)
            return Response.json(
                {"migrations": {str(tid): target for tid, target in moves.items()}}
            )

    # ------------------------------------------------------------------
    # Health transitions (reported by repro.faults.FaultInjector)
    # ------------------------------------------------------------------
    def gpu_failed(self, gpu: str) -> Response:
        """Quarantine a failed GPU reported by the health daemon.

        Its lease (if any) stops accepting but stays on the books so
        the producer's donation accounting remains consistent through
        the outage.  Tensors parked on the GPU are *lost*, not
        migrated: their consumers discover the loss on the next access
        (:class:`~repro.aqua.tensor.TensorLostError`), free the tensor
        and recompute — which is what drains ``lease.used``.
        """
        with self._lock:
            self.failed_gpus.add(gpu)
            lease = self.leases.get(gpu)
            if lease is not None:
                lease.accepting = False
            return Response.json({"failed_gpus": sorted(self.failed_gpus)})

    def gpu_recovered(self, gpu: str) -> Response:
        """Un-quarantine a GPU; its lease accepts new tensors again.

        The GPU comes back *empty* — re-population happens organically
        through :meth:`respond`'s opportunistic upgrades and new
        allocations.
        """
        with self._lock:
            self.failed_gpus.discard(gpu)
            lease = self.leases.get(gpu)
            if lease is not None and gpu not in self.reclaims:
                lease.accepting = True
            return Response.json({"failed_gpus": sorted(self.failed_gpus)})

    def link_degraded(self, consumer: str) -> Response:
        """Fail over ``consumer`` from its NVLink path to PCIe/DRAM.

        Called when the consumer->producer link's effective bandwidth
        drops to or below the PCIe fallback.  Queues a forced migration
        to DRAM for every tensor the consumer has parked on its
        producer (the evacuation travels over the *producer's* PCIe
        lane, not the degraded NVLink) and stops new fast-path
        placements until :meth:`link_restored`.
        """
        with self._lock:
            self.degraded_consumers.add(consumer)
            producer = self.pairings.get(consumer)
            evacuating = 0
            if producer is not None and producer not in self.failed_gpus:
                for alloc in self.allocations.values():
                    if alloc.consumer == consumer and alloc.location == producer:
                        self._migrations.setdefault(consumer, {})[
                            alloc.tensor_id
                        ] = DRAM
                        evacuating += 1
            self._count_migration("link-degraded", evacuating)
            return Response.json({"evacuating": evacuating})

    def link_restored(self, consumer: str) -> Response:
        """The consumer's NVLink path is healthy again.

        Drops any degradation-driven DRAM evacuations that have not run
        yet (unless the producer has a reclaim in flight, whose forced
        moves must survive); :meth:`respond`'s opportunistic upgrades
        then move tensors back to the fast path.
        """
        with self._lock:
            self.degraded_consumers.discard(consumer)
            producer = self.pairings.get(consumer)
            if producer is not None and producer not in self.reclaims:
                pending = self._migrations.get(consumer, {})
                for tensor_id, target in list(pending.items()):
                    if target == DRAM:
                        del pending[tensor_id]
            return Response.json({"ok": True})

    def _release_location(self, alloc: Allocation) -> None:
        if alloc.location != DRAM:
            lease = self.leases.get(alloc.location)
            if lease is not None:
                lease.used -= alloc.nbytes

    # ------------------------------------------------------------------
    # Introspection helpers (used by tests and reports)
    # ------------------------------------------------------------------
    def offloaded_bytes(self, producer: str) -> int:
        with self._lock:
            return sum(
                a.nbytes for a in self.allocations.values() if a.location == producer
            )

    def audit_snapshot(self) -> dict:
        """One consistent view of the books, taken under the lock.

        The conservation audit (:mod:`repro.audit`) checks invariants
        against this snapshot rather than reading the live dicts field
        by field, so a check can never see a lease and its allocations
        from two different moments.
        """
        with self._lock:
            return {
                "leases": {
                    name: Lease(
                        producer=l.producer,
                        offered=l.offered,
                        used=l.used,
                        accepting=l.accepting,
                    )
                    for name, l in self.leases.items()
                },
                "allocations": {
                    tid: Allocation(
                        tensor_id=a.tensor_id,
                        consumer=a.consumer,
                        location=a.location,
                        nbytes=a.nbytes,
                    )
                    for tid, a in self.allocations.items()
                },
                "pairings": dict(self.pairings),
                "failed_gpus": set(self.failed_gpus),
                "degraded_consumers": set(self.degraded_consumers),
                "reclaims": {
                    name: set(r.pending_tensors) for name, r in self.reclaims.items()
                },
            }
