"""AQUA-PLACER: optimal model placement (§4, Algorithm 1).

The placer maps ML model instances to servers so that every
memory-bound model (consumer) shares a fast inter-GPU network with a
memory-rich model (producer).  It runs in two steps, exactly as the
paper describes:

1. **Model -> server assignment** as a mixed-integer program: minimize
   ``max_s(mem_s) + G_mem * max_s(eq_s)`` subject to one server per
   model, at most G models per server, where ``mem_s`` is the signed
   memory balance of server ``s`` (producers positive, consumers
   negative) and ``eq_s`` the signed producer/consumer count.  The
   paper solves this with Gurobi; this reproduction uses the HiGHS MILP
   solver shipped with SciPy, which is also exact.
2. **Within each server**, producers are matched to consumers with
   classic Gale-Shapley stable matching — at most one consumer per
   producer by design, so a producer's NVLink bandwidth is never shared.

A greedy heuristic solver is included both as a fallback (when the
MILP's time budget expires with no incumbent) and as an ablation
baseline.  :attr:`Placement.solver` names the one that produced the
placement.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Optional, Sequence

from repro.hardware.specs import GiB


class PlacementError(RuntimeError):
    """Raised when no feasible placement exists."""


@dataclass(frozen=True)
class ModelInstance:
    """One model instance to place.

    Attributes
    ----------
    name:
        Unique instance identifier (two copies of the same model get
        distinct names).
    model:
        The underlying model preset name (informational).
    memory_bytes:
        The paper's ``R_m``: positive for a producer (bytes of HBM it
        can offer), negative for a consumer (bytes of deficit).
    """

    name: str
    model: str
    memory_bytes: int

    @property
    def is_producer(self) -> bool:
        return self.memory_bytes > 0

    @property
    def is_consumer(self) -> bool:
        return self.memory_bytes < 0

    @property
    def type_sign(self) -> int:
        """The paper's ``t_m``: +1 producer, -1 consumer, 0 neutral."""
        if self.memory_bytes > 0:
            return 1
        if self.memory_bytes < 0:
            return -1
        return 0


@dataclass
class Placement:
    """The placer's output: servers, GPU slots and producer pairings."""

    server_of: dict[str, int]
    gpu_of: dict[str, tuple[int, int]]
    pairs: list[tuple[str, str]] = field(default_factory=list)  # (consumer, producer)
    solve_seconds: float = 0.0
    objective: float = 0.0
    solver: str = "milp"

    def producer_for(self, consumer: str) -> Optional[str]:
        for c, p in self.pairs:
            if c == consumer:
                return p
        return None

    def unmatched_consumers(self, instances: Sequence[ModelInstance]) -> list[str]:
        matched = {c for c, _ in self.pairs}
        return [m.name for m in instances if m.is_consumer and m.name not in matched]

    def models_on_server(self, server: int) -> list[str]:
        return [name for name, s in self.server_of.items() if s == server]


def stable_match(
    consumers: Sequence[ModelInstance], producers: Sequence[ModelInstance]
) -> list[tuple[str, str]]:
    """Gale-Shapley stable matching of consumers to producers.

    Consumers propose in best-fit order (the producer with the smallest
    offer that still covers their deficit first); producers prefer the
    consumer with the largest deficit.  Producers whose offer cannot
    cover a consumer's deficit are still acceptable (partial relief
    beats DRAM-only), ranked after sufficient producers.
    """
    if not consumers or not producers:
        return []

    def consumer_preference(c: ModelInstance) -> list[int]:
        deficit = -c.memory_bytes

        def rank(item: tuple[int, ModelInstance]) -> tuple[int, float]:
            _, p = item
            sufficient = p.memory_bytes >= deficit
            # Best fit among sufficient producers; largest among short ones.
            key = (p.memory_bytes - deficit) if sufficient else -p.memory_bytes
            return (0 if sufficient else 1, key)

        return [i for i, _ in sorted(enumerate(producers), key=rank)]

    def producer_rank(p_index: int) -> dict[int, int]:
        order = sorted(
            range(len(consumers)), key=lambda ci: consumers[ci].memory_bytes
        )  # most-negative (largest deficit) first
        return {ci: r for r, ci in enumerate(order)}

    prefs = {ci: consumer_preference(c) for ci, c in enumerate(consumers)}
    ranks = {pi: producer_rank(pi) for pi in range(len(producers))}
    engaged: dict[int, int] = {}  # producer index -> consumer index
    free = list(range(len(consumers)))
    next_choice = {ci: 0 for ci in range(len(consumers))}

    while free:
        ci = free.pop(0)
        if next_choice[ci] >= len(producers):
            continue  # exhausted: stays unmatched
        pi = prefs[ci][next_choice[ci]]
        next_choice[ci] += 1
        current = engaged.get(pi)
        if current is None:
            engaged[pi] = ci
        elif ranks[pi][ci] < ranks[pi][current]:
            engaged[pi] = ci
            free.append(current)
        else:
            free.append(ci)

    return [
        (consumers[ci].name, producers[pi].name) for pi, ci in sorted(engaged.items())
    ]


class AquaPlacer:
    """Algorithm 1: assign model instances to servers and pair them.

    Parameters
    ----------
    n_servers, gpus_per_server:
        Cluster shape (the paper evaluates 8 x 2-GPU and 16 x 8-GPU).
    gpu_memory_bytes:
        Per-GPU HBM, the ``G_mem`` weight in the objective.
    solver:
        ``"milp"`` (exact, via SciPy/HiGHS) or ``"greedy"``.
    """

    def __init__(
        self,
        n_servers: int,
        gpus_per_server: int,
        gpu_memory_bytes: int = 80 * GiB,
        solver: str = "milp",
        time_limit: Optional[float] = 60.0,
    ) -> None:
        if n_servers < 1 or gpus_per_server < 1:
            raise ValueError("cluster dimensions must be >= 1")
        if solver not in ("milp", "greedy"):
            raise ValueError(f"unknown solver {solver!r}")
        self.n_servers = n_servers
        self.gpus_per_server = gpus_per_server
        self.gpu_memory_bytes = gpu_memory_bytes
        self.solver = solver
        #: MILP wall-clock budget in seconds (the paper's Gurobi runs
        #: converge within 45 s on 128 GPUs; HiGHS returns its best
        #: incumbent when the budget expires).  ``None`` = no limit.
        self.time_limit = time_limit

    # ------------------------------------------------------------------
    def place(self, instances: Sequence[ModelInstance]) -> Placement:
        """Compute a placement for ``instances``.

        Raises
        ------
        PlacementError
            If there are more models than GPUs, duplicate names, or the
            MILP is infeasible.
        """
        names = [m.name for m in instances]
        if len(set(names)) != len(names):
            raise PlacementError("model instance names must be unique")
        capacity = self.n_servers * self.gpus_per_server
        if len(instances) > capacity:
            raise PlacementError(
                f"{len(instances)} models exceed cluster capacity of "
                f"{capacity} GPUs"
            )
        if not instances:
            return Placement(server_of={}, gpu_of={}, solver=self.solver)

        started = time.perf_counter()
        if self.solver == "milp":
            server_of, objective, solver = self._solve_milp(instances)
        else:
            server_of, objective, solver = self._solve_greedy(instances)
        placement = self._finalize(instances, server_of)
        placement.objective = objective
        placement.solver = solver
        placement.solve_seconds = time.perf_counter() - started
        return placement

    # ------------------------------------------------------------------
    # Step 1a: exact MILP (Algorithm 1)
    # ------------------------------------------------------------------
    def _solve_milp(
        self, instances: Sequence[ModelInstance]
    ) -> tuple[dict[str, int], float, str]:
        import numpy as np
        from scipy.optimize import Bounds, LinearConstraint, milp

        M, S = len(instances), self.n_servers
        G = self.gpus_per_server
        gmem = self.gpu_memory_bytes / GiB
        r = np.array([m.memory_bytes / GiB for m in instances])  # R_m in GiB
        t = np.array([m.type_sign for m in instances], dtype=float)

        n_x = M * S
        n_vars = n_x + 2  # + z1 (max mem_s), z2 (max eq_s)
        z1, z2 = n_x, n_x + 1

        def x(m: int, s: int) -> int:
            return m * S + s

        c = np.zeros(n_vars)
        c[z1] = 1.0
        c[z2] = gmem

        rows, lbs, ubs = [], [], []

        # (1) each model on exactly one server
        for m in range(M):
            row = np.zeros(n_vars)
            for s in range(S):
                row[x(m, s)] = 1.0
            rows.append(row)
            lbs.append(1.0)
            ubs.append(1.0)

        # (2) at most G models per server
        for s in range(S):
            row = np.zeros(n_vars)
            for m in range(M):
                row[x(m, s)] = 1.0
            rows.append(row)
            lbs.append(0.0)
            ubs.append(float(G))

        # (3) mem_s <= z1
        for s in range(S):
            row = np.zeros(n_vars)
            for m in range(M):
                row[x(m, s)] = r[m]
            row[z1] = -1.0
            rows.append(row)
            lbs.append(-np.inf)
            ubs.append(0.0)

        # (4) eq_s <= z2
        for s in range(S):
            row = np.zeros(n_vars)
            for m in range(M):
                row[x(m, s)] = t[m]
            row[z2] = -1.0
            rows.append(row)
            lbs.append(-np.inf)
            ubs.append(0.0)

        constraints = LinearConstraint(np.vstack(rows), lbs, ubs)
        integrality = np.concatenate([np.ones(n_x), np.zeros(2)])
        bounds = Bounds(
            lb=np.concatenate([np.zeros(n_x), [-np.inf, -np.inf]]),
            ub=np.concatenate([np.ones(n_x), [np.inf, np.inf]]),
        )
        options = {}
        if self.time_limit is not None:
            options["time_limit"] = self.time_limit
        result = milp(
            c,
            constraints=constraints,
            integrality=integrality,
            bounds=bounds,
            options=options,
        )
        if not result.success and result.x is None:
            # Truly infeasible, or the time budget expired with no
            # incumbent: fall back to the greedy heuristic rather than
            # failing the whole placement.
            if "infeasible" in (result.message or "").lower():
                raise PlacementError(f"MILP infeasible: {result.message}")
            return self._solve_greedy(instances)

        server_of = {}
        for m, inst in enumerate(instances):
            row = result.x[m * S : (m + 1) * S]
            server_of[inst.name] = int(np.argmax(row))
        return server_of, float(result.fun), "milp"

    # ------------------------------------------------------------------
    # Step 1b: greedy fallback / ablation baseline
    # ------------------------------------------------------------------
    def _solve_greedy(
        self, instances: Sequence[ModelInstance]
    ) -> tuple[dict[str, int], float, str]:
        slots = [self.gpus_per_server] * self.n_servers
        mem = [0.0] * self.n_servers
        eq = [0] * self.n_servers
        server_of: dict[str, int] = {}

        consumers = sorted(
            (m for m in instances if m.is_consumer), key=lambda m: m.memory_bytes
        )
        producers = sorted(
            (m for m in instances if m.is_producer),
            key=lambda m: -m.memory_bytes,
        )
        neutral = [m for m in instances if m.type_sign == 0]

        def assign(inst: ModelInstance, s: int) -> None:
            server_of[inst.name] = s
            slots[s] -= 1
            mem[s] += inst.memory_bytes / GiB
            eq[s] += inst.type_sign

        # Pair the biggest consumer with the biggest producer, placing each
        # pair on the emptiest server with two free slots.
        while consumers and producers:
            cons, prod = consumers.pop(0), producers.pop(0)
            candidates = [s for s in range(self.n_servers) if slots[s] >= 2]
            if not candidates:
                consumers.insert(0, cons)
                producers.insert(0, prod)
                break
            s = max(candidates, key=lambda s: slots[s])
            assign(cons, s)
            assign(prod, s)

        # Leftovers go wherever they best balance memory.
        for inst in [*consumers, *producers, *neutral]:
            candidates = [s for s in range(self.n_servers) if slots[s] >= 1]
            if not candidates:
                raise PlacementError("ran out of GPU slots")
            s = min(candidates, key=lambda s: mem[s] + inst.memory_bytes / GiB)
            assign(inst, s)

        objective = max(mem) + (self.gpu_memory_bytes / GiB) * max(eq)
        return server_of, objective, "greedy"

    # ------------------------------------------------------------------
    # Step 2: GPU slots and per-server stable matching
    # ------------------------------------------------------------------
    def _finalize(
        self, instances: Sequence[ModelInstance], server_of: dict[str, int]
    ) -> Placement:
        by_name = {m.name: m for m in instances}
        gpu_of: dict[str, tuple[int, int]] = {}
        pairs: list[tuple[str, str]] = []
        for s in range(self.n_servers):
            here = [by_name[n] for n, srv in server_of.items() if srv == s]
            for slot, inst in enumerate(here):
                gpu_of[inst.name] = (s, slot)
            pairs.extend(
                stable_match(
                    [m for m in here if m.is_consumer],
                    [m for m in here if m.is_producer],
                )
            )
        return Placement(server_of=dict(server_of), gpu_of=gpu_of, pairs=pairs)
