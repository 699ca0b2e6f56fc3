"""Per-server serving frontends the global router dispatches into.

A :class:`ServerFrontend` wraps one :class:`~repro.hardware.server.Server`
of a :class:`~repro.hardware.cluster.Cluster` and models it as a
fixed-concurrency LLM serving instance: up to ``concurrency`` requests
decode simultaneously (the engine's batch slots); the rest wait in a
FIFO queue.  Service times come from the same
:class:`~repro.models.llm.LLMSpec` rooflines the figure-level engines
use — a compute-bound prefill followed by memory-bound decode steps
whose pace degrades with the number of co-resident sequences — so the
cluster frontier inherits the paper's single-GPU cost model without
paying for per-token event simulation.

A dispatched request is served by two timers, not a process.  Each
timer carries its request as its value and runs one callback bound
once per frontend:

* **prefill end**, scheduled at dispatch ``prefill_time`` ahead, stamps
  the first token and reads :attr:`~ServerFrontend.active` *then* to
  fix the decode pace;
* **decode end**, scheduled at prefill end, completes the request and
  dispatches the next queued one.

Decode is one aggregate delay per request, an approximation the
engines do not make: their decode windows are exact.  The frontier
sweeps need it to make millions-of-users offered loads tractable.  A
request with ``max_new_tokens == 1`` completes inside its prefill-end
callback.

**Tie order.**  The prefill end takes its heap position when the
request is dispatched.  When another event is due at exactly the same
instant and was scheduled later in the dispatching event — the drive
loop's next arrival sleep — the prefill end is processed first.

A frontend keeps only what is in flight: its queue, its slot count and
running totals (``completed``, ``tokens``).  A finished request is
handed to the :attr:`~ServerFrontend.on_complete` hooks and dropped, so
a frontier cell's memory follows its in-flight requests, not its trace.

Frontends never shed: admission is the router's job
(:mod:`repro.routing.admission`), so every request that reaches
:meth:`~ServerFrontend.enqueue` is eventually served.  That split is
what makes the conservation law ``offered == routed + shed`` checkable
at one place.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Callable, Optional

from repro.models.llm import LLMSpec

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.hardware.server import Server
    from repro.serving.request import Request
    from repro.sim import Environment


class ServerFrontend:
    """One server's admission queue plus fixed decode slots.

    Attributes
    ----------
    queue:
        Requests waiting for a decode slot (FIFO).
    active:
        Requests currently holding a slot.
    depth:
        Backlog the router's queue-depth shedding compares against,
        ``len(queue) + active``, kept as a counter: :meth:`enqueue`
        adds one and each completion subtracts one.
    completed:
        Number of finished requests.  The requests themselves are not
        kept: a hook on :attr:`on_complete` sees each one as it finishes.
    tokens:
        Total tokens generated (prompt ingestion excluded).
    on_complete:
        Callbacks ``(frontend, request)`` fired at each completion —
        the router hooks these to feed its ledger and SLO tracker.
    """

    def __init__(
        self,
        env: "Environment",
        server: "Server",
        spec: LLMSpec,
        concurrency: int = 8,
        name: Optional[str] = None,
    ) -> None:
        if concurrency < 1:
            raise ValueError(f"concurrency must be >= 1, got {concurrency}")
        self.env = env
        self.server = server
        self.spec = spec
        #: Timing GPU: the server's first GPU (frontends model the whole
        #: server as one tensor-parallel serving instance).
        self.gpu_spec = server.gpus[0].spec
        self.concurrency = concurrency
        self.name = name or server.name
        self.queue: deque = deque()
        self.active = 0
        self.depth = 0
        self.completed = 0
        self.tokens = 0
        self.on_complete: list[Callable] = []
        # Bound once: every timer of a phase shares its callback.
        self._on_prefilled = self._prefilled
        self._on_decoded = self._decoded

    def enqueue(self, request: "Request") -> None:
        """Accept a routed request; serve it as soon as a slot frees."""
        self.queue.append(request)
        self.depth += 1
        if self.active < self.concurrency:
            self._dispatch()

    def _dispatch(self) -> None:
        # Moves a request from the queue to a slot: ``depth`` stays.
        request = self.queue.popleft()
        self.active += 1
        prefill = self.spec.prefill_time(self.gpu_spec, request.prompt_tokens)
        self.env.timeout(prefill, request).callbacks.append(self._on_prefilled)

    def _prefilled(self, timer) -> None:
        request = timer.value
        request.first_token_time = self.env.now
        request.generated_tokens = 1
        steps = request.max_new_tokens - 1
        if steps <= 0:
            self._decoded(timer)
            return
        # Decode pace at the *current* co-residency: more live
        # sequences stream more KV per step, so a loaded server
        # decodes slower — the graceful-degradation half of the
        # overload story (shedding is the other half).
        batch = self.active
        context = request.prompt_tokens + steps // 2
        step = self.spec.decode_step_time(self.gpu_spec, batch, batch * context)
        self.env.timeout(steps * step, request).callbacks.append(self._on_decoded)

    def _decoded(self, timer) -> None:
        request = timer.value
        request.generated_tokens = request.max_new_tokens
        request.finish_time = self.env.now
        if request.on_finish is not None and not request.on_finish.triggered:
            request.on_finish.succeed(request)
        self.active -= 1
        self.depth -= 1
        self.tokens += request.max_new_tokens
        self.completed += 1
        for callback in self.on_complete:
            callback(self, request)
        if self.queue and self.active < self.concurrency:
            self._dispatch()

    def __repr__(self) -> str:
        return (
            f"<ServerFrontend {self.name} depth={self.depth} "
            f"active={self.active}/{self.concurrency} done={self.completed}>"
        )
