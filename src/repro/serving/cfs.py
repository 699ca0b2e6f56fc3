"""Completely fair scheduling of prompts (§5).

Instead of batch-processing whichever prompts fit in memory, the CFS
engine gives every live prompt time slices measured in generated
tokens: each round it activates the prompts that have generated the
*fewest* tokens so far (new arrivals first — which is what slashes
TTFT), runs one slice, then context-switches.

Context switching is the whole cost: the outgoing prompts' KV caches
are written out of the GPU and the incoming ones read back.  With AQUA
the contexts travel over NVLink as gathered AQUA TENSORS; the baseline
writes them to host DRAM over PCIe.  The slice length trades fairness
against switching overhead (the ``ablation-slice`` experiment).
"""

from __future__ import annotations

from typing import Generator, Optional

from repro.aqua.tensor import TensorLostError
from repro.memory.allocator import AllocationError
from repro.serving.engine import LLMEngineBase
from repro.serving.lora_manager import LoRACache
from repro.serving.request import Request


class CFSEngine(LLMEngineBase):
    """Fair scheduler with swap-based context switching.

    Parameters (beyond :class:`LLMEngineBase`)
    ----------
    slice_tokens:
        Tokens each active prompt generates per slice (Figure 6 uses 5).
    max_batch:
        Maximum prompts active in one slice.
    use_aqua:
        Swap contexts through AQUA TENSORS (requires ``aqua_lib``);
        otherwise through host DRAM over PCIe.
    respond_every:
        Slices between ``aqua.respond()`` calls.
    """

    def __init__(
        self,
        gpu,
        server,
        model,
        slice_tokens: int = 5,
        max_batch: int = 32,
        use_aqua: bool = False,
        respond_every: int = 2,
        lora_cache: Optional[LoRACache] = None,
        context_cache=None,
        name: str = "cfs",
        **kwargs,
    ) -> None:
        super().__init__(gpu, server, model, name=name, **kwargs)
        if slice_tokens < 1:
            raise ValueError(f"slice_tokens must be >= 1, got {slice_tokens}")
        if use_aqua and self.aqua_lib is None:
            raise ValueError("use_aqua requires an aqua_lib")
        self.slice_tokens = slice_tokens
        self.max_batch = max_batch
        self.use_aqua = use_aqua
        self.respond_every = respond_every
        self.lora_cache = lora_cache
        #: Optional :class:`~repro.serving.context_cache.ChatContextCache`
        #: keeping finished conversations' KV offloaded between turns.
        self.context_cache = context_cache
        #: Requests admitted at least once but currently swapped out.
        self.swapped: list[Request] = []
        self._swap_tensors: dict[int, object] = {}
        self._dram_tags: dict[int, int] = {}
        self.context_switch_time = 0.0
        self.slices_run = 0

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def _vruntime(self, request: Request) -> float:
        """Virtual progress of a prompt; CFS serves the smallest first."""
        return request.generated_tokens

    def _candidates(self) -> list[Request]:
        """All live prompts, least-virtual-progress first (the CFS order)."""
        live = [*self.running, *self.swapped, *self.waiting]
        return sorted(live, key=lambda r: (self._vruntime(r), r.arrival_time))

    def _select_active(self) -> list[Request]:
        """Fill the next slice's active set within KV capacity."""
        active: list[Request] = []
        budget = self.allocator.n_blocks
        for request in self._candidates():
            if len(active) >= self.max_batch:
                break
            need = self.kv.blocks_for(request.total_tokens + self.slice_tokens)
            if need > budget:
                continue
            active.append(request)
            budget -= need
        return active

    # ------------------------------------------------------------------
    # Context switching
    # ------------------------------------------------------------------
    def _abandon_context(self, request: Request) -> None:
        """A fault cost this request its KV: release and re-queue it.

        The request keeps its token progress; re-admission through
        :meth:`_admit_new` prefills the whole context again (the
        recompute cost of recovery).  Requests are never dropped.  A
        seated request's KV is released by :meth:`requeue`.
        """
        if request in self.swapped:
            self.swapped.remove(request)
            self.kv.release(request.req_id)
        self.requeue(request)

    def _swap_out(self, request: Request) -> Generator:
        nbytes = self.kv.swap_out(request.req_id)
        pieces = 2 * self.model.n_layers * self.kv.blocks_for(request.total_tokens)
        if self.use_aqua:
            tensor = self.aqua_lib.to_responsive_tensor(
                nbytes, pieces=pieces, tag=f"cfs-ctx-{request.req_id}"
            )
            try:
                yield from tensor.flush()
            except TensorLostError:
                tensor.free()
                self._abandon_context(request)
                return
            self._swap_tensors[request.req_id] = tensor
        else:
            self.server.dram.pool.reserve(f"{self.name}:ctx{request.req_id}", nbytes)
            self._dram_tags[request.req_id] = nbytes
            yield from self.server.transfer(self.gpu, self.server.dram, nbytes)
        self._leave(request)
        self.swapped.append(request)

    def _swap_in(self, request: Request) -> Generator:
        nbytes = self.kv.swap_in(request.req_id)
        if self.use_aqua:
            tensor = self._swap_tensors.pop(request.req_id)
            try:
                yield from tensor.fetch()
            except TensorLostError:
                tensor.free()
                self._abandon_context(request)
                return
            tensor.free()
        else:
            yield from self.server.transfer(self.server.dram, self.gpu, nbytes)
            self.server.dram.pool.release(f"{self.name}:ctx{request.req_id}")
            self._dram_tags.pop(request.req_id, None)
        self.swapped.remove(request)
        self._join(request)

    def _context_switch(self, active: list[Request]) -> Generator:
        started = self.env.now
        chosen = {r.req_id for r in active}
        out = [r for r in self.running if r.req_id not in chosen]
        for request in out:
            yield from self._swap_out(request)
        into = [r for r in active if r in self.swapped]
        for request in into:
            yield from self._swap_in(request)
        self.context_switch_time += self.env.now - started
        if (out or into) and self.env.now > started:
            self.trace_span(
                "context-switch", started, out=len(out), swapped_in=len(into)
            )
            # Context switches are offload traffic: swap-out victims and
            # swapped-in winners both spent this window on the fetch path.
            self.attr_mark([*out, *into], "offload_fetch")

    def _admit_new(self, active: list[Request]) -> Generator:
        """Prefill requests entering the GPU for the first time.

        With a chat context cache, a returning user's prior conversation
        KV is restored from offloaded memory and only the new text is
        prefilled.
        """
        fresh = [r for r in active if r in self.waiting]
        if not fresh:
            return
        self.attr_mark(fresh, "queueing")
        prefill_tokens = 0
        for request in fresh:
            self.waiting.remove(request)
            self.kv.admit(request.req_id, request.total_tokens)
            if self.lora_cache is not None and request.adapter is not None:
                yield from self.lora_cache.ensure(request.adapter)
            restored = 0
            if self.context_cache is not None and request.user is not None:
                if self.context_cache.cached_tokens(
                    request.user, request.prompt_tokens
                ):
                    restored = yield from self.context_cache.restore(request.user)
            prefill_tokens += request.total_tokens - restored
        started = self.env.now
        yield self.gpu.launch(
            self.model.prefill_time(self.gpu.spec, prefill_tokens)
        )
        self.trace_span(
            "prefill", started, requests=len(fresh), tokens=prefill_tokens
        )
        self.attr_mark(fresh, "prefill_compute")
        self.flow_step(fresh, time=started)
        for request in fresh:
            if self._finish_tokens([request]):
                yield from self._maybe_cache_context(request)
                self.kv.release(request.req_id)
            else:
                self._join(request)

    def _maybe_cache_context(self, request: Request) -> Generator:
        """Park a finished conversation's KV before releasing its blocks."""
        if self.context_cache is not None and request.user is not None:
            yield from self.context_cache.save(request.user, request.total_tokens)

    def _step_tokens(self) -> Generator:
        """Account one generated token for every running prompt.

        The step clock counts them all; only the prompts this token
        completes (from the finish heap) are visited.  A finished
        conversation whose context is cached ends a run of tokens: the
        KV step pauses after it, the save yields (later prompts' tokens
        carry the later time), and only then are its blocks released and
        the step resumed.
        """
        done = self._finishing()
        caching = self.context_cache is not None
        head = -1  # seat heading the current run
        for pause in [r for r in done if caching and r.user is not None]:
            end = pause.seat + 1
            run = [r for r in done if r.seat < end]
            done = done[len(run):]
            self._grow([r.req_id for r in run[:-1]], through=pause.req_id)
            self._grant(sum(head <= r.seat < end for r in self.running), run)
            head = end
            yield from self._maybe_cache_context(pause)
            self.kv.release(pause.req_id)
        self._grow([r.req_id for r in done])
        running = self.running
        tokens = len(running) if head < 0 else sum(r.seat >= head for r in running)
        if tokens:  # none after a pause at the last prompt
            self._grant(tokens, done)

    def _grow(self, last, through=None) -> None:
        """Run (or resume) the KV step; CFS sizes its slices so that a
        step never runs short of blocks."""
        needy = self.kv.step(last, through)
        if needy is not None:
            raise AllocationError(f"{self.name}: no free block to grow sequence {needy}")

    # ------------------------------------------------------------------
    # Main loop
    # ------------------------------------------------------------------
    def _run_slice(self) -> Generator:
        slice_started = self.env.now
        # Nothing joins mid-slice: the batch only shrinks.
        batch = list(self.running)
        try:
            for _ in range(self.slice_tokens):
                if not self.running:
                    return
                step = self.model.decode_step_time(
                    self.gpu.spec, len(self.running), self._context
                )
                yield self.gpu.launch(step)
                yield from self._step_tokens()
        finally:
            if batch and self.env.now > slice_started:
                self.trace_span("slice", slice_started, batch=len(batch))
                if self.telemetry is not None:
                    self.telemetry.decode_batch(self.name, len(batch))
                    self.attr_mark(batch, "decode_hbm")

    def _evict_oversized(self) -> None:
        """No live prompt fits the KV cache: reject or truncate one."""
        if self.waiting:
            self.waiting.popleft()
            return
        victim = max(
            [*self.running, *self.swapped], key=lambda r: r.total_tokens
        )
        self._abort(victim)
        if victim in self.swapped:
            # Its context lives offloaded: drop that copy too.
            self.swapped.remove(victim)
            tensor = self._swap_tensors.pop(victim.req_id, None)
            if tensor is not None:
                tensor.free()
            if self._dram_tags.pop(victim.req_id, None) is not None:
                self.server.dram.pool.release(f"{self.name}:ctx{victim.req_id}")

    def _serve(self) -> Generator:
        while True:
            if not (self.running or self.swapped or self.waiting):
                yield from self._wait_for_arrival()
                self.iteration += 1
                if self.aqua_lib is not None and self.iteration % self.inform_every == 0:
                    yield from self.producer_tick()
                continue
            active = self._select_active()
            if not active:
                self._evict_oversized()
                continue
            yield from self._context_switch(active)
            yield from self._admit_new(active)
            yield from self._run_slice()
            self.slices_run += 1
            self.iteration += 1
            if self.aqua_lib is not None and self.iteration % self.respond_every == 0:
                yield from self.aqua_lib.respond()
            if self.aqua_lib is not None and self.iteration % self.inform_every == 0:
                yield from self.producer_tick()
