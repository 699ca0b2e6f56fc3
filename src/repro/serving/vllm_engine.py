"""A vLLM-style serving engine: continuous batching over paged KV.

The scheduler mirrors vLLM's default behaviour, which is what makes the
paper's motivation reproducible: a new prompt is *admitted* only when
the paged KV cache has room for it, so under bursty load late arrivals
sit in the waiting queue making zero progress (Figure 1a / Figure 9's
RCT jumps at ~20 requests).  Decode runs one token per iteration for
every running sequence; when KV space runs out mid-generation the most
recent sequence is preempted and recomputed later, as vLLM does.
Iterations nothing could observe run as one exact window (see
:meth:`VLLMEngine._decode_step`).

The engine can simultaneously serve and act as an AQUA memory producer
(the paper's modified vLLM, §B.1): spare KV blocks are donated via the
``llm-informer`` and taken back when the queue builds up.
"""

from __future__ import annotations

from typing import Generator, Optional

from repro.memory.allocator import AllocationError
from repro.serving.engine import LLMEngineBase
from repro.serving.lora_manager import LoRACache
from repro.serving.request import Request


class VLLMEngine(LLMEngineBase):
    """Continuous-batching engine with admission control.

    Parameters (beyond :class:`LLMEngineBase`)
    ----------
    max_batch:
        Upper bound on concurrently running sequences (vLLM's
        ``max_num_seqs``).
    lora_cache:
        Optional adapter cache; requests naming an adapter block until
        it is GPU-resident.
    """

    def __init__(
        self,
        gpu,
        server,
        model,
        max_batch: int = 64,
        lora_cache: Optional[LoRACache] = None,
        name: str = "vllm",
        **kwargs,
    ) -> None:
        super().__init__(gpu, server, model, name=name, **kwargs)
        if max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {max_batch}")
        self.max_batch = max_batch
        self.lora_cache = lora_cache
        self.preemptions = 0
        self.rejected: list[Request] = []

    # ------------------------------------------------------------------
    def _admit_tokens(self, request: Request) -> int:
        """KV tokens a waiting request reserves on admission: its
        context now; blocks grow with each generated token."""
        return request.total_tokens

    def _admit(self) -> list[Request]:
        """Admit waiting requests while KV memory and batch slots allow."""
        admitted = []
        while (
            self.waiting
            and len(self.running) + len(admitted) < self.max_batch
            and self.kv.can_admit(self._admit_tokens(self.waiting[0]))
        ):
            request = self.waiting.popleft()
            self.kv.admit(request.req_id, self._admit_tokens(request))
            admitted.append(request)
        return admitted

    def _prefill(self, admitted: list[Request]) -> Generator:
        """Load the newly admitted requests' adapters, then run their
        whole-prompt prefill."""
        self.attr_mark(admitted, "queueing")
        if self.lora_cache is not None:
            for request in admitted:
                if request.adapter is not None:
                    yield from self.lora_cache.ensure(request.adapter)
        tokens = sum(r.total_tokens for r in admitted)
        started = self.env.now
        yield self.gpu.launch(self.model.prefill_time(self.gpu.spec, tokens))
        self.trace_span("prefill", started, requests=len(admitted), tokens=tokens)
        self.attr_mark(admitted, "prefill_compute")
        self.flow_step(admitted, time=started)
        for request in admitted:
            # Prefill emits the first token; preempted sequences resuming
            # via recompute have already reported theirs.
            if self._finish_tokens([request]):
                self.kv.release(request.req_id)
            else:
                self._join(request)

    # ------------------------------------------------------------------
    # Decode
    # ------------------------------------------------------------------
    def _decode_step(self) -> Generator:
        """Decode the running batch for one step, or for a window of steps.

        Steps ``1 … k−1`` of a window are *quiet*: the step-by-step path
        would pass their ends without deciding anything (see
        :meth:`_window`).  They share one compute grant and one wake at
        ``t_k``; their clocks, token stamps, blocks and observer records
        are exactly those of stepping one at a time, and step ``k`` runs
        the per-step bookkeeping at ``t_k``.
        """
        running = self.running
        n = len(running)
        env = self.env
        gpu = self.gpu
        context = self._context
        started = env.now
        horizon, _ = env.horizon(self.domain)
        with gpu.compute.request() as grant:
            # A window only opens when the GPU was free, so the grant is
            # held at once, and nothing else is due now.
            alone = grant.processed and horizon > started
            yield grant
            dilation = gpu.dilation()
            first = self.model.decode_step_time(gpu.spec, n, context) * dilation
            if alone and horizon > started + first:
                durations, ends = self._window(n, context, dilation, horizon, first)
            else:
                durations = ends = [first]
            for duration in durations:
                gpu.busy_time += duration
            if len(ends) == 1:
                yield first
            else:
                self._quiet_steps(running, started, ends)
                # _window checked that this delay lands exactly on t_k.
                # (The clock may be a NumPy float; a bare delay is a float.)
                yield float(ends[-1] - started)
        self.trace_span("decode", ends[-2] if len(ends) > 1 else started, batch=n)
        if self.telemetry is not None:
            self.telemetry.decode_batch(self.name, n)
            self._step_ends.append(env.now)
        self._decode_bookkeeping()

    def _window(self, n, context, dilation, horizon, first):
        """Step durations and ends ``t_1 … t_k`` of the window that
        starts now, for a batch of ``n`` sequences.

        Step ``k`` is the first step whose end the step-by-step path
        could decide something at:

        * a sequence completes (that frees blocks and opens admission);
        * a producer inform is due;
        * the horizon -- the next pending event of this engine's
          domain or of a global actor (an arrival, a scrape, an audit
          tick, a fault, a DMA completion), the stop time of the
          current ``run(until=...)``, or now under a per-event monitor
          -- is at or before it;
        * the blocks the earlier steps take would not all fit, which
          would preempt.

        Admission stays closed inside a window: it was closed at the
        start, nothing is released, and the waiting queue only grows
        through events.  The ends chain as ``t_s = t_{s-1} + d_s``, as
        the per-step path adds them, and the window shrinks until the
        one wake, ``t_0 + (t_k − t_0)``, lands exactly on ``t_k``.
        The completion heap and the KV cache's crossing schedule give
        the first and last rules without visiting the batch.
        """
        limit = self._steps_left()
        if self.aqua_lib is not None:
            limit = min(limit, self.inform_every - self.iteration % self.inform_every)
        spec = self.gpu.spec
        step_time = self.model.decode_step_time
        blocks_due = self.kv.blocks_due
        free = self.allocator.free_blocks
        now = self.env.now
        durations = [first]
        ends = [now + first]
        while len(ends) < limit and horizon > ends[-1]:
            # Step len(ends) turns quiet: its blocks must fit.
            free -= blocks_due(len(ends))
            if free < 0:
                break
            duration = step_time(spec, n, context + len(ends) * n) * dilation
            durations.append(duration)
            ends.append(ends[-1] + duration)
        k = len(ends)
        while k > 1 and now + (ends[k - 1] - now) != ends[k - 1]:
            k -= 1
        return durations[:k], ends[:k]

    def _quiet_steps(self, batch, started, ends) -> None:
        """Account steps ``1 … k−1`` of a window at its start.

        Nothing else acts or looks before ``t_{k-1}`` (the horizon), so
        nothing can tell: the step clock counts every sequence's tokens
        at once, the KV cache visits only the sequences crossing a
        block boundary, and each step's stamps and spans carry that
        step's times.  The window's ends join the decode step log in
        one call, and the occupancy gauge is set once: no scrape can
        read it before ``t_k``.
        """
        quiet = len(ends) - 1
        n = len(batch)
        for _ in range(quiet):
            if self.kv.step() is not None:
                raise AllocationError(
                    f"{self.name}: a quiet decode step ran out of blocks"
                )
        self._context += quiet * n
        for end in ends[:quiet]:
            self.metrics.record_token(end, n)
        self.iteration += quiet
        tracer, telemetry = self.tracer, self.telemetry
        if tracer is not None:
            for start, end in zip([started, *ends], ends[:quiet]):
                tracer.add_span("decode", self.name, start, end, batch=n)
        if telemetry is not None:
            telemetry.decode_batch(self.name, n)
            self._step_ends.extend(ends[:quiet])

    def _decode_bookkeeping(self) -> None:
        """Account one generated token for every running sequence.

        The step clock counts them all at once.  Only the sequences
        this token completes (from the finish heap) and those crossing
        a block boundary (from the KV cache's schedule) are visited, in
        batch order, so a completion's blocks are free before a later
        sequence takes one.  A crossing that finds no free block ends a
        *run* of tokens (each run costs one metrics call): the needy
        sequence preempts a victim and heads the next run.  Every token
        of the step is stamped at the same instant.
        """
        done = self._finishing()
        needy_id = self.kv.step([r.req_id for r in done])
        if needy_id is None:
            self._grant(len(self.running), done)
        else:
            self._decode_shortfalls(needy_id, done)

    def _decode_shortfalls(self, needy_id: int, done: list[Request]) -> None:
        """Finish a decode step the KV cache stopped at ``needy_id``.

        Until a run resumes, the step clock's cursor (set by the KV
        cache) keeps the requests from the needy one on at their count
        before this step.  A request that is still short after
        preempting ends here, as a context-length abort would.
        """
        running = self.running
        head = -1  # seat heading the current run
        needy = None
        while needy_id is not None:
            stuck = next(r for r in running if r.req_id == needy_id)
            ready = [r for r in done if r.seat < stuck.seat]
            done = done[len(ready):]
            self._grant(sum(head <= r.seat < stuck.seat for r in running), ready)
            if stuck is needy:
                # Still no room (nothing left to preempt).
                head = stuck.seat + 1
                self._abort(stuck)
            else:
                needy = stuck
                self._preempt_for(needy)
                head = needy.seat
            done = [r for r in done if r.seat is not None]
            needy_id = self.kv.step([r.req_id for r in done])
        tokens = sum(r.seat >= head for r in running)
        if tokens:  # none after an aborted last sequence: no run to stamp
            self._grant(tokens, done)

    def _preempt_for(self, needy: Request) -> None:
        """Free KV space by preempting the youngest other running
        sequence, as vLLM's default (recompute) preemption does: the
        victim leaves the batch, its blocks are released, and it heads
        the waiting queue to re-prefill its whole context later."""
        victims = [r for r in self.running if r is not needy]
        if not victims:
            return
        victim = max(victims, key=lambda r: r.arrival_time)
        self._leave(victim)
        self.preemptions += 1
        if self.telemetry is not None:
            self.telemetry.preemption(self.name)
        self.kv.release(victim.req_id)
        self.waiting.appendleft(victim)

    def _serve(self) -> Generator:
        while True:
            admitted = self._admit()
            if admitted:
                yield from self._prefill(admitted)
            elif self.running:
                yield from self._decode_step()
            elif self.waiting:
                # Nothing is running yet the head still does not fit: the
                # prompt exceeds the whole KV cache.  Reject it, as vLLM
                # rejects prompts beyond the context capacity.
                self.rejected.append(self.waiting.popleft())
            else:
                yield from self._wait_for_arrival()
            self.iteration += 1
            if self.aqua_lib is not None and self.iteration % self.inform_every == 0:
                yield from self.producer_tick()
