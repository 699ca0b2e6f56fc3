"""A plain step-loop reference of vLLM continuous batching, and of the
Orca and CFS schedulers that share its running batch.

Written from the scheduling rules that ``docs/architecture.md`` and the
``VLLMEngine`` docstrings state, not from the engine's code, so the two
can disagree.  There is no simulation kernel: the clock is a float
advanced by ``now + d`` with the same roofline and wire-time calls the
engine charges, and the loop visits one scheduling decision at a time.
Arrivals submitted at exactly the time the engine acts are seen before
it acts (the arrival processes were scheduled first).

The rules of mode ``"recompute"`` (``VLLMEngine``), per loop turn:

1. Waiting prompts are admitted in order while a batch slot is free and
   the paged KV cache can hold the whole context.
2. If any were admitted, they prefill together and each emits a token.
   Otherwise the running batch decodes one step: every live sequence,
   in batch order, grows by one token and takes a new block at a block
   boundary.  A sequence with no free block preempts the youngest other
   live sequence (latest arrival), which drops its blocks and goes to
   the head of the queue.  With nothing to preempt the sequence ends,
   as a context-length abort would.  A sequence that reaches its output
   length completes and frees its blocks at once.
3. With nothing running, a queue head that does not fit an empty cache
   is rejected; an idle engine waits for the next arrival.

Mode ``"orca"`` is ``OrcaEngine``, Orca's worst-case reservation: rule
1 charges each admitted prompt its ``prompt + max_new`` tokens up front,
and a decode step only emits tokens -- sequences take no blocks as they
grow, so nothing is ever preempted.

Mode ``"cfs"`` is ``CFSEngine`` (§5), in rounds:

4. Live prompts (running, swapped, then waiting; stably sorted by
   generated count, then arrival) join the round in that order while a
   batch slot is free and blocks for ``context + slice_tokens`` tokens
   still fit the whole cache; one that does not fit is skipped.
5. An empty round drops the queue head, else ends the longest live
   context as an abort would.  Otherwise running prompts outside the
   round swap out to host DRAM (in batch order), swapped ones in it
   swap back in (in round order), and waiting ones in it prefill
   together, as in rule 2.
6. The batch decodes ``slice_tokens`` steps as in rule 2, fewer if it
   empties; the round's budget means no step runs short of blocks.

Blocks come from a LIFO free list: taken from its end, returned in the
order the sequence holds them.  LoRA adapters, producer duties, AQUA
contexts and CFS's cached conversations are not modelled;
``tests/test_context_cache.py`` and the CFS transcript pin in
``tests/test_engine_transcripts.py`` cover the last.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Optional


@dataclass(eq=False)
class Seq:
    """One request as the reference sees it."""

    index: int
    arrival: float
    prompt: int
    max_new: int
    generated: int = 0
    first: Optional[float] = None
    finish: Optional[float] = None
    kv_tokens: int = 0
    blocks: list = field(default_factory=list)


class Reference:
    """Run a request trace through the rules above.

    ``free`` is the allocator's initial free list (taken from its end);
    ``server`` and ``gpu`` price the swap copies; the clock starts at
    ``start``, no later than the first arrival.  ``slice_tokens`` is
    the CFS slice length.
    """

    def __init__(
        self, model, server, gpu, free, block_tokens, max_batch, mode, start=0.0,
        slice_tokens=None,
    ):
        self.model = model
        self.spec = gpu.spec
        self.server = server
        self.gpu = gpu
        self.dram = server.dram
        self.free = list(free)
        self.block_tokens = block_tokens
        self.max_batch = max_batch
        self.mode = mode
        self.slice_tokens = slice_tokens
        self.n_blocks = len(free)
        self.now = start
        self.waiting: deque[Seq] = deque()
        self.running: list[Seq] = []
        self.swapped: list[Seq] = []
        self.rejected: list[Seq] = []
        self.completed: list[Seq] = []
        self.token_times: list[float] = []
        #: ``(time the preemption started, victim index)`` in order; under
        #: CFS, each context switch's swap-out.
        self.preempted: list[tuple[float, int]] = []
        #: End time of every decode step (arrival targets for tests).
        self.step_ends: list[float] = []

    # -- blocks --------------------------------------------------------
    def blocks_for(self, tokens):
        return -(-tokens // self.block_tokens)

    def take(self, count):
        return [self.free.pop() for _ in range(count)]

    def release(self, seq):
        self.free.extend(seq.blocks)
        seq.blocks = []

    # -- tokens --------------------------------------------------------
    def token(self, seq):
        """Record one token for ``seq`` now; True if it completed."""
        if seq.first is None:
            seq.first = self.now
        seq.generated += 1
        self.token_times.append(self.now)
        if seq.generated >= seq.max_new and seq.finish is None:
            seq.finish = self.now
            self.completed.append(seq)
            return True
        return False

    def copy_time(self, src, dst, seq):
        return self.server.transfer_time(src, dst, self.model.kv_bytes(seq.kv_tokens))

    # -- the loop ------------------------------------------------------
    def run(self, trace):
        """``trace`` is a list of ``(arrival, prompt, max_new)``."""
        seqs = [Seq(i, *spec) for i, spec in enumerate(trace)]
        arrivals = deque(sorted(seqs, key=lambda s: (s.arrival, s.index)))
        while True:
            while arrivals and arrivals[0].arrival <= self.now:
                self.waiting.append(arrivals.popleft())
            if self.mode == "cfs" and (self.running or self.swapped or self.waiting):
                self.fair_round()
                continue
            admitted = self.admit()
            if admitted:
                self.prefill(admitted)
            elif self.running:
                self.decode()
            elif self.waiting:
                self.rejected.append(self.waiting.popleft())
            elif arrivals:
                self.now = arrivals[0].arrival
            else:
                return seqs

    def admit(self):
        admitted = []
        while (
            self.waiting
            and len(self.running) + len(admitted) < self.max_batch
            and self.blocks_for(self.reservation(self.waiting[0])) <= len(self.free)
        ):
            seq = self.waiting.popleft()
            seq.kv_tokens = self.reservation(seq)
            seq.blocks = self.take(self.blocks_for(seq.kv_tokens))
            admitted.append(seq)
        return admitted

    @staticmethod
    def context(seq):
        return seq.prompt + seq.generated

    def reservation(self, seq):
        """KV tokens admission charges: the whole output up front under
        Orca, the context so far otherwise."""
        return seq.prompt + seq.max_new if self.mode == "orca" else self.context(seq)

    def prefill(self, admitted):
        tokens = sum(self.context(s) for s in admitted)
        self.now = self.now + self.model.prefill_time(self.spec, tokens)
        for seq in admitted:
            if self.token(seq):
                self.release(seq)
            else:
                self.running.append(seq)

    def decode(self):
        batch = list(self.running)
        context = sum(self.context(s) for s in batch)
        step = self.model.decode_step_time(self.spec, len(batch), context)
        self.now = self.now + step
        self.step_ends.append(self.now)
        if self.mode == "orca":
            for seq in batch:
                if self.token(seq):
                    self.running.remove(seq)
                    self.release(seq)
            return
        live = set(batch)
        for seq in batch:
            if seq not in live:
                continue
            boundary = seq.kv_tokens % self.block_tokens == 0
            if boundary and not self.free:
                assert self.mode != "cfs", "a CFS round's blocks always fit"
                victims = [s for s in self.running if s is not seq and s in live]
                if not victims:
                    seq.max_new = seq.generated + 1
                    self.token(seq)
                    live.discard(seq)
                    self.release(seq)
                    continue
                self.preempt(max(victims, key=lambda s: s.arrival), live)
            if boundary:
                seq.blocks += self.take(1)
            seq.kv_tokens += 1
            if self.token(seq):
                live.discard(seq)
                self.release(seq)
        self.running = [s for s in self.running if s in live]

    def preempt(self, victim, live):
        live.discard(victim)
        self.preempted.append((self.now, victim.index))
        self.release(victim)
        self.waiting.appendleft(victim)

    # -- CFS -----------------------------------------------------------
    def fair_round(self):
        """Rules 4--6: pick a round, switch contexts, prefill, decode."""
        live = [*self.running, *self.swapped, *self.waiting]
        active, budget = [], self.n_blocks
        for seq in sorted(live, key=lambda s: (s.generated, s.arrival)):
            need = self.blocks_for(self.context(seq) + self.slice_tokens)
            if len(active) < self.max_batch and need <= budget:
                active.append(seq)
                budget -= need
        if not active:
            self.evict()
            return
        for seq in [s for s in self.running if s not in active]:
            self.preempted.append((self.now, seq.index))
            self.release(seq)
            self.now = self.now + self.copy_time(self.gpu, self.dram, seq)
            self.running.remove(seq)
            self.swapped.append(seq)
        for seq in [s for s in active if s in self.swapped]:
            seq.blocks = self.take(self.blocks_for(seq.kv_tokens))
            self.now = self.now + self.copy_time(self.dram, self.gpu, seq)
            self.swapped.remove(seq)
            self.running.append(seq)
        fresh = [s for s in active if s in self.waiting]
        for seq in fresh:
            self.waiting.remove(seq)
            seq.kv_tokens = self.context(seq)
            seq.blocks = self.take(self.blocks_for(seq.kv_tokens))
        if fresh:
            self.prefill(fresh)
        for _ in range(self.slice_tokens):
            if not self.running:
                break
            self.decode()

    def evict(self):
        if self.waiting:
            self.rejected.append(self.waiting.popleft())
            return
        victim = max([*self.running, *self.swapped], key=self.context)
        victim.max_new = victim.generated + 1
        self.token(victim)
        if victim in self.running:
            self.running.remove(victim)
            self.release(victim)
        else:
            self.swapped.remove(victim)
