"""Differential test: ``LatencyAttributor``'s running sums against a
segment-list reference.

The reference below keeps every ``(start, end, component)`` segment and
walks them at report time, clipped at the first token and at the
finish: the straightforward reading of the telescoping-marks model in
``docs/observability.md``.  Hypothesis drives both with the same
time-ordered histories (batches, every component, contention
carve-outs, zero-width and backwards marks, tokens stamped at mark
times, marks after the finish) and their reports must serialise to the
same bytes.  The histories also drive two decode step logs: requests
join a log, single steps and windows of steps are appended to it (the
reference marks each step eagerly for every seated request), and
requests leave by completion, preemption or requeue, while
``components_of`` and ``report()`` read at random points with
timelines still seated.

An engine-level draw runs a telemetered vLLM engine with a co-resident
process that wakes at random times and reads every running request's
attribution, which must reach its last decode step; the final report
must match the same run's without the reader.
"""

import json
import tracemalloc

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.telemetry.attribution as attribution
from repro.hardware import Server
from repro.models import MISTRAL_7B
from repro.serving import Request, VLLMEngine
from repro.sim import Environment
from repro.telemetry import COMPONENTS, LatencyAttributor, Telemetry
from repro.workloads.arrivals import submit_all
from tests.test_vllm_oracle import EXAMPLES, HORIZON, draw_rig
from tests.test_vllm_oracle import requests as trace_requests


class SegmentAttributor:
    """Every segment kept; totals walked on demand."""

    def __init__(self):
        self.segments, self.last, self.pending = {}, {}, {}

    def observe(self, r):
        self.segments[r.req_id], self.pending[r.req_id] = [], 0.0
        self.last[r.req_id] = r.arrival_time

    def mark(self, requests, component, now):
        for r in requests:
            start = self.last[r.req_id]
            if now <= start:
                continue
            if component == "offload_fetch" and self.pending[r.req_id] > 0.0:
                contended = min(self.pending[r.req_id], now - start)
                self.segments[r.req_id].append((start, start + contended, "link_contention"))
                self.pending[r.req_id] -= contended
                start += contended
            if now > start:
                self.segments[r.req_id].append((start, now, component))
            self.last[r.req_id] = now

    def note_contention(self, req_id, seconds):
        if seconds > 0.0:
            self.pending[req_id] += seconds

    def components_of(self, r, until=None):
        totals = dict.fromkeys(COMPONENTS, 0.0)
        for start, end, component in self.segments[r.req_id]:
            if until is not None:
                if start >= until:
                    continue
                end = min(end, until)
            totals[component] += end - start
        return totals

    def report(self, requests):
        entries, per_component = [], {c: [] for c in COMPONENTS}
        for r in sorted(requests, key=lambda r: r.req_id):
            if r.finish_time is None:
                continue
            totals = self.components_of(r, until=r.finish_time)
            totals["other"] += max(0.0, r.rct - sum(totals.values()))
            tokens = max(1, r.generated_tokens)
            entries.append({
                "req_id": r.req_id, "ttft": r.ttft, "rct": r.rct,
                "tokens": r.generated_tokens, "components": totals,
                "ttft_components": self.components_of(r, until=r.first_token_time),
                "per_token": {c: v / tokens for c, v in totals.items()},
            })
            for component, value in totals.items():
                per_component[component].append(value)
        aggregates = {
            c: {
                "mean": sum(v) / len(v) if v else float("nan"),
                "p50": attribution._percentile(v, 50.0),
                "p99": attribution._percentile(v, 99.0),
            }
            for c, v in per_component.items()
        }
        return {"components": list(COMPONENTS), "requests": entries,
                "aggregates": aggregates, "count": len(entries)}


times = st.one_of(
    st.just(0.0),
    st.sampled_from([0.1, 0.25, 1 / 3, 1.0]),
    st.floats(min_value=0.0, max_value=2.0, allow_nan=False),
)
op = st.one_of(
    st.tuples(st.just("mark"), st.lists(st.integers(0, 5), max_size=6),
              st.sampled_from(COMPONENTS), times, times),
    st.tuples(st.just("contention"), st.integers(0, 5), times),
    st.tuples(st.just("token"), st.lists(st.integers(0, 5), max_size=6)),
    st.tuples(st.just("join"), st.lists(st.integers(0, 5), max_size=6), st.integers(0, 1)),
    st.tuples(st.just("steps"), st.integers(0, 1), st.lists(times, min_size=1, max_size=5)),
    st.tuples(st.just("leave"), st.integers(0, 5),
              st.sampled_from(["completion", "preemption", "requeue"]), times),
    st.tuples(st.just("read")),
    st.tuples(st.just("report")),
)


# Hypothesis's default budget in tier-1; CI's ``ci`` profile draws 300.
@settings(deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    arrivals=st.lists(times, min_size=1, max_size=6),
    max_new=st.lists(st.integers(1, 4), min_size=6, max_size=6),
    history=st.lists(op, min_size=10, max_size=40),
)
def test_running_sums_match_segment_walk(arrivals, max_new, history):
    requests = [
        Request(arrival_time=a, prompt_tokens=4, max_new_tokens=m)
        for a, m in zip(arrivals, max_new)
    ]
    attr, ref = LatencyAttributor(), SegmentAttributor()
    for r in requests:
        attr.observe(r)
        ref.observe(r)
    logs = [attr.step_log(), attr.step_log()]
    seated = [[], []]  # per log, the requests seated in it
    where = {}  # req_id -> the log it is seated in
    clock = 0.0

    def pick(indices):
        return [requests[i] for i in dict.fromkeys(indices) if i < len(requests)]

    def report_matches():
        got = json.dumps(attr.report(), sort_keys=True)
        want = json.dumps(ref.report(requests), sort_keys=True)
        assert got == want

    for kind, *args in history:
        if kind == "mark":
            indices, component, advance, back = args
            clock += advance
            # ``back`` > 0 is a mark behind the clock: a no-op for any
            # request already marked past it.
            now = max(0.0, clock - back)
            attr.mark(pick(indices), component, now)
            ref.mark(pick(indices), component, now)
        elif kind == "contention":
            index, seconds = args
            if index < len(requests):
                attr.note_contention(requests[index].req_id, seconds)
                ref.note_contention(requests[index].req_id, seconds)
        elif kind == "token":
            # Tokens are stamped at the clock, the latest mark time, as
            # engines stamp after that step's mark.  A seated request's
            # last token is stamped only once it has left (engines
            # unseat a request before finishing it).
            for r in pick(args[0]):
                if r.arrival_time <= clock and r.finish_time is None and not (
                    r.req_id in where and r.generated_tokens + 1 >= r.max_new_tokens
                ):
                    r.record_token(clock)
        elif kind == "join":
            indices, k = args
            for r in pick(indices):
                if r.arrival_time <= clock and r.req_id not in where and r.finish_time is None:
                    attr.join(r, logs[k])
                    seated[k].append(r)
                    where[r.req_id] = k
        elif kind == "steps":
            k, advances = args
            ends = []
            for advance in advances:
                clock += advance
                ends.append(clock)
            if len(ends) == 1:
                logs[k].append(ends[0])
            else:
                logs[k].extend(ends)
            for end in ends:
                ref.mark(seated[k], "decode_hbm", end)
        elif kind == "leave":
            index, how, advance = args
            if index < len(requests) and requests[index].req_id in where:
                r = requests[index]
                if how == "requeue":
                    # A fault requeues between step ends.
                    clock += advance
                seated[where.pop(r.req_id)].remove(r)
                attr.leave(r)
                if how == "completion":
                    r.finish(clock)
        elif kind == "read":
            for r in requests:
                assert attr.components_of(r) == ref.components_of(r, until=r.finish_time)
        else:
            report_matches()

    report_matches()
    for r in requests:
        if r.finish_time is None:
            assert attr.components_of(r) == ref.components_of(r)


def test_fold_after_the_finish_raises():
    """Engines unseat a request before finishing it: a seated request
    found finished with steps pending is a bug, not a clip."""
    attr = LatencyAttributor()
    r = Request(arrival_time=0.0, prompt_tokens=4, max_new_tokens=1)
    log = attr.step_log()
    attr.join(r, log)
    log.append(1.0)
    r.finish(1.0)
    with pytest.raises(ValueError, match=f"request {r.req_id} finished"):
        attr.components_of(r)


def test_step_log_keeps_only_unfolded_steps():
    """A request joins every 10 steps and the oldest of 9 leaves, so
    each sits 90 steps without folding: the log never holds more than
    twice that, however long the run."""
    attr = LatencyAttributor()
    log = attr.step_log()
    batch, now, longest = [], 0.0, 0
    for step in range(5000):
        if step % 10 == 0:
            r = Request(arrival_time=now, prompt_tokens=4, max_new_tokens=100)
            r.record_token(now)
            attr.join(r, log)
            batch.append(r)
            if len(batch) > 8:
                attr.leave(batch.pop(0))
        now += 0.01
        log.append(now)
        longest = max(longest, len(log))
    assert longest <= 2 * 90


class SeatClock(VLLMEngine):
    """Notes when each request was last seated and the end of the last
    decode step (a window's quiet steps are accounted at its start, and
    nothing else runs before they end)."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.seated_at = {}
        self.last_step = 0.0

    def _seat(self, request, seat):
        self.seated_at[request.req_id] = self.env.now
        super()._seat(request, seat)

    def _quiet_steps(self, batch, started, ends):
        super()._quiet_steps(batch, started, ends)
        self.last_step = ends[-2]

    def _decode_bookkeeping(self):
        self.last_step = self.env.now
        super()._decode_bookkeeping()


def _attributed_run(rig, trace, wakes=None):
    """A telemetered vLLM run of ``trace``; with ``wakes``, a reader
    checks every running request's attribution at those times."""
    server = Server(Environment(), n_gpus=1)
    env = server.env
    hub = Telemetry(env)
    hub.attach_server(server)
    engine = SeatClock(server.gpus[0], server, MISTRAL_7B, **rig)
    engine.start()
    requests = [Request(a, p, m) for a, p, m in trace]
    for i, request in enumerate(requests):
        request.req_id = i  # both runs report the same ids
    submit_all(env, engine, requests)

    def reader():
        for wake in sorted(wakes):
            yield env.timeout(wake - env.now)
            for r in engine.running:
                reached = max(engine.seated_at[r.req_id], engine.last_step)
                total = sum(hub.attribution.components_of(r).values())
                assert abs(total - (reached - r.arrival_time)) <= 1e-9

    if wakes is not None:
        env.process(reader())
    env.run(until=HORIZON)
    return json.dumps(hub.attribution_report(), sort_keys=True)


@settings(max_examples=EXAMPLES, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_engine_reads_see_every_decode_step(data):
    rig = draw_rig(data)
    trace = data.draw(st.lists(trace_requests, min_size=2, max_size=10))
    wakes = data.draw(st.lists(st.floats(0.0, 30.0, allow_nan=False), max_size=20))
    assert _attributed_run(rig, trace, wakes) == _attributed_run(rig, trace)


def test_finish_stamped_before_a_summed_mark_raises():
    attr = LatencyAttributor()
    r = Request(arrival_time=0.0, prompt_tokens=4, max_new_tokens=1)
    attr.mark([r], "prefill_compute", 2.0)
    r.record_token(1.0)  # stamped before the segment already summed
    with pytest.raises(ValueError, match=f"request {r.req_id} finished"):
        attr.breakdown(r)
    with pytest.raises(ValueError):
        attr.report()


def _attribution_bytes() -> int:
    snapshot = tracemalloc.take_snapshot().filter_traces(
        [tracemalloc.Filter(True, attribution.__file__)]
    )
    return sum(stat.size for stat in snapshot.statistics("filename"))


def test_memory_is_fixed_per_request_after_first_token():
    """Decode marks after the first token allocate nothing that stays."""
    attr = LatencyAttributor()
    batch = [
        Request(arrival_time=0.0, prompt_tokens=4, max_new_tokens=10_000)
        for _ in range(32)
    ]
    attr.mark(batch, "queueing", 1.0)
    attr.mark(batch, "prefill_compute", 2.0)
    for r in batch:
        r.record_token(2.0)
    now = 2.0

    def decode(steps):
        nonlocal now
        for _ in range(steps):
            now += 0.01
            attr.mark(batch, "decode_hbm", now)

    tracemalloc.start()
    try:
        decode(100)
        after_100 = _attribution_bytes()
        decode(900)
        after_1000 = _attribution_bytes()
    finally:
        tracemalloc.stop()
    assert after_1000 <= after_100
