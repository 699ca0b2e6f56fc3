"""Differential test: ``LatencyAttributor``'s running sums against a
segment-list reference.

The reference below keeps every ``(start, end, component)`` segment and
walks them at report time, clipped at the first token and at the
finish: the straightforward reading of the telescoping-marks model in
``docs/observability.md``.  Hypothesis drives both with the same
time-ordered histories (batches, every component, contention
carve-outs, zero-width and backwards marks, tokens stamped at mark
times, marks after the finish, ``mark_steps`` windows), and their
reports must serialise to the same bytes.
"""

import json
import tracemalloc

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.telemetry.attribution as attribution
from repro.serving import Request
from repro.telemetry import COMPONENTS, LatencyAttributor


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
    st.tuples(st.just("steps"), st.lists(st.integers(0, 5), max_size=6),
              st.sampled_from(COMPONENTS), st.lists(times, max_size=5)),
    st.tuples(st.just("contention"), st.integers(0, 5), times),
    st.tuples(st.just("token"), st.lists(st.integers(0, 5), max_size=6)),
)


# Hypothesis's default budget in tier-1; CI's ``ci`` profile draws 300.
@settings(deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    arrivals=st.lists(times, min_size=1, max_size=6),
    max_new=st.lists(st.integers(1, 4), min_size=6, max_size=6),
    history=st.lists(op, max_size=40),
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
    clock = 0.0

    def pick(indices):
        return [requests[i] for i in dict.fromkeys(indices) if i < len(requests)]

    for kind, *args in history:
        if kind == "mark":
            indices, component, advance, back = args
            clock += advance
            # ``back`` > 0 is a mark behind the clock: a no-op for any
            # request already marked past it.
            now = max(0.0, clock - back)
            attr.mark(pick(indices), component, now)
            ref.mark(pick(indices), component, now)
        elif kind == "steps":
            indices, component, advances = args
            ends = []
            for advance in advances:
                clock += advance
                ends.append(clock)
            attr.mark_steps(pick(indices), component, ends)
            for end in ends:
                ref.mark(pick(indices), component, end)
        elif kind == "contention":
            index, seconds = args
            if index < len(requests):
                attr.note_contention(requests[index].req_id, seconds)
                ref.note_contention(requests[index].req_id, seconds)
        else:
            # Tokens are stamped at the clock, the latest mark time, as
            # engines stamp after that step's mark.
            for r in pick(args[0]):
                if r.arrival_time <= clock and r.finish_time is None:
                    r.record_token(clock)

    got = json.dumps(attr.report(), sort_keys=True)
    want = json.dumps(ref.report(requests), sort_keys=True)
    assert got == want
    for r in requests:
        if r.finish_time is None:
            assert attr.components_of(r) == ref.components_of(r)


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
