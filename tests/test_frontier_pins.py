"""Pins for the frontier control plane: the NHPP trace generator, the
router ledger's running digest, and per-server SLO objectives.

The frontier cell's outputs are pure functions of their inputs, so the
digests below were recorded once and must never move when the trace
generator, the ledger or the SLO tracker is rewritten for speed.
"""

import hashlib

import pytest

import repro.experiments.frontier as frontier
from repro.experiments.frontier import WORKLOADS, _workload, frontier_cell
from repro.routing import RequestLedger
from repro.workloads.arrivals import nhpp_stream

#: ``(workload, seed) -> (requests, digest)`` for a 300 s trace at
#: 20 req/s with a cap of twice the workload's peak: about 18k master
#: arrivals, several thinning chunks.
NHPP_DIGESTS = {
    ("steady", 0): (6045, "727f059a8c3b6060300f67130fac08a081bafc0705a2de1fcbff1043d8efe6f1"),
    ("steady", 1): (6077, "32637789577ea15140e8e4fe938986b4fd97ffaac5759012e4ddef12ad8d4bd4"),
    ("diurnal", 0): (6073, "5aff3a0ab3ccedbf941eae10c21bee5d752a06486db158457ef48f4df1d8cfc8"),
    ("diurnal", 1): (5973, "ac6049324ea9648803c08a70302fe64f8854dcc647a42dfe3688a2a4bf5594b3"),
    ("flash", 0): (8510, "55867c1f895e0d935fef7ec1a586b00e5d32cced10ca47252aaeb6120315ed63"),
    ("flash", 1): (8350, "0b8c82fa36d9d217c2c17830919acbfcca5ea6b5f72c76c36ead621f2d67b932"),
    ("regions", 0): (5997, "54f34baba363974db298d0192c4302619cb977ebed6e7123cdc229dbbd97815d"),
    ("regions", 1): (6047, "79715077b90333bc5d59827fc751b8a41bfe9288f642be81d036503d514fc6fc"),
}


def _trace_digest(workload: str, seed: int) -> tuple[int, str]:
    duration, rate = 300.0, 20.0
    shape, tenants = _workload(workload, duration)
    peak, _ = WORKLOADS[workload]
    trace = list(nhpp_stream(
        rate, duration, seed=seed, rate_cap=rate * peak * 2.0,
        shape=shape, tenants=tenants,
    ))
    digest = hashlib.sha256()
    for tenant, r in trace:
        fields = (r.arrival_time, r.prompt_tokens, r.max_new_tokens, r.user, r.req_id)
        assert [type(v) for v in fields] == [float, int, int, int, int], fields
        digest.update(
            f"{tenant}|{r.arrival_time!r}|{r.prompt_tokens}|{r.max_new_tokens}"
            f"|{r.user}|{r.req_id}\n".encode("utf-8")
        )
    return len(trace), digest.hexdigest()


@pytest.mark.parametrize("workload, seed", sorted(NHPP_DIGESTS))
def test_nhpp_trace_is_pinned(workload, seed):
    assert _trace_digest(workload, seed) == NHPP_DIGESTS[(workload, seed)]


def test_slo_aware_cell_ledger_is_pinned():
    """300 s of slo-aware routing: long enough for the SLO tracker to
    compact its outcome lists many times over."""
    cell = frontier_cell(policy="slo-aware", rate=64, duration=300, seed=0)
    assert cell["routed"] == 12808
    assert cell["ledger_digest"] == (
        "1f0f33cf5cc2ca43e65dc410e3e03f5e85c8b29f966124c91debdc885877b3e4"
    )
    assert cell["ledger_ok"]


class _Req:
    def __init__(self, req_id):
        self.req_id = req_id


def test_ledger_digest_covers_every_line_read_at_any_time():
    ledger = RequestLedger()
    seen = []
    ledger.listeners.append(lambda *event: seen.append(event))
    expected = []
    reference = hashlib.sha256()

    def check():
        assert seen == expected
        assert ledger.digest == reference.hexdigest()

    # Thousands of events, many hashing batches, with the digest read
    # at irregular points in between.
    for i in range(1500):
        tenant = f"t{i % 3}"
        request = _Req(i)
        ledger.record_offered(tenant, request)
        events = [("offered", tenant, str(i))]
        if i % 5 == 0:
            ledger.record_shed(tenant, request, "queue-full")
            events.append(("shed", tenant, f"{i}:queue-full"))
        else:
            ledger.record_routed(tenant, request, "server0")
            ledger.record_completed(tenant, request, "server0")
            events.append(("routed", tenant, f"{i}->server0"))
            events.append(("completed", tenant, f"{i}@server0"))
        for event in events:
            expected.append(event)
            reference.update(("|".join(event) + "\n").encode("utf-8"))
        if i % 97 in (0, 1):
            check()
    check()
    check()  # reading the digest twice changes nothing
    assert ledger.check() == []


def test_slo_objectives_judge_only_their_own_server(monkeypatch):
    """From 11 servers up, ``server1`` is a prefix of ``server10``: each
    ``ttft:serverK`` objective must still judge serverK alone."""
    trackers = []

    class Recording(frontier.SLOTracker):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            trackers.append(self)

    monkeypatch.setattr(frontier, "SLOTracker", Recording)
    cell = frontier_cell(
        policy="slo-aware", rate=64, duration=15, n_servers=12, seed=0
    )
    (tracker,) = trackers
    report = tracker.report()["objectives"]
    completed = cell["per_server_completed"]
    assert len(completed) == 12 and all(completed)
    for k, done in enumerate(completed):
        books = report[f"ttft:server{k}"]
        assert books["good"] + books["bad"] == done, k
    assert sum(completed) == cell["completed"]
