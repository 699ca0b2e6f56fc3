"""Cost guard and argument checks for the frontier control plane.

A frontier cell's wall time is mostly per-request Python in the router
and its ledger, admission, the SLO tracker and the LLM rooflines.  The
guard counts the lines that code executes over one short ``slo-aware``
cell and bounds them per offered request, so per-request work cannot
creep back in unnoticed.  Lines, unlike wall time, repeat exactly on
any host.
"""

from pathlib import Path

import pytest

import repro.models
import repro.routing
import repro.telemetry
from repro.experiments.frontier import frontier_cell
from repro.hardware import specs
from tests.test_decode_coarsening import traced_lines

#: The control plane whose executed lines the guard counts.
CONTROL_PLANE = tuple(
    str(Path(package.__file__).parent)
    for package in (repro.routing, repro.telemetry, repro.models)
) + (specs.__file__,)

#: Lines per offered request the guarded cell may execute.  Before the
#: ledger booked each record in one call, admission kept its depth
#: limits, the SLO-aware policy kept its leaders and the TTFT objective
#: was judged inline, the cell executed 138.1 lines per offered request;
#: it now executes 126.5.
LINES_PER_OFFERED = 132.0


def test_control_plane_lines_per_offered_request():
    """30 s of ``slo-aware`` routing at 64 req/s with queues of 8:
    1,879 offered requests, 132 of them shed at the diurnal peak."""
    cells = []
    lines = traced_lines(
        lambda: cells.append(
            frontier_cell(
                policy="slo-aware", rate=64.0, duration=30.0, max_queue_depth=8, seed=0
            )
        ),
        CONTROL_PLANE,
    )
    (cell,) = cells
    assert cell["ledger_ok"] and cell["shed_total"] > 0
    assert lines / cell["offered"] < LINES_PER_OFFERED, (lines, cell["offered"])


@pytest.mark.parametrize("drain", [-10.0, -1e-9])
def test_a_negative_drain_is_refused(drain):
    """A drain below zero would stop the run before the trace ends."""
    with pytest.raises(ValueError, match=f"drain must be >= 0, got {drain}"):
        frontier_cell(rate=20.0, duration=30.0, drain=drain)


def test_a_zero_drain_offers_the_whole_trace():
    """No drain still offers every arrival due before ``duration``."""
    full = frontier_cell(rate=20.0, duration=30.0, drain=15.0)
    cut = frontier_cell(rate=20.0, duration=30.0, drain=0.0)
    assert cut["offered"] == full["offered"]
    assert cut["completed"] <= full["completed"]
