"""Unified telemetry: causal tracing, labeled metrics, latency attribution.

See ``docs/observability.md`` for the full model.  The package has
three pillars, all reachable from one :class:`Telemetry` hub:

* :mod:`repro.telemetry.registry` — Prometheus-style ``Counter`` /
  ``Gauge`` / ``Histogram`` families in a central :class:`Registry`,
  exported as text exposition format or JSON;
* :mod:`repro.telemetry.attribution` — per-request latency
  decomposition into queueing / prefill / decode / offload-fetch /
  link-contention components with exact (telescoping) sums;
* request-scoped flow events recorded through the hub's
  :class:`~repro.trace.Tracer` (the only one a server records into),
  linking one request's spans across engine, AQUA and DMA tracks.

On top of those sits the time-resolved layer (opt-in via
:meth:`Telemetry.attach_observability`):

* :mod:`repro.telemetry.timeseries` — a simulated-clock
  :class:`MetricScraper` snapshotting every family into ring-buffered
  ``metric(t)`` series;
* :mod:`repro.telemetry.slo` — declarative per-tenant objectives with
  rolling attainment and multi-window burn-rate alerts;
* :mod:`repro.telemetry.recorder` — a :class:`FlightRecorder` ring of
  recent history that freezes into post-mortem JSON bundles on faults
  and alerts;
* :mod:`repro.telemetry.dashboard` — a self-contained HTML dashboard
  (inline SVG, no external JS or network dependencies).

A hub belongs to a server and sees everything on it.  Enable it with
``build_consumer_rig(..., telemetry=True)``, for every rig of a run
with :func:`observing`, or run ``aqua-repro observe``.  Disabled
telemetry costs one ``None`` check per hook and changes nothing else.
"""

from repro.telemetry.attribution import COMPONENTS, LatencyAttributor
from repro.telemetry.dashboard import render_dashboard
from repro.telemetry.hub import Telemetry
from repro.telemetry.observing import Observation, observing
from repro.telemetry.recorder import FlightRecorder
from repro.telemetry.registry import (
    Counter,
    Gauge,
    Histogram,
    Registry,
    parse_prometheus_text,
)
from repro.telemetry.slo import (
    BurnRateWindow,
    SLObjective,
    SLOPolicy,
    SLOTracker,
    default_slo_policy,
)
from repro.telemetry.timeseries import (
    MetricScraper,
    RingSeries,
    interval_mean_series,
    rate_series,
)

__all__ = [
    "COMPONENTS",
    "BurnRateWindow",
    "Counter",
    "FlightRecorder",
    "Gauge",
    "Histogram",
    "LatencyAttributor",
    "MetricScraper",
    "Observation",
    "Registry",
    "RingSeries",
    "SLObjective",
    "SLOPolicy",
    "SLOTracker",
    "Telemetry",
    "default_slo_policy",
    "interval_mean_series",
    "observing",
    "parse_prometheus_text",
    "rate_series",
    "render_dashboard",
]
