"""Self-contained HTML dashboards for telemetered runs.

:func:`render_dashboard` turns the pickle-safe observability export of
a run — scraped time series, SLO attainment and alerts, flight-recorder
bundles, and the latency-attribution report — into **one HTML file with
zero external dependencies**: inline SVG charts, inline CSS, no
JavaScript, no fonts or network fetches of any kind (CI asserts the
output contains no ``http`` substring at all).  The file can be opened
from a laptop, an artifact store, or a mail attachment and look the
same everywhere.

Charts follow the house data-viz rules: categorical hues are assigned
in fixed slot order (never cycled), lines are 2px on hairline grids,
text wears ink tokens (never a series color), every multi-series chart
carries a legend, every chart carries a collapsible data table for
accessibility, and dark mode is a selected palette (via
``prefers-color-scheme``), not an automatic inversion.  Native SVG
``<title>`` elements provide hover tooltips without scripting.

Inputs are plain dicts (:func:`dashboard_data` builds one from a live
:class:`~repro.telemetry.hub.Telemetry`), so pooled experiment workers
can ship them across process boundaries and the dashboard can be
rendered after the fact.
"""

from __future__ import annotations

import html
import math
import re
from typing import TYPE_CHECKING, Optional, Sequence

from repro.telemetry.timeseries import interval_mean_series, rate_series

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.telemetry.hub import Telemetry

# Chart geometry (viewBox units; the SVG scales responsively).
_W, _H = 720, 220
_ML, _MR, _MT, _MB = 62, 14, 14, 30

#: Severity -> status-color CSS class for alert/fault markers.
_SEVERITY_CLASS = {"page": "critical", "ticket": "warning", "fault": "serious"}

_GIB = 2**30

_LABEL_RE = re.compile(r'\{[a-zA-Z_][a-zA-Z0-9_]*="((?:[^"\\]|\\.)*)"')


def _first_label(series_key: str) -> str:
    """First label value of a rendered sample key (the engine/device)."""
    match = _LABEL_RE.search(series_key)
    return match.group(1) if match else series_key


def _fmt(value: float) -> str:
    """Compact tick/table number formatting."""
    if value != value:  # NaN
        return "–"
    magnitude = abs(value)
    if magnitude >= 1e6:
        return f"{value / 1e6:.3g}M"
    if magnitude >= 1e4:
        return f"{value / 1e3:.3g}k"
    if magnitude >= 100 or value == int(value):
        return f"{value:.0f}"
    if magnitude >= 1:
        return f"{value:.2f}"
    return f"{value:.3g}"


def _nice_ticks(lo: float, hi: float, n: int = 4) -> list[float]:
    """Round tick values covering [lo, hi]."""
    if hi <= lo:
        hi = lo + 1.0
    span = hi - lo
    step = 10 ** math.floor(math.log10(span / n))
    for mult in (1, 2, 2.5, 5, 10):
        if span / (step * mult) <= n:
            step *= mult
            break
    first = math.ceil(lo / step) * step
    ticks = []
    t = first
    while t <= hi + step * 1e-9:
        ticks.append(round(t, 10))
        t += step
    return ticks


class _Chart:
    """One SVG line chart with optional bands and event markers."""

    def __init__(
        self,
        title: str,
        series: Sequence[dict],
        x_range: tuple[float, float],
        y_label: str,
        y_range: Optional[tuple[float, float]] = None,
        markers: Sequence[dict] = (),
        bands: Sequence[dict] = (),
    ) -> None:
        self.title = title
        self.series = [s for s in series if s["times"]]
        self.x_range = x_range
        self.y_label = y_label
        self.markers = markers
        self.bands = bands
        if y_range is None:
            values = [v for s in self.series for v in s["values"]]
            hi = max(values) if values else 1.0
            lo = min(0.0, min(values)) if values else 0.0
            if hi <= lo:
                hi = lo + 1.0
            y_range = (lo, hi * 1.05)
        self.y_range = y_range

    # -- coordinate transforms ----------------------------------------
    def _x(self, t: float) -> float:
        lo, hi = self.x_range
        span = (hi - lo) or 1.0
        return _ML + (t - lo) / span * (_W - _ML - _MR)

    def _y(self, v: float) -> float:
        lo, hi = self.y_range
        span = (hi - lo) or 1.0
        return _H - _MB - (v - lo) / span * (_H - _MT - _MB)

    # -- rendering -----------------------------------------------------
    def svg(self) -> str:
        out = [f'<svg viewBox="0 0 {_W} {_H}" role="img" '
               f'aria-label="{html.escape(self.title)}">']
        out.append(f"<title>{html.escape(self.title)}</title>")
        for band in self.bands:
            y0 = self._y(min(band["hi"], self.y_range[1]))
            y1 = self._y(max(band["lo"], self.y_range[0]))
            out.append(
                f'<rect class="band-{band["cls"]}" x="{_ML}" y="{y0:.1f}" '
                f'width="{_W - _ML - _MR}" height="{max(y1 - y0, 0):.1f}"/>'
            )
        # Hairline grid + y tick labels (muted ink, tabular figures).
        for tick in _nice_ticks(*self.y_range):
            y = self._y(tick)
            out.append(
                f'<line class="grid" x1="{_ML}" y1="{y:.1f}" '
                f'x2="{_W - _MR}" y2="{y:.1f}"/>'
            )
            out.append(
                f'<text class="tick" x="{_ML - 6}" y="{y + 3:.1f}" '
                f'text-anchor="end">{_fmt(tick)}</text>'
            )
        for tick in _nice_ticks(*self.x_range, n=6):
            x = self._x(tick)
            out.append(
                f'<text class="tick" x="{x:.1f}" y="{_H - _MB + 16}" '
                f'text-anchor="middle">{_fmt(tick)}s</text>'
            )
        out.append(
            f'<line class="axis" x1="{_ML}" y1="{_H - _MB}" '
            f'x2="{_W - _MR}" y2="{_H - _MB}"/>'
        )
        out.append(
            f'<text class="ylabel" x="{_ML}" y="{_MT - 2}" '
            f'text-anchor="start">{html.escape(self.y_label)}</text>'
        )
        # Event markers behind the data lines.
        for marker in self.markers:
            x = self._x(marker["t"])
            if not _ML <= x <= _W - _MR:
                continue
            cls = _SEVERITY_CLASS.get(marker.get("severity", "fault"), "serious")
            tip = html.escape(f'{marker["label"]} @ t={marker["t"]:.1f}s')
            out.append(
                f'<g><title>{tip}</title>'
                f'<line class="marker-{cls}" x1="{x:.1f}" y1="{_MT}" '
                f'x2="{x:.1f}" y2="{_H - _MB}"/>'
                f'<circle class="markerdot-{cls}" cx="{x:.1f}" '
                f'cy="{_MT + 4}" r="4"/></g>'
            )
        for i, series in enumerate(self.series, start=1):
            points = " ".join(
                f"{self._x(t):.1f},{self._y(v):.1f}"
                for t, v in zip(series["times"], series["values"])
            )
            tip = html.escape(series["name"])
            out.append(
                f'<g><title>{tip}</title>'
                f'<polyline class="line s{min(i, 4)}" points="{points}"/></g>'
            )
        out.append("</svg>")
        return "".join(out)

    def legend(self) -> str:
        if len(self.series) < 2:
            return ""
        items = "".join(
            f'<span class="key"><span class="swatch s{min(i, 4)}"></span>'
            f"{html.escape(s['name'])}</span>"
            for i, s in enumerate(self.series, start=1)
        )
        return f'<div class="legend">{items}</div>'

    def table(self, max_rows: int = 24) -> str:
        """Collapsible data table (the accessibility channel)."""
        if not self.series:
            return ""
        times = sorted({round(t, 6) for s in self.series for t in s["times"]})
        stride = max(1, len(times) // max_rows)
        times = times[::stride]
        lookup = [dict(zip(s["times"], s["values"])) for s in self.series]
        head = "".join(
            f"<th>{html.escape(s['name'])}</th>" for s in self.series
        )
        rows = []
        for t in times:
            cells = "".join(
                f"<td>{_fmt(lk[t]) if t in lk else '–'}</td>" for lk in lookup
            )
            rows.append(f"<tr><td>{_fmt(t)}s</td>{cells}</tr>")
        return (
            "<details><summary>Data table</summary><table>"
            f"<tr><th>t</th>{head}</tr>{''.join(rows)}</table></details>"
        )

    def html(self) -> str:
        if not self.series:
            return (
                f'<section class="chart"><h3>{html.escape(self.title)}</h3>'
                '<p class="empty">no samples</p></section>'
            )
        return (
            f'<section class="chart"><h3>{html.escape(self.title)}</h3>'
            f"{self.legend()}{self.svg()}{self.table()}</section>"
        )


# ---------------------------------------------------------------------------
# Data assembly
# ---------------------------------------------------------------------------
def dashboard_data(
    telemetry: "Telemetry",
    title: str = "Aqua observability",
    duration: Optional[float] = None,
) -> dict:
    """Build the pickle/JSON-safe input :func:`render_dashboard` takes."""
    data = {
        "title": title,
        "duration": duration if duration is not None else telemetry.env.now,
        "attribution": telemetry.attribution_report(),
    }
    data.update(telemetry.observability_report())
    return data


def _series_group(scrape: dict, prefix: str) -> list[dict]:
    """Scraped series under one family, labeled by first label value."""
    out = []
    for key, series in sorted(scrape.get("series", {}).items()):
        if key.startswith(prefix):
            out.append(
                {
                    "name": _first_label(key),
                    "times": series["times"],
                    "values": series["values"],
                }
            )
    return out


def _derived(group: list[dict], derive) -> list[dict]:
    out = []
    for series in group:
        times, values = derive(series)
        if times:
            out.append({"name": series["name"], "times": times, "values": values})
    return out


def _markers(data: dict) -> list[dict]:
    """Alert + fault-injection markers from the SLO report and ring."""
    markers = []
    for alert in (data.get("slo") or {}).get("alerts", ()):
        markers.append(
            {
                "t": alert["t"],
                "label": f"alert {alert['slo']} ({alert['severity']})",
                "severity": alert["severity"],
            }
        )
    for entry in (data.get("recorder") or {}).get("ring", ()):
        if entry.get("kind") == "fault" and entry.get("phase") == "apply":
            markers.append(
                {
                    "t": entry["t"],
                    "label": f"fault {entry['fault']}",
                    "severity": "fault",
                }
            )
    markers.sort(key=lambda m: m["t"])
    return markers


# ---------------------------------------------------------------------------
# Sections
# ---------------------------------------------------------------------------
def _stat_tiles(data: dict) -> str:
    scrape = data.get("scrape") or {}
    slo = data.get("slo") or {}
    recorder = data.get("recorder") or {}
    totals: dict[str, float] = {}
    for key, series in scrape.get("series", {}).items():
        for family in (
            "aqua_engine_requests_completed_total",
            "aqua_engine_tokens_generated_total",
        ):
            if key.startswith(family) and series["values"]:
                totals[family] = totals.get(family, 0.0) + series["values"][-1]
    tiles = [
        ("Requests completed", _fmt(totals.get(
            "aqua_engine_requests_completed_total", 0.0))),
        ("Tokens generated", _fmt(totals.get(
            "aqua_engine_tokens_generated_total", 0.0))),
        ("Scrapes", _fmt(scrape.get("scrapes", 0))),
        ("SLO alerts", _fmt(len(slo.get("alerts", ())))),
        ("Post-mortems", _fmt(len(recorder.get("bundles", ())))),
    ]
    body = "".join(
        f'<div class="tile"><div class="tile-value">{value}</div>'
        f'<div class="tile-label">{label}</div></div>'
        for label, value in tiles
    )
    return f'<div class="tiles">{body}</div>'


def _slo_section(data: dict, x_range, markers) -> str:
    slo = data.get("slo")
    if not slo:
        return ""
    parts = ["<h2>SLO attainment</h2>"]
    for name, entry in sorted(slo.get("objectives", {}).items()):
        objective = entry["objective"]
        target = objective["target"]
        series = entry.get("attainment_series", {"times": [], "values": []})
        chart = _Chart(
            f"{name} — {objective['description'] or objective['metric']} "
            f"(target {target:.0%})",
            [{"name": "attainment", **series}],
            x_range,
            "attainment",
            y_range=(0.0, 1.05),
            markers=[m for m in markers if name in m["label"] or
                     m["severity"] == "fault"],
            bands=[
                {"lo": target, "hi": 1.05, "cls": "good"},
                {"lo": 0.0, "hi": target, "cls": "bad"},
            ],
        )
        parts.append(chart.html())
    alerts = slo.get("alerts", ())
    if alerts:
        rows = []
        for a in alerts:
            attainment = a.get("attainment")
            attainment_text = "–" if attainment is None else f"{attainment:.0%}"
            rows.append(
                f"<tr><td>{a['t']:.1f}s</td><td>{html.escape(a['slo'])}</td>"
                f"<td>{html.escape(a['severity'])}</td>"
                f"<td>{a['burn_long']:.1f}× / {a['burn_short']:.1f}×</td>"
                f"<td>{attainment_text}</td></tr>"
            )
        rows = "".join(rows)
        parts.append(
            "<h3>Burn-rate alerts</h3><table class=\"flat\">"
            "<tr><th>t</th><th>objective</th><th>severity</th>"
            f"<th>burn (long/short)</th><th>attainment</th></tr>{rows}</table>"
        )
    return "".join(parts)


def _attribution_section(data: dict) -> str:
    report = data.get("attribution")
    if not report or not report.get("count"):
        return ""
    aggregates = report.get("aggregates", {})
    entries = [
        (component, stats.get("mean", float("nan")))
        for component, stats in aggregates.items()
        if stats.get("mean", 0) == stats.get("mean", 0)  # drop NaN
    ]
    if not entries:
        return ""
    peak = max(v for _, v in entries) or 1.0
    rows = []
    for component, mean in entries:
        width = max(mean / peak * 100.0, 0.5)
        rows.append(
            f'<div class="bar-row"><span class="bar-label">'
            f"{html.escape(component)}</span>"
            f'<span class="bar-track"><span class="bar" '
            f'style="width:{width:.1f}%"></span></span>'
            f'<span class="bar-value">{mean:.3f}s</span></div>'
        )
    return (
        "<h2>Latency attribution</h2>"
        f'<p class="note">Mean seconds per component over '
        f"{report['count']} finished request(s); components telescope to "
        "the end-to-end latency exactly.</p>"
        f'<div class="bars">{"".join(rows)}</div>'
    )


def _postmortem_section(data: dict) -> str:
    recorder = data.get("recorder")
    if not recorder or not recorder.get("bundles"):
        return ""
    rows = "".join(
        f"<tr><td>{b['seq']}</td><td>{b['t']:.1f}s</td>"
        f"<td>{html.escape(b['reason'])}</td>"
        f"<td>{len(b.get('ring', ()))}</td>"
        f"<td>{html.escape(b.get('path', '—'))}</td></tr>"
        for b in recorder["bundles"]
    )
    return (
        "<h2>Flight-recorder post-mortems</h2><table class=\"flat\">"
        "<tr><th>#</th><th>t</th><th>trigger</th><th>ring entries</th>"
        f"<th>file</th></tr>{rows}</table>"
    )


_CSS = """
:root { color-scheme: light dark; }
body {
  margin: 0; padding: 24px;
  font-family: system-ui, -apple-system, "Segoe UI", sans-serif;
  background: var(--page); color: var(--text-primary);
  --page: #f9f9f7; --surface-1: #fcfcfb;
  --text-primary: #0b0b0b; --text-secondary: #52514e; --muted: #898781;
  --grid: #e1e0d9; --axis: #c3c2b7;
  --series-1: #2a78d6; --series-2: #eb6834;
  --series-3: #1baf7a; --series-4: #eda100;
  --good: #0ca30c; --warning: #fab219;
  --serious: #ec835a; --critical: #d03b3b;
  --ring: rgba(11,11,11,0.10);
}
@media (prefers-color-scheme: dark) {
  body {
    --page: #0d0d0d; --surface-1: #1a1a19;
    --text-primary: #ffffff; --text-secondary: #c3c2b7; --muted: #898781;
    --grid: #2c2c2a; --axis: #383835;
    --series-1: #3987e5; --series-2: #d95926;
    --series-3: #199e70; --series-4: #c98500;
    --ring: rgba(255,255,255,0.10);
  }
}
main { max-width: 860px; margin: 0 auto; }
h1 { font-size: 1.3rem; margin: 0 0 4px; }
h2 { font-size: 1.05rem; margin: 28px 0 8px; }
h3 { font-size: 0.9rem; margin: 14px 0 4px; color: var(--text-secondary); }
.sub, .note, .empty { color: var(--text-secondary); font-size: 0.8rem; }
.tiles { display: flex; flex-wrap: wrap; gap: 10px; margin: 16px 0; }
.tile {
  background: var(--surface-1); border: 1px solid var(--ring);
  border-radius: 8px; padding: 10px 16px; min-width: 108px;
}
.tile-value { font-size: 1.4rem; }
.tile-label { color: var(--text-secondary); font-size: 0.72rem; }
section.chart {
  background: var(--surface-1); border: 1px solid var(--ring);
  border-radius: 8px; padding: 12px 14px; margin: 10px 0;
}
svg { width: 100%; height: auto; display: block; }
svg text { font-family: inherit; }
.grid { stroke: var(--grid); stroke-width: 1; }
.axis { stroke: var(--axis); stroke-width: 1; }
.tick { fill: var(--muted); font-size: 10px; font-variant-numeric: tabular-nums; }
.ylabel { fill: var(--text-secondary); font-size: 10px; }
.line { fill: none; stroke-width: 2; stroke-linejoin: round; }
.s1 { stroke: var(--series-1); } .s2 { stroke: var(--series-2); }
.s3 { stroke: var(--series-3); } .s4 { stroke: var(--series-4); }
.swatch.s1 { background: var(--series-1); }
.swatch.s2 { background: var(--series-2); }
.swatch.s3 { background: var(--series-3); }
.swatch.s4 { background: var(--series-4); }
.band-good { fill: var(--good); opacity: 0.06; }
.band-bad { fill: var(--critical); opacity: 0.07; }
.marker-critical { stroke: var(--critical); }
.marker-warning { stroke: var(--warning); }
.marker-serious { stroke: var(--serious); }
[class^="marker-"] { stroke-width: 1.5; stroke-dasharray: 3 3; }
.markerdot-critical { fill: var(--critical); }
.markerdot-warning { fill: var(--warning); }
.markerdot-serious { fill: var(--serious); }
.legend { display: flex; flex-wrap: wrap; gap: 14px; margin: 4px 0 8px; }
.key {
  display: inline-flex; align-items: center; gap: 6px;
  color: var(--text-secondary); font-size: 0.75rem;
}
.swatch {
  display: inline-block; width: 10px; height: 10px; border-radius: 3px;
}
details { margin-top: 8px; }
summary { color: var(--muted); font-size: 0.75rem; cursor: pointer; }
table {
  border-collapse: collapse; font-size: 0.72rem; margin-top: 6px;
  font-variant-numeric: tabular-nums;
}
table.flat {
  background: var(--surface-1); border: 1px solid var(--ring);
  border-radius: 8px;
}
th, td {
  text-align: right; padding: 3px 10px;
  border-bottom: 1px solid var(--grid); color: var(--text-secondary);
}
th { color: var(--muted); font-weight: 600; }
th:first-child, td:first-child { text-align: left; }
.bars { margin: 8px 0; }
.bar-row { display: flex; align-items: center; gap: 10px; margin: 4px 0; }
.bar-label {
  width: 130px; text-align: right;
  color: var(--text-secondary); font-size: 0.75rem;
}
.bar-track { flex: 1; background: var(--surface-1); border-radius: 4px; }
.bar {
  display: block; height: 14px; border-radius: 4px 3px 3px 4px;
  background: var(--series-1); min-width: 2px;
}
.bar-value {
  width: 70px; font-size: 0.75rem; color: var(--text-secondary);
  font-variant-numeric: tabular-nums;
}
footer { margin-top: 28px; color: var(--muted); font-size: 0.72rem; }
"""


# ---------------------------------------------------------------------------
# Entry points
# ---------------------------------------------------------------------------
def render_dashboard(data: dict) -> str:
    """Render the observability export of one run as standalone HTML."""
    scrape = data.get("scrape") or {}
    duration = data.get("duration")
    if duration is None:
        duration = max(
            (s["times"][-1] for s in scrape.get("series", {}).values()
             if s["times"]),
            default=1.0,
        )
    x_range = (0.0, float(duration))
    markers = _markers(data)

    throughput = _Chart(
        "Token throughput",
        _derived(
            _series_group(scrape, "aqua_engine_tokens_generated_total"),
            lambda s: rate_series(s["times"], s["values"]),
        ),
        x_range,
        "tokens/s",
        markers=markers,
    )

    def _latency_chart(title: str, family: str, unit: str = "seconds") -> _Chart:
        sums = _series_group(scrape, f"{family}_sum")
        counts = {
            s["name"]: s for s in _series_group(scrape, f"{family}_count")
        }
        series = []
        for s in sums:
            count = counts.get(s["name"])
            if count is None:
                continue
            times, values = interval_mean_series(
                s["times"], s["values"], count["values"]
            )
            if times:
                series.append({"name": s["name"], "times": times, "values": values})
        return _Chart(title, series, x_range, unit, markers=markers)

    ttft = _latency_chart(
        "TTFT (interval mean)", "aqua_engine_ttft_seconds")
    tpot = _latency_chart(
        "TPOT (interval mean)", "aqua_engine_tpot_seconds")
    pool = _Chart(
        "Pool usage",
        _derived(
            _series_group(scrape, "aqua_pool_used_bytes"),
            lambda s: (s["times"], [v / _GIB for v in s["values"]]),
        ),
        x_range,
        "GiB",
        markers=markers,
    )

    title = html.escape(data.get("title", "Aqua observability"))
    interval = scrape.get("interval")
    sub = (
        f"simulated duration {duration:.0f}s · scrape interval "
        f"{interval}s · {len(scrape.get('series', {}))} series"
        if interval is not None
        else f"simulated duration {duration:.0f}s"
    )
    parts = [
        "<!DOCTYPE html>",
        '<html lang="en"><head><meta charset="utf-8">',
        f"<title>{title}</title>",
        f"<style>{_CSS}</style></head><body><main>",
        f"<h1>{title}</h1>",
        f'<p class="sub">{sub}</p>',
        _stat_tiles(data),
        "<h2>Throughput and latency</h2>",
        throughput.html(),
        ttft.html(),
        tpot.html(),
        "<h2>Memory</h2>",
        pool.html(),
        _slo_section(data, x_range, markers),
        _attribution_section(data),
        _postmortem_section(data),
        "<footer>Self-contained: inline SVG and CSS only — no scripts, "
        "no network dependencies.</footer>",
        "</main></body></html>",
    ]
    return "\n".join(p for p in parts if p)
