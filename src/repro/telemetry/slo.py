"""Declarative SLOs: rolling attainment and multi-window burn-rate alerts.

An :class:`SLObjective` states a per-tenant promise ("95% of producer
requests see first token within 1 s"; "consumer goodput stays above
2 tok/s").  An :class:`SLOTracker` turns the stream of completions and
scrape ticks into per-objective *outcomes* (good / bad), rolling
attainment over the alerting windows, and burn-rate alerts in the
multi-window style of the SRE workbook: an alert fires when the error
budget burns at ``factor``× the sustainable rate over **both** a long
window (evidence the problem is real) and a short window (evidence it
is still happening).  Alerts fire as simulated events — instants on the
``"slo"`` trace track, counter increments, and flight-recorder
triggers — at the scrape tick that detects them.

Tenancy rides the existing ``engine`` label: an objective's ``tenant``
is matched against engine names as a whole name part (see
:meth:`SLObjective.matches`), so one policy can cover a
consumer/producer pair or a whole fleet of tenant-named engines.

Each objective keeps its outcomes as a sorted time list plus, per
outcome, the lifetime good count before it, so a trailing window is
answered with one ``bisect`` and a subtraction rather than a walk over
every kept outcome.

Everything here is observation-only: the tracker never schedules
events or touches simulation state — it piggybacks on the scraper's
ticks, so audit digests are identical with SLO tracking on or off.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Optional, Sequence

from repro.telemetry.registry import LabelIndex
from repro.telemetry.timeseries import RingSeries

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.serving.request import Request
    from repro.telemetry.hub import Telemetry

#: Request-latency metrics an objective can target, mapped to the
#: request attribute (TPOT is derived; goodput is window-based).
LATENCY_METRICS = ("ttft", "tpot", "e2e")

#: All supported objective metrics.
METRICS = LATENCY_METRICS + ("goodput",)


def _splits_word(name: str, i: int) -> bool:
    """Whether position ``i`` of ``name`` lies between two letters/digits."""
    return 0 < i < len(name) and name[i - 1].isalnum() and name[i].isalnum()


@dataclass(frozen=True)
class SLObjective:
    """One declarative objective for one tenant.

    Parameters
    ----------
    name:
        Stable identifier (label value on the SLO metric families).
    tenant:
        Matched against engine names (see :meth:`matches`): the
        objective applies to every engine whose name contains
        ``tenant`` as a whole part, so ``"producer"`` covers
        ``"pair0-producer-LLAMA2-13B"`` and ``"server1"`` covers
        ``"server1"`` but not ``"server10"``.
    metric:
        ``"ttft"`` / ``"tpot"`` / ``"e2e"`` — per-request deadlines in
        seconds — or ``"goodput"`` — a tokens/s floor evaluated per
        scrape interval.
    threshold:
        The deadline (seconds) or floor (tokens/s).
    target:
        Attainment objective in (0, 1): the fraction of outcomes that
        must be good.  The error budget is ``1 - target``.
    """

    name: str
    tenant: str
    metric: str
    threshold: float
    target: float = 0.95
    description: str = ""

    def __post_init__(self) -> None:
        if self.metric not in METRICS:
            raise ValueError(
                f"unknown SLO metric {self.metric!r}; expected one of {METRICS}"
            )
        if not 0.0 < self.target < 1.0:
            raise ValueError(f"target must be in (0, 1), got {self.target}")
        if self.threshold <= 0:
            raise ValueError(f"threshold must be positive, got {self.threshold}")

    def matches(self, engine: str) -> bool:
        """Whether this objective judges the engine named ``engine``.

        The rule: ``tenant`` occurs in ``engine`` at a place where
        neither end of the occurrence falls between two letters or
        digits of the name.  Separators such as ``-`` or the ends of
        the name bound a match; a longer run of letters and digits
        (``server10`` around ``server1``) does not.
        """
        tenant = self.tenant
        start = engine.find(tenant)
        while start >= 0:
            end = start + len(tenant)
            if not (_splits_word(engine, start) or _splits_word(engine, end)):
                return True
            start = engine.find(tenant, start + 1)
        return False

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "tenant": self.tenant,
            "metric": self.metric,
            "threshold": self.threshold,
            "target": self.target,
            "description": self.description,
        }


@dataclass(frozen=True)
class BurnRateWindow:
    """One multi-window burn-rate alerting rule.

    The alert condition is ``burn(long_s) >= factor`` **and**
    ``burn(short_s) >= factor``, where ``burn(w)`` is the error rate
    over window ``w`` divided by the error budget (``1 - target``).
    A total outage burns at ``1 / (1 - target)``; sustainable burn is
    exactly 1.0.
    """

    long_s: float
    short_s: float
    factor: float
    severity: str = "page"

    def __post_init__(self) -> None:
        if self.short_s <= 0 or self.long_s <= self.short_s:
            raise ValueError(
                f"windows must satisfy 0 < short ({self.short_s}) < long "
                f"({self.long_s})"
            )
        if self.factor < 1.0:
            raise ValueError(f"factor must be >= 1 (sustainable burn), got {self.factor}")


#: Default alerting rules, scaled to simulated-minutes horizons: a fast
#: page on a hard burn and a slower ticket on a sustained one.
DEFAULT_BURN_WINDOWS = (
    BurnRateWindow(long_s=30.0, short_s=5.0, factor=6.0, severity="page"),
    BurnRateWindow(long_s=120.0, short_s=15.0, factor=2.0, severity="ticket"),
)


@dataclass
class SLOPolicy:
    """A named set of objectives sharing burn-rate alerting rules."""

    objectives: Sequence[SLObjective]
    windows: Sequence[BurnRateWindow] = DEFAULT_BURN_WINDOWS
    name: str = "slo-policy"

    def __post_init__(self) -> None:
        names = [o.name for o in self.objectives]
        if len(names) != len(set(names)):
            raise ValueError(f"duplicate objective names in policy: {names}")

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "objectives": [o.to_dict() for o in self.objectives],
            "windows": [
                {
                    "long_s": w.long_s,
                    "short_s": w.short_s,
                    "factor": w.factor,
                    "severity": w.severity,
                }
                for w in self.windows
            ],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "SLOPolicy":
        """Rebuild a policy from :meth:`to_dict` output.

        The dict form is how policies cross process boundaries into
        pooled experiment workers (see
        :func:`repro.experiments.resilience.resilience_experiment`).
        """
        return cls(
            name=data.get("name", "slo-policy"),
            objectives=[SLObjective(**o) for o in data["objectives"]],
            windows=[BurnRateWindow(**w) for w in data["windows"]],
        )


def default_slo_policy(
    consumer: str = "flexgen",
    producer: str = "producer",
    goodput_floor: float = 1.0,
    producer_ttft: float = 2.0,
) -> SLOPolicy:
    """The two-tenant policy the consumer/producer rigs ship with.

    The memory *consumer* promises a goodput floor (long-prompt decode
    keeps streaming); the memory *producer* promises interactive TTFT
    and a per-token (TPOT) deadline.  Thresholds are deliberately loose
    for healthy runs and deliberately broken by the documented fault
    schedule's NVLink degradation and GPU failure.
    """
    return SLOPolicy(
        name="two-tenant-default",
        objectives=[
            SLObjective(
                name=f"{consumer}-goodput",
                tenant=consumer,
                metric="goodput",
                threshold=goodput_floor,
                target=0.9,
                description=f"{consumer} decode goodput >= {goodput_floor} tok/s",
            ),
            SLObjective(
                name=f"{producer}-ttft",
                tenant=producer,
                metric="ttft",
                threshold=producer_ttft,
                target=0.9,
                description=f"{producer} TTFT <= {producer_ttft}s",
            ),
            SLObjective(
                name=f"{producer}-tpot",
                tenant=producer,
                metric="tpot",
                threshold=0.5,
                target=0.9,
                description=f"{producer} time-per-output-token <= 0.5s",
            ),
        ],
    )


def _by_engine(family) -> dict[str, float]:
    """``{engine: value}`` over the samples of an engine family (whose
    one label is ``engine``), in exposition order."""
    return {
        engine: value
        for (engine,), child, _ in family.keyed_children()
        for value in child.scalar_values()
    }


@dataclass
class _ObjectiveState:
    """Rolling outcomes and alert state for one objective."""

    objective: SLObjective
    #: Outcome times, non-decreasing.  Entries before ``head`` are
    #: pruned (older than the longest alerting window); the lists are
    #: compacted once the pruned head is more than half of them.
    times: list = field(default_factory=list)
    #: ``good_before[i]``: lifetime good count before outcome ``i``,
    #: so the good outcomes from ``i`` on number ``good_total -
    #: good_before[i]``.
    good_before: list = field(default_factory=list)
    head: int = 0
    attainment: Optional[RingSeries] = None
    #: The objective's outcome counter children, by verdict (``None``
    #: without a telemetry hub).
    outcomes: Optional[LabelIndex] = None
    #: severity -> currently-firing flag (alerts fire on rising edges).
    active: dict = field(default_factory=dict)
    good_total: int = 0
    bad_total: int = 0


class SLOTracker:
    """Evaluates an :class:`SLOPolicy` against a live telemetered run.

    Wired by :meth:`Telemetry.attach_observability
    <repro.telemetry.hub.Telemetry.attach_observability>`: request
    completions arrive through :meth:`observe_request`, goodput samples
    and burn-rate evaluation ride the scraper's tick via
    :meth:`on_scrape`.

    Attributes
    ----------
    alerts:
        Chronological list of fired alert dicts (``t``, ``slo``,
        ``severity``, ``burn_long``, ``burn_short``, ``attainment``).
    """

    def __init__(
        self,
        env,
        policy: SLOPolicy,
        telemetry: Optional["Telemetry"] = None,
        capacity: int = 4096,
    ) -> None:
        self.env = env
        self.policy = policy
        self.telemetry = telemetry
        self.alerts: list[dict] = []
        self.on_alert: list[Callable[[dict], None]] = []
        self._horizon = max(w.long_s for w in policy.windows)
        #: Engine label -> latency-objective states that judge it,
        #: resolved on the label's first completion.
        self._latency_states: dict[str, list[_ObjectiveState]] = {}
        self._states = {
            o.name: _ObjectiveState(
                objective=o,
                attainment=RingSeries(f"slo:{o.name}", capacity),
            )
            for o in policy.objectives
        }
        #: Per-engine token-counter snapshot from the previous scrape
        #: tick (goodput objectives measure the delta).
        self._last_tokens: dict[str, float] = {}
        self._last_tick: Optional[float] = None
        #: The attainment gauge's children, by objective name (``None``
        #: without a telemetry hub).
        self._attainment: Optional[LabelIndex] = None
        self._alerts_counter = None
        if telemetry is not None:
            r = telemetry.registry
            self._attainment = LabelIndex(r.gauge(
                "aqua_slo_attainment",
                "Rolling SLO attainment over the longest alert window.",
                ["slo"],
            ))
            outcomes = r.counter(
                "aqua_slo_outcomes_total",
                "SLO outcomes by objective and verdict.",
                ["slo", "verdict"],
            )
            self._alerts_counter = r.counter(
                "aqua_slo_alerts_total",
                "Burn-rate alerts fired, by objective and severity.",
                ["slo", "severity"],
            )
            for name, state in self._states.items():
                state.outcomes = LabelIndex(outcomes, slo=name)

    # ------------------------------------------------------------------
    # Outcome ingestion
    # ------------------------------------------------------------------
    def observe_request(self, engine: str, request: "Request") -> None:
        """Judge one finished request against every matching objective."""
        states = self._latency_states.get(engine)
        if states is None:
            states = self._latency_states[engine] = [
                state
                for state in self._states.values()
                if state.objective.metric in LATENCY_METRICS
                and state.objective.matches(engine)
            ]
        now = self.env.now
        for state in states:
            objective = state.objective
            # TTFT, the frontier's one objective per server, is judged
            # inline; TPOT and E2E go through ``_latency_value``.
            if objective.metric == "ttft":
                value = request.ttft
            else:
                value = self._latency_value(objective.metric, request)
            if value is None:
                continue
            self._record_outcome(state, now, value <= objective.threshold)

    @staticmethod
    def _latency_value(metric: str, request: "Request") -> Optional[float]:
        if metric == "ttft":
            return request.ttft
        if metric == "e2e":
            return request.rct
        # tpot: steady-state decode pace, from the first and last
        # token timestamps only.
        if request.ttft is None or request.rct is None:
            return None
        if request.generated_tokens <= 1:
            return None
        return (request.rct - request.ttft) / (request.generated_tokens - 1)

    def _record_outcome(self, state: _ObjectiveState, now: float, good: bool) -> None:
        times = state.times
        if times and now < times[-1]:
            raise ValueError(
                f"SLO outcome for {state.objective.name!r} at t={now} precedes "
                f"the last one at t={times[-1]}"
            )
        times.append(now)
        state.good_before.append(state.good_total)
        if good:
            state.good_total += 1
        else:
            state.bad_total += 1
        if state.outcomes is not None:
            state.outcomes["good" if good else "bad"].inc()

    # ------------------------------------------------------------------
    # Scrape-tick evaluation
    # ------------------------------------------------------------------
    def on_scrape(self, now: float) -> None:
        """Scraper observer: sample goodput outcomes, evaluate alerts."""
        self._sample_goodput(now)
        self._last_tick = now
        for state in self._states.values():
            self._prune(state, now)
            self._evaluate(state, now)

    def _sample_goodput(self, now: float) -> None:
        tokens_now: dict[str, float] = {}
        in_flight: dict[str, float] = {}
        if self.telemetry is not None:
            tm = self.telemetry
            tokens_now = _by_engine(tm.tokens_generated)
            in_flight = _by_engine(tm.requests_submitted)
            for engine, value in _by_engine(tm.requests_completed).items():
                in_flight[engine] = in_flight.get(engine, 0.0) - value
        last_tick = self._last_tick
        for state in self._states.values():
            objective = state.objective
            if objective.metric != "goodput":
                continue
            if last_tick is None or now <= last_tick:
                continue  # first tick: no interval to judge yet
            # Only judge intervals with live demand: the tenant must
            # have requests in flight and be past its first token.
            # Idle gaps and prompt prefill are not goodput violations
            # (TTFT objectives own prefill latency); a *stalled decode*
            # — in-flight work, tokens flowing before, none now — is.
            demand = any(
                count > 0
                for engine, count in in_flight.items()
                if objective.matches(engine)
            )
            streamed = any(
                value > 0
                for engine, value in tokens_now.items()
                if objective.matches(engine)
            )
            if not (demand and streamed):
                continue
            dt = now - last_tick
            rate = sum(
                (value - self._last_tokens.get(engine, 0.0)) / dt
                for engine, value in tokens_now.items()
                if objective.matches(engine)
            )
            self._record_outcome(state, now, rate >= objective.threshold)
        self._last_tokens = tokens_now

    def _prune(self, state: _ObjectiveState, now: float) -> None:
        times = state.times
        head = bisect_left(times, now - self._horizon, state.head)
        if 2 * head > len(times):
            del times[:head]
            del state.good_before[:head]
            head = 0
        state.head = head

    @staticmethod
    def _window(state: _ObjectiveState, start: float) -> tuple[int, int]:
        """``(total, good)`` over the kept outcomes at or after ``start``."""
        i = bisect_left(state.times, start, state.head)
        total = len(state.times) - i
        if total == 0:
            return 0, 0
        return total, state.good_total - state.good_before[i]

    def _evaluate(self, state: _ObjectiveState, now: float) -> None:
        objective = state.objective
        attainment = self.attainment(objective.name, self._horizon, now)
        state.attainment.append(now, attainment if attainment is not None else 1.0)
        if self._attainment is not None:
            self._attainment[objective.name].set(
                attainment if attainment is not None else 1.0
            )
        budget = 1.0 - objective.target
        for window in self.policy.windows:
            burn_long = self._burn(state, now, window.long_s, budget)
            burn_short = self._burn(state, now, window.short_s, budget)
            firing = (
                burn_long is not None
                and burn_short is not None
                and burn_long >= window.factor
                and burn_short >= window.factor
            )
            was_firing = state.active.get(window.severity, False)
            state.active[window.severity] = firing
            if firing and not was_firing:
                self._fire(state, now, window, burn_long, burn_short, attainment)

    def _burn(
        self, state: _ObjectiveState, now: float, window_s: float, budget: float
    ) -> Optional[float]:
        """Error-budget burn rate over the trailing window, or ``None``
        when the window holds no outcomes (no data is not an outage)."""
        total, good = self._window(state, now - window_s)
        if total == 0:
            return None
        return ((total - good) / total) / budget

    def _fire(
        self,
        state: _ObjectiveState,
        now: float,
        window: BurnRateWindow,
        burn_long: float,
        burn_short: float,
        attainment: Optional[float],
    ) -> None:
        alert = {
            "t": now,
            "slo": state.objective.name,
            "tenant": state.objective.tenant,
            "metric": state.objective.metric,
            "severity": window.severity,
            "factor": window.factor,
            "window_long_s": window.long_s,
            "window_short_s": window.short_s,
            "burn_long": burn_long,
            "burn_short": burn_short,
            "attainment": attainment,
        }
        self.alerts.append(alert)
        if self._alerts_counter is not None:
            self._alerts_counter.labels(
                slo=state.objective.name, severity=window.severity
            ).inc()
        if self.telemetry is not None:
            self.telemetry.tracer.add_instant(
                f"slo-alert:{state.objective.name}",
                "slo",
                time=now,
                severity=window.severity,
                burn_long=burn_long,
                burn_short=burn_short,
            )
        for callback in self.on_alert:
            callback(alert)

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def attainment(
        self, objective_name: str, window_s: float, now: Optional[float] = None
    ) -> Optional[float]:
        """Fraction of good outcomes over the trailing window, or
        ``None`` when the window holds no outcomes."""
        if now is None:
            now = self.env.now
        total, good = self._window(self._states[objective_name], now - window_s)
        if total == 0:
            return None
        return good / total

    def report(self) -> dict:
        """Pickle/JSON-safe summary: per-objective attainment series,
        lifetime outcome totals and every fired alert."""
        objectives = {}
        for name, state in self._states.items():
            total = state.good_total + state.bad_total
            objectives[name] = {
                "objective": state.objective.to_dict(),
                "good": state.good_total,
                "bad": state.bad_total,
                "attainment_overall": (
                    state.good_total / total if total else None
                ),
                "attainment_series": state.attainment.to_dict(),
            }
        return {
            "policy": self.policy.to_dict(),
            "objectives": objectives,
            "alerts": list(self.alerts),
        }
