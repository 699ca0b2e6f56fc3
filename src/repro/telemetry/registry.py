"""A Prometheus-style labeled metrics registry.

Three metric kinds — :class:`Counter` (monotone), :class:`Gauge`
(settable) and :class:`Histogram` (cumulative buckets) — are
grouped into *families* carrying a fixed label schema, and families
live in a :class:`Registry` that exports the whole set as Prometheus
text exposition format (:meth:`Registry.to_prometheus_text`) or as a
JSON-friendly dict (:meth:`Registry.to_dict`).  Counters and gauges
can instead read a live callback at collection time, so the hot path
pays nothing for them.

The module is deliberately dependency-free: the simulation's telemetry
hub (:mod:`repro.telemetry.hub`) instantiates one registry per run, but
nothing here knows about engines, GPUs or the simulation clock.

Example
-------
>>> registry = Registry()
>>> tokens = registry.counter("tokens_total", "Tokens generated.", ["engine"])
>>> tokens.labels(engine="vllm").inc(3)
>>> print(registry.to_prometheus_text().splitlines()[2])
tokens_total{engine="vllm"} 3.0
"""

from __future__ import annotations

import math
import re
from bisect import bisect_left
from typing import Callable, Iterable, Optional, Sequence

_METRIC_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_NAME_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")

#: Default histogram bucket upper bounds (seconds-oriented, like the
#: Prometheus client defaults but extended for minute-scale RCTs).
DEFAULT_BUCKETS = (
    0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5,
    1.0, 2.5, 5.0, 10.0, 30.0, 60.0, 120.0, 300.0,
)


def _escape_label_value(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def sample_key(name: str, labels: Iterable[tuple[str, str]]) -> str:
    """Canonical series key: the Prometheus sample notation.

    ``aqua_engine_tokens_generated_total{engine="flexgen-OPT-30B"}`` —
    the rendering the text exposition format uses for a sample's name
    and labels (values escaped), so scraped series line up 1:1 with
    exported samples.
    """
    labels = tuple(labels)
    if not labels:
        return name
    rendered = ",".join(f'{k}="{_escape_label_value(str(v))}"' for k, v in labels)
    return f"{name}{{{rendered}}}"


def _escape_help(text: str) -> str:
    # Per the exposition format, HELP text escapes backslash and
    # newline only (quotes stay literal).
    return text.replace("\\", "\\\\").replace("\n", "\\n")


_UNESCAPE_RE = re.compile(r"\\(.)")
_UNESCAPE_MAP = {"n": "\n", '"': '"', "\\": "\\"}


def _unescape_label_value(value: str) -> str:
    # Single left-to-right pass: sequential str.replace would corrupt a
    # literal backslash followed by 'n' (escaped "\\n") into a newline.
    return _UNESCAPE_RE.sub(
        lambda m: _UNESCAPE_MAP.get(m.group(1), m.group(1)), value
    )


def _format_value(value: float) -> str:
    if value == float("inf"):
        return "+Inf"
    if value == float("-inf"):
        return "-Inf"
    if isinstance(value, float) and math.isnan(value):
        return "NaN"
    return repr(float(value))


class Counter:
    """A monotonically increasing value, pushed with :meth:`inc` or
    pulled from a live count with :meth:`set_function`."""

    kind = "counter"
    suffixes = ("",)

    def __init__(self) -> None:
        self._value = 0.0
        self._callback: Optional[Callable[[], float]] = None

    def inc(self, amount: float = 1.0) -> None:
        if self._callback is not None:
            raise ValueError("cannot inc a counter that reads a function")
        if amount < 0:
            raise ValueError(f"counters only go up; got {amount}")
        self._value += amount

    def set_function(self, callback: Callable[[], float]) -> None:
        """Read the counter from ``callback`` at every collection.

        ``callback`` must be monotone.  Until it first returns non-zero
        the counter has no sample, just as a pushed child exists only
        from its first :meth:`inc`: an engine's token counter appears at
        its first token without the engine calling telemetry per token.
        """
        self._callback = callback

    @property
    def value(self) -> float:
        if self._callback is not None:
            return float(self._callback())
        return self._value

    def scalar_values(self) -> tuple:
        """Values of the samples a scrape keeps, in :attr:`suffixes`
        order; empty while the counter has no sample."""
        value = self.value
        if value or self._callback is None:
            return (value,)
        return ()

    def samples(self, name: str, labels: tuple) -> Iterable[tuple]:
        for value in self.scalar_values():
            yield (name, labels, value)


class Gauge:
    """A value that can go up and down, or track a live callback."""

    kind = "gauge"
    suffixes = ("",)

    def __init__(self) -> None:
        self._value = 0.0
        self._callback: Optional[Callable[[], float]] = None

    def set(self, value: float) -> None:
        self._callback = None
        self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        self._value += amount

    def dec(self, amount: float = 1.0) -> None:
        self._value -= amount

    def set_function(self, callback: Callable[[], float]) -> None:
        """Read the gauge from ``callback`` at every collection.

        This is how pool occupancy and link queue depth are exported
        without the hot path paying any bookkeeping cost: the callback
        reads the live object only when someone scrapes the registry.
        """
        self._callback = callback

    @property
    def value(self) -> float:
        if self._callback is not None:
            return float(self._callback())
        return self._value

    def scalar_values(self) -> tuple:
        return (self.value,)

    def samples(self, name: str, labels: tuple) -> Iterable[tuple]:
        yield (name, labels, self.value)


class Histogram:
    """Cumulative-bucket histogram (Prometheus semantics)."""

    kind = "histogram"
    #: The samples besides the buckets: what a scrape keeps.
    suffixes = ("_sum", "_count")

    def __init__(self, buckets: Sequence[float] = DEFAULT_BUCKETS) -> None:
        uppers = [float(b) for b in buckets if b != float("inf")]
        if not uppers:
            raise ValueError("histogram needs at least one finite bucket")
        if sorted(uppers) != uppers or len(set(uppers)) != len(uppers):
            raise ValueError(f"buckets must be strictly increasing, got {buckets}")
        self.uppers = uppers
        self._counts = [0] * (len(uppers) + 1)  # final slot = +Inf
        self.sum = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        self.sum += value
        self.count += 1
        self._counts[bisect_left(self.uppers, value)] += 1

    def bucket_counts(self) -> list[tuple[float, int]]:
        """Cumulative ``(upper_bound, count)`` pairs, ending at +Inf."""
        out = []
        running = 0
        for upper, count in zip(self.uppers, self._counts):
            running += count
            out.append((upper, running))
        out.append((float("inf"), running + self._counts[-1]))
        return out

    def scalar_values(self) -> tuple:
        return (self.sum, self.count)

    def samples(self, name: str, labels: tuple) -> Iterable[tuple]:
        for upper, count in self.bucket_counts():
            yield (f"{name}_bucket", labels + (("le", _format_value(upper)),), count)
        yield (f"{name}_sum", labels, self.sum)
        yield (f"{name}_count", labels, self.count)


class Family:
    """All children of one metric name, keyed by label values.

    Families with an empty label schema proxy the metric interface
    directly (``family.inc()`` etc.) so unlabeled metrics read naturally.
    """

    def __init__(
        self,
        metric_cls: type,
        name: str,
        help: str,
        labelnames: Sequence[str] = (),
        **metric_kwargs,
    ) -> None:
        if not _METRIC_NAME_RE.match(name):
            raise ValueError(f"invalid metric name {name!r}")
        for label in labelnames:
            if not _LABEL_NAME_RE.match(label):
                raise ValueError(f"invalid label name {label!r}")
        self.metric_cls = metric_cls
        self.name = name
        self.help = help
        self.labelnames = tuple(labelnames)
        self.kind = metric_cls.kind
        self._metric_kwargs = metric_kwargs
        self._children: dict[tuple, object] = {}
        self._keyed: list[tuple[tuple, object, tuple[str, ...]]] = []

    def labels(self, **labelvalues) -> object:
        if set(labelvalues) != set(self.labelnames):
            raise ValueError(
                f"{self.name} expects labels {self.labelnames}, "
                f"got {tuple(sorted(labelvalues))}"
            )
        key = tuple(str(labelvalues[n]) for n in self.labelnames)
        child = self._children.get(key)
        if child is None:
            child = self.metric_cls(**self._metric_kwargs)
            self._children[key] = child
        return child

    # -- unlabeled convenience -----------------------------------------
    def _default(self):
        if self.labelnames:
            raise ValueError(f"{self.name} is labeled; call .labels(...) first")
        return self.labels()

    def inc(self, amount: float = 1.0) -> None:
        self._default().inc(amount)

    def dec(self, amount: float = 1.0) -> None:
        self._default().dec(amount)

    def set(self, value: float) -> None:
        self._default().set(value)

    def set_function(self, callback: Callable[[], float]) -> None:
        self._default().set_function(callback)

    def observe(self, value: float) -> None:
        self._default().observe(value)

    @property
    def value(self) -> float:
        return self._default().value

    # -- collection ----------------------------------------------------
    def children(self) -> list[tuple[tuple, object]]:
        """``(((label, value), ...), child)`` pairs in exposition order."""
        return [
            (tuple(zip(self.labelnames, key)), self._children[key])
            for key in sorted(self._children)
        ]

    def keyed_children(self) -> list[tuple[tuple, object, tuple[str, ...]]]:
        """``(label values, child, sample keys)`` per child, in exposition
        order.  The keys are the :func:`sample_key` of each sample a
        scrape keeps (the child's ``suffixes``), rendered when the
        family gains a child rather than at every read."""
        if len(self._keyed) != len(self._children):
            names = [self.name + suffix for suffix in self.metric_cls.suffixes]
            self._keyed = [
                (key, child, tuple(
                    sample_key(name, tuple(zip(self.labelnames, key))) for name in names
                ))
                for key, child in sorted(self._children.items())
            ]
        return self._keyed

    def samples(self) -> Iterable[tuple]:
        """``(sample_name, ((label, value), ...), value)`` triples."""
        for labels, child in self.children():
            yield from child.samples(self.name, labels)

    @property
    def child_count(self) -> int:
        return len(self._children)

    def __repr__(self) -> str:
        return (
            f"<Family {self.kind} {self.name} labels={self.labelnames} "
            f"children={len(self._children)}>"
        )


class LabelIndex(dict):
    """A family's children along one label, keyed by its raw value.

    Hot-path hooks index this instead of calling :meth:`Family.labels`.
    Every other label of the family is fixed by ``fixed`` (for example
    ``LabelIndex(offload_bytes, gpu="gpu0")`` is indexed by ``op``).  A
    missing value is bound through ``labels()`` — validation, key
    building and all — the first time it is indexed, which is when a
    ``labels()`` call would have created the child; every later lookup
    is a plain dict hit.
    """

    __slots__ = ("family", "fixed", "label")

    def __init__(self, family: Family, **fixed) -> None:
        super().__init__()
        free = [name for name in family.labelnames if name not in fixed]
        if len(free) != 1 or len(fixed) + 1 != len(family.labelnames):
            raise ValueError(
                f"{family.name} has labels {family.labelnames}, not one "
                f"besides {tuple(fixed)}"
            )
        self.family = family
        self.fixed = fixed
        self.label = free[0]

    def __missing__(self, value):
        child = self[value] = self.family.labels(**self.fixed, **{self.label: value})
        return child


class Registry:
    """A named collection of metric families with exporters."""

    def __init__(self) -> None:
        self._families: dict[str, Family] = {}

    # ------------------------------------------------------------------
    def _register(self, metric_cls: type, name: str, help: str, labelnames, **kw) -> Family:
        existing = self._families.get(name)
        if existing is not None:
            if existing.metric_cls is not metric_cls or existing.labelnames != tuple(
                labelnames
            ):
                raise ValueError(
                    f"metric {name!r} already registered as "
                    f"{existing.kind} with labels {existing.labelnames}"
                )
            return existing
        family = Family(metric_cls, name, help, labelnames, **kw)
        self._families[name] = family
        return family

    def counter(self, name: str, help: str = "", labelnames: Sequence[str] = ()) -> Family:
        return self._register(Counter, name, help, labelnames)

    def gauge(self, name: str, help: str = "", labelnames: Sequence[str] = ()) -> Family:
        return self._register(Gauge, name, help, labelnames)

    def histogram(
        self,
        name: str,
        help: str = "",
        labelnames: Sequence[str] = (),
        buckets: Sequence[float] = DEFAULT_BUCKETS,
    ) -> Family:
        return self._register(Histogram, name, help, labelnames, buckets=buckets)

    def get(self, name: str) -> Optional[Family]:
        return self._families.get(name)

    def collect(self) -> Iterable[Family]:
        return iter(self._families.values())

    def __len__(self) -> int:
        return len(self._families)

    # ------------------------------------------------------------------
    # Exporters
    # ------------------------------------------------------------------
    def to_prometheus_text(self) -> str:
        """The registry in Prometheus text exposition format."""
        lines = []
        for family in self._families.values():
            lines.append(f"# HELP {family.name} {_escape_help(family.help)}")
            lines.append(f"# TYPE {family.name} {family.kind}")
            for sample_name, labels, value in family.samples():
                lines.append(f"{sample_key(sample_name, labels)} {_format_value(value)}")
        return "\n".join(lines) + ("\n" if lines else "")

    def to_dict(self) -> dict:
        """JSON-friendly export: one entry per family with all samples."""
        out = {}
        for family in self._families.values():
            out[family.name] = {
                "type": family.kind,
                "help": family.help,
                "samples": [
                    {"name": name, "labels": dict(labels), "value": value}
                    for name, labels, value in family.samples()
                ],
            }
        return out


# ---------------------------------------------------------------------------
# Validation helper (used by tests and the CI telemetry smoke job)
# ---------------------------------------------------------------------------
_SAMPLE_RE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>.*)\})?"
    r"\s+(?P<value>\S+)$"
)
_LABEL_PAIR_RE = re.compile(r'([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\.)*)"')


def _parse_value(raw: str) -> float:
    if raw == "+Inf":
        return float("inf")
    if raw == "-Inf":
        return float("-inf")
    return float(raw)  # float("NaN") handles NaN


def parse_prometheus_text(text: str) -> dict[str, list[tuple[dict, float]]]:
    """Parse text exposition format back into samples.

    Returns ``{sample_name: [(labels_dict, value), ...]}``; raises
    :class:`ValueError` on any malformed line.  Used to validate that
    :meth:`Registry.to_prometheus_text` output actually parses.
    """
    out: dict[str, list[tuple[dict, float]]] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip() or line.startswith("#"):
            continue
        match = _SAMPLE_RE.match(line)
        if match is None:
            raise ValueError(f"line {lineno}: malformed sample {line!r}")
        labels: dict[str, str] = {}
        raw = match.group("labels")
        if raw:
            consumed = 0
            for pair in _LABEL_PAIR_RE.finditer(raw):
                labels[pair.group(1)] = _unescape_label_value(pair.group(2))
                consumed = pair.end()
            leftover = raw[consumed:].strip().strip(",")
            if leftover:
                raise ValueError(f"line {lineno}: malformed labels {raw!r}")
        try:
            value = _parse_value(match.group("value"))
        except ValueError:
            raise ValueError(
                f"line {lineno}: malformed value {match.group('value')!r}"
            ) from None
        out.setdefault(match.group("name"), []).append((labels, value))
    return out
