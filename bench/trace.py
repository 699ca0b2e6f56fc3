"""Layer-boundary tracer for the benchmark's traced run.

The tracer sees the simulator from outside: it installs the stdlib
``sys.setprofile`` hook and changes nothing under ``src/``.

* A span opens when a call enters a function whose file lies in a
  different ``repro/<layer>`` from the current span's layer.  Generator
  resumes arrive as calls, so a resumed engine process opens a span.
* The span closes when the frame that opened it returns or yields.
* Frames outside the layers (the stdlib, builtins, dataclass-generated
  methods, the bench itself) open nothing, so their time is charged to
  the enclosing span.  The O(batch^2) dataclass ``Request.__eq__`` that
  ``serving`` triggers is therefore ``serving`` time.
* A span's self time is its duration minus the time its child spans
  cover.  The root span (layer ``bench``) covers the whole traced
  interval, so the self times of all layers partition it exactly.

Spans are kept in memory and written once, at the end, as Chrome-trace
``X`` events.  Only the first ``max_spans`` spans (in opening order) are
kept for the file; a kept span's parent opened earlier, so it is kept
too.  Per-layer self time and call counts cover every span.
"""

from __future__ import annotations

import json
import os
import sys
import time
from typing import Callable, Optional

#: Top-level packages of ``repro`` that the trace reports as layers.
LAYERS = (
    "sim",
    "hardware",
    "memory",
    "aqua",
    "serving",
    "models",
    "routing",
    "workloads",
    "telemetry",
    "audit",
    "faults",
    "experiments",
)

#: Single-file modules directly under ``repro`` that belong to a layer.
MODULE_LAYERS = {"trace.py": "telemetry"}

#: Layer of the root span: the bench's own code and everything it calls
#: outside the layers.
ROOT_LAYER = "bench"

#: Spans kept for the Chrome-trace file.
MAX_SPANS = 50_000


def layer_classifier(package_dir: str) -> Callable[[str], Optional[str]]:
    """Map a code object's file name to its layer, or ``None``.

    ``package_dir`` is the ``repro`` package directory.  Files under
    ``<package_dir>/<layer>/`` belong to ``<layer>``; files directly in
    it belong to the layer ``MODULE_LAYERS`` gives them, if any.
    """
    prefix = os.path.realpath(package_dir) + os.sep

    def classify(filename: str) -> Optional[str]:
        path = os.path.realpath(filename)
        if not path.startswith(prefix):
            return None
        head, sep, _ = path[len(prefix):].partition(os.sep)
        if sep:
            return head if head in LAYERS else None
        return MODULE_LAYERS.get(head)

    return classify


class Tracer:
    """Record layer-boundary spans of the code run between start and stop.

    ``clock`` is the time source; tests pass a fake one.
    """

    def __init__(
        self,
        classify: Callable[[str], Optional[str]],
        clock: Callable[[], float] = time.perf_counter,
        max_spans: int = MAX_SPANS,
    ) -> None:
        self._classify = classify
        self._clock = clock
        self.max_spans = max_spans
        #: Self time per layer, including the root ``bench`` layer.
        self.self_s: dict[str, float] = {}
        #: Spans opened per layer: entries into it from another layer.
        self.calls: dict[str, int] = {}
        #: Kept spans: ``(id, layer, code, start, end, parent_id)``.
        self.spans: list[tuple] = []
        self.span_count = 0
        self.started_at: Optional[float] = None
        self.stopped_at: Optional[float] = None
        self._stack: list[list] = []

    # ------------------------------------------------------------------
    def start(self) -> "Tracer":
        if self.started_at is not None:
            raise RuntimeError("a Tracer records one interval; make a new one")
        clock = self._clock
        classify = self._classify
        layer_of: dict = {}
        by_file: dict = {}
        calls = self.calls
        stack = self._stack
        close = self._close
        missing = object()

        # A stack entry is [frame, layer, start, child_time, id, parent_id, code].
        self.started_at = clock()
        top = [None, ROOT_LAYER, self.started_at, 0.0, 0, -1, None]
        stack.append(top)
        self.span_count = 1
        calls[ROOT_LAYER] = 1

        def hook(frame, event, arg):
            nonlocal top
            if event == "call":
                code = frame.f_code
                layer = layer_of.get(code, missing)
                if layer is missing:
                    filename = code.co_filename
                    layer = by_file.get(filename, missing)
                    if layer is missing:
                        layer = by_file[filename] = classify(filename)
                    layer_of[code] = layer
                if layer is None or layer == top[1]:
                    return
                span_id = self.span_count
                self.span_count = span_id + 1
                calls[layer] = calls.get(layer, 0) + 1
                top = [frame, layer, clock(), 0.0, span_id, top[4], code]
                stack.append(top)
            elif event == "return" and frame is top[0]:
                close(clock())
                top = stack[-1]

        sys.setprofile(hook)
        return self

    def _close(self, end: float) -> None:
        """Close the innermost open span at time ``end``."""
        span = self._stack.pop()
        duration = end - span[2]
        layer = span[1]
        self.self_s[layer] = self.self_s.get(layer, 0.0) + duration - span[3]
        if span[4] < self.max_spans:
            self.spans.append((span[4], layer, span[6], span[2], end, span[5]))
        if self._stack:
            self._stack[-1][3] += duration

    def stop(self) -> "Tracer":
        sys.setprofile(None)
        end = self._clock()
        while self._stack:  # normally only the root span is still open
            self._close(end)
        self.stopped_at = end
        return self

    # ------------------------------------------------------------------
    @property
    def wall_s(self) -> float:
        """Length of the traced interval (the root span's duration)."""
        return self.stopped_at - self.started_at

    def chrome_trace(self, metadata: Optional[dict] = None) -> dict:
        """The kept spans as a Chrome-trace document (``X`` events, µs)."""
        t0 = self.started_at
        events = [
            {"name": "process_name", "ph": "M", "pid": 1, "tid": 1,
             "args": {"name": "repro (traced by bench)"}},
            {"name": "thread_name", "ph": "M", "pid": 1, "tid": 1,
             "args": {"name": "main"}},
        ]
        for span_id, layer, code, start, end, parent in sorted(self.spans):
            qualname = "root" if code is None else getattr(code, "co_qualname", code.co_name)
            events.append(
                {
                    "name": f"{layer}:{qualname}",
                    "cat": layer,
                    "ph": "X",
                    "pid": 1,
                    "tid": 1,
                    "ts": (start - t0) * 1e6,
                    "dur": (end - start) * 1e6,
                    "args": {"id": span_id, "parent": parent},
                }
            )
        other = {
            "spans_total": self.span_count,
            "spans_written": len(self.spans),
            "wall_s": self.wall_s,
            "self_s": dict(sorted(self.self_s.items())),
            "calls": dict(sorted(self.calls.items())),
        }
        other.update(metadata or {})
        return {"traceEvents": events, "displayTimeUnit": "ms", "otherData": other}

    def write(self, path: str, metadata: Optional[dict] = None) -> None:
        with open(path, "w") as fh:
            json.dump(self.chrome_trace(metadata), fh)
