"""In-memory span recorder for the dismantle pipeline.

`Tracer.install()` rebinds the package's public entry points to timing
wrappers that call the originals.  The pipeline looks these names up as
module globals at call time (for example `build_graph` calls
`classify_sdof` through `dismantle.dspace`), so rebinding the global records
every call without editing the package.  Spans stay in memory until the run
ends.
"""

from __future__ import annotations

import importlib
import time
from dataclasses import dataclass


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    op: object
    attrs: dict | None = None

    @property
    def duration(self) -> float:
        return self.end - self.start


def _run_skill_attrs(args, result) -> dict:
    log = result[1]
    ticks: dict[str, int] = {}
    for row in log.rows:
        if row.controller != "n":  # tool-actuation rows are not control ticks
            ticks[row.controller] = ticks.get(row.controller, 0) + 1
    return {"ticks": ticks, "units": log.total_units()}


# (module, attribute, span name, summarize(args, result)).  Only names the
# workloads reach are listed; the per-tick kernels are left out because a
# span per tick would cost more than the tick itself.
ENTRY_POINTS = (
    ("dismantle.control", "run_skill", "control.run_skill", _run_skill_attrs),
    ("dismantle.dspace", "sample_sphere", "dspace.sample_sphere"),
    ("dismantle.dspace", "disassembly_space", "dspace.disassembly_space"),
    ("dismantle.dspace", "build_graph", "dspace.build_graph"),
    ("dismantle.dspace", "admissible_indices", "dspace.admissible_indices"),
    ("dismantle.dspace", "intersect_spaces", "dspace.intersect_spaces"),
    ("dismantle.dspace", "classify_sdof", "dspace.classify_sdof"),
)


class Tracer:
    """Records nested spans; `op` tags every span with the current op id."""

    def __init__(self):
        self.spans: list[Span] = []
        self.op: object = None
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def begin(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent, self.op))
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def end(self, idx: int, attrs: dict | None) -> None:
        span = self.spans[idx]
        span.end = time.perf_counter()
        span.attrs = attrs
        self._stack.pop()

    def call(self, name: str, fn, *args, **kwargs):
        """Run fn inside a span of the benchmark's own."""
        idx = self.begin(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.end(idx, None)

    def wrap(self, name: str, fn, summarize=None):
        tracer = self

        def traced(*args, **kwargs):
            idx = tracer.begin(name)
            attrs = None
            try:
                result = fn(*args, **kwargs)
                if summarize is not None:
                    attrs = summarize(args, result)
                return result
            except Exception as exc:
                attrs = {"error": type(exc).__name__}
                raise
            finally:
                tracer.end(idx, attrs)

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        for module_name, attr, name, *hooks in ENTRY_POINTS:
            owner = importlib.import_module(module_name)
            original = getattr(owner, attr)
            setattr(owner, attr, self.wrap(name, original, *hooks))
            self._patched.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._patched:
            owner, leaf, original = self._patched.pop()
            setattr(owner, leaf, original)


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part covered by its direct children."""
    covered = [0.0] * len(spans)
    for span in spans:
        if span.parent is not None:
            covered[span.parent] += span.duration
    return [s.duration - c for s, c in zip(spans, covered)]
