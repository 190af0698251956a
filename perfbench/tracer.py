"""Span tracing from outside the library.

Every traced layer function is replaced, at each module binding the session
path calls through, by a wrapper that records a span (name, start, end,
parent, trace id) in memory. A span opened with no parent starts a new trace,
so all spans of one encode or decode session share that session's id.
Installing fails loudly when a listed binding is missing or no longer holds
the original function, so a span never vanishes silently.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field
from time import perf_counter
from typing import Callable, Optional

import numpy as np

# span name -> bindings ("module.attr" under anchorstream), defining binding first
SPANS: dict[str, tuple[str, ...]] = {
    "session.encode_session": ("session.encode_session",),
    "session.decode_session": ("session.decode_session",),
    "session.advance_state": ("session._advance_state",),
    "session.state_checksum": ("session.state_checksum",),
    "hierarchy.build_hierarchy": ("hierarchy.build_hierarchy", "session.build_hierarchy"),
    "hierarchy.sample_anchors": ("hierarchy.sample_anchors",),
    "hierarchy.assign_clusters": ("hierarchy.assign_clusters",),
    "hierarchy.rehierarchize": ("hierarchy.rehierarchize", "session.rehierarchize"),
    "hierarchy.nearest_legacy_anchors": ("hierarchy.nearest_legacy_anchors",),
    "kernels.l1_nearest": ("kernels.l1_nearest", "session.l1_nearest"),
    "kernels.cell_winners": ("kernels.cell_winners",),
    "kernels.sum_by_index": ("kernels.sum_by_index", "fitting.sum_by_index"),
    "motion.apply_deformation": ("motion.apply_deformation", "session.apply_deformation"),
    "motion.inherit_deformation": ("motion.inherit_deformation", "session.inherit_deformation"),
    "fitting.fit_frame": ("fitting.fit_frame", "session.fit_frame"),
    "fitting.loss_and_gradient": ("fitting.loss_and_gradient", "session.loss_and_gradient"),
    "fitting.densify_residuals": ("fitting.densify_residuals", "session.densify_residuals"),
    "codec.encode_frame": ("codec.encode_frame",),
    "codec.decode_frame": ("codec.decode_frame",),
    "codec.quantize_roundtrip": ("codec.quantize_roundtrip",),
}

# spans that call other traced spans, and so also report a total time
PARENT_SPANS = (
    "session.encode_session",
    "session.decode_session",
    "session.advance_state",
    "hierarchy.build_hierarchy",
    "hierarchy.sample_anchors",
    "hierarchy.assign_clusters",
    "hierarchy.rehierarchize",
    "fitting.fit_frame",
    "fitting.loss_and_gradient",
)


def _pairs(points, anchors) -> int:
    return len(points) * len(anchors)


# span name -> (count name, function of the bound arguments and the return value)
COUNTERS: dict[str, tuple[str, Callable]] = {
    "kernels.l1_nearest": ("pairs", lambda a, r: _pairs(a["points"], a["anchors"])),
    "hierarchy.nearest_legacy_anchors": (
        "pairs", lambda a, r: _pairs(a["new_positions"], a["legacy_positions"])),
    "fitting.densify_residuals": ("added", lambda a, r: len(r[0])),
    "motion.inherit_deformation": (
        "rotated", lambda a, r: int(np.count_nonzero((r.rotations != 0).any(axis=1)))),
    "codec.encode_frame": ("bytes", lambda a, r: len(r)),
}


class TracerError(RuntimeError):
    """A listed binding is missing or does not hold the function it should."""


@dataclass(slots=True)
class Span:
    id: int
    trace: int
    parent: Optional[int]
    name: str
    start: float = 0.0
    end: float = 0.0
    count: int = 0


def _resolve(binding: str):
    mod_name, attr = binding.split(".", 1)
    module = importlib.import_module(f"anchorstream.{mod_name}")
    if not hasattr(module, attr):
        raise TracerError(f"binding anchorstream.{binding} is missing")
    return module, attr


class Tracer:
    """Records spans while installed; :meth:`installed` restores every binding."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        counter = COUNTERS.get(name)
        sig = inspect.signature(fn) if counter else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            span_id = len(self.spans)
            span = Span(span_id, parent.trace if parent else span_id,
                        parent.id if parent else None, name)
            self.spans.append(span)
            self._stack.append(span)
            span.start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = perf_counter()
                self._stack.pop()
            if counter:
                span.count = counter[1](sig.bind(*args, **kwargs).arguments, result)
            return result

        return wrapper

    def install(self) -> None:
        if self._saved:
            raise TracerError("tracer is already installed")
        plan = []
        for name, bindings in SPANS.items():
            module, attr = _resolve(bindings[0])
            original = getattr(module, attr)
            targets = []
            for binding in bindings:
                mod, at = _resolve(binding)
                if getattr(mod, at) is not original:
                    raise TracerError(
                        f"anchorstream.{binding} does not hold {bindings[0]}; span {name} "
                        "would miss its calls"
                    )
                targets.append((mod, at))
            # any other alias of the same function in a loaded anchorstream module
            for mod_name, mod in list(sys.modules.items()):
                if mod_name == "anchorstream" or mod_name.startswith("anchorstream."):
                    for at, value in list(vars(mod).items()):
                        if value is original and (mod, at) not in targets:
                            targets.append((mod, at))
            plan.append((name, original, targets))
        for name, original, targets in plan:
            wrapper = self._wrap(name, original)
            for mod, at in targets:
                self._saved.append((mod, at, original))
                setattr(mod, at, wrapper)

    def uninstall(self) -> None:
        while self._saved:
            mod, at, original = self._saved.pop()
            setattr(mod, at, original)
        self._stack.clear()

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()


@dataclass
class SpanStats:
    calls: int = 0
    total_s: float = 0.0
    child_s: float = 0.0
    count: int = 0
    parent_names: Counter = field(default_factory=Counter)

    @property
    def self_s(self) -> float:
        return self.total_s - self.child_s


def summarize(spans: list[Span]) -> dict[str, SpanStats]:
    """Per span name: calls, total and self time, summed counts, parent names."""
    stats = {name: SpanStats() for name in SPANS}
    for span in spans:
        duration = span.end - span.start
        st = stats[span.name]
        st.calls += 1
        st.total_s += duration
        st.count += span.count
        if span.parent is not None:
            parent = spans[span.parent]
            stats[parent.name].child_s += duration
            st.parent_names[parent.name] += 1
    return stats


def spans_as_rows(spans: list[Span]) -> list[list]:
    """Compact rows ``[id, trace, parent, name, start, end, count]`` for writing out."""
    return [[s.id, s.trace, s.parent, s.name, s.start, s.end, s.count] for s in spans]
