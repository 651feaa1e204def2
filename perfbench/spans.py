"""Span proxies around the layer boundaries the matching entry points call.

A :class:`Tracer` wraps each boundary in ``BOUNDARIES`` for the duration
of one traced solve and restores the originals afterwards.  Per-call
spans (rays, segments, index operations) are aggregated to a count, a
total and a self time; phase spans (parse, entry point, validate,
coordinates, order, ``Matching``) are also kept one by one with their
parent span.  A boundary the program no longer has or no longer calls
simply reports 0 calls, so the benchmark keeps running when later changes
fuse layers.
"""

from __future__ import annotations

import sys
import time
from contextlib import contextmanager

# (span name, module that defines the boundary, attribute, kind)
#   phase: a function called a few times per solve; every span is kept
#   call:  a function called per vertex; spans are only aggregated
#   index: the function returning the ray-shooting index class, whose
#          INDEX_METHODS are traced per call
#   init:  a class whose constructor is traced as a phase
BOUNDARIES = (
    ("core.validate", "rdvmatch.core", "validate_instance", "phase"),
    ("geometry.coords", "rdvmatch.geometry", "assign_coordinates", "phase"),
    ("core.order", "rdvmatch.core", "bottom_up_order", "phase"),
    ("geometry.ray", "rdvmatch.geometry", "build_ray", "call"),
    ("geometry.segment", "rdvmatch.geometry", "build_segment", "call"),
    ("rayshoot", "rdvmatch.rayshoot", "get_index_class", "index"),
    ("core.matching", "rdvmatch.core", "Matching", "init"),
)
INDEX_METHODS = ("shoot", "insert", "delete")


class Tracer:
    """Spans of one traced solve, kept in memory."""

    def __init__(self) -> None:
        self.totals: dict[str, list[int]] = {}  # name -> [calls, total ns, self ns]
        self.phases: list[list] = []  # [span id, parent id, name, start ns, end ns]
        self.hits = 0
        self.live = 0
        self.live_max = 0
        self._stack: list[list] = [[None, 0]]  # open spans: [phase id, child ns]

    def wrap(self, name: str, fn, phase: bool = False):
        """``fn`` with a span around every call."""
        totals = self.totals.setdefault(name, [0, 0, 0])
        stack = self._stack
        phases = self.phases
        clock = time.perf_counter_ns

        def span(*args, **kwargs):
            frame = [None, 0]
            if phase:
                rec = [len(phases), stack[-1][0], name, 0, 0]
                phases.append(rec)
                frame[0] = rec[0]
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                d = clock() - t0
                stack.pop()
                stack[-1][1] += d
                totals[0] += 1
                totals[1] += d
                totals[2] += d - frame[1]
                if phase:
                    rec[3], rec[4] = t0, t0 + d

        return span

    def calls(self, name: str) -> int:
        return self.totals.get(name, (0, 0, 0))[0]

    def self_ns(self, name: str) -> int:
        return self.totals.get(name, (0, 0, 0))[2]

    def _traced_index(self, cls: type) -> type:
        """Subclass of the index class ``cls`` with traced operations."""
        tracer = self
        shoot, insert, delete = (
            self.wrap(f"rayshoot.{m}", getattr(cls, m)) for m in INDEX_METHODS
        )

        class TracedIndex(cls):
            __slots__ = ()

            def shoot(self, *args):
                hit = shoot(self, *args)
                if hit is not None:
                    tracer.hits += 1
                return hit

            def insert(self, *args):
                insert(self, *args)
                tracer.live += 1
                tracer.live_max = max(tracer.live_max, tracer.live)

            def delete(self, *args):
                delete(self, *args)
                tracer.live -= 1

        return TracedIndex

    @contextmanager
    def installed(self):
        """Replace every boundary in every loaded rdvmatch module, then
        restore the originals."""
        undo: list[tuple[object, str, object]] = []
        modules = [
            m for name, m in list(sys.modules.items())
            if m is not None and (name == "rdvmatch" or name.startswith("rdvmatch."))
        ]
        try:
            for name, modname, attr, kind in BOUNDARIES:
                original = getattr(sys.modules.get(modname), attr, None)
                if original is None:
                    continue
                if kind == "init":
                    undo.append((original, "__init__", original.__init__))
                    original.__init__ = self.wrap(name, original.__init__, phase=True)
                    continue
                if kind == "index":
                    def proxy(*args, _resolve=original, **kwargs):
                        return self._traced_index(_resolve(*args, **kwargs))
                else:
                    proxy = self.wrap(name, original, phase=kind == "phase")
                for m in modules:
                    if getattr(m, attr, None) is original:
                        undo.append((m, attr, original))
                        setattr(m, attr, proxy)
            yield self
        finally:
            for obj, attr, original in reversed(undo):
                setattr(obj, attr, original)


PER_LAYER = (
    # (metric, unit)
    ("io.parse_s", "s"),
    ("io.input_bytes", "bytes"),
    ("core.validate_s", "s"),
    ("core.order_s", "s"),
    ("core.matching_s", "s"),
    ("geometry.coords_s", "s"),
    ("geometry.ray_s", "s"),
    ("geometry.rays", "count"),
    ("geometry.segment_s", "s"),
    ("geometry.segments", "count"),
    ("rayshoot.shoot_s", "s"),
    ("rayshoot.shoots", "count"),
    ("rayshoot.shoot_ns", "ns"),
    ("rayshoot.insert_s", "s"),
    ("rayshoot.inserts", "count"),
    ("rayshoot.insert_ns", "ns"),
    ("rayshoot.delete_s", "s"),
    ("rayshoot.deletes", "count"),
    ("rayshoot.delete_ns", "ns"),
    ("rayshoot.hit_ratio", "ratio"),
    ("rayshoot.live_max", "count"),
    ("matching.self_s", "s"),
    ("matching.calls_per_vertex", "calls/vertex"),
    ("trace.overhead_s", "s"),
)
COUNTS = {name for name, unit in PER_LAYER if unit in ("count", "bytes", "ratio", "calls/vertex")}


def layer_metrics(tr: Tracer, n: int, input_bytes: int) -> dict[str, float]:
    """Per-layer metrics of one traced solve (all but ``trace.overhead_s``).

    The span named ``matching.entry`` must be the entry point's and
    ``io.parse`` the parser's.
    """
    out: dict[str, float] = {
        "io.parse_s": tr.self_ns("io.parse") / 1e9,
        "io.input_bytes": input_bytes,
        "core.validate_s": tr.self_ns("core.validate") / 1e9,
        "core.order_s": tr.self_ns("core.order") / 1e9,
        "core.matching_s": tr.self_ns("core.matching") / 1e9,
        "geometry.coords_s": tr.self_ns("geometry.coords") / 1e9,
        "geometry.ray_s": tr.self_ns("geometry.ray") / 1e9,
        "geometry.rays": tr.calls("geometry.ray"),
        "geometry.segment_s": tr.self_ns("geometry.segment") / 1e9,
        "geometry.segments": tr.calls("geometry.segment"),
    }
    for op in INDEX_METHODS:
        name = f"rayshoot.{op}"
        calls = tr.calls(name)
        out[f"{name}_s"] = tr.self_ns(name) / 1e9
        out[f"{name}s"] = calls
        out[f"{name}_ns"] = tr.self_ns(name) / calls if calls else 0.0
    shoots = tr.calls("rayshoot.shoot")
    out["rayshoot.hit_ratio"] = tr.hits / shoots if shoots else 0.0
    out["rayshoot.live_max"] = tr.live_max
    out["matching.self_s"] = tr.self_ns("matching.entry") / 1e9
    inner = sum(rec[0] for name, rec in tr.totals.items()
                if name not in ("io.parse", "matching.entry"))
    out["matching.calls_per_vertex"] = inner / n
    return out
