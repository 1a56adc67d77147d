"""Spans and counts around the public calls of each prbm layer.

The traced run replaces module attributes such as ``prbm.dtn.build_Q`` with
timing wrappers, so calls that prbm makes internally (``prbm.lsa`` calling
``dtn.build_Q``) are caught as well as the benchmark's own. Nothing inside
prbm changes, and the originals are put back after every traced round.
Spans and counts stay in memory until the run ends.
"""

from __future__ import annotations

import functools
import inspect
import statistics
import time
from collections import Counter
from dataclasses import dataclass, field

import prbm.dtn
import prbm.geometry
import prbm.halfspace
import prbm.lsa
import prbm.rng
import prbm.spectral
import prbm.walkers


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def _walker_attrs(args, kwargs, hist):
    dom = args[0]
    kind = "lattice" if isinstance(dom, prbm.geometry.LatticeDomain) else dom.kind.value
    return {
        "kind": kind,
        "walkers": hist.total,
        # every contact is a reflection or one walker's final absorption
        "contacts": hist.total_reflections + hist.working_absorbed + hist.source_absorbed,
        "censored": hist.censored,
    }


# (module, attribute, attributes recorded from the call and its result)
_TIMED = [
    (prbm.geometry, "rasterize", lambda a, k, dom: {"bulk_sites": dom.n_bulk, "faces": dom.n_faces}),
    (prbm.dtn, "build_Q", lambda a, k, qm: {"working_faces": qm.n}),
    (prbm.dtn, "build_M", None),
    (prbm.dtn, "hitting_distribution", None),
    (prbm.dtn, "spectrum", None),
    (prbm.dtn, "spreading_operator", None),
    (prbm.dtn, "impedance_curve", None),
    (prbm.lsa, "compare_flux", None),
    (prbm.walkers, "estimate_spread_measure", _walker_attrs),
    (prbm.walkers, "estimate_stopping_time", lambda a, k, ts: {"samples": len(ts)}),
] + [
    (mod, name, None)
    for mod in (prbm.halfspace, prbm.spectral)
    for name in mod.__all__
    if inspect.isfunction(getattr(mod, name))
]


class _CountingIntegrate:
    """Stands in for ``scipy.integrate`` inside prbm.halfspace, counting quad calls."""

    def __init__(self, module, counts: Counter):
        self._module = module
        self._counts = counts

    def __getattr__(self, name):
        return getattr(self._module, name)

    def quad(self, *args, **kwargs):
        self._counts["halfspace.quad_calls"] += 1
        return self._module.quad(*args, **kwargs)


class Tracer:
    """Records spans (name, start, end, parent) and counts while installed."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []

    def _timed(self, name: str, fn, describe):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = Span(len(self.spans), name, time.perf_counter(), 0.0,
                        self._stack[-1] if self._stack else None)
            self.spans.append(span)
            self._stack.append(span.id)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._stack.pop()
                span.end = time.perf_counter()
            if describe is not None:
                span.attrs = describe(args, kwargs, result)
            return result

        return wrapper

    def _counted(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self):
        """Wrap the layer entry points; returns a function that restores them."""
        saved = []

        def put(owner, attr, value):
            saved.append((owner, attr, getattr(owner, attr)))
            setattr(owner, attr, value)

        for mod, attr, describe in _TIMED:
            layer = mod.__name__.split(".")[-1]
            put(mod, attr, self._timed(f"{layer}.{attr}", getattr(mod, attr), describe))
        put(prbm.rng.RngStream, "generator", self._counted("rng.generators", prbm.rng.RngStream.generator))
        put(prbm.halfspace, "integrate", _CountingIntegrate(prbm.halfspace.integrate, self.counts))

        def restore():
            for owner, attr, value in reversed(saved):
                setattr(owner, attr, value)

        return restore

    def records(self) -> list[dict]:
        return [
            {"id": s.id, "name": s.name, "start": s.start, "end": s.end,
             "parent": s.parent, **s.attrs}
            for s in self.spans
        ]


_WALKER_KINDS = {
    "half_space": "halfplane",
    "disk_interior": "disk",
    "ball_interior": "ball",
    "annulus": "annulus",
    "lattice": "lattice",
}


def round_layers(spans: list[Span], counts: Counter) -> dict[str, float]:
    """Per-layer totals of one traced round from its spans and counts.

    A metric whose layer the round never called reads 0 (a rate then has no
    calls to divide by and reads 0 too).
    """
    by_name: dict[str, list[Span]] = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)

    def total(name):
        return sum(s.duration for s in by_name.get(name, []))

    def attr_sum(name, key):
        return sum(s.attrs[key] for s in by_name.get(name, []))

    out = {
        "geometry.rasterize_s": total("geometry.rasterize"),
        "geometry.bulk_sites": attr_sum("geometry.rasterize", "bulk_sites"),
        "geometry.faces": attr_sum("geometry.rasterize", "faces"),
        "lsa.compare_flux_s": total("lsa.compare_flux"),
        "dtn.build_Q_s": total("dtn.build_Q"),
        "dtn.build_Q_calls": len(by_name.get("dtn.build_Q", [])),
        "dtn.working_faces": attr_sum("dtn.build_Q", "working_faces"),
        "dtn.hitting_distribution_s": total("dtn.hitting_distribution"),
        "dtn.spectrum_s": total("dtn.spectrum"),
        "dtn.spreading_operator_s": total("dtn.spreading_operator"),
        "dtn.impedance_curve_s": total("dtn.impedance_curve"),
        "rng.generators": counts["rng.generators"],
        "halfspace.quad_calls": counts["halfspace.quad_calls"],
    }
    # self time: a compare_flux span minus the dtn calls it made, i.e. strip building
    child_time: Counter = Counter()
    for s in spans:
        if s.parent is not None:
            child_time[s.parent] += s.duration
    out["lsa.self_s"] = sum(s.duration - child_time[s.id] for s in by_name.get("lsa.compare_flux", []))
    # analytics: outermost spans of each module, so nested calls count once
    module_of = {s.id: s.name.split(".")[0] for s in spans}
    for mod in ("halfspace", "spectral"):
        out[f"{mod}.s"] = sum(
            s.duration for s in spans
            if module_of[s.id] == mod and (s.parent is None or module_of[s.parent] != mod)
        )
    ensembles = by_name.get("walkers.estimate_spread_measure", [])
    for kind, label in _WALKER_KINDS.items():
        mine = [s for s in ensembles if s.attrs["kind"] == kind]
        busy = sum(s.duration for s in mine)
        out[f"walkers.{label}.contacts_per_s"] = sum(s.attrs["contacts"] for s in mine) / busy if busy else 0.0
        if label == "lattice":
            out["walkers.lattice.walkers_per_s"] = sum(s.attrs["walkers"] for s in mine) / busy if busy else 0.0
    stops = by_name.get("walkers.estimate_stopping_time", [])
    busy = sum(s.duration for s in stops)
    out["walkers.stopping_time.samples_per_s"] = sum(s.attrs["samples"] for s in stops) / busy if busy else 0.0
    out["walkers.contacts"] = sum(s.attrs["contacts"] for s in ensembles)
    out["walkers.censored"] = sum(s.attrs["censored"] for s in ensembles)
    return out


# work records: taken from the first traced round, whose draws depend only on the seed
_COUNTS = frozenset({
    "geometry.bulk_sites", "geometry.faces", "dtn.build_Q_calls", "dtn.working_faces",
    "rng.generators", "halfspace.quad_calls", "walkers.contacts", "walkers.censored",
})


def summarize(rounds: list[dict[str, float]], traced_route: list[float], plain_route: list[float]) -> dict[str, float]:
    """Per-layer metrics over traced rounds, plus the tracing overhead.

    Times and rates are medians over the traced rounds; counts are those of
    the first traced round, so they are exact for a seed however many rounds
    a run fits.
    """
    out = {name: rounds[0][name] if name in _COUNTS else statistics.median(r[name] for r in rounds)
           for name in rounds[0]}
    out["trace.route_s"] = statistics.median(traced_route)
    out["trace.overhead_s"] = out["trace.route_s"] - statistics.median(plain_route)
    return out
