"""In-memory spans around the calls into each phasewave module.

Spans are installed from outside by replacing module and class attributes
for the traced run only, and removed afterwards; no file under ``src/``
changes.  Each span records its name, start, end and parent.  A layer's
self time is its spans' durations minus the time their child spans cover.
"""

from __future__ import annotations

import functools
from collections import Counter, defaultdict
from time import perf_counter

import numpy as np


class Tracer:
    """Span and counter store for one traced pass."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1]
        self.counts = Counter()
        self._stack = []

    def call(self, name, fn, *args, **kwargs):
        """Run ``fn`` inside a span called ``name``."""
        rec = [name, perf_counter(), 0.0, self._stack[-1] if self._stack else -1]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            return fn(*args, **kwargs)
        finally:
            rec[2] = perf_counter()
            self._stack.pop()

    def self_times(self) -> dict:
        """Self time per span name, and the total of the root spans."""
        covered = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        out = defaultdict(float)
        roots = 0.0
        for (name, start, end, parent), child in zip(self.spans, covered):
            out[name] += (end - start) - child
            if parent < 0:
                roots += end - start
        return out, roots


def _wrap(tracer, fn, span, count):
    """``fn`` inside a span (unless ``span`` is None), then ``count(counts, args, result)``."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if span is None:
            result = fn(*args, **kwargs)
        else:
            result = tracer.call(span, fn, *args, **kwargs)
        if count is not None:
            count(tracer.counts, args, result)
        return result

    return wrapper


def _add(*keyed):
    """Counter update adding ``amount(args, result)`` (default 1) to each key."""

    def count(counts, args, result):
        for key, amount in keyed:
            counts[key] += amount(args, result) if amount else 1

    return count


def _targets(pw):
    """(owner, attribute, span name, counter) for every traced entry point."""
    fock, wigner, fresnel = pw.fock, pw.wigner, pw.fresnel
    spinmap, semiclassics = pw.spinmap, pw.semiclassics
    return [
        (fock, "_displacement_batch", "fock.displacement", _add(
            ("fock.displacement.calls", None),
            ("fock.displacement.entries",
             lambda a, r: np.size(a[0]) * (a[1] + 1) * len(a[2])),
        )),
        (fock, "eigenfunction_stack", "fock.eigenfunction",
         _add(("fock.eigenfunction.samples", lambda a, r: r.size))),
        (fock, "coherent_amplitudes", "fock.state", None),
        (fock.FockState, "fock", "fock.state", None),
        (fock.FockState, "density", "fock.state", None),
        (fock.DensityMatrix, "__init__", "fock.state", None),
        (fock.DensityMatrix, "mixture", "fock.state", None),
        (fock.DensityMatrix, "embedded", "fock.state", None),
        (wigner, "wigner_direct", "wigner.direct", None),
        (wigner, "_chord_integrand", None, _add(
            ("wigner.direct.levels", None),
            ("wigner.direct.chord_evals", lambda a, r: r.size),
        )),
        (wigner, "wigner_parity", "wigner.parity", _add(
            ("wigner.parity.calls", None),
            ("wigner.parity.points", lambda a, r: r.values.size),
        )),
        (wigner.WignerField, "to_csv", "wigner.serialize", None),
        (wigner.WignerField, "to_json_dict", "wigner.serialize", None),
        (wigner.WignerField, "from_csv", "wigner.parse", None),
        (wigner.WignerField, "from_json", "wigner.parse", None),
        (fresnel, "zone_table", "fresnel", None),
        (fresnel, "zone_sum", "fresnel", None),
        (fresnel, "huygens_integral", "fresnel", None),
        (fresnel, "zone_plate", "fresnel", None),
        (fresnel, "fit_zone_scaling", "fresnel", None),
        (fresnel, "zone_contribution", None, _add(("fresnel.zone_terms", None))),
        (fresnel, "_segment_integral", None, _add(("fresnel.segments", None))),
        (fresnel, "zone_boundary_angle", None, _add(("fresnel.boundary_angles", None))),
        (spinmap, "band_table", "spinmap", _add(("spinmap.bands", lambda a, r: len(r)))),
        (spinmap, "belts", "spinmap", _add(("spinmap.belts_calls", None))),
        (semiclassics, "compare_poisson", "semiclassics", None),
        (semiclassics, "circle_circle_lens", None, _add(("semiclassics.lens_calls", None))),
    ]


def install(tracer: Tracer, pw) -> list:
    """Wrap every traced entry point of package ``pw``; returns the undo list."""
    undo = []
    for owner, attr, span, count in _targets(pw):
        raw = owner.__dict__[attr]
        if isinstance(raw, classmethod):
            wrapped = classmethod(_wrap(tracer, raw.__func__, span, count))
        else:
            wrapped = _wrap(tracer, raw, span, count)
        setattr(owner, attr, wrapped)
        undo.append((owner, attr, raw))
    return undo


def uninstall(undo: list) -> None:
    for owner, attr, raw in reversed(undo):
        setattr(owner, attr, raw)


def layer_metrics(tracer: Tracer, traced_wall: float, untraced_wall: float,
                  counted: Counter, wanted: list) -> dict:
    """The ``wanted`` metrics (``name`` and ``unit`` each) of one traced pass.

    ``counted`` holds the byte counts the harness derives from the files
    each invocation wrote and read.  A span or counter that never fired
    reads 0.
    """
    self_s, roots = tracer.self_times()
    values = Counter(tracer.counts)
    values.update(counted)
    for name, seconds in self_s.items():
        values[f"{name}.self_s"] = seconds
    disp = self_s["fock.displacement"]
    values["fock.displacement.entries_per_s"] = (
        values["fock.displacement.entries"] / disp if disp > 0 else 0.0
    )
    values["trace.wall_s"] = traced_wall
    values["trace.overhead_s"] = traced_wall - untraced_wall
    values["trace.unattributed_s"] = traced_wall - roots
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
