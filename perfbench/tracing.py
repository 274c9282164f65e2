"""Span tracing of envlab layers from outside the package.

Each traced public function is replaced by a wrapper that records a span
(id, parent, name, request, start, end); the request is the config run.
The wrapper is bound wherever the original was: in its defining module,
in every envlab module that did `from .x import name`, and on the class
for methods.  Nothing inside `src/` is edited.

Per-layer metrics are `<module>.<function>.{self_s,total_s,calls}` plus the
counters in COUNTERS, which measure the work a layer did (cells, nodes,
indices, hull vertices, rows, bytes) at the same boundary as its span.
"""

from __future__ import annotations

import hashlib
import importlib
import math
import os
import pkgutil
import sys
import time

import numpy as np

# (module, qualified name) of every traced function, grouped by layer.
TARGETS = (
    ("quadrature", "refine_breakpoints"),
    ("quadrature", "gauss_cells"),
    ("quadrature", "log_integral_exp"),
    ("quadrature", "logsumexp"),
    ("basefun", "softplus"),
    ("sections", "section_basis"),
    ("sections", "log_norm2"),
    ("sections", "log_sup2"),
    ("sections", "bergman"),
    ("sections", "reference_basis"),
    ("sections", "bergman_approximant"),
    ("sections", "h0"),
    ("profiles", "WeightedSet.weight_at"),
    ("profiles", "ConvexProfile.__call__"),
    ("profiles", "sup_difference"),
    ("envelopes", "divergence"),
    ("envelopes", "weighted_envelope"),
    ("envelopes", "envelope_of_samples"),
    ("envelopes", "lower_hull"),
    ("envelopes", "conjugate_at_slopes"),
    ("envelopes", "i_model_envelope"),
    ("envelopes", "window_envelope"),
    ("envelopes", "contact_leakage"),
    ("energy", "ma_energy"),
    ("energy", "equilibrium_energy"),
    ("energy", "energy_derivative_check"),
    ("measures", "ma_measure"),
    ("measures", "measure_integral"),
    ("measures", "kolmogorov_distance"),
    ("measures", "RadialMeasure.cdf"),
    ("toric", "h0_toric"),
    ("report", "write_csv"),
    ("report", "svg_plot"),
    ("experiments", "run_experiment"),
)

SPAN_NAMES = tuple(f"{mod}.{qual}" for mod, qual in TARGETS)


def _arg(args, kwargs, pos, name, default=None):
    if len(args) > pos:
        return args[pos]
    return kwargs.get(name, default)


def _digest(x):
    if x is None:
        return None
    return hashlib.blake2b(np.asarray(x, dtype=float).tobytes(), digest_size=16).digest()


def _count_refine(tracer, args, kwargs, result):
    tracer.add("quadrature.refine_breakpoints.cells", len(result) - 1)
    key = (
        _digest(_arg(args, kwargs, 0, "breakpoints")),
        int(_arg(args, kwargs, 1, "k")),
        _digest(_arg(args, kwargs, 2, "extra")),
        _arg(args, kwargs, 3, "max_width"),
    )
    if key in tracer.seen_plans:
        tracer.add("quadrature.refine_breakpoints.repeats", 1)
    else:
        tracer.seen_plans.add(key)


def _count_h0_toric(tracer, args, kwargs, result):
    k = _arg(args, kwargs, 0, "k")
    f = _arg(args, kwargs, 1, "f")
    tw = _arg(args, kwargs, 2, "tw")
    m = math.floor(k * f.class_mass) + (tw.degree_shift if tw is not None else 0)
    tracer.add("toric.h0_toric.rows", max(0, m + 1))


def _count_file_bytes(name):
    def count(tracer, args, kwargs, result):
        tracer.add(name, os.path.getsize(_arg(args, kwargs, 0, "path")))
    return count


COUNTERS = {
    "quadrature.refine_breakpoints": _count_refine,
    "quadrature.gauss_cells": lambda tr, a, kw, r: tr.add(
        "quadrature.gauss_cells.nodes", r[0].size),
    "sections.section_basis": lambda tr, a, kw, r: tr.add(
        "sections.section_basis.indices", len(r.J)),
    "envelopes.lower_hull": lambda tr, a, kw, r: tr.add(
        "envelopes.lower_hull.vertices", r[0].size),
    "toric.h0_toric": _count_h0_toric,
    "report.write_csv": _count_file_bytes("report.write_csv.bytes"),
    "report.svg_plot": _count_file_bytes("report.svg_plot.bytes"),
}

COUNTER_NAMES = (
    "quadrature.refine_breakpoints.cells",
    "quadrature.refine_breakpoints.repeats",
    "quadrature.gauss_cells.nodes",
    "sections.section_basis.indices",
    "envelopes.lower_hull.vertices",
    "toric.h0_toric.rows",
    "report.write_csv.bytes",
    "report.svg_plot.bytes",
)


class Tracer:
    """Holds the spans and counters of one process, in memory."""

    def __init__(self):
        # (id, parent, name, request, start, end, hidden): hidden is the
        # counter time spent after `end`, inside the parent's interval
        self.spans = []
        self.counts = dict.fromkeys(COUNTER_NAMES, 0)
        self.seen_plans = set()
        self.request = None
        self._stack = []         # ids of the open spans
        self._next_id = 0

    def add(self, name, amount):
        self.counts[name] += amount

    def wrap(self, name, fn):
        count = COUNTERS.get(name)
        clock = time.perf_counter
        stack = self._stack

        def traced(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            parent = stack[-1] if stack else None
            stack.append(span_id)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
            hidden = 0.0
            if count is not None:
                count(self, args, kwargs, result)
                hidden = clock() - end
            self.spans.append((span_id, parent, name, self.request, start, end, hidden))
            return result

        traced.__name__ = getattr(fn, "__name__", name)
        traced.__qualname__ = getattr(fn, "__qualname__", name)
        traced.__doc__ = fn.__doc__
        traced.__wrapped__ = fn
        return traced


def self_times(spans):
    """Span id -> duration minus the time its direct children cover.

    Spans of one process never overlap unless nested, so the covered part
    is the sum of the children's durations, plus the counter time each
    child spent after its end, which belongs to no layer.
    """
    out = {sid: end - start for sid, _, _, _, start, end, _ in spans}
    for sid, parent, _, _, start, end, hidden in spans:
        if parent is not None:
            out[parent] -= end - start + hidden
    return out


def summarize(spans):
    """{span name: {"self_s", "total_s" (with children), "calls"}}."""
    selfs = self_times(spans)
    out = {}
    for sid, _, name, _, start, end, _ in spans:
        entry = out.setdefault(name, {"self_s": 0.0, "total_s": 0.0, "calls": 0})
        entry["self_s"] += selfs[sid]
        entry["total_s"] += end - start
        entry["calls"] += 1
    return out


def envlab_modules():
    """Import every envlab module and return them by dotted name."""
    import envlab

    for info in pkgutil.iter_modules(envlab.__path__):
        importlib.import_module(f"envlab.{info.name}")
    return {name: mod for name, mod in sys.modules.items()
            if name == "envlab" or name.startswith("envlab.")}


def install(tracer):
    """Bind a traced wrapper wherever each TARGETS function is referenced.

    Returns (restore, missing): calling restore() puts the originals back;
    missing lists targets the package no longer defines, whose metrics
    run.py then leaves out.
    """
    modules = envlab_modules()
    undo, missing = [], []
    for mod_name, qual in TARGETS:
        owner = modules.get(f"envlab.{mod_name}")
        *path, attr = qual.split(".")
        for part in path:
            owner = getattr(owner, part, None)
        original = getattr(owner, attr, None) if owner is not None else None
        if original is None:
            missing.append(f"{mod_name}.{qual}")
            continue
        wrapper = tracer.wrap(f"{mod_name}.{qual}", original)
        if path:
            undo.append((owner, attr, original))
            setattr(owner, attr, wrapper)
            continue
        for module in modules.values():
            for key, value in list(vars(module).items()):
                if value is original:
                    undo.append((module, key, original))
                    setattr(module, key, wrapper)

    def restore():
        for target, key, original in reversed(undo):
            setattr(target, key, original)

    return restore, missing
