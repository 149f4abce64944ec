"""Spans recorded around opcauchy's functions, from outside the library.

A wrapper replaces a module attribute, so every caller that looks the name
up in that module goes through it.  Spans are kept in memory: name, start,
end, parent index and an element count.  A function called again from
inside its own span (``exprparse.evaluate`` recursing) stays one span.
"""

from __future__ import annotations

import dataclasses
import time
from collections import defaultdict

import numpy as np


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent, elems]
        self._stack = []
        self._patched = []

    def call(self, name, fn, *args, elems=0, **kwargs):
        parent = self._stack[-1] if self._stack else -1
        if parent >= 0 and self.spans[parent][0] == name:
            return fn(*args, **kwargs)
        index = len(self.spans)
        record = [name, 0.0, 0.0, parent, elems]
        self.spans.append(record)
        self._stack.append(index)
        record[1] = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            record[2] = time.perf_counter()
            self._stack.pop()

    def wrapped(self, name, fn, count_elems=False):
        def wrapper(*args, **kwargs):
            elems = int(np.size(args[0])) if count_elems and args else 0
            return self.call(name, fn, *args, elems=elems, **kwargs)

        return wrapper

    def wrap(self, owner, attr, name, count_elems=False, on_result=None):
        """Route ``owner.attr`` through a span; False when the name is gone."""
        fn = getattr(owner, attr, None)
        if not callable(fn):
            return False
        inner = self.wrapped(name, fn, count_elems)
        if on_result is not None:
            def wrapper(*args, **kwargs):
                return on_result(inner(*args, **kwargs))
        else:
            wrapper = inner
        setattr(owner, attr, wrapper)
        self._patched.append((owner, attr, fn))
        return True

    def restore(self):
        for owner, attr, fn in reversed(self._patched):
            setattr(owner, attr, fn)
        self._patched.clear()


def install(tracer, modules):
    """Wrap each layer's entry points; return (absent layers, missing names).

    ``modules`` maps short module names to the imported opcauchy modules.
    Names are wrapped where their caller looks them up: ``kernels`` for the
    operator functions and FFTs the solver uses, ``cli`` for the solve entry
    point and the artifact writers.  The forcing callable is wrapped on each
    problem that ``cli.load_problem`` returns.  A layer is absent when none
    of its names exist any more.
    """
    missing = []

    def trace_forcing(problem):
        forcing = getattr(problem, "forcing", None)
        if forcing is None:
            return problem
        try:
            return dataclasses.replace(problem, forcing=tracer.wrapped("kernels.forcing", forcing))
        except TypeError:
            missing.append("CauchyProblem.forcing")
            return problem

    layers = [
        ("cli", "load_problem", "cli.load_problem", False, trace_forcing),
        ("cli", "solve", "kernels.solve", False, None),
        ("cli", "write_csv", "cli.write_csv", False, None),
        ("cli", "write_opc1", "cli.write_opc1", False, None),
        ("kernels", "homogeneous_mode", "kernels.homogeneous_mode", False, None),
        ("kernels", "inhomogeneous_mode", "kernels.inhomogeneous_mode", False, None),
        ("kernels", "symbol_grid", "symbol_poly.symbol_grid", False, None),
        ("kernels", "to_spectral", "multiplier.fft", False, None),
        ("kernels", "from_spectral", "multiplier.fft", False, None),
        ("kernels", "sinhc_sqrt", "multiplier.opfunc", True, None),
        ("kernels", "cosh_sqrt", "multiplier.opfunc", True, None),
        ("kernels", "_sat_exp", "multiplier.opfunc", True, None),
        ("exprparse", "evaluate", "exprparse.evaluate", False, None),
        ("oracle", "mode_ode_solve", "oracle.mode_ode_solve", False, None),
    ]
    present = set()
    for module, attr, name, count_elems, on_result in layers:
        if tracer.wrap(modules[module], attr, name, count_elems, on_result):
            present.add(name)
        else:
            missing.append(f"{module}.{attr}")
    if "cli.load_problem" in present:
        present.add("kernels.forcing")
    absent = {name for _, _, name, _, _ in layers} | {"kernels.forcing"}
    return absent - present, missing


def summarize(spans, roots):
    """Per-layer totals over the spans below the given root span indices.

    Returns {name: {"s", "self_s", "calls", "elems"}}.
    """
    keep = set(roots)
    child_time = defaultdict(float)
    for i, (name, start, end, parent, _) in enumerate(spans):
        if parent in keep:
            keep.add(i)
        if parent >= 0:
            child_time[parent] += end - start
    out = defaultdict(lambda: {"s": 0.0, "self_s": 0.0, "calls": 0, "elems": 0})
    for i in sorted(keep):
        name, start, end, _, elems = spans[i]
        agg = out[name]
        agg["s"] += end - start
        agg["self_s"] += end - start - child_time[i]
        agg["calls"] += 1
        agg["elems"] += elems
    return dict(out)
