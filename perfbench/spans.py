"""Per-layer tracing from outside the program.

``install`` replaces each name in ``WRAPPED`` with a wrapper that records a
span (name, start, end, parent) in memory.  Each name is wrapped where its
caller looks it up: ``newton`` calls ``stationary_residual`` through its own
module global, so that binding is wrapped as well as ``bvp``'s.  A name
that no longer exists is reported as missing and is not wrapped.

``summarize`` turns the spans of one operation into per-layer counts and
self times.  A span's self time is its duration minus the part of that
interval its child spans cover.  This module imports nothing from the
program at import time, so the benchmark's own tests can use it alone.
"""

from __future__ import annotations

import functools
import importlib
import os
import time
from collections import defaultdict

PACKAGE = "quenchfront"

# (module, attribute inside that module, layer name).  An attribute
# ``Class.method`` wraps the method on the class, which covers every caller.
WRAPPED = (
    ("cli", "main", "cli.main"),
    ("cli", "write_csv", "cli.write_csv"),
    ("grid", "d2_band", "grid.d2_band"),
    ("bvp", "d2_band", "grid.d2_band"),
    ("grid", "d1_band", "grid.d1_band"),
    ("bvp", "d1_band", "grid.d1_band"),
    ("grid", "BandedMatrix.matvec", "grid.matvec"),
    ("bvp", "stationary_residual", "bvp.stationary_residual"),
    ("newton", "stationary_residual", "bvp.stationary_residual"),
    ("bvp", "stationary_jacobian", "bvp.stationary_jacobian"),
    ("newton", "stationary_jacobian", "bvp.stationary_jacobian"),
    ("bvp", "fit_tail_coefficients", "bvp.fit_tail_coefficients"),
    ("bvp", "initial_guess", "bvp.initial_guess"),
    ("newton", "solve", "newton.solve"),
    ("newton", "banded_lu_solve", "newton.banded_lu_solve"),
    ("continuation", "solve_front", "continuation.solve_front"),
    ("continuation", "continue_branch", "continuation.continue_branch"),
    ("continuation", "reinterpolate", "continuation.reinterpolate"),
    ("spectrum", "leading_eigenvalues", "spectrum.leading_eigenvalues"),
    ("evolve", "evolve", "evolve.evolve"),
    ("evolve", "ImexStepper.__init__", "evolve.stepper_init"),
    ("evolve", "ImexStepper.step", "evolve.step"),
    ("evolve", "solve_tanh_front", "evolve.solve_tanh_front"),
    ("diagnostics", "crossings", "diagnostics.crossings"),
    ("diagnostics", "front_position", "diagnostics.front_position"),
    ("diagnostics", "admissibility", "diagnostics.admissibility"),
    ("asymptotics", "erf_profile_vec", "asymptotics.erf_profile_vec"),
)

LAYERS = tuple(dict.fromkeys(layer for _, _, layer in WRAPPED))

# Counts taken from what a wrapped call returned (see ``_info``) or from
# how spans nest.
DERIVED = ("newton.iterations", "newton.backtracks", "newton.failures",
           "continuation.points", "continuation.rejected",
           "continuation.regrids", "continuation.fallbacks", "cli.csv_bytes")

_STEP_UNDERFLOW = "step size underflow"


class Span:
    __slots__ = ("name", "start", "end", "parent", "info")

    def __init__(self, name, start, end=None, parent=None, info=None):
        self.name = name
        self.start = start
        self.end = end
        self.parent = parent
        self.info = info


class Tracer:
    """Spans of one process, kept in memory until ``summarize``."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self.missing: list[str] = []

    def wrap(self, fn, name):
        stack = self._stack
        spans = self.spans
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, clock(), parent=stack[-1] if stack else None)
            spans.append(span)
            stack.append(span)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span.end = clock()
                span.info = {"raised": True}
                raise
            finally:
                stack.pop()
            span.end = clock()
            try:
                span.info = _info(name, args, kwargs, result)
            except (AttributeError, TypeError, LookupError, OSError):
                # a changed return type loses the derived counts, not the run
                what = f"{name} (return value)"
                if what not in self.missing:
                    self.missing.append(what)
            return result

        return traced


def install(tracer: Tracer, table=WRAPPED, package: str = PACKAGE) -> Tracer:
    """Wrap every name in ``table``; names that do not resolve are recorded
    in ``tracer.missing`` as ``module.attribute``."""
    for module_name, attr, layer in table:
        qualified = f"{module_name}.{attr}"
        try:
            owner = importlib.import_module(f"{package}.{module_name}")
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            fn = getattr(owner, leaf)
        except (ImportError, AttributeError):
            tracer.missing.append(qualified)
            continue
        setattr(owner, leaf, tracer.wrap(fn, layer))
    return tracer


def _info(name, args, kwargs, result):
    """The few facts a layer's return value carries that the summary needs."""
    if name == "newton.solve":
        return {"iterations": result[1].iterations}
    if name == "continuation.continue_branch":
        points = result.points
        grids = [p.grid for _, p in points]
        return {"points": len(points) - 1,
                "rejected": sum(msg != _STEP_UNDERFLOW for _, msg in result.failures),
                "regrids": sum(a != b for a, b in zip(grids, grids[1:]))}
    if name == "cli.write_csv":
        path = args[0] if args else kwargs["path"]
        return {"bytes": os.path.getsize(path)}
    return None


def covered(intervals, lo, hi):
    """Length of [lo, hi] covered by the union of ``intervals``."""
    total = 0.0
    reach = lo
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        a = max(a, reach)
        if b <= a:
            continue
        total += b - a
        reach = b
    return total


def self_times(spans):
    """Self time of every span, keyed by ``id(span)``."""
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[id(s.parent)].append((s.start, s.end))
    return {id(s): (s.end - s.start) - covered(children[id(s)], s.start, s.end)
            for s in spans}


def summarize(spans) -> dict:
    """Per-layer ``<layer>.calls`` and ``<layer>.self_s`` plus the counts in
    ``DERIVED``, summed over ``spans``."""
    out = {f"{layer}.{k}": 0 for layer in LAYERS for k in ("calls", "self_s")}
    out.update({k: 0 for k in DERIVED})
    selfs = self_times(spans)
    residuals = defaultdict(int)
    jacobians = defaultdict(int)
    for s in spans:
        out[f"{s.name}.calls"] = out.get(f"{s.name}.calls", 0) + 1
        out[f"{s.name}.self_s"] = out.get(f"{s.name}.self_s", 0) + selfs[id(s)]
        if s.parent is not None and s.parent.name == "newton.solve":
            if s.name == "bvp.stationary_residual":
                residuals[id(s.parent)] += 1
            elif s.name == "bvp.stationary_jacobian":
                jacobians[id(s.parent)] += 1
    for s in spans:
        info = s.info or {}
        if s.name == "newton.solve":
            out["newton.iterations"] += info.get("iterations", 0)
            out["newton.failures"] += bool(info.get("raised"))
            # every iteration assembles one Jacobian and evaluates the
            # residual once per trial step; the first evaluation is the start
            if residuals[id(s)]:
                out["newton.backtracks"] += residuals[id(s)] - 1 - jacobians[id(s)]
        elif s.name == "continuation.continue_branch":
            out["continuation.points"] += info.get("points", 0)
            out["continuation.rejected"] += info.get("rejected", 0)
            out["continuation.regrids"] += info.get("regrids", 0)
            if s.parent is not None and s.parent.name == "continuation.solve_front":
                out["continuation.fallbacks"] += 1
        elif s.name == "cli.write_csv":
            out["cli.csv_bytes"] += info.get("bytes", 0)
    return out


def per_round(totals: dict, rounds: int) -> dict:
    """Totals summed over ``rounds`` rounds of a workload, as the total
    of one round; ``continuation.accept_ratio`` is accepted steps over
    attempted steps."""
    out = {k: v / rounds for k, v in totals.items()}
    attempts = totals["continuation.points"] + totals["continuation.rejected"]
    out["continuation.accept_ratio"] = (totals["continuation.points"] / attempts
                                        if attempts else 0.0)
    return out
