"""Spans around calls into chronodyn's public functions, recorded from outside.

``install`` replaces each traced function, in every chronodyn module that
binds it, with a wrapper that records a span: so ``run_scenario``'s call to
``save_worldline_csv``, which it looks up in ``chronodyn.scenarios``, is
caught as well as a direct call.  Nothing under ``src/`` changes.  Spans stay
in memory; the benchmark collects them per job when the job ends.
"""

from __future__ import annotations

import dataclasses
import functools
import sys
import time

# layer function -> span name; the three analytic samplers share one name
TRACED = {
    "scenarios": ("load_scenario", "run_scenario", "run_perturb"),
    "analytic": ("cyclotron_worldline", "uniform_e_worldline", "osc_drift_worldline"),
    "frames": ("save_worldline_csv", "load_worldline_csv", "boost_worldline"),
    "chronometry": (
        "time_map_kinematic", "time_map_ratio", "time_map_dynamic",
        "period_map_numeric", "simultaneity_series", "save_time_map_csv",
    ),
    "dynamics": ("integrate", "energy_audit"),
    "perturbation": (
        "zero_order_solve", "correction_solve", "solve_perturbation",
        "expansion_residual", "residual_sweep",
    ),
}
ANALYTIC_SPAN = "analytic.worldline"
FORCE_EVALS = "perturbation.force_evals"
JACOBIAN_EVALS = "perturbation.jacobian_evals"


class Tracer:
    """In-memory spans ``[name, start, end, parent, job]`` and per-job counts.

    ``parent`` is the index of the enclosing span in ``spans`` (None at the
    top); ``start`` and ``end`` are ``time.perf_counter`` readings.
    """

    def __init__(self):
        self.job = None
        self.spans: list[list] = []
        self.counts: dict[str, int] = {}
        self._open: list[int] = []

    def start_job(self, job) -> None:
        self.job = job
        self.spans = []
        self.counts = {}
        self._open = []

    def add(self, name: str, start: float, end: float) -> None:
        """Record an already-timed top-level span (used for the CLI import)."""
        self.spans.append([name, start, end, None, self.job])

    def count(self, name: str, n: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    def wrap(self, name: str, fn):
        """``fn`` recording a span called ``name`` around every call."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, self._open[-1] if self._open else None, self.job]
            self._open.append(len(self.spans))
            self.spans.append(span)
            span[1] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._open.pop()

        return traced

    def counted(self, name: str, fn):
        """``fn`` adding one to count ``name`` per call, without a span."""

        @functools.wraps(fn)
        def counting(*args, **kwargs):
            self.counts[name] = self.counts.get(name, 0) + 1
            return fn(*args, **kwargs)

        return counting


def _rebind(original, replacement) -> None:
    """Point every chronodyn module attribute bound to ``original`` at ``replacement``."""
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "chronodyn" or mod_name.startswith("chronodyn.")):
            continue
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, replacement)


def install(tracer: Tracer) -> None:
    """Wrap the traced functions and the perturbation counters in place."""
    import chronodyn.cli  # noqa: F401  (bind every module before rebinding)
    from chronodyn import perturbation, scenarios

    for layer, names in TRACED.items():
        module = sys.modules[f"chronodyn.{layer}"]
        for name in names:
            span = ANALYTIC_SPAN if layer == "analytic" else f"{layer}.{name}"
            original = getattr(module, name)
            _rebind(original, tracer.wrap(span, original))

    _rebind(perturbation.force_jacobians,
            tracer.counted(JACOBIAN_EVALS, perturbation.force_jacobians))

    build_force = scenarios.build_force

    @functools.wraps(build_force)
    def counting_build_force(spec):
        force = build_force(spec)
        return dataclasses.replace(force, evaluate=tracer.counted(FORCE_EVALS, force.evaluate))

    _rebind(build_force, counting_build_force)


def calibrate(n: int = 20000) -> tuple[float, float]:
    """Seconds one span and one count add to a call, measured on a no-op."""

    def noop():
        return None

    tracer = Tracer()
    tracer.start_job(None)
    spanned, counting = tracer.wrap("noop", noop), tracer.counted("noop", noop)
    costs = []
    for fn in (noop, spanned, counting):
        best = float("inf")
        for _ in range(5):
            tracer.start_job(None)
            t0 = time.perf_counter()
            for _ in range(n):
                fn()
            best = min(best, time.perf_counter() - t0)
        costs.append(best / n)
    return max(costs[1] - costs[0], 0.0), max(costs[2] - costs[0], 0.0)


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the part of it that its child spans cover."""
    children: list[list[tuple[float, float]]] = [[] for _ in spans]
    for name, start, end, parent, _ in spans:
        if parent is not None:
            children[parent].append((start, end))
    out = []
    for (name, start, end, _, _), kids in zip(spans, children):
        covered, reach = 0.0, start
        for c0, c1 in sorted(kids):
            c0, c1 = max(c0, reach), min(c1, end)
            if c1 > c0:
                covered += c1 - c0
                reach = c1
        out.append((end - start) - covered)
    return out
