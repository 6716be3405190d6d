"""Slow-motion split of the dynamics into a Newtonian zero order plus a
linear correction attributed to the frame-dependent course of time.

For speeds well below light speed the primed-frame equation of motion,
re-expressed in the unprimed time via t' = t - v0*x' and truncated at first
order, separates into

    zero order:   m0 * d^2 r0/dt^2 = F(r0, u0, t)
    correction:   m0 * d^2 r1/dt^2 = (r1 . grad_r) F + (u1 . grad_u) F,

with the gradients evaluated along the zero-order trajectory.  The
correction equation is homogeneous: after the zero-order equation is used,
the explicit -v0*x' terms of the expansion cancel, so a nonzero r1 exists
only for a nonzero initial perturbation, which this module takes as an
explicit input (its natural scale is proportional to v0).  The right-hand
side of the correction equation is the extra "time force" the split
isolates.

Everything here is Newtonian by construction (the expansion regime); the
relativistic integrator lives in :mod:`chronodyn.dynamics` and is
deliberately not reused.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

__all__ = [
    "ForceLaw",
    "Trajectory",
    "PerturbationRun",
    "zero_order_solve",
    "force_jacobians",
    "correction_solve",
    "time_force",
    "expansion_residual",
    "solve_perturbation",
    "residual_sweep",
    "fit_power_law",
]

Vec3Fn = Callable[[np.ndarray, np.ndarray, float], np.ndarray]
_BLOCK = 256  # RK4 steps linearized per numpy block: bounds the stage Jacobians' memory


@dataclass(frozen=True)
class ForceLaw:
    """A force field F(r, u, t) with optional analytic Jacobians.

    ``jac_r`` and ``jac_u`` return the 3x3 matrices dF_i/dr_j and
    dF_i/du_j.  When both are supplied the constructor spot-checks them
    against central finite differences at ``probe`` (default: the origin at
    rest, t = 0) and rejects disagreement beyond 1e-6 relative.  Evaluators
    must be pure; the module never serializes calls.
    """

    evaluate: Vec3Fn
    jac_r: Callable[[np.ndarray, np.ndarray, float], np.ndarray] | None = None
    jac_u: Callable[[np.ndarray, np.ndarray, float], np.ndarray] | None = None
    probe: tuple | None = None

    def __post_init__(self):
        if (self.jac_r is None) != (self.jac_u is None):
            raise ValueError("supply both analytic Jacobians or neither")
        if self.jac_r is not None:
            if self.probe is not None:
                r, u, t = self.probe
                r, u = np.asarray(r, dtype=float), np.asarray(u, dtype=float)
            else:
                r, u, t = np.zeros(3), np.zeros(3), 0.0
            jr_fd, ju_fd = _fd_jacobians(self.evaluate, r, u, t)
            jr, ju = self.jac_r(r, u, t), self.jac_u(r, u, t)
            for name, analytic, fd in (("jac_r", jr, jr_fd), ("jac_u", ju, ju_fd)):
                scale = max(float(np.abs(analytic).max()), 1.0)
                err = float(np.abs(analytic - fd).max()) / scale
                if not err < 1e-6:
                    raise ValueError(
                        f"analytic {name} disagrees with finite differences at the "
                        f"probe point (relative error {err:.3e})"
                    )

    def __call__(self, r: np.ndarray, u: np.ndarray, t: float) -> np.ndarray:
        F = np.asarray(self.evaluate(r, u, t), dtype=float)
        if F.shape != (3,) or not np.isfinite(F).all():
            raise ValueError(f"force evaluator returned a bad value: {F}")
        return F


@dataclass(frozen=True)
class Trajectory:
    """A sampled Newtonian trajectory: times (n,), positions and velocities (n, 3)."""

    t: np.ndarray
    r: np.ndarray
    u: np.ndarray
    # (id(f), m0) -> the run's RK4 stage states, then its linearization; each
    # entry holds f itself so that the id cannot be reused
    _linearizations: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        t = np.asarray(self.t, dtype=float)
        r = np.asarray(self.r, dtype=float)
        u = np.asarray(self.u, dtype=float)
        n = t.shape[0]
        if t.ndim != 1 or r.shape != (n, 3) or u.shape != (n, 3):
            raise ValueError("inconsistent trajectory shapes")
        for a in (t, r, u):
            a.flags.writeable = False
        object.__setattr__(self, "t", t)
        object.__setattr__(self, "r", r)
        object.__setattr__(self, "u", u)

    def __len__(self) -> int:
        return self.t.shape[0]

    def __getstate__(self):  # a copy leaves the force laws behind and linearizes anew
        return {**self.__dict__, "_linearizations": {}}


@dataclass(frozen=True)
class PerturbationRun:
    """Zero-order trajectory, correction, and the extra-force series.

    ``time_force`` holds the correction equation's right-hand side sampled
    along the run: the explicit force attributed to the altered course of
    time.
    """

    zero_order: Trajectory
    correction: Trajectory
    v0: float
    m0: float
    time_force: np.ndarray


def _fd_step(x: np.ndarray, h: float | None) -> np.ndarray:
    if h is not None:
        return np.full(3, h)
    return np.maximum(1e-6, 1e-6 * np.abs(x))


def _fd_jacobians(force: Vec3Fn, r, u, t, h: float | None = None):
    hr = _fd_step(r, h)
    hu = _fd_step(u, h)
    jr = np.empty((3, 3))
    ju = np.empty((3, 3))
    for j in range(3):
        dr = np.zeros(3)
        dr[j] = hr[j]
        jr[:, j] = (force(r + dr, u, t) - force(r - dr, u, t)) / (2.0 * hr[j])
        du = np.zeros(3)
        du[j] = hu[j]
        ju[:, j] = (force(r, u + du, t) - force(r, u - du, t)) / (2.0 * hu[j])
    return jr, ju


def force_jacobians(f: ForceLaw, at: tuple, h: float | None = None):
    """Jacobians (dF/dr, dF/du) at a phase-space point ``at`` = (r, u, t).

    Uses the force law's analytic Jacobians when present, otherwise central
    differences with per-component step max(1e-6, 1e-6*|component|); pass
    ``h`` to override the step (the truncation error is 2nd order in it).
    """
    r, u, t = at
    r = np.asarray(r, dtype=float)
    u = np.asarray(u, dtype=float)
    if f.jac_r is not None and h is None:
        jr = np.asarray(f.jac_r(r, u, t), dtype=float)
        ju = np.asarray(f.jac_u(r, u, t), dtype=float)
    else:
        jr, ju = _fd_jacobians(f, r, u, t, h)
    if not (np.isfinite(jr).all() and np.isfinite(ju).all()):
        raise ValueError("non-finite force Jacobian")
    return jr, ju


def zero_order_solve(
    f: ForceLaw, r0, u0, m0: float, t_span: tuple, dt: float
) -> Trajectory:
    """RK4 solution of the Newtonian equation m0 * d^2 r/dt^2 = F(r, u, t).

    Intended for the slow-motion regime |u| << 1; nothing enforces it.  The
    span is covered by ceil((t1 - t0)/dt) uniform steps.  The run keeps its
    RK4 stage states, from which corrections with the same ``f`` and ``m0``
    linearize it.
    """
    if m0 <= 0.0:
        raise ValueError("rest mass must be positive")
    t0, t1 = float(t_span[0]), float(t_span[1])
    if not (dt > 0.0 and t1 > t0):
        raise ValueError("need dt > 0 and a forward time span")
    n = max(1, math.ceil((t1 - t0) / dt - 1e-12))

    def deriv(y, t):
        return np.concatenate([y[3:], f(y[:3], y[3:], t) / m0])

    ys = np.empty((n + 1, 6))
    stages = np.empty((n, 4, 6))  # the states each step evaluated F at
    y = ys[0] = np.concatenate([np.asarray(r0, dtype=float), np.asarray(u0, dtype=float)])
    for i in range(n):
        t = t0 + i * dt
        k1 = deriv(y, t)
        k2 = deriv(y2 := y + 0.5 * dt * k1, t + 0.5 * dt)
        k3 = deriv(y3 := y + 0.5 * dt * k2, t + 0.5 * dt)
        k4 = deriv(y4 := y + dt * k3, t + dt)
        stages[i] = y, y2, y3, y4
        y = y + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if not np.isfinite(y).all():
            raise ValueError(f"non-finite state at step {i + 1}")
        ys[i + 1] = y
    run = Trajectory(t=t0 + dt * np.arange(n + 1), r=ys[:, :3], u=ys[:, 3:])
    run._linearizations[(id(f), m0)] = {"f": f, "stages": stages, "t0": t0, "dt": dt}
    return run


def _linearization(run0: Trajectory, f: ForceLaw, m0: float) -> dict:
    """``run0`` linearized under (f, m0), built on first use from its stage states.

    ``M`` (n, 6, 6) holds the RK4 step of the correction state (r1, u1) as a
    matrix: with A = [[0, I], [J_r/m0, J_u/m0]] at a step's four stage
    states, K2 = A2 (I + h/2 A1), K3 = A3 (I + h/2 K2), K4 = A4 (I + h K3)
    and M = I + h/6 (A1 + 2 K2 + 2 K3 + K4).  ``J`` (n + 1, 3, 6) holds
    [dF/dr, dF/du] and ``F`` (n + 1, 3) the force at the samples.
    """
    key = (id(f), m0)
    lin = run0._linearizations.get(key)
    if lin is None:  # not solved with this f and m0: integrate it again, once
        if len(run0) < 2:
            raise ValueError("zero-order run too short")
        dts = np.diff(run0.t)
        t0, dt = float(run0.t[0]), float(dts[0])
        if not np.allclose(dts, dt, rtol=1e-9, atol=0.0):
            raise ValueError("zero-order run must be uniformly sampled")
        # a span half a step short of the last sample: exactly len(run0) - 1 steps
        span = (t0, t0 + (len(run0) - 1.5) * dt)
        again = zero_order_solve(f, run0.r[0], run0.u[0], m0, span, dt)
        scale = max(float(np.abs(run0.r).max()), 1.0)
        if not np.allclose(again.r, run0.r, rtol=0.0, atol=1e-9 * scale):
            raise ValueError("zero-order trajectory does not match its own re-integration")
        lin = run0._linearizations[key] = again._linearizations[key]
    if "M" in lin:
        return lin
    stages, t0, h = lin["stages"], lin["t0"], lin["dt"]
    n, eye = stages.shape[0], np.eye(6)
    M, J = np.empty((n, 6, 6)), np.empty((n + 1, 3, 6))
    for lo in range(0, n, _BLOCK):
        S = stages[lo:lo + _BLOCK]
        b = S.shape[0]
        ti = t0 + np.arange(lo, lo + b) * h
        T = np.stack([ti, ti + 0.5 * h, ti + 0.5 * h, ti + h], axis=1)
        jac = np.empty((b * 4, 3, 6))
        for j, (y, t) in enumerate(zip(S.reshape(-1, 6), T.ravel().tolist())):
            jac[j, :, :3], jac[j, :, 3:] = force_jacobians(f, (y[:3], y[3:], t))
        jac = jac.reshape(b, 4, 3, 6)
        J[lo:lo + b] = jac[:, 0]
        A = np.zeros((4, b, 6, 6))
        A[:, :, :3, 3:] = eye[:3, :3]
        A[:, :, 3:, :] = jac.transpose(1, 0, 2, 3) / m0
        K2 = A[1] @ (eye + 0.5 * h * A[0])
        K3 = A[2] @ (eye + 0.5 * h * K2)
        K4 = A[3] @ (eye + h * K3)
        M[lo:lo + b] = eye + (h / 6.0) * (A[0] + 2.0 * K2 + 2.0 * K3 + K4)
    # J at the samples: a step's first stage state is its sample, except where the
    # run was re-integrated; the last sample starts no step
    own = np.column_stack([run0.t, run0.r, run0.u])
    first = np.column_stack([t0 + np.arange(n) * h, stages[:, 0]])
    for k in [*np.flatnonzero((first != own[:-1]).any(axis=1)).tolist(), n]:
        J[k, :, :3], J[k, :, 3:] = force_jacobians(f, (run0.r[k], run0.u[k], run0.t[k]))
    F = np.array([f(r, u, t) for r, u, t in zip(run0.r, run0.u, run0.t)])
    del lin["stages"]
    lin.update(M=M, J=J, F=F)
    return lin


def correction_solve(
    run0: Trajectory, f: ForceLaw, r1_0, u1_0, m0: float
) -> Trajectory:
    """RK4 solution of the linear correction equation along a zero-order run.

    Integrates m0 * d^2 r1/dt^2 = (r1 . grad_r)F + (u1 . grad_u)F with the
    Jacobians at the zero-order RK4 stage states, as y_{k+1} = M_k y_k with
    the run's per-step propagators, built once per (f, m0).  A run that
    ``zero_order_solve`` did not produce with this ``f`` and ``m0`` is
    re-integrated once and checked against ``run0``.  The equation is
    homogeneous: a zero initial perturbation stays exactly zero, and
    solutions superpose.
    """
    if m0 <= 0.0:
        raise ValueError("rest mass must be positive")
    M = _linearization(run0, f, m0)["M"]
    ys = np.empty((len(run0), 6))
    ys[0, :3], ys[0, 3:] = r1_0, u1_0
    with np.errstate(over="ignore", invalid="ignore"):
        for k, Mk in enumerate(M):
            ys[k + 1] = Mk @ ys[k]
    bad = ~np.isfinite(ys).all(axis=1)
    if bad.any():
        raise ValueError(f"non-finite state at step {int(bad.argmax())}")
    return Trajectory(t=run0.t, r=ys[:, :3], u=ys[:, 3:])


def _time_force_series(run0: Trajectory, run1: Trajectory, f: ForceLaw, m0: float) -> np.ndarray:
    return (_linearization(run0, f, m0)["J"] @ np.hstack([run1.r, run1.u])[:, :, None])[:, :, 0]


def time_force(run: PerturbationRun, f: ForceLaw) -> np.ndarray:
    """The correction equation's right-hand side sampled along a run.

    Returns the (n, 3) series (r1 . grad_r)F + (u1 . grad_u)F evaluated with
    the Jacobians on the zero-order trajectory: the explicit extra force the
    slow-motion split attributes to the changed course of time.
    """
    return _time_force_series(run.zero_order, run.correction, f, run.m0)


def expansion_residual(f: ForceLaw, run: PerturbationRun) -> float:
    """Max-norm defect of the composite trajectory in the first-order equation.

    Substitutes r' = r0 + r1 into the expanded equation of motion

        m0*du'/dt + m0*d2u'/dt2 * (-v0*x') = F(r', u', t) + dF/dt * (-v0*x')

    with the first-order terms retained: m0*du'/dt is taken from the two
    integrated equations (zero order plus linear correction), F is the full
    force at the composite state, the time derivatives of the printed
    -v0*x' terms come from central differences of those series, and x' is
    the zero-order x0(t).  Because the -v0*x' driving terms cancel against
    the zero-order equation, what remains is the linearization remainder:
    identically zero for a linear force, O(|r1|^2) for a curved one.
    """
    run0, run1 = run.zero_order, run.correction
    t = run0.t
    if len(run0) < 3:
        raise ValueError("run too short for the derivative stencil")
    # m0 * du'/dt from the integrated equations, and F at the composite state
    lin = _linearization(run0, f, run.m0)["F"] + _time_force_series(run0, run1, f, run.m0)
    full = np.array([f(r, u, ti) for r, u, ti in zip(run0.r + run1.r, run0.u + run1.u, t)])
    defect = lin - full
    d_defect = (defect[2:] - defect[:-2]) / (t[2:] - t[:-2])[:, None]
    x0 = run0.r[1:-1, 0]
    series = defect[1:-1] + (-run.v0 * x0)[:, None] * d_defect
    return float(np.abs(series).max())


def solve_perturbation(
    f: ForceLaw,
    r0,
    u0,
    m0: float,
    t_span: tuple,
    dt: float,
    v0: float,
    r1_0=None,
    u1_0=None,
) -> PerturbationRun:
    """Zero-order solve, correction solve and time-force series in one call.

    The initial perturbation defaults to zero (the correction then stays
    identically zero); its physically natural magnitude is proportional to
    ``v0``, but the choice is the caller's.
    """
    zero = np.zeros(3)
    run0 = zero_order_solve(f, r0, u0, m0, t_span, dt)
    run1 = correction_solve(
        run0, f, zero if r1_0 is None else r1_0, zero if u1_0 is None else u1_0, m0
    )
    return PerturbationRun(
        zero_order=run0, correction=run1, v0=float(v0), m0=float(m0),
        time_force=_time_force_series(run0, run1, f, m0),
    )


def fit_power_law(x, y) -> float:
    """Least-squares exponent p of y ~ C * x**p on a log-log scale."""
    lx, ly = np.log(np.asarray(x, dtype=float)), np.log(np.asarray(y, dtype=float))
    return float(np.polyfit(lx, ly, 1)[0])


def residual_sweep(
    f: ForceLaw,
    r0,
    u0,
    m0: float,
    t_span: tuple,
    dt: float,
    v0_values,
    seed_direction=(1.0, 0.0, 0.0),
) -> tuple[np.ndarray, float]:
    """Expansion residual versus boost speed, with the fitted scaling exponent.

    The zero-order run is solved once.  For each v0 the correction along it
    is seeded with r1(0) = v0 * seed_direction (the correction's natural
    magnitude scales with the boost speed) and the residual of the composite
    trajectory is recorded.  Returns the residual array and the fitted
    log-log exponent; for a force with curvature the remainder is quadratic
    in the seed, so the exponent lands near 2, and any value >= ~1 confirms
    the expansion error vanishes with v0.
    """
    seed = np.asarray(seed_direction, dtype=float)
    run0 = zero_order_solve(f, r0, u0, m0, t_span, dt)
    residuals = []
    for v0 in v0_values:
        run1 = correction_solve(run0, f, float(v0) * seed, np.zeros(3), m0)
        run = PerturbationRun(run0, run1, float(v0), float(m0),
                              _time_force_series(run0, run1, f, m0))
        residuals.append(expansion_residual(f, run))
    residuals = np.asarray(residuals)
    return residuals, fit_power_law(np.asarray(v0_values, dtype=float), residuals)
