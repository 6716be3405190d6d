"""Time-course maps dt = g(t')*dt' along worldlines, by three independent routes.

The ratio g of infinitesimal frame-time intervals along a moving particle's
trajectory can be computed

* kinematically, from the coordinate map:   g = gamma*(1 + v0*ux'(t')),
* as a velocity ratio:                      g = sqrt((1 - u'^2)/(1 - u^2)),
* dynamically, from the 4-force: boost the K'-frame 4-force to K and divide
  component-wise by the K-frame 4-force evaluated on the boosted state.

All three must agree; the dynamic route additionally checks that the ratio
is the same for every non-degenerate 4-force component.  Degenerate
components (4-force entries crossing zero, e.g. at cyclotron nodes) are
excluded rather than allowed to amplify roundoff.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dynamics import FieldConfig, boost_field_config
from .frames import Boost, Worldline, _boost_velocities, _require_frame, _write_csv

__all__ = [
    "TimeMap",
    "DegenerateForceError",
    "TimeMapInconsistencyError",
    "IndexIndependenceReport",
    "time_map_kinematic",
    "time_map_dynamic",
    "time_map_ratio",
    "index_independence_report",
    "period_map_numeric",
    "simultaneity_series",
    "save_time_map_csv",
]

#: Fraction of the local 4-force scale below which a component is
#: considered degenerate and excluded from the dynamic ratio.
DEGENERACY_THRESHOLD = 1e-9
#: Widest spread allowed among a sample's defined dynamic ratios g_i.
SPREAD_TOL = 1e-6
#: Largest relative residual the equations-of-motion spot-check allows.
MOTION_CHECK_TOL = 1e-3


class DegenerateForceError(ValueError):
    """Every 4-force component is below the degeneracy threshold."""


class TimeMapInconsistencyError(ValueError):
    """Well-defined dynamic ratios g_i disagree beyond tolerance."""


@dataclass(frozen=True)
class TimeMap:
    """Sampled time-course ratio along a worldline plus its running integral.

    ``t_accumulated`` is the K-time elapsed since the first sample
    (cumulative Simpson quadrature of g over t'); it is strictly increasing
    because g >= gamma*(1 - |v0|) > 0 for subluminal motion.
    """

    t_prime: np.ndarray
    g: np.ndarray
    t_accumulated: np.ndarray
    v0: float
    provenance: str

    def __post_init__(self):
        tp = np.asarray(self.t_prime, dtype=float)
        g = np.asarray(self.g, dtype=float)
        ta = np.asarray(self.t_accumulated, dtype=float)
        if not (tp.shape == g.shape == ta.shape) or tp.ndim != 1:
            raise ValueError("t_prime, g, t_accumulated must be equal-length 1-d arrays")
        if not np.all(g > 0.0):
            raise ValueError("time-course ratio must be positive at every sample")
        if not np.all(np.diff(ta) > 0.0):
            raise ValueError("accumulated time must be strictly increasing")
        for a in (tp, g, ta):
            a.flags.writeable = False
        object.__setattr__(self, "t_prime", tp)
        object.__setattr__(self, "g", g)
        object.__setattr__(self, "t_accumulated", ta)


def _simpson_h1(y: np.ndarray, dx: np.ndarray) -> np.ndarray:
    """Integrals over [x_i, x_i+1] of the parabola through samples i, i+1, i+2.

    Eqn (8) of Cartwright, J. Math. Sci. Math. Educ. 12(2) (2017); applied
    to the reversed arrays it gives the integrals over [x_i+1, x_i+2].
    """
    x21, x32 = dx[:-1], dx[1:]
    x21_x31 = x21 / (x21 + x32)
    x21x21_x31x32 = x21_x31 * (x21 / x32)
    return x21 / 6 * (
        (3 - x21_x31) * y[:-2]
        + (3 + x21x21_x31x32 + x21_x31) * y[1:-1]
        - x21x21_x31x32 * y[2:]
    )


def _accumulate(t_prime: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Cumulative Simpson integral of g over t', starting at 0.

    Each sub-interval takes its own parabola: the forward one (h1) on even
    sub-intervals, the backward one (h2) on odd ones and on the last.  The
    order of operations is scipy's ``cumulative_simpson(g, x=t_prime,
    initial=0.0)``, whose results this reproduces bit for bit; below three
    samples it falls back to trapezoids, as scipy does.
    """
    dx = np.diff(t_prime)
    if len(g) < 3:
        pieces = dx * (g[1:] + g[:-1]) / 2.0
    else:
        h1 = _simpson_h1(g, dx)
        h2 = _simpson_h1(g[::-1], dx[::-1])[::-1]
        pieces = np.empty(len(dx))
        pieces[:-1:2] = h1[::2]
        pieces[1::2] = h2[::2]
        pieces[-1] = h2[-1]
    return np.concatenate(([0.0], np.cumsum(pieces)))


def time_map_kinematic(w_prime: Worldline, b: Boost) -> TimeMap:
    """Time-course map from the worldline's x-velocity: g = gamma*(1 + v0*ux')."""
    _require_frame(w_prime.frame_tag, b.frame_prime, "worldline")
    g = b.gamma * (1.0 + b.v0 * w_prime.u[:, 0])
    return TimeMap(
        t_prime=w_prime.t,
        g=g,
        t_accumulated=_accumulate(w_prime.t, g),
        v0=b.v0,
        provenance="kinematic",
    )


def time_map_ratio(w_prime: Worldline, b: Boost) -> TimeMap:
    """Time-course map as the velocity ratio sqrt((1 - u'^2)/(1 - u^2)).

    ``u`` is the K-frame velocity obtained by boosting each sample; the
    result is algebraically identical to the kinematic form.
    """
    _require_frame(w_prime.frame_tag, b.frame_prime, "worldline")
    up2 = np.sum(w_prime.u * w_prime.u, axis=1)
    ux, uy, uz = _boost_velocities(w_prime.u, b.v0, b.gamma).T
    u2 = ux * ux + uy * uy + uz * uz
    g = np.sqrt((1.0 - up2) / (1.0 - u2))
    return TimeMap(
        t_prime=w_prime.t,
        g=g,
        t_accumulated=_accumulate(w_prime.t, g),
        v0=b.v0,
        provenance="ratio",
    )


def _four_forces_both_frames(w_prime: Worldline, f_prime: FieldConfig, b: Boost):
    """Per-sample 4-forces: (f' in K', L f' boosted to K, f evaluated in K).

    Vectorized over the worldline.  The charge is taken as 1; it cancels in
    every ratio, so the dynamic map is charge-independent.
    """
    E_p, B_p = f_prime.E, f_prime.B
    u_p = w_prime.u
    # K'-frame 4-force per unit charge: (E'.u', E' + u' x B')
    fp = np.empty((len(w_prime), 4))
    fp[:, 0] = u_p @ E_p
    fp[:, 1:] = E_p + np.cross(u_p, B_p)
    # numerator: boost the 4-force components to K
    L = b.matrix("forward")
    num = fp @ L.T
    # denominator: K-frame 4-force on the boosted state in the boosted fields
    f_lab = boost_field_config(f_prime, b, "forward")
    u = _boost_velocities(u_p, b.v0, b.gamma)
    fl = np.empty((len(w_prime), 4))
    fl[:, 0] = u @ f_lab.E
    fl[:, 1:] = f_lab.E + np.cross(u, f_lab.B)
    return fp, num, fl


def _check_solves_motion(w: Worldline, f: FieldConfig, m0: float, e: float):
    """Spot-check dp/dt ~ e*(E + u x B) by central differences."""
    if len(w) < 3:
        raise ValueError(f"dynamic time map needs at least 3 samples, got {len(w)}")
    u2 = np.sum(w.u * w.u, axis=1)
    p = m0 * w.u / np.sqrt(1.0 - u2)[:, None]
    dp = (p[2:] - p[:-2]) / (w.t[2:] - w.t[:-2])[:, None]
    force = e * (f.E + np.cross(w.u[1:-1], f.B))
    scale = max(float(np.abs(force).max()), 1e-30)
    err = float(np.abs(dp - force).max()) / scale
    if err > MOTION_CHECK_TOL:
        raise ValueError(
            f"worldline does not solve the equations of motion in this field "
            f"(relative residual {err:.3e} > {MOTION_CHECK_TOL:.1e})"
        )


def _dynamic_ratio_table(
    w_prime: Worldline, f_prime: FieldConfig, b: Boost, m0: float, e: float, threshold: float
):
    """Shared front half of the dynamic route: per-sample ratio candidates.

    Returns (num, denom, defined, ratios, spread) with NaN marking excluded
    (near-degenerate) components.  Raises on frame mismatch, a worldline
    that does not solve the motion, an everywhere-degenerate force, or
    defined components that spread wider than ``SPREAD_TOL``.
    """
    _require_frame(w_prime.frame_tag, b.frame_prime, "worldline")
    _require_frame(f_prime.frame_tag, w_prime.frame_tag, "fields")
    _check_solves_motion(w_prime, f_prime, m0, e)
    _, num, denom = _four_forces_both_frames(w_prime, f_prime, b)
    scale = np.abs(denom).max(axis=1)
    if not np.all(scale > 0.0):
        raise DegenerateForceError(
            "zero 4-force: the dynamic route needs a nonvanishing force"
        )
    defined = np.abs(denom) > threshold * scale[:, None]
    if not np.all(defined.any(axis=1)):
        raise DegenerateForceError(
            "zero 4-force: every component is below the degeneracy threshold"
        )
    with np.errstate(divide="ignore", invalid="ignore"):
        ratios = np.where(defined, num / denom, np.nan)
    spread = np.nanmax(ratios, axis=1) - np.nanmin(ratios, axis=1)
    worst = float(np.max(spread))
    if worst > SPREAD_TOL:
        raise TimeMapInconsistencyError(
            f"4-force component ratios disagree: max spread {worst:.3e} > {SPREAD_TOL:.1e}"
        )
    return num, denom, defined, ratios, spread


def time_map_dynamic(
    w_prime: Worldline,
    f_prime: FieldConfig,
    b: Boost,
    m0: float = 1.0,
    e: float = 1.0,
) -> TimeMap:
    """Time-course map extracted from 4-force component ratios.

    For every sample the K'-frame 4-force f'^k is boosted to K and divided,
    component by component, by the K-frame 4-force f^i on the boosted state:
    each well-defined ratio equals dt/dt'.  Components with |f^i| below
    ``DEGENERACY_THRESHOLD`` times the local force scale are excluded; a
    sample with no surviving component (e.g. a free particle) raises
    :class:`DegenerateForceError`, and surviving ratios that disagree by
    more than ``SPREAD_TOL`` raise :class:`TimeMapInconsistencyError`.

    The returned g takes, per sample, the ratio at the best-conditioned
    component (largest |f^i|), which is immune to the roundoff blow-up that
    near-degenerate components suffer.  A precondition spot-check, bounded
    by ``MOTION_CHECK_TOL``, confirms that the worldline solves the motion
    for a particle (m0, e) in ``f_prime``; the charge cancels in the ratios
    themselves.
    """
    num, denom, _, _, _ = _dynamic_ratio_table(w_prime, f_prime, b, m0, e, DEGENERACY_THRESHOLD)
    best = np.argmax(np.abs(denom), axis=1)
    rows = np.arange(len(w_prime))
    g = num[rows, best] / denom[rows, best]
    return TimeMap(
        t_prime=w_prime.t,
        g=g,
        t_accumulated=_accumulate(w_prime.t, g),
        v0=b.v0,
        provenance="dynamic",
    )


@dataclass(frozen=True)
class IndexIndependenceReport:
    """Per-sample agreement of the four dynamic ratios g_i.

    ``ratios`` is (n, 4) with NaN at degenerate components; ``spread`` is
    the per-sample max - min over defined components and ``n_defined``
    counts them.  ``max_spread`` summarizes the whole worldline.
    """

    t_prime: np.ndarray
    ratios: np.ndarray
    spread: np.ndarray
    n_defined: np.ndarray
    max_spread: float


def index_independence_report(
    w_prime: Worldline,
    f_prime: FieldConfig,
    b: Boost,
    m0: float = 1.0,
    e: float = 1.0,
    threshold: float = DEGENERACY_THRESHOLD,
) -> IndexIndependenceReport:
    """Measure how index-independent the dynamic ratios g_i really are.

    Raises :class:`TimeMapInconsistencyError` if any sample's defined
    components spread wider than ``SPREAD_TOL``; raising ``threshold``
    trades coverage near force nodes for a tighter spread.
    """
    _, _, defined, ratios, spread = _dynamic_ratio_table(w_prime, f_prime, b, m0, e, threshold)
    return IndexIndependenceReport(
        t_prime=w_prime.t,
        ratios=ratios,
        spread=spread,
        n_defined=defined.sum(axis=1),
        max_spread=float(np.max(spread)),
    )


def _solve_tridiagonal(a: np.ndarray, b: np.ndarray, c: np.ndarray, d: np.ndarray) -> np.ndarray:
    """Solve a[i] x[i-1] + b[i] x[i] + c[i] x[i+1] = d[i] by cyclic reduction.

    ``d`` is (k, n), one right-hand side per row; a[0] and c[-1] are
    ignored.  Each level folds the even unknowns into the odd equations,
    solves that half-size system and back-substitutes the even unknowns, all
    as array operations.  There is no pivoting: the matrix must be diagonally
    dominant, which the folding preserves.
    """
    n = len(b)
    if n == 1:
        return d / b
    if n % 2 == 0:  # an identity row x[n] = 0 gives every odd row two neighbours
        a, b, c = np.append(a, 0.0), np.append(b, 1.0), np.append(c, 0.0)
        d = np.concatenate([d, np.zeros_like(d[:, :1])], axis=1)
    ae, be, ce, de = a[::2], b[::2], c[::2], d[:, ::2]
    ao, bo, co, do = a[1::2], b[1::2], c[1::2], d[:, 1::2]
    left = -ao / be[:-1]  # odd row k against even row k
    right = -co / be[1:]  # odd row k against even row k + 1
    xo = _solve_tridiagonal(
        left * ae[:-1],
        bo + left * ce[:-1] + right * ae[1:],
        right * ce[1:],
        do + left * de[:, :-1] + right * de[:, 1:],
    )
    xe = de.copy()
    xe[:, 1:] -= ae[1:] * xo
    xe[:, :-1] -= ce[:-1] * xo
    x = np.empty_like(d)
    x[:, ::2] = xe / be
    x[:, 1::2] = xo
    return x[:, :n]


class _CubicSpline:
    """Not-a-knot cubic spline through (x, y[j]) for each row y[j] of y (k, n).

    The knot slopes solve the tridiagonal system that scipy's ``CubicSpline``
    builds (de Boor, *A Practical Guide to Splines*, ch. IV).  As there, two
    samples give the line and three the interpolating parabola, where the
    two not-a-knot conditions coincide.
    """

    def __init__(self, x: np.ndarray, y: np.ndarray):
        n = len(x)
        dx = np.diff(x)
        slope = np.diff(y) / dx
        s = np.empty_like(y)
        if n == 2:
            s[:] = slope
        elif n == 3:
            s[:, 1] = (dx[1] * slope[:, 0] + dx[0] * slope[:, 1]) / (x[2] - x[0])
            s[:, 0] = 2 * slope[:, 0] - s[:, 1]
            s[:, 2] = 2 * slope[:, 1] - s[:, 1]
        else:
            # interior rows: dx[i] s[i-1] + 2 (dx[i-1] + dx[i]) s[i] + dx[i-1] s[i+1]
            diag = 2 * (dx[:-1] + dx[1:])
            rhs = 3 * (dx[1:] * slope[:, :-1] + dx[:-1] * slope[:, 1:])
            # not-a-knot end rows: dx[1] s[0] + d0 s[1] = r0 and
            # dn s[n-2] + dx[-2] s[n-1] = rn.  Their s[0] and s[n-1]
            # coefficients equal those in the neighbouring interior rows, so
            # subtracting them leaves a diagonally dominant system in s[1:-1].
            d0, dn = x[2] - x[0], x[-1] - x[-3]
            r0 = ((dx[0] + 2 * d0) * dx[1] * slope[:, 0] + dx[0] ** 2 * slope[:, 1]) / d0
            rn = (dx[-1] ** 2 * slope[:, -2] + (2 * dn + dx[-1]) * dx[-2] * slope[:, -1]) / dn
            diag[0] -= d0
            diag[-1] -= dn
            rhs[:, 0] -= r0
            rhs[:, -1] -= rn
            s[:, 1:-1] = _solve_tridiagonal(dx[1:], diag, dx[:-1], rhs)
            s[:, 0] = (r0 - d0 * s[:, 1]) / dx[1]
            s[:, -1] = (rn - dn * s[:, -2]) / dx[-2]
        self.x, self.y, self.s = x, y, s

    def _pieces(self, p):
        """Interval index, offset from its left knot and its power-basis
        coefficients in (x - x[i]), highest first, at the points p."""
        i = np.clip(np.searchsorted(self.x, p, side="right") - 1, 0, len(self.x) - 2)
        dx = self.x[i + 1] - self.x[i]
        y0, s0, s1 = self.y[:, i], self.s[:, i], self.s[:, i + 1]
        slope = (self.y[:, i + 1] - y0) / dx
        t = (s0 + s1 - 2 * slope) / dx
        return i, p - self.x[i], (t / dx, (slope - s0) / dx - t, s0, y0)

    def __call__(self, p: np.ndarray) -> np.ndarray:
        _, h, (c3, c2, c1, c0) = self._pieces(p)
        return ((c3 * h + c2) * h + c1) * h + c0

    def integrate(self, a: float, b: float) -> np.ndarray:
        """Integral over [a, b] (a <= b, both within the knots), per row."""
        ia, ha, ca = self._pieces(a)
        ib, hb, cb = self._pieces(b)
        dx = np.diff(self.x[ia : ib + 1])
        y, s = self.y[:, ia : ib + 1], self.s[:, ia : ib + 1]
        # the Hermite rule is exact for the cubic on each whole interval
        whole = dx / 2 * (y[:, :-1] + y[:, 1:]) + dx * dx / 12 * (s[:, :-1] - s[:, 1:])
        return whole.sum(axis=1) + _antiderivative(cb, hb) - _antiderivative(ca, ha)


def _antiderivative(c, h):
    """Integral from 0 to h of the cubic with power-basis coefficients c."""
    c3, c2, c1, c0 = c
    return (((c3 / 4 * h + c2 / 3) * h + c1 / 2) * h + c0) * h


def period_map_numeric(
    w_prime: Worldline,
    b: Boost,
    T_prime: float,
    t0_prime: float,
    window: float = 1.0,
    periodicity_tol: float = 1e-6,
) -> float:
    """Integrate the kinematic g over [t0', t0' + window*T'] of a periodic motion.

    The worldline must cover the window and repeat with period ``T_prime``
    (velocity checked at matching phases).  A full window (window = 1) is
    independent of ``t0_prime``; a half window oscillates with it.  The
    integrand is interpolated with a not-a-knot cubic spline, so
    ``t0_prime`` need not sit on a grid point.
    """
    _require_frame(w_prime.frame_tag, b.frame_prime, "worldline")
    if T_prime <= 0.0:
        raise ValueError("period must be positive")
    t = w_prime.t
    t_end = t0_prime + window * T_prime
    if t0_prime < t[0] or t_end > t[-1]:
        raise ValueError(
            f"window [{t0_prime}, {t_end}] not covered by worldline [{t[0]}, {t[-1]}]"
        )
    if t[-1] - t[0] < T_prime:
        raise ValueError("worldline shorter than one period; cannot verify periodicity")
    # one spline for g and u, which share the grid
    g = b.gamma * (1.0 + b.v0 * w_prime.u[:, 0])
    spline = _CubicSpline(t, np.vstack([g, w_prime.u.T]))
    # periodicity spot-check: u(t) must repeat one period later
    probes = np.linspace(t[0], t[-1] - T_prime, 7)
    u = spline(np.concatenate([probes, probes + T_prime]))[1:]
    miss = float(np.abs(u[:, :7] - u[:, 7:]).max())
    if miss > periodicity_tol:
        raise ValueError(
            f"worldline is not T'-periodic: velocity mismatch {miss:.3e} "
            f"over one period exceeds {periodicity_tol:.1e}"
        )
    return float(spline.integrate(t0_prime, t_end)[0])


def simultaneity_series(w1_prime: Worldline, w2_prime: Worldline, b: Boost) -> np.ndarray:
    """K-frame time splits t2 - t1 of events simultaneous in K', per sample.

    Both worldlines must share the t' grid (and the frame).  Each pair of
    equal-t' events maps to K times differing by gamma*v0*(x2' - x1').
    Returns an (n, 2) array of (t', t2 - t1).
    """
    _require_frame(w1_prime.frame_tag, b.frame_prime, "first worldline")
    _require_frame(w2_prime.frame_tag, b.frame_prime, "second worldline")
    if w1_prime.t.shape != w2_prime.t.shape or not np.array_equal(w1_prime.t, w2_prime.t):
        raise ValueError("worldlines must be sampled on the same t' grid")
    dt = b.gamma * b.v0 * (w2_prime.r[:, 0] - w1_prime.r[:, 0])
    return np.column_stack([w1_prime.t, dt])


TIME_MAP_CSV_HEADER = ["t_prime", "g", "t"]


def save_time_map_csv(tm: TimeMap, path) -> None:
    """Write a time map as CSV (t_prime, g, accumulated t), full precision."""
    _write_csv(path, TIME_MAP_CSV_HEADER, [tm.t_prime, tm.g, tm.t_accumulated])
