"""The three time-map routes, their cross-agreement, and the generalized maps."""

import math

import numpy as np
import pytest
from scipy.integrate import cumulative_simpson
from scipy.interpolate import CubicSpline

from chronodyn.analytic import (
    CyclotronParams,
    OscDriftParams,
    UniformEParams,
    cyclotron_state,
    cyclotron_worldline,
    electric_time_map,
    magnetic_half_period_map,
    osc_drift_period_map,
    osc_drift_worldline,
    simultaneity_difference,
    uniform_e_worldline,
)
from chronodyn.chronometry import (
    DegenerateForceError,
    _accumulate,
    _CubicSpline,
    TimeMap,
    index_independence_report,
    period_map_numeric,
    save_time_map_csv,
    simultaneity_series,
    time_map_dynamic,
    time_map_kinematic,
    time_map_ratio,
)
from chronodyn.dynamics import FieldConfig, IntegratorConfig, ParticleState, integrate
from chronodyn.frames import Boost, FrameMismatchError, Worldline, boost_worldline


def _rest_worldline(n=201, span=10.0):
    t = np.linspace(0.0, span, n)
    return Worldline(
        frame_tag="Kprime", t=t, r=np.zeros((n, 3)), u=np.zeros((n, 3))
    )


def _cyclotron(u0=0.3, alpha=0.3, periods=1.0, n=2001):
    p = CyclotronParams(u0_prime=u0, B_prime=1.0, alpha=alpha)
    w = cyclotron_worldline(p, 0.0, periods * p.period_prime, n)
    f = FieldConfig(E=np.zeros(3), B=np.array([0.0, 0.0, 1.0]))
    return p, w, f


# -- kinematic route ---------------------------------------------------------

def test_kinematic_rest_particle():
    b = Boost(0.5)
    w = _rest_worldline()
    tm = time_map_kinematic(w, b)
    assert np.abs(tm.g - b.gamma).max() == 0.0
    assert tm.t_accumulated[-1] == pytest.approx(b.gamma * 10.0, rel=1e-12)
    assert tm.provenance == "kinematic"


def test_kinematic_cyclotron_profile():
    b = Boost(0.6)
    p, w, _ = _cyclotron()
    tm = time_map_kinematic(w, b)
    phi = p.omega_prime * w.t + p.alpha
    expected = b.gamma * (1.0 + b.v0 * p.u0_prime * np.cos(phi))
    assert np.abs(tm.g - expected).max() < 1e-14


def test_accumulated_time_matches_direct_map():
    # cumulative quadrature of g versus gamma*(t' + v0*x'(t')) - start value
    b = Boost(0.7)
    p, w, _ = _cyclotron(periods=2.0, n=4001)
    tm = time_map_kinematic(w, b)
    direct = b.gamma * (w.t + b.v0 * w.r[:, 0])
    assert np.abs(tm.t_accumulated - (direct - direct[0])).max() < 1e-9


def test_kinematic_rejects_wrong_frame():
    w = _rest_worldline()
    b = Boost(0.5)
    with pytest.raises(FrameMismatchError):
        time_map_kinematic(boost_worldline(w, b), b)


# -- ratio route -------------------------------------------------------------

def test_ratio_rest_and_hand_value():
    b = Boost(0.5)
    tm = time_map_ratio(_rest_worldline(), b)
    assert np.abs(tm.g - b.gamma).max() < 1e-15

    # constant u' = (0.3, 0.4, 0) at v0 = 0.5: g = 1.327906
    n = 11
    t = np.linspace(0.0, 1.0, n)
    u = np.tile([0.3, 0.4, 0.0], (n, 1))
    w = Worldline(frame_tag="Kprime", t=t, r=np.outer(t, [0.3, 0.4, 0.0]), u=u)
    tm = time_map_ratio(w, b)
    assert np.abs(tm.g - 1.327906).max() < 5e-7


def test_ratio_equals_kinematic_everywhere():
    b = Boost(-0.8)
    p = OscDriftParams(
        a_prime=np.array([0.2, 0.1, 0.05]),
        omega_prime=1.3,
        u0_prime=np.array([0.15, -0.2, 0.1]),
    )
    w = osc_drift_worldline(p, 0.0, 3.0 * p.period_prime, 2001)
    g_kin = time_map_kinematic(w, b).g
    g_rat = time_map_ratio(w, b).g
    assert np.abs(g_kin - g_rat).max() < 1e-12


# -- dynamic route -----------------------------------------------------------

def test_dynamic_matches_kinematic_on_cyclotron():
    b = Boost(0.5)
    _, w, f = _cyclotron()
    g_dyn = time_map_dynamic(w, f, b).g
    g_kin = time_map_kinematic(w, b).g
    assert np.abs(g_dyn - g_kin).max() < 1e-9


def test_dynamic_matches_closed_form_on_uniform_e():
    b = Boost(0.4)
    p = UniformEParams(E_prime=np.array([0.7, 0.2, 0.0]))
    w = uniform_e_worldline(p, -2.0, 2.0, 2001)
    f = FieldConfig(E=p.E_prime, B=np.zeros(3))
    g_dyn = time_map_dynamic(w, f, b).g
    expected = electric_time_map(p, b, w.t)
    assert np.abs(g_dyn - expected).max() < 1e-9


def test_dynamic_rejects_zero_force():
    w = _rest_worldline()
    f = FieldConfig(E=np.zeros(3), B=np.zeros(3))
    with pytest.raises(DegenerateForceError):
        time_map_dynamic(w, f, Boost(0.5))


def test_dynamic_rejects_wrong_field():
    # a cyclotron worldline does not solve the motion in a sideways field
    _, w, _ = _cyclotron()
    wrong = FieldConfig(E=np.array([2.0, 0.0, 0.0]), B=np.array([0.0, 0.0, 1.0]))
    with pytest.raises(ValueError, match="equations of motion"):
        time_map_dynamic(w, wrong, Boost(0.5))


def test_index_independence_on_cyclotron():
    b = Boost(0.5)
    _, w, f = _cyclotron()
    report = index_independence_report(w, f, b, threshold=1e-3)
    assert report.max_spread < 1e-9
    # planar motion in an axial field has an identically zero z 4-force, so
    # at most three components can ever participate; off the nodes they do
    assert report.n_defined.max() == 3
    assert np.all(np.isnan(report.ratios[:, 3]))
    assert report.ratios.shape == (len(w), 4)


def test_index_independence_pure_e_motion_along_x():
    # E and motion both along x: transverse 4-force vanishes, components
    # 0 and 1 survive and agree
    b = Boost(0.5)
    p = UniformEParams(E_prime=np.array([1.0, 0.0, 0.0]))
    w = uniform_e_worldline(p, 0.5, 3.0, 1501)  # away from the rest point
    f = FieldConfig(E=p.E_prime, B=np.zeros(3))
    report = index_independence_report(w, f, b)
    assert np.all(report.n_defined == 2)
    assert np.all(np.isnan(report.ratios[:, 2]))
    assert np.all(np.isnan(report.ratios[:, 3]))
    assert report.max_spread < 1e-12


def test_index_independence_on_integrated_worldline():
    # randomized homogeneous fields, numerically integrated worldline
    rng = np.random.default_rng(31)
    f = FieldConfig(E=rng.uniform(-0.5, 0.5, 3), B=rng.uniform(-1, 1, 3))
    s0 = ParticleState(t=0.0, r=np.zeros(3), u=[0.2, -0.1, 0.15])
    w = integrate(s0, f, IntegratorConfig(dt=2e-3, n_steps=2000))
    report = index_independence_report(w, f, Boost(0.6), threshold=1e-3)
    assert report.max_spread < 1e-9
    assert report.n_defined.max() == 4  # generic fields exercise every component


# -- period map --------------------------------------------------------------

def test_period_map_full_window_start_independent():
    b = Boost(0.45)
    p, w, _ = _cyclotron(periods=2.2, n=4401)
    t_p = p.period_prime
    rng = np.random.default_rng(32)
    values = [
        period_map_numeric(w, b, t_p, float(t0), window=1.0)
        for t0 in rng.uniform(0.0, t_p, size=10)
    ]
    assert max(values) - min(values) < 1e-9
    assert values[0] == pytest.approx(b.gamma * t_p, rel=1e-10)


def test_period_map_half_window_oscillates():
    b = Boost(0.5)
    p, w, _ = _cyclotron(periods=1.7, n=3401)
    t_p = p.period_prime
    for t0 in (0.0, 0.21 * t_p, 0.6 * t_p):
        got = period_map_numeric(w, b, t_p, t0, window=0.5)
        assert got == pytest.approx(magnetic_half_period_map(p, b, t0), abs=1e-9)


def test_period_map_osc_drift_law():
    p = OscDriftParams(
        a_prime=np.array([0.2, 0.0, 0.0]),
        omega_prime=1.0,
        u0_prime=np.array([0.3, 0.1, 0.0]),
    )
    b = Boost(0.5)
    t_p, t_lab = osc_drift_period_map(p, b)
    w = osc_drift_worldline(p, 0.0, 1.3 * t_p, 2601)
    got = period_map_numeric(w, b, t_p, 0.0, window=1.0)
    assert got == pytest.approx(t_lab, rel=1e-10)


def test_period_map_rejects_non_periodic():
    b = Boost(0.5)
    p = UniformEParams(E_prime=np.array([1.0, 0.0, 0.0]))
    w = uniform_e_worldline(p, 0.0, 10.0, 1001)
    with pytest.raises(ValueError, match="periodic"):
        period_map_numeric(w, b, 5.0, 0.0, window=1.0)


def test_period_map_rejects_uncovered_window():
    b = Boost(0.5)
    p, w, _ = _cyclotron(periods=1.0, n=1001)
    with pytest.raises(ValueError, match="not covered"):
        period_map_numeric(w, b, p.period_prime, 0.5 * p.period_prime, window=1.0)


# -- the in-package quadrature against the scipy routines it replaced ---------

def _sampled_orbit(n, uniform):
    """1.5 periods of a cyclotron orbit on n knots, uniform or jittered."""
    p = CyclotronParams(u0_prime=0.3, B_prime=1.0, alpha=0.3)
    t = np.linspace(0.0, 1.5 * p.period_prime, n)
    if not uniform:
        t[1:-1] += np.random.default_rng(n).uniform(-0.3, 0.3, n - 2) * (t[1] - t[0])
    r, u = cyclotron_state(p, t)
    return p, Worldline(frame_tag="Kprime", t=t, r=r, u=u)


@pytest.mark.parametrize("uniform", [True, False], ids=["uniform", "random"])
@pytest.mark.parametrize("n", [2, 3, 4, 5, 100, 3001])
def test_accumulate_is_scipy_cumulative_simpson(n, uniform):
    rng = np.random.default_rng(n)
    t = np.linspace(0.0, 3.0, n) if uniform else np.cumsum(rng.uniform(0.1, 1.0, n))
    g = rng.uniform(0.5, 2.0, n)
    assert np.array_equal(_accumulate(t, g), cumulative_simpson(g, x=t, initial=0.0))


@pytest.mark.parametrize("uniform", [True, False], ids=["uniform", "jittered"])
@pytest.mark.parametrize("n", [2, 3, 4, 5, 3001])
def test_period_map_integral_matches_scipy_spline(n, uniform):
    p, w = _sampled_orbit(n, uniform)
    b = Boost(0.6)
    t_p = p.period_prime
    ref = CubicSpline(w.t, b.gamma * (1.0 + b.v0 * w.u[:, 0]))
    # a knot (the first one on short grids) and a point between knots
    for t0 in (w.t[(n - 1) // 6], 0.37 * t_p):
        for window in (1.0, 0.5):
            got = period_map_numeric(w, b, t_p, t0, window=window, periodicity_tol=np.inf)
            assert got == pytest.approx(ref.integrate(t0, t0 + window * t_p), rel=1e-14, abs=0)


@pytest.mark.parametrize("uniform", [True, False], ids=["uniform", "jittered"])
@pytest.mark.parametrize("n", [2, 3, 4, 5, 3001])
def test_spline_velocity_at_periodicity_probes_matches_scipy(n, uniform):
    p, w = _sampled_orbit(n, uniform)
    probes = np.linspace(w.t[0], w.t[-1] - p.period_prime, 7)
    probes = np.concatenate([probes, probes + p.period_prime])
    got = _CubicSpline(w.t, w.u.T)(probes).T
    assert np.abs(got - CubicSpline(w.t, w.u, axis=0)(probes)).max() < 1e-14


# -- simultaneity series -----------------------------------------------------

def test_simultaneity_series_identical_is_zero():
    _, w, _ = _cyclotron()
    series = simultaneity_series(w, w, Boost(0.7))
    assert np.abs(series[:, 1]).max() == 0.0


def test_simultaneity_series_matches_closed_form():
    b = Boost(0.6)
    p1 = CyclotronParams(u0_prime=0.3, B_prime=1.0, alpha=0.1)
    p2 = CyclotronParams(u0_prime=0.3, B_prime=1.0, alpha=1.4)
    t_p = p1.period_prime
    w1 = cyclotron_worldline(p1, 0.0, 2.0 * t_p, 1001)
    w2 = cyclotron_worldline(p2, 0.0, 2.0 * t_p, 1001)
    series = simultaneity_series(w1, w2, b)
    closed = simultaneity_difference(p1, p2, b, series[:, 0])
    assert np.abs(series[:, 1] - closed).max() < 1e-12
    # sign changes happen because the envelope is nonzero
    signs = np.sign(series[:, 1])
    assert np.sum(signs[:-1] * signs[1:] < 0) == 4  # two per period


def test_simultaneity_series_rejects_grid_mismatch():
    _, w, _ = _cyclotron(n=1001)
    _, w2, _ = _cyclotron(n=1002)
    with pytest.raises(ValueError, match="grid"):
        simultaneity_series(w, w2, Boost(0.5))


# -- frame-swap reciprocity --------------------------------------------------

def test_time_map_round_trip_through_frames():
    # map K' -> K, then apply the inverse-boost map along the boosted
    # worldline: pointwise product is 1 and the composed elapsed time returns
    b = Boost(0.6)
    p, w, _ = _cyclotron(periods=1.5, n=3001)
    tm_fwd = time_map_kinematic(w, b)
    w_lab = boost_worldline(w, b)
    tm_back = time_map_kinematic(w_lab, b.inverse())
    assert np.abs(tm_fwd.g * tm_back.g - 1.0).max() < 1e-12
    elapsed_prime = w.t[-1] - w.t[0]
    assert tm_back.t_accumulated[-1] == pytest.approx(elapsed_prime, rel=1e-9)


# -- TimeMap container and CSV -----------------------------------------------

def test_time_map_validation():
    with pytest.raises(ValueError):
        TimeMap(
            t_prime=[0.0, 1.0], g=[1.0, -1.0], t_accumulated=[0.0, 1.0],
            v0=0.5, provenance="kinematic",
        )
    with pytest.raises(ValueError):
        TimeMap(
            t_prime=[0.0, 1.0], g=[1.0, 1.0], t_accumulated=[0.0, 0.0],
            v0=0.5, provenance="kinematic",
        )


def test_time_map_csv(tmp_path):
    b = Boost(0.5)
    tm = time_map_kinematic(_rest_worldline(n=5), b)
    path = tmp_path / "tm.csv"
    save_time_map_csv(tm, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "t_prime,g,t"
    cols = np.array([[float(v) for v in ln.split(",")] for ln in lines[1:]])
    assert np.array_equal(cols[:, 0], tm.t_prime)
    assert np.array_equal(cols[:, 1], tm.g)
    assert np.array_equal(cols[:, 2], tm.t_accumulated)
