"""Zero-order solves, Jacobians, the linear correction and its residual diagnostics."""

import math
import pickle

import numpy as np
import pytest

from chronodyn.perturbation import (
    ForceLaw,
    PerturbationRun,
    correction_solve,
    expansion_residual,
    fit_power_law,
    force_jacobians,
    residual_sweep,
    solve_perturbation,
    time_force,
    zero_order_solve,
)


def _harmonic(k=1.0):
    return ForceLaw(
        evaluate=lambda r, u, t: -k * r,
        jac_r=lambda r, u, t: -k * np.eye(3),
        jac_u=lambda r, u, t: np.zeros((3, 3)),
    )


def _anharmonic(k=1.0, eps=0.5):
    return ForceLaw(
        evaluate=lambda r, u, t: -k * r - eps * float(r @ r) * r,
        jac_r=lambda r, u, t: -(k + eps * float(r @ r)) * np.eye(3)
        - 2.0 * eps * np.outer(r, r),
        jac_u=lambda r, u, t: np.zeros((3, 3)),
    )


# -- zero-order solve --------------------------------------------------------

def test_zero_order_free_particle():
    f = ForceLaw(evaluate=lambda r, u, t: np.zeros(3))
    run = zero_order_solve(f, [1.0, 0.0, 0.0], [0.2, -0.1, 0.0], 1.0, (0.0, 5.0), 1e-2)
    expected = np.array([1.0, 0.0, 0.0]) + np.outer(run.t, [0.2, -0.1, 0.0])
    assert np.abs(run.r - expected).max() < 1e-13


def test_zero_order_harmonic_cosine():
    k, m0 = 2.0, 0.5
    omega = math.sqrt(k / m0)
    run = zero_order_solve(_harmonic(k), [1.0, 0.0, 0.0], [0.0, 0.0, 0.0], m0,
                           (0.0, 4.0 * math.pi / omega), 1e-3)
    assert np.abs(run.r[:, 0] - np.cos(omega * run.t)).max() < 1e-8
    assert np.abs(run.r[:, 1:]).max() == 0.0


def test_zero_order_constant_force_parabola():
    F0 = np.array([0.0, -1.0, 0.5])
    f = ForceLaw(evaluate=lambda r, u, t: F0.copy())
    m0 = 2.0
    run = zero_order_solve(f, [0.0, 0.0, 0.0], [1.0, 0.0, 0.0], m0, (0.0, 3.0), 1e-2)
    expected = np.outer(run.t, [1.0, 0.0, 0.0]) + 0.5 * np.outer(run.t**2, F0 / m0)
    assert np.abs(run.r - expected).max() < 1e-12  # RK4 exact on polynomials


def test_zero_order_validation():
    f = _harmonic()
    with pytest.raises(ValueError):
        zero_order_solve(f, [0, 0, 0], [0, 0, 0], -1.0, (0.0, 1.0), 1e-2)
    with pytest.raises(ValueError):
        zero_order_solve(f, [0, 0, 0], [0, 0, 0], 1.0, (1.0, 0.0), 1e-2)


def test_zero_order_rejects_non_finite_force():
    f = ForceLaw(evaluate=lambda r, u, t: np.array([np.nan, 0.0, 0.0]))
    with pytest.raises(ValueError):
        zero_order_solve(f, [0, 0, 0], [0, 0, 0], 1.0, (0.0, 1.0), 1e-2)


# -- Jacobians ---------------------------------------------------------------

def test_jacobians_linear_force():
    jr, ju = force_jacobians(ForceLaw(evaluate=lambda r, u, t: -3.0 * r),
                             (np.array([0.4, -0.2, 1.0]), np.zeros(3), 0.0))
    assert np.abs(jr + 3.0 * np.eye(3)).max() < 1e-9
    assert np.abs(ju).max() < 1e-9


def test_jacobians_lorentz_velocity_dependence():
    # F = e*(E + u x B): dF/du is e times the matrix of the cross product
    # with B acting from the right
    e, E, B = 1.5, np.array([0.1, 0.0, 0.2]), np.array([0.0, 0.0, 2.0])
    f = ForceLaw(evaluate=lambda r, u, t: e * (E + np.cross(u, B)))
    _, ju = force_jacobians(f, (np.zeros(3), np.array([0.1, 0.2, 0.0]), 0.0))
    expected = e * np.array(
        [[0.0, B[2], -B[1]], [-B[2], 0.0, B[0]], [B[1], -B[0], 0.0]]
    )
    assert np.abs(ju - expected).max() < 1e-9


def test_jacobians_fd_matches_analytic_on_polynomial():
    anh = _anharmonic(1.2, 0.3)
    bare = ForceLaw(evaluate=anh.evaluate)
    at = (np.array([0.5, -0.3, 0.2]), np.array([0.1, 0.0, -0.1]), 0.0)
    jr_fd, ju_fd = force_jacobians(bare, at)
    jr_an, ju_an = force_jacobians(anh, at)
    assert np.abs(jr_fd - jr_an).max() < 1e-9
    assert np.abs(ju_fd - ju_an).max() < 1e-9


def test_jacobians_fd_second_order_convergence():
    f = ForceLaw(evaluate=lambda r, u, t: np.array(
        [math.sin(r[0]) * r[1], math.exp(0.3 * r[2]), r[0] * r[1] * r[2]]
    ))
    at_r = np.array([0.7, 0.4, -0.3])
    exact = np.array([
        [math.cos(0.7) * 0.4, math.sin(0.7), 0.0],
        [0.0, 0.0, 0.3 * math.exp(0.3 * -0.3)],
        [0.4 * -0.3, 0.7 * -0.3, 0.7 * 0.4],
    ])
    errs = []
    for h in (1e-2, 5e-3):
        jr, _ = force_jacobians(f, (at_r, np.zeros(3), 0.0), h=h)
        errs.append(np.abs(jr - exact).max())
    assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.3)


def test_force_law_constructor_spot_check():
    with pytest.raises(ValueError, match="disagrees"):
        ForceLaw(
            evaluate=lambda r, u, t: -r,
            jac_r=lambda r, u, t: +np.eye(3),  # wrong sign
            jac_u=lambda r, u, t: np.zeros((3, 3)),
        )
    with pytest.raises(ValueError, match="both"):
        ForceLaw(evaluate=lambda r, u, t: -r, jac_r=lambda r, u, t: -np.eye(3))
    # non-default probe point for a force that is curved at the origin
    ForceLaw(
        evaluate=lambda r, u, t: -np.sin(r),
        jac_r=lambda r, u, t: -np.diag(np.cos(r)),
        jac_u=lambda r, u, t: np.zeros((3, 3)),
        probe=([0.3, 0.1, -0.2], [0.0, 0.0, 0.0], 0.0),
    )


# -- correction solve --------------------------------------------------------

def test_correction_zero_seed_stays_zero():
    run0 = zero_order_solve(_anharmonic(), [1, 0, 0], [0, 0, 0], 1.0, (0.0, 6.0), 2e-3)
    r1 = correction_solve(run0, _anharmonic(), np.zeros(3), np.zeros(3), 1.0)
    assert np.abs(r1.r).max() == 0.0
    assert np.abs(r1.u).max() == 0.0


def test_correction_harmonic_frequency():
    k, m0 = 1.0, 1.0
    run0 = zero_order_solve(_harmonic(k), [1, 0, 0], [0, 0, 0], m0,
                            (0.0, 6.0 * math.pi), 2e-3)
    r1 = correction_solve(run0, _harmonic(k), [1e-3, 0, 0], [0, 0, 0], m0)
    # the correction is A*cos(sqrt(k/m0)*t) for this seed
    expected = 1e-3 * np.cos(run0.t)
    assert np.abs(r1.r[:, 0] - expected).max() < 1e-10


def test_correction_linearity():
    run0 = zero_order_solve(_anharmonic(), [0.8, 0.1, 0], [0, 0.2, 0], 1.0,
                            (0.0, 4.0), 2e-3)
    f = _anharmonic()
    a = correction_solve(run0, f, [1e-3, 0, 0], [0, 1e-3, 0], 1.0)
    doubled = correction_solve(run0, f, [2e-3, 0, 0], [0, 2e-3, 0], 1.0)
    assert np.abs(doubled.r - 2.0 * a.r).max() < 1e-10


def test_correction_superposition_random_force():
    rng = np.random.default_rng(41)
    A = rng.uniform(-1, 1, (3, 3))
    C = rng.uniform(-0.5, 0.5, (3, 3))
    f = ForceLaw(evaluate=lambda r, u, t: A @ r + C @ u + 0.2 * np.sin(r))
    run0 = zero_order_solve(f, [0.3, -0.2, 0.5], [0, 0.1, 0], 1.0, (0.0, 3.0), 2e-3)
    s_a = ([1e-3, 0, -1e-3], [0, 5e-4, 0])
    s_b = ([-2e-3, 1e-3, 0], [1e-3, 0, 1e-3])
    r1_a = correction_solve(run0, f, *s_a, 1.0)
    r1_b = correction_solve(run0, f, *s_b, 1.0)
    r1_ab = correction_solve(
        run0, f, np.add(s_a[0], s_b[0]), np.add(s_a[1], s_b[1]), 1.0
    )
    assert np.abs(r1_ab.r - r1_a.r - r1_b.r).max() < 1e-10


def test_correction_rejects_nonuniform_grid():
    from chronodyn.perturbation import Trajectory

    t = np.array([0.0, 0.1, 0.3, 0.6])
    run0 = Trajectory(t=t, r=np.zeros((4, 3)), u=np.zeros((4, 3)))
    with pytest.raises(ValueError, match="uniform"):
        correction_solve(run0, _harmonic(), np.zeros(3), np.zeros(3), 1.0)


# -- time force --------------------------------------------------------------

def test_time_force_zero_when_correction_zero():
    run = solve_perturbation(_harmonic(), [1, 0, 0], [0, 0, 0], 1.0,
                             (0.0, 3.0), 2e-3, v0=0.01)
    assert np.abs(run.time_force).max() == 0.0


def test_time_force_linear_force_is_minus_k_r1():
    k = 1.7
    run = solve_perturbation(_harmonic(k), [1, 0, 0], [0, 0, 0], 1.0,
                             (0.0, 3.0), 2e-3, v0=0.01, r1_0=[1e-3, 0, 0])
    assert np.abs(run.time_force + k * run.correction.r).max() < 1e-15
    assert np.array_equal(run.time_force, time_force(run, _harmonic(k)))


def test_time_force_consistent_with_correction_acceleration():
    # m0 * du1/dt equals the time-force series, up to the FD stencil error
    m0 = 1.0
    run = solve_perturbation(_anharmonic(), [1, 0, 0], [0, 0, 0], m0,
                             (0.0, 4.0), 1e-3, v0=0.01, r1_0=[1e-3, 0, 0])
    u1 = run.correction.u
    t = run.correction.t
    du1 = (u1[2:] - u1[:-2]) / (t[2:] - t[:-2])[:, None]
    assert np.abs(m0 * du1 - run.time_force[1:-1]).max() < 5e-6


# -- expansion residual ------------------------------------------------------

def test_residual_floor_at_zero_boost_zero_seed():
    run = solve_perturbation(_anharmonic(), [1, 0, 0], [0, 0, 0], 1.0,
                             (0.0, 4.0), 2e-3, v0=0.0)
    assert expansion_residual(_anharmonic(), run) < 1e-12


def test_residual_linear_force_stays_at_floor():
    # the first-order expansion is exact for a linear force: the residual
    # cannot grow with v0 (it is bounded way below any O(v0) envelope)
    f = _harmonic()
    for v0 in (0.001, 0.002, 0.004):
        run = solve_perturbation(f, [1, 0, 0], [0, 0, 0], 1.0,
                                 (0.0, 4.0), 2e-3, v0=v0, r1_0=[v0, 0, 0])
        assert expansion_residual(f, run) < 1e-13


def test_residual_sweep_scaling_exponent():
    residuals, exponent = residual_sweep(
        _anharmonic(), [1.0, 0.0, 0.0], [0.0, 0.0, 0.0], 1.0,
        (0.0, 2.0 * math.pi), 2e-3, [0.001, 0.002, 0.004],
    )
    assert np.all(np.diff(residuals) > 0)
    assert exponent == pytest.approx(2.0, abs=0.2)
    assert exponent >= 0.9


def test_residual_of_zero_order_alone_vs_composite():
    # comparative diagnostic: both residuals are finite; the composite one
    # carries the linearization remainder of its nonzero correction
    f = _anharmonic()
    bare = solve_perturbation(f, [1, 0, 0], [0, 0, 0], 1.0, (0.0, 4.0), 2e-3,
                              v0=0.002)
    seeded = solve_perturbation(f, [1, 0, 0], [0, 0, 0], 1.0, (0.0, 4.0), 2e-3,
                                v0=0.002, r1_0=[0.002, 0, 0])
    r_bare = expansion_residual(f, bare)
    r_seeded = expansion_residual(f, seeded)
    assert math.isfinite(r_bare) and math.isfinite(r_seeded)
    assert r_bare < r_seeded


def test_fit_power_law():
    x = np.array([1.0, 2.0, 4.0])
    assert fit_power_law(x, 3.0 * x**1.7) == pytest.approx(1.7, abs=1e-12)


# -- the cached linearization --------------------------------------------------

class _CountingForce:
    """F = -k r - 0.5 |r|^2 r, counting its own evaluations."""

    def __init__(self, k=1.0):
        self.k, self.calls = k, 0

    def __call__(self, r, u, t):
        self.calls += 1
        return -self.k * r - 0.5 * float(r @ r) * r


def test_zero_order_run_is_linearized_once():
    evals = _CountingForce()
    f = ForceLaw(evaluate=evals)  # finite-difference Jacobians
    args = ([1.0, 0.0, 0.0], [0.0, 0.1, 0.0], 1.0, (0.0, 1.0), 2e-3)
    run0 = zero_order_solve(f, *args)
    solve_cost = evals.calls
    first = correction_solve(run0, f, [1e-3, 0, 0], [0, 0, 0], 1.0)
    linearize_cost = evals.calls - solve_cost
    correction_solve(run0, f, [0, 1e-3, 0], [0, 0, 1e-3], 1.0)
    again = correction_solve(run0, f, [1e-3, 0, 0], [0, 0, 0], 1.0)
    assert evals.calls == solve_cost + linearize_cost
    assert np.array_equal(again.r, first.r)

    evals.calls = 0
    v0_values = [0.001, 0.002, 0.004]
    residuals, _ = residual_sweep(f, *args, v0_values)
    assert evals.calls < 2 * (solve_cost + linearize_cost)
    for v0, residual in zip(v0_values, residuals):
        run = solve_perturbation(f, *args, v0, r1_0=[v0, 0.0, 0.0])
        assert residual == expansion_residual(f, run)


def test_run_solved_with_another_law_object_is_checked_once():
    f = ForceLaw(evaluate=_CountingForce())
    run0 = zero_order_solve(f, [1, 0, 0], [0, 0.1, 0], 1.0, (0.0, 2.0), 2e-3)
    own = correction_solve(run0, f, [1e-3, 0, 0], [0, 1e-3, 0], 1.0)
    twin = ForceLaw(evaluate=_CountingForce())
    assert np.array_equal(correction_solve(run0, twin, [1e-3, 0, 0], [0, 1e-3, 0], 1.0).r, own.r)
    off = ForceLaw(evaluate=_CountingForce(k=1.01))
    with pytest.raises(ValueError, match="does not match its own re-integration"):
        correction_solve(run0, off, [1e-3, 0, 0], [0, 0, 0], 1.0)


def test_solved_run_pickles_without_its_force_law():
    f = _harmonic()  # lambdas: cannot be pickled
    run = solve_perturbation(f, [1, 0, 0], [0, 0, 0], 1.0, (0.0, 1.0), 1e-2, 0.01, [1e-3, 0, 0])
    copied = pickle.loads(pickle.dumps(run))
    again = correction_solve(copied.zero_order, f, [1e-3, 0, 0], [0, 0, 0], 1.0)
    assert np.array_equal(again.r, run.correction.r)


# -- equivalence with the lock-step solver -------------------------------------

def _reference_rk4(deriv, y0, t0, dt, n_steps):
    out = np.empty((n_steps + 1, y0.shape[0]))
    out[0] = y0
    y = y0
    for i in range(n_steps):
        t = t0 + i * dt
        k1 = deriv(y, t)
        k2 = deriv(y + 0.5 * dt * k1, t + 0.5 * dt)
        k3 = deriv(y + 0.5 * dt * k2, t + 0.5 * dt)
        k4 = deriv(y + dt * k3, t + dt)
        y = y + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        out[i + 1] = y
    return out


def _reference_solve(f, r0, u0, m0, t_span, dt, r1_0, u1_0):
    """The lock-step solver: zero order, then the 12-vector (r0, u0, r1, u1)
    re-advanced together with per-stage Jacobians, then the time force sample
    by sample.  Returns (r0, u0, r1, u1, time force)."""
    t0 = float(t_span[0])
    n = max(1, math.ceil((t_span[1] - t0) / dt - 1e-12))

    def zero_deriv(y, t):
        return np.concatenate([y[3:], f(y[:3], y[3:], t) / m0])

    ys0 = _reference_rk4(zero_deriv, np.concatenate([r0, u0]).astype(float), t0, dt, n)
    t = t0 + dt * np.arange(n + 1)

    def deriv(y, tt):
        r, u, r1, u1 = y[:3], y[3:6], y[6:9], y[9:]
        jr, ju = force_jacobians(f, (r, u, tt))
        return np.concatenate([u, f(r, u, tt) / m0, u1, (jr @ r1 + ju @ u1) / m0])

    y0 = np.concatenate([ys0[0], r1_0, u1_0]).astype(float)
    ys = _reference_rk4(deriv, y0, float(t[0]), float(np.diff(t)[0]), n)
    force = np.empty((n + 1, 3))
    for i in range(n + 1):
        jr, ju = force_jacobians(f, (ys0[i, :3], ys0[i, 3:], t[i]))
        force[i] = jr @ ys[i, 6:9] + ju @ ys[i, 9:]
    return ys0[:, :3], ys0[:, 3:], ys[:, 6:9], ys[:, 9:], force


def _random_law():
    rng = np.random.default_rng(47)
    A = rng.uniform(-1, 1, (3, 3))
    C = rng.uniform(-0.3, 0.3, (3, 3))
    return ForceLaw(evaluate=lambda r, u, t: A @ r + C @ u - 0.4 * float(r @ r) * r)


# law, r0, u0, t_span, dt, r1_0, u1_0
EQUIVALENCE_CASES = {
    "readme-harmonic": (_harmonic, [1, 0, 0], [0, 0, 0], (0.0, 12.566), 2e-3,
                        [1e-3, 0, 0], [0, 0, 0]),
    "anharmonic": (_anharmonic, [1, 0, 0], [0, 0.1, 0], (0.0, 4.0), 2e-3,
                   [1e-3, 0, 0], [0, 1e-3, 0]),
    # from t0 = 0.3 the grid spacing t[1] - t[0] differs from dt in the last bit
    "random-fd-from-0.3": (_random_law, [0.6, 0.2, -0.1], [0, 0.1, 0], (0.3, 2.3), 2e-3,
                           [1e-3, 0, -2e-3], [0, 1e-3, 0]),
}


@pytest.mark.parametrize("case", sorted(EQUIVALENCE_CASES))
def test_solve_matches_lock_step_reference(case):
    law, r0, u0, span, dt, r1_0, u1_0 = EQUIVALENCE_CASES[case]
    ref_r0, ref_u0, ref_r1, ref_u1, ref_force = _reference_solve(
        law(), r0, u0, 1.0, span, dt, r1_0, u1_0
    )
    run0 = zero_order_solve(law(), r0, u0, 1.0, span, dt)
    assert np.array_equal(run0.r, ref_r0) and np.array_equal(run0.u, ref_u0)
    # a second law object has no cached stage states for run0: it is
    # re-integrated on the grid spacing t[1] - t[0], as the reference does
    f = law()
    run1 = correction_solve(run0, f, r1_0, u1_0, 1.0)
    force = time_force(PerturbationRun(run0, run1, 0.0, 1.0, np.empty(0)), f)
    # solved in one call, the run is linearized at its own stage states, taken
    # with dt.  Where dt and t[1] - t[0] differ in the last bit, finite-
    # difference Jacobians (roundoff ~1e-16 over a 1e-6 step) carry that into
    # r1 at ~1e-12 of its size.
    run = solve_perturbation(f, r0, u0, 1.0, span, dt, v0=0.0, r1_0=r1_0, u1_0=u1_0)
    scale = np.abs(ref_r1).max()
    own_steps = 1e-12 if float(np.diff(run0.t)[0]) == dt else 1e-10
    for r1, u1, fc, tol in ((run1.r, run1.u, force, 1e-12),
                            (run.correction.r, run.correction.u, run.time_force, own_steps)):
        assert np.abs(r1 - ref_r1).max() < tol * scale
        assert np.abs(u1 - ref_u1).max() < tol * scale
        assert np.abs(fc - ref_force).max() < tol * scale
