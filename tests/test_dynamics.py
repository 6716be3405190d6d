"""Field tensors, forces and the fixed-step integrators against analytic motion."""

import math

import numpy as np
import pytest

from chronodyn.analytic import (
    CyclotronParams,
    UniformEParams,
    cyclotron_state,
    uniform_e_state,
)
from chronodyn.dynamics import (
    EnergyAudit,
    FieldConfig,
    IntegrationError,
    IntegratorConfig,
    ParticleState,
    boost_field_config,
    energy_audit,
    four_force,
    integrate,
    lorentz_force,
)
from chronodyn.frames import Boost, FrameMismatchError


def test_field_tensor_layout():
    f = FieldConfig(E=[1.0, 2.0, 3.0], B=[4.0, 5.0, 6.0])
    F = f.tensor()
    expected = np.array(
        [
            [0.0, -1.0, -2.0, -3.0],
            [1.0, 0.0, -6.0, 5.0],
            [2.0, 6.0, 0.0, -4.0],
            [3.0, -5.0, 4.0, 0.0],
        ]
    )
    assert np.array_equal(F, expected)
    back = FieldConfig.from_tensor(F, "Kprime")
    assert np.array_equal(back.E, f.E) and np.array_equal(back.B, f.B)


def test_boost_field_config_tags():
    f = FieldConfig(E=[0.0, 0.0, 0.0], B=[0.0, 0.0, 1.0], frame_tag="Kprime")
    lab = boost_field_config(f, Boost(0.5))
    assert lab.frame_tag == "K"
    with pytest.raises(FrameMismatchError):
        boost_field_config(lab, Boost(0.5), "forward")


def test_lorentz_force_values():
    f = FieldConfig(E=[0.0, 0.0, 0.0], B=[0.0, 0.0, 1.0])
    at_rest = ParticleState(t=0.0, r=np.zeros(3), u=np.zeros(3))
    assert np.abs(lorentz_force(at_rest, f)).max() == 0.0
    moving = ParticleState(t=0.0, r=np.zeros(3), u=[0.3, 0.0, 0.0])
    assert np.abs(lorentz_force(moving, f) - [0.0, -0.3, 0.0]).max() < 1e-15


def test_lorentz_force_frame_mismatch():
    f = FieldConfig(E=np.zeros(3), B=[0.0, 0.0, 1.0], frame_tag="K")
    s = ParticleState(t=0.0, r=np.zeros(3), u=np.zeros(3), frame_tag="Kprime")
    with pytest.raises(FrameMismatchError):
        lorentz_force(s, f)


def test_four_force_components():
    f = FieldConfig(E=[0.5, 0.0, 0.0], B=[0.0, 0.0, 0.0])
    at_rest = ParticleState(t=0.0, r=np.zeros(3), u=np.zeros(3), e=2.0)
    ff = four_force(at_rest, f)
    assert ff[0] == 0.0  # no power at rest
    assert np.abs(ff[1:] - [1.0, 0.0, 0.0]).max() < 1e-15

    # cyclotron state in a pure magnetic field delivers no power, ever
    p = CyclotronParams(u0_prime=0.4, B_prime=1.0)
    fb = FieldConfig(E=np.zeros(3), B=[0.0, 0.0, 1.0])
    for t in np.linspace(0.0, 10.0, 25):
        _, u = cyclotron_state(p, t)
        s = ParticleState(t=t, r=np.zeros(3), u=u)
        assert four_force(s, fb)[0] == 0.0

    # space part is the Lorentz force, definitionally
    rng = np.random.default_rng(21)
    for _ in range(50):
        s = ParticleState(
            t=0.0, r=rng.normal(size=3), u=rng.uniform(-0.5, 0.5, size=3),
            e=rng.normal(),
        )
        fld = FieldConfig(E=rng.normal(size=3), B=rng.normal(size=3))
        assert np.array_equal(four_force(s, fld)[1:], lorentz_force(s, fld))


def test_four_force_time_component_is_energy_rate():
    # e*E.u along an integrated path equals the finite-difference energy rate
    f = FieldConfig(E=[0.4, 0.1, 0.0], B=[0.0, 0.0, 0.8])
    s0 = ParticleState(t=0.0, r=np.zeros(3), u=[0.2, 0.1, 0.0])
    w = integrate(s0, f, IntegratorConfig(dt=2e-3, n_steps=2000))
    u2 = np.sum(w.u * w.u, axis=1)
    energy = 1.0 / np.sqrt(1.0 - u2)
    de = (energy[2:] - energy[:-2]) / (w.t[2:] - w.t[:-2])
    power = w.u[1:-1] @ f.E
    assert np.abs(de - power).max() < 5e-6  # 2nd-order stencil floor


def test_integrate_free_particle_exact():
    f = FieldConfig(E=np.zeros(3), B=np.zeros(3))
    s0 = ParticleState(t=1.0, r=[1.0, -2.0, 0.5], u=[0.3, 0.1, -0.2])
    w = integrate(s0, f, IntegratorConfig(dt=0.05, n_steps=200))
    expected = s0.r + np.outer(w.t - s0.t, s0.u)
    assert np.abs(w.r - expected).max() < 1e-13
    assert np.abs(w.u - s0.u).max() == 0.0


def test_integrate_matches_cyclotron():
    p = CyclotronParams(u0_prime=0.3, B_prime=1.0, alpha=0.0)
    f = FieldConfig(E=np.zeros(3), B=[0.0, 0.0, 1.0])
    r0, u0 = cyclotron_state(p, 0.0)
    s0 = ParticleState(t=0.0, r=r0, u=u0)
    t_p = p.period_prime
    w = integrate(s0, f, IntegratorConfig(dt=t_p / 1000, n_steps=1000))
    r_exact, u_exact = cyclotron_state(p, w.t)
    assert np.abs(w.r - r_exact).max() < 1e-8
    assert np.abs(w.u - u_exact).max() < 1e-8


def test_integrate_matches_uniform_e():
    p = UniformEParams(E_prime=np.array([1.0, 0.0, 0.0]))
    f = FieldConfig(E=p.E_prime, B=np.zeros(3))
    s0 = ParticleState(t=0.0, r=np.zeros(3), u=np.zeros(3))
    w = integrate(s0, f, IntegratorConfig(dt=3e-3, n_steps=1000))
    r_exact, u_exact = uniform_e_state(p, w.t)
    assert np.abs(w.r - r_exact).max() < 1e-8
    assert np.abs(w.u - u_exact).max() < 1e-8


def test_mass_shell_along_integration():
    f = FieldConfig(E=[0.3, 0.0, 0.1], B=[0.0, 0.5, 0.9])
    m0 = 1.7
    s0 = ParticleState(t=0.0, r=np.zeros(3), u=[0.2, -0.1, 0.3], m0=m0)
    w = integrate(s0, f, IntegratorConfig(dt=5e-3, n_steps=1000))
    u2 = np.sum(w.u * w.u, axis=1)
    gamma = 1.0 / np.sqrt(1.0 - u2)
    energy = m0 * gamma
    p2 = np.sum((m0 * gamma[:, None] * w.u) ** 2, axis=1)
    assert np.abs(energy**2 - p2 - m0**2).max() < 1e-12


def test_rk4_order_by_step_halving():
    p = CyclotronParams(u0_prime=0.3, B_prime=1.0)
    f = FieldConfig(E=np.zeros(3), B=[0.0, 0.0, 1.0])
    r0, u0 = cyclotron_state(p, 0.0)
    s0 = ParticleState(t=0.0, r=r0, u=u0)
    t_p = p.period_prime
    errs = []
    for n in (200, 400):
        w = integrate(s0, f, IntegratorConfig(dt=t_p / n, n_steps=n))
        r_exact, _ = cyclotron_state(p, w.t[-1])
        errs.append(float(np.abs(w.r[-1] - r_exact).max()))
    order = math.log2(errs[0] / errs[1])
    assert order >= 3.9


# numpy-vector reference for one step of each method; the integrator's
# scalar kernel must reproduce it to roundoff
def _ref_u_of_p(p, m0):
    return p / np.sqrt(m0 * m0 + float(p @ p))


def _ref_rk4_step(r, p, dt, e, m0, E, B):
    def deriv(pp):
        u = _ref_u_of_p(pp, m0)
        return u, e * (E + np.cross(u, B))

    k1r, k1p = deriv(p)
    k2r, k2p = deriv(p + 0.5 * dt * k1p)
    k3r, k3p = deriv(p + 0.5 * dt * k2p)
    k4r, k4p = deriv(p + dt * k3p)
    r_new = r + (dt / 6.0) * (k1r + 2.0 * k2r + 2.0 * k3r + k4r)
    p_new = p + (dt / 6.0) * (k1p + 2.0 * k2p + 2.0 * k3p + k4p)
    return r_new, p_new


def _ref_boris_step(r, p, dt, e, m0, E, B):
    half_kick = 0.5 * dt * e * E
    p_minus = p + half_kick
    gamma_m = math.sqrt(1.0 + float(p_minus @ p_minus) / (m0 * m0))
    tvec = (0.5 * dt * e / (m0 * gamma_m)) * B
    svec = 2.0 * tvec / (1.0 + float(tvec @ tvec))
    p_prime = p_minus + np.cross(p_minus, tvec)
    p_plus = p_minus + np.cross(p_prime, svec)
    p_new = p_plus + half_kick
    u_mid = _ref_u_of_p(0.5 * (p + p_new), m0)
    return r + dt * u_mid, p_new


@pytest.mark.parametrize("method", ["rk4", "boris"])
@pytest.mark.parametrize(
    "E, B",
    [
        ([0.0, 0.0, 0.0], [0.2, -0.3, 1.1]),  # pure B
        ([0.4, -0.2, 0.3], [0.0, 0.0, 0.0]),  # pure E
        ([0.0, 0.6, 0.1], [0.0, 0.0, 1.0]),  # crossed E x B
    ],
    ids=["pure-B", "pure-E", "crossed-ExB"],
)
def test_integrate_matches_numpy_reference_steps(method, E, B):
    f = FieldConfig(E=E, B=B)
    s0 = ParticleState(t=0.0, r=[0.5, -1.0, 0.2], u=[0.3, 0.2, -0.1], m0=1.3, e=-0.8)
    cfg = IntegratorConfig(method=method, dt=0.01, n_steps=500)
    w = integrate(s0, f, cfg)
    step = _ref_rk4_step if method == "rk4" else _ref_boris_step
    r, p = s0.r.copy(), s0.momentum
    r_ref, u_ref = [r], [s0.u]
    for _ in range(cfg.n_steps):
        r, p = step(r, p, cfg.dt, s0.e, s0.m0, f.E, f.B)
        r_ref.append(r)
        u_ref.append(_ref_u_of_p(p, s0.m0))
    assert np.abs(w.r - np.array(r_ref)).max() <= 1e-13
    assert np.abs(w.u - np.array(u_ref)).max() <= 1e-13


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("method", ["rk4", "boris"])
@pytest.mark.parametrize(
    "E, dt, m0, message",
    [
        (1e12, 1.0, 1.0, r"superluminal state at step 1 \(t = 1\.0\)"),
        (1e300, 1e300, 1.0, r"non-finite state at step 1 "),
        (0.0, 1.0, 1e-200, r"non-finite state at step 1 "),  # m0^2 underflows to 0
    ],
    ids=["superluminal", "overflow", "tiny-mass"],
)
def test_integrate_guards_name_the_step(method, E, dt, m0, message):
    f = FieldConfig(E=[E, 0.0, 0.0], B=np.zeros(3))
    s0 = ParticleState(t=0.0, r=np.zeros(3), u=np.zeros(3), m0=m0)
    with pytest.raises(IntegrationError, match=message):
        integrate(s0, f, IntegratorConfig(method=method, dt=dt, n_steps=3))


def test_boris_bounds_energy_in_pure_b():
    p = CyclotronParams(u0_prime=0.4, B_prime=1.0)
    f = FieldConfig(E=np.zeros(3), B=[0.0, 0.0, 1.0])
    r0, u0 = cyclotron_state(p, 0.0)
    s0 = ParticleState(t=0.0, r=r0, u=u0)
    t_p = p.period_prime
    w = integrate(s0, f, IntegratorConfig(method="boris", dt=t_p / 500, n_steps=5000))
    audit = energy_audit(w, f, m0=1.0, e=1.0)
    assert audit.max_relative_drift < 1e-12  # ten periods, no secular drift
    assert np.abs(audit.potential).max() == 0.0


def test_energy_audit_analytic_uniform_e():
    p = UniformEParams(E_prime=np.array([0.7, 0.3, 0.2]))
    f = FieldConfig(E=p.E_prime, B=np.zeros(3))
    from chronodyn.analytic import uniform_e_worldline

    w = uniform_e_worldline(p, 0.0, 3.0 / p.a_mag, 2001)
    audit = energy_audit(w, f, m0=1.0, e=1.0)
    assert audit.max_relative_drift < 1e-10
    assert isinstance(audit, EnergyAudit)


def test_energy_audit_rk4_drift_shrinks_16x():
    f = FieldConfig(E=[1.0, 0.0, 0.0], B=np.zeros(3))
    s0 = ParticleState(t=0.0, r=np.zeros(3), u=np.zeros(3))
    drifts = []
    for dt, n in ((0.03, 100), (0.015, 200)):
        w = integrate(s0, f, IntegratorConfig(dt=dt, n_steps=n))
        drifts.append(energy_audit(w, f, m0=1.0, e=1.0).max_relative_drift)
    assert drifts[0] / drifts[1] == pytest.approx(16.0, rel=0.25)


def test_integrator_config_validation():
    with pytest.raises(ValueError):
        IntegratorConfig(method="euler")
    with pytest.raises(ValueError):
        IntegratorConfig(dt=0.0)
    with pytest.raises(ValueError):
        IntegratorConfig(n_steps=0)


def test_particle_state_validation():
    with pytest.raises(ValueError):
        ParticleState(t=0.0, r=np.zeros(3), u=[1.0, 0.0, 0.0])
    with pytest.raises(ValueError):
        ParticleState(t=0.0, r=np.zeros(3), u=np.zeros(3), m0=0.0)
    s = ParticleState(t=0.0, r=np.zeros(3), u=[0.6, 0.0, 0.0], m0=2.0)
    assert s.energy == pytest.approx(2.5, abs=1e-14)
    assert np.abs(s.momentum - [1.5, 0.0, 0.0]).max() < 1e-14
