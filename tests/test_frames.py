"""Boost algebra, velocity maps and worldline plumbing."""

import math

import numpy as np
import pytest

from chronodyn import frames
from chronodyn.frames import (
    Boost,
    Event,
    FrameMismatchError,
    Worldline,
    boost_event,
    boost_field_tensor,
    boost_worldline,
    crossover_velocity,
    interval_squared,
    inverse_kinematic_g,
    kinematic_g,
    load_worldline_csv,
    lorentz_gamma,
    proper_time_rate,
    save_worldline_csv,
    spatial_scale_ratio,
    velocity_addition_x,
    velocity_boost,
)
from chronodyn.analytic import CyclotronParams, cyclotron_worldline


# -- lorentz_gamma -----------------------------------------------------------

def test_gamma_identity_and_hand_value():
    assert lorentz_gamma(0.0) == 1.0
    assert lorentz_gamma(0.6) == pytest.approx(1.25, abs=1e-15)
    assert lorentz_gamma(-0.6) == pytest.approx(1.25, abs=1e-15)


@pytest.mark.parametrize("v0", [1.0, -1.0, 1.2, np.inf])
def test_gamma_domain(v0):
    with pytest.raises(ValueError):
        lorentz_gamma(v0)


# -- boost_event -------------------------------------------------------------

def test_boost_event_zero_boost():
    e = Event(t=1.0, r=[0.0, 2.0, -1.0])
    out = boost_event(e, Boost(0.0))
    assert out.t == 1.0
    assert np.array_equal(out.r, e.r)
    assert out.frame_tag == "K"


def test_boost_event_hand_value():
    # t' = 1, x' = 0 at v0 = 0.6: t = gamma*1 = 1.25, x = gamma*0.6 = 0.75
    out = boost_event(Event(t=1.0, r=[0.0, 0.0, 0.0]), Boost(0.6))
    assert out.t == pytest.approx(1.25, abs=1e-15)
    assert out.r[0] == pytest.approx(0.75, abs=1e-15)
    assert out.r[1] == 0.0 and out.r[2] == 0.0


def test_boost_event_round_trip():
    rng = np.random.default_rng(1)
    b = Boost(0.77)
    for _ in range(200):
        e = Event(t=rng.normal(), r=rng.normal(size=3))
        back = boost_event(boost_event(e, b, "forward"), b, "inverse")
        assert abs(back.t - e.t) < 1e-12
        assert np.abs(back.r - e.r).max() < 1e-12


def test_boost_event_rejects_wrong_frame():
    e = Event(t=0.0, r=[0.0, 0.0, 0.0], frame_tag="K")
    with pytest.raises(FrameMismatchError):
        boost_event(e, Boost(0.5), "forward")


def test_boost_rejects_equal_frame_tags():
    with pytest.raises(ValueError, match="two distinct frames"):
        Boost(0.5, frame_prime="K")


def test_interval_invariance():
    rng = np.random.default_rng(2)
    b = Boost(0.85)
    for _ in range(1000):
        e1 = Event(t=rng.normal(), r=rng.normal(size=3))
        e2 = Event(t=rng.normal(), r=rng.normal(size=3))
        s2 = interval_squared(e1, e2)
        s2_boosted = interval_squared(boost_event(e1, b), boost_event(e2, b))
        scale = max(abs(s2), 1.0)
        assert abs(s2 - s2_boosted) / scale < 1e-12


def test_interval_rejects_mixed_frames():
    with pytest.raises(FrameMismatchError):
        interval_squared(
            Event(t=0, r=[0, 0, 0], frame_tag="K"),
            Event(t=1, r=[0, 0, 0], frame_tag="Kprime"),
        )


# -- velocity maps -----------------------------------------------------------

def test_velocity_addition_values():
    assert velocity_addition_x(0.0, 0.6) == 0.6
    assert velocity_addition_x(1.0, 0.3) == 1.0  # light-speed fixed point
    assert velocity_addition_x(0.5, 0.5) == pytest.approx(0.8, abs=1e-15)


def test_velocity_addition_domain():
    with pytest.raises(ValueError):
        velocity_addition_x(1.1, 0.5)
    with pytest.raises(ValueError):
        velocity_addition_x(0.5, 1.0)


def test_velocity_boost_zero():
    out = velocity_boost([0.3, 0.0, 0.0], Boost(0.0))
    assert np.array_equal(out, [0.3, 0.0, 0.0])


def test_velocity_boost_hand_value():
    # u' = (0.3, 0.4, 0), v0 = 0.5: ux = 0.8/1.15, uy = 0.4/(gamma*1.15)
    out = velocity_boost([0.3, 0.4, 0.0], Boost(0.5))
    assert out[0] == pytest.approx(0.8 / 1.15, abs=1e-15)
    assert out[1] == pytest.approx(0.4 / (lorentz_gamma(0.5) * 1.15), abs=1e-15)
    assert out[0] == pytest.approx(0.69565, abs=5e-6)
    assert out[1] == pytest.approx(0.30123, abs=5e-6)
    assert out[2] == 0.0


def test_velocity_boost_stays_subluminal_and_inverts():
    rng = np.random.default_rng(3)
    for _ in range(1000):
        u = rng.uniform(-1, 1, size=3)
        n = np.linalg.norm(u)
        if n >= 1.0:
            u *= rng.uniform(0, 0.999) / n
        b = Boost(rng.uniform(-0.99, 0.99))
        out = velocity_boost(u, b)
        assert np.linalg.norm(out) < 1.0
        back = velocity_boost(out, b, "inverse")
        assert np.abs(back - u).max() < 1e-12


def test_velocity_boost_rejects_superluminal():
    with pytest.raises(ValueError):
        velocity_boost([0.8, 0.8, 0.0], Boost(0.5))


# -- time-course factors -----------------------------------------------------

def test_kinematic_g_rest_equals_gamma():
    assert kinematic_g(0.0, Boost(0.5)) == pytest.approx(1.154701, abs=5e-7)


def test_kinematic_g_at_crossover_is_one():
    for v0 in (0.6, -0.3, 0.95):
        u_star = crossover_velocity(v0)
        assert kinematic_g(u_star, Boost(v0)) == pytest.approx(1.0, abs=1e-14)
        # the K-frame mirror: inverse factor is 1 at ux = -u*
        assert inverse_kinematic_g(-u_star, Boost(v0)) == pytest.approx(1.0, abs=1e-14)


def test_reciprocity_of_paired_factors():
    # gamma^2 * (1 + v0*ux') * (1 - v0*ux) = 1 with ux from the addition rule
    rng = np.random.default_rng(4)
    for _ in range(10_000):
        v0 = rng.uniform(-0.99, 0.99)
        uxp = rng.uniform(-1.0, 1.0)
        ux = velocity_addition_x(uxp, v0)
        prod = kinematic_g(uxp, Boost(v0)) * inverse_kinematic_g(ux, Boost(v0))
        assert abs(prod - 1.0) < 1e-12


def test_kinematic_g_equals_velocity_ratio_form():
    # gamma*(1 + v0*ux') = sqrt((1 - u'^2)/(1 - u^2)); relative comparison,
    # since the oracle's 1 - u^2 loses digits as the boosted speed nears 1
    rng = np.random.default_rng(5)
    for _ in range(10_000):
        u = rng.uniform(-1, 1, size=3)
        n = np.linalg.norm(u)
        if n >= 0.99:
            u *= rng.uniform(0, 0.99) / n
        b = Boost(rng.uniform(-0.95, 0.95))
        u_lab = velocity_boost(u, b)
        ratio = math.sqrt((1.0 - u @ u) / (1.0 - u_lab @ u_lab))
        g = kinematic_g(u[0], b)
        assert abs(g - ratio) / g < 1e-12


def test_proper_time_rate_consistent_through_either_frame():
    # dtau/dt' directly, or dtau/dt times dt/dt', must agree
    rng = np.random.default_rng(6)
    for _ in range(1000):
        u = rng.uniform(-0.6, 0.6, size=3)
        b = Boost(rng.uniform(-0.9, 0.9))
        u_lab = velocity_boost(u, b)
        direct = proper_time_rate(u)
        chained = proper_time_rate(u_lab) * kinematic_g(u[0], b)
        assert abs(direct - chained) < 1e-12


# -- crossover velocity ------------------------------------------------------

def test_crossover_hand_value_and_properties():
    assert crossover_velocity(0.6) == pytest.approx(-1.0 / 3.0, abs=1e-15)
    rng = np.random.default_rng(7)
    for _ in range(1000):
        v0 = rng.uniform(-0.99, 0.99)
        if v0 == 0.0:
            continue
        u_star = crossover_velocity(v0)
        assert u_star * v0 < 0.0
        assert abs(u_star) < abs(v0)


def test_crossover_small_v0_limit():
    # Taylor limit u* -> -v0/2
    for v0 in (1e-4, -1e-4, 1e-8):
        assert crossover_velocity(v0) == pytest.approx(-v0 / 2.0, rel=1e-4)


def test_crossover_rejects_zero():
    with pytest.raises(ValueError):
        crossover_velocity(0.0)


# -- proper time -------------------------------------------------------------

def test_proper_time_rate_values():
    assert proper_time_rate([0.0, 0.0, 0.0]) == 1.0
    assert proper_time_rate([0.6, 0.0, 0.0]) == pytest.approx(0.8, abs=1e-15)
    assert proper_time_rate([0.0, 0.36, 0.48]) == pytest.approx(0.8, abs=1e-15)
    with pytest.raises(ValueError):
        proper_time_rate([1.0, 0.0, 0.0])


def test_proper_time_constant_speed_worldline():
    # tau(T) = sqrt(1 - u^2) * T for constant speed
    t = np.linspace(0.0, 10.0, 501)
    u = np.tile([0.6, 0.0, 0.0], (t.size, 1))
    r = np.outer(t, [0.6, 0.0, 0.0])
    w = Worldline(frame_tag="Kprime", t=t, r=r, u=u)
    rates = np.array([proper_time_rate(uu) for uu in w.u])
    tau = np.trapezoid(rates, t)
    assert tau == pytest.approx(0.8 * 10.0, abs=1e-12)


# -- spatial scale ratio -----------------------------------------------------

def test_spatial_scale_ratio():
    assert spatial_scale_ratio(0.7, Boost(0.0)) == 1.0
    assert spatial_scale_ratio(0.5, Boost(0.5)) == pytest.approx(2.309401, abs=5e-7)
    with pytest.raises(ValueError):
        spatial_scale_ratio(0.0, Boost(0.5))


def test_spatial_scale_ratio_galilean_limit():
    # gamma -> 1: reduces to 1 + v0/ux'
    v0, uxp = 1e-6, 0.4
    assert spatial_scale_ratio(uxp, Boost(v0)) == pytest.approx(1.0 + v0 / uxp, rel=1e-10)


# -- field tensor boost ------------------------------------------------------

def _tensor(E, B):
    from chronodyn.dynamics import FieldConfig

    return FieldConfig(E=E, B=B).tensor()


def test_boost_tensor_identity():
    F = _tensor([0.1, 0.2, 0.3], [0.4, 0.5, 0.6])
    assert np.abs(boost_field_tensor(F, Boost(0.0)) - F).max() < 1e-15


def test_boost_tensor_pure_magnetic():
    # pure B' = (0,0,B') seen from K: E_y = +gamma*v0*B', B_z = gamma*B'
    from chronodyn.dynamics import FieldConfig

    b = Boost(0.5)
    F = _tensor([0.0, 0.0, 0.0], [0.0, 0.0, 1.0])
    lab = FieldConfig.from_tensor(boost_field_tensor(F, b, "forward"), "K")
    g = b.gamma
    assert np.abs(lab.E - [0.0, g * 0.5, 0.0]).max() < 1e-14
    assert np.abs(lab.B - [0.0, 0.0, g]).max() < 1e-14
    # the inverse direction flips the induced field's sign
    back = FieldConfig.from_tensor(boost_field_tensor(F, b, "inverse"), "Kprime")
    assert back.E[1] == pytest.approx(-g * 0.5, abs=1e-14)


def test_boost_tensor_invariants_and_round_trip():
    rng = np.random.default_rng(8)
    b = Boost(0.8)
    for _ in range(200):
        E, B = rng.normal(size=3), rng.normal(size=3)
        F = _tensor(E, B)
        out = boost_field_tensor(F, b)
        assert np.abs(out + out.T).max() < 1e-12  # antisymmetry
        inv1 = B @ B - E @ E
        E2, B2 = _fields_of(out)
        assert abs((B2 @ B2 - E2 @ E2) - inv1) < 1e-12 * max(1.0, abs(inv1))
        assert abs(E2 @ B2 - E @ B) < 1e-12 * max(1.0, abs(E @ B))
        back = boost_field_tensor(out, b, "inverse")
        assert np.abs(back - F).max() < 1e-12


def _fields_of(F):
    return (
        np.array([F[1, 0], F[2, 0], F[3, 0]]),
        np.array([F[3, 2], F[1, 3], F[2, 1]]),
    )


def test_boost_tensor_rejects_bad_input():
    with pytest.raises(ValueError):
        boost_field_tensor(np.eye(4), Boost(0.5))  # not antisymmetric
    with pytest.raises(ValueError):
        boost_field_tensor(np.zeros((3, 3)), Boost(0.5))


# -- worldlines --------------------------------------------------------------

def _orbit(n=801, v0_orbit=0.3):
    p = CyclotronParams(u0_prime=v0_orbit, B_prime=1.0, alpha=0.2)
    return p, cyclotron_worldline(p, 0.0, p.period_prime, n)


def test_worldline_validation():
    with pytest.raises(ValueError):
        Worldline(frame_tag="K", t=[0.0, 0.0], r=np.zeros((2, 3)), u=np.zeros((2, 3)))
    with pytest.raises(ValueError):
        Worldline(
            frame_tag="K",
            t=[0.0, 1.0],
            r=np.zeros((2, 3)),
            u=[[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]],
        )


def test_boost_worldline_zero_identity():
    _, w = _orbit()
    out = boost_worldline(w, Boost(0.0))
    assert np.array_equal(out.t, w.t)
    assert np.array_equal(out.r, w.r)
    assert np.array_equal(out.u, w.u)


def test_boost_worldline_timestamps_exact():
    _, w = _orbit()
    b = Boost(0.6)
    out = boost_worldline(w, b)
    expected = b.gamma * (w.t + b.v0 * w.r[:, 0])
    assert np.array_equal(out.t, expected)
    assert out.frame_tag == "K"


def test_boost_worldline_finite_difference_matches_kinematic_g():
    # FD dt/dt' between adjacent boosted samples converges at 2nd order
    p, _ = _orbit()
    b = Boost(0.6)
    errs = []
    for n in (401, 801):
        w = cyclotron_worldline(p, 0.0, p.period_prime, n)
        out = boost_worldline(w, b)
        fd = np.diff(out.t) / np.diff(w.t)
        mid_ux = 0.5 * (w.u[1:, 0] + w.u[:-1, 0])
        g_mid = b.gamma * (1.0 + b.v0 * mid_ux)
        errs.append(np.abs(fd - g_mid).max())
    assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.2)


def test_stored_velocities_match_position_differences():
    _, w = _orbit()
    fd = (w.r[2:] - w.r[:-2]) / (w.t[2:, None] - w.t[:-2, None])
    h = w.t[1] - w.t[0]
    assert np.abs(fd - w.u[1:-1]).max() < h * h  # 2nd-order agreement


def test_worldline_csv_round_trip(tmp_path, monkeypatch):
    monkeypatch.setattr(frames, "_CSV_CHUNK_ROWS", 16)  # several chunks, the last one short
    _, w = _orbit(n=101)
    path = tmp_path / "w.csv"
    save_worldline_csv(w, path)
    rows = [[w.t[i], *w.r[i], *w.u[i]] for i in range(len(w))]
    expected = "t,x,y,z,ux,uy,uz\n" + "".join(
        ",".join(repr(float(v)) for v in row) + "\n" for row in rows
    )
    assert path.read_text() == expected
    back = load_worldline_csv(path, frame_tag=w.frame_tag)
    assert np.array_equal(back.t, w.t)
    assert np.array_equal(back.r, w.r)
    assert np.array_equal(back.u, w.u)


def test_load_worldline_rejects_bad_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,b,c\n1,2,3\n")
    with pytest.raises(ValueError):
        load_worldline_csv(path)
    path.write_text("t,x,y,z,ux,uy,uz\n")
    with pytest.raises(ValueError, match="empty"):
        load_worldline_csv(path)
