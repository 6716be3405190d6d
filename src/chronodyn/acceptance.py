"""The release-gate battery: every core claim of the toolkit, checked end to end.

Each criterion is a self-contained function returning a
:class:`CriterionResult` with the measured numbers it judged.  The battery
is deterministic (fixed RNG seeds) and sized to finish in well under a
minute; run it from the command line via ``chronodyn verify`` or through
pytest.
"""

from __future__ import annotations

import math
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import analytic
from .chronometry import (
    _accumulate,
    index_independence_report,
    period_map_numeric,
    simultaneity_series,
    time_map_dynamic,
    time_map_kinematic,
    time_map_ratio,
)
from .dynamics import FieldConfig, IntegratorConfig, ParticleState, energy_audit, integrate
from .frames import FRAME_KPRIME, Boost, lorentz_gamma, velocity_addition_x
from .perturbation import (
    ForceLaw,
    correction_solve,
    residual_sweep,
    solve_perturbation,
    zero_order_solve,
)
from .scenarios import bundled_scenario_path, load_scenario, run_scenario

__all__ = ["CriterionResult", "CRITERIA", "run_criterion", "run_all"]

SEED = 20260810


@dataclass(frozen=True)
class CriterionResult:
    cid: int
    description: str
    passed: bool
    details: str


def _result(cid: int, desc: str, passed: bool, details: str) -> CriterionResult:
    return CriterionResult(cid=cid, description=desc, passed=bool(passed), details=details)


def _criterion_1() -> CriterionResult:
    desc = "reciprocity of the paired time-course factors on 1e4 random draws"
    rng = np.random.default_rng(SEED)
    worst = 0.0
    for _ in range(10_000):
        v0 = rng.uniform(-0.99, 0.99)
        ux_p = rng.uniform(-1.0, 1.0)
        g = lorentz_gamma(v0)
        ux = velocity_addition_x(ux_p, v0)
        worst = max(worst, abs(g * g * (1.0 + v0 * ux_p) * (1.0 - v0 * ux) - 1.0))
    return _result(1, desc, worst < 1e-12, f"max |defect| = {worst:.3e} (< 1e-12)")


def _criterion_2() -> CriterionResult:
    desc = "kinematic, ratio and dynamic time maps agree on analytic worldlines"
    b = Boost(0.5)
    worst_map = 0.0
    worst_spread = 0.0

    cyc = analytic.CyclotronParams(u0_prime=0.3, B_prime=1.0, alpha=0.3)
    w_cyc = analytic.cyclotron_worldline(cyc, 0.0, cyc.period_prime, 2001)
    f_cyc = FieldConfig(E=np.zeros(3), B=np.array([0.0, 0.0, 1.0]))
    ue = analytic.UniformEParams(E_prime=np.array([0.6, 0.2, 0.0]))
    w_ue = analytic.uniform_e_worldline(ue, -2.0, 2.0, 2001)
    f_ue = FieldConfig(E=ue.E_prime, B=np.zeros(3))

    for w, f in ((w_cyc, f_cyc), (w_ue, f_ue)):
        g_kin = time_map_kinematic(w, b).g
        g_rat = time_map_ratio(w, b).g
        g_dyn = time_map_dynamic(w, f, b).g
        worst_map = max(
            worst_map,
            float(np.abs(g_kin - g_rat).max()),
            float(np.abs(g_kin - g_dyn).max()),
        )
        # spread judged away from force-degeneracy nodes: components within
        # 1e-3 of the local force scale stay masked
        report = index_independence_report(w, f, b, threshold=1e-3)
        worst_spread = max(worst_spread, report.max_spread)
    passed = worst_map < 1e-9 and worst_spread < 1e-9
    return _result(
        2, desc, passed,
        f"max pointwise discrepancy = {worst_map:.3e}, "
        f"max g_i spread = {worst_spread:.3e} (< 1e-9)",
    )


def _criterion_3() -> CriterionResult:
    desc = "full-period integral of g equals gamma*T' for random orbits and phases"
    rng = np.random.default_rng(SEED + 3)
    worst = 0.0
    for _ in range(10):
        v0 = rng.uniform(-0.9, 0.9)
        u0 = rng.uniform(0.05, 0.95)
        b = Boost(v0)
        p = analytic.CyclotronParams(u0_prime=u0, B_prime=1.0, alpha=rng.uniform(0, 2 * np.pi))
        t_p = p.period_prime
        w = analytic.cyclotron_worldline(p, 0.0, 2.2 * t_p, int(2.2 * 2000) + 1)
        expected = b.gamma * t_p
        for _ in range(10):
            t0 = rng.uniform(0.0, t_p)
            got = period_map_numeric(w, b, t_p, t0, window=1.0)
            worst = max(worst, abs(got - expected) / expected)
    return _result(3, desc, worst < 1e-9, f"max relative error = {worst:.3e} (< 1e-9)")


def _criterion_4() -> CriterionResult:
    desc = "half-period integral matches the closed form and its oscillation amplitude"
    b = Boost(0.5)
    p = analytic.CyclotronParams(u0_prime=0.3, B_prime=1.0, alpha=0.7)
    t_p = p.period_prime
    w = analytic.cyclotron_worldline(p, 0.0, 1.7 * t_p, 3401)
    t0s = np.linspace(0.0, t_p, 32, endpoint=False)
    numeric = np.array(
        [period_map_numeric(w, b, t_p, float(t0), window=0.5) for t0 in t0s]
    )
    closed = np.array([analytic.magnetic_half_period_map(p, b, float(t0)) for t0 in t0s])
    worst = float(np.abs(numeric - closed).max() / closed.max())
    # single-bin Fourier amplitude of the t0-oscillation
    phase = p.omega_prime * t0s
    amp_fit = 2.0 * abs(np.mean(numeric * np.exp(-1j * phase)))
    amp_expected = b.gamma * (t_p / 2.0) * (2.0 / math.pi) * b.v0 * p.u0_prime
    amp_err = abs(amp_fit - amp_expected) / amp_expected
    passed = worst < 1e-9 and amp_err < 1e-6
    return _result(
        4, desc, passed,
        f"max relative error = {worst:.3e} (< 1e-9), "
        f"amplitude error = {amp_err:.3e} (< 1e-6)",
    )


def _criterion_5() -> CriterionResult:
    desc = "simultaneity split: direct boost matches the closed form and oscillates at omega'"
    b = Boost(0.6)
    p1 = analytic.CyclotronParams(u0_prime=0.3, B_prime=1.0, alpha=0.2)
    p2 = analytic.CyclotronParams(u0_prime=0.3, B_prime=1.0, alpha=0.2 + np.pi / 2)
    n_periods = 3
    t_p = p1.period_prime
    w1 = analytic.cyclotron_worldline(p1, 0.0, n_periods * t_p, 3001)
    w2 = analytic.cyclotron_worldline(p2, 0.0, n_periods * t_p, 3001)
    series = simultaneity_series(w1, w2, b)
    closed = analytic.simultaneity_difference(p1, p2, b, series[:, 0])
    worst = float(np.abs(series[:, 1] - closed).max())
    signs = np.sign(series[:, 1])
    crossings = int(np.sum(signs[:-1] * signs[1:] < 0))
    passed = worst < 1e-12 and crossings == 2 * n_periods
    return _result(
        5, desc, passed,
        f"max |direct - closed| = {worst:.3e} (< 1e-12), "
        f"sign changes over {n_periods} periods = {crossings} (expect {2 * n_periods})",
    )


def _criterion_6() -> CriterionResult:
    desc = "uniform-E laws: integrator velocity, proper-time integral, sign of the map"
    p = analytic.UniformEParams(E_prime=np.array([1.0, 0.0, 0.0]))
    state = ParticleState(t=0.0, r=np.zeros(3), u=np.zeros(3))
    f = FieldConfig(E=p.E_prime, B=np.zeros(3))
    w = integrate(state, f, IntegratorConfig(method="rk4", dt=3e-3, n_steps=1000))
    _, u_exact = analytic.uniform_e_state(p, w.t)
    vel_err = float(np.abs(w.u - u_exact).max())

    t = np.linspace(0.0, 3.0, 3001)
    rate, tau_exact = analytic.electric_proper_time(p, t)
    tau_num = _accumulate(t, rate)
    tau_err = float(np.abs(tau_num - tau_exact).max())

    rng = np.random.default_rng(SEED + 6)
    sign_ok = True
    for _ in range(10_000):
        v0 = rng.uniform(0.01, 0.99)
        ax = rng.choice([-1.0, 1.0]) * rng.uniform(0.1, 2.0)
        ay = rng.uniform(-1.0, 1.0)
        tp = rng.uniform(-3.0, 3.0)
        pp = analytic.UniformEParams(E_prime=np.array([ax, ay, 0.0]))
        g = analytic.electric_time_map(pp, Boost(v0), tp)
        gamma = lorentz_gamma(v0)
        if ax * tp > 0 and not g > gamma:
            sign_ok = False
            break
        if ax * tp < 0 and not g < gamma:
            sign_ok = False
            break
    passed = vel_err < 1e-8 and tau_err < 1e-10 and sign_ok
    return _result(
        6, desc, passed,
        f"velocity error = {vel_err:.3e} (< 1e-8), "
        f"proper-time error = {tau_err:.3e} (< 1e-10), sign law: "
        + ("holds on 1e4 draws" if sign_ok else "VIOLATED"),
    )


def _criterion_7() -> CriterionResult:
    desc = "energy + potential conserved on analytic worldlines; RK4 drift is 4th order"
    p = analytic.UniformEParams(E_prime=np.array([0.7, 0.3, 0.2]))
    f = FieldConfig(E=p.E_prime, B=np.zeros(3))
    w = analytic.uniform_e_worldline(p, 0.0, 3.0 / p.a_mag, 2001)
    drift_analytic = energy_audit(w, f, m0=1.0, e=1.0).max_relative_drift

    f1 = FieldConfig(E=np.array([1.0, 0.0, 0.0]), B=np.zeros(3))
    state = ParticleState(t=0.0, r=np.zeros(3), u=np.zeros(3))
    drifts = []
    for dt, n in ((0.03, 100), (0.015, 200)):
        wi = integrate(state, f1, IntegratorConfig(method="rk4", dt=dt, n_steps=n))
        drifts.append(energy_audit(wi, f1, m0=1.0, e=1.0).max_relative_drift)
    ratio = drifts[0] / drifts[1]
    passed = drift_analytic < 1e-10 and ratio >= 12.0
    return _result(
        7, desc, passed,
        f"analytic-worldline drift = {drift_analytic:.3e} (< 1e-10), "
        f"RK4 drift ratio per step halving = {ratio:.1f} (>= 12)",
    )


def _criterion_8() -> CriterionResult:
    desc = "oscillatory-drift period law T = gamma*(1 + v0*u0x')*T' on random parameters"
    rng = np.random.default_rng(SEED + 8)
    worst = 0.0
    done = 0
    while done < 10:
        a = rng.uniform(-0.2, 0.2, size=3)
        omega = rng.uniform(0.5, 2.0)
        u0 = rng.uniform(-0.4, 0.4, size=3)
        try:
            p = analytic.OscDriftParams(a_prime=a, omega_prime=omega, u0_prime=u0)
        except ValueError:
            continue  # superluminal draw; retry
        done += 1
        v0 = rng.uniform(-0.9, 0.9)
        b = Boost(v0)
        t_p, t_lab = analytic.osc_drift_period_map(p, b)
        w = analytic.osc_drift_worldline(p, 0.0, 1.2 * t_p, 2401)
        got = period_map_numeric(w, b, t_p, 0.0, window=1.0)
        worst = max(worst, abs(got - t_lab) / t_lab)
    return _result(8, desc, worst < 1e-9, f"max relative error = {worst:.3e} (< 1e-9)")


def _criterion_9() -> CriterionResult:
    desc = "correction equation: linearity, zero-seed floor, frequency, residual scaling"
    k, m0 = 1.3, 1.0
    rng = np.random.default_rng(SEED + 9)

    # superposition on a force with position and velocity dependence
    A = rng.uniform(-1.0, 1.0, size=(3, 3))
    C = rng.uniform(-0.3, 0.3, size=(3, 3))
    force_rand = ForceLaw(evaluate=lambda r, u, t: A @ r + C @ u - 0.4 * float(r @ r) * r)
    run0 = zero_order_solve(force_rand, [0.6, 0.2, -0.1], [0.0, 0.1, 0.0], m0, (0.0, 6.0), 2e-3)
    s_a = (np.array([1e-3, 0.0, -2e-3]), np.array([0.0, 1e-3, 0.0]))
    s_b = (np.array([-3e-3, 1e-3, 0.0]), np.array([1e-3, 0.0, 1e-3]))
    r1_a = correction_solve(run0, force_rand, s_a[0], s_a[1], m0)
    r1_b = correction_solve(run0, force_rand, s_b[0], s_b[1], m0)
    r1_ab = correction_solve(run0, force_rand, s_a[0] + s_b[0], s_a[1] + s_b[1], m0)
    superpos = float(np.abs(r1_ab.r - r1_a.r - r1_b.r).max())

    # zero initial perturbation must stay at the solver floor
    r1_zero = correction_solve(run0, force_rand, np.zeros(3), np.zeros(3), m0)
    zero_floor = float(np.abs(r1_zero.r).max())

    # harmonic correction oscillates at sqrt(k/m0)
    harmonic = ForceLaw(
        evaluate=lambda r, u, t: -k * r,
        jac_r=lambda r, u, t: -k * np.eye(3),
        jac_u=lambda r, u, t: np.zeros((3, 3)),
    )
    omega = math.sqrt(k / m0)
    n_periods = 4
    span = (0.0, n_periods * 2.0 * math.pi / omega)
    run0_h = zero_order_solve(harmonic, [1.0, 0.0, 0.0], [0.0, 0.0, 0.0], m0, span, 2e-3)
    r1_h = correction_solve(run0_h, harmonic, [1e-3, 0.0, 0.0], [0.0, 0.0, 0.0], m0)
    freq_err = abs(_fit_frequency(r1_h.t, r1_h.r[:, 0]) - omega) / omega

    # expansion residual versus boost speed, correction seeded with v0
    anharmonic = ForceLaw(
        evaluate=lambda r, u, t: -r - 0.5 * float(r @ r) * r,
        jac_r=lambda r, u, t: -(1.0 + 0.5 * float(r @ r)) * np.eye(3)
        - 1.0 * np.outer(r, r),
        jac_u=lambda r, u, t: np.zeros((3, 3)),
    )
    residuals, exponent = residual_sweep(
        anharmonic, [1.0, 0.0, 0.0], [0.0, 0.0, 0.0], m0,
        (0.0, 4.0 * math.pi), 2e-3, [0.001, 0.002, 0.004],
    )
    passed = (
        superpos < 1e-10
        and zero_floor < 1e-13
        and freq_err < 1e-6
        and exponent >= 0.9
    )
    return _result(
        9, desc, passed,
        f"superposition defect = {superpos:.3e} (< 1e-10), "
        f"zero-seed max |r1| = {zero_floor:.3e}, "
        f"frequency error = {freq_err:.3e} (< 1e-6), "
        f"residual exponent = {exponent:.2f} over residuals "
        f"{[f'{r:.2e}' for r in residuals]} (>= 0.9)",
    )


def _fit_frequency(t: np.ndarray, y: np.ndarray) -> float:
    """Frequency from the first and last linearly interpolated zero crossings."""
    sign_flips = np.nonzero(y[:-1] * y[1:] < 0)[0]
    if sign_flips.size < 2:
        raise ValueError("need at least two zero crossings to fit a frequency")

    def crossing(i: int) -> float:
        frac = y[i] / (y[i] - y[i + 1])
        return t[i] + frac * (t[i + 1] - t[i])

    first, last = crossing(sign_flips[0]), crossing(sign_flips[-1])
    half_periods = sign_flips.size - 1
    return math.pi * half_periods / (last - first)


def _criterion_10() -> CriterionResult:
    desc = "scenario runs are byte-deterministic end to end"
    cfg = bundled_scenario_path("cyclotron")
    with tempfile.TemporaryDirectory() as tmp:
        out_a, out_b = Path(tmp) / "a", Path(tmp) / "b"
        for out in (out_a, out_b):
            proc = subprocess.run(
                [sys.executable, "-m", "chronodyn.cli", "simulate", str(cfg), "--out", str(out)],
                capture_output=True,
                text=True,
            )
            if proc.returncode != 0:
                return _result(
                    10, desc, False,
                    f"simulate exited {proc.returncode}: {proc.stderr.strip()[:200]}",
                )
        names_a = sorted(p.name for p in out_a.iterdir())
        names_b = sorted(p.name for p in out_b.iterdir())
        if names_a != names_b or not names_a:
            return _result(10, desc, False, f"file sets differ: {names_a} vs {names_b}")
        diffs = [
            n for n in names_a if (out_a / n).read_bytes() != (out_b / n).read_bytes()
        ]
    passed = not diffs
    details = (
        f"{len(names_a)} files byte-identical across two runs"
        if passed
        else f"files differ between runs: {diffs}"
    )
    return _result(10, desc, passed, details)


CRITERIA = [
    (1, "reciprocity of paired time-course factors (1e4 draws, 1e-12)", _criterion_1),
    (2, "three-way time-map agreement and index independence (1e-9)", _criterion_2),
    (3, "cyclotron full-period map = gamma*T' (1e-9 relative)", _criterion_3),
    (4, "half-period map closed form and oscillation amplitude (1e-9 / 1e-6)", _criterion_4),
    (5, "simultaneity oscillation: closed form (1e-12) and frequency", _criterion_5),
    (6, "uniform-E laws: velocity (1e-8), proper time (1e-10), sign law", _criterion_6),
    (7, "energy conservation: analytic (1e-10) and RK4 order (>= 12x)", _criterion_7),
    (8, "oscillatory-drift period law (1e-9 relative, 10 draws)", _criterion_8),
    (9, "perturbation: linearity, zero floor, frequency, residual scaling", _criterion_9),
    (10, "byte-deterministic scenario output", _criterion_10),
]


def run_criterion(cid: int) -> CriterionResult:
    for num, _, fn in CRITERIA:
        if num == cid:
            return fn()
    raise ValueError(f"no criterion numbered {cid}")


def run_all(verbose: bool = True) -> list[CriterionResult]:
    """Run every criterion; prints one pass/fail line each when verbose."""
    results = []
    for num, _, fn in CRITERIA:
        res = fn()
        results.append(res)
        if verbose:
            status = "PASS" if res.passed else "FAIL"
            print(f"[{status}] criterion {num:2d}: {res.description} -- {res.details}")
    return results
