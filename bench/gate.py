"""Correctness gate: every job's outputs against references computed here.

The references are closed forms evaluated with numpy; nothing in this file
imports chronodyn, so a defect in the library cannot also hide in its
reference.  Tolerances are the acceptance battery's where it has one:
time-map agreement 1e-9 (criterion 2), period ratios 1e-9 relative
(criteria 3 and 8), uniform-E velocity 1e-8 (criterion 6), energy drift on
closed-form worldlines 1e-10 (criterion 7), superposition 1e-10 and
residual exponent >= 0.9 (criterion 9).  A check raises ``GateError`` naming
the quantity that is off.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

from workloads import steps

G_TOL = 1e-9
PERIOD_TOL = 1e-9
VELOCITY_TOL = 1e-8
ENERGY_TOL = 1e-10
SUPERPOSITION_TOL = 1e-10
MIN_RESIDUAL_EXPONENT = 0.9
SAMPLE_TOL = 1e-12  # CSV read-back: the same formula, evaluated twice
RK4_TOL = 1e-8  # 3 000 RK4 steps of a linear law at dt = 2e-3
BORIS_E_DRIFT_TOL = 1e-5  # Boris is 2nd order once E does work


class GateError(Exception):
    """A job's output disagrees with its reference."""


def gamma(v0: float) -> float:
    return 1.0 / math.sqrt(1.0 - v0 * v0)


def _close(name: str, got, want, tol: float, relative: bool = False) -> None:
    got = np.asarray(got, dtype=float)
    want = np.asarray(want, dtype=float)
    if got.shape != want.shape:
        raise GateError(f"{name}: shape {got.shape}, expected {want.shape}")
    scale = np.maximum(np.abs(want), 1.0) if relative else 1.0
    err = np.abs(got - want) / scale
    worst = float(np.max(err)) if err.size else 0.0
    if not worst <= tol:  # also rejects NaN
        i = int(np.argmax(err)) if err.size else 0
        raise GateError(
            f"{name}: off by {worst:.3e} (bound {tol:.0e}); "
            f"got {float(got.flat[i])!r}, expected {float(want.flat[i])!r}"
        )


def read_csv(path, header: list[str]) -> np.ndarray:
    """Parse a numeric CSV whose first line must equal ``header``."""
    text = Path(path).read_text()
    first, _, body = text.partition("\n")
    if first.split(",") != header:
        raise GateError(f"{Path(path).name}: header {first!r}, expected {','.join(header)!r}")
    values = np.array(body.replace("\n", ",").split(",")[:-1], dtype=float)
    if values.size % len(header):
        raise GateError(f"{Path(path).name}: ragged rows")
    return values.reshape(-1, len(header))


WORLDLINE_HEADER = ["t", "x", "y", "z", "ux", "uy", "uz"]
TIMEMAP_HEADER = ["t_prime", "g", "t"]
ENERGY_HEADER = ["t", "energy", "potential", "total"]
RUN_HEADER = ["t", "r0x", "r0y", "r0z", "r1x", "r1y", "r1z", "Fx", "Fy", "Fz"]


# --------------------------------------------------------------------------
# Closed-form motions, sampled the way the scenario config prescribes
# --------------------------------------------------------------------------

def _period(config: dict) -> float:
    a = config["analytic"]
    if a["kind"] == "cyclotron":
        m0, e = config["particle"]["m0"], config["particle"]["e"]
        omega = e * a["B_prime"] / (m0 * gamma(a["u0_prime"]))
        return 2.0 * math.pi / abs(omega)
    return 2.0 * math.pi / abs(a["omega_prime"])


def time_grid(config: dict) -> np.ndarray:
    grid = config["time_grid"]
    if "periods" in grid:
        t1 = grid["periods"] * _period(config)
        return np.linspace(0.0, t1, int(round(grid["periods"] * grid["per_period"])) + 1)
    return np.linspace(grid["t0"], grid["t1"], grid["n"])


def closed_form(config: dict, t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """K'-frame position and velocity of the scenario's analytic motion."""
    a = config["analytic"]
    m0, e = config["particle"]["m0"], config["particle"]["e"]
    if a["kind"] == "cyclotron":
        omega = e * a["B_prime"] / (m0 * gamma(a["u0_prime"]))
        phi = omega * t + a["alpha"]
        rho = a["u0_prime"] / omega
        zero = np.zeros_like(t)
        r = np.asarray(a["r0_prime"]) + rho * np.stack([np.sin(phi), np.cos(phi), zero], axis=-1)
        u = a["u0_prime"] * np.stack([np.cos(phi), -np.sin(phi), zero], axis=-1)
        return r, u
    if a["kind"] == "uniform_e":
        acc = e * np.asarray(a["E_prime"]) / m0
        a2 = float(acc @ acc)
        root = np.sqrt(1.0 + a2 * t * t)
        u = acc * (t / root)[:, None]
        r = np.asarray(a["r0_prime"]) + acc * ((root - 1.0) / a2)[:, None]
        return r, u
    amp, w, drift = np.asarray(a["a_prime"]), a["omega_prime"], np.asarray(a["u0_prime"])
    r = amp * np.sin(w * t)[:, None] + drift * t[:, None]
    u = amp * (w * np.cos(w * t))[:, None] + drift
    return r, u


def boost_to_k(t, r, u, v0: float):
    """Standard-configuration boost of K' samples into K (events and velocities)."""
    g = gamma(v0)
    denom = 1.0 + v0 * u[:, 0]
    t_k = g * (t + v0 * r[:, 0])
    r_k = r.copy()
    r_k[:, 0] = g * (r[:, 0] + v0 * t)
    u_k = np.column_stack([(u[:, 0] + v0) / denom, u[:, 1] / (g * denom), u[:, 2] / (g * denom)])
    return t_k, r_k, u_k


def g_kprime(ux_prime, v0: float):
    """dt/dt' along the motion, from K'-frame velocities."""
    return gamma(v0) * (1.0 + v0 * ux_prime)


def g_k(ux, v0: float):
    """dt'/dt along the motion, from K-frame velocities."""
    return gamma(v0) * (1.0 - v0 * ux)


# --------------------------------------------------------------------------
# simulate-timemap
# --------------------------------------------------------------------------

def check_worldline_csv(path, t, r, u) -> None:
    table = read_csv(path, WORLDLINE_HEADER)
    name = Path(path).name
    _close(f"{name} t", table[:, 0], t, SAMPLE_TOL, relative=True)
    _close(f"{name} r", table[:, 1:4], r, SAMPLE_TOL, relative=True)
    _close(f"{name} u", table[:, 4:7], u, SAMPLE_TOL, relative=True)


def check_time_map(table: np.ndarray, g_want, label: str) -> None:
    """Row count and g of a time-map table against the correct ratio."""
    if table.shape[0] != len(g_want):
        raise GateError(f"{label}: {table.shape[0]} rows, expected {len(g_want)}")
    _close(f"{label} g", table[:, 1], g_want, G_TOL)


def check_kprime_time_map(path, config: dict) -> None:
    t = time_grid(config)
    r, u = closed_form(config, t)
    v0 = config["v0"]
    table = read_csv(path, TIMEMAP_HEADER)
    check_time_map(table, g_kprime(u[:, 0], v0), "K' time map")
    _close("K' time map t_prime", table[:, 0], t, SAMPLE_TOL, relative=True)
    # integral of g dt' in closed form: gamma*(dt' + v0*dx')
    elapsed = gamma(v0) * ((t - t[0]) + v0 * (r[:, 0] - r[0, 0]))
    _close("K' time map accumulated t", table[:, 2], elapsed, G_TOL, relative=True)


def check_k_time_map(path, config: dict) -> None:
    t = time_grid(config)
    r, u = closed_form(config, t)
    v0 = config["v0"]
    _, _, u_k = boost_to_k(t, r, u, v0)
    check_time_map(read_csv(path, TIMEMAP_HEADER), g_k(u_k[:, 0], v0), "K time map")


def check_simulate(config: dict, out: Path) -> None:
    t = time_grid(config)
    r, u = closed_form(config, t)
    v0 = config["v0"]
    kind = config["analytic"]["kind"]
    check_worldline_csv(out / "worldline_kprime.csv", t, r, u)
    check_worldline_csv(out / "worldline_k.csv", *boost_to_k(t, r, u, v0))
    check_kprime_time_map(out / "timemap.csv", config)
    for frame in ("kprime", "k"):
        meta = json.loads((out / f"worldline_{frame}.meta.json").read_text())
        if meta["boost"]["v0"] != v0:
            raise GateError(f"worldline_{frame}.meta.json: v0 {meta['boost']['v0']}, expected {v0}")

    summary = json.loads((out / "summary.json").read_text())
    if summary["n_samples"] != len(t):
        raise GateError(f"summary n_samples {summary['n_samples']}, expected {len(t)}")
    g = g_kprime(u[:, 0], v0)
    _close("summary g_min", summary["timemap"]["g_min"], g.min(), G_TOL)
    _close("summary g_max", summary["timemap"]["g_max"], g.max(), G_TOL)
    if kind in ("cyclotron", "osc_drift"):
        drift = 0.0 if kind == "cyclotron" else config["analytic"]["u0_prime"][0]
        ratio = gamma(v0) * (1.0 + v0 * drift)
        per = summary["period"]
        _close("period ratio (closed form)", per["ratio_closed_form"], ratio, PERIOD_TOL, True)
        _close("period ratio (numeric)", per["ratio_numeric"], ratio, PERIOD_TOL, True)
    if kind == "cyclotron":
        a = config["analytic"]
        m0, e = config["particle"]["m0"], config["particle"]["e"]
        omega = e * a["B_prime"] / (m0 * gamma(a["u0_prime"]))
        envelope = abs(2.0 * gamma(v0) * v0 * a["u0_prime"] / omega)
        sim = summary["simultaneity"]
        _close("simultaneity envelope", sim["envelope_closed_form"], envelope, 1e-12, True)
        # sampled maximum of |2*gamma*v0*rho*sin(phi)| sits within one grid step of the peak
        if not envelope * (1.0 - 1e-5) <= sim["max_abs_difference"] <= envelope * (1.0 + 1e-12):
            raise GateError(
                f"simultaneity max {sim['max_abs_difference']!r} outside its envelope {envelope!r}"
            )
    if kind in ("cyclotron", "uniform_e"):
        check_energy_csv(out / "energy.csv", config, t, r, u)
        if not summary["energy"]["max_relative_drift"] < ENERGY_TOL:
            raise GateError(f"energy drift {summary['energy']['max_relative_drift']:.3e}")


def check_energy_csv(path, config: dict, t, r, u) -> None:
    m0, e = config["particle"]["m0"], config["particle"]["e"]
    a = config["analytic"]
    E = np.asarray(a["E_prime"]) if a["kind"] == "uniform_e" else np.zeros(3)
    table = read_csv(path, ENERGY_HEADER)
    energy = m0 / np.sqrt(1.0 - np.sum(u * u, axis=1))
    _close("energy.csv t", table[:, 0], t, SAMPLE_TOL, relative=True)
    _close("energy.csv energy", table[:, 1], energy, SAMPLE_TOL, relative=True)
    _close("energy.csv potential", table[:, 2], -e * (r @ E), SAMPLE_TOL, relative=True)


def check_timemap(job: dict, config: dict, path: Path) -> None:
    if job["frame"] == "Kprime":
        check_kprime_time_map(path, config)
    else:
        check_k_time_map(path, config)


# --------------------------------------------------------------------------
# field-integrate
# --------------------------------------------------------------------------

def check_field(job: dict, summary: dict) -> None:
    cfg = job["config"]
    v0 = cfg["v0"]
    m0, e = cfg["particle"]["m0"], cfg["particle"]["e"]
    E = np.asarray(cfg["field"]["E"])
    u0 = np.asarray(cfg["initial"]["u"])
    n = job["steps"]
    if summary["n_samples"] != n + 1:
        raise GateError(f"n_samples {summary['n_samples']}, expected {n + 1}")
    _close("initial energy", summary["energy"]["initial_total"],
           m0 / math.sqrt(1.0 - float(u0 @ u0)), 1e-12, relative=True)
    drift = summary["energy"]["max_relative_drift"]
    if job["field_kind"] == "pure_e":
        # from rest: u = a*t/sqrt(1 + |a|^2 t^2), x = ax*(sqrt(1 + |a|^2 t^2) - 1)/|a|^2
        acc = e * E / m0
        a2 = float(acc @ acc)
        T = n * cfg["integrator"]["dt"]
        root = math.sqrt(1.0 + a2 * T * T)
        g_end = summary["timemap"]["g_max"] if acc[0] > 0 else summary["timemap"]["g_min"]
        _close("final velocity ux", (g_end / gamma(v0) - 1.0) / v0, acc[0] * T / root, VELOCITY_TOL)
        ratio = gamma(v0) * (1.0 + v0 * acc[0] * (root - 1.0) / (a2 * T))
        tol = G_TOL if job["method"] == "rk4" else 1e-6
        _close("elapsed t / elapsed t'", summary["timemap"]["elapsed_t_over_elapsed_t_prime"],
               ratio, tol, relative=True)
    bound = BORIS_E_DRIFT_TOL if job["method"] == "boris" and job["field_kind"] != "pure_b" else ENERGY_TOL
    if not drift < bound:
        raise GateError(f"energy drift {drift:.3e} over bound {bound:.0e}")


# --------------------------------------------------------------------------
# perturb
# --------------------------------------------------------------------------

def _linear_solution(kind: str, spec: dict, m0: float, x0, v0, t):
    """Position and velocity of m0*x'' = -k*x - c*x' (+ F) from (x0, v0)."""
    x0, v0 = np.asarray(x0, dtype=float), np.asarray(v0, dtype=float)
    tt = t[:, None]
    if kind == "constant":
        F = np.asarray(spec["F"])
        return x0 + v0 * tt + 0.5 * F / m0 * tt * tt, v0 + F / m0 * tt
    k = spec["k"]
    beta = spec.get("c", 0.0) / (2.0 * m0)
    wd = math.sqrt(k / m0 - beta * beta)
    B = (v0 + beta * x0) / wd
    decay = np.exp(-beta * tt)
    cos, sin = np.cos(wd * tt), np.sin(wd * tt)
    x = decay * (x0 * cos + B * sin)
    v = decay * (v0 * cos - (beta * B + wd * x0) * sin)
    return x, v


def _force(kind: str, spec: dict, r, u):
    if kind == "constant":
        return np.broadcast_to(np.asarray(spec["F"]), r.shape)
    F = -spec["k"] * r
    if kind == "damped_harmonic":
        F = F - spec["c"] * u
    if kind == "anharmonic":
        F = F - spec["eps"] * np.sum(r * r, axis=1)[:, None] * r
    return F


def _correction_force(kind: str, spec: dict, r0, r1, u1):
    """(r1 . grad_r) F + (u1 . grad_u) F along the zero-order run: the time force."""
    if kind == "constant":
        return np.zeros_like(r1)
    out = -spec["k"] * r1
    if kind == "damped_harmonic":
        out = out - spec["c"] * u1
    if kind == "anharmonic":
        eps = spec["eps"]
        out = out - eps * np.sum(r0 * r0, axis=1)[:, None] * r1 \
            - 2.0 * eps * np.sum(r0 * r1, axis=1)[:, None] * r0
    return out


def _residual(kind, spec, v0, t, r0, r1, u0, u1) -> float:
    """The first-order expansion residual, recomputed from the run's columns."""
    defect = _force(kind, spec, r0, u0) + _correction_force(kind, spec, r0, r1, u1) \
        - _force(kind, spec, r0 + r1, u0 + u1)
    d_defect = (defect[2:] - defect[:-2]) / (t[2:] - t[:-2])[:, None]
    series = defect[1:-1] + (-v0 * r0[1:-1, 0])[:, None] * d_defect
    return float(np.abs(series).max())


def check_perturb_config(job: dict, out: Path) -> None:
    cfg = job["config"]
    kind, spec, m0 = job["force_kind"], cfg["force"], cfg["m0"]
    n = steps(cfg["t_span"], cfg["dt"])
    table = read_csv(out / "run.csv", RUN_HEADER)
    if table.shape[0] != n + 1:
        raise GateError(f"run.csv: {table.shape[0]} rows, expected {n + 1}")
    t, r0, r1, F1 = table[:, 0], table[:, 1:4], table[:, 4:7], table[:, 7:10]
    _close("run.csv t", t, cfg["t_span"][0] + cfg["dt"] * np.arange(n + 1), SAMPLE_TOL, True)
    init, corr = cfg["initial"], cfg["correction_initial"]
    if kind == "anharmonic":
        # no closed form: check the conserved energy, with 4th-order differences for u
        h = cfg["dt"]
        u = (-r0[4:] + 8.0 * r0[3:-1] - 8.0 * r0[1:-3] + r0[:-4]) / (12.0 * h)
        rr = np.sum(r0[2:-2] ** 2, axis=1)
        energy = 0.5 * m0 * np.sum(u * u, axis=1) + 0.5 * spec["k"] * rr + 0.25 * spec["eps"] * rr * rr
        _close("anharmonic zero-order energy", energy, np.full_like(energy, energy[0]), RK4_TOL, True)
        _close("run.csv r0(0)", r0[0], init["r"], SAMPLE_TOL, True)
        _close("run.csv r1(0)", r1[0], corr["r1"], SAMPLE_TOL, True)
        u0 = u1 = np.zeros_like(r0)  # the anharmonic law ignores velocity
    else:
        r0_ref, u0 = _linear_solution(kind, spec, m0, init["r"], init["u"], t)
        # the correction obeys the homogeneous law: no constant force
        r1_spec = {"F": [0.0, 0.0, 0.0]} if kind == "constant" else spec
        r1_ref, u1 = _linear_solution(kind, r1_spec, m0, corr["r1"], corr["u1"], t)
        _close("zero-order r0", r0, r0_ref, RK4_TOL, relative=True)
        _close("correction r1", r1, r1_ref, RK4_TOL * 1e-3, relative=True)
    # u1 comes from the closed form for the damped law, so allow its RK4 error
    _close("time force", F1, _correction_force(kind, spec, r0, r1, u1),
           RK4_TOL * 1e-3 if kind == "damped_harmonic" else 1e-12)

    summary = json.loads((out / "summary.json").read_text())
    if summary["n_samples"] != n + 1:
        raise GateError(f"summary n_samples {summary['n_samples']}, expected {n + 1}")
    _close("max_correction", summary["max_correction"], np.abs(r1).max(), 0.0)
    _close("max_time_force", summary["max_time_force"], np.abs(F1).max(), 0.0)
    residual = _residual(kind, spec, cfg["v0"], t, r0, r1, u0, u1)
    _close("expansion residual", summary["expansion_residual"], residual, 1e-12)


def check_sweep(job: dict, result: dict) -> None:
    """Superposition over the three seeds and the residual's scaling exponent."""
    (ra, ua), (rb, ub) = job["seeds"]
    corr = result["corrections"]
    n = steps(job["t_span"], job["dt"]) + 1
    for name, c in zip(("a", "b", "a+b"), corr):
        if c.shape != (n, 3):
            raise GateError(f"correction {name}: shape {c.shape}, expected {(n, 3)}")
    _close("correction r1(0) seed a", corr[0][0], ra, 0.0)
    _close("correction r1(0) seed a+b", corr[2][0], np.add(ra, rb), 0.0)
    _close("superposition r1(a+b) - r1(a) - r1(b)", corr[2] - corr[0] - corr[1],
           np.zeros((n, 3)), SUPERPOSITION_TOL)
    residuals = np.asarray(result["residuals"], dtype=float)
    if not (residuals.shape == (len(job["v0_values"]),) and np.all(residuals > 0)):
        raise GateError(f"residuals {residuals!r} are not positive")
    exponent = float(np.polyfit(np.log(job["v0_values"]), np.log(residuals), 1)[0])
    _close("residual exponent", result["exponent"], exponent, 1e-9)
    if not exponent >= MIN_RESIDUAL_EXPONENT:
        raise GateError(f"residual exponent {exponent:.3f} < {MIN_RESIDUAL_EXPONENT}")


def same_bytes(first: Path, second: Path) -> None:
    """A repeated config must reproduce every file byte for byte."""
    names = sorted(p.name for p in first.iterdir())
    if names != sorted(p.name for p in second.iterdir()):
        raise GateError(f"repeat wrote different files: {names}")
    for name in names:
        if (first / name).read_bytes() != (second / name).read_bytes():
            raise GateError(f"repeat of the same config changed {name}")
