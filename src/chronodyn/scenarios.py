"""Configuration-driven scenario runs: parse a JSON scenario, simulate, emit files.

A scenario is a single JSON object.  Field runs integrate the equations of
motion; analytic runs sample a closed-form motion.  Exactly one of the two
must be present:

    {
      "name": "cyclotron-demo",
      "v0": 0.6,
      "particle": {"m0": 1.0, "e": 1.0},

      "analytic": {"kind": "cyclotron", "u0_prime": 0.3, "B_prime": 1.0,
                   "alpha": 0.0, "r0_prime": [0, 0, 0]},
      "time_grid": {"periods": 2, "per_period": 1500},   # or {"t0", "t1", "n"}

      # -- or --
      "field": {"E": [0, 0, 0], "B": [0, 0, 1]},
      "initial": {"r": [0, 0, 0], "u": [0.3, 0, 0]},
      "integrator": {"method": "rk4", "dt": 0.005, "n_steps": 2000},

      "timemap_method": "kinematic",                     # | "ratio" | "dynamic"
      "outputs": ["worldline", "boosted_worldline", "timemap", "energy", "summary"]
    }

Analytic kinds: "cyclotron", "uniform_e" (field implied), "osc_drift" (no
field, so asking it for the dynamic time map is a config error).  Outputs
are CSV files plus JSON sidecars/summary; a fixed configuration produces
byte-identical files on every run.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import analytic
from .chronometry import (
    period_map_numeric,
    save_time_map_csv,
    simultaneity_series,
    time_map_dynamic,
    time_map_kinematic,
    time_map_ratio,
)
from .dynamics import FieldConfig, IntegratorConfig, ParticleState, energy_audit, integrate
from .frames import (
    FRAME_K,
    FRAME_KPRIME,
    Boost,
    Worldline,
    _write_csv,
    boost_worldline,
    load_worldline_csv,
    save_worldline_csv,
)
from .perturbation import ForceLaw, expansion_residual, solve_perturbation

__all__ = [
    "Scenario",
    "ScenarioConfigError",
    "load_scenario",
    "parse_scenario",
    "run_scenario",
    "build_force",
    "load_perturb_config",
    "run_perturb",
    "bundled_scenario_path",
]

ALL_OUTPUTS = ("worldline", "boosted_worldline", "timemap", "energy", "summary")
ANALYTIC_KINDS = ("cyclotron", "uniform_e", "osc_drift")


class ScenarioConfigError(ValueError):
    """A scenario file failed to parse or validate; the message names the field."""


def bundled_scenario_path(name: str = "cyclotron") -> Path:
    """Path of a scenario shipped with the package."""
    p = Path(__file__).parent / "data" / f"{name}.json"
    if not p.exists():
        raise ScenarioConfigError(f"no bundled scenario named {name!r}")
    return p


def _need(cfg: dict, key: str, ctx: str = "scenario"):
    if key not in cfg:
        raise ScenarioConfigError(f"{ctx}: missing required field {key!r}")
    return cfg[key]


def _section(cfg: dict, key: str, default=None, kind: type = dict, source=None):
    """Sub-config ``key`` (required unless a default is given), checked to be a ``kind``.

    ``source``, the file the config came from, prefixes the error message.
    """
    value = _need(cfg, key) if default is None else cfg.get(key, default)
    if not isinstance(value, kind):
        what = "a JSON object" if kind is dict else "a JSON array"
        where = "" if source is None else f"{source}: "
        raise ScenarioConfigError(f"{where}{key}: expected {what}, got {value!r}")
    return value


def _vec3(value, ctx: str) -> np.ndarray:
    try:
        v = np.asarray(value, dtype=float)
    except OverflowError:
        raise ScenarioConfigError(f"{ctx}: integer beyond float range") from None
    except (TypeError, ValueError) as exc:
        raise ScenarioConfigError(f"{ctx}: not a numeric 3-vector: {value!r}") from exc
    if v.shape != (3,):
        raise ScenarioConfigError(f"{ctx}: expected 3 components, got {value!r}")
    if not np.all(np.isfinite(v)):
        raise ScenarioConfigError(f"{ctx}: components must be finite, got {value!r}")
    return v


def _number(value, ctx: str) -> float:
    if isinstance(value, int) and abs(value) > sys.float_info.max:  # isfinite would overflow
        raise ScenarioConfigError(f"{ctx}: integer beyond float range")
    if not isinstance(value, (int, float)) or isinstance(value, bool) or not math.isfinite(value):
        raise ScenarioConfigError(f"{ctx}: expected a finite number, got {value!r}")
    return float(value)


def _integer(value, ctx: str) -> int:
    x = _number(value, ctx)
    if x != int(x):
        raise ScenarioConfigError(f"{ctx}: expected an integer, got {value!r}")
    return int(x)


def _positive(value, ctx: str) -> float:
    x = _number(value, ctx)
    if not x > 0.0:
        raise ScenarioConfigError(f"{ctx}: must be positive, got {x}")
    return x


def _speed(value, ctx: str) -> float:
    """A boost speed: a finite number with |v0| < 1."""
    v0 = _number(value, ctx)
    if not abs(v0) < 1.0:
        raise ScenarioConfigError(f"{ctx}: |v0| must be < 1, got {v0}")
    return v0


def _particle(spec: dict, ctx: str) -> tuple[float, float]:
    """(m0, e) of a particle object; the rest mass must be positive."""
    m0 = _positive(_need(spec, "m0", ctx), f"{ctx}.m0")
    return m0, _number(_need(spec, "e", ctx), f"{ctx}.e")


def _field(spec: dict, ctx: str, frame_tag: str = FRAME_KPRIME) -> FieldConfig:
    """A homogeneous field object {"E": [...], "B": [...]} declared in ``frame_tag``."""
    return FieldConfig(
        E=_vec3(_need(spec, "E", ctx), f"{ctx}.E"),
        B=_vec3(_need(spec, "B", ctx), f"{ctx}.B"),
        frame_tag=frame_tag,
    )


def _load_json(path) -> dict:
    """Read a JSON object from a file; every failure names the file."""
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ScenarioConfigError(
            f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    except (OSError, UnicodeDecodeError) as exc:
        raise ScenarioConfigError(f"{path}: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ScenarioConfigError(f"{path}: top level must be a JSON object")
    return cfg


@dataclass(frozen=True)
class Scenario:
    """A validated scenario ready to run."""

    name: str
    v0: float
    m0: float
    e: float
    analytic_kind: str | None
    analytic_params: object | None
    field: FieldConfig | None
    initial_r: np.ndarray | None
    initial_u: np.ndarray | None
    integrator: IntegratorConfig | None
    t_grid: tuple[float, float, int] | None
    timemap_method: str
    outputs: tuple[str, ...]


def parse_scenario(cfg: dict) -> Scenario:
    """Validate a scenario dictionary; raises ScenarioConfigError naming the field.

    ``Scenario.field`` is the field the motion solves: the given one, B'z for
    a cyclotron, E' for uniform_e and None for osc_drift.
    """
    if not isinstance(cfg, dict):
        raise ScenarioConfigError("scenario: top level must be a JSON object")
    name = str(_need(cfg, "name"))
    v0 = _speed(_need(cfg, "v0"), "v0")
    m0, e = _particle(_section(cfg, "particle"), "particle")

    has_field = "field" in cfg
    if has_field == ("analytic" in cfg):
        raise ScenarioConfigError(
            "scenario: exactly one of 'field' and 'analytic' must be present"
        )

    method = cfg.get("timemap_method", "kinematic")
    if method not in ("kinematic", "ratio", "dynamic"):
        raise ScenarioConfigError(
            f"timemap_method: must be kinematic|ratio|dynamic, got {method!r}"
        )
    outputs = tuple(_section(cfg, "outputs", list(ALL_OUTPUTS), list))
    for o in outputs:
        if o not in ALL_OUTPUTS:
            raise ScenarioConfigError(f"outputs: unknown output {o!r}")

    kind = params = r0 = u0 = icfg = t_grid = None
    if has_field:
        field = _field(_section(cfg, "field"), "field")
        init = _section(cfg, "initial")
        r0 = _vec3(_need(init, "r", "initial"), "initial.r")
        u0 = _vec3(_need(init, "u", "initial"), "initial.u")
        if not float(u0 @ u0) < 1.0:
            raise ScenarioConfigError("initial.u: speed must be < 1")
        integ = _section(cfg, "integrator")
        try:
            icfg = IntegratorConfig(
                method=str(integ.get("method", "rk4")),
                dt=_number(_need(integ, "dt", "integrator"), "integrator.dt"),
                n_steps=_integer(_need(integ, "n_steps", "integrator"), "integrator.n_steps"),
            )
        except ValueError as exc:
            raise ScenarioConfigError(f"integrator: {exc}") from exc
    else:
        spec = _section(cfg, "analytic")
        kind = str(_need(spec, "kind", "analytic"))
        if kind not in ANALYTIC_KINDS:
            raise ScenarioConfigError(
                f"analytic.kind: must be one of {ANALYTIC_KINDS}, got {kind!r}"
            )
        try:
            if kind == "cyclotron":
                params = analytic.CyclotronParams(
                    u0_prime=_number(_need(spec, "u0_prime", "analytic"), "analytic.u0_prime"),
                    B_prime=_number(_need(spec, "B_prime", "analytic"), "analytic.B_prime"),
                    alpha=_number(spec.get("alpha", 0.0), "analytic.alpha"),
                    r0_prime=_vec3(spec.get("r0_prime", [0, 0, 0]), "analytic.r0_prime"),
                    m0=m0, e=e,
                )
                field = FieldConfig(E=np.zeros(3), B=np.array([0.0, 0.0, params.B_prime]))
            elif kind == "uniform_e":
                params = analytic.UniformEParams(
                    E_prime=_vec3(_need(spec, "E_prime", "analytic"), "analytic.E_prime"),
                    m0=m0, e=e,
                    r0_prime=_vec3(spec.get("r0_prime", [0, 0, 0]), "analytic.r0_prime"),
                )
                field = FieldConfig(E=params.E_prime, B=np.zeros(3))
            else:
                params = analytic.OscDriftParams(
                    a_prime=_vec3(_need(spec, "a_prime", "analytic"), "analytic.a_prime"),
                    omega_prime=_number(
                        _need(spec, "omega_prime", "analytic"), "analytic.omega_prime"
                    ),
                    u0_prime=_vec3(spec.get("u0_prime", [0, 0, 0]), "analytic.u0_prime"),
                )
                field = None  # a kinematic law, not a field solution
        except ValueError as exc:
            raise ScenarioConfigError(f"analytic: {exc}") from exc

        grid = _section(cfg, "time_grid")
        if "periods" in grid:
            if kind == "uniform_e":
                raise ScenarioConfigError(
                    "time_grid: 'periods' form needs a periodic motion; uniform_e has none"
                )
            periods = _number(grid["periods"], "time_grid.periods")
            per_period = _integer(grid.get("per_period", 1000), "time_grid.per_period")
            t1, n = periods * params.period_prime, periods * per_period
            if not (math.isfinite(t1) and math.isfinite(n)):
                raise ScenarioConfigError(f"time_grid.periods: {periods} periods overflow the grid")
            t_grid = (0.0, t1, int(round(n)) + 1)
        else:
            t_grid = (
                _number(_need(grid, "t0", "time_grid"), "time_grid.t0"),
                _number(_need(grid, "t1", "time_grid"), "time_grid.t1"),
                _integer(_need(grid, "n", "time_grid"), "time_grid.n"),
            )
        if not (t_grid[1] > t_grid[0] and t_grid[2] >= 2):
            raise ScenarioConfigError("time_grid: need t1 > t0 and n >= 2")

    if method == "dynamic" and field is None:
        raise ScenarioConfigError(
            f"timemap_method: dynamic needs a field, and the {kind} law has none"
        )
    return Scenario(
        name=name, v0=v0, m0=m0, e=e,
        analytic_kind=kind, analytic_params=params,
        field=field, initial_r=r0, initial_u=u0, integrator=icfg,
        t_grid=t_grid, timemap_method=method, outputs=outputs,
    )


def load_scenario(path) -> Scenario:
    """Read and validate a scenario JSON file."""
    return parse_scenario(_load_json(path))


def _make_worldline(sc: Scenario) -> Worldline:
    if sc.analytic_kind is not None:
        t0, t1, n = sc.t_grid
        sampler = {
            "cyclotron": analytic.cyclotron_worldline,
            "uniform_e": analytic.uniform_e_worldline,
            "osc_drift": analytic.osc_drift_worldline,
        }[sc.analytic_kind]
        return sampler(sc.analytic_params, t0, t1, n)
    state = ParticleState(
        t=0.0, r=sc.initial_r, u=sc.initial_u, m0=sc.m0, e=sc.e, frame_tag=FRAME_KPRIME
    )
    return integrate(state, sc.field, sc.integrator)


def _write_json(path: Path, payload: dict) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _sidecar(sc: Scenario, frame_tag: str, field: FieldConfig | None) -> dict:
    return {
        "scenario": sc.name,
        "frame_tag": frame_tag,
        "boost": {"v0": sc.v0, "frame_prime": FRAME_KPRIME, "frame_lab": FRAME_K},
        "particle": {"m0": sc.m0, "e": sc.e},
        "field": None
        if field is None
        else {"E": field.E.tolist(), "B": field.B.tolist(), "frame_tag": field.frame_tag},
    }


def _read_worldline_file(path, v0=None) -> tuple[Worldline, Boost, FieldConfig | None, float, float]:
    """Load a worldline CSV and its sidecar: (worldline, boost, field, m0, e).

    ``v0``, when given, overrides the sidecar's boost speed.  The boost
    leaves the file's own frame: K' files map forward (g = dt/dt'), K files
    back to K' (g = dt'/dt).  Without a sidecar the file holds K'-frame
    samples of unknown field, and ``v0`` is required.  A malformed CSV or
    sidecar raises ScenarioConfigError.
    """
    meta_path = Path(path).with_suffix(".meta.json")
    meta = _load_json(meta_path) if meta_path.exists() else {}
    frame_tag = meta.get("frame_tag", FRAME_KPRIME)
    if frame_tag not in (FRAME_KPRIME, FRAME_K):
        raise ScenarioConfigError(
            f"{meta_path}: frame_tag must be {FRAME_KPRIME!r} or {FRAME_K!r}, got {frame_tag!r}"
        )
    meta_v0 = _section(meta, "boost", {}, source=meta_path).get("v0")
    if meta_v0 is not None:
        meta_v0 = _speed(meta_v0, "sidecar boost.v0")
    if v0 is None and meta_v0 is None:
        raise ScenarioConfigError("--v0 required (no sidecar value found)")
    b = Boost(meta_v0 if v0 is None else _speed(v0, "v0"))
    field = None if meta.get("field") is None else _field(
        _section(meta, "field", source=meta_path), "sidecar field", frame_tag
    )
    particle = _section(meta, "particle", {}, source=meta_path)
    m0, e = _particle({"m0": 1.0, "e": 1.0, **particle}, "sidecar particle")
    try:
        w = load_worldline_csv(path, frame_tag=frame_tag)
    except ValueError as exc:
        raise ScenarioConfigError(f"{path}: {exc}") from exc
    return w, b if frame_tag == FRAME_KPRIME else b.inverse(), field, m0, e


def run_scenario(sc: Scenario, out_dir) -> dict:
    """Execute a scenario and write its artifact files; returns the summary.

    Writes (subject to the scenario's output selection):
    worldline_kprime.csv/.meta.json, worldline_k.csv/.meta.json,
    timemap.csv, energy.csv and summary.json.  The pipeline is free of
    randomness, so fixed configs give byte-identical outputs.  Every result
    is computed before the first write, so a failed run leaves no files.
    """
    b = Boost(sc.v0)
    w_prime = _make_worldline(sc)
    w_lab = boost_worldline(w_prime, b) if "boosted_worldline" in sc.outputs else None
    summary: dict = {
        "scenario": sc.name,
        "v0": sc.v0,
        "gamma": b.gamma,
        "n_samples": len(w_prime),
    }

    tm_kin = time_map_kinematic(w_prime, b)
    tm_ratio = time_map_ratio(w_prime, b)
    agreement = {"kinematic_vs_ratio": float(np.abs(tm_kin.g - tm_ratio.g).max())}
    if sc.timemap_method == "kinematic":
        tm = tm_kin
    elif sc.timemap_method == "ratio":
        tm = tm_ratio
    else:
        tm = time_map_dynamic(w_prime, sc.field, b, m0=sc.m0, e=sc.e)
        agreement["kinematic_vs_dynamic"] = float(np.abs(tm_kin.g - tm.g).max())
    summary["timemap"] = {
        "method": sc.timemap_method,
        "g_min": float(tm.g.min()),
        "g_max": float(tm.g.max()),
        "elapsed_t_over_elapsed_t_prime": float(
            tm.t_accumulated[-1] / (tm.t_prime[-1] - tm.t_prime[0])
        ),
        "agreement": agreement,
    }

    audit = None
    if sc.field is not None:
        audit = energy_audit(w_prime, sc.field, m0=sc.m0, e=sc.e)
        summary["energy"] = {
            "initial_total": float(audit.total[0]),
            "max_relative_drift": audit.max_relative_drift,
        }

    summary["period"] = _period_summary(sc, w_prime, b)
    summary["simultaneity"] = _simultaneity_summary(sc, w_prime, b)

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    if "worldline" in sc.outputs:
        save_worldline_csv(w_prime, out / "worldline_kprime.csv")
        _write_json(out / "worldline_kprime.meta.json", _sidecar(sc, FRAME_KPRIME, sc.field))
    if w_lab is not None:
        save_worldline_csv(w_lab, out / "worldline_k.csv")
        _write_json(out / "worldline_k.meta.json", _sidecar(sc, FRAME_K, None))
    if "timemap" in sc.outputs:
        save_time_map_csv(tm, out / "timemap.csv")
    if audit is not None and "energy" in sc.outputs:
        _write_csv(
            out / "energy.csv",
            ["t", "energy", "potential", "total"],
            [audit.t, audit.energy, audit.potential, audit.total],
        )
    if "summary" in sc.outputs:
        _write_json(out / "summary.json", summary)
    return summary


def _period_summary(sc: Scenario, w_prime: Worldline, b: Boost) -> dict | None:
    if sc.analytic_kind == "cyclotron":
        t_prime, t_lab = analytic.magnetic_period_map(sc.analytic_params, b)
    elif sc.analytic_kind == "osc_drift":
        t_prime, t_lab = analytic.osc_drift_period_map(sc.analytic_params, b)
    else:
        return None
    if w_prime.t[-1] - w_prime.t[0] < t_prime:
        return None
    numeric = period_map_numeric(w_prime, b, t_prime, float(w_prime.t[0]), window=1.0)
    return {
        "T_prime": t_prime,
        "T_closed_form": t_lab,
        "T_numeric": numeric,
        "ratio_closed_form": t_lab / t_prime,
        "ratio_numeric": numeric / t_prime,
    }


def _simultaneity_summary(sc: Scenario, w_prime: Worldline, b: Boost) -> dict | None:
    if sc.analytic_kind != "cyclotron":
        return None
    p1 = sc.analytic_params
    p2 = analytic.CyclotronParams(
        u0_prime=p1.u0_prime, B_prime=p1.B_prime, alpha=p1.alpha + np.pi,
        r0_prime=p1.r0_prime, m0=p1.m0, e=p1.e,
    )
    w2 = analytic.cyclotron_worldline(
        p2, float(w_prime.t[0]), float(w_prime.t[-1]), len(w_prime)
    )
    series = simultaneity_series(w_prime, w2, b)
    envelope = abs(2.0 * b.gamma * b.v0 * p1.u0_prime / p1.omega_prime)
    return {
        "companion_phase_offset": float(np.pi),
        "envelope_closed_form": envelope,
        "max_abs_difference": float(np.abs(series[:, 1]).max()),
    }


# ---------------------------------------------------------------------------
# Perturbation runs from config files
# ---------------------------------------------------------------------------

FORCE_KINDS = ("harmonic", "constant", "damped_harmonic", "anharmonic")


def build_force(spec: dict) -> ForceLaw:
    """Construct a named force law from a config mapping.

    Kinds: "harmonic" {k}, "constant" {F}, "damped_harmonic" {k, c},
    "anharmonic" {k, eps} with F = -k*r - eps*|r|^2*r.  All carry analytic
    Jacobians.
    """
    kind = _need(spec, "kind", "force")
    if kind == "harmonic":
        k = _number(_need(spec, "k", "force"), "force.k")
        return ForceLaw(
            evaluate=lambda r, u, t: -k * r,
            jac_r=lambda r, u, t: -k * np.eye(3),
            jac_u=lambda r, u, t: np.zeros((3, 3)),
        )
    if kind == "constant":
        F0 = _vec3(_need(spec, "F", "force"), "force.F")
        return ForceLaw(
            evaluate=lambda r, u, t: F0.copy(),
            jac_r=lambda r, u, t: np.zeros((3, 3)),
            jac_u=lambda r, u, t: np.zeros((3, 3)),
        )
    if kind == "damped_harmonic":
        k = _number(_need(spec, "k", "force"), "force.k")
        c = _number(_need(spec, "c", "force"), "force.c")
        return ForceLaw(
            evaluate=lambda r, u, t: -k * r - c * u,
            jac_r=lambda r, u, t: -k * np.eye(3),
            jac_u=lambda r, u, t: -c * np.eye(3),
        )
    if kind == "anharmonic":
        k = _number(_need(spec, "k", "force"), "force.k")
        eps = _number(_need(spec, "eps", "force"), "force.eps")
        return ForceLaw(
            evaluate=lambda r, u, t: -k * r - eps * float(r @ r) * r,
            jac_r=lambda r, u, t: -(k + eps * float(r @ r)) * np.eye(3)
            - 2.0 * eps * np.outer(r, r),
            jac_u=lambda r, u, t: np.zeros((3, 3)),
        )
    raise ScenarioConfigError(f"force.kind: must be one of {FORCE_KINDS}, got {kind!r}")


def _parse_perturb(cfg: dict) -> tuple[str, dict]:
    """Validate a perturbation config: its name and the solve_perturbation arguments."""
    if not isinstance(cfg, dict):
        raise ScenarioConfigError("perturb config: top level must be a JSON object")
    force = build_force(_section(cfg, "force"))
    m0 = _positive(cfg.get("m0", 1.0), "m0")
    v0 = _speed(cfg.get("v0", 0.0), "v0")
    dt = _positive(cfg.get("dt", 1e-3), "dt")
    span = _need(cfg, "t_span")
    if not (isinstance(span, (list, tuple)) and len(span) == 2):
        raise ScenarioConfigError("t_span: expected [t0, t1]")
    t_span = (_number(span[0], "t_span[0]"), _number(span[1], "t_span[1]"))
    if not t_span[1] > t_span[0]:
        raise ScenarioConfigError(f"t_span: need t1 > t0, got {span!r}")
    if not math.isfinite((t_span[1] - t_span[0]) / dt):
        raise ScenarioConfigError("dt: the step count (t1 - t0)/dt overflows")
    init = _section(cfg, "initial")
    corr = _section(cfg, "correction_initial", {})
    return str(cfg.get("name", "perturb")), {
        "f": force,
        "r0": _vec3(_need(init, "r", "initial"), "initial.r"),
        "u0": _vec3(_need(init, "u", "initial"), "initial.u"),
        "m0": m0,
        "t_span": t_span,
        "dt": dt,
        "v0": v0,
        "r1_0": _vec3(corr.get("r1", [0, 0, 0]), "correction_initial.r1"),
        "u1_0": _vec3(corr.get("u1", [0, 0, 0]), "correction_initial.u1"),
    }


def load_perturb_config(path) -> dict:
    """Read a perturbation-run JSON config; ``run_perturb`` validates it."""
    return _load_json(path)


def run_perturb(cfg: dict, out_dir) -> dict:
    """Execute a perturbation config; writes run.csv and summary.json.

    The run CSV columns are t, the zero-order position, the correction, and
    the time-force series, in that order.  The config is validated and the
    run solved before the output directory is created.
    """
    name, inputs = _parse_perturb(cfg)
    run = solve_perturbation(**inputs)
    summary = {
        "name": name,
        "v0": inputs["v0"],
        "m0": inputs["m0"],
        "n_samples": len(run.zero_order),
        "max_correction": float(np.abs(run.correction.r).max()),
        "max_time_force": float(np.abs(run.time_force).max()),
        "expansion_residual": expansion_residual(inputs["f"], run),
    }
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    _write_csv(
        out / "run.csv",
        ["t", "r0x", "r0y", "r0z", "r1x", "r1y", "r1z", "Fx", "Fy", "Fz"],
        [run.zero_order.t, run.zero_order.r, run.correction.r, run.time_force],
    )
    _write_json(out / "summary.json", summary)
    return summary
