"""Seeded job lists for the three workloads.

Only numpy and the standard library are used here: the program under test
receives the generated configs and nothing else.  The seed moves physical
parameters (speeds, fields, forces, initial states); sample and step counts
are fixed per job slot, so every seed costs the same amount of work.

Each workload is a ``round``: a fixed list of jobs that the closed loop runs
in order and repeats until its time is up.  ``round[0]`` is also the warm-up
job, so the first timed job repeats the warm-up config and the two output
sets must be byte-identical.
"""

from __future__ import annotations

import math

import numpy as np

WORKLOADS = ("simulate-timemap", "field-integrate", "perturb")

SMALL_PER_PERIOD = 1500  # two periods -> 3 001 rows, the bundled scenario's size
LARGE_PER_PERIOD = 50_000  # two periods -> 100 001 rows, 5.6 MB per 7-column table
UNIFORM_E_ROWS = 3001
FIELD_DT = 3e-3
PERTURB_DT = 2e-3
SWEEP_SPAN = (0.0, 0.24)  # 120 steps per solve
SWEEP_V0 = (0.001, 0.002, 0.004)

# (field kind, integrator, steps): pure B, pure E from rest, crossed E x B.
# A Boris step costs 1/1.9 of an RK4 step (105 vs 200 us on a 2-CPU Xeon), so
# every job takes about as long and the median does not sit on a gap between
# an RK4 and a Boris cluster.
FIELD_SLOTS = (
    ("pure_b", "rk4", 3000),
    ("pure_b", "boris", 5700),
    ("pure_e", "rk4", 3000),
    ("pure_e", "boris", 5700),
    ("cross", "rk4", 3000),
    ("cross", "boris", 5700),
)
# (force kind, t1): 2 400 to 4 000 steps at PERTURB_DT, sized like FIELD_SLOTS
# so that every perturb job, the sweep included, takes about as long
FORCE_SLOTS = (
    ("harmonic", 8.0),
    ("constant", 8.0),
    ("damped_harmonic", 6.0),
    ("anharmonic", 4.8),
)


def _vec(rng, lo, hi) -> list[float]:
    return [float(x) for x in rng.uniform(lo, hi, size=3)]


def _unit(rng) -> np.ndarray:
    v = rng.normal(size=3)
    return v / np.linalg.norm(v)


def _cyclotron(rng, name: str, per_period: int) -> dict:
    return {
        "name": name,
        "v0": float(rng.uniform(0.3, 0.8)),
        "particle": {"m0": float(rng.uniform(0.5, 2.0)), "e": 1.0},
        "analytic": {
            "kind": "cyclotron",
            "u0_prime": float(rng.uniform(0.2, 0.6)),
            "B_prime": float(rng.uniform(0.5, 2.0)),
            "alpha": float(rng.uniform(0.0, 2.0 * math.pi)),
            "r0_prime": _vec(rng, -1.0, 1.0),
        },
        "time_grid": {"periods": 2, "per_period": per_period},
        "timemap_method": "dynamic",
    }


def _uniform_e(rng, name: str) -> dict:
    m0 = float(rng.uniform(0.5, 2.0))
    E = [float(rng.uniform(0.3, 1.0)), float(rng.uniform(-0.5, 0.5)), float(rng.uniform(-0.5, 0.5))]
    a_mag = float(np.linalg.norm(E)) / m0
    return {
        "name": name,
        "v0": float(rng.uniform(0.3, 0.8)),
        "particle": {"m0": m0, "e": 1.0},
        "analytic": {"kind": "uniform_e", "E_prime": E, "r0_prime": _vec(rng, -1.0, 1.0)},
        "time_grid": {"t0": 0.0, "t1": 3.0 / a_mag, "n": UNIFORM_E_ROWS},
        "timemap_method": "ratio",
    }


def _osc_drift(rng, name: str) -> dict:
    # peak speed <= |a|*omega + |u0| <= 0.26*1.5 + 0.44 < 1: never superluminal
    a = _vec(rng, -0.15, 0.15)
    a[0] = math.copysign(max(abs(a[0]), 0.05), a[0])
    return {
        "name": name,
        "v0": float(rng.uniform(0.3, 0.8)),
        "particle": {"m0": 1.0, "e": 1.0},
        "analytic": {
            "kind": "osc_drift",
            "a_prime": a,
            "omega_prime": float(rng.uniform(0.5, 1.5)),
            "u0_prime": _vec(rng, -0.25, 0.25),
        },
        "time_grid": {"periods": 2, "per_period": SMALL_PER_PERIOD},
        "timemap_method": "kinematic",
    }


def _simulate(config: dict, size: str) -> dict:
    return {"kind": "simulate", "scenario": config["name"], "size": size, "config": config}


def _timemap(scenario: str, size: str, frame: str, method: str) -> dict:
    return {"kind": "timemap", "scenario": scenario, "size": size, "frame": frame, "method": method}


def _scenario_jobs(config: dict, size: str, methods) -> list[dict]:
    name = config["name"]
    return [_simulate(config, size)] + [_timemap(name, size, "Kprime", m) for m in methods]


def simulate_timemap_round(seed: int) -> list[dict]:
    """CLI jobs: three analytic scenarios at 3k rows, cyclotron also at 100k.

    Small scenarios run every timemap method their K' sidecar allows.  The
    large cyclotron runs the costliest K' route (dynamic): every large job
    is dominated by the same CSV read and write, so the other routes would
    only repeat it.  The large jobs close the round: the loop always
    finishes the first round, so every run times each of them once and
    spends the time left over on small jobs from the round's start, and the
    mix does not depend on where a run stops.

    ``timemap`` on the K-frame file is not in the round: it returns
    g = gamma*(1 + v0*ux) where dt'/dt = gamma*(1 - v0*ux) is right, so every
    such job would fail.  ``known_defect_probe`` runs it in every run instead,
    checked against the correct ratio and reported beside the result.
    """
    rng = np.random.default_rng([seed, 1])
    cyc = _scenario_jobs(_cyclotron(rng, "cyclotron-small", SMALL_PER_PERIOD), "small",
                         ("kinematic", "ratio", "dynamic"))
    uni = _scenario_jobs(_uniform_e(rng, "uniform-e-small"), "small",
                         ("kinematic", "ratio", "dynamic"))
    osc = _scenario_jobs(_osc_drift(rng, "osc-drift-small"), "small", ("kinematic", "ratio"))
    big = _scenario_jobs(_cyclotron(rng, "cyclotron-large", LARGE_PER_PERIOD), "large",
                         ("dynamic",))
    return [*cyc, *uni, *osc, *big]


def known_defect_probe(workload: str) -> list[dict]:
    """Untimed jobs that show a known defect: K-file timemaps of the small cyclotron.

    They run after the timed loop on the files its simulate job wrote and
    are checked like any job, but their verdict is reported on its own line
    and as ``known_defect.k_timemap_wrong``, not in the workload's result.
    Once ``timemap`` handles K-frame files they pass and the count reads 0.
    """
    if workload != "simulate-timemap":
        return []
    return [_timemap("cyclotron-small", "small", "K", m) for m in ("kinematic", "ratio")]


def field_integrate_round(seed: int) -> list[dict]:
    """In-process field scenarios, summary output only: the integrator's share."""
    rng = np.random.default_rng([seed, 2])
    jobs = []
    for kind, method, steps in FIELD_SLOTS:
        if kind == "pure_b":
            E = np.zeros(3)
            B = _unit(rng) * rng.uniform(0.5, 2.0)
            u = _unit(rng) * rng.uniform(0.2, 0.7)
        elif kind == "pure_e":
            E = np.array([rng.uniform(0.3, 1.0), rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5)])
            B = np.zeros(3)
            u = np.zeros(3)
        else:
            n_b = _unit(rng)
            n_e = np.cross(n_b, _unit(rng))
            n_e /= np.linalg.norm(n_e)
            b_mag = rng.uniform(0.8, 1.5)
            B = n_b * b_mag
            E = n_e * b_mag * rng.uniform(0.2, 0.6)
            u = rng.uniform(-0.3, 0.3, size=3)
        config = {
            "name": f"{kind}-{method}",
            "v0": float(rng.uniform(0.3, 0.8)),
            "particle": {"m0": 1.0, "e": 1.0},
            "field": {"E": [float(x) for x in E], "B": [float(x) for x in B]},
            "initial": {"r": [0.0, 0.0, 0.0], "u": [float(x) for x in u]},
            "integrator": {"method": method, "dt": FIELD_DT, "n_steps": steps},
            "timemap_method": "kinematic",
            "outputs": ["summary"],
        }
        jobs.append({"kind": "field", "field_kind": kind, "method": method,
                     "steps": steps, "config": config})
    return jobs


def _force_spec(rng, kind: str) -> dict:
    k = float(rng.uniform(0.5, 2.0))
    if kind == "harmonic":
        return {"kind": kind, "k": k}
    if kind == "constant":
        return {"kind": kind, "F": _vec(rng, -0.5, 0.5)}
    if kind == "damped_harmonic":
        return {"kind": kind, "k": k, "c": float(rng.uniform(0.05, 0.3))}
    return {"kind": kind, "k": k, "eps": float(rng.uniform(0.1, 0.5))}


def perturb_round(seed: int) -> list[dict]:
    """The four named force kinds through run_perturb, and one sweep job.

    The sweep is criterion 9's shape: three correction seeds (a, b and a+b)
    on one zero-order run, then a residual sweep over three v0, with a force
    law that has no analytic Jacobians.
    """
    rng = np.random.default_rng([seed, 3])
    jobs = []
    for kind, t1 in FORCE_SLOTS:
        config = {
            "name": f"perturb-{kind}",
            "force": _force_spec(rng, kind),
            "m0": float(rng.uniform(0.8, 1.5)),
            "v0": float(rng.uniform(0.001, 0.01)),
            "initial": {"r": _vec(rng, -1.0, 1.0), "u": _vec(rng, -0.1, 0.1)},
            "correction_initial": {"r1": _vec(rng, -1e-3, 1e-3), "u1": _vec(rng, -1e-3, 1e-3)},
            "t_span": [0.0, t1],
            "dt": PERTURB_DT,
        }
        jobs.append({"kind": "perturb.config", "force_kind": kind, "config": config})
    seed_a = _vec(rng, -1e-3, 1e-3), _vec(rng, -1e-3, 1e-3)
    seed_b = _vec(rng, -1e-3, 1e-3), _vec(rng, -1e-3, 1e-3)
    sweep = {
        "kind": "perturb.sweep",
        "A": rng.uniform(-1.0, 1.0, size=(3, 3)).tolist(),
        "C": rng.uniform(-0.3, 0.3, size=(3, 3)).tolist(),
        "cubic": 0.4,
        "m0": 1.0,
        "r0": _vec(rng, -0.6, 0.6),
        "u0": _vec(rng, -0.1, 0.1),
        "t_span": list(SWEEP_SPAN),
        "dt": PERTURB_DT,
        "seeds": [seed_a, seed_b],
        "v0_values": list(SWEEP_V0),
        "seed_direction": [float(x) for x in _unit(rng)],
    }
    # the sweep sits mid-round, after the warm-up config is repeated
    return [jobs[0], sweep, *jobs[1:]]


ROUNDS = {
    "simulate-timemap": simulate_timemap_round,
    "field-integrate": field_integrate_round,
    "perturb": perturb_round,
}


def make_round(workload: str, seed: int) -> list[dict]:
    """The job round of ``workload`` for ``seed``; identical for equal seeds."""
    return ROUNDS[workload](seed)


def steps(span, dt: float) -> int:
    """RK4 steps the perturbation solver takes over ``span`` (its own rule)."""
    return max(1, math.ceil((span[1] - span[0]) / dt - 1e-12))


def working_set_bytes(job: dict) -> int:
    """float64 bytes of the main sampled table a job produces.

    Worldlines are 7 columns (t, r, u); perturbation runs keep t, r0, u0, r1
    and u1 (13 columns).
    """
    kind = job["kind"]
    if kind in ("simulate", "timemap"):
        return rows(job) * 7 * 8
    if kind == "field":
        return (job["steps"] + 1) * 7 * 8
    if kind == "perturb.config":
        return (steps(job["config"]["t_span"], job["config"]["dt"]) + 1) * 13 * 8
    return (steps(job["t_span"], job["dt"]) + 1) * 13 * 8


def rows(job: dict) -> int:
    """Worldline rows of a simulate or timemap job."""
    if job["size"] == "large":
        return 2 * LARGE_PER_PERIOD + 1
    if job["scenario"].startswith("uniform-e"):
        return UNIFORM_E_ROWS
    return 2 * SMALL_PER_PERIOD + 1
