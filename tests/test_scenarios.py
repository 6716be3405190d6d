"""Scenario configs, the run pipeline, artifact files and the CLI surface."""

import copy
import hashlib
import json
import random
import re
import subprocess
import sys

import numpy as np
import pytest

from chronodyn import cli
from chronodyn.frames import Boost, inverse_kinematic_g, load_worldline_csv
from chronodyn.scenarios import (
    ScenarioConfigError,
    build_force,
    bundled_scenario_path,
    load_scenario,
    parse_scenario,
    run_perturb,
    run_scenario,
)

# the perturbation example of the README
README_PERTURB = {
    "name": "harmonic-demo",
    "force": {"kind": "harmonic", "k": 1.0},
    "m0": 1.0,
    "initial": {"r": [1, 0, 0], "u": [0, 0, 0]},
    "correction_initial": {"r1": [0.001, 0, 0], "u1": [0, 0, 0]},
    "v0": 0.002,
    "t_span": [0.0, 12.566],
    "dt": 0.002,
}


OSC_DRIFT = {"kind": "osc_drift", "a_prime": [0.2, 0.0, 0.0], "omega_prime": 1.0,
             "u0_prime": [0.1, 0.0, 0.0]}


def _cyclotron_cfg(**overrides):
    cfg = {
        "name": "t-cyc",
        "v0": 0.6,
        "particle": {"m0": 1.0, "e": 1.0},
        "analytic": {"kind": "cyclotron", "u0_prime": 0.3, "B_prime": 1.0},
        "time_grid": {"periods": 1.5, "per_period": 600},
        "timemap_method": "kinematic",
    }
    cfg.update(overrides)
    return cfg


def _field_cfg(**overrides):
    cfg = {
        "name": "t-field",
        "v0": 0.5,
        "particle": {"m0": 1.0, "e": 1.0},
        "field": {"E": [0.0, 0.0, 0.0], "B": [0.0, 0.0, 1.0]},
        "initial": {"r": [0.0, 0.0, 0.0], "u": [0.3, 0.0, 0.0]},
        "integrator": {"method": "rk4", "dt": 0.01, "n_steps": 700},
        "timemap_method": "dynamic",
    }
    cfg.update(overrides)
    return cfg


# -- parsing and validation --------------------------------------------------

def test_parse_rejects_missing_name():
    cfg = _cyclotron_cfg()
    del cfg["name"]
    with pytest.raises(ScenarioConfigError, match="name"):
        parse_scenario(cfg)


def test_parse_rejects_superluminal_v0():
    with pytest.raises(ScenarioConfigError, match="v0"):
        parse_scenario(_cyclotron_cfg(v0=1.0))


def test_parse_rejects_field_and_analytic_together():
    cfg = _cyclotron_cfg()
    cfg["field"] = {"E": [0, 0, 0], "B": [0, 0, 1]}
    with pytest.raises(ScenarioConfigError, match="exactly one"):
        parse_scenario(cfg)


def test_parse_rejects_neither_field_nor_analytic():
    cfg = _cyclotron_cfg()
    del cfg["analytic"]
    with pytest.raises(ScenarioConfigError, match="exactly one"):
        parse_scenario(cfg)


def test_parse_rejects_unknown_kind_and_outputs():
    with pytest.raises(ScenarioConfigError, match="kind"):
        parse_scenario(
            _cyclotron_cfg(analytic={"kind": "spiral", "u0_prime": 0.3, "B_prime": 1.0})
        )
    with pytest.raises(ScenarioConfigError, match="outputs"):
        parse_scenario(_cyclotron_cfg(outputs=["worldline", "plots"]))


def test_parse_rejects_bad_particle_and_method():
    with pytest.raises(ScenarioConfigError, match="m0"):
        parse_scenario(_cyclotron_cfg(particle={"m0": -1.0, "e": 1.0}))
    with pytest.raises(ScenarioConfigError, match="timemap_method"):
        parse_scenario(_cyclotron_cfg(timemap_method="magic"))


def test_parse_rejects_bad_analytic_params():
    with pytest.raises(ScenarioConfigError, match="analytic"):
        parse_scenario(
            _cyclotron_cfg(analytic={"kind": "cyclotron", "u0_prime": 1.5, "B_prime": 1.0})
        )


def test_parse_rejects_periods_grid_for_uniform_e():
    cfg = _cyclotron_cfg(
        analytic={"kind": "uniform_e", "E_prime": [1.0, 0.0, 0.0]},
    )
    with pytest.raises(ScenarioConfigError, match="periods"):
        parse_scenario(cfg)


@pytest.mark.parametrize(
    "key", ["particle", "field", "initial", "integrator", "outputs", "analytic", "time_grid"]
)
def test_parse_rejects_sub_config_of_wrong_type(key):
    cfg = _cyclotron_cfg() if key in ("analytic", "time_grid") else _field_cfg()
    cfg[key] = "abc" if key == "outputs" else [1, 2]
    with pytest.raises(ScenarioConfigError, match=rf"^{key}: expected a JSON"):
        parse_scenario(cfg)


@pytest.mark.parametrize("key", ["force", "initial", "correction_initial"])
def test_perturb_rejects_sub_config_of_wrong_type(tmp_path, key):
    with pytest.raises(ScenarioConfigError, match=rf"^{key}: expected a JSON object"):
        run_perturb({**README_PERTURB, key: 5}, tmp_path / "out")
    assert not (tmp_path / "out").exists()


def test_load_scenario_reports_json_position(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"name": "x",\n  "v0": }')
    with pytest.raises(ScenarioConfigError, match="line 2"):
        load_scenario(bad)


# -- run pipeline ------------------------------------------------------------

def test_run_cyclotron_scenario(tmp_path):
    sc = parse_scenario(_cyclotron_cfg())
    summary = run_scenario(sc, tmp_path)
    assert abs(summary["period"]["ratio_numeric"] - 1.25) < 1e-9
    assert summary["energy"]["max_relative_drift"] < 1e-12
    assert summary["timemap"]["agreement"]["kinematic_vs_ratio"] < 1e-12
    for name in (
        "worldline_kprime.csv",
        "worldline_kprime.meta.json",
        "worldline_k.csv",
        "worldline_k.meta.json",
        "timemap.csv",
        "energy.csv",
        "summary.json",
    ):
        assert (tmp_path / name).exists(), name
    w = load_worldline_csv(tmp_path / "worldline_kprime.csv")
    assert len(w) == summary["n_samples"]
    meta = json.loads((tmp_path / "worldline_kprime.meta.json").read_text())
    assert meta["boost"]["v0"] == 0.6
    assert meta["field"]["B"] == [0.0, 0.0, 1.0]
    on_disk = json.loads((tmp_path / "summary.json").read_text())
    assert on_disk == json.loads(json.dumps(summary, default=float))


def test_run_field_scenario_with_dynamic_map(tmp_path):
    sc = parse_scenario(_field_cfg())
    summary = run_scenario(sc, tmp_path)
    assert summary["timemap"]["method"] == "dynamic"
    assert summary["timemap"]["agreement"]["kinematic_vs_dynamic"] < 1e-9


def test_run_uniform_e_scenario(tmp_path):
    cfg = _cyclotron_cfg(
        analytic={"kind": "uniform_e", "E_prime": [1.0, 0.0, 0.0]},
        time_grid={"t0": 0.0, "t1": 3.0, "n": 601},
        timemap_method="ratio",
    )
    summary = run_scenario(parse_scenario(cfg), tmp_path)
    assert summary["period"] is None
    assert summary["energy"]["max_relative_drift"] < 1e-10


def test_run_osc_drift_dynamic_is_degenerate(tmp_path):
    cfg = _cyclotron_cfg(
        analytic={
            "kind": "osc_drift",
            "a_prime": [0.2, 0.0, 0.0],
            "omega_prime": 1.0,
            "u0_prime": [0.1, 0.0, 0.0],
        },
        timemap_method="dynamic",
    )
    with pytest.raises(ScenarioConfigError):
        run_scenario(parse_scenario(cfg), tmp_path)


def test_bundled_outputs_match_golden_hashes(tmp_path):
    run_scenario(load_scenario(bundled_scenario_path("cyclotron")), tmp_path / "sim")
    run_perturb(README_PERTURB, tmp_path / "perturb")
    golden = {
        "sim/worldline_kprime.csv":
            "989991b81500cb4883243f4604666c474e50fe1c1c529bd3cdbf74b933a00c83",
        "sim/worldline_kprime.meta.json":
            "84b38a86d847c6bb4d9d14b6373b9099894e8e78e31179616c3601a8e8a272fa",
        "sim/worldline_k.csv": "1158e78906f746c22935022661b931a546c7ea1e12e9de248a993422a3716149",
        "sim/worldline_k.meta.json":
            "232acaf227d9d5069054d2565cc238ef890c31d0d7adbf0e4a9317f10a085f5b",
        "sim/timemap.csv": "127437c650b9cb3d5de1eb869977304b02c42ee0934b462ee239ba9bb76f961b",
        "sim/energy.csv": "82e8a003a1f3b3fbc253b9f22b639984eb24661237e3964f73a7674374a79aef",
        "sim/summary.json": "f3657c916a5119c52aa491dbd64fad94e16f09c9a4c6f834b2c9cb82027913e7",
        "perturb/run.csv": "a368f43446145622091146cd0f3f489f3348b630624ce0df388ebca63cff64e5",
        "perturb/summary.json": "fc922aa68cd01fd91a625cb854869ce296de699612466474053eaba56b4f2811",
    }
    written = sorted(str(p.relative_to(tmp_path)) for p in tmp_path.rglob("*") if p.is_file())
    assert written == sorted(golden)
    for name, digest in golden.items():
        assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == digest, name


def test_run_is_deterministic(tmp_path):
    sc = parse_scenario(_cyclotron_cfg())
    a, b = tmp_path / "a", tmp_path / "b"
    run_scenario(sc, a)
    run_scenario(sc, b)
    for p in sorted(a.iterdir()):
        assert p.read_bytes() == (b / p.name).read_bytes(), p.name


# -- forces from config ------------------------------------------------------

def test_build_force_kinds():
    f = build_force({"kind": "harmonic", "k": 2.0})
    assert np.array_equal(f(np.array([1.0, 0, 0]), np.zeros(3), 0.0), [-2.0, 0, 0])
    f = build_force({"kind": "constant", "F": [0.0, 1.0, 0.0]})
    assert np.array_equal(f(np.ones(3), np.ones(3), 5.0), [0.0, 1.0, 0.0])
    f = build_force({"kind": "damped_harmonic", "k": 1.0, "c": 0.5})
    assert np.array_equal(
        f(np.array([1.0, 0, 0]), np.array([0, 2.0, 0]), 0.0), [-1.0, -1.0, 0.0]
    )
    f = build_force({"kind": "anharmonic", "k": 1.0, "eps": 1.0})
    assert np.array_equal(f(np.array([1.0, 0, 0]), np.zeros(3), 0.0), [-2.0, 0, 0])
    with pytest.raises(ScenarioConfigError, match="kind"):
        build_force({"kind": "mystery"})


def test_run_perturb(tmp_path):
    cfg = {
        "name": "t-perturb",
        "force": {"kind": "harmonic", "k": 1.0},
        "m0": 1.0,
        "initial": {"r": [1.0, 0.0, 0.0], "u": [0.0, 0.0, 0.0]},
        "correction_initial": {"r1": [1e-3, 0.0, 0.0], "u1": [0.0, 0.0, 0.0]},
        "v0": 0.002,
        "t_span": [0.0, 6.283185307179586],
        "dt": 2e-3,
    }
    summary = run_perturb(cfg, tmp_path)
    assert summary["max_correction"] == pytest.approx(1e-3, rel=1e-6)
    assert summary["expansion_residual"] < 1e-12  # linear force: exact expansion
    lines = (tmp_path / "run.csv").read_text().splitlines()
    assert lines[0] == "t,r0x,r0y,r0z,r1x,r1y,r1z,Fx,Fy,Fz"
    row = [float(v) for v in lines[1].split(",")]
    assert row[1] == 1.0 and row[4] == 1e-3


# -- CLI surface -------------------------------------------------------------

def _cli(*args, env=None):
    import os

    full_env = dict(os.environ)
    if env:
        full_env.update(env)
    return subprocess.run(
        [sys.executable, "-m", "chronodyn.cli", *args],
        capture_output=True,
        text=True,
        env=full_env,
    )


def test_cli_simulate_bundled(tmp_path):
    out = tmp_path / "run"
    proc = _cli("simulate", str(bundled_scenario_path("cyclotron")), "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    summary = json.loads(proc.stdout)
    assert abs(summary["period"]["ratio_numeric"] - 1.25) < 1e-9
    assert (out / "summary.json").exists()


def test_cli_out_dir_env_var(tmp_path):
    cfg = tmp_path / "sc.json"
    cfg.write_text(json.dumps(_cyclotron_cfg(outputs=["summary"])))
    proc = _cli("simulate", str(cfg), env={"CHRONO_OUT_DIR": str(tmp_path / "envout")})
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "envout" / "summary.json").exists()


def test_cli_config_error_exit_2(tmp_path):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps(_cyclotron_cfg(v0=2.0)))
    proc = _cli("simulate", str(cfg))
    assert proc.returncode == 2
    assert "v0" in proc.stderr


def test_cli_numeric_error_exit_3(tmp_path):
    cfg = tmp_path / "free.json"
    cfg.write_text(
        json.dumps(
            _field_cfg(
                field={"E": [0, 0, 0], "B": [0, 0, 0]},
                integrator={"method": "rk4", "dt": 0.01, "n_steps": 50},
            )
        )
    )
    out = tmp_path / "out"
    proc = _cli("simulate", str(cfg), "--out", str(out))
    assert proc.returncode == 3
    assert "zero 4-force" in proc.stderr
    assert not any(out.glob("*"))


def test_cli_perturb_numeric_failure_names_the_step(tmp_path):
    cfg = {**README_PERTURB, "force": {"kind": "harmonic", "k": 4.0},
           "correction_initial": {"r1": [1e308, 0, 0], "u1": [0, 0, 0]},
           "t_span": [0.0, 1.0], "dt": 0.01}
    out = tmp_path / "out"
    proc = _cli("perturb", _json_file(tmp_path / "p.json", cfg), "--out", str(out))
    assert proc.returncode == 3
    assert re.search(r"non-finite state at step \d+", proc.stderr), proc.stderr
    assert "Warning" not in proc.stderr and "Traceback" not in proc.stderr
    assert not out.exists()


def test_cli_simulate_three_sample_cyclotron(tmp_path):
    # the not-a-knot conditions coincide on three knots: the spline is their parabola
    cfg = _cyclotron_cfg(time_grid={"periods": 1, "per_period": 2})
    out = tmp_path / "out"
    proc = _cli("simulate", _json_file(tmp_path / "sc.json", cfg), "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    t_numeric = json.loads((out / "summary.json").read_text())["period"]["T_numeric"]
    assert t_numeric == pytest.approx(7.739217263500612, rel=1e-12)


def _two_row_kprime_file(tmp_path):
    sim = tmp_path / "sim"
    run_scenario(parse_scenario(_cyclotron_cfg()), sim)
    rows = (sim / "worldline_kprime.csv").read_text().splitlines()[:3]
    (tmp_path / "two.csv").write_text("\n".join(rows) + "\n")
    (tmp_path / "two.meta.json").write_bytes((sim / "worldline_kprime.meta.json").read_bytes())
    return ["timemap", str(tmp_path / "two.csv"), "--method", "dynamic"]


TWO_SAMPLE_DYNAMIC_CASES = {
    "simulate-cyclotron": lambda tmp: ["simulate", _json_file(
        tmp / "sc.json", _cyclotron_cfg(
            time_grid={"periods": 1, "per_period": 1}, timemap_method="dynamic"))],
    "simulate-field": lambda tmp: ["simulate", _json_file(
        tmp / "sc.json", _field_cfg(integrator={"method": "rk4", "dt": 0.01, "n_steps": 1}))],
    "timemap-file": _two_row_kprime_file,
}


@pytest.mark.parametrize("case", sorted(TWO_SAMPLE_DYNAMIC_CASES))
def test_cli_dynamic_map_on_two_samples_names_the_count(tmp_path, case):
    out = tmp_path / "out"
    proc = _cli(*TWO_SAMPLE_DYNAMIC_CASES[case](tmp_path), "--out", str(out))
    assert proc.returncode == 3
    assert "dynamic time map needs at least 3 samples, got 2" in proc.stderr
    assert "zero-size" not in proc.stderr and "Traceback" not in proc.stderr
    assert not out.exists()


def test_import_loads_no_scipy():
    code = (
        "import sys, chronodyn, chronodyn.cli, chronodyn.acceptance; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def _json_file(path, cfg):
    path.write_text(json.dumps(cfg))
    return str(path)


def _edited_sidecar(edit):
    """argv builder: ``timemap`` on a simulated K' file whose sidecar ``edit`` changed."""

    def build(tmp_path):
        sim = tmp_path / "sim"
        run_scenario(parse_scenario(_cyclotron_cfg()), sim)
        meta_path = sim / "worldline_kprime.meta.json"
        meta = json.loads(meta_path.read_text())
        edit(meta)
        meta_path.write_text(json.dumps(meta))
        return ["timemap", str(sim / "worldline_kprime.csv"), "--method", "dynamic"]

    return build


def _osc_drift_kprime_file(tmp_path):
    sim = tmp_path / "sim"
    run_scenario(parse_scenario(_cyclotron_cfg(analytic=OSC_DRIFT)), sim)
    return ["timemap", str(sim / "worldline_kprime.csv"), "--method", "dynamic"]


def _unwritable_out(tmp_path):
    blocker = tmp_path / "blocker"
    blocker.write_text("a file, not a directory")
    cfg = _json_file(tmp_path / "sc.json", _cyclotron_cfg())
    return ["simulate", cfg, "--out", str(blocker / "out")]


# each case: argv builder and the field (or path) the message must name
CONFIG_ERROR_CASES = {
    "per_period-not-a-number": (
        lambda tmp: ["simulate", _json_file(
            tmp / "sc.json", _cyclotron_cfg(time_grid={"periods": 1, "per_period": "abc"}))],
        "time_grid.per_period",
    ),
    "grid-n-not-an-integer": (
        lambda tmp: ["simulate", _json_file(
            tmp / "sc.json", _cyclotron_cfg(time_grid={"t0": 0.0, "t1": 1.0, "n": 100.5}))],
        "time_grid.n",
    ),
    "grid-t1-infinite": (
        lambda tmp: ["simulate", _json_file(
            tmp / "sc.json", _cyclotron_cfg(time_grid={"t0": 0.0, "t1": float("inf"), "n": 10}))],
        "time_grid.t1",
    ),
    "perturb-v0-superluminal": (
        lambda tmp: ["perturb", _json_file(tmp / "p.json", {**README_PERTURB, "v0": 7.0})],
        "v0",
    ),
    "perturb-dt-negative": (
        lambda tmp: ["perturb", _json_file(tmp / "p.json", {**README_PERTURB, "dt": -1})],
        "dt",
    ),
    "particle-not-an-object": (
        lambda tmp: ["simulate", _json_file(tmp / "sc.json", _cyclotron_cfg(particle=5))],
        "particle",
    ),
    "integrator-not-an-object": (
        lambda tmp: ["simulate", _json_file(tmp / "sc.json", _field_cfg(integrator=[1, 2]))],
        "integrator",
    ),
    "outputs-not-a-list": (
        lambda tmp: ["simulate", _json_file(tmp / "sc.json", _cyclotron_cfg(outputs=5))],
        "outputs",
    ),
    "perturb-correction-initial-not-an-object": (
        lambda tmp: ["perturb", _json_file(
            tmp / "p.json", {**README_PERTURB, "correction_initial": [1, 2]})],
        "correction_initial",
    ),
    "sidecar-field-without-E": (_edited_sidecar(lambda meta: meta["field"].pop("E")), "'E'"),
    "sidecar-boost-not-an-object": (
        _edited_sidecar(lambda meta: meta.update(boost=5)), "worldline_kprime.meta.json: boost"),
    "sidecar-particle-not-an-object": (
        _edited_sidecar(lambda meta: meta.update(particle=5)),
        "worldline_kprime.meta.json: particle"),
    "sidecar-field-not-an-object": (
        _edited_sidecar(lambda meta: meta.update(field=5)), "worldline_kprime.meta.json: field"),
    "sidecar-field-an-array": (
        _edited_sidecar(lambda meta: meta.update(field=[1, 2])),
        "worldline_kprime.meta.json: field"),
    "unwritable-out": (_unwritable_out, "blocker"),
    "v0-beyond-float-range": (
        lambda tmp: ["simulate", _json_file(tmp / "sc.json", _cyclotron_cfg(v0=10**400))],
        "v0",
    ),
    "periods-overflow-the-grid": (
        lambda tmp: ["simulate", _json_file(
            tmp / "sc.json", _cyclotron_cfg(time_grid={"periods": 1e308}))],
        "time_grid.periods",
    ),
    "perturb-step-count-overflows": (
        lambda tmp: ["perturb", _json_file(
            tmp / "p.json", {**README_PERTURB, "t_span": [0, 1e308], "dt": 1e-300})],
        "dt",
    ),
    "sidecar-boost-v0-beyond-float-range": (
        _edited_sidecar(lambda meta: meta["boost"].update(v0=10**400)), "boost.v0"),
    "sidecar-particle-m0-negative": (
        _edited_sidecar(lambda meta: meta.update(particle={"m0": -1, "e": -1})), "particle.m0"),
    "sidecar-particle-m0-zero": (
        _edited_sidecar(lambda meta: meta["particle"].update(m0=0)), "particle.m0"),
    "osc-drift-dynamic-simulate": (
        lambda tmp: ["simulate", _json_file(
            tmp / "sc.json", _cyclotron_cfg(analytic=OSC_DRIFT, timemap_method="dynamic"))],
        "timemap_method",
    ),
    "osc-drift-dynamic-timemap": (_osc_drift_kprime_file, "field"),
}


@pytest.mark.parametrize("case", sorted(CONFIG_ERROR_CASES))
def test_cli_config_errors_exit_2_naming_the_field(tmp_path, case):
    build, named = CONFIG_ERROR_CASES[case]
    argv = build(tmp_path)
    out = tmp_path / "out"
    if "--out" not in argv:
        argv += ["--out", str(out)]
    proc = _cli(*argv)
    assert proc.returncode == 2, proc.stderr
    assert named in proc.stderr
    assert len(proc.stderr) < 400  # never echoes a 400-digit integer
    assert "Traceback" not in proc.stderr
    assert not out.exists()


@pytest.mark.parametrize("method", ["kinematic", "ratio", "dynamic"])
def test_cli_timemap_on_kprime_file_matches_simulate(tmp_path, method):
    cfg = _json_file(tmp_path / "sc.json", _cyclotron_cfg(timemap_method=method))
    sim, tm = tmp_path / "sim", tmp_path / "tm"
    assert cli.main(["simulate", cfg, "--out", str(sim)]) == 0
    kprime = str(sim / "worldline_kprime.csv")
    assert cli.main(["timemap", kprime, "--method", method, "--out", str(tm)]) == 0
    assert (tm / "timemap.csv").read_bytes() == (sim / "timemap.csv").read_bytes()


# -- seeded fuzz of the CLI --------------------------------------------------

FUZZ_BASES = (
    ("simulate", _cyclotron_cfg(
        time_grid={"periods": 1.5, "per_period": 100}, timemap_method="dynamic")),
    ("simulate", _field_cfg(integrator={"method": "rk4", "dt": 0.01, "n_steps": 200})),
    ("perturb", {**README_PERTURB, "t_span": [0.0, 2.0], "dt": 0.01}),
)
FUZZ_VALUES = (None, True, "abc", [1, 2], {"a": 1}, 1e308, 10**400)
DROP = object()


def _slots(node):
    """(container, key) of every value nested in a JSON config, objects and arrays too."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in items:
        yield node, key
        if isinstance(value, (dict, list)):
            yield from _slots(value)


def _fuzzed(rng, base):
    cfg = copy.deepcopy(base)
    for _ in range(rng.choice((1, 2))):
        node, key = rng.choice(list(_slots(cfg)))
        value = rng.choice((*FUZZ_VALUES, DROP))
        if value is DROP:
            del node[key]
        else:
            node[key] = copy.deepcopy(value)
    return cfg


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_cli_fuzz_exits_0_2_or_3_and_leaves_no_files_on_failure(tmp_path):
    rng = random.Random(7)
    failures = []
    for i in range(200):
        command, base = rng.choice(FUZZ_BASES)
        cfg = _fuzzed(rng, base)
        out = tmp_path / f"out{i}"
        argv = [command, _json_file(tmp_path / f"cfg{i}.json", cfg), "--out", str(out)]
        try:
            code = cli.main(argv)
        except Exception as exc:  # a traceback at the CLI boundary
            failures.append(f"run {i}: {type(exc).__name__}: {str(exc)[:80]}")
            continue
        if code not in (0, 2, 3):
            failures.append(f"run {i}: exit {code}")
        elif code != 0 and out.exists() and any(out.iterdir()):
            failures.append(f"run {i}: exit {code} left {sorted(p.name for p in out.iterdir())}")
    assert not failures, "\n".join(failures)


def test_cli_verify_list():
    proc = _cli("verify", "--list")
    assert proc.returncode == 0
    lines = [ln for ln in proc.stdout.splitlines() if ln.strip()]
    assert len(lines) == 10


def test_cli_timemap_uses_sidecar(tmp_path):
    out = tmp_path / "sim"
    run_scenario(parse_scenario(_cyclotron_cfg()), out)
    proc = _cli(
        "timemap", str(out / "worldline_kprime.csv"), "--method", "dynamic",
        "--out", str(tmp_path / "tm"),
    )
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "tm" / "timemap.csv").exists()


@pytest.mark.parametrize("method", ["kinematic", "ratio"])
def test_cli_timemap_on_k_frame_file_gives_inverse_ratio(tmp_path, method):
    out = tmp_path / "sim"
    run_scenario(parse_scenario(_cyclotron_cfg()), out)
    proc = _cli(
        "timemap", str(out / "worldline_k.csv"), "--method", method, "--out", str(tmp_path / "tm")
    )
    assert proc.returncode == 0, proc.stderr
    w_lab = load_worldline_csv(out / "worldline_k.csv", frame_tag="K")
    expected = [inverse_kinematic_g(ux, Boost(0.6)) for ux in w_lab.u[:, 0]]
    g = np.loadtxt(tmp_path / "tm" / "timemap.csv", delimiter=",", skiprows=1)[:, 1]
    np.testing.assert_allclose(g, expected, rtol=0.0, atol=1e-15)


def test_cli_timemap_requires_v0_without_sidecar(tmp_path):
    out = tmp_path / "sim"
    run_scenario(parse_scenario(_cyclotron_cfg()), out)
    bare = tmp_path / "bare.csv"
    bare.write_bytes((out / "worldline_kprime.csv").read_bytes())
    proc = _cli("timemap", str(bare))
    assert proc.returncode == 2
    assert "--v0" in proc.stderr
    proc = _cli("timemap", str(bare), "--v0", "0.6", "--out", str(tmp_path / "tm2"))
    assert proc.returncode == 0, proc.stderr


def test_cli_perturb(tmp_path):
    cfg = tmp_path / "p.json"
    cfg.write_text(
        json.dumps(
            {
                "name": "cli-perturb",
                "force": {"kind": "harmonic", "k": 1.0},
                "initial": {"r": [1.0, 0.0, 0.0], "u": [0.0, 0.0, 0.0]},
                "correction_initial": {"r1": [0.001, 0.0, 0.0]},
                "t_span": [0.0, 3.0],
                "dt": 0.002,
            }
        )
    )
    proc = _cli("perturb", str(cfg), "--out", str(tmp_path / "pout"))
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "pout" / "run.csv").exists()
    summary = json.loads(proc.stdout)
    assert summary["max_correction"] > 0.0
