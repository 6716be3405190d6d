"""The narrative demos run to completion as scripts."""

import os
import subprocess
import sys
from pathlib import Path

import chronodyn

DEMOS = Path(__file__).resolve().parents[1] / "demos"


def _run_demo(name, cwd):
    env = dict(os.environ)
    src = str(Path(chronodyn.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, str(DEMOS / name)], capture_output=True, text=True, cwd=cwd, env=env,
    )


def test_integrator_crosscheck_demo_runs(tmp_path):
    proc = _run_demo("04_integrator_crosscheck.py", tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""


def test_time_force_demo_runs(tmp_path):
    # solve_perturbation, residual_sweep and expansion_residual end to end
    proc = _run_demo("06_time_force.py", tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
