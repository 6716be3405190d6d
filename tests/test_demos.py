"""The narrative demos run to completion as scripts."""

import os
import subprocess
import sys
from pathlib import Path

import chronodyn

DEMOS = Path(__file__).resolve().parents[1] / "demos"


def test_integrator_crosscheck_demo_runs(tmp_path):
    env = dict(os.environ)
    src = str(Path(chronodyn.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(DEMOS / "04_integrator_crosscheck.py")],
        capture_output=True, text=True, cwd=tmp_path, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
