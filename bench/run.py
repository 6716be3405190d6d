"""chronodyn benchmark: three closed-loop workloads with a correctness gate.

Run from the repository root::

    python3 bench/run.py --workload simulate-timemap --seed 1 --seconds 22 --trace 0

Workloads (one client, one job in flight; see ``workloads.py``):

* ``simulate-timemap``: ``chronodyn simulate`` and ``chronodyn timemap`` as
  CLI processes on analytic scenarios at 3k and 100k rows.
* ``field-integrate``: ``run_scenario`` in-process on field scenarios,
  RK4 and Boris, summary output only.
* ``perturb``: ``run_perturb`` on the four named forces, and a criterion-9
  shaped sweep with finite-difference Jacobians.

With ``--trace 0`` the last line reports the end-to-end metrics named in
``BENCHMARK.json``; set-up time is the median over SETUPS fresh workers.
Times are reported at a reference machine speed: each job's wall time is
scaled by how long a fixed numpy loop took just before and after it (see
``machine.reference_s``), because a shared host's speed swings by 1.5x and
more for seconds at a time.  The unscaled medians are printed beside them.
The run and every process it starts are held to one CPU, so that the loop
measures the CPU the jobs run on (see ``machine.pin_to_one_cpu``).
With ``--trace 1`` a separate run wraps chronodyn's public functions in
spans and reports the per-layer metrics instead.  ``simulate-timemap`` also
runs ``timemap`` on the K-frame file after its timed loop, a known defect
that is reported on its own line and kept out of the verdict (see
``workloads.known_defect_probe``).  Every artifact goes to a
temporary directory under ``.bench_build/`` that the run removes, and the
run fails its correctness verdict if it leaves the source tree changed.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path

import machine
import metrics
from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
BUILD = ROOT / ".bench_build"
SETUPS = 6
SETUP_TIMEOUT_S = 60.0
# directories a run may touch without changing the tree: its scratch space
# and the interpreter's bytecode caches
UNTRACKED = {".bench_build", "__pycache__", ".git", ".pytest_cache"}


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def snapshot(root: Path) -> dict[str, tuple[int, int]]:
    """Size and mtime of every file under ``root`` outside UNTRACKED dirs."""
    out = {}
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames[:] = [d for d in dirnames if d not in UNTRACKED]
        for name in filenames:
            path = os.path.join(dirpath, name)
            st = os.lstat(path)
            out[os.path.relpath(path, root)] = (st.st_size, st.st_mtime_ns)
    return out


def tree_changes(before: dict, after: dict) -> list[str]:
    return sorted(p for p in before.keys() | after.keys() if before.get(p) != after.get(p))


def _stop(proc: subprocess.Popen) -> None:
    if proc.poll() is None:
        proc.kill()
    proc.wait()


def start_worker(args, tmp: Path, setup_only: bool) -> tuple[subprocess.Popen, float]:
    """Start a worker and wait for its ``ready``; returns it and its set-up time."""
    tmp.mkdir(parents=True)
    cmd = [sys.executable, str(BENCH / "worker.py"), args.workload, str(args.seed),
           str(args.seconds), str(args.trace), str(tmp)]
    if setup_only:
        cmd.append("--setup-only")
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        ready, _, _ = select.select([proc.stdout], [], [], SETUP_TIMEOUT_S)
        line = proc.stdout.readline() if ready else ""
        setup_s = time.perf_counter() - t0
        if line.strip() != "ready":
            raise BenchError(f"worker set-up failed (exit {proc.poll()}): {line.strip()!r}")
    except BaseException:
        _stop(proc)
        raise
    return proc, setup_s


def _wait(proc: subprocess.Popen, timeout: float) -> None:
    try:
        proc.wait(timeout=timeout)
    finally:
        _stop(proc)
    if proc.returncode != 0:
        raise BenchError(f"worker exited {proc.returncode}")


def run_workers(args, tmp: Path) -> tuple[dict, list[tuple[float, float]]]:
    """(set-up time, reference time) of SETUPS fresh workers, then the timed worker's result."""
    setups = []
    for i in range(0 if args.trace else SETUPS):
        before = machine.reference_s()
        proc, setup_s = start_worker(args, tmp / f"setup-{i}", setup_only=True)
        _wait(proc, SETUP_TIMEOUT_S)
        setups.append((setup_s, (before + machine.reference_s()) / 2))
    proc, _ = start_worker(args, tmp / "worker", setup_only=False)
    _wait(proc, 3 * args.seconds + 90)
    result = json.loads((tmp / "worker" / "result.json").read_text())
    return result, setups


def describe_failures(records: list[dict]) -> list[str]:
    groups = Counter()
    first = {}
    for r in records:
        if not r["ok"]:
            key = " ".join(str(x) for x in (r["kind"], r.get("size"), r.get("frame")) if x)
            groups[key] += 1
            first.setdefault(key, r["error"].splitlines()[0])
    return [f"  failed {n}x {key}: {first[key]}" for key, n in sorted(groups.items())]


def report(args, result: dict, setups: list[tuple[float, float]], hygiene: list[str], spec: dict) -> dict:
    records = result["records"]
    attempted = len(records)
    failed = sum(not r["ok"] for r in records)
    correct = failed == 0 and result["warmup_error"] is None and not hygiene
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds}  trace {args.trace}")
    print("machine " + json.dumps(machine.record(args.workload, args.seed)))
    if args.trace:
        values = metrics.per_layer(records, tuple(result["calibration"]), result["import_s"])
        values["known_defect.k_timemap_wrong"] = sum(not r["ok"] for r in result["probe"])
        wanted = spec["per_layer"]
        for name, value in values.items():
            print(f"  {name:48s} {value:.6g} {metrics.unit_of(name)}")
    else:
        values = metrics.end_to_end(records, result["peak_rss_kb"], setups)
        wanted = spec["end_to_end"]
        raw = statistics.median(r["wall"] for r in records)
        print(f"  times at the reference speed; unscaled: job median {raw:.4g} s, set-up "
              f"{statistics.median(t for t, _ in setups):.4g} s, reference loop "
              f"{statistics.median(r['reference_s'] for r in records) * 1e3:.3g} ms "
              f"(nominal {machine.REFERENCE_NOMINAL_S * 1e3:.3g} ms)")
        print(f"  jobs_per_s   {values['jobs_per_s']:.6g} 1/s  ({attempted} jobs, "
              f"median time per job config over the run)")
        print(f"  job_p50_s    {values['job_p50_s']:.6g} s  (n={attempted})")
        print(f"  job_tail_s   {values['job_tail_s']:.6g} s  (p{values['tail_percentile']:.1f}, "
              f"{metrics.TAIL_BEYOND} of n={attempted} beyond it)")
        print(f"  failed_frac  {values['failed_frac']:.6g} ratio  ({failed}/{attempted})")
        print(f"  peak_rss_mb  {values['peak_rss_mb']:.6g} MB  (worker and its CLI children)")
        print(f"  setup_s      {values['setup_s']:.6g} s  (median of {len(setups)} fresh workers)")
    for line in describe_failures(records):
        print(line)
    for r in result["probe"]:
        verdict = "passes" if r["ok"] else "wrong: " + r["error"].splitlines()[0]
        print(f"  known-defect probe, outside the verdict: timemap {r['method']} "
              f"on the K file {verdict}")
    if result["warmup_error"]:
        print(f"  warm-up job failed: {result['warmup_error']}")
    for path in hygiene:
        print(f"  run changed the tree: {path}")
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "chronodyn" / "__init__.py").is_file():
        print(f"no chronodyn source tree at {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    machine.pin_to_one_cpu()

    before = snapshot(ROOT)
    made_build = not BUILD.exists()
    BUILD.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="bench-", dir=BUILD))
    try:
        result, setups = run_workers(args, tmp)
    except (BenchError, subprocess.TimeoutExpired, OSError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        if made_build:
            try:
                BUILD.rmdir()
            except OSError:
                pass
    hygiene = tree_changes(before, snapshot(ROOT))
    print(json.dumps(report(args, result, setups, hygiene, spec)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
