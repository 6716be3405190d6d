"""One benchmark worker: set up, run one warm-up job, then the closed loop.

Usage (from ``run.py``): ``python3 bench/worker.py WORKLOAD SEED SECONDS TRACE TMP [--setup-only]``

The worker prints ``ready`` once it can time job 1, so the parent measures
set-up time from process start to that line.  It then runs the workload's
round of jobs in order, one at a time, until the jobs' summed wall time
reaches SECONDS and the round has run at least once.  Outside the clock
it checks each job's outputs and takes ``machine.reference_s()`` before
and after each job.  Then it runs the workload's known-defect probe and
writes ``TMP/result.json``.
"""

from __future__ import annotations

import json
import os
import resource
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy as np

import gate
import machine
import spans
from workloads import known_defect_probe, make_round, rows, steps

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
LAUNCHER = Path(__file__).resolve().parent / "launcher.py"
CLI_TIMEOUT_S = 60.0


class CountingForce:
    """F = A r + C u - cubic*|r|^2 r, counting its own evaluations."""

    def __init__(self, A, C, cubic):
        self.A, self.C, self.cubic = np.asarray(A), np.asarray(C), cubic
        self.calls = 0

    def __call__(self, r, u, t):
        self.calls += 1
        return self.A @ r + self.C @ u - self.cubic * float(r @ r) * r


class Runner:
    """Runs and checks one job; ``tracer`` is set only in a traced run."""

    def __init__(self, workload: str, tmp: Path, trace: bool, jobs: list[dict]):
        self.workload, self.tmp, self.trace = workload, tmp, trace
        self.tracer = None
        self.import_s = None
        self.sim_config = {j["scenario"]: j["config"] for j in jobs if j["kind"] == "simulate"}
        # config files for every job, as a user would hand them over
        (tmp / "configs").mkdir(parents=True, exist_ok=True)
        for slot, job in enumerate(jobs):
            if "config" in job:
                path = tmp / "configs" / f"{slot}.json"
                path.write_text(json.dumps(job["config"], indent=2))
                job["config_path"] = str(path)
        if workload != "simulate-timemap":
            sys.path.insert(0, str(SRC))
            t0 = time.perf_counter()
            import chronodyn.cli  # noqa: F401  (what the console script imports)

            self.import_s = time.perf_counter() - t0
            from chronodyn import perturbation, scenarios

            self.scenarios, self.perturbation = scenarios, perturbation
            if trace:
                self.tracer = spans.Tracer()
                spans.install(self.tracer)

    # -- the three kinds of job ------------------------------------------------

    def _cli(self, argv: list[str], out: Path, rec: dict) -> None:
        env = dict(os.environ, CHRONO_OUT_DIR=str(out))
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
        if self.trace:
            span_file = self.tmp / "spans.json"
            span_file.unlink(missing_ok=True)
            cmd = [sys.executable, str(LAUNCHER), str(span_file), *argv]
        else:
            cmd = [sys.executable, "-m", "chronodyn.cli", *argv]
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=CLI_TIMEOUT_S)
        rec["wall"] = time.perf_counter() - t0
        rec["exit"] = proc.returncode
        if self.trace and span_file.exists():
            data = json.loads(span_file.read_text())
            for span in data["spans"]:
                span[4] = rec["index"]  # the launcher cannot know its job id
            rec["spans"], rec["counts"], rec["install_s"] = data["spans"], data["counts"], data["install_s"]
        if proc.returncode != 0:
            raise gate.GateError(f"exit {proc.returncode}: {proc.stderr.strip()[-300:]}")

    def _run_cli_job(self, job: dict, out: Path, rec: dict) -> None:
        if job["kind"] == "simulate":
            self._cli(["simulate", job["config_path"], "--out", str(out)], out, rec)
            rec["csv_written"] = sum((out / f).stat().st_size
                                     for f in ("worldline_kprime.csv", "worldline_k.csv"))
            rec["rows"] = rows(job)
            gate.check_simulate(job["config"], out)
            return
        src = self.tmp / "sim" / job["scenario"] / (
            "worldline_kprime.csv" if job["frame"] == "Kprime" else "worldline_k.csv")
        self._cli(["timemap", str(src), "--method", job["method"], "--out", str(out)], out, rec)
        rec["csv_read"] = src.stat().st_size
        rec["rows"] = rows(job)
        gate.check_timemap(job, self.sim_config[job["scenario"]], out / "timemap.csv")

    def _run_in_process(self, job: dict, out: Path, rec: dict) -> None:
        sc, pt = self.scenarios, self.perturbation
        if self.tracer is not None:
            self.tracer.start_job(rec["index"])
        t0 = time.perf_counter()
        if job["kind"] == "field":
            summary = sc.run_scenario(sc.load_scenario(job["config_path"]), out)
        elif job["kind"] == "perturb.config":
            summary = sc.run_perturb(sc.load_perturb_config(job["config_path"]), out)
        else:
            force = CountingForce(job["A"], job["C"], job["cubic"])
            law = pt.ForceLaw(evaluate=force)
            m0, span, dt = job["m0"], tuple(job["t_span"]), job["dt"]
            zero = pt.zero_order_solve(law, job["r0"], job["u0"], m0, span, dt)
            (ra, ua), (rb, ub) = job["seeds"]
            seeds = [(ra, ua), (rb, ub), (np.add(ra, rb), np.add(ua, ub))]
            corrections = [pt.correction_solve(zero, law, r1, u1, m0).r for r1, u1 in seeds]
            residuals, exponent = pt.residual_sweep(
                law, job["r0"], job["u0"], m0, span, dt, job["v0_values"],
                seed_direction=job["seed_direction"])
        rec["wall"] = time.perf_counter() - t0
        if self.tracer is not None:
            rec["spans"], rec["counts"] = self.tracer.spans, self.tracer.counts
        if job["kind"] == "field":
            rec["steps"] = job["steps"]
            gate.check_field(job, summary)
        elif job["kind"] == "perturb.config":
            rec["steps"] = steps(job["config"]["t_span"], job["config"]["dt"])
            gate.check_perturb_config(job, out)
        else:
            n = steps(job["t_span"], job["dt"])
            # one zero-order and three correction solves, then a zero-order and a
            # correction solve for each v0 of the residual sweep
            rec["steps"] = n * (4 + 2 * len(job["v0_values"]))
            rec["counts"] = {**rec.get("counts", {}), spans.FORCE_EVALS: force.calls}
            gate.check_sweep(job, {"corrections": corrections, "residuals": residuals,
                                   "exponent": exponent})

    def run(self, job: dict, index: int, out: Path) -> dict:
        """Run one job into ``out``; a raise or a failed check marks it failed."""
        rec = {"index": index, "kind": job["kind"], "size": job.get("size"), "frame": job.get("frame"),
               "method": job.get("method"), "ok": True, "error": None, "wall": 0.0}
        out.mkdir(parents=True, exist_ok=True)
        t0 = time.perf_counter()
        try:
            if self.workload == "simulate-timemap":
                self._run_cli_job(job, out, rec)
            else:
                self._run_in_process(job, out, rec)
        except Exception as exc:  # every failure is counted, none stops the loop
            rec["ok"] = False
            rec["error"] = f"{type(exc).__name__}: {exc}"
            if not isinstance(exc, gate.GateError):
                rec["error"] += "\n" + traceback.format_exc(limit=3)
            if not rec["wall"]:
                rec["wall"] = time.perf_counter() - t0
        return rec


def out_dir(tmp: Path, job: dict, slot: int) -> Path:
    if job["kind"] == "simulate":
        return tmp / "sim" / job["scenario"]
    if job["kind"] == "timemap":
        return tmp / "tm" / f"{job['scenario']}-{job['frame']}-{job['method']}"
    return tmp / "jobs" / str(slot)


def main(argv: list[str]) -> int:
    workload, seed, seconds, trace, tmp = argv[0], int(argv[1]), float(argv[2]), argv[3] == "1", Path(argv[4])
    setup_only = "--setup-only" in argv
    jobs = make_round(workload, seed)
    runner = Runner(workload, tmp, trace, jobs)

    warm_out = tmp / "warmup"
    warm = runner.run(jobs[0], -1, warm_out)
    print("ready", flush=True)
    if setup_only:
        return 0

    calibration = spans.calibrate() if trace else (0.0, 0.0)
    records, busy, i = [], 0.0, 0
    give_up = time.perf_counter() + 3.0 * seconds + 60.0  # a hard stop on real time
    # at least one whole round, so that every job config is in the mix
    while (busy < seconds or i < len(jobs)) and time.perf_counter() < give_up:
        slot = i % len(jobs)
        job = jobs[slot]
        before = machine.reference_s()
        rec = runner.run(job, i, out_dir(tmp, job, slot))
        rec["slot"], rec["reference_s"] = slot, (before + machine.reference_s()) / 2
        busy += rec["wall"]
        if i == 0 and rec["ok"]:
            try:
                gate.same_bytes(warm_out, out_dir(tmp, job, slot))
            except gate.GateError as exc:
                rec["ok"], rec["error"] = False, str(exc)
        records.append(rec)
        i += 1

    # untimed, after the loop: it reads the files the round's simulate jobs wrote
    probe = [runner.run(job, -2, out_dir(tmp, job, -2)) for job in known_defect_probe(workload)]

    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    result = {
        "records": records,
        "warmup_error": warm["error"],
        "probe": probe,
        "peak_rss_kb": max(own, children),
        "calibration": calibration,
        "import_s": runner.import_s,
    }
    (tmp / "result.json").write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
