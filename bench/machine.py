"""Machine and input-size record printed with every result, and machine speed."""

from __future__ import annotations

import os
import platform
import statistics
import time
from importlib import metadata
from pathlib import Path

import numpy as np

from workloads import make_round, rows, steps, working_set_bytes

CACHE_DIR = Path("/sys/devices/system/cpu/cpu0/cache")
# about the median reference_s() on a 2-CPU Xeon VM with Python 3.11.7 and numpy 2.4.6
REFERENCE_NOMINAL_S = 0.0075
REFERENCE_REPEATS = 5


def _reference_loop() -> float:
    a, s = np.ones(3), 0.0
    t0 = time.perf_counter()
    for i in range(2000):
        a = a * 0.5 + 0.5 * a + 1e-3
        s += float(a[0]) * 1e-9 + i
    return time.perf_counter() - t0


def reference_s() -> float:
    """Median time of a fixed loop of small-array numpy and Python arithmetic.

    A shared host's CPU speed swings by 1.5x and more from one few-second
    stretch to the next, and every job's time moves with it.  The worker
    takes this time just before and just after each job (and ``run.py``
    around each set-up), and ``metrics.end_to_end`` scales the job's wall
    time by REFERENCE_NOMINAL_S over it: the time the job would have taken
    at the reference speed.  Nothing of chronodyn runs in the loop, so a
    change to the program cannot move it.
    """
    return statistics.median(_reference_loop() for _ in range(REFERENCE_REPEATS))


def pin_to_one_cpu() -> None:
    """Hold this process, and every process it starts, to one of its CPUs.

    One job is in flight at a time, so one CPU is all a run uses.  The
    CPUs of a shared host slow down independently of each other: unpinned,
    a CLI child may run on another CPU than the one the reference loop
    measured, and its time would not follow the loop's.
    """
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _size_bytes(text: str) -> int:
    units = {"K": 1024, "M": 1024**2, "G": 1024**3}
    text = text.strip()
    return int(text[:-1]) * units[text[-1]] if text[-1] in units else int(text)


def caches() -> dict[str, int]:
    """Per-core cache sizes in bytes by level, as the kernel reports them."""
    out = {}
    for index in sorted(CACHE_DIR.glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = _size_bytes((index / "size").read_text())
        except (OSError, ValueError):
            continue
        if kind != "Instruction":
            out[f"L{level}"] = size
    return out


def _version(package: str) -> str:
    try:
        return metadata.version(package)
    except metadata.PackageNotFoundError:
        return "not installed"


def _input_size(job: dict) -> str:
    if job["kind"] in ("simulate", "timemap"):
        return f"{rows(job)} rows"
    if job["kind"] == "field":
        return f"{job['steps']} {job['method']} steps"
    if job["kind"] == "perturb.config":
        return f"{steps(job['config']['t_span'], job['config']['dt'])} steps"
    return f"{steps(job['t_span'], job['dt'])} steps x {4 + 2 * len(job['v0_values'])} solves"


def record(workload: str, seed: int) -> dict:
    cache = caches()
    l2 = cache.get("L2")
    jobs = make_round(workload, seed)
    sizes = sorted({working_set_bytes(j) for j in jobs})
    return {
        "nproc": os.cpu_count(),
        "cpu": _cpu_model(),
        "cache_bytes": cache,
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "scipy": _version("scipy"),
        "workload": workload,
        "jobs_per_round": len(jobs),
        "input_sizes": sorted({_input_size(j) for j in jobs}),
        "working_set_bytes": sizes,
        "working_set_over_l2": [round(s / l2, 3) for s in sizes] if l2 else None,
    }
