"""End-to-end and per-layer metrics from a worker's job records."""

from __future__ import annotations

import statistics
from collections import defaultdict

from machine import REFERENCE_NOMINAL_S
from spans import ANALYTIC_SPAN, FORCE_EVALS, JACOBIAN_EVALS, TRACED, self_times

TAIL_BEYOND = 10
MODULES = ("cli", "scenarios", "analytic", "frames", "chronometry", "dynamics", "perturbation")
SELF_SPANS = tuple(dict.fromkeys(
    ANALYTIC_SPAN if layer == "analytic" else f"{layer}.{name}"
    for layer, names in TRACED.items() for name in names))
CSV_SPANS = ("frames.save_worldline_csv", "frames.load_worldline_csv", "chronometry.save_time_map_csv")


def tail(values: list[float]) -> tuple[float, float]:
    """The highest percentile with at least ten samples beyond it.

    That is the 11th-largest value; its percentile, by the linear
    interpolation rule, is 100*(n - 11)/(n - 1).  With fewer than 11 samples
    the smallest value is returned at percentile 0.
    """
    ordered = sorted(values)
    n = len(ordered)
    k = max(n - TAIL_BEYOND - 1, 0)
    return ordered[k], (100.0 * k / (n - 1) if n > 1 else 0.0)


def jobs_per_s(walls: list[float], slots: list[int]) -> float:
    """Jobs per second of job time at the round's mix.

    Each slot of the round (one job config) is timed by the median of its
    runs in the loop, so a few seconds of a slower machine move the result
    less than they would move a plain count over the window.
    """
    by_slot: dict[int, list[float]] = defaultdict(list)
    for slot, wall in zip(slots, walls):
        by_slot[slot].append(wall)
    return len(by_slot) / sum(statistics.median(w) for w in by_slot.values())


def at_reference_speed(wall: float, reference_s: float) -> float:
    """``wall`` scaled to the machine speed at which the reference loop takes
    ``machine.REFERENCE_NOMINAL_S`` (see ``machine.reference_s``)."""
    return wall * REFERENCE_NOMINAL_S / reference_s


def end_to_end(records: list[dict], peak_rss_kb: int, setups: list[tuple[float, float]]) -> dict:
    """End-to-end metrics; every time is taken at the reference speed.

    ``setups`` holds (wall time, reference time) per fresh worker.
    """
    walls = [at_reference_speed(r["wall"], r["reference_s"]) for r in records]
    tail_value, tail_pct = tail(walls)
    return {
        "jobs_per_s": jobs_per_s(walls, [r["slot"] for r in records]),
        "job_p50_s": statistics.median(walls),
        "job_tail_s": tail_value,
        "tail_percentile": tail_pct,
        "failed_frac": sum(not r["ok"] for r in records) / len(records),
        "peak_rss_mb": peak_rss_kb * 1024 / 1e6,
        "setup_s": statistics.median(at_reference_speed(*s) for s in setups) if setups else float("nan"),
    }


def _median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def per_job_span_times(rec: dict) -> tuple[dict, dict]:
    """(summed self time, summed duration) per span name within one job."""
    self_t: dict[str, float] = defaultdict(float)
    total: dict[str, float] = defaultdict(float)
    spans = rec.get("spans", [])
    for span, own in zip(spans, self_times(spans)):
        self_t[span[0]] += own
        total[span[0]] += span[2] - span[1]
    return self_t, total


def unit_of(name: str) -> str:
    """Unit of a per-layer metric, read off its name."""
    if "share" in name or name.endswith("_frac"):
        return "ratio"
    for suffix, unit in (("_us_per_step", "us"), ("ms_per_1e5_rows", "ms"), ("_per_s", "1/s"),
                         ("_per_step", "1/step"), ("_s", "s"), ("_bytes_written", "B"),
                         ("_bytes_read", "B")):
        if name.endswith(suffix):
            return unit
    return "count"


def per_layer(records: list[dict], calibration: tuple[float, float], import_s: float | None) -> dict:
    """Per-layer metrics of a traced run.

    Shares are summed over the run and divided by the summed job wall time.
    Times per call, rates per row or step, byte and evaluation counts are
    medians over the jobs that exercise them.  ``<span>.self_s`` and the
    µs-per-step / ms-per-1e5-rows forms are the Baseline table's units;
    ``import_s`` is the worker's own ``import chronodyn.cli`` time, used
    when no CLI job ran.
    """
    jobs = [(r, *per_job_span_times(r)) for r in records]
    wall = sum(r["wall"] for r in records)
    out: dict[str, float] = {}
    cli = [j for j in jobs if "exit" in j[0]]
    out["cli.import_s"] = _median(t["cli.import"] for _, _, t in cli) if cli else import_s
    out["cli.exit_nonzero"] = sum(r["exit"] != 0 for r, _, _ in cli)

    span_self: dict[str, float] = defaultdict(float)
    for _, s, _ in jobs:
        for name, own in s.items():
            span_self[name] += own
    for name in ("cli.import", "cli.simulate.main", "cli.timemap.main", *SELF_SPANS):
        out[f"{name}.self_share"] = span_self[name] / wall
    for cmd in ("simulate", "timemap"):
        out[f"cli.{cmd}.main_s"] = _median(
            t[f"cli.{cmd}.main"] for _, _, t in cli if f"cli.{cmd}.main" in t)
    for name in SELF_SPANS:
        out[f"{name}.self_s"] = _median(s[name] for _, s, _ in jobs if name in s)

    out["frames.csv_bytes_written"] = _median(r["csv_written"] for r, _, _ in jobs if "csv_written" in r)
    out["frames.csv_bytes_read"] = _median(r["csv_read"] for r, _, _ in jobs if "csv_read" in r)
    rates, save, load, tm = [], [], [], []
    for r, s, _ in jobs:
        written = 2 * r["rows"] if "csv_written" in r else 0  # the K' and the K worldline
        read = r["rows"] if "csv_read" in r else 0
        io_s = s.get("frames.save_worldline_csv", 0.0) + s.get("frames.load_worldline_csv", 0.0)
        if io_s > 0:
            rates.append((written + read) / io_s)
        if written and s.get("frames.save_worldline_csv"):
            save.append(written / s["frames.save_worldline_csv"])
        if read and s.get("frames.load_worldline_csv"):
            load.append(read / s["frames.load_worldline_csv"])
        if "rows" in r and s.get("chronometry.save_time_map_csv"):
            tm.append(r["rows"] / s["chronometry.save_time_map_csv"])
    out["frames.csv_rows_per_s"] = _median(rates)
    for name, per_s in (("frames.save_worldline_csv", save), ("frames.load_worldline_csv", load),
                        ("chronometry.save_time_map_csv", tm)):
        out[f"{name}.rows_per_s"] = _median(per_s)
        out[f"{name}.ms_per_1e5_rows"] = 1e8 / _median(per_s) if per_s else 0.0

    field = [(r, t) for r, _, t in jobs if r["kind"] == "field"]
    out["dynamics.integrate.steps"] = _median(r["steps"] for r, _ in field)
    for method in ("rk4", "boris"):
        per_s = [r["steps"] / t["dynamics.integrate"]
                 for r, t in field if r["method"] == method and t.get("dynamics.integrate")]
        out[f"dynamics.integrate.{method}_steps_per_s"] = _median(per_s)
        out[f"dynamics.integrate.{method}_us_per_step"] = 1e6 / _median(per_s) if per_s else 0.0

    perturb = [r for r, _, _ in jobs if r["kind"].startswith("perturb")]
    out["perturbation.force_evals"] = _median(r.get("counts", {}).get(FORCE_EVALS, 0) for r in perturb)
    out["perturbation.jacobian_evals"] = _median(r.get("counts", {}).get(JACOBIAN_EVALS, 0) for r in perturb)
    out["perturbation.force_evals_per_step"] = _median(
        r["counts"][FORCE_EVALS] / r["steps"] for r in perturb
        if r["kind"] == "perturb.sweep" and "counts" in r)

    module_self: dict[str, float] = defaultdict(float)
    for name, own in span_self.items():
        module_self[name.split(".")[0]] += own
    for module in MODULES:
        out[f"{module}.share"] = module_self[module] / wall

    small = [(r, t) for r, _, t in cli if r["size"] == "small"]
    large = [(r, s) for r, s, _ in cli if r["size"] == "large"]
    out["cli.import.share_small_jobs"] = (
        sum(t["cli.import"] for _, t in small) / sum(r["wall"] for r, _ in small) if small else 0.0)
    out["csv_io.share_large_jobs"] = (
        sum(s.get(n, 0.0) for _, s in large for n in CSV_SPANS) / sum(r["wall"] for r, _ in large)
        if large else 0.0)

    span_cost, count_cost = calibration
    n_spans = sum(len(r.get("spans", [])) for r in records)
    # the sweep's force counts come from the benchmark's own force law, not a wrapper
    n_counts = sum(r.get("counts", {}).get(JACOBIAN_EVALS, 0) for r in records) + sum(
        r.get("counts", {}).get(FORCE_EVALS, 0) for r in records if r["kind"] != "perturb.sweep")
    install = sum(r.get("install_s", 0.0) for r in records)
    out["trace.overhead_frac"] = (n_spans * span_cost + n_counts * count_cost + install) / wall
    return out
