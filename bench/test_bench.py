"""Tests of the benchmark itself: ``python3 -m pytest bench/test_bench.py``."""

import json

import pytest

import gate
from machine import REFERENCE_NOMINAL_S
from metrics import end_to_end, tail
from spans import self_times
from workloads import (WORKLOADS, known_defect_probe, make_round, simulate_timemap_round,
                       working_set_bytes)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_inputs_are_a_function_of_the_seed(workload):
    first, again, other = make_round(workload, 7), make_round(workload, 7), make_round(workload, 8)
    assert json.dumps(first) == json.dumps(again)
    assert json.dumps(first) != json.dumps(other)
    # the seed moves parameters, never the amount of work
    assert [working_set_bytes(j) for j in first] == [working_set_bytes(j) for j in other]


def test_k_file_timemaps_run_only_in_the_probe():
    timemaps = [j for j in make_round("simulate-timemap", 7) if j["kind"] == "timemap"]
    assert timemaps and all(j["frame"] == "Kprime" for j in timemaps)
    probe = known_defect_probe("simulate-timemap")
    assert probe and all(j["frame"] == "K" for j in probe)
    scenarios = {j["scenario"] for j in make_round("simulate-timemap", 7) if j["kind"] == "simulate"}
    assert {j["scenario"] for j in probe} <= scenarios  # it reads files the round wrote
    assert known_defect_probe("field-integrate") == known_defect_probe("perturb") == []


def test_tail_is_the_eleventh_largest_value():
    values = list(range(1, 101))
    value, percentile = tail(values[::-1])
    assert value == 90  # 91..100 lie beyond it
    assert percentile == pytest.approx(100.0 * 89 / 99)
    assert tail([3.0, 1.0, 2.0]) == (1.0, 0.0)  # under 11 samples: the minimum


def test_jobs_per_s_takes_each_config_at_its_median():
    walls = {0: [1.0, 1.2, 5.0], 1: [3.0]}  # one slow outlier on slot 0
    ref = REFERENCE_NOMINAL_S
    records = [{"slot": s, "wall": w, "ok": s == 0, "reference_s": ref}
               for s, ws in walls.items() for w in ws]
    e2e = end_to_end(records, peak_rss_kb=1000, setups=[(1.0, ref), (3.0, ref), (2.0, ref)])
    assert e2e["jobs_per_s"] == pytest.approx(2 / (1.2 + 3.0))
    assert e2e["failed_frac"] == pytest.approx(0.25)
    assert e2e["setup_s"] == pytest.approx(2.0)


def test_times_are_scaled_to_the_reference_speed():
    ref = REFERENCE_NOMINAL_S
    # the machine ran at half speed for the second job and its set-up
    records = [{"slot": 0, "wall": 1.0, "ok": True, "reference_s": ref},
               {"slot": 0, "wall": 2.0, "ok": True, "reference_s": 2 * ref}]
    e2e = end_to_end(records, peak_rss_kb=1000, setups=[(1.0, ref), (2.0, 2 * ref), (1.0, ref)])
    assert e2e["job_p50_s"] == pytest.approx(1.0)
    assert e2e["jobs_per_s"] == pytest.approx(1.0)
    assert e2e["setup_s"] == pytest.approx(1.0)


def test_self_time_subtracts_what_children_cover():
    spans = [
        ["root", 0.0, 10.0, None, 1],
        ["a", 1.0, 4.0, 0, 1],
        ["a.inner", 2.0, 3.0, 1, 1],
        ["b", 5.0, 6.0, 0, 1],
        ["b.overlap", 3.5, 5.5, 0, 1],  # overlaps a and b: counted once
    ]
    assert self_times(spans) == pytest.approx([10.0 - 5.0, 2.0, 1.0, 1.0, 2.0])


def _write_time_map(path, t_prime, g):
    rows = "".join(f"{float(a)!r},{float(b)!r},0.0\n" for a, b in zip(t_prime, g))
    path.write_text("t_prime,g,t\n" + rows)


def test_gate_rejects_a_wrong_g_series(tmp_path):
    config = simulate_timemap_round(3)[0]["config"]
    v0 = config["v0"]
    t = gate.time_grid(config)
    r, u = gate.closed_form(config, t)
    t_k, _, u_k = gate.boost_to_k(t, r, u, v0)
    path = tmp_path / "timemap.csv"

    _write_time_map(path, t_k, gate.g_k(u_k[:, 0], v0))
    gate.check_k_time_map(path, config)  # the correct dt'/dt passes

    # the K'-frame formula applied to K velocities: the known timemap defect
    _write_time_map(path, t_k, gate.g_kprime(u_k[:, 0], v0))
    with pytest.raises(gate.GateError, match="K time map g"):
        gate.check_k_time_map(path, config)

    g = gate.g_k(u_k[:, 0], v0)
    g[len(g) // 2] += 1e-8
    _write_time_map(path, t_k, g)
    with pytest.raises(gate.GateError, match="off by 1.0"):
        gate.check_k_time_map(path, config)
