"""Command-line front end: simulate scenarios, verify the battery, map time.

Exit codes: 0 success, 1 verification failure, 2 configuration error
(message names the offending field), 3 numeric failure (message names the
offending quantity).  The default output directory is the CHRONO_OUT_DIR
environment variable, falling back to the current directory.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from .chronometry import (
    DegenerateForceError,
    TimeMapInconsistencyError,
    save_time_map_csv,
    time_map_dynamic,
    time_map_kinematic,
    time_map_ratio,
)
from .dynamics import IntegrationError
from .scenarios import (
    ScenarioConfigError,
    _read_worldline_file,
    load_perturb_config,
    load_scenario,
    run_perturb,
    run_scenario,
)

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_CONFIG = 2
EXIT_NUMERIC = 3

#: Inputs that cannot be used as given: bad configs, sidecars and paths.
CONFIG_ERRORS = (ScenarioConfigError, OSError)

NUMERIC_ERRORS = (
    DegenerateForceError,
    TimeMapInconsistencyError,
    IntegrationError,
    ValueError,
    FloatingPointError,
)


def _default_out(explicit: str | None) -> Path:
    if explicit is not None:
        return Path(explicit)
    return Path(os.environ.get("CHRONO_OUT_DIR", "."))


def _cmd_simulate(args: argparse.Namespace) -> int:
    summary = run_scenario(load_scenario(args.config), _default_out(args.out))
    print(json.dumps(summary, indent=2, sort_keys=True, default=float))
    return EXIT_OK


def _cmd_verify(args: argparse.Namespace) -> int:
    from .acceptance import CRITERIA, run_all

    if args.list:
        for num, label, _ in CRITERIA:
            print(f"{num:2d}: {label}")
        return EXIT_OK
    results = run_all(verbose=True)
    failed = [r for r in results if not r.passed]
    print(f"{len(results) - len(failed)}/{len(results)} criteria passed")
    return EXIT_OK if not failed else EXIT_VERIFY_FAILED


def _cmd_timemap(args: argparse.Namespace) -> int:
    w, b, field, m0, e = _read_worldline_file(args.worldline, args.v0)
    if args.method == "kinematic":
        tm = time_map_kinematic(w, b)
    elif args.method == "ratio":
        tm = time_map_ratio(w, b)
    else:
        if field is None:
            raise ScenarioConfigError("dynamic method needs field data in the sidecar")
        tm = time_map_dynamic(w, field, b, m0=m0, e=e)
    out_dir = _default_out(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    out_path = out_dir / "timemap.csv"
    save_time_map_csv(tm, out_path)
    print(f"wrote {out_path} ({tm.t_prime.shape[0]} samples, method={args.method})")
    return EXIT_OK


def _cmd_perturb(args: argparse.Namespace) -> int:
    summary = run_perturb(load_perturb_config(args.config), _default_out(args.out))
    print(json.dumps(summary, indent=2, sort_keys=True, default=float))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chronodyn",
        description="Frame chronometry and relativistic point-charge dynamics.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="run a JSON scenario and emit its files")
    p_sim.add_argument("config", help="scenario JSON file")
    p_sim.add_argument("--out", default=None, help="output directory")
    p_sim.set_defaults(fn=_cmd_simulate)

    p_ver = sub.add_parser("verify", help="run the acceptance battery")
    p_ver.add_argument("--list", action="store_true", help="list criteria without running")
    p_ver.set_defaults(fn=_cmd_verify)

    p_tm = sub.add_parser("timemap", help="compute a time map for a worldline CSV")
    p_tm.add_argument("worldline", help="worldline CSV (t,x,y,z,ux,uy,uz)")
    p_tm.add_argument("--v0", type=float, default=None, help="boost speed (fraction of c)")
    p_tm.add_argument(
        "--method", choices=("kinematic", "ratio", "dynamic"), default="kinematic"
    )
    p_tm.add_argument("--out", default=None, help="output directory")
    p_tm.set_defaults(fn=_cmd_timemap)

    p_pert = sub.add_parser("perturb", help="run a perturbation config")
    p_pert.add_argument("config", help="perturbation JSON file")
    p_pert.add_argument("--out", default=None, help="output directory")
    p_pert.set_defaults(fn=_cmd_perturb)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except CONFIG_ERRORS as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except NUMERIC_ERRORS as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
