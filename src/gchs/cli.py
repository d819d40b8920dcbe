"""Command line front end.

Three subcommands:

    run      integrate a scenario's structural flow, write CSV + JSON summary
    bracket  evaluate brackets of two expressions at a point
    check    run the seeded invariant suite against a scenario's system

Exit codes: 0 success, 1 input or parse error (messages name line and
column where that applies), 2 runtime integration failure (blow-up or
step underflow, message names t), 3 invariant failure from check, 4 a
field left the domain of an operation (division by zero, log of zero,
zero to a negative power; the message names the scenario, and t when it
happened during the march).

The environment variable GCHS_LOG (error, info, debug) sets log
verbosity on stderr; reports on stdout are deterministic for a fixed
scenario and seed, byte for byte.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import logging
import os
import sys

import numpy as np

from .bridge import gspb_real
from .brackets import geobracket, gspb, pb_complex
from .checks import run_invariant_suite
from .errors import (DomainError, ExpressionError, GchsError,
                     IntegrationError, RealnessError, ScenarioError)
from .fields import parse_field
from .integrate import Trajectory, integrate_tghs, monitor_report
from .phasespace import PhasePoint
from .scenario import Scenario, load_scenario

log = logging.getLogger(__name__)

_LOG_LEVELS = {"error": logging.ERROR, "info": logging.INFO,
               "debug": logging.DEBUG}


class _UsageError(Exception):
    pass


class _ArgumentParser(argparse.ArgumentParser):
    # argparse exits with code 2 on bad usage; 2 means blow-up here,
    # so usage problems are rerouted to the input-error exit code
    def error(self, message):
        raise _UsageError(message)


def _fmt(x: float) -> str:
    # adding 0.0 folds negative zero into plain zero so equal values
    # always print identically
    return f"{x + 0.0:.17g}"


def _fmt_complex(v: complex) -> str:
    return f"{v.real + 0.0:.17g}{v.imag + 0.0:+.17g}j"


def write_trajectory_csv(path, traj: Trajectory):
    """Deterministic CSV: '.' decimals, ',' separators, '\\n' line ends,
    17 significant digits; complex columns as re+imj literals."""
    n = traj.n
    header = (["t"] + [f"q{j}" for j in range(1, n + 1)]
              + [f"p{j}" for j in range(1, n + 1)])
    columns = [traj.times] + [traj.states[:, a] for a in range(2 * n)]
    if traj.energy is not None:
        header.append("H")
        columns.append(traj.energy)
    if traj.sdyn is not None:
        header.append("w")
        columns.append(traj.sdyn)
    complex_cols = set()
    for name in sorted(traj.observables):
        header.append(name)
        complex_cols.add(len(columns))
        columns.append(traj.observables[name])
        if name in traj.residuals:
            header.append(f"{name}_residual")
            complex_cols.add(len(columns))
            columns.append(traj.residuals[name])

    lines = [",".join(header)]
    for k in range(traj.samples):
        cells = []
        for ci, col in enumerate(columns):
            v = col[k]
            cells.append(_fmt_complex(v) if ci in complex_cols else _fmt(float(v)))
        lines.append(",".join(cells))
    with open(path, "w", newline="") as fh:
        fh.write("\n".join(lines) + "\n")


def write_summary_json(path, sc: Scenario, traj: Trajectory):
    import json

    rep = monitor_report(traj)
    doc = {"scenario": sc.path.name, **rep.to_dict()}
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def run_one_scenario(path) -> tuple[int, str]:
    """Load, integrate and write outputs for one scenario file.

    Returns (exit_code, message); never raises, so it can run in a
    worker process.
    """
    try:
        sc = load_scenario(path)
        system = sc.system()
        traj = integrate_tghs(system, sc.initial, sc.stepper,
                              observables=sc.observable_fields())
        write_trajectory_csv(sc.csv_path, traj)
        write_summary_json(sc.summary_path, sc, traj)
        return 0, (f"{path}: {traj.samples} samples, t_final="
                   f"{traj.times[-1]:.6g} -> {sc.csv_path}, {sc.summary_path}")
    except (ScenarioError, ExpressionError, RealnessError, ValueError) as e:
        return 1, f"{path}: error: {e}"
    except IntegrationError as e:
        return 2, f"{path}: error: {e}"
    except DomainError as e:
        return 4, f"{path}: error: {e}"


def cmd_run(args) -> int:
    paths = args.scenarios
    if args.jobs > 1 and len(paths) > 1:
        log.info("running %d scenarios on %d workers", len(paths), args.jobs)
        with concurrent.futures.ProcessPoolExecutor(max_workers=args.jobs) as pool:
            outcomes = list(pool.map(run_one_scenario, paths))
    else:
        outcomes = [run_one_scenario(p) for p in paths]

    code = 0
    for rc, message in outcomes:
        print(message, file=sys.stderr if rc else sys.stdout)
        code = max(code, rc)
    return code


def _point_from_at(at: str, n: int) -> PhasePoint:
    parts = at.split(",")
    if len(parts) != 2 * n:
        raise ValueError(
            f"--at needs {2 * n} comma-separated values (q1,p1,...) for n={n}")
    try:
        vals = np.array([float(v) for v in parts])
    except ValueError:
        raise ValueError(f"--at values must be numbers: {at!r}") from None
    return PhasePoint(vals[0::2], vals[1::2])


def cmd_bracket(args) -> int:
    sc = load_scenario(args.scenario)
    system = sc.system()
    f = parse_field(args.f, sc.n)
    g = parse_field(args.g, sc.n)
    pt = _point_from_at(args.at, sc.n) if args.at else sc.initial

    rows = [
        ("pb_complex", pb_complex(f, g, pt)),
        ("geobracket", geobracket(f, g, system, pt)),
        ("gspb", gspb(f, g, system, pt)),
        ("gspb_real", gspb_real(f, g, system, pt)),
    ]
    for name, v in rows:
        print(f"{name}: {_fmt(v.real)},{_fmt(v.imag)}")
    return 0


def cmd_check(args) -> int:
    sc = load_scenario(args.scenario)
    system = sc.system()
    results = run_invariant_suite(system, args.seed, args.count,
                                  initial=sc.initial)
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        print(f"{status} {r.name:<36} max_dev={r.max_dev:.3e} tol={r.tol:.1e}")
    npass = sum(r.passed for r in results)
    print(f"{npass}/{len(results)} invariants passed "
          f"(seed={args.seed}, count={args.count})")
    return 0 if npass == len(results) else 3


def _build_parser() -> _ArgumentParser:
    parser = _ArgumentParser(
        prog="gchs",
        description="Structural Hamiltonian flows in complex coordinates")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="integrate scenarios and write outputs")
    p_run.add_argument("scenarios", nargs="+", help="scenario JSON file(s)")
    p_run.add_argument("--jobs", type=int, default=1,
                       help="worker processes for several scenarios")

    p_br = sub.add_parser("bracket", help="evaluate brackets at a point")
    p_br.add_argument("-f", required=True, help="left expression")
    p_br.add_argument("-g", required=True, help="right expression")
    p_br.add_argument("--at", default=None,
                      help="point as q1,p1,q2,p2,... (default: scenario initial)")
    p_br.add_argument("scenario", help="scenario JSON file (for n, H, s)")

    p_ck = sub.add_parser("check", help="run the seeded invariant suite")
    p_ck.add_argument("--seed", type=int, default=0)
    p_ck.add_argument("--count", type=int, default=200,
                      help="random points per invariant")
    p_ck.add_argument("scenario", help="scenario JSON file")

    return parser


def main(argv=None) -> int:
    level = _LOG_LEVELS.get(os.environ.get("GCHS_LOG", "error").lower(),
                            logging.ERROR)
    logging.basicConfig(level=level, stream=sys.stderr,
                        format="%(levelname)s %(name)s: %(message)s")

    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return 1

    try:
        if args.command == "run":
            return cmd_run(args)
        if args.command == "bracket":
            return cmd_bracket(args)
        return cmd_check(args)
    except (ScenarioError, ExpressionError, RealnessError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except IntegrationError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except DomainError as e:
        print(f"{args.scenario}: error: {e}", file=sys.stderr)
        return 4
    except GchsError:
        # consistency failures and other internal bugs should crash loudly
        raise


if __name__ == "__main__":
    sys.exit(main())
