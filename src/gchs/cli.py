"""Command line front end.

Three subcommands:

    run      integrate a scenario's structural flow, write CSV + JSON summary
    bracket  evaluate brackets of two expressions at a point
    check    run the seeded invariant suite against a scenario's system

Exit codes: 0 success, 1 input or parse error (messages name line and
column where that applies), a quantity that must be real came out
complex, a file that cannot be read or written (the message names it),
outputs that clash (one file for two outputs, or an output that is a
scenario file; run refuses them before any scenario runs), or memory
that cannot be allocated (check's inputs at a huge --count; the message
names the allocation), 2 runtime integration failure (blow-up or step
underflow, message names t; a NaN or infinite state is a blow-up), 3
invariant failure from check, 4 a field left the domain of an operation
(division by zero, log of zero, zero to a negative power) or a guarded
quantity came out NaN or infinite.  For codes 1 and 4 the message names the
scenario, and t when the march or the monitors of a recorded sample fail.

The environment variable GCHS_LOG (error, info, debug) sets log
verbosity on stderr; reports on stdout are deterministic for a fixed
scenario and seed, byte for byte.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import functools
import logging
import os
import sys
from pathlib import Path
from time import perf_counter

import numpy as np

from .bridge import gspb_real
from .brackets import geobracket, gspb, pb_complex
from .checks import _glibc_function, run_invariant_suite
from .errors import (DomainError, ExpressionError, IntegrationError,
                     RealnessError, ScenarioError)
from .fields import parse_field
from .integrate import Trajectory, integrate_tghs, monitor_report
from .phasespace import PhasePoint
from .scenario import Scenario, _file_key, load_scenario

log = logging.getLogger(__name__)

_LOG_LEVELS = {"error": logging.ERROR, "info": logging.INFO,
               "debug": logging.DEBUG}


class _UsageError(Exception):
    pass


#: the exit code of each failure the user causes; anything else, such as
#: a ConsistencyError, is a bug and propagates as a traceback
_EXIT_CODES = {ScenarioError: 1, ExpressionError: 1, RealnessError: 1,
               ValueError: 1, MemoryError: 1, IntegrationError: 2,
               DomainError: 4}
_USER_ERRORS = tuple(_EXIT_CODES)


def _exit_code(e: Exception) -> int:
    return next(code for kind, code in _EXIT_CODES.items() if isinstance(e, kind))


class _ArgumentParser(argparse.ArgumentParser):
    # argparse exits with code 2 on bad usage; 2 means blow-up here,
    # so usage problems are rerouted to the input-error exit code
    def error(self, message):
        raise _UsageError(message)


def _fmt(x: float) -> str:
    # adding 0.0 folds negative zero into plain zero so equal values
    # always print identically
    return f"{x + 0.0:.17g}"


def write_trajectory_csv(path, traj: Trajectory):
    """Deterministic CSV: '.' decimals, ',' separators, '\\n' line ends,
    17 significant digits; complex columns as re+imj literals."""
    n = traj.n
    header = (["t"] + [f"q{j}" for j in range(1, n + 1)]
              + [f"p{j}" for j in range(1, n + 1)])
    columns = [traj.times, *traj.states.T]
    for label, col in (("H", traj.energy), ("w", traj.sdyn)):
        if col is not None:
            header.append(label)
            columns.append(col)
    formats = ["%.17g"] * len(columns)
    for name in sorted(traj.observables):
        for label, col in ((name, traj.observables[name]),
                           (f"{name}_residual", traj.residuals.get(name))):
            if col is not None:
                header.append(label)
                columns += [col.real, col.imag]
                formats.append("%.17g%+.17gj")

    # adding 0.0 folds negative zero, as _fmt does
    table = np.column_stack(columns) + 0.0
    row = ",".join(formats)
    lines = [",".join(header), *[row % tuple(r) for r in table.tolist()]]
    with open(path, "w", newline="") as fh:
        fh.write("\n".join(lines) + "\n")


def write_summary_json(path, sc: Scenario, traj: Trajectory):
    import json

    rep = monitor_report(traj)
    doc = {"scenario": sc.path.name, **rep.to_dict()}
    try:
        # a bare NaN or Infinity is not JSON
        text = json.dumps(doc, indent=2, sort_keys=True, allow_nan=False)
    except ValueError:
        raise DomainError("a summary value is not finite") from None
    with open(path, "w") as fh:
        fh.write(text + "\n")


def run_one_scenario(path) -> tuple[int, str]:
    """Load, integrate and write outputs for one scenario file.

    Returns (exit_code, message); never raises, so it can run in a
    worker process.  Logs the wall time of loading, integrating and
    writing at level info, after integrate's line for the march and the
    monitors.
    """
    try:
        with np.errstate(all="ignore"):   # as in main: the guards report them
            start = perf_counter()
            sc = load_scenario(path)
            system = sc.system()
            observables = sc.observable_fields()
            loaded = perf_counter()
            traj = integrate_tghs(system, sc.initial, sc.stepper, observables=observables)
            integrated = perf_counter()
            write_trajectory_csv(sc.csv_path, traj)
            write_summary_json(sc.summary_path, sc, traj)
        log.info("%s: load %.3f ms, integrate %.3f ms, writers %.3f ms", path,
                 1e3 * (loaded - start), 1e3 * (integrated - loaded),
                 1e3 * (perf_counter() - integrated))
        return 0, (f"{path}: {traj.samples} samples, t_final="
                   f"{traj.times[-1]:.6g} -> {sc.csv_path}, {sc.summary_path}")
    except _USER_ERRORS as e:
        return _exit_code(e), f"{path}: error: {e}"
    except OSError as e:   # load_scenario reports a scenario it cannot read
        return 1, f"{path}: error: cannot write {e.filename}: {e.strerror or e}"


class _Held(logging.Handler):
    """Keeps the records a worker of --jobs logs, each with its message
    formatted, so that they can be sent back with its outcome."""

    def __init__(self):
        super().__init__()
        self.records = []

    def emit(self, record):
        record.msg, record.args, record.exc_info = record.getMessage(), None, None
        self.records.append(record)


def _run_held(path, level: int):
    """run_one_scenario(path) in a worker of --jobs: its outcome, and the
    records it logged at level and above, held back rather than written,
    so that the parent emits them in argument order."""
    root, held = logging.getLogger(), _Held()
    handlers, old_level = root.handlers, root.level
    root.handlers = [held]
    root.setLevel(level)
    try:
        return run_one_scenario(path), held.records
    finally:
        root.handlers = handlers
        root.setLevel(old_level)


def _output_clash(paths) -> str | None:
    """Why the scenarios of one run may not run together, or None: an
    output that two of them write, or that is another's scenario file.
    A scenario that does not load is left to its run to report."""
    scenarios = {_file_key(Path(p)): p for p in paths}
    written = {}   # output file -> the scenario that writes it, and its name
    for p in paths:
        try:
            sc = load_scenario(p)
        except _USER_ERRORS:
            continue
        for out in (sc.csv_path, sc.summary_path):
            key = _file_key(out)
            if key in scenarios:
                return f"{p} writes {out}, the scenario file {scenarios[key]}"
            if key in written:
                first, named = written[key]
                if named == out:
                    return f"{first} and {p} both write {out}"
                return f"{first} writes {named} and {p} writes {out}, one file"
            written[key] = p, out
    return None


def cmd_run(args) -> int:
    paths = args.scenarios
    clash = _output_clash(paths) if len(paths) > 1 else None
    if clash:
        print(f"error: {clash}", file=sys.stderr)
        return 1
    # a fork pool starts all its workers at once: no more than there are files
    workers = min(args.jobs, len(paths))
    outcomes = []
    if workers > 1:
        log.info("running %d scenarios on %d workers", len(paths), workers)
        held = functools.partial(_run_held, level=logging.getLogger().level)
        with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
            try:
                # in argument order, each scenario's records before its outcome
                for outcome, records in pool.map(held, paths):
                    for record in records:
                        logging.getLogger(record.name).handle(record)
                    outcomes.append(outcome)
            except concurrent.futures.BrokenExecutor:
                # a worker died (killed, out of memory): the scenarios
                # from the first without an outcome on run here, in order
                log.info("a worker died; running %d scenarios here",
                         len(paths) - len(outcomes))
    outcomes += [run_one_scenario(p) for p in paths[len(outcomes):]]

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


#: glibc malloc thresholds for `gchs check`, in bytes.  The largest array
#: a block allocates is an order-2 Hessian, (2n, 2n, checks.BLOCK)
#: complex: 1.1 MiB at n = 3, and below 32 MiB up to n = 15.  Arrays under
#: the mmap threshold come from the heap (32 MiB is also the ceiling of
#: glibc's own adjustment on 64-bit).  A block holds several such arrays
#: at once (7.3 MiB at its peak at n = 3), and glibc hands the free top of
#: the heap back to the OS beyond the trim threshold: 64 MiB, twice the
#: mmap threshold, the ratio glibc's own adjustment keeps.
_MMAP_THRESHOLD = 32 << 20
_TRIM_THRESHOLD = 64 << 20


@functools.cache
def _keep_freed_memory() -> None:
    """Keep the memory each block of `gchs check` frees for the next one.

    By default glibc hands a block's large arrays back to the OS when they
    are freed, and the next block faults the same pages in again.  Setting
    both thresholds (either one alone turns off glibc's adjustment of the
    other) keeps them in the heap.  It acts once per process, on glibc
    only; the forked children of the suite inherit it.
    """
    mallopt = _glibc_function("mallopt", "c_int", "c_int")
    if mallopt is None:
        return
    # the parameter numbers of <malloc.h>
    for name, param, value in (("M_MMAP_THRESHOLD", -3, _MMAP_THRESHOLD),
                               ("M_TRIM_THRESHOLD", -1, _TRIM_THRESHOLD)):
        if mallopt(param, value) != 1:
            log.debug("mallopt(%s, %d) refused", name, value)


def cmd_check(args) -> int:
    _keep_freed_memory()
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


@functools.cache
def _build_parser() -> _ArgumentParser:
    # built once per process: parse_args keeps no state between calls
    parser = _ArgumentParser(
        prog="gchs",
        description="Structural Hamiltonian flows in complex coordinates")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="integrate scenarios and write outputs")
    p_run.add_argument("scenarios", nargs="+", help="scenario JSON file(s)")
    p_run.add_argument("--jobs", type=int, default=1,
                       help="worker processes for several scenarios "
                            "(at least 1; capped at the number of files)")

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
        if args.command == "check" and args.count < 1:
            parser.error(f"argument --count: must be at least 1, got {args.count}")
        if args.command == "check" and args.seed < 0:
            parser.error(f"argument --seed: must be at least 0, got {args.seed}")
        if args.command == "run" and args.jobs < 1:
            parser.error(f"argument --jobs: must be at least 1, got {args.jobs}")
    except _UsageError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return 1

    try:
        # the guards turn non-finite values into DomainError; numpy's
        # warnings about them would only clutter stderr
        with np.errstate(all="ignore"):
            if args.command == "run":
                return cmd_run(args)
            if args.command == "bracket":
                return cmd_bracket(args)
            return cmd_check(args)
    except _USER_ERRORS as e:
        code = _exit_code(e)
        # a domain error names the scenario (run reports per file itself)
        where = f"{args.scenario}: " if code == 4 else ""
        print(f"{where}error: {e}", file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
