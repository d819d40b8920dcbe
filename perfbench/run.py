"""Benchmark entry point: measure one gchs workload in fresh processes.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: trajectory, invariants, point_queries (see README.md).

Each run starts fresh single-threaded Python processes, one at a time,
from the root of a checkout whose ``src/gchs`` holds the program.  With
``--trace 0`` five set-up-only processes are timed, then the measuring
process sets up, runs the workload for S seconds and reports the
end-to-end metrics, then five more set-up-only processes are timed.
``setup_s`` is the median of the eleven set-up times, each from process
start to the first timed operation.  With
``--trace 1`` the measuring process runs each operation twice, untraced
and then under the span tracer, for S seconds in all, and reports the
per-layer metrics.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  The exit code is 0 only when
that line was printed.  Scratch files live in ``.perfbench_tmp/`` under
the checkout and are removed at the end.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import select
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("trajectory", "invariants", "point_queries")
SETUP_ONLY = 5
DEADLINE_S = 170.0


class ChildFailed(Exception):
    pass


def _child_env(tmp: Path) -> dict:
    env = dict(os.environ)
    # the workload puts the checkout's src first on its own path
    env.pop("PYTHONPATH", None)
    env.update(OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               MKL_NUM_THREADS="1", GCHS_LOG="error", TMPDIR=str(tmp))
    return env


def _kill(proc: subprocess.Popen):
    proc.kill()
    proc.wait()


def _read_line(proc: subprocess.Popen, deadline: float) -> bytes:
    # byte by byte, so nothing after the line is taken from the pipe
    fd = proc.stdout.fileno()
    line = b""
    while not line.endswith(b"\n"):
        remaining = deadline - time.monotonic()
        if remaining <= 0 or not select.select([fd], [], [], remaining)[0]:
            _kill(proc)
            raise ChildFailed("timed out waiting for the workload to set up")
        byte = os.read(fd, 1)
        if not byte:
            break
        line += byte
    return line


def _spawn(args: list[str], tmp: Path, deadline: float):
    """Start a workload process; return (set-up seconds, process)."""
    cmd = [sys.executable, "-s", str(HERE / "workload.py"), *args]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, bufsize=0, cwd=ROOT,
                            env=_child_env(tmp))
    line = _read_line(proc, deadline)
    setup_s = time.perf_counter() - t0
    if line != b"READY\n":
        _kill(proc)
        raise ChildFailed(f"workload process failed to set up (exit {proc.returncode})")
    return setup_s, proc


def _finish(proc: subprocess.Popen, deadline: float) -> str:
    try:
        out, _ = proc.communicate(timeout=max(0.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        _kill(proc)
        raise ChildFailed("timed out waiting for the workload to finish") from None
    if proc.returncode != 0:
        raise ChildFailed(f"workload process exited {proc.returncode}")
    return out.decode()


def _time_setups(base: list[str], tmp: Path, deadline: float) -> list[float]:
    setups = []
    for _ in range(SETUP_ONLY):
        setup_s, proc = _spawn(base, tmp, deadline)
        setups.append(setup_s)
        _finish(proc, deadline)
    return setups


def measure(args, tmp: Path, deadline: float) -> dict:
    base = ["--workload", args.workload, "--seed", str(args.seed), "--tmp", str(tmp)]
    setups = _time_setups(base, tmp, deadline) if not args.trace else []
    setup_s, proc = _spawn(base + ["--seconds", str(args.seconds),
                                   "--trace", str(args.trace)], tmp, deadline)
    setups.append(setup_s)
    lines = _finish(proc, deadline).splitlines()
    if not args.trace:
        # set-up samples on both sides of the measurement see more of the
        # host's slow and fast stretches than a block of them would
        setups += _time_setups(base, tmp, deadline)
    if not lines or not lines[-1].startswith("RESULT "):
        raise ChildFailed("workload process printed no result")
    for line in lines[:-1]:
        print(line)
    result = json.loads(lines[-1][len("RESULT "):])

    metrics = result["metrics"]
    if not args.trace:
        print("setup_s samples " + " ".join(f"{s:.4f}" for s in setups))
        metrics = {"setup_s": {"value": statistics.median(setups), "unit": "s"},
                   **metrics}
    return {"correct": result["failed"] == 0, "attempted": result["attempted"],
            "failed": result["failed"], "metrics": metrics}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    if not (ROOT / "src" / "gchs" / "__init__.py").is_file():
        print(f"perfbench: no gchs sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + DEADLINE_S
    tmp_root = ROOT / ".perfbench_tmp"
    tmp_root.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(dir=tmp_root))
    try:
        final = measure(args, tmp, deadline)
    except ChildFailed as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        with contextlib.suppress(OSError):
            tmp_root.rmdir()
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
