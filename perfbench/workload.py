"""One benchmark workload, run in a process of its own.

    python3 perfbench/workload.py --workload NAME --seed N --tmp DIR \
        [--seconds S --trace 0|1]

The process imports gchs from the checkout's ``src``, generates its
inputs from the seed, runs one warm-up and prints ``READY``.  Without
``--seconds`` it stops there (run.py times these set-up-only processes).
Otherwise it runs operations in a closed loop with one client, checks
every output, and prints ``RESULT`` followed by a JSON object.

An operation is one user-facing call: ``gchs run`` for ``trajectory``,
``gchs check`` for ``invariants``, and the seven single-point calls at
one point for ``point_queries``.  A failed check or a raised GchsError
counts the operation as failed; it never stops the run.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import gchs  # noqa: E402
import gchs.cli  # noqa: E402
from gchs.brackets import ROUTE_TOL  # noqa: E402
from gchs.errors import GchsError  # noqa: E402

from tracer import PER_LAYER, Tracer, layer_metrics  # noqa: E402

if Path(gchs.__file__).resolve().parent != ROOT / "src" / "gchs":
    raise SystemExit(f"gchs was imported from {gchs.__file__}, not from the checkout")

#: every end-to-end metric, in report order, with its unit; run.py adds
#: setup_s, the workload process reports the rest
END_TO_END = (
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("work_per_s", "1/s"),
)


# ---------------------------------------------------------------------------
# generated inputs: the shape of every expression is fixed, only the
# coefficients and points come from the seed, so the cost of an operation
# does not depend on the seed


def _terms(coeffs, monomials) -> str:
    """Signed terms ' + c * m - c * m ...', each with its own sign."""
    out = []
    for c, mono in zip(coeffs, monomials):
        c = float(c)
        out.append(f"{'-' if c < 0 else '+'} {abs(c)!r} * {mono}")
    return " ".join(out)


def _poly(coeffs, monomials) -> str:
    text = _terms(coeffs, monomials)
    return text[2:] if text.startswith("+ ") else text


def _oscillator(n: int) -> str:
    return "(" + " + ".join(f"q{j}^2 + p{j}^2" for j in range(1, n + 1)) + ") / 2"


#: RK4 steps of one ``trajectory`` operation (step 1e-3)
STEPS = 100
#: seeded query points of ``point_queries``
POINTS = 1000

_COUPLING_3 = ("q1^2 * q2^2", "q2^2 * q3^2", "q1 * q3 * p2^2", "p1^2 * p3^2")
_STRUCTURAL_3 = ("q1", "p2", "q3 * p1", "q2^2", "p3^3")


def system_n3(rng) -> tuple[str, str]:
    """Oscillator plus a small quartic coupling, and a small structural s."""
    H = f"{_oscillator(3)} {_terms(rng.uniform(-0.05, 0.05, 4), _COUPLING_3)}"
    s = _poly(rng.uniform(-0.05, 0.05, 5), _STRUCTURAL_3)
    return H, s


def scenario_n3(rng, t_end: float) -> dict:
    H, s = system_n3(rng)
    q, p = rng.uniform(-0.6, 0.6, size=(2, 3))
    return {
        "n": 3,
        "hamiltonian": H,
        "structural": s,
        "observables": {"zc": "z1 * conj(z2)", "r": "q1 * p3 + q2^2"},
        "initial": {"q": [float(v) for v in q], "p": [float(v) for v in p]},
        "stepper": {"method": "rk4", "step": 1e-3, "t_end": t_end, "stride": 1},
    }


def _write_json(path: Path, doc: dict) -> Path:
    path.write_text(json.dumps(doc, indent=2) + "\n")
    return path


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _cli(argv: list[str]) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = gchs.cli.main(argv)
    return rc, buf.getvalue()


def _warm(argv: list[str]):
    # a failing warm-up is not fatal: the measured operations report it
    with contextlib.suppress(GchsError):
        _cli(argv)


# ---------------------------------------------------------------------------
# workloads


class Trajectory:
    """``gchs run`` on a generated n=3 scenario: RK4, step 1e-3, 100 steps,
    stride 1."""

    THROUGHPUT = "traj_steps_per_s"
    LATENCY = ("op_ms", "ms", 1e3)

    def __init__(self, seed: int, tmp: Path):
        rng = np.random.default_rng(seed)
        doc = scenario_n3(rng, STEPS * 1e-3)
        self.work_per_op = STEPS
        self.scenario = _write_json(tmp / "trajectory.json", doc)
        self.csv = tmp / "trajectory_trajectory.csv"
        self.summary = tmp / "trajectory_summary.json"
        warm = dict(doc, stepper=dict(doc["stepper"], t_end=0.02))
        self.warm_scenario = _write_json(tmp / "warmup.json", warm)
        self.digests = None

    def warm_up(self):
        _warm(["run", str(self.warm_scenario)])

    def op(self, i: int) -> tuple[float, bool]:
        t0 = perf_counter()
        try:
            rc, _ = _cli(["run", str(self.scenario)])
        except GchsError:
            return perf_counter() - t0, False
        elapsed = perf_counter() - t0
        if rc != 0:
            return elapsed, False
        summary = json.loads(self.summary.read_text())
        scale = max(1.0, abs(summary["energy_initial"]))
        digests = (_sha256(self.csv), _sha256(self.summary))
        if self.digests is None:
            self.digests = digests
        ok = (summary["samples"] == STEPS + 1
              and summary["decay_law_max_dev"] <= 1e-6
              and summary["max_hh_residual"] <= ROUTE_TOL * scale
              and digests == self.digests)
        return elapsed, ok

    def report(self) -> list[str]:
        return [f"csv_sha256 {self.digests[0]}", f"summary_sha256 {self.digests[1]}"]


class Invariants:
    """``gchs check --seed 42 --count C`` on a generated n=3 system.

    The suite draws its own random fields from its ``--seed``, and their
    shapes set its cost, so that seed is pinned to 42 (the seed of the
    package's acceptance gate); the workload seed varies the system and
    the initial point of the flow checks.
    """

    THROUGHPUT = "check_points_per_s"
    LATENCY = ("op_ms", "ms", 1e3)
    CHECK_SEED = 42

    # the self-tests pass a small count to stay fast
    def __init__(self, seed: int, tmp: Path, count: int = 20_000):
        rng = np.random.default_rng(seed)
        doc = scenario_n3(rng, 0.5)
        self.scenario = _write_json(tmp / "invariants.json", doc)
        warm = dict(doc, stepper=dict(doc["stepper"], t_end=0.02))
        self.warm_scenario = _write_json(tmp / "warmup.json", warm)
        self.system = gchs.load_scenario(self.scenario).system()
        self.argv = ["check", "--seed", str(self.CHECK_SEED), "--count", str(count),
                     str(self.scenario)]
        self.work_per_op = count
        self.report_text = None

    def warm_up(self):
        # the m=1 path through a short `gchs run`, the batched path through
        # the point-based part of the suite; the suite's fixed flow checks
        # (~0.75 s) would make set-up mostly a second copy of them
        _warm(["run", str(self.warm_scenario)])
        with contextlib.suppress(GchsError):
            gchs.run_invariant_suite(self.system, self.CHECK_SEED, 1000,
                                     include_flow_checks=False)

    def op(self, i: int) -> tuple[float, bool]:
        t0 = perf_counter()
        try:
            rc, text = _cli(self.argv)
        except GchsError:
            return perf_counter() - t0, False
        elapsed = perf_counter() - t0
        if self.report_text is None:
            self.report_text = text
        lines = text.splitlines()
        ok = (rc == 0 and len(lines) > 1
              and all(line.startswith("PASS ") for line in lines[:-1])
              and lines[-1].startswith(f"{len(lines) - 1}/{len(lines) - 1} ")
              and text == self.report_text)
        return elapsed, ok

    def report(self) -> list[str]:
        digest = hashlib.sha256(self.report_text.encode()).hexdigest()
        return [f"report_sha256 {digest}", self.report_text.splitlines()[-1]]


class PointQueries:
    """Seven single-point calls at each of K seeded points, n=6."""

    THROUGHPUT = "queries_per_s"
    LATENCY = ("query_us", "us", 1e6)

    def __init__(self, seed: int, tmp: Path):
        n = 6
        rng = np.random.default_rng(seed)
        coupling = ("q1^2 * q4^2", "q2 * q5 * p3^2", "p6^4", "q3 * p1 * q6 * p5")
        structural = ("q1", "p2", "q3 * p4", "q5^2", "p6 * q2")
        f_terms = ("z1 * conj(z2)", "i * q3 * p4", "z5^2", "p6", "conj(z4) * q2")
        g_terms = ("conj(z3) * z4", "i * q1^2", "z6 * p2", "conj(z5)", "i * p3 * q6")
        H = f"{_oscillator(n)} {_terms(rng.uniform(-0.05, 0.05, 4), coupling)}"
        s = _poly(rng.uniform(-0.05, 0.05, 5), structural)
        self.H = gchs.parse_field(H, n)
        self.sys = gchs.StructuredSystem(n, self.H, gchs.parse_field(s, n))
        self.f = gchs.parse_field(_poly(rng.uniform(-1, 1, 5), f_terms), n)
        self.g = gchs.parse_field(_poly(rng.uniform(-1, 1, 5), g_terms), n)
        qp = rng.uniform(-1.0, 1.0, size=(POINTS, 2, n))
        self.points = [gchs.PhasePoint(q, p) for q, p in qp]
        self.work_per_op = 7  # single-point calls per operation
        self.results: dict[int, tuple] = {}

    def warm_up(self):
        self.op(0)

    def op(self, i: int) -> tuple[float, bool]:
        k = i % len(self.points)
        pt, f, sys_ = self.points[k], self.f, self.sys
        t0 = perf_counter()
        try:
            fg = gchs.gspb(f, self.g, sys_, pt)
            fg_real = gchs.gspb_real(f, self.g, sys_, pt)
            fH = gchs.gspb(f, self.H, sys_, pt)
            rate = gchs.gchs_rate(f, sys_, pt)
            w = gchs.s_dynamics(sys_, pt)
            b = gchs.beta(sys_, pt)
            acc = gchs.covariant_acceleration(f, sys_, pt)
        except GchsError:
            return perf_counter() - t0, False
        elapsed = perf_counter() - t0
        result = (fg, fg_real, fH, rate.total, w, b, acc)
        ok = (_close(fg, fg_real) and _close(rate.total, fH)
              and all(np.isfinite(v) for v in result)
              and self.results.setdefault(k, result) == result)
        return elapsed, ok

    def report(self) -> list[str]:
        return [f"points {len(self.points)}, distinct points queried {len(self.results)}"]


def _close(a: complex, b: complex) -> bool:
    return abs(a - b) <= ROUTE_TOL * max(1.0, abs(a), abs(b))


WORKLOADS = {"trajectory": Trajectory, "invariants": Invariants,
             "point_queries": PointQueries}


# ---------------------------------------------------------------------------
# measurement


def run_ops(wl, seconds: float) -> tuple[list[float], int]:
    """Closed loop, one client: run operations until `seconds` have passed."""
    durations = []
    failed = 0
    t0 = perf_counter()
    while not durations or perf_counter() - t0 < seconds:
        dt, ok = wl.op(len(durations))
        durations.append(dt)
        failed += not ok
    return durations, failed


def end_to_end(wl, durations: list[float]) -> dict[str, float]:
    """The bounded metrics.

    Throughput is taken at the fastest operation of the run.  On a shared
    host other tenants slow whole stretches of a run, which moves the
    median and the mean by more than any usable bound (README.md has the
    figures); they only ever add time, so the fastest operation is the
    steady estimate of what the code costs.
    """
    return {
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "work_per_s": wl.work_per_op / min(durations),
    }


def distribution(wl, durations: list[float]) -> list[str]:
    """Median, 90th percentile and mean rate: printed, not bounded."""
    name, unit, scale = wl.LATENCY
    p50 = statistics.median(durations) * scale
    p90 = (statistics.quantiles(durations, n=10, method="inclusive")[8]
           if len(durations) > 1 else durations[0]) * scale
    mean_rate = wl.work_per_op * len(durations) / sum(durations)
    return [f"{wl.THROUGHPUT} {wl.work_per_op / min(durations):.6g} 1/s "
            f"at the fastest of {len(durations)} operations (work_per_s)",
            f"{wl.THROUGHPUT} {mean_rate:.6g} 1/s over all operations, "
            f"{name}_p50 {p50:.6g} {unit}, {name}_p90 {p90:.6g} {unit} "
            "(printed, not bounded)"]


def run_traced(wl, seconds: float, spans_path: Path | None = None):
    """Run each operation twice, untraced then traced, until `seconds`
    have passed.  Pairing the runs keeps drift (page faults, caches) out
    of the overhead estimate.  Returns all durations, the failures and
    the per-layer metrics of the traced runs.  The spans of the first
    traced operation are written to `spans_path` as JSON lines."""
    tracer = Tracer()
    plain, traced = [], []
    failed = 0
    first = None
    t0 = perf_counter()
    while not plain or perf_counter() - t0 < seconds:
        i = len(plain)
        dt, ok = wl.op(i)
        plain.append(dt)
        failed += not ok
        with tracer:
            dt, ok = wl.op(i)
        traced.append(dt)
        failed += not ok
        if first is None:
            first = len(tracer.spans)

    if spans_path is not None:
        spans_path.parent.mkdir(exist_ok=True)
        origin = tracer.spans[0][1] if tracer.spans else 0.0
        with open(spans_path, "w") as fh:
            for name, start, end, parent, _, _ in tracer.spans[:first]:
                fh.write(json.dumps({"name": name, "start": start - origin,
                                     "end": end - origin, "parent": parent}) + "\n")
    metrics = layer_metrics(tracer.spans, len(traced))
    metrics["trace.overhead_pct"] = 100.0 * (sum(traced) / sum(plain) - 1.0)
    return plain + traced, failed, metrics


def environment() -> dict:
    return {"python": platform.python_version(), "numpy": np.__version__,
            "os": platform.platform(), "cpu_count": os.cpu_count()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--tmp", type=Path, required=True)
    ap.add_argument("--seconds", type=float, default=None)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    wl = WORKLOADS[args.workload](args.seed, args.tmp)
    wl.warm_up()
    print("READY", flush=True)
    if args.seconds is None:
        return 0

    if args.trace:
        spans_path = ROOT / ".perfbench_out" / f"spans-{args.workload}.jsonl"
        durations, failed, metrics = run_traced(wl, args.seconds, spans_path)
        units = dict(PER_LAYER)
    else:
        durations, failed = run_ops(wl, args.seconds)
        metrics = end_to_end(wl, durations)
        units = dict(END_TO_END)

    print("env " + json.dumps(environment(), sort_keys=True))
    for line in wl.report():
        print(line)
    if not args.trace:
        for line in distribution(wl, durations):
            print(f"{args.workload} {line}")
    result = {
        "attempted": len(durations),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    print("RESULT " + json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
