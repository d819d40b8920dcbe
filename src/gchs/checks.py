"""Seeded invariant suite over randomized fields and points.

Each invariant is an identity between quantities the package computes
by different routes; the suite evaluates both sides over a batch of
seeded random points and reports the worst deviation against a fixed
tolerance.  The CLI check command prints these results verbatim, and
the acceptance tests call the same functions, so the list below is the
single source of truth for what "consistent" means here.

Random fields are generated as expression strings and run through the
parser, which keeps the generator honest about the public grammar.

The point-based identities run over independent blocks of points, so
the blocks are spread over the usable CPUs: contiguous chunks of blocks,
the first in the calling process and each later one in a child made by
os.fork, whose merged deviations come back over a pipe.  On glibc each
child first hands back the free heap it inherits (_fork).  The report is
the same bit for bit on any number of processes.
"""

from __future__ import annotations

import contextlib
import functools
import logging
import math
import numbers
import os
import pickle
import threading
import time
from dataclasses import dataclass

import numpy as np

from . import bridge
from .brackets import (StructuredSystem, _amax, _worst, gspb_jets,
                       pb_complex_jets, pb_real_jets, structural_derivative_jets)
from .dynamics import (acceleration_jets, beta_jets, flow_gradient_jets,
                       tghs_zbardot_jets, tghs_zdot_jets, total_rate_jets)
from .fields import ScalarField, eval_jet, linear_combination, parse_field
from .integrate import StepperConfig, integrate_tghs, monitor_report
from .phasespace import PhasePoint, real_from_wirtinger, wirtinger_from_real

try:
    import resource
except ImportError:   # not on Windows
    resource = None

log = logging.getLogger(__name__)

_VAR_KINDS = ("q", "p")


@dataclass(frozen=True)
class InvariantResult:
    name: str
    max_dev: float
    tol: float

    @property
    def passed(self) -> bool:
        return self.max_dev <= self.tol


# ---------------------------------------------------------------------------
# random inputs


def random_points(rng: np.random.Generator, n: int, count: int,
                  box: float = 1.0) -> tuple[np.ndarray, np.ndarray]:
    """Batched coordinates drawn uniformly from [-box, box]."""
    Q = rng.uniform(-box, box, size=(n, count))
    P = rng.uniform(-box, box, size=(n, count))
    return Q, P


def _monomial(rng: np.random.Generator, n: int, degree: int) -> str:
    if degree == 0:
        return ""
    picks = rng.integers(0, 2 * n, size=degree)
    powers: dict[str, int] = {}
    for a in sorted(picks.tolist()):
        name = f"{_VAR_KINDS[a // n]}{a % n + 1}"
        powers[name] = powers.get(name, 0) + 1
    parts = [name if k == 1 else f"{name}^{k}" for name, k in powers.items()]
    return " * ".join(parts)


def _join_terms(terms: list[tuple[float, str]]) -> str:
    out = []
    for coeff, body in terms:
        mag = repr(abs(coeff))
        piece = mag if not body else f"{mag} * {body}"
        if not out:
            out.append(piece if coeff >= 0 else f"-{piece}")
        else:
            out.append(f"{'+' if coeff >= 0 else '-'} {piece}")
    return " ".join(out) if out else "0.0"


def random_polynomial(rng: np.random.Generator, n: int, max_degree: int = 4,
                      terms: int = 6, complex_ok: bool = False) -> ScalarField:
    """A random polynomial of total degree <= max_degree as a parsed field."""
    pieces = []
    for _ in range(terms):
        degree = int(rng.integers(0, max_degree + 1))
        body = _monomial(rng, n, degree)
        coeff = float(rng.uniform(-1.0, 1.0))
        if complex_ok and rng.uniform() < 0.4:
            body = f"i * {body}" if body else "i"
        pieces.append((coeff, body))
    return parse_field(_join_terms(pieces), n)


def _linear_arg(rng: np.random.Generator, n: int) -> str:
    terms = []
    for _ in range(int(rng.integers(1, 3))):
        a = int(rng.integers(0, 2 * n))
        name = f"{_VAR_KINDS[a // n]}{a % n + 1}"
        terms.append((float(rng.uniform(-0.5, 0.5)), name))
    return _join_terms(terms)


def random_smooth_field(rng: np.random.Generator, n: int,
                        complex_ok: bool = False) -> ScalarField:
    """A random field mixing polynomials with transcendental units, smooth
    everywhere on the sampling box so finite differences stay clean."""
    pieces = []
    for _ in range(int(rng.integers(3, 6))):
        kind = int(rng.integers(0, 6))
        if kind == 0:
            body = _monomial(rng, n, int(rng.integers(1, 4)))
        elif kind == 1:
            body = f"sin({_linear_arg(rng, n)})"
        elif kind == 2:
            body = f"cos({_linear_arg(rng, n)})"
        elif kind == 3:
            body = f"exp({_linear_arg(rng, n)})"
        else:
            a = int(rng.integers(0, 2 * n))
            name = f"{_VAR_KINDS[a // n]}{a % n + 1}"
            c = repr(float(rng.uniform(0.2, 1.0)))
            sq = f"2.5 + {c} * {name}^2"
            body = f"log({sq})" if kind == 4 else f"1 / ({sq})"
        coeff = float(rng.uniform(-1.0, 1.0))
        if complex_ok and rng.uniform() < 0.4 and body:
            body = f"i * {body}"
        pieces.append((coeff, body))
    return parse_field(_join_terms(pieces), n)


def random_system(rng: np.random.Generator, n: int,
                  max_degree: int = 4) -> StructuredSystem:
    """A random polynomial Hamiltonian and structural function."""
    H = random_polynomial(rng, n, max_degree=max_degree)
    s = random_polynomial(rng, n, max_degree=max_degree)
    return StructuredSystem(n, H, s)


# ---------------------------------------------------------------------------
# the suite


#: points per block of the point-based identities (run_invariant_suite)
BLOCK = 2048


@dataclass(frozen=True, eq=False)
class _Inputs:
    """The suite's seeded draws over all points, and the fields built
    from them once per call, before the blocks.  Each field comes from a
    store (parse_field, linear_combination), so a later call with the
    same draws, in this process or a child forked after the first, builds
    no code."""

    Q: np.ndarray
    P: np.ndarray
    dq: np.ndarray
    dp: np.ndarray
    a: float
    b: float
    f: ScalarField
    g: ScalarField
    freal: ScalarField
    lin: ScalarField
    reparsed: ScalarField
    combo: ScalarField
    zero: ScalarField
    z: list[ScalarField]
    zbar: list[ScalarField]


def _draw(rng: np.random.Generator, n: int, count: int) -> _Inputs:
    # the order of the draws sets every report's bits
    Q, P = random_points(rng, n, count)
    f = random_polynomial(rng, n, complex_ok=True)
    g = random_polynomial(rng, n, complex_ok=True)
    freal = random_polynomial(rng, n, complex_ok=False)
    a, b = (float(v) for v in rng.uniform(-1.0, 1.0, size=2))
    dq = rng.uniform(-1, 1, size=count) + 1j * rng.uniform(-1, 1, size=count)
    dp = rng.uniform(-1, 1, size=count) + 1j * rng.uniform(-1, 1, size=count)
    return _Inputs(
        Q, P, dq, dp, a, b, f, g, freal,
        lin=linear_combination(a, f, b, g),
        reparsed=parse_field(str(f), n),
        combo=linear_combination(a, f, b, freal),
        zero=parse_field("0", n),
        z=[parse_field(f"z{j}", n) for j in range(1, n + 1)],
        zbar=[parse_field(f"conj(z{j})", n) for j in range(1, n + 1)])


def run_invariant_suite(sys: StructuredSystem, seed: int, count: int,
                        initial: PhasePoint | None = None,
                        include_flow_checks: bool = True) -> list[InvariantResult]:
    """Evaluate every identity the modules promise, over seeded inputs.

    The point-based identities run at `count` random points with random
    fields drawn from the same seed.  They run one block of at most
    BLOCK points at a time, and each reports its worst deviation over
    all blocks, so the jets of one block are freed before the next one
    is built and memory does not grow with `count` beyond the inputs.
    No kernel mixes points, so the deviations are those of one batch;
    only the guards inside the kernels (dual-route, realness, finiteness)
    judge each block against that block's own magnitudes.  The blocks
    run in contiguous chunks, one per process (_processes): the first
    here, each later one in a forked child (_run_chunks).  An error comes
    from the first block where one occurs, whatever the processes.  The
    flow checks integrate short probe trajectories (the scenario's
    initial point if given); the probe field is the run's one observable,
    so its values, its residual {f,H}_s and w come from the monitor pass
    that `gchs run` uses.  Every invariant is reported through one add,
    in order of first report.
    """
    if isinstance(count, bool) or not isinstance(count, numbers.Integral):
        raise TypeError(f"count must be an integer, got {count!r}")
    if count < 1:
        raise ValueError(f"count must be at least 1, got {count}")
    rng = np.random.default_rng(seed)
    inp = _draw(rng, sys.n, count)
    worst: dict[str, tuple[float, float]] = {}   # in report order
    add = _merger(worst)

    def run(chunk: list[slice], add):
        for cols in chunk:
            _first_order_checks(add, sys, inp, cols)
            _second_order_checks(add, sys, inp, cols)

    blocks = [slice(b[0], b[-1] + 1)
              for b in np.array_split(np.arange(count), math.ceil(count / BLOCK))]
    procs = _processes(len(blocks))
    chunks = [blocks[len(blocks) * k // procs:len(blocks) * (k + 1) // procs]
              for k in range(procs)]
    faults0 = _minor_faults()
    t0 = time.perf_counter()
    _run_chunks(run, chunks, add)
    elapsed = time.perf_counter() - t0
    faults = "" if faults0 is None else f", {_minor_faults() - faults0} page faults"
    log.info("invariant suite: %d blocks, %d processes, %.3f s%s",
             len(blocks), procs, elapsed, faults)

    # bridge: both engines at the suite's first (up to 200) points
    pts = [PhasePoint(inp.Q[:, k], inp.P[:, k]) for k in range(min(count, 200))]
    add("bridge.cross_engine", bridge.cross_check(inp.f, inp.g, sys, pts).max_dev, 1e-10)

    if include_flow_checks:
        _flow_checks(add, sys, initial, inp.freal)

    return [InvariantResult(name, dev, tol) for name, (dev, tol) in worst.items()]


def _merger(worst: dict[str, tuple[float, float]]):
    """The add that merges each (name, dev, tol) into worst, keeping the
    worse deviation and a NaN from either side."""
    def add(name: str, dev: float, tol: float):
        dev = float(dev)
        if name in worst:
            dev = _worst(worst[name][0], dev)
        worst[name] = dev, tol
    return add


def _minor_faults() -> int | None:
    """Minor page faults so far of this process and its reaped children,
    or None without the resource module."""
    if resource is None:
        return None
    return sum(resource.getrusage(who).ru_minflt
               for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))


def _processes(blocks: int) -> int:
    """How many processes run the blocks: one per usable CPU, at most one
    per block, and one where os.fork is missing or another thread is
    alive (forking then is unsafe)."""
    if blocks < 2 or not hasattr(os, "fork") or threading.active_count() > 1:
        return 1
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:   # no affinity on this platform
        cpus = os.cpu_count() or 1
    return min(blocks, cpus)


def _glibc_function(name: str, *argtypes: str):
    """glibc's function name through ctypes, declared to take the ctypes
    types named argtypes and to return a C int; None on any other C
    library.  ctypes is imported here, so that no other command pays for
    it."""
    try:
        if not os.confstr("CS_GNU_LIBC_VERSION"):
            return None
    except (AttributeError, ValueError, OSError):   # no confstr, or not glibc
        return None
    import ctypes

    fn = getattr(ctypes.CDLL(None), name)
    fn.argtypes = tuple(getattr(ctypes, t) for t in argtypes)
    fn.restype = ctypes.c_int
    return fn


@functools.cache
def _heap_trim():
    """glibc's malloc_trim, or None: looked up once per process, by the
    first call that forks (_run_chunks)."""
    return _glibc_function("malloc_trim", "c_size_t")


def _run_chunks(run, chunks: list, add):
    """run(chunk, add) for every chunk, merged through add in chunk order.

    The first chunk runs here, each later one in a child (_fork).  A child
    that fails in any way (an error, a signal, a short or unreadable
    payload) has its chunk run here, after the chunks before it, so the
    first error of the blocks is raised with the text one process gives.
    No child outlives this call.
    """
    children = {}   # pid -> read end of its pipe, for each child not yet reaped
    trim = _heap_trim() if len(chunks) > 1 else None
    try:
        forked = [(_fork(run, chunk, children, trim), chunk) for chunk in chunks[1:]]
        run(chunks[0], add)
        for pid, chunk in forked:
            reported = _collect(pid, children)
            if reported is None:
                run(chunk, add)
            else:
                for name, (dev, tol) in reported.items():
                    add(name, dev, tol)
    finally:
        if children:   # imported here, so that no other command pays for it
            import signal
        for pid, pipe in children.items():
            pipe.close()
            with contextlib.suppress(ProcessLookupError):
                os.kill(pid, signal.SIGKILL)
            with contextlib.suppress(ChildProcessError):
                os.waitpid(pid, 0)


def _fork(run, chunk: list, children: dict, trim) -> int | None:
    """Fork a child that runs run(chunk, add) and writes what it merged
    (name -> (dev, tol)) to a pipe; its pid, or None if it could not be
    made.  The child leaves by os._exit whatever happens, so it runs no
    atexit handler and flushes no stdio buffer copied from the parent.

    Before its first block the child calls trim(0), glibc's malloc_trim
    where given (_heap_trim): the free heap it shares with the parent
    goes back to the OS, so its blocks fault in fresh zero pages, not
    copies of the parent's garbage, and the parent's next writes to those
    pages copy nothing either."""
    r, w = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(r)
        os.close(w)
        return None
    if pid == 0:
        code = 1
        try:
            os.close(r)
            if trim is not None:
                trim(0)
            worst = {}
            run(chunk, _merger(worst))
            with os.fdopen(w, "wb") as fh:
                pickle.dump(worst, fh)
            code = 0
        finally:
            os._exit(code)
    os.close(w)
    children[pid] = os.fdopen(r, "rb")
    return pid


def _collect(pid: int | None, children: dict) -> dict | None:
    """Reap the child pid; what it merged, or None where it did not exit
    0 with a whole payload."""
    if pid is None:
        return None
    pipe = children[pid]
    payload = pipe.read()
    pipe.close()
    _, status = os.waitpid(pid, 0)
    del children[pid]
    if status != 0:
        return None
    try:
        return pickle.loads(payload)
    except (pickle.UnpicklingError, EOFError):   # a payload cut short
        return None


def _first_order_checks(add, sys: StructuredSystem, inp: _Inputs, cols: slice):
    """The identities between order-1 jets at the points cols, each
    passed to add."""
    n = sys.n
    Q, P, dq, dp = inp.Q[:, cols], inp.P[:, cols], inp.dq[cols], inp.dp[cols]
    a, b = inp.a, inp.b

    def jets(field, order=1):
        return eval_jet(field, Q, P, order=order)

    fj, gj = jets(inp.f), jets(inp.g)
    Hj, sj = jets(sys.hamiltonian), jets(sys.structural)

    # phasespace: chart round trip and the Wirtinger inversion pair
    Z = Q + 1j * P
    add("phasespace.roundtrip", _worst(_amax(Z.real - Q), _amax(Z.imag - P)), 0.0)

    back_q, back_p = real_from_wirtinger(*wirtinger_from_real(dq, dp))
    add("phasespace.wirtinger_inverse",
        _worst(_amax(back_q - dq), _amax(back_p - dp)), 1e-14)

    frj = jets(inp.freal)
    rz, rzb = frj.wirtinger
    add("phasespace.conjugation", _amax(rzb - np.conj(rz)), 1e-14)

    # fields: linearity, realness, print round trip
    lj = jets(inp.lin)
    add("fields.linearity",
        _worst(_amax(lj.val - (a * fj.val + b * gj.val)),
               _amax(lj.grad - (a * fj.grad + b * gj.grad))), 1e-14)

    add("fields.realness", _amax(frj.val.imag), 1e-14)

    add("fields.print_roundtrip",
        _amax(jets(inp.reparsed, order=0).val - fj.val), 1e-14)

    # brackets
    gspb_fg = gspb_jets(fj, gj, sj)
    add("brackets.antisymmetry", _amax(gspb_fg + gspb_jets(gj, fj, sj)), 1e-12)

    combo = jets(inp.combo)
    add("brackets.bilinearity",
        _amax(gspb_jets(combo, gj, sj)
              - (a * gspb_fg + b * gspb_jets(frj, gj, sj))),
        1e-12)

    pb_fg = pb_complex_jets(fj, gj)
    zero_j = jets(inp.zero)
    add("brackets.classical_reduction", _amax(gspb_jets(fj, gj, zero_j) - pb_fg), 0.0)

    add("brackets.real_complex_agreement", _amax(pb_fg - pb_real_jets(fj, gj)), 1e-10)

    zj = [jets(field) for field in inp.z]
    zbj = [jets(field) for field in inp.zbar]
    sz, szb = sj.wirtinger

    dev = 0.0
    for j in range(n):
        dev = _worst(dev, _amax(pb_complex_jets(zj[j], zbj[j]) + 2j))
    add("brackets.coordinate_pb", dev, 0.0)

    dev = 0.0
    for j in range(n):
        want = -2j * (1.0 + zj[j].val * sz[j] + zbj[j].val * szb[j])
        dev = _worst(dev, _amax(gspb_jets(zj[j], zbj[j], sj) - want))
    add("brackets.coordinate_gspb", dev, 1e-12)

    dev = 0.0
    for j in range(n):
        dev = _worst(dev, _amax(gspb_jets(zj[j], zj[j], sj)))
        dev = _worst(dev, _amax(gspb_jets(zbj[j], zbj[j], sj)))
    add("brackets.coordinate_self", dev, 1e-12)

    dev = 0.0
    for j in range(n):
        dev = _worst(dev, _amax(2j * szb[j] - pb_complex_jets(sj, zj[j])))
        dev = _worst(dev, _amax(-2j * sz[j] - pb_complex_jets(sj, zbj[j])))
    add("brackets.geometrio", dev, 1e-12)

    # dynamics
    _, w, total = total_rate_jets(fj, Hj, sj)
    add("dynamics.decomposition", _amax(gspb_jets(fj, Hj, sj) - total), 1e-10)

    _, _, totalH = total_rate_jets(Hj, Hj, sj)
    add("dynamics.conservation", _amax(totalH), 1e-10)

    zdot = tghs_zdot_jets(Hj, sj)
    zbardot = tghs_zbardot_jets(Hj, sj)
    DHz, DHzb = structural_derivative_jets(Hj, sj)
    add("dynamics.velocity_identity",
        _amax((zdot * DHz).sum(axis=0) + (zbardot * DHzb).sum(axis=0)), 1e-10)

    add("dynamics.conjugate_pairing", _amax(zbardot - np.conj(zdot)), 1e-12)

    add("dynamics.structural_rate",
        _amax(gspb_jets(sj, Hj, sj) - (1.0 + sj.val) * w), 1e-10)

    add("dynamics.sdyn_chain_rule",
        _amax((zbardot * szb + zdot * sz).sum(axis=0) - w), 1e-10)

    add("dynamics.w_realness", _amax(pb_complex_jets(sj, Hj).imag), 1e-10)


def _second_order_checks(add, sys: StructuredSystem, inp: _Inputs, cols: slice):
    """The identities that need order-2 jets at the points cols."""
    Q, P = inp.Q[:, cols], inp.P[:, cols]
    fj2, Hj2, sj2 = (eval_jet(field, Q, P, order=2)
                     for field in (inp.f, sys.hamiltonian, sys.structural))

    add("dynamics.beta_realness", _amax(beta_jets(Hj2, sj2).imag), 1e-10)

    acc = acceleration_jets(fj2, Hj2, sj2)
    oracle = _acceleration_operator_route(fj2, Hj2, sj2)
    add("dynamics.acceleration_consistency", _amax(acc - oracle), 1e-8)


def _acceleration_operator_route(fj2, Hj2, sj2) -> np.ndarray:
    """Apply the covariant rate operator to the derived field Df/dt.

    This recomputes the second covariant rate without using the closed
    formula: the rate field g = df/dt + f w is differentiated through
    the Hessians, then D g/dt = dg/dt + g w.
    """
    V, dV, w, gw = flow_gradient_jets(Hj2, sj2)
    Gf = fj2.grad
    Hf = fj2.sym_hess

    df = (V * Gf).sum(axis=0)
    g_val = df + fj2.val * w
    g_grad = (np.einsum("ab...,a...->b...", dV, Gf)
              + np.einsum("a...,ab...->b...", V, Hf)
              + Gf * w
              + fj2.val * gw)
    return (V * g_grad).sum(axis=0) + g_val * w


def _flow_checks(add, sys: StructuredSystem, initial: PhasePoint | None,
                 probe: ScalarField):
    """Short integration runs, each invariant passed to add: stepper order
    and along-flow consistency.

    The probe run marches with the probe field as its one observable, so
    the monitor pass of `gchs run` evaluates H, s and the probe once over
    its samples: the probe's values f, its residual {f,H}_s = Df/dt and
    w = {s,H}.  The thorough rate df/dt is then Df/dt - f w."""
    # fixed-step order check on the classical oscillator, against the
    # closed-form solution z(t) = z0 exp(-i t)
    osc = StructuredSystem(1, parse_field("(q1^2 + p1^2) / 2", 1),
                           parse_field("0", 1))
    z0 = PhasePoint([1.0], [0.0])
    errs = []
    for h in (0.05, 0.025):
        cfg = StepperConfig(method="rk4", step=h, t_end=1.0, stride=10 ** 9)
        traj = integrate_tghs(osc, z0, cfg)
        z_end = traj.complex_states()[-1, 0]
        errs.append(abs(z_end - np.exp(-1j * traj.times[-1])))
    add("integrate.rk4_order", abs(errs[0] / errs[1] - 16.0), 4.0)

    n = sys.n
    pt0 = initial if initial is not None else PhasePoint(
        np.full(n, 0.3), np.full(n, 0.2))
    cfg = StepperConfig(method="rk4", step=1e-3, t_end=0.5, stride=1)
    traj = integrate_tghs(sys, pt0, cfg, observables={"probe": probe})

    t, vals, w = traj.times, traj.observables["probe"], traj.sdyn
    total = traj.residuals["probe"]
    th = total - vals * w

    cdiff = (vals[2:] - vals[:-2]) / (t[2:] - t[:-2])
    add("integrate.trajectory_fd", _amax(cdiff - th[1:-1]), 1e-4)
    add("integrate.covariant_fd",
        _amax((cdiff + vals[1:-1] * w[1:-1]) - total[1:-1]), 1e-4)

    rep = monitor_report(traj)
    add("integrate.decay_law",
        0.0 if rep.decay_law_max_dev is None else rep.decay_law_max_dev, 1e-6)
