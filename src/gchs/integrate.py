"""Trajectory integration for the three flows.

All integration happens on the flat real state x = (q1..qn, p1..pn);
the complex chart is only a view.  Two steppers are provided: a fixed
step classic RK4 and an embedded Dormand-Prince 5(4) pair with a PI
step-size controller.  Monitors (energy, structural rate w, the
residual {H,H}_s, observable values and their covariant residuals) are
evaluated on the recorded samples in one batched pass after stepping,
which is equivalent to recording them during the run since every
monitor is a state function.

Every right-hand side takes t and a sequence of 2n floats and returns
2n floats.  Both steppers march on floats in one loop (_march), which
checks each state and records the samples; each method counts its
right-hand sides, 4 per RK4 step and 7 per RK45 attempt.  RK4 runs a
step generated and compiled once per state size (_rk4_step).  The
right-hand side of the structural flow is the system's velocity kernel
(dynamics.velocity_kernel), one compiled float function of the state
that returns the floats the jets would, or an index where a guard fires
or Python raises in it.  Each stage calls it once; only where there is
no kernel or it returns an index does that stage take the order-1 jets
of H and s and real_velocity_jets instead, whose guards raise the
errors.

Decay-law bookkeeping: along the structural flow dH/dt = -H w, so
H(t) must track H(0) exp(-int w dt); along the equilibrium flow each
z_j(t) must track z_j(0) exp(-int w dt).  The integrals use trapezoid
quadrature of the recorded w, so a finer sample stride sharpens the
monitor.
"""

from __future__ import annotations

import functools
import logging
import math
from dataclasses import asdict, dataclass, field
from itertools import chain
from time import perf_counter

import numpy as np

from .brackets import StructuredSystem, _real_part, gspb_jets, sdyn_jets
from .dynamics import real_velocity_jets, velocity_kernel
from .errors import BlowUpError, DomainError, RealnessError, StepUnderflowError
from .fields import ScalarField, eval_jet
from .phasespace import ComplexCoords, PhasePoint, from_complex

log = logging.getLogger(__name__)


@dataclass
class StepperConfig:
    """How to march a flow: method, resolution, horizon, sampling."""

    method: str = "rk4"        # "rk4" (fixed step) or "rk45" (adaptive)
    step: float = 1e-3         # rk4 step size
    abs_tol: float = 1e-9      # rk45 error tolerances
    rel_tol: float = 1e-9
    t_end: float = 1.0
    stride: int = 1            # record every stride-th step
    max_norm: float = 1e12     # blow-up threshold on max |component|

    def __post_init__(self):
        if self.method not in ("rk4", "rk45"):
            raise ValueError(f"unknown method {self.method!r}")
        for name in ("step", "abs_tol", "rel_tol", "t_end", "max_norm"):
            value = getattr(self, name)
            if not isinstance(value, (int, float)) or isinstance(value, bool):
                raise ValueError(f"{name} must be a number")
            try:
                setattr(self, name, float(value))
            except OverflowError:   # an int beyond the float range
                raise ValueError(f"{name} must be within the float range") from None
        # each test is written so that NaN fails it
        for name in ("step", "abs_tol", "rel_tol", "max_norm"):
            if not 0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be finite and positive")
        if not 0 <= self.t_end < math.inf:
            raise ValueError("t_end must be finite and nonnegative")
        if not self.t_end / self.step < math.inf:
            raise ValueError("t_end / step must be finite")
        if type(self.stride) is not int or self.stride < 1:   # bool is no stride
            raise ValueError("stride must be a positive integer")


@dataclass
class Trajectory:
    """Sampled states of one run plus per-sample monitors.

    states rows are flat (q1..qn, p1..pn).  Monitor arrays are None when
    the run had no system to evaluate them with (constant-w flows)."""

    flow: str
    n: int
    times: np.ndarray
    states: np.ndarray
    energy: np.ndarray | None = None
    sdyn: np.ndarray | None = None
    hh_residual: np.ndarray | None = None
    observables: dict[str, np.ndarray] = field(default_factory=dict)
    residuals: dict[str, np.ndarray] = field(default_factory=dict)
    w0: float | None = None
    rhs_calls: int = 0         # right-hand sides the march called

    @property
    def samples(self) -> int:
        return self.times.size

    def point(self, k: int) -> PhasePoint:
        return PhasePoint(self.states[k, :self.n], self.states[k, self.n:])

    def complex_states(self) -> np.ndarray:
        """(samples, n) array of z = q + i p."""
        return self.states[:, :self.n] + 1j * self.states[:, self.n:]


# ---------------------------------------------------------------------------
# steppers


def _jets_stage(rhs, t, x):
    """rhs(t, x), naming t in its DomainError or RealnessError."""
    try:
        return rhs(t, x)
    except (DomainError, RealnessError) as e:
        raise type(e)(f"{e} at t={t:.6g}") from None


def _stage(kernel, rhs, t, x):
    """One stage's right-hand side: kernel's floats where it returns a
    tuple, else _jets_stage.  RK4's generated step spells this out."""
    k = kernel(*x)
    return k if type(k) is tuple else _jets_stage(rhs, t, x)


def _no_kernel(*x):
    return 0


def _compile(name: str, lines: list[str], namespace: dict):
    exec(compile("\n".join(lines), f"<{name}>", "exec"), namespace)
    return namespace[name]


@functools.cache
def _rk4_step(size: int):
    """The RK4 step on states of size floats, compiled once per size.

    step(kernel, rhs, t, h, x0, ...) returns the state after one step as
    a tuple.  Each stage is _stage written out: it calls kernel on its
    point's floats once, and only where that returns no tuple takes
    rhs(t, point) by _jets_stage.  The stages and the final sum are the
    IEEE operations of the whole-array form (tests/rk4_reference.py) in
    its order, component by component."""
    xs = [f"x{i}" for i in range(size)]
    ys = [f"y{i}" for i in range(size)]

    def stage(k, t, point):
        args = ", ".join(point)
        return [f"    k = kernel({args})",
                "    if type(k) is not tuple:",
                f"        k = _jets_stage(rhs, {t}, ({args},))",
                f"    {', '.join(f'{k}{i}' for i in range(size))}, = k"]

    def point(scale, k):
        return [f"    y{i} = x{i} + {scale} * {k}{i}" for i in range(size)]

    lines = [f"def step(kernel, rhs, t, h, {', '.join(xs)}):",
             "    hh = 0.5 * h",
             "    th = t + hh",
             *stage("a", "t", xs),
             *point("hh", "a"), *stage("b", "th", ys),
             *point("hh", "b"), *stage("c", "th", ys),
             *point("h", "c"), *stage("d", "t + h", ys),
             "    h6 = h / 6.0",
             "    return (" + "".join(f"x{i} + h6 * (((a{i} + 2.0 * b{i}) + 2.0 * c{i}) + d{i}), "
                                      for i in range(size)) + ")"]
    return _compile("step", lines, {"_jets_stage": _jets_stage})


@functools.cache
def _norm_test(size: int):
    """within(max_norm, x0, ...), compiled once per size: False unless
    every |x_i| <= max_norm, so False on NaN."""
    xs = [f"x{i}" for i in range(size)]
    return _compile("within", [
        f"def within(m, {', '.join(xs)}):",
        "    n = -m",
        "    return " + " and ".join(f"{x} <= m and {x} >= n" for x in xs)], {})


def _rk4(kernel, rhs, x, cfg: StepperConfig, near: float):
    """Classic RK4 on a tuple of floats by _rk4_step, yielding each
    step's (t, x, right-hand sides so far).  A remainder of at most near
    is no step, as in _rk45."""
    h = cfg.step
    nfull = math.floor(cfg.t_end / h + 1e-12)
    step = _rk4_step(len(x))
    for i in range(nfull):
        x = step(kernel, rhs, i * h, h, *x)
        yield (i + 1) * h, x, 4 * i + 4
    rem = cfg.t_end - nfull * h
    if rem > near:
        yield cfg.t_end, step(kernel, rhs, nfull * h, rem, *x), 4 * nfull + 4


# Dormand-Prince 5(4): the nodes and rows of stages 2..7, then the
# fourth-order weights.  The last row is the fifth-order weights.
_DP_C = (1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0)
_DP_A = (
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
    (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84),
)
_DP_B4 = (5179 / 57600, 0.0, 7571 / 16695, 393 / 640, -92097 / 339200,
          187 / 2100, 1 / 40)


def _dp_point(x, h, row, k):
    """x + h*(row[0]*k[0] + row[1]*k[1] + ...) per component, the sum left
    to right over the nonzero entries of row."""
    (a0, k0), *rest = [(a, kj) for a, kj in zip(row, k) if a != 0.0]
    out = []
    for i, xi in enumerate(x):
        s = a0 * k0[i]
        for a, kj in rest:
            s += a * kj[i]
        out.append(xi + h * s)
    return out


def _rk45(kernel, rhs, x, cfg: StepperConfig, near: float):
    """Dormand-Prince 5(4) on floats with a PI step-size controller
    (Hairer, Norsett & Wanner, Solving ODEs I, II.4-II.5; Gustafsson, ACM
    TOMS 17, 1991), yielding each accepted step's (t, x, right-hand sides
    so far), 7 per attempt.  Each stage is _stage.

    Stage j's point is x + h*(a_j1*k1 + a_j2*k2 + ...) per component, the
    sum taken left to right in tableau order.  A zero entry of the tableau
    (the second weight of the last row and of b4) is left out of its sum,
    not added as 0.0*k, which could only flip the sign of a zero sum or
    make NaN of an infinite stage.  The last row is the fifth-order
    weights, so the new state is the last stage's point.  The error is the
    root mean square of (x5 - x4) / (abs_tol + rel_tol*max(|x|, |x5|)),
    its squares summed left to right.  The last step is cut to land on
    t_end exactly."""
    t_end = cfg.t_end
    t = 0.0
    h = min(t_end, max(1e-6, t_end / 100.0))
    err_prev = 1.0
    safety, fac_min, fac_max = 0.9, 0.2, 5.0
    attempts = 0
    while t_end - t > near:
        capped = h >= t_end - t
        h = min(h, t_end - t)
        if h < 1e-14 * max(1.0, abs(t)):
            raise StepUnderflowError(h, t)

        attempts += 1
        k = [_stage(kernel, rhs, t, x)]
        for c, row in zip(_DP_C, _DP_A):
            x5 = _dp_point(x, h, row, k)
            k.append(_stage(kernel, rhs, t + c * h, x5))
        x4 = _dp_point(x, h, _DP_B4, k)
        squares = 0.0
        for a, b5, b4 in zip(x, x5, x4):
            r = (b5 - b4) / (cfg.abs_tol + cfg.rel_tol * max(abs(a), abs(b5)))
            squares += r * r
        err = math.sqrt(squares / len(x))

        if err <= 1.0:
            t = t_end if capped else t + h
            x = x5
            yield t, x, 7 * attempts
            e = max(err, 1e-10)
            factor = safety * e ** -0.14 * err_prev ** 0.08
            err_prev = e
        else:
            factor = safety * max(err, 1e-10) ** -0.2
        h = h * min(fac_max, max(fac_min, factor))


def _march(rhs, x0: np.ndarray, cfg: StepperConfig, kernel=None):
    """times, states, steps and right-hand sides of one march.  rhs takes
    t and a sequence of 2n floats and returns 2n floats.  kernel, where
    given, is tried first at every stage: it takes the 2n floats and
    returns them as a tuple, or an index where rhs must take the stage.

    The method yields each accepted step's (t, x, right-hand sides so
    far).  The loop checks x0 and every step against max_norm, records x0
    and every stride-th step, and ends the record on t_end.  For both
    methods a time within 1e-12*max(1, t_end) of t_end is the horizon."""
    near = 1e-12 * max(1.0, cfg.t_end)
    x = tuple(x0.tolist())
    within = _norm_test(len(x))
    method = _rk4 if cfg.method == "rk4" else _rk45
    times, states = [], []
    for steps, (t, x, calls) in enumerate(chain(
            [(0.0, x, 0)], method(kernel or _no_kernel, rhs, x, cfg, near))):
        if not within(cfg.max_norm, *x):   # a NaN state's norm is NaN
            raise BlowUpError(float(np.max(np.abs(x))), t)
        if steps % cfg.stride == 0:
            times.append(t)
            states.append(x)
    if abs(times[-1] - cfg.t_end) > near:
        times.append(cfg.t_end)
        states.append(x)
    return np.array(times), np.array(states), steps, calls


# ---------------------------------------------------------------------------
# flows


def _initial_point(z0, sys: StructuredSystem | None) -> PhasePoint:
    """z0 (a PhasePoint, ComplexCoords or complex array) as a PhasePoint,
    checked against the system's n when there is a system."""
    if isinstance(z0, PhasePoint):
        pt0 = z0
    elif isinstance(z0, ComplexCoords):
        pt0 = from_complex(z0)
    else:
        pt0 = from_complex(ComplexCoords(np.atleast_1d(np.asarray(z0, dtype=complex))))
    if sys is not None and pt0.n != sys.n:
        raise ValueError(f"initial point has n={pt0.n}, system has n={sys.n}")
    return pt0


def _state_jets(sys: StructuredSystem, x: np.ndarray):
    """Order-1 jets of H and s at one flat state, as batches of size one."""
    Q, P = x[:sys.n, None], x[sys.n:, None]
    return (eval_jet(sys.hamiltonian, Q, P, order=1),
            eval_jet(sys.structural, Q, P, order=1))


def _finish(flow: str, rhs, pt0: PhasePoint, cfg: StepperConfig,
            sys: StructuredSystem | None,
            observables: dict[str, ScalarField] | None,
            w0: float | None = None, kernel=None) -> Trajectory:
    """March rhs (and kernel, see _march) from pt0 and attach the
    monitors of the rate source: sys, or the constant rate w0 when sys is
    None."""
    start = perf_counter()
    times, states, steps, rhs_calls = _march(rhs, pt0.flat(), cfg, kernel)
    traj = Trajectory(flow, pt0.n, times, states, w0=w0, rhs_calls=rhs_calls)
    marched = perf_counter()
    try:
        _attach_monitors(traj, sys, observables or {})
    except (DomainError, RealnessError):
        # name the first sample whose own monitors raise, as _march names t
        for k, t in enumerate(times):
            try:
                _attach_monitors(Trajectory(flow, pt0.n, times[k:k + 1], states[k:k + 1],
                                            w0=w0), sys, observables or {})
            except (DomainError, RealnessError) as e:
                raise type(e)(f"{e} at t={t:.6g}") from None
        raise
    log.info("%s %s: %d steps, %d right-hand sides; march %.3f ms, monitors %.3f ms",
             flow, cfg.method, steps, rhs_calls, 1e3 * (marched - start),
             1e3 * (perf_counter() - marched))
    return traj


def integrate_tghs(sys: StructuredSystem, z0, cfg: StepperConfig,
                   observables: dict[str, ScalarField] | None = None) -> Trajectory:
    """March the structural Hamiltonian flow from z0.

    The right-hand side is sys's velocity kernel where it has one and it
    returns the velocity; otherwise the order-1 jets of H and s, whose
    guards raise the errors."""
    def jets(t, x):
        return real_velocity_jets(*_state_jets(sys, np.array(x)))[:, 0].tolist()

    return _finish("tghs", jets, _initial_point(z0, sys), cfg, sys, observables,
                   kernel=velocity_kernel(sys))


def integrate_equilibrium(z0, w_source, cfg: StepperConfig,
                          observables: dict[str, ScalarField] | None = None) -> Trajectory:
    """March the equilibrium flow dz_j/dt = -z_j w: the disturbed flow
    with no disturbance.

    w_source is either a constant rate or a StructuredSystem whose w is
    evaluated along the run.
    """
    return integrate_perturbed(w_source, z0, [], cfg, observables)


def integrate_perturbed(w_source, z0, h, cfg: StepperConfig,
                        observables: dict[str, ScalarField] | None = None) -> Trajectory:
    """March the disturbed equilibrium flow dz_j/dt = -z_j w + h_j(t, z).

    h is one time-dependent field applied to every component, or a
    sequence of n fields, one per component.  An empty sequence is no
    disturbance: the run is the equilibrium flow and is labelled so.
    """
    sys = w_source if isinstance(w_source, StructuredSystem) else None
    pt0 = _initial_point(z0, sys)
    n = pt0.n
    if isinstance(h, ScalarField):
        h_fields = [h] * n
    else:
        h_fields = list(h)
        if h_fields and len(h_fields) != n:
            raise ValueError(f"need one disturbance per component: got "
                             f"{len(h_fields)} for n={n}")
    for hf in h_fields:
        if hf.n != n:
            raise ValueError(f"disturbance field has n={hf.n}, expected {n}")
    w0 = None if sys is not None else float(w_source)

    def rhs(t, x):
        x = np.array(x)
        w = w0 if sys is None else float(sdyn_jets(*_state_jets(sys, x))[0])
        if not h_fields:
            return (-w * x).tolist()
        Q, P = x[:n, None], x[n:, None]
        # one evaluation per distinct field (fields hash by identity)
        vals = {hf: complex(eval_jet(hf, Q, P, order=0, time=t).val[0])
                for hf in dict.fromkeys(h_fields)}
        hval = np.array([vals[hf] for hf in h_fields])
        return (-w * x + np.concatenate([hval.real, hval.imag])).tolist()

    flow = "perturbed" if h_fields else "equilibrium"
    return _finish(flow, rhs, pt0, cfg, sys, observables, w0)


# ---------------------------------------------------------------------------
# monitors


def _attach_monitors(traj: Trajectory, sys: StructuredSystem | None,
                     observables: dict[str, ScalarField]):
    """Record the monitors of a run; with no system (a constant rate) only
    w and the observables' values."""
    n = traj.n
    Q = traj.states[:, :n].T
    P = traj.states[:, n:].T
    if sys is None:
        traj.sdyn = np.full(traj.samples, traj.w0)
        for name, f in observables.items():
            traj.observables[name] = eval_jet(f, Q, P, order=0).val
        return

    Hj = eval_jet(sys.hamiltonian, Q, P, order=1)
    sj = eval_jet(sys.structural, Q, P, order=1)

    traj.energy = _real_part(Hj.val, "Hamiltonian")
    traj.sdyn = sdyn_jets(Hj, sj)
    traj.hh_residual = np.abs(gspb_jets(Hj, Hj, sj))

    for name, f in observables.items():
        fj = eval_jet(f, Q, P, order=1)
        traj.observables[name] = fj.val
        traj.residuals[name] = gspb_jets(fj, Hj, sj)


def _cum_trapezoid(y: np.ndarray, t: np.ndarray) -> np.ndarray:
    if t.size < 2:
        return np.zeros_like(t)
    inc = 0.5 * (y[1:] + y[:-1]) * np.diff(t)
    return np.concatenate([[0.0], np.cumsum(inc)])


@dataclass
class MonitorReport:
    """Aggregates of the per-sample monitors of one trajectory, and the
    number of right-hand sides its march called."""

    flow: str
    samples: int
    rhs_calls: int
    t_final: float
    max_hh_residual: float | None
    decay_law_max_dev: float | None
    energy_initial: float | None
    energy_final: float | None
    observables: dict[str, dict[str, float]]

    def to_dict(self) -> dict:
        return asdict(self)


def _reported(x) -> float | None:
    # adding 0.0 folds negative zero into plain zero, as the CSV does
    return None if x is None else float(x) + 0.0


def monitor_report(traj: Trajectory) -> MonitorReport:
    """Summarize a trajectory's monitors; decay deviation depends on the flow.

    Structural flow: H(t) against H(0) exp(-int w).  Equilibrium flow:
    z(t) against z(0) exp(-int w).  Disturbed flow: no closed form.
    """
    if traj.times.size > 1 and not np.all(np.diff(traj.times) > 0):
        raise ValueError("trajectory times must be strictly increasing")

    decay = None
    if traj.sdyn is not None and traj.flow in ("tghs", "equilibrium"):
        damp = np.exp(-_cum_trapezoid(traj.sdyn, traj.times))
        if traj.flow == "tghs" and traj.energy is not None:
            decay = float(np.max(np.abs(traj.energy - traj.energy[0] * damp)))
        elif traj.flow == "equilibrium":
            z = traj.complex_states()
            decay = float(np.max(np.abs(z - z[0] * damp[:, None])))

    stats = {}
    for name, vals in traj.observables.items():
        entry = {"final_re": _reported(vals[-1].real),
                 "final_im": _reported(vals[-1].imag)}
        if name in traj.residuals:
            res = np.abs(traj.residuals[name])
            entry["residual_max"] = _reported(np.max(res))
            entry["residual_mean"] = _reported(np.mean(res))
        stats[name] = entry

    return MonitorReport(
        flow=traj.flow,
        samples=int(traj.times.size),
        rhs_calls=traj.rhs_calls,
        t_final=_reported(traj.times[-1]),
        max_hh_residual=(None if traj.hh_residual is None
                         else _reported(np.max(traj.hh_residual))),
        decay_law_max_dev=_reported(decay),
        energy_initial=None if traj.energy is None else _reported(traj.energy[0]),
        energy_final=None if traj.energy is None else _reported(traj.energy[-1]),
        observables=stats,
    )
