"""Trajectory integration for the three flows.

All integration happens on the flat real state x = (q1..qn, p1..pn);
the complex chart is only a view.  Two steppers are provided: a fixed
step classic RK4 and an embedded Dormand-Prince 5(4) pair with a PI
step-size controller.  Monitors (energy, structural rate w, observable
values and covariant residuals) are evaluated on the recorded samples
in one batched pass after stepping, which is equivalent to recording
them during the run since every monitor is a state function.

Decay-law bookkeeping: along the structural flow dH/dt = -H w, so
H(t) must track H(0) exp(-int w dt); along the equilibrium flow each
z_j(t) must track z_j(0) exp(-int w dt).  The integrals use trapezoid
quadrature of the recorded w, so a finer sample stride sharpens the
monitor.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from .brackets import StructuredSystem, gspb_jets, sdyn_jets
from .dynamics import real_velocity_jets, tghs_zbardot_jets, tghs_zdot_jets
from .errors import BlowUpError, DomainError, StepUnderflowError
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
        if self.step <= 0 or self.abs_tol <= 0 or self.rel_tol <= 0:
            raise ValueError("step and tolerances must be positive")
        if self.t_end < 0:
            raise ValueError("t_end must be nonnegative")
        if not isinstance(self.stride, int) or self.stride < 1:
            raise ValueError("stride must be a positive integer")
        if self.max_norm <= 0:
            raise ValueError("max_norm must be positive")


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
    conj_violation: np.ndarray | None = None
    observables: dict[str, np.ndarray] = field(default_factory=dict)
    residuals: dict[str, np.ndarray] = field(default_factory=dict)
    w0: float | None = None

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


def _check_norm(x: np.ndarray, t: float, max_norm: float):
    norm = float(np.max(np.abs(x)))
    if norm > max_norm:
        raise BlowUpError(norm, t)


def _fixed_rk4(rhs, x0: np.ndarray, cfg: StepperConfig):
    h = cfg.step
    t_end = cfg.t_end
    nfull = int(np.floor(t_end / h + 1e-12))
    rem = t_end - nfull * h
    if rem < 1e-12 * max(1.0, t_end):
        rem = 0.0

    times = [0.0]
    states = [x0.copy()]
    _check_norm(x0, 0.0, cfg.max_norm)
    x = x0.copy()
    steps = 0

    def advance(t, x, h):
        k1 = rhs(t, x)
        k2 = rhs(t + 0.5 * h, x + 0.5 * h * k1)
        k3 = rhs(t + 0.5 * h, x + 0.5 * h * k2)
        k4 = rhs(t + h, x + h * k3)
        return x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)

    for i in range(nfull):
        t = i * h
        x = advance(t, x, h)
        t_next = (i + 1) * h
        _check_norm(x, t_next, cfg.max_norm)
        steps += 1
        if steps % cfg.stride == 0:
            times.append(t_next)
            states.append(x.copy())
    if rem > 0.0:
        x = advance(nfull * h, x, rem)
        _check_norm(x, t_end, cfg.max_norm)
        steps += 1
    if abs(times[-1] - t_end) > 1e-12 * max(1.0, abs(t_end)):
        times.append(t_end)
        states.append(x.copy())
    return np.array(times), np.array(states)


# Dormand-Prince 5(4) tableau
_DP_C = np.array([0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0])
_DP_A = [
    [],
    [1 / 5],
    [3 / 40, 9 / 40],
    [44 / 45, -56 / 15, 32 / 9],
    [19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729],
    [9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656],
    [35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84],
]
_DP_B5 = np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0])
_DP_B4 = np.array([5179 / 57600, 0.0, 7571 / 16695, 393 / 640,
                   -92097 / 339200, 187 / 2100, 1 / 40])


def _adaptive_rk45(rhs, x0: np.ndarray, cfg: StepperConfig):
    t_end = cfg.t_end
    times = [0.0]
    states = [x0.copy()]
    _check_norm(x0, 0.0, cfg.max_norm)
    if t_end == 0.0:
        return np.array(times), np.array(states)

    t = 0.0
    x = x0.copy()
    h = min(t_end, max(1e-6, t_end / 100.0))
    err_prev = 1.0
    safety, fac_min, fac_max = 0.9, 0.2, 5.0
    accepted = 0
    rejected = 0

    while t < t_end:
        capped = h >= t_end - t
        h = min(h, t_end - t)
        if h < 1e-14 * max(1.0, abs(t)):
            raise StepUnderflowError(h, t)

        k = np.empty((7, x.size))
        k[0] = rhs(t, x)
        for i in range(1, 7):
            xi = x + h * np.dot(_DP_A[i], k[:i])
            k[i] = rhs(t + _DP_C[i] * h, xi)
        x5 = x + h * np.dot(_DP_B5, k)
        x4 = x + h * np.dot(_DP_B4, k)

        scale = cfg.abs_tol + cfg.rel_tol * np.maximum(np.abs(x), np.abs(x5))
        err = float(np.sqrt(np.mean(((x5 - x4) / scale) ** 2)))

        if err <= 1.0:
            # land exactly on the horizon when this was the capped last step
            t = t_end if capped else t + h
            x = x5
            _check_norm(x, t, cfg.max_norm)
            accepted += 1
            if accepted % cfg.stride == 0:
                times.append(t)
                states.append(x.copy())
            e = max(err, 1e-10)
            factor = safety * e ** -0.14 * err_prev ** 0.08
            err_prev = e
        else:
            rejected += 1
            factor = safety * max(err, 1e-10) ** -0.2
        h = h * min(fac_max, max(fac_min, factor))

    log.debug("rk45: %d accepted, %d rejected steps", accepted, rejected)
    if times[-1] != t:
        times.append(t)
        states.append(x.copy())
    return np.array(times), np.array(states)


def _march(rhs, x0: np.ndarray, cfg: StepperConfig):
    def timed_rhs(t, x):
        try:
            return rhs(t, x)
        except DomainError as e:
            raise DomainError(f"{e} at t={t:.6g}") from None

    if cfg.method == "rk4":
        return _fixed_rk4(timed_rhs, x0, cfg)
    return _adaptive_rk45(timed_rhs, x0, cfg)


# ---------------------------------------------------------------------------
# flows


def _tghs_rhs(sys: StructuredSystem):
    n = sys.n

    def rhs(t, x):
        Q, P = x[:n, None], x[n:, None]
        Hj = eval_jet(sys.hamiltonian, Q, P, order=1)
        sj = eval_jet(sys.structural, Q, P, order=1)
        return real_velocity_jets(Hj, sj, n)[:, 0]

    return rhs


def _w_of_state(sys: StructuredSystem, n: int):
    def w_fn(x):
        Q, P = x[:n, None], x[n:, None]
        Hj = eval_jet(sys.hamiltonian, Q, P, order=1)
        sj = eval_jet(sys.structural, Q, P, order=1)
        return float(sdyn_jets(Hj, sj, n)[0])
    return w_fn


def _as_initial_point(z0) -> PhasePoint:
    if isinstance(z0, PhasePoint):
        return z0
    if isinstance(z0, ComplexCoords):
        return from_complex(z0)
    return from_complex(ComplexCoords(np.atleast_1d(np.asarray(z0, dtype=complex))))


def integrate_tghs(sys: StructuredSystem, z0, cfg: StepperConfig,
                   observables: dict[str, ScalarField] | None = None) -> Trajectory:
    """March the structural Hamiltonian flow from z0."""
    pt0 = _as_initial_point(z0)
    if pt0.n != sys.n:
        raise ValueError(f"initial point has n={pt0.n}, system has n={sys.n}")
    times, states = _march(_tghs_rhs(sys), pt0.flat(), cfg)
    traj = Trajectory("tghs", sys.n, times, states)
    _attach_monitors(traj, sys, observables or {})
    return traj


def integrate_equilibrium(z0, w_source, cfg: StepperConfig,
                          observables: dict[str, ScalarField] | None = None) -> Trajectory:
    """March the equilibrium flow dz_j/dt = -z_j w.

    w_source is either a constant rate or a StructuredSystem whose w is
    evaluated along the run.
    """
    pt0 = _as_initial_point(z0)
    n = pt0.n
    if isinstance(w_source, StructuredSystem):
        if w_source.n != n:
            raise ValueError(f"initial point has n={n}, system has n={w_source.n}")
        w_fn = _w_of_state(w_source, n)

        def rhs(t, x):
            return -w_fn(x) * x

        times, states = _march(rhs, pt0.flat(), cfg)
        traj = Trajectory("equilibrium", n, times, states)
        _attach_monitors(traj, w_source, observables or {})
    else:
        w0 = float(w_source)

        def rhs(t, x):
            return -w0 * x

        times, states = _march(rhs, pt0.flat(), cfg)
        traj = Trajectory("equilibrium", n, times, states, w0=w0,
                          sdyn=np.full(times.size, w0))
        _attach_values(traj, observables or {})
    return traj


def integrate_perturbed(w_source, z0, h, cfg: StepperConfig,
                        observables: dict[str, ScalarField] | None = None) -> Trajectory:
    """March the disturbed equilibrium flow dz_j/dt = -z_j w + h_j(t, z).

    h is one time-dependent field applied to every component, or a
    sequence of n fields, one per component.
    """
    pt0 = _as_initial_point(z0)
    n = pt0.n
    if isinstance(h, ScalarField):
        h_fields = [h] * n
    else:
        h_fields = list(h)
        if len(h_fields) != n:
            raise ValueError(f"need one disturbance per component: got "
                             f"{len(h_fields)} for n={n}")
    for hf in h_fields:
        if hf.n != n:
            raise ValueError(f"disturbance field has n={hf.n}, expected {n}")

    if isinstance(w_source, StructuredSystem):
        if w_source.n != n:
            raise ValueError(f"initial point has n={n}, system has n={w_source.n}")
        w_fn = _w_of_state(w_source, n)
        w0 = None
    else:
        w0 = float(w_source)
        w_fn = None

    def rhs(t, x):
        Q, P = x[:n, None], x[n:, None]
        hval = np.array([complex(eval_jet(hf, Q, P, order=0, time=t).val[0])
                         for hf in h_fields])
        w = w_fn(x) if w_fn is not None else w0
        return -w * x + np.concatenate([hval.real, hval.imag])

    times, states = _march(rhs, pt0.flat(), cfg)
    traj = Trajectory("perturbed", n, times, states, w0=w0)
    if w_fn is not None:
        _attach_monitors(traj, w_source, observables or {})
    else:
        traj.sdyn = np.full(times.size, w0)
        _attach_values(traj, observables or {})
    return traj


# ---------------------------------------------------------------------------
# monitors


def _attach_values(traj: Trajectory, observables: dict[str, ScalarField]):
    if not observables:
        return
    Q = traj.states[:, :traj.n].T
    P = traj.states[:, traj.n:].T
    for name, f in observables.items():
        traj.observables[name] = eval_jet(f, Q, P, order=0).val


def _attach_monitors(traj: Trajectory, sys: StructuredSystem,
                     observables: dict[str, ScalarField]):
    n = traj.n
    Q = traj.states[:, :n].T
    P = traj.states[:, n:].T
    Hj = eval_jet(sys.hamiltonian, Q, P, order=1)
    sj = eval_jet(sys.structural, Q, P, order=1)

    traj.energy = Hj.val.real
    traj.sdyn = sdyn_jets(Hj, sj, n)
    traj.hh_residual = np.abs(gspb_jets(Hj, Hj, sj, n))

    zdot = tghs_zdot_jets(Hj, sj, n)
    zbardot = tghs_zbardot_jets(Hj, sj, n)
    traj.conj_violation = np.max(np.abs(zbardot - np.conj(zdot)), axis=0)

    for name, f in observables.items():
        fj = eval_jet(f, Q, P, order=1)
        traj.observables[name] = fj.val
        traj.residuals[name] = gspb_jets(fj, Hj, sj, n)


def _cum_trapezoid(y: np.ndarray, t: np.ndarray) -> np.ndarray:
    if t.size < 2:
        return np.zeros_like(t)
    inc = 0.5 * (y[1:] + y[:-1]) * np.diff(t)
    return np.concatenate([[0.0], np.cumsum(inc)])


@dataclass
class MonitorReport:
    """Aggregates of the per-sample monitors of one trajectory."""

    flow: str
    samples: int
    t_final: float
    max_hh_residual: float | None
    decay_law_max_dev: float | None
    max_conj_violation: float | None
    energy_initial: float | None
    energy_final: float | None
    observable_stats: dict[str, dict[str, float]]

    def to_dict(self) -> dict:
        return {
            "flow": self.flow,
            "samples": self.samples,
            "t_final": self.t_final,
            "max_hh_residual": self.max_hh_residual,
            "decay_law_max_dev": self.decay_law_max_dev,
            "max_conj_violation": self.max_conj_violation,
            "energy_initial": self.energy_initial,
            "energy_final": self.energy_final,
            "observables": self.observable_stats,
        }


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
        entry = {"final_re": float(vals[-1].real), "final_im": float(vals[-1].imag)}
        if name in traj.residuals:
            res = np.abs(traj.residuals[name])
            entry["residual_max"] = float(np.max(res))
            entry["residual_mean"] = float(np.mean(res))
        stats[name] = entry

    return MonitorReport(
        flow=traj.flow,
        samples=int(traj.times.size),
        t_final=float(traj.times[-1]),
        max_hh_residual=(None if traj.hh_residual is None
                         else float(np.max(traj.hh_residual))),
        decay_law_max_dev=decay,
        max_conj_violation=(None if traj.conj_violation is None
                            else float(np.max(traj.conj_violation))),
        energy_initial=None if traj.energy is None else float(traj.energy[0]),
        energy_final=None if traj.energy is None else float(traj.energy[-1]),
        observable_stats=stats,
    )
