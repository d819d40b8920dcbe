"""Rates of change along the structural Hamiltonian flow.

The flow itself, in the complex chart, is

    dz_j/dt = -2i * DH/dzbar_j,   DH/dzbar_j = dH/dzbar_j + H * ds/dzbar_j

which in real coordinates reads

    dq_j/dt = dH/dp_j + H * ds/dp_j
    dp_j/dt = -(dH/dq_j + H * ds/dq_j)

Any field f then has a plain flow derivative df/dt (the chain rule along
those velocities) and a covariant total rate Df/dt = df/dt + f * w, where
w = {s,H} is the rate the structural function imposes on the flow.  The
total rate coincides with the structural bracket {f,H}_s; that identity
is cross-checked on every call.

Everything here funnels through order-1 or order-2 jets; the velocity
Jacobian needed for second rates is assembled from the Hessians of H
and s, never from finite differences.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .brackets import (ROUTE_TOL, StructuredSystem, _amax, _check_routes,
                       gspb_jets, pb_complex_jets, sdyn_jets, unit_field)
from .errors import RealnessError
from .fields import ScalarField, point_jets, wirtinger_split
from .phasespace import ComplexCoords, PhasePoint


@dataclass(frozen=True)
class CovariantRate:
    """One field's rates at one point: value, plain derivative, structural
    rate and the covariant total = thorough + value * sdyn."""

    value: complex
    thorough: complex
    sdyn: float
    total: complex


@dataclass(frozen=True)
class EquilibriumReport:
    """The covariant residual of f with its decomposition terms.

    residual == classical - structural_term - decay_term identically, so
    a vanishing residual means the classical rate is balanced by the
    structural terms."""

    residual: complex
    classical: complex
    structural_term: complex
    decay_term: complex


def _real_part(arr: np.ndarray, what: str) -> np.ndarray:
    dev = _amax(arr.imag)
    if dev > 1e-10 * max(1.0, _amax(arr)):
        raise RealnessError(
            f"{what} came out complex (|imag| up to {dev:.3e}); "
            "H and s must be real-valued fields")
    return arr.real


def _time_free(f: ScalarField) -> ScalarField:
    if f.uses_time:
        raise ValueError("rates are defined for time-independent fields")
    return f


# ---------------------------------------------------------------------------
# batched cores


def tghs_zdot_jets(Hj, sj, n: int) -> np.ndarray:
    _, Hzb = wirtinger_split(Hj.grad, n)
    _, szb = wirtinger_split(sj.grad, n)
    return -2j * (Hzb + Hj.val * szb)


def tghs_zbardot_jets(Hj, sj, n: int) -> np.ndarray:
    Hz, _ = wirtinger_split(Hj.grad, n)
    sz, _ = wirtinger_split(sj.grad, n)
    return 2j * (Hz + Hj.val * sz)


def real_velocity_jets(Hj, sj, n: int) -> np.ndarray:
    """Flow velocities stacked (qdot, pdot), shape (2n, m), real."""
    GH, Gs, Hval = Hj.grad, sj.grad, Hj.val
    top = GH[n:] + Hval * Gs[n:]
    bot = -(GH[:n] + Hval * Gs[:n])
    return _real_part(np.concatenate([top, bot], axis=0), "flow velocity")


def thorough_jets(fj, Hj, sj, n: int) -> np.ndarray:
    """Plain flow derivative df/dt along the structural flow."""
    zdot = tghs_zdot_jets(Hj, sj, n)
    zbardot = tghs_zbardot_jets(Hj, sj, n)
    fz, fzb = wirtinger_split(fj.grad, n)
    chain = np.sum(zbardot * fzb + zdot * fz, axis=0)

    # bracket form of the same derivative
    bracket = (pb_complex_jets(fj, Hj, n)
               - Hj.val * pb_complex_jets(sj, fj, n))
    cancel = ((_amax(Hj.val) * _amax(sj.grad) + _amax(Hj.grad))
              * _amax(fj.grad) * n)
    _check_routes(chain, bracket, "flow derivative", cancel)
    return chain


def total_rate_jets(fj, Hj, sj, n: int):
    """(thorough, w, total) batches with the chain-rule cross-check."""
    w = sdyn_jets(Hj, sj, n)
    th = thorough_jets(fj, Hj, sj, n)
    total = th + fj.val * w

    # chain rule through the structural derivative of f
    zdot = tghs_zdot_jets(Hj, sj, n)
    zbardot = tghs_zbardot_jets(Hj, sj, n)
    sz, szb = wirtinger_split(sj.grad, n)
    fz, fzb = wirtinger_split(fj.grad, n)
    Dfz, Dfzb = fz + fj.val * sz, fzb + fj.val * szb
    alt = np.sum(zbardot * Dfzb + zdot * Dfz, axis=0)

    cancel = (_amax(zdot) * (_amax(fj.grad) + _amax(fj.val) * _amax(sj.grad)) * n)
    _check_routes(total, alt, "covariant total rate", cancel)
    return th, w, total


def _symmetrize(h: np.ndarray) -> np.ndarray:
    return 0.5 * (h + np.swapaxes(h, 0, 1))


def _J(x: np.ndarray, n: int) -> np.ndarray:
    """Canonical symplectic rotation of a stacked (2n, ...) array."""
    return np.concatenate([x[n:], -x[:n]], axis=0)


def flow_jacobian_jets(Hj2, sj2, n: int):
    """Velocities and their spatial Jacobian dV[a, b] = d V_a / d x_b.

    Requires order-2 jets of H and s."""
    GH, Gs, Hval = Hj2.grad, sj2.grad, Hj2.val
    HH = _symmetrize(Hj2.hess)
    Hs = _symmetrize(sj2.hess)
    M = HH + np.einsum("c...,b...->cb...", Gs, GH) + Hval * Hs
    V = _J(GH + Hval * Gs, n)
    dV = _J(M, n)
    return V, dV


def w_gradient_jets(Hj2, sj2, n: int):
    """w = {s,H} and its real-coordinate gradient, from Hessians."""
    GH, Gs = Hj2.grad, sj2.grad
    HH = _symmetrize(Hj2.hess)
    Hs = _symmetrize(sj2.hess)
    JGH = _J(GH, n)
    JGs = _J(Gs, n)
    w = np.sum(Gs * JGH, axis=0)
    gw = (np.einsum("ab...,b...->a...", Hs, JGH)
          - np.einsum("ab...,b...->a...", HH, JGs))
    return w, gw


def beta_jets(Hj2, sj2, n: int) -> np.ndarray:
    """Acceleration coefficient dw/dt + w^2 along the flow."""
    V, _ = flow_jacobian_jets(Hj2, sj2, n)
    w, gw = w_gradient_jets(Hj2, sj2, n)
    dwdt = np.sum(V * gw, axis=0)
    return dwdt + w * w


def acceleration_jets(fj2, Hj2, sj2, n: int) -> np.ndarray:
    """Second covariant rate d2f/dt2 + 2 w df/dt + f * beta."""
    V, dV = flow_jacobian_jets(Hj2, sj2, n)
    w, gw = w_gradient_jets(Hj2, sj2, n)
    Gf = fj2.grad
    Hf = _symmetrize(fj2.hess)

    df = np.sum(V * Gf, axis=0)
    adv = np.einsum("ab...,b...->a...", dV, V)
    d2f = np.sum(adv * Gf, axis=0) + np.einsum("a...,ab...,b...->...", V, Hf, V)
    beta_v = np.sum(V * gw, axis=0) + w * w
    return d2f + 2.0 * w * df + fj2.val * beta_v


# ---------------------------------------------------------------------------
# public single-point operations


def tghs_velocity(sys: StructuredSystem, pt: PhasePoint) -> np.ndarray:
    """dz_j/dt for all j at one point."""
    Hj, sj = point_jets(pt, sys.hamiltonian, sys.structural)
    return tghs_zdot_jets(Hj, sj, sys.n)[:, 0]


def tghs_velocity_pair(sys: StructuredSystem, pt: PhasePoint):
    """(dz_j/dt, dzbar_j/dt); the second comes from its own closed form
    and equals the conjugate of the first for real H and s."""
    Hj, sj = point_jets(pt, sys.hamiltonian, sys.structural)
    return (tghs_zdot_jets(Hj, sj, sys.n)[:, 0],
            tghs_zbardot_jets(Hj, sj, sys.n)[:, 0])


def s_dynamics(sys: StructuredSystem, pt: PhasePoint) -> float:
    """The structural flow rate w = {s,H} at one point, always real."""
    Hj, sj, onej = point_jets(pt, sys.hamiltonian, sys.structural,
                              unit_field(sys.n))
    w = sdyn_jets(Hj, sj, sys.n)

    # the same number must fall out of the structural bracket with 1
    via_unit = gspb_jets(onej, Hj, sj, sys.n)
    _check_routes(w.astype(complex), via_unit, "structural flow rate (unit slot)")
    return float(w[0])


def thorough_rate(f: ScalarField, sys: StructuredSystem, pt: PhasePoint) -> complex:
    """Plain flow derivative df/dt at one point."""
    fj, Hj, sj = point_jets(pt, _time_free(f), sys.hamiltonian, sys.structural)
    return complex(thorough_jets(fj, Hj, sj, sys.n)[0])


def gchs_rate(f: ScalarField, sys: StructuredSystem, pt: PhasePoint) -> CovariantRate:
    """Covariant total rate Df/dt = df/dt + f * w with its parts."""
    fj, Hj, sj = point_jets(pt, _time_free(f), sys.hamiltonian, sys.structural)
    th, w, total = total_rate_jets(fj, Hj, sj, sys.n)
    return CovariantRate(value=complex(fj.val[0]), thorough=complex(th[0]),
                         sdyn=float(w[0]), total=complex(total[0]))


def beta(sys: StructuredSystem, pt: PhasePoint) -> float:
    """Acceleration coefficient dw/dt + w^2 at one point."""
    Hj2, sj2 = point_jets(pt, sys.hamiltonian, sys.structural, order=2)
    b = beta_jets(Hj2, sj2, sys.n)
    return float(_real_part(b, "acceleration coefficient")[0])


def covariant_acceleration(f: ScalarField, sys: StructuredSystem,
                           pt: PhasePoint) -> complex:
    """Second covariant rate D(Df/dt)/dt = d2f/dt2 + 2 w df/dt + f * beta."""
    fj2, Hj2, sj2 = point_jets(pt, _time_free(f), sys.hamiltonian,
                               sys.structural, order=2)
    return complex(acceleration_jets(fj2, Hj2, sj2, sys.n)[0])


def equilibrium_residual(f: ScalarField, sys: StructuredSystem,
                         pt: PhasePoint) -> EquilibriumReport:
    """Covariant residual {f,H}_s with its decomposition diagnostics."""
    fj, Hj, sj = point_jets(pt, _time_free(f), sys.hamiltonian, sys.structural)
    n = sys.n
    residual = complex(gspb_jets(fj, Hj, sj, n)[0])
    classical = complex(pb_complex_jets(fj, Hj, n)[0])
    structural = complex((Hj.val * pb_complex_jets(sj, fj, n))[0])
    w = sdyn_jets(Hj, sj, n)
    decay = complex((-fj.val * w)[0])
    return EquilibriumReport(residual=residual, classical=classical,
                             structural_term=structural, decay_term=decay)


def exponential_solution(z0, w0: float, t) -> np.ndarray:
    """Closed-form equilibrium trajectory z(t) = z0 * exp(-w0 * t)."""
    if isinstance(z0, ComplexCoords):
        z0 = z0.z
    z0 = np.atleast_1d(np.asarray(z0, dtype=complex))
    return z0 * np.exp(-w0 * np.asarray(t, dtype=float))
