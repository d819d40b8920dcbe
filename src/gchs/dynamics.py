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

The velocity alone, which the integrator needs at every stage, also
has one compiled float function per pair of H and s (velocity_kernel):
H and s emitted into one tape that shares their coordinate leaves and
common subexpressions and returns (qdot, pdot), written as float code.
Each entry is summed as real_velocity_jets sums the complex batch, so
the two return the same floats.  It applies where H and s both have
float code (no log or conj, no complex or non-finite literal, no
exponent beyond numpy's multiply chain) and compile() takes the
function.  Built by the compile step of fields, it never raises: where
a guard of H or s fires, a velocity is not finite or Python raises, it
returns an index, and the caller takes the jets instead.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from time import perf_counter

import numpy as np

from .brackets import (StructuredSystem, _amax, _check_routes, _real_part,
                       _time_free, gspb_jets, pb_complex_jets, sdyn_jets,
                       structural_derivative_jets, unit_field)
from .fields import _Emitter, _NoFloatCode, ScalarField, _compiled, _memoized, point_jets
from .phasespace import ComplexCoords, PhasePoint

log = logging.getLogger(__name__)


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


# ---------------------------------------------------------------------------
# batched cores: jets in, arrays out; n comes from the jets


@_memoized
def tghs_zdot_jets(Hj, sj) -> np.ndarray:
    return -2j * (Hj.wirtinger[1] + Hj.val * sj.wirtinger[1])


@_memoized
def tghs_zbardot_jets(Hj, sj) -> np.ndarray:
    return 2j * (Hj.wirtinger[0] + Hj.val * sj.wirtinger[0])


def real_velocity_jets(Hj, sj) -> np.ndarray:
    """Flow velocities stacked (qdot, pdot), shape (2n, m), real."""
    return _real_part(_J(Hj.grad + Hj.val * sj.grad), "flow velocity")


def velocity_kernel(sys: StructuredSystem):
    """sys's velocity as one compiled float function of x0..x{2n-1} that
    returns the floats (qdot_1..qdot_n, pdot_1..pdot_n) of
    real_velocity_jets, or an index where a guard fires or Python raises
    (it never raises); None where sys has no such function.  Built once
    per pair of H's and s's code, and kept on H's (_FieldCode)."""
    kernels, key = sys.hamiltonian._code.kernels, sys.structural._code
    if key not in kernels:
        try:
            kernels[key] = _velocity_function(sys)
        except _NoFloatCode as e:
            log.debug("no velocity kernel for %s: %s", sys, e)
            kernels[key] = None
    return kernels[key]


def _velocity_function(sys: StructuredSystem):
    t0 = perf_counter()
    n = sys.n
    em = _Emitter(n, 1)
    Hval, GH, _ = em.tree(sys.hamiltonian.root)
    sval, Gs, _ = em.tree(sys.structural.root)

    def rate(a):
        # GH_a + H * Gs_a with a literal zero for an absent entry: the
        # complex batch adds its zeros too, and 0.0 + -0.0 is 0.0
        return em.op(GH.get(a, 0.0), "+", em.op(Hval, "*", Gs.get(a, 0.0)))

    outs = [rate(n + j) for j in range(n)] + [em.neg(rate(j)) for j in range(n)]
    # H's and s's own finiteness guards too: it returns where either would
    fn, source, _ = _compiled(em, "float", outs,
                              [Hval, *GH.values(), sval, *Gs.values(), *outs])
    log.debug("velocity kernel for %s: %d statements, %.3f ms", sys,
              source.count("\n") - 1, 1e3 * (perf_counter() - t0))
    return fn


def thorough_jets(fj, Hj, sj) -> np.ndarray:
    """Plain flow derivative df/dt along the structural flow."""
    zdot = tghs_zdot_jets(Hj, sj)
    zbardot = tghs_zbardot_jets(Hj, sj)
    fz, fzb = fj.wirtinger
    chain = np.add.reduce(zbardot * fzb + zdot * fz, 0)

    # bracket form of the same derivative
    bracket = pb_complex_jets(fj, Hj) - Hj.val * pb_complex_jets(sj, fj)
    cancel = ((Hj.amax("val") * sj.amax("grad") + Hj.amax("grad"))
              * fj.amax("grad") * fj.n)
    _check_routes(chain, bracket, "flow derivative", cancel)
    return chain


def total_rate_jets(fj, Hj, sj):
    """(thorough, w, total) batches with the chain-rule cross-check."""
    w = sdyn_jets(Hj, sj)
    th = thorough_jets(fj, Hj, sj)
    total = th + fj.val * w

    # chain rule through the structural derivative of f
    zdot = tghs_zdot_jets(Hj, sj)
    zbardot = tghs_zbardot_jets(Hj, sj)
    Dfz, Dfzb = structural_derivative_jets(fj, sj)
    alt = np.add.reduce(zbardot * Dfzb + zdot * Dfz, 0)

    cancel = _amax(zdot) * (fj.amax("grad") + fj.amax("val") * sj.amax("grad")) * fj.n
    _check_routes(total, alt, "covariant total rate", cancel)
    return th, w, total


def _J(x: np.ndarray) -> np.ndarray:
    """Canonical symplectic rotation of a stacked (2n, ...) array."""
    n = len(x) // 2
    return np.concatenate([x[n:], -x[:n]], axis=0)


@_memoized
def flow_gradient_jets(Hj2, sj2):
    """Velocities V, their spatial Jacobian dV[a, b] = d V_a / d x_b,
    w = {s,H} and its real-coordinate gradient gw.

    Requires order-2 jets of H and s, whose symmetrized Hessians
    (Jet.sym_hess) are computed once per jet.  The four arrays are
    computed once per pair of jets and kept on H's jet (fields._memoized).
    At one point the pair comes from point_jets' memo, so beta and
    covariant_acceleration there compute them once in all.  Callers
    share the arrays, which are read-only like the jets'."""
    GH, Gs, Hval = Hj2.grad, sj2.grad, Hj2.val
    HH, Hs = Hj2.sym_hess, sj2.sym_hess
    M = HH + np.einsum("c...,b...->cb...", Gs, GH) + Hval * Hs
    V = _J(GH + Hval * Gs)
    dV = _J(M)
    JGH = _J(GH)
    JGs = _J(Gs)
    w = np.add.reduce(Gs * JGH, 0)
    gw = (np.einsum("ab...,b...->a...", Hs, JGH)
          - np.einsum("ab...,b...->a...", HH, JGs))
    return V, dV, w, gw


def beta_jets(Hj2, sj2) -> np.ndarray:
    """Acceleration coefficient dw/dt + w^2 along the flow."""
    V, _, w, gw = flow_gradient_jets(Hj2, sj2)
    dwdt = np.add.reduce(V * gw, 0)
    return dwdt + w * w


def acceleration_jets(fj2, Hj2, sj2) -> np.ndarray:
    """Second covariant rate d2f/dt2 + 2 w df/dt + f * beta."""
    V, dV, w, _ = flow_gradient_jets(Hj2, sj2)
    Gf = fj2.grad
    Hf = fj2.sym_hess

    df = np.add.reduce(V * Gf, 0)
    adv = np.einsum("ab...,b...->a...", dV, V)
    d2f = np.add.reduce(adv * Gf, 0) + np.einsum("a...,ab...,b...->...", V, Hf, V)
    return d2f + 2.0 * w * df + fj2.val * beta_jets(Hj2, sj2)


# ---------------------------------------------------------------------------
# public single-point operations


def tghs_velocity(sys: StructuredSystem, pt: PhasePoint) -> np.ndarray:
    """dz_j/dt for all j at one point."""
    Hj, sj = point_jets(pt, sys.hamiltonian, sys.structural)
    return tghs_zdot_jets(Hj, sj)[:, 0]


def tghs_velocity_pair(sys: StructuredSystem, pt: PhasePoint):
    """(dz_j/dt, dzbar_j/dt); the second comes from its own closed form
    and equals the conjugate of the first for real H and s."""
    Hj, sj = point_jets(pt, sys.hamiltonian, sys.structural)
    return tghs_zdot_jets(Hj, sj)[:, 0], tghs_zbardot_jets(Hj, sj)[:, 0]


def s_dynamics(sys: StructuredSystem, pt: PhasePoint) -> float:
    """The structural flow rate w = {s,H} at one point, always real."""
    Hj, sj, onej = point_jets(pt, sys.hamiltonian, sys.structural,
                              unit_field(sys.n))
    w = sdyn_jets(Hj, sj)

    # the same number must fall out of the structural bracket with 1
    via_unit = gspb_jets(onej, Hj, sj)
    _check_routes(w.astype(complex), via_unit, "structural flow rate (unit slot)")
    return float(w[0])


def thorough_rate(f: ScalarField, sys: StructuredSystem, pt: PhasePoint) -> complex:
    """Plain flow derivative df/dt at one point."""
    fj, Hj, sj = point_jets(pt, _time_free(f), sys.hamiltonian, sys.structural)
    return complex(thorough_jets(fj, Hj, sj)[0])


def gchs_rate(f: ScalarField, sys: StructuredSystem, pt: PhasePoint) -> CovariantRate:
    """Covariant total rate Df/dt = df/dt + f * w with its parts."""
    fj, Hj, sj = point_jets(pt, _time_free(f), sys.hamiltonian, sys.structural)
    th, w, total = total_rate_jets(fj, Hj, sj)
    return CovariantRate(value=complex(fj.val[0]), thorough=complex(th[0]),
                         sdyn=float(w[0]), total=complex(total[0]))


def beta(sys: StructuredSystem, pt: PhasePoint) -> float:
    """Acceleration coefficient dw/dt + w^2 at one point."""
    Hj2, sj2 = point_jets(pt, sys.hamiltonian, sys.structural, order=2)
    b = beta_jets(Hj2, sj2)
    return float(_real_part(b, "acceleration coefficient")[0])


def covariant_acceleration(f: ScalarField, sys: StructuredSystem,
                           pt: PhasePoint) -> complex:
    """Second covariant rate D(Df/dt)/dt = d2f/dt2 + 2 w df/dt + f * beta."""
    fj2, Hj2, sj2 = point_jets(pt, _time_free(f), sys.hamiltonian,
                               sys.structural, order=2)
    return complex(acceleration_jets(fj2, Hj2, sj2)[0])


def equilibrium_residual(f: ScalarField, sys: StructuredSystem,
                         pt: PhasePoint) -> EquilibriumReport:
    """Covariant residual {f,H}_s with its decomposition diagnostics."""
    fj, Hj, sj = point_jets(pt, _time_free(f), sys.hamiltonian, sys.structural)
    residual = complex(gspb_jets(fj, Hj, sj)[0])
    classical = complex(pb_complex_jets(fj, Hj)[0])
    structural = complex((Hj.val * pb_complex_jets(sj, fj))[0])
    w = sdyn_jets(Hj, sj)
    decay = complex((-fj.val * w)[0])
    return EquilibriumReport(residual=residual, classical=classical,
                             structural_term=structural, decay_term=decay)


def exponential_solution(z0, w0: float, t) -> np.ndarray:
    """Closed-form equilibrium trajectory z(t) = z0 * exp(-w0 * t)."""
    if isinstance(z0, ComplexCoords):
        z0 = z0.z
    z0 = np.atleast_1d(np.asarray(z0, dtype=complex))
    return z0 * np.exp(-w0 * np.asarray(t, dtype=float))
