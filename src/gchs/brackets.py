"""Poisson brackets, classical and structural.

The classical bracket is evaluated in two equivalent charts:

    real     {f,g} = sum_j (df/dq_j dg/dp_j - df/dp_j dg/dq_j)
    complex  {f,g} = 2i sum_j (df/dzbar_j dg/dz_j - df/dz_j dg/dzbar_j)

The structural bracket adds a multiplicative correction driven by a
structural function s:

    {f,g}_s = {f,g} + f*{s,g} - g*{s,f}

The same quantity has a second closed form in terms of the structural
derivative Df/dz_j = df/dz_j + f * ds/dz_j.  Both routes are evaluated
on every call and must agree; a mismatch raises ConsistencyError since
it can only come from a derivative bug, never from user input.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConsistencyError, RealnessError
from .fields import (ScalarField, WirtingerGradient, constant_field,
                     point_jets, wirtinger_split)
from .phasespace import PhasePoint

#: tolerance for the dual-route agreement checks, scaled by magnitude
ROUTE_TOL = 1e-10


def _amax(x: np.ndarray) -> float:
    return float(np.max(np.abs(x))) if x.size else 0.0


def _require_real_form(field: ScalarField, role: str):
    if not field.is_real_form:
        raise RealnessError(
            f"the {role} must be real-valued: no i, z_j or conj is allowed "
            "in its expression (write it over q_j and p_j)")
    if field.uses_time:
        raise RealnessError(f"the {role} must not depend on t")


@dataclass(frozen=True, eq=False)
class StructuredSystem:
    """A Hamiltonian plus structural function over a fixed phase space.

    Both fields must be in real form; that is checked here once so every
    downstream rate can rely on real energies and real structural flow.
    """

    n: int
    hamiltonian: ScalarField
    structural: ScalarField

    def __post_init__(self):
        if self.hamiltonian.n != self.n or self.structural.n != self.n:
            raise ValueError("hamiltonian and structural function must match n")
        _require_real_form(self.hamiltonian, "Hamiltonian")
        _require_real_form(self.structural, "structural function")


def _check_routes(a: np.ndarray, b: np.ndarray, what: str, extra_scale: float = 0.0):
    # extra_scale carries the magnitude of terms that cancel exactly in
    # one of the routes, so their rounding residue is judged fairly
    dev = float(np.max(np.abs(a - b))) if a.size else 0.0
    scale = max(1.0, extra_scale,
                float(np.max(np.abs(a))), float(np.max(np.abs(b))))
    if dev > ROUTE_TOL * scale:
        raise ConsistencyError(
            f"{what}: independent evaluation routes differ by {dev:.3e} "
            f"(scale {scale:.3e}); this is an internal derivative bug")


# ---------------------------------------------------------------------------
# batched cores: all take order-1 jets sharing one batch


def pb_real_jets(fj, gj, n: int) -> np.ndarray:
    fq, fp = fj.grad[:n], fj.grad[n:]
    gq, gp = gj.grad[:n], gj.grad[n:]
    return np.sum(fq * gp - fp * gq, axis=0)


def pb_complex_jets(fj, gj, n: int) -> np.ndarray:
    fz, fzb = wirtinger_split(fj.grad, n)
    gz, gzb = wirtinger_split(gj.grad, n)
    return 2j * np.sum(fzb * gz - fz * gzb, axis=0)


def geobracket_jets(fj, gj, sj, n: int) -> np.ndarray:
    return fj.val * pb_complex_jets(sj, gj, n) - gj.val * pb_complex_jets(sj, fj, n)


def gspb_jets(fj, gj, sj, n: int) -> np.ndarray:
    direct = pb_complex_jets(fj, gj, n) + geobracket_jets(fj, gj, sj, n)

    # independent route through the structural derivatives
    sz, szb = wirtinger_split(sj.grad, n)
    fz, fzb = wirtinger_split(fj.grad, n)
    gz, gzb = wirtinger_split(gj.grad, n)
    Dfz, Dfzb = fz + fj.val * sz, fzb + fj.val * szb
    Dgz, Dgzb = gz + gj.val * sz, gzb + gj.val * szb
    expanded = 2j * np.sum(Dfzb * Dgz - Dfz * Dgzb, axis=0)

    cancel = (_amax(fj.val) * _amax(gj.val)
              * max(_amax(sz), _amax(szb)) ** 2 * n)
    _check_routes(direct, expanded, "structural bracket", cancel)
    return direct


def sdyn_jets(Hj, sj, n: int) -> np.ndarray:
    """Structural flow rate w = {s,H} as a real batch; asserts realness."""
    w = pb_complex_jets(sj, Hj, n)

    # equivalent form through the structural derivative of H
    sz, szb = wirtinger_split(sj.grad, n)
    Hz, Hzb = wirtinger_split(Hj.grad, n)
    DHz, DHzb = Hz + Hj.val * sz, Hzb + Hj.val * szb
    alt = 2j * np.sum(DHz * szb - DHzb * sz, axis=0)
    cancel = _amax(Hj.val) * max(_amax(sz), _amax(szb)) ** 2 * n
    _check_routes(w, alt, "structural flow rate", cancel)

    dev = float(np.max(np.abs(w.imag))) if w.size else 0.0
    if dev > 1e-10 * max(1.0, float(np.max(np.abs(w))) if w.size else 1.0):
        raise RealnessError(
            f"structural flow rate came out complex (|imag| up to {dev:.3e}); "
            "H and s must be real-valued fields")
    return w.real


# ---------------------------------------------------------------------------
# public single-point operations


def pb_real(f: ScalarField, g: ScalarField, pt: PhasePoint) -> complex:
    """Classical bracket from the real partials."""
    fj, gj = point_jets(pt, f, g)
    return complex(pb_real_jets(fj, gj, pt.n)[0])


def pb_complex(f: ScalarField, g: ScalarField, pt: PhasePoint) -> complex:
    """Classical bracket from the Wirtinger pairs; equal to pb_real."""
    fj, gj = point_jets(pt, f, g)
    return complex(pb_complex_jets(fj, gj, pt.n)[0])


def structural_derivative(f: ScalarField, sys: StructuredSystem,
                          pt: PhasePoint) -> WirtingerGradient:
    """The product-corrected gradient Df/dz_j = df/dz_j + f * ds/dz_j
    (and its conjugate-chart partner)."""
    fj, sj = point_jets(pt, f, sys.structural)
    fz, fzb = wirtinger_split(fj.grad[:, 0], pt.n)
    sz, szb = wirtinger_split(sj.grad[:, 0], pt.n)
    v = fj.val[0]
    return WirtingerGradient(fz + v * sz, fzb + v * szb)


def geobracket(f: ScalarField, g: ScalarField, sys: StructuredSystem,
               pt: PhasePoint) -> complex:
    """The structural correction f*{s,g} - g*{s,f}."""
    fj, gj, sj = point_jets(pt, f, g, sys.structural)
    return complex(geobracket_jets(fj, gj, sj, pt.n)[0])


def gspb(f: ScalarField, g: ScalarField, sys: StructuredSystem,
         pt: PhasePoint) -> complex:
    """The full structural bracket {f,g} + f*{s,g} - g*{s,f}."""
    fj, gj, sj = point_jets(pt, f, g, sys.structural)
    return complex(gspb_jets(fj, gj, sj, pt.n)[0])


def geometrio(sys: StructuredSystem, pt: PhasePoint) -> tuple[np.ndarray, np.ndarray]:
    """Brackets of the structural function with each chart coordinate:
    ({s,z_j}, {s,zbar_j}) = (2i ds/dzbar_j, -2i ds/dz_j) for all j."""
    (sj,) = point_jets(pt, sys.structural)
    sz, szb = wirtinger_split(sj.grad[:, 0], pt.n)
    return 2j * szb, -2j * sz


def unit_field(n: int) -> ScalarField:
    """The constant field 1, handy as the left slot of the structural bracket."""
    return constant_field(1.0, n)
