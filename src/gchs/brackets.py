"""Poisson brackets, classical and structural.

The classical bracket is evaluated in two equivalent charts:

    real     {f,g} = sum_j (df/dq_j dg/dp_j - df/dp_j dg/dq_j)
    complex  {f,g} = 2i sum_j (df/dzbar_j dg/dz_j - df/dz_j dg/dzbar_j)

The structural bracket adds a multiplicative correction driven by a
structural function s:

    {f,g}_s = {f,g} + f*{s,g} - g*{s,f}

The same quantity has a second closed form in terms of the structural
derivative Df/dz_j = df/dz_j + f * ds/dz_j, written once in
structural_derivative_jets.  Both routes are evaluated on every call and
must agree; a mismatch raises ConsistencyError since it can only come
from a derivative bug, never from user input.  The kernels (*_jets) take
order-1 jets sharing one batch, and nothing else: n comes from the jets,
and each Wirtinger pair and each scale of a check is derived once per
jet (Jet.wirtinger, Jet.amax).  pb_complex_jets, structural_derivative_jets
and sdyn_jets run once per pair of jets (fields._memoized).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConsistencyError, DomainError, RealnessError
from .fields import (ScalarField, WirtingerGradient, _amax, _memoized, parse_field,
                     point_jets)
from .phasespace import PhasePoint

#: tolerance for the dual-route agreement checks, scaled by magnitude
ROUTE_TOL = 1e-10


def _worst(a: float, b: float) -> float:
    """The larger of two deviations, NaN where either is NaN (max() keeps
    a NaN only as its first argument)."""
    return math.nan if math.isnan(a) or math.isnan(b) else max(a, b)


def _exceeds(dev: float, tol: float, what: str, *mags: float) -> bool:
    """Whether dev exceeds tol * max(1, *mags).

    Every guard goes through here.  A non-finite dev or magnitude is no
    question of tolerance, so it raises DomainError naming `what`; the
    comparison is written so that a NaN could not pass it either.
    """
    if not all(math.isfinite(x) for x in (dev, *mags)):
        raise DomainError(f"{what} is not finite")
    return not (dev <= tol * max((1.0, *mags)))


def _real_part(arr: np.ndarray, what: str) -> np.ndarray:
    dev = _amax(arr.imag)
    if _exceeds(dev, 1e-10, what, _amax(arr)):
        raise RealnessError(
            f"{what} came out complex (|imag| up to {dev:.3e}); "
            "H and s must be real-valued fields")
    return arr.real


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
    dev = _amax(a - b)
    if dev <= ROUTE_TOL and math.isfinite(extra_scale):
        # within the tolerance at any scale (max(1, ...) >= 1), and a
        # finite dev means both routes are finite: _exceeds would pass
        return
    mags = (extra_scale, _amax(a), _amax(b))
    if _exceeds(dev, ROUTE_TOL, what, *mags):
        raise ConsistencyError(
            f"{what}: independent evaluation routes differ by {dev:.3e} "
            f"(scale {max(1.0, *mags):.3e}); this is an internal derivative bug")


# ---------------------------------------------------------------------------
# batched cores: all take order-1 jets sharing one batch; n comes from the jets


def pb_real_jets(fj, gj) -> np.ndarray:
    n = fj.n
    return np.add.reduce(fj.grad[:n] * gj.grad[n:] - fj.grad[n:] * gj.grad[:n], 0)


@_memoized
def pb_complex_jets(fj, gj) -> np.ndarray:
    fz, fzb = fj.wirtinger
    gz, gzb = gj.wirtinger
    return 2j * np.add.reduce(fzb * gz - fz * gzb, 0)


@_memoized
def structural_derivative_jets(fj, sj) -> tuple[np.ndarray, np.ndarray]:
    """(Df/dz, Df/dzbar) = (df/dz + f * ds/dz, df/dzbar + f * ds/dzbar),
    (n, m) each: the one place the structural derivative is written."""
    (fz, fzb), (sz, szb) = fj.wirtinger, sj.wirtinger
    return fz + fj.val * sz, fzb + fj.val * szb


def geobracket_jets(fj, gj, sj) -> np.ndarray:
    return fj.val * pb_complex_jets(sj, gj) - gj.val * pb_complex_jets(sj, fj)


def gspb_jets(fj, gj, sj) -> np.ndarray:
    direct = pb_complex_jets(fj, gj) + geobracket_jets(fj, gj, sj)

    # independent route through the structural derivatives
    Dfz, Dfzb = structural_derivative_jets(fj, sj)
    Dgz, Dgzb = structural_derivative_jets(gj, sj)
    expanded = 2j * np.add.reduce(Dfzb * Dgz - Dfz * Dgzb, 0)

    cancel = (fj.amax("val") * gj.amax("val")
              * max(sj.amax("dz"), sj.amax("dzbar")) ** 2 * fj.n)
    _check_routes(direct, expanded, "structural bracket", cancel)
    return direct


@_memoized
def sdyn_jets(Hj, sj) -> np.ndarray:
    """Structural flow rate w = {s,H} as a real batch; asserts realness."""
    w = pb_complex_jets(sj, Hj)

    # equivalent form through the structural derivative of H
    sz, szb = sj.wirtinger
    DHz, DHzb = structural_derivative_jets(Hj, sj)
    alt = 2j * np.add.reduce(DHz * szb - DHzb * sz, 0)
    cancel = Hj.amax("val") * max(sj.amax("dz"), sj.amax("dzbar")) ** 2 * Hj.n
    _check_routes(w, alt, "structural flow rate", cancel)
    return _real_part(w, "structural flow rate")


# ---------------------------------------------------------------------------
# public single-point operations


def _time_free(f: ScalarField) -> ScalarField:
    if f.uses_time:
        raise ValueError("brackets and rates are defined for time-independent fields")
    return f


def pb_real(f: ScalarField, g: ScalarField, pt: PhasePoint) -> complex:
    """Classical bracket from the real partials."""
    fj, gj = point_jets(pt, _time_free(f), _time_free(g))
    return complex(pb_real_jets(fj, gj)[0])


def pb_complex(f: ScalarField, g: ScalarField, pt: PhasePoint) -> complex:
    """Classical bracket from the Wirtinger pairs; equal to pb_real."""
    fj, gj = point_jets(pt, _time_free(f), _time_free(g))
    return complex(pb_complex_jets(fj, gj)[0])


def structural_derivative(f: ScalarField, sys: StructuredSystem,
                          pt: PhasePoint) -> WirtingerGradient:
    """The product-corrected gradient Df/dz_j = df/dz_j + f * ds/dz_j
    (and its conjugate-chart partner), in read-only arrays."""
    Dfz, Dfzb = structural_derivative_jets(
        *point_jets(pt, _time_free(f), sys.structural))
    return WirtingerGradient(Dfz[:, 0], Dfzb[:, 0])


def geobracket(f: ScalarField, g: ScalarField, sys: StructuredSystem,
               pt: PhasePoint) -> complex:
    """The structural correction f*{s,g} - g*{s,f}."""
    fj, gj, sj = point_jets(pt, _time_free(f), _time_free(g), sys.structural)
    return complex(geobracket_jets(fj, gj, sj)[0])


def gspb(f: ScalarField, g: ScalarField, sys: StructuredSystem,
         pt: PhasePoint) -> complex:
    """The full structural bracket {f,g} + f*{s,g} - g*{s,f}."""
    fj, gj, sj = point_jets(pt, _time_free(f), _time_free(g), sys.structural)
    return complex(gspb_jets(fj, gj, sj)[0])


def geometrio(sys: StructuredSystem, pt: PhasePoint) -> tuple[np.ndarray, np.ndarray]:
    """Brackets of the structural function with each chart coordinate:
    ({s,z_j}, {s,zbar_j}) = (2i ds/dzbar_j, -2i ds/dz_j) for all j."""
    (sj,) = point_jets(pt, sys.structural)
    sz, szb = sj.wirtinger
    return 2j * szb[:, 0], -2j * sz[:, 0]


def unit_field(n: int) -> ScalarField:
    """The constant field 1, handy as the left slot of the structural bracket."""
    return parse_field("1", n)
