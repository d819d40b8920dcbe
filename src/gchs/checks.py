"""Seeded invariant suite over randomized fields and points.

Each invariant is an identity between quantities the package computes
by different routes; the suite evaluates both sides over a batch of
seeded random points and reports the worst deviation against a fixed
tolerance.  The CLI check command prints these results verbatim, and
the acceptance tests call the same functions, so the list below is the
single source of truth for what "consistent" means here.

Random fields are generated as expression strings and run through the
parser, which keeps the generator honest about the public grammar.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import bridge
from .brackets import (StructuredSystem, _amax, geobracket_jets, gspb_jets,
                       pb_complex_jets, pb_real_jets, sdyn_jets)
from .dynamics import (acceleration_jets, beta_jets, flow_jacobian_jets,
                       thorough_jets, tghs_zbardot_jets, tghs_zdot_jets,
                       total_rate_jets, w_gradient_jets, _symmetrize)
from .fields import (ScalarField, constant_field, conjugate_field,
                     coordinate_field, eval_jet, linear_combination,
                     parse_field, wirtinger_split)
from .integrate import StepperConfig, integrate_tghs, monitor_report
from .phasespace import PhasePoint

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


def run_invariant_suite(sys: StructuredSystem, seed: int, count: int,
                        initial: PhasePoint | None = None,
                        include_flow_checks: bool = True) -> list[InvariantResult]:
    """Evaluate every identity the modules promise, over seeded inputs.

    The point-based identities run at `count` random points with random
    fields drawn from the same seed.  The flow checks integrate short
    probe trajectories (the scenario's initial point if given).
    """
    rng = np.random.default_rng(seed)
    n = sys.n
    results: list[InvariantResult] = []

    def add(name: str, dev: float, tol: float):
        results.append(InvariantResult(name, float(dev), tol))

    Q, P = random_points(rng, n, count)
    f = random_polynomial(rng, n, complex_ok=True)
    g = random_polynomial(rng, n, complex_ok=True)
    freal = random_polynomial(rng, n, complex_ok=False)
    a, b = (float(v) for v in rng.uniform(-1.0, 1.0, size=2))

    def jets(field, order=1):
        return eval_jet(field, Q, P, order=order)

    fj, gj = jets(f), jets(g)
    Hj, sj = jets(sys.hamiltonian), jets(sys.structural)

    # phasespace: chart round trip and the Wirtinger inversion pair
    Z = Q + 1j * P
    add("phasespace.roundtrip", max(_amax(Z.real - Q), _amax(Z.imag - P)), 0.0)

    dq = rng.uniform(-1, 1, size=count) + 1j * rng.uniform(-1, 1, size=count)
    dp = rng.uniform(-1, 1, size=count) + 1j * rng.uniform(-1, 1, size=count)
    dz, dzb = 0.5 * (dq - 1j * dp), 0.5 * (dq + 1j * dp)
    add("phasespace.wirtinger_inverse",
        max(_amax((dz + dzb) - dq), _amax(1j * (dz - dzb) - dp)), 1e-14)

    frj = jets(freal)
    rz, rzb = wirtinger_split(frj.grad, n)
    add("phasespace.conjugation", _amax(rzb - np.conj(rz)), 1e-14)

    # fields: linearity, realness, print round trip
    lin = linear_combination(a, f, b, g)
    lj = jets(lin)
    add("fields.linearity",
        max(_amax(lj.val - (a * fj.val + b * gj.val)),
            _amax(lj.grad - (a * fj.grad + b * gj.grad))), 1e-14)

    add("fields.realness", _amax(frj.val.imag), 1e-14)

    reparsed = parse_field(str(f), n)
    add("fields.print_roundtrip", _amax(jets(reparsed, order=0).val - fj.val), 1e-14)

    # brackets
    add("brackets.antisymmetry",
        _amax(gspb_jets(fj, gj, sj, n) + gspb_jets(gj, fj, sj, n)), 1e-12)

    combo = jets(linear_combination(a, f, b, freal))
    add("brackets.bilinearity",
        _amax(gspb_jets(combo, gj, sj, n)
              - (a * gspb_jets(fj, gj, sj, n) + b * gspb_jets(frj, gj, sj, n))),
        1e-12)

    zero_j = jets(constant_field(0.0, n))
    add("brackets.classical_reduction",
        _amax(gspb_jets(fj, gj, zero_j, n) - pb_complex_jets(fj, gj, n)), 0.0)

    add("brackets.real_complex_agreement",
        _amax(pb_complex_jets(fj, gj, n) - pb_real_jets(fj, gj, n)), 1e-10)

    zj = [jets(coordinate_field("z", j, n)) for j in range(1, n + 1)]
    zbj = [jets(conjugate_field(coordinate_field("z", j, n)))
           for j in range(1, n + 1)]
    sz, szb = wirtinger_split(sj.grad, n)

    dev = max(_amax(pb_complex_jets(zj[j], zbj[j], n) + 2j) for j in range(n))
    add("brackets.coordinate_pb", dev, 0.0)

    dev = 0.0
    for j in range(n):
        want = -2j * (1.0 + zj[j].val * sz[j] + zbj[j].val * szb[j])
        dev = max(dev, _amax(gspb_jets(zj[j], zbj[j], sj, n) - want))
    add("brackets.coordinate_gspb", dev, 1e-12)

    dev = max(max(_amax(gspb_jets(zj[j], zj[j], sj, n)),
                  _amax(gspb_jets(zbj[j], zbj[j], sj, n))) for j in range(n))
    add("brackets.coordinate_self", dev, 1e-12)

    dev = 0.0
    for j in range(n):
        dev = max(dev, _amax(2j * szb[j] - pb_complex_jets(sj, zj[j], n)))
        dev = max(dev, _amax(-2j * sz[j] - pb_complex_jets(sj, zbj[j], n)))
    add("brackets.geometrio", dev, 1e-12)

    # dynamics
    w = sdyn_jets(Hj, sj, n)
    _, _, total = total_rate_jets(fj, Hj, sj, n)
    add("dynamics.decomposition", _amax(gspb_jets(fj, Hj, sj, n) - total), 1e-10)

    _, _, totalH = total_rate_jets(Hj, Hj, sj, n)
    add("dynamics.conservation", _amax(totalH), 1e-10)

    zdot = tghs_zdot_jets(Hj, sj, n)
    zbardot = tghs_zbardot_jets(Hj, sj, n)
    Hz, Hzb = wirtinger_split(Hj.grad, n)
    DHz, DHzb = Hz + Hj.val * sz, Hzb + Hj.val * szb
    add("dynamics.velocity_identity",
        _amax(np.sum(zdot * DHz, axis=0) + np.sum(zbardot * DHzb, axis=0)), 1e-10)

    add("dynamics.conjugate_pairing", _amax(zbardot - np.conj(zdot)), 1e-12)

    add("dynamics.structural_rate",
        _amax(gspb_jets(sj, Hj, sj, n) - (1.0 + sj.val) * w), 1e-10)

    add("dynamics.sdyn_chain_rule",
        _amax(np.sum(zbardot * szb + zdot * sz, axis=0) - w), 1e-10)

    add("dynamics.w_realness", _amax(pb_complex_jets(sj, Hj, n).imag), 1e-10)

    # second-order identities need order-2 jets
    fj2 = jets(f, order=2)
    Hj2 = jets(sys.hamiltonian, order=2)
    sj2 = jets(sys.structural, order=2)

    add("dynamics.beta_realness", _amax(beta_jets(Hj2, sj2, n).imag), 1e-10)

    acc = acceleration_jets(fj2, Hj2, sj2, n)
    oracle = _acceleration_operator_route(fj2, Hj2, sj2, n)
    add("dynamics.acceleration_consistency", _amax(acc - oracle), 1e-8)

    # bridge: both engines over fresh points
    pts = [PhasePoint(Q[:, k], P[:, k]) for k in range(min(count, 200))]
    rep = bridge.cross_check(f, g, sys, pts)
    add("bridge.cross_engine", rep.max_dev, 1e-10)

    if include_flow_checks:
        results.extend(_flow_checks(sys, initial, freal))

    return results


def _acceleration_operator_route(fj2, Hj2, sj2, n: int) -> np.ndarray:
    """Apply the covariant rate operator to the derived field Df/dt.

    This recomputes the second covariant rate without using the closed
    formula: the rate field g = df/dt + f w is differentiated through
    the Hessians, then D g/dt = dg/dt + g w.
    """
    V, dV = flow_jacobian_jets(Hj2, sj2, n)
    w, gw = w_gradient_jets(Hj2, sj2, n)
    Gf = fj2.grad
    Hf = _symmetrize(fj2.hess)

    df = np.sum(V * Gf, axis=0)
    g_val = df + fj2.val * w
    g_grad = (np.einsum("ab...,a...->b...", dV, Gf)
              + np.einsum("a...,ab...->b...", V, Hf)
              + Gf * w
              + fj2.val * gw)
    return np.sum(V * g_grad, axis=0) + g_val * w


def _flow_checks(sys: StructuredSystem, initial: PhasePoint | None,
                 probe: ScalarField) -> list[InvariantResult]:
    """Short integration runs: stepper order and along-flow consistency."""
    results = []

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
    ratio = errs[0] / errs[1]
    results.append(InvariantResult("integrate.rk4_order", abs(ratio - 16.0), 4.0))

    n = sys.n
    pt0 = initial if initial is not None else PhasePoint(
        np.full(n, 0.3), np.full(n, 0.2))
    cfg = StepperConfig(method="rk4", step=1e-3, t_end=0.5, stride=1)
    traj = integrate_tghs(sys, pt0, cfg, observables={"probe": probe})

    t = traj.times
    vals = traj.observables["probe"]
    Q = traj.states[:, :n].T
    P = traj.states[:, n:].T
    fj = eval_jet(probe, Q, P, order=1)
    Hj = eval_jet(sys.hamiltonian, Q, P, order=1)
    sj = eval_jet(sys.structural, Q, P, order=1)
    th = thorough_jets(fj, Hj, sj, n)
    _, _, total = total_rate_jets(fj, Hj, sj, n)
    w = sdyn_jets(Hj, sj, n)

    cdiff = (vals[2:] - vals[:-2]) / (t[2:] - t[:-2])
    results.append(InvariantResult(
        "integrate.trajectory_fd", _amax(cdiff - th[1:-1]), 1e-4))
    results.append(InvariantResult(
        "integrate.covariant_fd",
        _amax((cdiff + vals[1:-1] * w[1:-1]) - total[1:-1]), 1e-4))

    rep = monitor_report(traj)
    dev = rep.decay_law_max_dev if rep.decay_law_max_dev is not None else 0.0
    results.append(InvariantResult("integrate.decay_law", dev, 1e-6))
    results.append(InvariantResult(
        "integrate.conjugate_pairing_flow",
        0.0 if rep.max_conj_violation is None else rep.max_conj_violation, 1e-12))

    return results
