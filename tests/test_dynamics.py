"""Flow rates: velocities, covariant rates, acceleration, closed forms.

Reference values are hand derivatives of H = (q^2 + p^2)/2 with s = q at
the point z = 1 + 2i:

    w     = {s,H} = H_p = 2
    zdot  = -2i (H_zbar + H s_zbar) = 2 - 3.5i
    Dz/dt = zdot + z w = 4 + 0.5i
    dH/dt = -H w = -5          (so DH/dt = 0)
    beta  = dw/dt + w^2 = -(H_q + H s_q) + w^2 = 0.5
"""

import numpy as np
import pytest

from gchs import (PhasePoint, StructuredSystem, beta, covariant_acceleration,
                  equilibrium_residual, evaluate, exponential_solution,
                  gchs_rate, gspb, parse_field, s_dynamics, thorough_rate,
                  tghs_velocity, tghs_velocity_pair)
from gchs.checks import (random_points, random_polynomial, random_smooth_field,
                         random_system)
from gchs.dynamics import (_flow_gradient, acceleration_jets, beta_jets,
                           flow_gradient_jets, tghs_zbardot_jets, tghs_zdot_jets)
from gchs.fields import eval_jet

Z1 = parse_field("z1", 1)
Q1 = parse_field("q1", 1)
ONE = parse_field("1", 1)


def test_s_dynamics_reference(structured, pt12):
    assert s_dynamics(structured, pt12) == pytest.approx(2.0, abs=1e-14)


def test_s_dynamics_vanishes_classically(oscillator, pt12):
    assert s_dynamics(oscillator, pt12) == 0.0


def test_second_s_dynamics_builds_no_code(structured, pt12, code_builds):
    # the unit field of its second route comes from the store, like H and s
    first = s_dynamics(structured, pt12)
    assert code_builds
    code_builds.clear()
    again = StructuredSystem(1, parse_field("(q1^2 + p1^2) / 2", 1),
                             parse_field("q1", 1))   # the fixture's texts
    assert s_dynamics(structured, pt12) == s_dynamics(again, pt12) == first
    assert code_builds == []


def test_velocity_reference(structured, pt12):
    v = tghs_velocity(structured, pt12)
    assert v[0] == pytest.approx(2.0 - 3.5j, abs=1e-14)


def test_velocity_conjugate_pair(structured, pt12):
    zdot, zbardot = tghs_velocity_pair(structured, pt12)
    assert zbardot[0] == pytest.approx(np.conj(zdot[0]), abs=1e-14)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize("box", [1.0, 50.0])
@pytest.mark.parametrize("count", [1, 300])
def test_velocity_pair_is_exactly_conjugate(n, box, count):
    # for real-form H and s the closed form of zbar-dot is the conjugate of
    # that of z-dot bit for bit, up to the sign of a zero, at one point
    # (float code) and over a batch
    rng = np.random.default_rng(1000 * n + count + int(box))
    Q, P = random_points(rng, n, count, box)
    for make in (random_polynomial, random_smooth_field):
        for _ in range(5):
            Hj, sj = (eval_jet(make(rng, n), Q, P, order=1) for _ in range(2))
            zdot = tghs_zdot_jets(Hj, sj)
            assert zdot.shape == (n, count) and np.all(np.isfinite(zdot))
            np.testing.assert_array_equal(tghs_zbardot_jets(Hj, sj), np.conj(zdot))


def test_velocity_real_chart_form(structured, pt12):
    # qdot = H_p + H s_p, pdot = -(H_q + H s_q) with H = 2.5 at (1, 2)
    v = tghs_velocity(structured, pt12)[0]
    assert v.real == pytest.approx(2.0, abs=1e-14)          # H_p + 0
    assert v.imag == pytest.approx(-(1.0 + 2.5), abs=1e-14)  # -(H_q + H)


def test_classical_velocity(oscillator):
    # s = 0 gives zdot = -i z for the oscillator
    pt = PhasePoint([0.7], [-0.4])
    v = tghs_velocity(oscillator, pt)
    assert v[0] == pytest.approx(-1j * complex(0.7, -0.4), abs=1e-14)


def test_thorough_rate_reference(structured, pt12):
    assert thorough_rate(Z1, structured, pt12) == pytest.approx(2.0 - 3.5j,
                                                                abs=1e-13)


def test_covariant_rate_decomposition(structured, pt12):
    r = gchs_rate(Z1, structured, pt12)
    assert r.value == pytest.approx(1.0 + 2.0j, abs=1e-15)
    assert r.sdyn == pytest.approx(2.0, abs=1e-14)
    assert r.thorough == pytest.approx(2.0 - 3.5j, abs=1e-13)
    assert r.total == pytest.approx(4.0 + 0.5j, abs=1e-13)
    assert r.total == pytest.approx(r.thorough + r.value * r.sdyn, abs=1e-13)


def test_covariant_rate_matches_bracket(structured, pt12):
    r = gchs_rate(Z1, structured, pt12)
    assert gspb(Z1, structured.hamiltonian, structured, pt12) == pytest.approx(
        r.total, abs=1e-12)


def test_energy_decay_rate(structured, pt12):
    H = structured.hamiltonian
    assert thorough_rate(H, structured, pt12) == pytest.approx(-5.0, abs=1e-13)
    # the covariant energy rate vanishes: DH/dt = dH/dt + H w = 0
    assert gchs_rate(H, structured, pt12).total == pytest.approx(0.0, abs=1e-13)


def test_structural_self_rate(structured, pt12):
    # gspb(s, H) = (1 + s) w = (1 + 1) * 2 = 4
    s = structured.structural
    assert gspb(s, structured.hamiltonian, structured, pt12) == pytest.approx(
        4.0, abs=1e-13)
    assert gchs_rate(s, structured, pt12).total == pytest.approx(4.0, abs=1e-13)


def test_beta_reference(structured, pt12):
    assert beta(structured, pt12) == pytest.approx(0.5, abs=1e-13)


def test_beta_vanishes_classically(oscillator, pt12):
    assert beta(oscillator, pt12) == 0.0


def test_acceleration_of_constant(structured, pt12):
    # D^2(1)/dt^2 = beta, since the constant has no plain derivatives
    assert covariant_acceleration(ONE, structured, pt12) == pytest.approx(
        0.5, abs=1e-13)


def test_classical_acceleration(oscillator):
    # with s = 0 the second covariant rate is the plain one: q'' = -q
    for qv, pv in [(1.0, 0.0), (0.3, -0.8), (-1.1, 0.4)]:
        pt = PhasePoint([qv], [pv])
        assert covariant_acceleration(Q1, oscillator, pt) == pytest.approx(
            -qv, abs=1e-12)


def test_acceleration_chain_identity(structured, pt12):
    # D^2 f/dt^2 = d2f/dt2 + 2 w df/dt + f beta, checked with raw pieces
    f = parse_field("q1 * p1", 1)
    w = s_dynamics(structured, pt12)
    b = beta(structured, pt12)
    df = thorough_rate(f, structured, pt12)
    acc = covariant_acceleration(f, structured, pt12)
    # second plain derivative by differencing the rate along the flow
    h = 1e-6
    v = tghs_velocity(structured, pt12)[0]
    up = PhasePoint([pt12.q[0] + h * v.real], [pt12.p[0] + h * v.imag])
    dn = PhasePoint([pt12.q[0] - h * v.real], [pt12.p[0] - h * v.imag])
    d2f_fd = (thorough_rate(f, structured, up)
              - thorough_rate(f, structured, dn)) / (2 * h)
    want = d2f_fd + 2 * w * df + complex(evaluate(f, pt12)) * b
    assert acc == pytest.approx(want, abs=1e-5)


def test_equilibrium_residual_oscillator():
    # classical oscillator at z = 1: Dz/dt = {z, H} = -i z = -i
    osc = StructuredSystem(1, parse_field("(q1^2 + p1^2) / 2", 1),
                           parse_field("0", 1))
    rep = equilibrium_residual(Z1, osc, PhasePoint([1.0], [0.0]))
    assert rep.residual == pytest.approx(-1.0j, abs=1e-14)
    assert rep.classical == pytest.approx(-1.0j, abs=1e-14)
    assert rep.structural_term == pytest.approx(0.0, abs=1e-15)
    assert rep.decay_term == pytest.approx(0.0, abs=1e-15)


def test_equilibrium_residual_decomposes(structured, pt12):
    rep = equilibrium_residual(Z1, structured, pt12)
    assert rep.residual == pytest.approx(
        rep.classical - rep.structural_term - rep.decay_term, abs=1e-12)


def test_exponential_solution_values():
    z = exponential_solution(1.0, 0.5, 1.0)
    assert z[0] == pytest.approx(np.exp(-0.5), abs=1e-15)
    ts = np.array([0.0, 1.0, 2.0])
    z = exponential_solution(2.0j, -0.5, ts)
    np.testing.assert_allclose(z, 2.0j * np.exp(0.5 * ts), atol=1e-14)


def test_order_two_rates_do_not_depend_on_the_float_code(monkeypatch):
    # beta and the second rates read the Hessians of H and s at one point,
    # which come from their float code; with it removed every jet comes
    # from the array code, and no value may change
    from gchs import fields, second_derivatives

    n = 6
    rng = np.random.default_rng(20)
    oscillator = " + ".join(f"q{j}^2 + p{j}^2" for j in range(1, n + 1))
    c = [float(x) for x in rng.uniform(0.01, 0.05, 9)]
    H = parse_field(f"({oscillator}) / 2 + {c[0]!r} * q1^2 * q4^2"
                    f" + {c[1]!r} * q2 * q5 * p3^2 - {c[2]!r} * p6^4"
                    f" + {c[3]!r} * q3 * p1 * q6 * p5", n)
    s = parse_field(f"{c[4]!r} * q1 - {c[5]!r} * p2 + {c[6]!r} * q3 * p4"
                    f" + {c[7]!r} * q5^2 - {c[8]!r} * p6 * q2", n)
    sys_ = StructuredSystem(n, H, s)
    f = parse_field("q1 * p2 - 0.3 * q3^2 * p6 + sin(p4) / (2 + q5^2)", n)
    points = [PhasePoint(q, p) for q, p in rng.uniform(-1, 1, size=(200, 2, n))]

    def values():
        return [(beta(sys_, pt), covariant_acceleration(f, sys_, pt),
                 second_derivatives(H, pt).matrix.tolist(),
                 second_derivatives(s, pt).matrix.tolist()) for pt in points]

    compiled = values()
    assert H._code.codes["float", 2] is not None and s._code.codes["float", 2] is not None
    monkeypatch.setattr(fields, "_float_jet", lambda *args: None)
    assert values() == compiled


def _order_2_jets(sys, *extra, m=9):
    Q, P = random_points(np.random.default_rng(4), sys.n, m)
    return [eval_jet(f, Q, P, order=2)
            for f in (sys.hamiltonian, sys.structural, *extra)]


def test_flow_gradient_is_kept_per_s_jet(flow_builds):
    sys = random_system(np.random.default_rng(8), 2, max_degree=3)
    other_s = parse_field("q1 * p2 - 0.4 * p1^3", 2)
    Hj2, sj2, other_sj2 = _order_2_jets(sys, other_s)
    first = flow_gradient_jets(Hj2, sj2)
    assert flow_gradient_jets(Hj2, sj2) is first
    assert len(flow_builds) == 1

    # another s jet, even of the same field, is another key
    _, again_sj2 = _order_2_jets(sys)
    for sj in (other_sj2, again_sj2, sj2):
        fresh = flow_gradient_jets(Hj2, sj)
        assert fresh is not first
        assert flow_gradient_jets(Hj2, sj) is fresh
    assert [s for _, s in flow_builds] == [sj2, other_sj2, again_sj2, sj2]
    assert all(H is Hj2 for H, _ in flow_builds)


def test_kept_flow_gradient_is_bit_identical_to_a_fresh_one():
    sys = random_system(np.random.default_rng(12), 3, max_degree=4)
    f = parse_field("z1 * conj(z2) - i * q3 * p1^2 + p2", 3)
    Hj2, sj2, fj2 = _order_2_jets(sys, f)
    b = beta_jets(Hj2, sj2)
    acc = acceleration_jets(fj2, Hj2, sj2)
    kept = flow_gradient_jets(Hj2, sj2)

    # the same arrays from fresh jets, and the acceleration written out
    # with its own beta, as it was before beta was shared
    freshH, fresh_s, fresh_f = _order_2_jets(sys, f)
    V, dV, w, gw = _flow_gradient(freshH, fresh_s)
    for a, want in zip(kept, (V, dV, w, gw)):
        assert a.dtype == want.dtype and a.tobytes() == want.tobytes()
    Gf, Hf = fresh_f.grad, fresh_f.sym_hess
    df = (V * Gf).sum(axis=0)
    d2f = ((np.einsum("ab...,b...->a...", dV, V) * Gf).sum(axis=0)
           + np.einsum("a...,ab...,b...->...", V, Hf, V))
    beta_v = (V * gw).sum(axis=0) + w * w
    assert b.tobytes() == beta_v.tobytes()
    assert acc.tobytes() == (d2f + 2.0 * w * df + fresh_f.val * beta_v).tobytes()


def test_each_second_rate_computes_the_flow_gradient_once(structured, pt12,
                                                          flow_builds):
    # at one point both take H's and s's order-2 jets from point_jets' memo,
    # so they share one flow gradient; a new point builds one more
    f = parse_field("q1 * p1", 1)
    beta(structured, pt12)
    assert len(flow_builds) == 1
    covariant_acceleration(f, structured, pt12)
    assert len(flow_builds) == 1
    other = PhasePoint([0.5], [-1.5])
    beta(structured, other)
    covariant_acceleration(f, structured, other)
    assert len(flow_builds) == 2
