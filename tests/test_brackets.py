"""Bracket operations: canonical values, structure terms, algebraic laws."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gchs import (DomainError, PhasePoint, RealnessError, StructuredSystem,
                  covariant_acceleration, cross_check, equilibrium_residual,
                  gchs_rate, gchs_real_rate, geobracket, geometrio, gspb,
                  gspb_real, parse_field, pb_complex, pb_real,
                  structural_derivative, thorough_rate)
from gchs.brackets import (_check_routes, _exceeds, _real_part,
                           structural_derivative_jets)
from gchs.checks import random_points
from gchs.fields import eval_jet, point_jets

Q1 = parse_field("q1", 1)
P1 = parse_field("p1", 1)
Z1 = parse_field("z1", 1)
ZB1 = parse_field("conj(z1)", 1)
H_OSC = parse_field("(q1^2 + p1^2) / 2", 1)


# ---------------------------------------------------------------------------
# canonical Poisson bracket


def test_canonical_pairs(pt12):
    assert pb_complex(Q1, P1, pt12) == pytest.approx(1.0, abs=1e-15)
    assert pb_complex(Z1, ZB1, pt12) == pytest.approx(-2.0j, abs=1e-15)
    assert pb_complex(Z1, Z1, pt12) == pytest.approx(0.0, abs=1e-15)
    assert pb_complex(Q1, H_OSC, pt12) == pytest.approx(2.0, abs=1e-15)
    assert pb_complex(P1, H_OSC, pt12) == pytest.approx(-1.0, abs=1e-15)


def test_pb_real_equals_pb_complex(pt12):
    for f, g in [(Q1, P1), (Z1, ZB1), (Q1, H_OSC), (Z1, H_OSC)]:
        assert pb_real(f, g, pt12) == pytest.approx(pb_complex(f, g, pt12),
                                                    abs=1e-12)


def test_pb_independent_degrees():
    pt = PhasePoint([1.0, 2.0], [3.0, 4.0])
    q1 = parse_field("q1", 2)
    p2 = parse_field("p2", 2)
    assert pb_complex(q1, p2, pt) == pytest.approx(0.0, abs=1e-15)


def test_antisymmetry_random_fields():
    rng = np.random.default_rng(5)
    f = parse_field("q1^2 * p1 + sin(p1)", 1)
    g = parse_field("exp(0.3 * q1) - p1^3", 1)
    for _ in range(20):
        pt = PhasePoint(rng.uniform(-1, 1, 1), rng.uniform(-1, 1, 1))
        assert pb_complex(f, g, pt) == pytest.approx(-pb_complex(g, f, pt),
                                                     abs=1e-12)


# ---------------------------------------------------------------------------
# structured system construction


def test_system_rejects_complex_structural():
    with pytest.raises(RealnessError, match="real"):
        StructuredSystem(1, H_OSC, parse_field("i * q1", 1))


def test_system_rejects_z_in_hamiltonian():
    with pytest.raises(RealnessError, match="Hamiltonian"):
        StructuredSystem(1, parse_field("z1", 1), Q1)


def test_system_rejects_conj_anywhere():
    with pytest.raises(RealnessError):
        StructuredSystem(1, H_OSC, parse_field("conj(q1)", 1))


def test_system_rejects_mismatched_arity():
    with pytest.raises(ValueError):
        StructuredSystem(2, parse_field("q1", 2), parse_field("q1", 1))


# ---------------------------------------------------------------------------
# structural terms at the reference point (s = q1, z = 1 + 2i)


def test_structural_derivative_reference(structured, pt12):
    d = structural_derivative(Z1, structured, pt12)
    assert d.dz[0] == pytest.approx(1.5 + 1.0j, abs=1e-15)
    assert d.dzbar[0] == pytest.approx(0.5 + 1.0j, abs=1e-15)


def test_structural_derivative_runs_once_per_point_in_read_only_arrays(
        structured, pt12, kernel_runs):
    # the memo of f's jet at the point keeps the pair, as gradient's jet
    # keeps its Wirtinger pair
    d = structural_derivative(Z1, structured, pt12)
    again = structural_derivative(Z1, structured, pt12)
    assert again.dz.base is d.dz.base and again.dzbar.base is d.dzbar.base
    assert [name for name, _, _ in kernel_runs] == ["structural_derivative_jets"]
    for a in (d.dz, d.dzbar):
        with pytest.raises(ValueError, match="read-only"):
            a[0] = 5.0


def test_geobracket_reference(structured, pt12):
    assert geobracket(Z1, ZB1, structured, pt12) == pytest.approx(-2.0j,
                                                                  abs=1e-14)


def test_gspb_reference(structured, pt12):
    assert gspb(Z1, ZB1, structured, pt12) == pytest.approx(-4.0j, abs=1e-14)


def test_geometrio_reference(structured, pt12):
    with_z, with_zbar = geometrio(structured, pt12)
    assert with_z[0] == pytest.approx(1.0j, abs=1e-15)
    assert with_zbar[0] == pytest.approx(-1.0j, abs=1e-15)


@pytest.mark.parametrize("m", [1, 7])
@pytest.mark.parametrize("src", ["sin(q1) * p2 + q2^2", "z1 * conj(z2) - i * p1"])
def test_structural_derivative_jets_is_the_product_corrected_gradient(src, m):
    f, s = parse_field(src, 2), parse_field("q1 * p2 + exp(p1)", 2)
    Q, P = random_points(np.random.default_rng(m), 2, m)
    fj, sj = eval_jet(f, Q, P, order=1), eval_jet(s, Q, P, order=1)
    (fz, fzb), (sz, szb) = fj.wirtinger, sj.wirtinger
    Dfz, Dfzb = structural_derivative_jets(fj, sj)
    np.testing.assert_array_equal(Dfz, fz + fj.val * sz)
    np.testing.assert_array_equal(Dfzb, fzb + fj.val * szb)


@pytest.mark.parametrize("n", [1, 3])
def test_structural_derivative_is_its_jets_at_one_point(n):
    rng = np.random.default_rng(n)
    f = parse_field(f"z{n} * conj(z1) + i * sin(q1)", n)
    sys = StructuredSystem(n, parse_field(f"q1^2 + p{n}^2", n),
                           parse_field(f"q1 * p{n} + cos(q{n})", n))
    for _ in range(10):
        pt = PhasePoint(rng.uniform(-1, 1, n), rng.uniform(-1, 1, n))
        d = structural_derivative(f, sys, pt)
        Dfz, Dfzb = structural_derivative_jets(*point_jets(pt, f, sys.structural))
        assert d.dz.tobytes() == Dfz[:, 0].tobytes()
        assert d.dzbar.tobytes() == Dfzb[:, 0].tobytes()


TIMED = parse_field("q1 * t", 1, allow_time=True)


@pytest.mark.parametrize("call", [
    lambda sys, pt: pb_real(TIMED, Q1, pt),
    lambda sys, pt: pb_real(Q1, TIMED, pt),
    lambda sys, pt: pb_complex(TIMED, Q1, pt),
    lambda sys, pt: pb_complex(Q1, TIMED, pt),
    lambda sys, pt: geobracket(TIMED, Q1, sys, pt),
    lambda sys, pt: geobracket(Q1, TIMED, sys, pt),
    lambda sys, pt: gspb(TIMED, Q1, sys, pt),
    lambda sys, pt: gspb(Q1, TIMED, sys, pt),
    lambda sys, pt: structural_derivative(TIMED, sys, pt),
    lambda sys, pt: gspb_real(TIMED, Q1, sys, pt),
    lambda sys, pt: gspb_real(Q1, TIMED, sys, pt),
    lambda sys, pt: gchs_real_rate(TIMED, sys, pt),
    lambda sys, pt: gchs_rate(TIMED, sys, pt),
    lambda sys, pt: cross_check(TIMED, Q1, sys, [pt]),
    lambda sys, pt: cross_check(Q1, TIMED, sys, [pt]),
    lambda sys, pt: thorough_rate(TIMED, sys, pt),
    lambda sys, pt: equilibrium_residual(TIMED, sys, pt),
    lambda sys, pt: covariant_acceleration(TIMED, sys, pt),
], ids=["pb_real-f", "pb_real-g", "pb_complex-f", "pb_complex-g",
        "geobracket-f", "geobracket-g", "gspb-f", "gspb-g",
        "structural_derivative", "gspb_real-f", "gspb_real-g",
        "gchs_real_rate", "gchs_rate", "cross_check-f", "cross_check-g",
        "thorough_rate", "equilibrium_residual", "covariant_acceleration"])
def test_time_dependent_fields_are_refused_with_one_message(structured, pt12, call):
    with pytest.raises(ValueError, match="^brackets and rates are defined for "
                                         "time-independent fields$"):
        call(structured, pt12)


def test_gspb_coordinate_formula(structured):
    # gspb{z, zbar} = -2i (1 + z s_z + zbar s_zbar) for any point
    rng = np.random.default_rng(3)
    for _ in range(20):
        pt = PhasePoint(rng.uniform(-1, 1, 1), rng.uniform(-1, 1, 1))
        z = complex(pt.q[0], pt.p[0])
        want = -2j * (1.0 + z * 0.5 + np.conj(z) * 0.5)  # s = q1
        assert gspb(Z1, ZB1, structured, pt) == pytest.approx(want, abs=1e-12)


def test_gspb_reduces_to_pb_without_structure(oscillator, pt12):
    f = parse_field("q1 * p1^2", 1)
    assert gspb(f, H_OSC, oscillator, pt12) == pb_complex(f, H_OSC, pt12)
    assert geobracket(f, H_OSC, oscillator, pt12) == 0.0


def test_gspb_antisymmetry(structured):
    rng = np.random.default_rng(9)
    f = parse_field("z1^2 - i * p1", 1)
    g = parse_field("cos(q1) + z1 * conj(z1)", 1)
    for _ in range(20):
        pt = PhasePoint(rng.uniform(-1, 1, 1), rng.uniform(-1, 1, 1))
        assert gspb(f, g, structured, pt) == pytest.approx(
            -gspb(g, f, structured, pt), abs=1e-12)


def test_gspb_self_bracket_vanishes(structured, pt12):
    f = parse_field("sin(q1) + p1^2", 1)
    assert gspb(f, f, structured, pt12) == pytest.approx(0.0, abs=1e-12)


_any_float = st.floats(allow_nan=True, allow_infinity=True)


@settings(max_examples=300, deadline=None)
@given(dev=_any_float, tol=st.floats(1e-12, 1.0), mags=st.lists(_any_float, max_size=3))
def test_no_guard_accepts_nan_or_inf(dev, tol, mags):
    values = [dev, *mags]
    if all(np.isfinite(values)):
        assert _exceeds(dev, tol, "x", *mags) == (dev > tol * max((1.0, *mags)))
    else:
        with pytest.raises(DomainError, match="x is not finite"):
            _exceeds(dev, tol, "x", *mags)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_route_and_realness_checks_reject_non_finite_values(bad):
    a = np.array([1.0 + 0.0j, bad])
    with np.errstate(invalid="ignore"), \
            pytest.raises(DomainError, match="structural bracket is not finite"):
        _check_routes(a, a, "structural bracket")
    with pytest.raises(DomainError, match="flow velocity is not finite"):
        _real_part(a, "flow velocity")
