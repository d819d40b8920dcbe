"""Expression fields: parsing, evaluation, printing and derivatives.

The derivative tests compare forward-mode jets against central finite
differences computed here from plain evaluations, so the two sides share
no derivative code.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gchs import (DomainError, ExpressionError, PhasePoint, evaluate,
                  gradient, parse_field, second_derivatives)
from gchs import fields
from gchs.checks import random_polynomial, random_smooth_field
from gchs.fields import (constant_field, conjugate_field, coordinate_field,
                         eval_jet, linear_combination, wirtinger_split)
from fd_reference import fd_first, fd_second

PT = PhasePoint([1.0], [2.0])


# ---------------------------------------------------------------------------
# parsing and evaluation


@pytest.mark.parametrize("src, want", [
    ("q1", 1.0),
    ("p1", 2.0),
    ("z1", 1.0 + 2.0j),
    ("conj(z1)", 1.0 - 2.0j),
    ("(q1^2 + p1^2) / 2", 2.5),
    ("i * (z1 - conj(z1))", -4.0),
    ("z1^2", -3.0 + 4.0j),
    ("2 * q1 - 3 * p1", -4.0),
    ("-q1 + p1", 1.0),
    ("q1^-1", 1.0),
    ("sin(0)", 0.0),
    ("exp(0) + cos(0)", 2.0),
    ("log(exp(1))", 1.0),
    ("1 / (2 + q1)", 1.0 / 3.0),
])
def test_evaluate(src, want):
    f = parse_field(src, 1)
    assert evaluate(f, PT) == pytest.approx(want, abs=1e-15)


def test_evaluate_multi_degree():
    pt = PhasePoint([1.0, 3.0], [2.0, 4.0])
    f = parse_field("q2 * p1 - z2", 2)
    assert evaluate(f, pt) == pytest.approx((3.0 * 2.0) - (3.0 + 4.0j))


def test_time_variable():
    f = parse_field("sin(t) + q1", 1, allow_time=True)
    assert f.uses_time
    assert evaluate(f, PT, time=0.0) == pytest.approx(1.0)
    assert evaluate(f, PT, time=np.pi / 2) == pytest.approx(2.0)


def test_time_rejected_by_default():
    with pytest.raises(ExpressionError, match="t"):
        parse_field("t + q1", 1)


@pytest.mark.parametrize("src, fragment", [
    ("q1 +", "end of input"),
    ("(q1", ")"),
    ("q1 q1", "unexpected"),
    ("foo(q1)", "foo"),
    ("q2", "q2"),            # index out of range for n=1
    ("q0", "q0"),
    ("z3", "z3"),
    ("q1 ^ p1", "exponent"),
    ("", "end of input"),
    ("1..2", "'.2'"),
])
def test_parse_errors(src, fragment):
    with pytest.raises(ExpressionError) as err:
        parse_field(src, 1)
    assert fragment.lower() in str(err.value).lower()
    assert "line 1, column" in str(err.value)


def test_parse_error_position_is_exact():
    with pytest.raises(ExpressionError) as err:
        parse_field("q1 + q9", 1)
    assert err.value.line == 1
    assert err.value.column == 6


@pytest.mark.parametrize("src, exc", [
    ("1 / q1", DomainError),
    ("log(q1)", DomainError),
])
def test_domain_errors(src, exc):
    f = parse_field(src, 1)
    with pytest.raises(exc):
        evaluate(f, PhasePoint([0.0], [0.0]))


def test_real_form_flag():
    assert parse_field("q1 + p1^2", 1).is_real_form
    assert not parse_field("i * q1", 1).is_real_form
    assert not parse_field("z1", 1).is_real_form
    assert not parse_field("conj(q1)", 1).is_real_form


# ---------------------------------------------------------------------------
# printing


@pytest.mark.parametrize("src", [
    "q1 + p1 * q1^2",
    "-q1 - (p1 - q1)",
    "sin(q1) * exp(p1) / (1 + q1^2)",
    "i * (z1 - conj(z1))",
    "2.5 * q1^-2 - 0.5",
    "q1 / p1 / (q1 - 3)",
])
def test_print_round_trip(src):
    f = parse_field(src, 1)
    again = parse_field(str(f), 1)
    pt = PhasePoint([0.7], [1.3])
    assert evaluate(again, pt) == evaluate(f, pt)


def test_print_negative_literal_reparses():
    f = linear_combination(-2.0, parse_field("q1", 1), 1.0,
                           constant_field(-0.5, 1))
    again = parse_field(str(f), 1)
    assert evaluate(again, PT) == evaluate(f, PT)


def test_field_constructors():
    q = coordinate_field("q", 1, 2)
    z = coordinate_field("z", 2, 2)
    pt = PhasePoint([1.0, 3.0], [2.0, 4.0])
    assert evaluate(q, pt) == 1.0
    assert evaluate(z, pt) == 3.0 + 4.0j
    assert evaluate(conjugate_field(z), pt) == 3.0 - 4.0j
    assert evaluate(constant_field(2.5, 2), pt) == 2.5
    combo = linear_combination(2.0, q, -1.0, z)
    assert evaluate(combo, pt) == 2.0 - (3.0 + 4.0j)


def test_coordinate_field_range_check():
    with pytest.raises(ValueError):
        coordinate_field("q", 3, 2)


# ---------------------------------------------------------------------------
# derivatives against the chart reference values


def test_gradient_reference_values():
    g = gradient(parse_field("q1", 1), PT)
    assert g.dz[0] == 0.5 and g.dzbar[0] == 0.5
    g = gradient(parse_field("p1", 1), PT)
    assert g.dz[0] == -0.5j and g.dzbar[0] == 0.5j
    g = gradient(parse_field("z1", 1), PT)
    assert g.dz[0] == 1.0 and g.dzbar[0] == 0.0
    g = gradient(parse_field("(q1^2 + p1^2) / 2", 1), PT)
    assert g.dz[0] == pytest.approx(0.5 - 1.0j)


def test_gradient_conjugation_for_real_fields():
    # for a real-valued field the zbar-partial is exactly the conjugate
    f = parse_field("sin(q1) * p1 + q1^3", 1)
    g = gradient(f, PhasePoint([0.4], [-1.1]))
    assert g.dzbar[0] == np.conj(g.dz[0])


def test_hessian_reference_values():
    h = second_derivatives(parse_field("(q1^2 + p1^2) / 2", 1), PT).matrix
    np.testing.assert_allclose(h, np.eye(2), atol=1e-15)
    h = second_derivatives(parse_field("q1^2 * p1", 1), PT).matrix
    np.testing.assert_allclose(h, [[2.0 * 2.0, 2.0 * 1.0],
                                   [2.0 * 1.0, 0.0]], atol=1e-15)


def test_hessian_is_exactly_symmetric():
    h = second_derivatives(parse_field("sin(q1 * p1) * exp(q1)", 1),
                           PhasePoint([0.3], [0.8])).matrix
    np.testing.assert_array_equal(h, h.T)


# single points of real-form fields take the scalar walk in floats; the
# batched numpy jets are the reference it must reproduce exactly
PER_POINT_FIELDS = [
    "sin(q1) * p2 + z1 * conj(z2) - p1^3",
    "q1^2 * p2 - 0.5 * p1^4 + q2 * p2 - 3",
    "q1^3 - p2^5 + q2^7 * p1 - (q1 + p2)^11",
    "q1^-1 + 2 * p2^-2 - q2^-3 * p1^-5",
    "q1 / (1.5 + p2) - p1 / q2 / (q1 - 3)",
    "-sin(q1 - 0.3 * p2) * cos(p1) + exp(0.2 * q2) / (2 + cos(q1 * p1))",
    "log(2.5 + q1^2) / (1.5 + p2^2) + q2",
    "sin(t) * q1 + t^2 * p2 - exp(-t) / (2 + q2)",
]


@pytest.mark.parametrize("src", PER_POINT_FIELDS)
@pytest.mark.parametrize("order", [0, 1])
def test_batched_evaluation_matches_per_point(src, order):
    rng = np.random.default_rng(7)
    f = parse_field(src, 2, allow_time=True)
    Q = rng.uniform(-1, 1, size=(2, 5))
    P = rng.uniform(-1, 1, size=(2, 5))
    time = 0.7 if f.uses_time else None
    batch = eval_jet(f, Q, P, order=order, time=time)
    for k in range(5):
        single = eval_jet(f, Q[:, k:k + 1], P[:, k:k + 1], order=order,
                          time=time)
        np.testing.assert_allclose(batch.val[k], single.val[0], rtol=0, atol=0)
        if order:
            np.testing.assert_allclose(batch.grad[:, k], single.grad[:, 0],
                                       rtol=0, atol=0)
        else:
            assert single.grad is None


@pytest.mark.parametrize("src", PER_POINT_FIELDS)
def test_scalar_walk_is_taken_on_real_form_fields(src):
    f = parse_field(src, 2, allow_time=True)
    assert f.walks_in_floats == (f.is_real_form and "log" not in src)
    if f.walks_in_floats:
        Q, P = np.array([[0.3], [-0.4]]), np.array([[0.6], [0.2]])
        tval = np.array([0.7]) if f.uses_time else None
        jet = fields._scalar_jet(f, Q, P, 1, tval)   # no fallback here
        assert jet.val.shape == (1,) and jet.grad.shape == (4, 1)
        assert jet.val.dtype == jet.grad.dtype == complex


def _same_as_batch_column(f, q, p, order):
    """Evaluate f at one point and as a batch of that point twice; both
    must return equal jets (NaN equal to NaN) or raise the same error."""
    Q = np.array(q, dtype=float)[:, None]
    P = np.array(p, dtype=float)[:, None]
    outcomes = []
    with np.errstate(all="ignore"):
        for QQ, PP in ((Q, P), (np.repeat(Q, 2, axis=1), np.repeat(P, 2, axis=1))):
            try:
                outcomes.append(eval_jet(f, QQ, PP, order=order))
            except DomainError as e:
                outcomes.append(e)
    single, batch = outcomes
    if isinstance(single, DomainError) or isinstance(batch, DomainError):
        assert type(single) is type(batch) and str(single) == str(batch)
        return single
    np.testing.assert_array_equal(single.val, batch.val[:1])
    if order:
        np.testing.assert_array_equal(single.grad, batch.grad[:, :1])
    else:
        assert single.grad is None and batch.grad is None
    return single


_coord = st.one_of(st.floats(-2.0, 2.0),
                   st.floats(allow_nan=True, allow_infinity=True))


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(1, 3),
       smooth=st.booleans(), data=st.data())
def test_single_point_equals_batch_column(seed, n, smooth, data):
    rng = np.random.default_rng(seed)
    f = (random_smooth_field(rng, n) if smooth
         else random_polynomial(rng, n, max_degree=5))
    q = data.draw(st.lists(_coord, min_size=n, max_size=n))
    p = data.draw(st.lists(_coord, min_size=n, max_size=n))
    for order in (0, 1):
        _same_as_batch_column(f, q, p, order)


@pytest.mark.parametrize("src, q1, expect", [
    ("1 / q1", 0.0, DomainError),
    ("q1^-3", 1e-110, "nonfinite"),
    ("exp(q1)", 800.0, "nonfinite"),
    ("sin(q1)", np.inf, "nonfinite"),
    ("exp(q1)^3 - exp(q1)^3", 300.0, "nonfinite"),
    # overflow that 1 / inf would turn back into a finite number
    ("2 + 1 / (q1 * q1 * q1)", 1e200, "nonfinite"),
    ("q1^-5", 1e200, "nonfinite"),
])
@pytest.mark.parametrize("order", [0, 1])
def test_single_point_edge_cases_match_batch(src, q1, expect, order):
    f = parse_field(src, 1)
    assert f.walks_in_floats
    out = _same_as_batch_column(f, [q1], [0.5], order)
    if expect is DomainError:
        assert isinstance(out, DomainError)
    else:
        assert not np.all(np.isfinite(out.val))


# ---------------------------------------------------------------------------
# jets against central finite differences


FD_FIELDS = [
    "q1^2 * p2 - 0.5 * p1^4 + q2",
    "sin(q1 - 0.3 * p2) * cos(p1) + exp(0.2 * q2)",
    "z1 * conj(z2) + i * z2^2",
    "log(2.5 + q1^2) / (1.5 + p2^2)",
]


@pytest.mark.parametrize("src", FD_FIELDS)
def test_first_derivatives_match_finite_differences(src):
    rng = np.random.default_rng(11)
    Q = rng.uniform(-1, 1, size=(2, 40))
    P = rng.uniform(-1, 1, size=(2, 40))
    f = parse_field(src, 2)
    ad = eval_jet(f, Q, P, order=1).grad
    fd = fd_first(f, Q, P)
    rel = np.abs(ad - fd) / np.maximum(1.0, np.abs(fd))
    assert float(rel.max()) < 1e-6


@pytest.mark.parametrize("src", FD_FIELDS)
def test_second_derivatives_match_finite_differences(src):
    rng = np.random.default_rng(13)
    Q = rng.uniform(-1, 1, size=(2, 25))
    P = rng.uniform(-1, 1, size=(2, 25))
    f = parse_field(src, 2)
    ad = eval_jet(f, Q, P, order=2).hess
    fd = fd_second(f, Q, P)
    rel = np.abs(ad - fd) / np.maximum(1.0, np.abs(fd))
    assert float(rel.max()) < 1e-4


def test_wirtinger_split_matches_gradient():
    f = parse_field("q1 * p1^2", 1)
    pt = PhasePoint([0.6], [1.4])
    j = eval_jet(f, pt.q[:, None], pt.p[:, None], order=1)
    dz, dzbar = wirtinger_split(j.grad, 1)
    g = gradient(f, pt)
    assert dz[0, 0] == g.dz[0]
    assert dzbar[0, 0] == g.dzbar[0]
