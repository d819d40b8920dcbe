"""Expression fields: parsing, evaluation, printing and derivatives.

The derivative tests compare forward-mode jets against central finite
differences computed here from plain evaluations, so the two sides share
no derivative code.
"""

import math
import sys
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gchs
from gchs import (DomainError, ExpressionError, PhasePoint, StructuredSystem,
                  evaluate, gradient, parse_field, second_derivatives)
from gchs import fields, wirtinger_from_real
from gchs.brackets import unit_field
from gchs.checks import random_polynomial, random_smooth_field, random_system
from gchs.cli import main
from gchs.dynamics import flow_gradient_jets, velocity_kernel
from gchs.fields import (constant_field, conjugate_field, coordinate_field,
                         eval_jet, linear_combination)
from dense_jet_reference import dense_eval
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
# the store of parsed fields: one tree and one generated code per text


def test_each_parse_is_a_new_field_sharing_tree_and_code():
    a, b = (parse_field("q1 * p2 + sin(q2)", 2) for _ in range(2))
    assert a is not b
    assert a.root is b.root and a._code is b._code
    eval_jet(a, [[0.5], [0.25]], [[1.0], [2.0]], order=1)
    assert b._code.codes["float", 1] is a._code.codes["float", 1] is not None
    # fields that are not parsed keep code of their own
    assert constant_field(1.0, 2)._code is not constant_field(1.0, 2)._code


def test_store_key_separates_n_and_allow_time():
    assert parse_field("q1", 1)._code is not parse_field("q1", 2)._code
    timed = parse_field("q1", 1, allow_time=True)
    assert timed._code is not parse_field("q1", 1)._code
    parse_field("t + q2", 2, allow_time=True)
    with pytest.raises(ExpressionError, match="only available in time-dependent"):
        parse_field("t + q2", 2)
    parse_field("q2", 2)
    with pytest.raises(ExpressionError, match="q2 with n=1"):
        parse_field("q2", 1)


def test_bad_text_raises_the_same_error_every_time_and_is_not_stored():
    errors = []
    for _ in range(3):
        with pytest.raises(ExpressionError) as err:
            parse_field("q1 + * p1", 1)
        errors.append((str(err.value), err.value.line, err.value.column))
    assert errors == [("line 1, column 6: unexpected '*'", 1, 6)] * 3
    assert fields._parsed.cache_info().currsize == 0


def _stored(text: str, n: int = 1) -> bool:
    """Whether text is in the store; looking it up moves it to the front."""
    misses = fields._parsed.cache_info().misses
    parse_field(text, n)
    return fields._parsed.cache_info().misses == misses


def test_store_is_bounded_and_an_evicted_text_gets_the_same_code():
    size = fields._STORE_SIZE
    texts = [f"{k + 1} * q1 * p1^2" for k in range(size + 5)]
    first = parse_field(texts[0], 1)
    source = fields._code_for(first, 1, "float").source
    for text in texts[1:]:
        parse_field(text, 1)
        assert fields._parsed.cache_info().currsize <= size
    assert fields._parsed.cache_info().currsize == size
    again = parse_field(texts[0], 1)   # evicted: parsed anew
    assert again._code is not first._code
    assert fields._code_for(again, 1, "float").source == source
    assert not _stored(texts[1]) and _stored(texts[-1])


def test_store_keeps_the_most_recently_used_texts():
    parse_field("q1", 1)
    for k in range(fields._STORE_SIZE - 1):
        parse_field(f"{k} + q1", 1)
        parse_field("q1", 1)   # used again: it stays
    parse_field("p1", 1)
    assert _stored("q1") and not _stored("0 + q1")


# ---------------------------------------------------------------------------
# the store of linear combinations: one tree and one code per combination


def test_equal_combinations_share_one_tree_and_code():
    f, g = parse_field("q1 * p2 + z1", 2), parse_field("sin(q2)", 2)
    a = linear_combination(0.25, f, -1.5, g)
    # other fields of the same texts, and coefficients of other types
    b = linear_combination(np.float64(0.25), parse_field(str(f), 2), -1.5,
                           parse_field("sin(q2)", 2))
    assert a is not b
    assert a.root is b.root and a._code is b._code
    assert len(fields._combinations) == 1


@pytest.mark.parametrize("a, other", [
    (0.0, -0.0),
    (0.3, math.nextafter(0.3, 1.0)),
    (-2.0, math.nextafter(-2.0, 0.0)),
], ids=["signed_zero", "next_up", "next_toward_zero"])
def test_coefficients_that_differ_in_a_bit_never_share(a, other):
    f, g = parse_field("q1", 1), parse_field("p1 * q1", 1)
    for left, right in ((linear_combination(a, f, 1.0, g), linear_combination(other, f, 1.0, g)),
                        (linear_combination(1.0, f, a, g), linear_combination(1.0, f, other, g))):
        assert left._code is not right._code
        assert str(left) != str(right)


def test_fields_of_other_texts_or_codes_never_share():
    f, g = parse_field("q1", 1), parse_field("p1", 1)
    base = linear_combination(1.0, f, 2.0, g)
    assert linear_combination(1.0, g, 2.0, f)._code is not base._code
    assert linear_combination(1.0, f, 2.0, parse_field("p1", 1))._code is base._code
    # a field built in code has code of its own, so each is a new combination
    q = coordinate_field("q", 1, 1)
    assert linear_combination(1.0, q, 2.0, g)._code \
        is not linear_combination(1.0, coordinate_field("q", 1, 1), 2.0, g)._code


@pytest.mark.parametrize("m", [1, 5])
def test_a_stored_combination_has_the_jets_of_a_fresh_build(m):
    rng = np.random.default_rng(29)
    f = random_polynomial(rng, 2, complex_ok=True)
    g = random_smooth_field(rng, 2)
    a, b = (float(v) for v in rng.uniform(-1.0, 1.0, size=2))
    linear_combination(a, f, b, g)
    stored = linear_combination(a, f, b, g)
    fresh = fields._make_field(fields.Add(fields.Mul(fields.Num(a), f.root),
                                          fields.Mul(fields.Num(b), g.root)), 2)
    assert stored._code is not fresh._code
    Q, P = rng.uniform(-1.0, 1.0, size=(2, 2, m))
    for order in (0, 1, 2):
        got, want = eval_jet(stored, Q, P, order=order), eval_jet(fresh, Q, P, order=order)
        for part in ("val", "grad", "hess")[:order + 1]:
            x, y = getattr(got, part), getattr(want, part)
            assert (x.dtype, x.shape, x.tobytes()) == (y.dtype, y.shape, y.tobytes())


def test_combination_store_is_bounded_and_keeps_the_last_used():
    f, g = parse_field("q1", 1), parse_field("p1", 1)
    first = linear_combination(0.0, f, 1.0, g)
    codes = []
    for k in range(1, fields._STORE_SIZE + 5):
        codes.append(linear_combination(float(k), f, 1.0, g)._code)
        linear_combination(0.0, f, 1.0, g)   # used again: it stays
        assert len(fields._combinations) <= fields._STORE_SIZE
    assert len(fields._combinations) == fields._STORE_SIZE
    assert linear_combination(0.0, f, 1.0, g)._code is first._code
    assert linear_combination(float(len(codes)), f, 1.0, g)._code is codes[-1]
    evicted = linear_combination(1.0, f, 1.0, g)   # the oldest: built anew
    assert evicted._code is not codes[0]
    assert str(evicted) == "1.0 * q1 + 1.0 * p1"


# ---------------------------------------------------------------------------
# printing


@pytest.mark.parametrize("src", [
    "q1 + p1 * q1^2",
    "-q1 - (p1 - q1)",
    "sin(q1) * exp(p1) / (1 + q1^2)",
    "i * (z1 - conj(z1))",
    "2.5 * q1^-2 - 0.5",
    "q1 / p1 / (q1 - 3)",
    # an infinite literal prints as 1e999, which reads back as inf
    "1e400 * q1 + p1",
])
def test_print_round_trip(src):
    f = parse_field(src, 1)
    fields._parsed.cache_clear()   # a new tree, not the one stored for src
    again = parse_field(str(f), 1)
    assert again.root == f.root and again.root is not f.root
    pt = PhasePoint([0.7], [1.3])
    # by repr: inf * 0.7 in complex arithmetic has a NaN imaginary part
    with np.errstate(all="ignore"):
        assert repr(evaluate(again, pt)) == repr(evaluate(f, pt))


@pytest.mark.parametrize("build", [
    pytest.param(lambda: linear_combination(-2.0, parse_field("q1", 1), 1.0,
                                            constant_field(-0.5, 1)),
                 id="linear_combination"),
    # -0.0 has the sign of a negative literal, though it is not below 0
    pytest.param(lambda: linear_combination(1.0, parse_field("q1", 1), -0.0,
                                            parse_field("p1", 1)),
                 id="minus_zero_coefficient"),
    pytest.param(lambda: fields._make_field(
        fields.Mul(fields.CoordQ(1), fields.Num(-0.0)), 1), id="minus_zero_factor"),
    pytest.param(lambda: constant_field(np.inf, 1), id="inf_constant"),
    pytest.param(lambda: constant_field(-np.inf, 1), id="minus_inf_constant"),
])
def test_print_negative_literal_reparses(build):
    f = build()
    again = parse_field(str(f), 1)
    assert str(again) == str(f)
    assert evaluate(again, PT) == evaluate(f, PT)


def test_nan_coefficient_is_refused():
    # the grammar has no NaN literal to print it as
    for build in (lambda c: constant_field(c, 1),
                  lambda c: linear_combination(c, parse_field("q1", 1), 1.0,
                                               parse_field("p1", 1)),
                  lambda c: linear_combination(1.0, parse_field("q1", 1), c,
                                               parse_field("p1", 1))):
        with pytest.raises(ValueError, match="NaN"):
            build(np.nan)


def test_print_sum_of_five_thousand_terms():
    f = parse_field("-".join(f"{k}.25*q1^2*p1" for k in range(5000)), 1)
    text = str(f)
    assert text.startswith("0.25 * q1^2 * p1 - 1.25 * q1^2 * p1 - ")
    again = parse_field(text, 1)
    assert again.root is not f.root
    # compared by text: a tree's == recurses as deep as the sum is long
    assert str(again) == text
    assert evaluate(again, PT) == evaluate(f, PT)


def test_print_and_emit_rules_cover_every_node_type():
    kinds = {cls for cls in vars(fields).values()
             if isinstance(cls, type) and issubclass(cls, fields.Node)
             and cls not in (fields.Node, fields._Binary)}
    assert len(kinds) == 13
    assert set(fields._EMIT_RULES) == kinds
    assert set(fields._PRINT_RULES) == kinds


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


def _batch_dtype(f, order, m):
    # over a batch of finite points, a field with batch code runs it into
    # float64 arrays; anything else is complex
    return float if m > 1 and f._code.codes.get(("batch", order)) is not None else complex


def _equals_dense(f, Q, P, order, time=None):
    """Batched sparse jets of f equal the dense reference jets."""
    got = eval_jet(f, Q, P, order=order, time=time)
    want = dense_eval(f, Q, P, order, time=time)
    dtype = _batch_dtype(f, order, Q.shape[1])
    # assert_array_equal counts +0 and -0 as equal
    assert got.val.dtype == dtype
    np.testing.assert_array_equal(got.val, want.val)
    for slot in ("grad", "hess"):
        g, w = getattr(got, slot), getattr(want, slot)
        if w is None:
            assert g is None
        else:
            assert g.dtype == dtype and g.shape == w.shape
            np.testing.assert_array_equal(g, w)
    return got


# single points of real-form fields run the field's float code; the array
# code over a batch is the reference it must reproduce exactly
PER_POINT_FIELDS = [
    "sin(q1) * p2 + z1 * conj(z2) - p1^3",
    "q1^2 * p2 - 0.5 * p1^4 + q2 * p2 - 3",
    "q1^3 - p2^5 + q2^7 * p1 - (q1 + p2)^11",
    "q1^-1 + 2 * p2^-2 - q2^-3 * p1^-5",
    "q1 / (1.5 + p2) - p1 / q2 / (q1 - 3)",
    "(q1 * p1 + q2^2) * (q1^2 - p1 * q2) / (q2 * p1 + 2) + q1 * p1 / (q1 + p1 + 3)",
    "-sin(q1 - 0.3 * p2) * cos(p1) + exp(0.2 * q2) / (2 + cos(q1 * p1))",
    "log(2.5 + q1^2) / (1.5 + p2^2) + q2",
    "sin(t) * q1 + t^2 * p2 - exp(-t) / (2 + q2)",
]


@pytest.mark.parametrize("src", PER_POINT_FIELDS)
@pytest.mark.parametrize("order", [0, 1, 2])
def test_batched_evaluation_matches_per_point(src, order):
    rng = np.random.default_rng(7)
    f = parse_field(src, 2, allow_time=True)
    Q = rng.uniform(-1, 1, size=(2, 5))
    P = rng.uniform(-1, 1, size=(2, 5))
    time = 0.7 if f.uses_time else None
    batch = eval_jet(f, Q, P, order=order, time=time)
    _equals_dense(f, Q, P, order, time)
    for k in range(5):
        single = eval_jet(f, Q[:, k:k + 1], P[:, k:k + 1], order=order,
                          time=time)
        np.testing.assert_allclose(batch.val[k], single.val[0], rtol=0, atol=0)
        if order:
            np.testing.assert_allclose(batch.grad[:, k], single.grad[:, 0],
                                       rtol=0, atol=0)
        else:
            assert single.grad is None
        if order == 2:
            np.testing.assert_allclose(batch.hess[:, :, k], single.hess[:, :, 0],
                                       rtol=0, atol=0)
        else:
            assert single.hess is None


@pytest.mark.parametrize("src", PER_POINT_FIELDS)
def test_scalar_walk_is_taken_on_real_form_fields(src):
    # on a real-form field without log the float code must run, not fall
    # back, and on a complex field the point code; a real-form field with
    # log has only array code
    f = parse_field(src, 2, allow_time=True)
    kind = "float" if f.is_real_form else "point"
    compiles = not (f.is_real_form and "log" in src)
    Q, P = np.array([[0.3], [-0.4]]), np.array([[0.6], [0.2]])
    tval = np.array([0.7]) if f.uses_time else None
    for order in (0, 1, 2):
        jet = fields._float_jet(f, Q, P, order, tval)   # no fallback here
        assert (f._code.codes[kind, order] is not None) == compiles
        if compiles:
            assert jet is not None and jet.val.shape == (1,)
            assert jet.val.dtype == complex
            if order:
                assert jet.grad.shape == (4, 1) and jet.grad.dtype == complex
            if order == 2:
                assert jet.hess.shape == (4, 4, 1) and jet.hess.dtype == complex
        else:
            assert jet is None


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
    if order == 2:
        np.testing.assert_array_equal(single.hess, batch.hess[:, :, :1])
    else:
        assert single.hess is None and batch.hess is None
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
    for order in (0, 1, 2):
        _same_as_batch_column(f, q, p, order)
        code = f._code.codes["float", order]
        if code is not None:   # the float code returns, it never raises
            assert type(code.fn(*q, *p, 0.0)) in (tuple, int)


@pytest.mark.parametrize("src, q1, expect", [
    ("1 / q1", 0.0, DomainError),
    ("q1^-3", 1e-110, "nonfinite"),
    ("exp(q1)", 800.0, "nonfinite"),
    ("sin(q1)", np.inf, "nonfinite"),
    ("exp(q1)^3 - exp(q1)^3", 300.0, "nonfinite"),
    # overflow that 1 / inf would turn back into a finite number
    ("2 + 1 / (q1 * q1 * q1)", 1e200, "nonfinite"),
    ("q1^-5", 1e200, "nonfinite"),
    # the derivative of the constant 1e-160^-1 overflows, but a constant
    # has no gradient to multiply it by: q1's gradient is the true 1e160
    ("1e-160^-1 * q1", 0.5, "finite"),
    # above 709 numpy's complex exp rounds unlike math.exp in the last bit
    ("exp(q1)", 709.05, 8.639774222573399e+307),
])
@pytest.mark.parametrize("order", [0, 1, 2])
def test_single_point_edge_cases_match_batch(src, q1, expect, order):
    f = parse_field(src, 1)
    out = _same_as_batch_column(f, [q1], [0.5], order)
    if expect is DomainError:
        assert isinstance(out, DomainError)
    elif expect == "nonfinite":
        assert not np.all(np.isfinite(out.val))
    elif isinstance(expect, float):
        assert out.val[0] == expect
    else:
        assert out.val[0] == 0.5 / 1e-160
        assert order == 0 or out.grad[0, 0] == 1 / 1e-160


def test_single_point_matches_batch_where_exp_nears_overflow():
    # this field takes exp of about 709.3 at the point, where math.exp and
    # numpy's complex exp round differently
    f = random_smooth_field(np.random.default_rng(439), 1)
    for order in (0, 1, 2):
        _same_as_batch_column(f, [0.0], [1458.0], order)


# ---------------------------------------------------------------------------
# generated jet code against dense jets
#
# The comparisons are exact on finite inputs.  The generated code leaves
# out every term with an identically zero factor, where the dense leaf
# rows computed inf * 0 = NaN, so on non-finite inputs the two may differ.


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(1, 3),
       smooth=st.booleans(), complex_ok=st.booleans(),
       m=st.sampled_from([1, 2, 7]), data=st.data())
def test_batched_jets_equal_dense_reference(seed, n, smooth, complex_ok, m, data):
    rng = np.random.default_rng(seed)
    f = (random_smooth_field(rng, n, complex_ok=complex_ok) if smooth
         else random_polynomial(rng, n, max_degree=5, complex_ok=complex_ok))
    x = data.draw(st.lists(st.floats(-2.0, 2.0), min_size=2 * n * m,
                           max_size=2 * n * m))
    Q, P = np.array(x).reshape(2, n, m)
    for order in (0, 1, 2):
        _equals_dense(f, Q, P, order)


# both need the textbook product in the outer products of their
# Hessians; in the second, both factors of such a term are complex arrays
COMPLEX_ORDER_2 = ["z1 * conj(z2) + i * q1^2 / (2 + p1^2)",
                   "z1^2 * conj(z2)^2 - i * q2 / (2 + z1 * conj(z1))"]


@pytest.mark.parametrize("src", COMPLEX_ORDER_2)
@pytest.mark.parametrize("m", [1, 2, 7])
def test_complex_jets_equal_dense_reference(src, m):
    rng = np.random.default_rng(5)
    Q, P = rng.uniform(-2, 2, size=(2, 2, m))
    f = parse_field(src, 2)
    for order in (0, 1, 2):
        _equals_dense(f, Q, P, order)


@pytest.mark.parametrize("m", [1, 3])
def test_derivative_free_fields_come_out_dense(m):
    # constants and t carry no derivative arrays inside the walk; eval_jet
    # still returns every slot up to the order, in the documented shapes
    # (2n, m) and (2n, 2n, m): complex at one point and for z_j, float64
    # over a batch of a real-form field
    n = 2
    Q, P = np.full((n, m), 0.25), np.full((n, m), -0.5)
    batch = float if m > 1 else complex
    cases = [(constant_field(1.5, n), None, 1.5, None, batch),
             (parse_field("t", n, allow_time=True), 0.75, 0.75, None, batch),
             (coordinate_field("z", 2, n), None, 0.25 - 0.5j, (1, 3), complex)]
    for f, time, value, seeds, dtype in cases:
        for order in (0, 1, 2):
            jet = eval_jet(f, Q, P, order=order, time=time)
            assert jet.val.dtype == dtype and jet.val.shape == (m,)
            assert np.all(jet.val == value)
            if order == 0:
                assert jet.grad is None and jet.hess is None
                continue
            assert jet.grad.dtype == dtype and jet.grad.shape == (2 * n, m)
            want = np.zeros((2 * n, m), dtype=complex)
            if seeds:
                want[seeds[0]], want[seeds[1]] = 1.0, 1j
            np.testing.assert_array_equal(jet.grad, want)
            if order == 1:
                assert jet.hess is None
            else:
                assert jet.hess.dtype == dtype
                assert jet.hess.shape == (2 * n, 2 * n, m)
                assert not np.any(jet.hess)


# ---------------------------------------------------------------------------
# float code over a batch
#
# A batch of a real-form field with float code runs its batch code
# on float64 arrays.  The complex array code is the reference it must
# reproduce, at zero tolerance up to the sign of a zero, and wherever a
# guard fires at any point the whole batch runs on the array code.


def _array_jet(f, Q, P, order, time=None):
    """f's jet from the array code alone."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(fields, "_float_jet", lambda *args: None)
        return eval_jet(f, Q, P, order=order, time=time)


def _same_jets(got, want):
    for slot in ("val", "grad", "hess"):
        g, w = getattr(got, slot), getattr(want, slot)
        assert (g is None) == (w is None)
        if g is not None:
            np.testing.assert_array_equal(g, w)   # NaN equals NaN


def _float_batch_equals_references(f, Q, P, time=None):
    for order in (0, 1, 2):
        got = _equals_dense(f, Q, P, order, time)
        _same_jets(got, _array_jet(f, Q, P, order, time))


@pytest.mark.parametrize("m", [2, 7, 1000])
@pytest.mark.parametrize("seed", range(8))
def test_float_batches_of_random_fields_equal_the_array_code_and_dense_jets(seed, m):
    rng = np.random.default_rng(100 + seed)
    n = 1 + seed % 3
    Q, P = rng.uniform(-2.0, 2.0, size=(2, n, m))
    for f in (random_smooth_field(rng, n), random_polynomial(rng, n, max_degree=5)):
        _float_batch_equals_references(f, Q, P)


FLOAT_BATCH_FIELDS = [
    "-sin(q1 - 0.3 * p2) * cos(p1) + exp(0.2 * q2) / (2 + cos(q1 * p1))",
    "q1 / (1.5 + p2) - p1 / q2 / (q1 - 3) + q1 * p1 / (q1 + p1 + 3)",
    "q1^-1 + 2 * p2^-2 - q2^-3 * p1^-5 + (q1 * p2)^-4 - (q1 + p2)^11",
    # literals folded when the code is generated
    "(2 * 3 - 0.5^2) * q1 + 1 / 3 * p2^3 - exp(1) * q2 * p1 + sin(2)^-2 * cos(0.5) * p1^2",
]


@pytest.mark.parametrize("m", [2, 7, 1000])
@pytest.mark.parametrize("src", FLOAT_BATCH_FIELDS)
def test_float_batches_equal_the_array_code_and_dense_jets(src, m):
    f = parse_field(src, 2)
    rng = np.random.default_rng(11)
    # magnitudes in [0.5, 2), either sign: no divisor comes near zero
    Q, P = rng.uniform(0.5, 2.0, size=(2, 2, m)) * rng.choice([-1.0, 1.0], size=(2, 2, m))
    _float_batch_equals_references(f, Q, P)
    assert all(f._code.codes["batch", order] is not None for order in (0, 1, 2))


def test_batch_exp_equals_the_complex_code_where_float_exp_differs():
    # numpy's float64 exp may round unlike its complex exp (with AVX-512
    # it does at about one argument in twenty); the batch form takes the
    # real part of the complex one, as the array code computes it
    x = np.random.default_rng(9).uniform(-700.0, 709.0, 200_000)
    differs = np.exp(x) != np.exp(x.astype(complex)).real
    Q = np.concatenate([x[differs][:1000], x[:50]])[None, :]
    P = np.full_like(Q, 0.5)
    f = parse_field("exp(q1)", 1)
    for order in (0, 1, 2):
        got = eval_jet(f, Q, P, order=order)
        assert got.val.dtype == float
        _same_jets(got, _array_jet(f, Q, P, order))
    np.testing.assert_array_equal(got.val, np.exp(Q[0].astype(complex)).real)


@pytest.mark.parametrize("src, message", [("1 / q1 + p1", "division by zero"),
                                          ("p1 * q1^-2", "zero raised to a negative power")])
def test_one_zero_divisor_in_a_batch_raises_the_array_codes_domain_error(src, message):
    f = parse_field(src, 1)
    Q = np.array([[0.5, -1.0, 0.0, 2.0]])
    P = np.ones_like(Q)
    for order in (0, 1, 2):
        for evaluate_ in (eval_jet, _array_jet):
            with pytest.raises(DomainError) as err:
                evaluate_(f, Q, P, order=order)
            assert str(err.value) == message


@pytest.mark.parametrize("src, q1", [
    ("exp(q1)^3 - exp(q1)^3 + p1", 300.0),   # inf - inf
    ("2 + 1 / (q1 * q1 * q1) + p1", 1e200),  # 1 / inf would be finite
    ("sin(q1) + p1", np.inf),
    ("p1 * q1^-5", 1e200),
    ("exp(q1) + p1", 709.5),                 # finite, but above exp's bound
])
def test_a_batch_where_a_guard_fires_at_one_point_runs_on_the_array_code(src, q1):
    f = parse_field(src, 1)
    Q = np.array([[0.5, q1, -0.25]])
    P = np.full_like(Q, 0.75)
    for order in (0, 1, 2):
        with np.errstate(all="ignore"):
            got = eval_jet(f, Q, P, order=order)
            _same_jets(got, _array_jet(f, Q, P, order))
        assert got.val.dtype == complex
        # without that point the batch stays on the float code
        assert eval_jet(f, Q[:, [0, 2]], P[:, [0, 2]], order=order).val.dtype == float


@pytest.mark.parametrize("src", ["i * q1 + p1^2", "z1 * p1", "conj(z1) * z1 + q1",
                                 "log(2 + q1^2) * p1"])
def test_fields_with_i_z_conj_or_log_stay_complex(src):
    f = parse_field(src, 1)
    Q, P = np.random.default_rng(2).uniform(-1.0, 1.0, size=(2, 1, 7))
    for order in (0, 1, 2):
        assert _equals_dense(f, Q, P, order).val.dtype == complex
    # a complex field builds no batch code; log has none
    assert {key: code for key, code in f._code.codes.items() if key[0] != "array"} \
        == ({} if not f.is_real_form else dict.fromkeys(("batch", k) for k in (0, 1, 2)))


def test_time_dependent_real_field_batch_gets_time_as_float64():
    f = parse_field("sin(t) * q1 + t^2 * p2 - exp(-t) / (2 + q2) + t * q1 * p1", 2,
                    allow_time=True)
    rng = np.random.default_rng(6)
    Q, P = rng.uniform(-1.0, 1.0, size=(2, 2, 9))
    for time in (0.7, rng.uniform(-2.0, 2.0, 9)):
        _float_batch_equals_references(f, Q, P, time)
    times = []
    code = f._code.codes["batch", 1]
    batch = code.fn
    code.fn = lambda *args: times.append(args[-1]) or batch(*args)
    try:
        assert eval_jet(f, Q, P, order=1, time=-1.5).val.dtype == float
    finally:
        code.fn = batch
    assert times[0].dtype == float and times[0].shape == (9,) and np.all(times[0] == -1.5)


# ---------------------------------------------------------------------------
# the code generator


def test_non_finite_literal_is_not_compiled():
    # repr(inf) would be a name the generated code cannot resolve
    f = parse_field("1e400 * q1 + p1", 1)
    with pytest.raises(fields._NoFloatCode, match="non-finite literal"):
        fields._Code(f, 0, "float")
    for order in (0, 1, 2):
        out = _same_as_batch_column(f, [0.5], [0.25], order)
        assert f._code.codes["float", order] is f._code.codes["batch", order] is None
        assert out.val[0].real == np.inf


def _dense_cubic(n):
    # every Hessian entry is a distinct product: (2n)^2 / 2 outputs
    terms = [f"{1 + j / 97}*q{j}" for j in range(1, n + 1)]
    terms += [f"{2 + j / 89}*p{j}" for j in range(1, n + 1)]
    return parse_field("(" + " + ".join(terms) + ")^3", n)


def test_large_dense_field_compiles_and_matches_batch():
    # one finiteness check over all its outputs would be a chain of
    # thousands of + that compile() cannot take
    f = _dense_cubic(60)
    Q = np.linspace(0.1, 0.9, 60)[:, None]
    P = np.linspace(-0.5, 0.5, 60)[:, None]
    single = eval_jet(f, Q, P, order=2)
    assert f._code.codes["float", 2] is not None
    batch = eval_jet(f, np.repeat(Q, 2, axis=1), np.repeat(P, 2, axis=1), order=2)
    assert f._code.codes["batch", 2] is not None
    np.testing.assert_array_equal(single.val, batch.val[:1])
    np.testing.assert_array_equal(single.grad, batch.grad[:, :1])
    np.testing.assert_array_equal(single.hess, batch.hess[:, :, :1])


def _refuse_floats(monkeypatch, error):
    """Make compile() refuse float-valued code, and only that."""
    compile_ = fields._compile

    def refuse(source, namespace):
        if namespace is not fields._NAMESPACES["array"]:
            raise error("too large")
        return compile_(source, namespace)

    monkeypatch.setattr(fields, "_compile", refuse)


@pytest.mark.parametrize("error", [RecursionError, MemoryError, SyntaxError])
def test_field_the_compiler_refuses_stays_batched(monkeypatch, error):
    # without float code a single point runs on the array code
    _refuse_floats(monkeypatch, error)
    f = _dense_cubic(4)
    Q, P = np.array([[0.3], [0.1], [-0.2], [0.5]]), np.array([[0.4], [0.2], [0.7], [-0.1]])
    single = eval_jet(f, Q, P, order=2)
    assert f._code.codes["float", 2] is None
    batch = eval_jet(f, np.repeat(Q, 2, axis=1), np.repeat(P, 2, axis=1), order=2)
    assert f._code.codes["batch", 2] is None and batch.val.dtype == complex
    np.testing.assert_array_equal(single.hess, batch.hess[:, :, :1])
    _equals_dense(f, np.repeat(Q, 2, axis=1), np.repeat(P, 2, axis=1), 2)


def _refuse(*args):
    raise RecursionError("too deep")


@pytest.mark.parametrize("m", [1, 2])
def test_array_code_the_compiler_refuses_is_a_type_error(monkeypatch, m):
    # there is no other way to run it
    monkeypatch.setattr(fields, "_compile", _refuse)
    f = parse_field("q1 * p1 + sin(q1)", 1)
    with pytest.raises(fields._NoFloatCode, match="compile\\(\\) refuses array code"):
        fields._Code(f, 1, "array")
    with pytest.raises(TypeError, match="compile\\(\\) refuses array code .*too deep"):
        eval_jet(f, np.full((1, m), 0.5), np.full((1, m), 2.0), order=1)


def test_each_code_is_compiled_once_when_it_is_built(monkeypatch):
    compiles = []
    compile_ = fields._compile

    def counted(source, namespace):
        compiles.append(source)
        return compile_(source, namespace)

    monkeypatch.setattr(fields, "_compile", counted)
    f = parse_field("q1^2 * p1 + sin(q1) / (2 + p1^2)", 1)
    for kind in ("float", "batch", "array"):
        for order in (0, 1, 2):
            code = fields._Code(f, order, kind)
            assert compiles == [code.source]
            compiles.clear()
    # eval_jet builds each of f's nine codes once, and then compiles
    # nothing; a point runs the float code, a batch the batch code, and
    # either needs the array code only where a guard hands it on (here at
    # an infinite q1)
    for _ in range(3):
        for m, q1 in ((1, 0.5), (2, 0.5), (2, np.inf)):
            for order in (0, 1, 2):
                with np.errstate(all="ignore"):
                    eval_jet(f, np.full((1, m), q1), np.full((1, m), 2.0), order=order)
    built = list(f._code.codes.values())
    assert len(built) == 9 and sorted(compiles) == sorted(c.source for c in built)

    # a complex field: point code at a point, array code over a batch and
    # where a guard of the point code fires (exp(800) overflows)
    g = parse_field("z1 * conj(z1) - exp(800 * z1) * i", 1)
    compiles.clear()
    for kind in ("point", "array"):
        for order in (0, 1, 2):
            code = fields._Code(g, order, kind)
            assert compiles == [code.source]
            compiles.clear()
    for _ in range(3):
        for m, q1 in ((1, 0.5), (2, 0.5), (1, 1.0)):
            for order in (0, 1, 2):
                with np.errstate(all="ignore"):
                    eval_jet(g, np.full((1, m), q1), np.full((1, m), 0.25), order=order)
    built = list(g._code.codes.values())
    assert len(built) == 6 and sorted(compiles) == sorted(c.source for c in built)


def _defs(source):
    return [line for line in source.splitlines() if line.startswith("def ")]


def test_each_code_and_the_velocity_kernel_is_one_function(monkeypatch):
    f = parse_field("q1^2 * p1 + exp(q1) / (2 + p1^2) - q1^-2", 1)
    for order in (0, 1, 2):
        for kind in ("float", "batch", "array"):
            source = fields._Code(f, order, kind).source
            assert len(_defs(source)) == 1
            # only code on arrays deletes its locals; only batch code tests
            # its guards with any() and all()
            assert ("del " in source) == (kind != "float")
            assert ("any(" in source) == (kind == "batch")
    g = parse_field("z1^2 * conj(z1) + exp(i * q1) / (2 + p1^2) - z1^-2", 1)
    for order in (0, 1, 2):
        source = fields._Code(g, order, "point").source
        assert len(_defs(source)) == 1 and "del " not in source and "any(" not in source
    sources = []
    compiled = gchs.dynamics._compiled

    def kept(*args):
        fn, source, reasons = compiled(*args)
        sources.append(source)
        return fn, source, reasons

    monkeypatch.setattr(gchs.dynamics, "_compiled", kept)
    kernel = velocity_kernel(StructuredSystem(1, f, parse_field("0.1 * q1 / (3 + p1)", 1)))
    assert kernel is not None and len(sources) == 1
    (source,) = sources
    assert _defs(source) == ["def _jet(x0, x1, t=0.0):"]
    assert "del " not in source and "any(" not in source


def test_seven_point_queries_at_a_fresh_point_build_float_and_point_codes(code_builds):
    sys_, f, g = _n6_system()
    H, s = sys_.hamiltonian, sys_.structural
    pt = PhasePoint(np.linspace(-0.9, 0.8, 6), np.linspace(0.5, -0.7, 6))
    gchs.gspb(f, g, sys_, pt)
    gchs.gspb_real(f, g, sys_, pt)
    gchs.gspb(f, H, sys_, pt)
    gchs.gchs_rate(f, sys_, pt)
    gchs.s_dynamics(sys_, pt)
    gchs.beta(sys_, pt)
    gchs.covariant_acceleration(f, sys_, pt)
    # the real-form H, s and 1 on float code, the complex f and g on
    # point code; no batch code, and no array code, since no guard fires
    assert [(str(field_), order, kind) for field_, order, kind in code_builds] == [
        (str(f), 1, "point"), (str(g), 1, "point"), (str(s), 1, "float"),
        (str(H), 1, "float"), ("1.0", 1, "float"), (str(H), 2, "float"),
        (str(s), 2, "float"), (str(f), 2, "point")]


def test_a_real_form_batch_builds_its_array_code_only_after_a_guard_fires(code_builds):
    f = parse_field("exp(q1) + p1 * q1^2", 1)
    Q, P = np.array([[0.5, 1.5, -0.25]]), np.full((1, 3), 0.75)
    for order in (0, 1, 2):
        assert eval_jet(f, Q, P, order=order).val.dtype == float
    assert [(order, kind) for _, order, kind in code_builds] == \
        [(0, "batch"), (1, "batch"), (2, "batch")]
    code_builds.clear()
    Q[0, 1] = 709.5   # above the bound of exp's guard
    for order in (0, 1, 2):
        assert eval_jet(f, Q, P, order=order).val.dtype == complex
    assert [(order, kind) for _, order, kind in code_builds] == \
        [(0, "array"), (1, "array"), (2, "array")]


def test_deep_field_stays_batched():
    # a left-leaning sum deeper than a recursive walk could go: Node.walk
    # keeps its own stack
    f = parse_field(" + ".join(["q1 * p1"] * 700), 1)
    jet = eval_jet(f, [[0.5]], [[2.0]], order=1)
    assert jet.val[0] == 700.0 and list(jet.grad[:, 0]) == [1400.0, 350.0]


def test_sum_of_five_thousand_terms_evaluates():
    f = parse_field(" + ".join(["q1 * p1"] * 5000), 1)
    assert f.is_real_form and not f.uses_time
    for m in (1, 3):
        jet = eval_jet(f, np.full((1, m), 0.5), np.full((1, m), 2.0), order=1)
        assert np.all(jet.val == 5000.0)
        np.testing.assert_array_equal(jet.grad, np.full((2, m), [[10000.0], [2500.0]]))
    assert f._code.codes["float", 1] is not None and f._code.codes["batch", 1] is not None


def test_deep_nesting_is_an_expression_error():
    text = "(" * 1200 + "q1" + ")" * 1200
    with pytest.raises(ExpressionError, match="nests too deeply") as err:
        parse_field(text, 1)
    assert err.value.line == 1 and 1 < err.value.column < 1200


def test_time_dependent_field_compiles_and_matches_batch():
    f = parse_field("sin(t) * q1 + t^2 * p1^2 - exp(-t) / (2 + q1)", 1,
                    allow_time=True)
    Q, P = np.array([[0.3]]), np.array([[-0.7]])
    for order in (0, 1, 2):
        for time in (0.7, -1.3):
            single = eval_jet(f, Q, P, order=order, time=time)
            batch = eval_jet(f, np.repeat(Q, 2, axis=1), np.repeat(P, 2, axis=1),
                             order=order, time=time)
            assert f._code.codes["float", order] is not None
            assert f._code.codes["batch", order] is not None
            np.testing.assert_array_equal(single.val, batch.val[:1])
            if order:
                np.testing.assert_array_equal(single.grad, batch.grad[:, :1])
            if order == 2:
                np.testing.assert_array_equal(single.hess, batch.hess[:, :, :1])


class _Shadow(fields.Node):
    """A leaf of a node type neither back end has a rule for."""


def test_emitter_refuses_unknown_node_types():
    # neither back end has a rule for it, and there is no other evaluator
    f = fields._make_field(fields.Mul(_Shadow(), fields.CoordP(1)), 1)
    for kind in ("float", "batch", "array"):
        with pytest.raises(fields._NoFloatCode, match="_Shadow"):
            fields._Code(f, 1, kind)
    for m in (1, 2):
        with pytest.raises(TypeError, match="no rule for _Shadow nodes"):
            eval_jet(f, np.full((1, m), 3.0), np.full((1, m), 2.0), order=1)


@pytest.mark.parametrize("m", [1, 2])
def test_unknown_order_is_refused(m):
    with pytest.raises(ValueError, match="order must be 0, 1 or 2"):
        eval_jet(parse_field("q1", 1), np.ones((1, m)), np.ones((1, m)), order=3)


def test_generated_source_has_no_builtins():
    for src, kind in [("q1 / (1 + p1^2) + cos(q1)^-2", "float"),
                      ("q1 / (1 + p1^2) + cos(q1)^-2", "batch"),
                      ("log(z1) / (1 + p1^2) + cos(q1)^-2 * conj(z1)", "array")]:
        code = fields._Code(parse_field(src, 1), 2, kind)
        assert "import" not in code.source and "__" not in code.source
        assert code.fn.__globals__["__builtins__"] == {}
    # the velocity kernel comes from the same compile step
    kernel = velocity_kernel(StructuredSystem(1, parse_field("q1 / (1 + p1^2)", 1),
                                              parse_field("cos(q1)^-2", 1)))
    assert kernel.__globals__["__builtins__"] == {}


def test_float_code_returns_an_index_where_python_raises(monkeypatch):
    # an exp that raises below the guard's bound: the code returns a
    # reason's index instead
    def exp(x):
        raise OverflowError("math range error")

    monkeypatch.setitem(fields._NAMESPACES["float"], "exp", exp)
    code = fields._Code(parse_field("exp(q1)", 1), 0, "float")
    out = code.fn(1.0, 0.5)
    assert type(out) is int and "OverflowError" in code.reasons[out]


def test_float_code_hands_exp_above_709_to_the_array_code():
    code = fields._Code(parse_field("exp(q1)", 1), 0, "float")
    for x in (709.05, 800.0):
        out = code.fn(x, 0.5)
        assert type(out) is int and "exp above 709" in code.reasons[out]
    assert code.fn(709.0, 0.5) == (math.exp(709.0),)
    assert code.fn(1.0, 0.5) == (np.e,)


def test_float_code_logs_compiles_and_fallbacks(caplog):
    f = parse_field("1 / q1 + p1^2", 1)
    with caplog.at_level("DEBUG", logger="gchs.fields"):
        eval_jet(f, [[2.0]], [[1.0]], order=2)
        with pytest.raises(DomainError):
            eval_jet(f, [[0.0]], [[1.0]], order=2)
    messages = [r.getMessage() for r in caplog.records]
    assert any("float code for" in m and "order 2" in m and "statements" in m
               for m in messages)
    assert any("falls back" in m and "division by zero" in m for m in messages)


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


def test_jet_wirtinger_matches_gradient():
    f = parse_field("q1 * p1^2", 1)
    pt = PhasePoint([0.6], [1.4])
    j = eval_jet(f, pt.q[:, None], pt.p[:, None], order=1)
    dz, dzbar = j.wirtinger
    g = gradient(f, pt)
    assert dz[0, 0] == g.dz[0]
    assert dzbar[0, 0] == g.dzbar[0]


@pytest.mark.parametrize("src", ["sin(q1) * p2^3 + exp(0.5 * q2) / (2 + p1^2)",
                                 "z1 * conj(z2) + i * q1^2 * exp(p2)"])
@pytest.mark.parametrize("m", [1, 7])
def test_jet_derived_arrays_are_computed_once_as_numpy_computes_them(src, m):
    Q, P = np.random.default_rng(5).uniform(-1.0, 1.0, size=(2, 2, m))
    Q[0, -1] = np.inf   # the last point's partials are not all finite
    with np.errstate(all="ignore"):
        j = eval_jet(parse_field(src, 2), Q, P, order=2)
        want_dz, want_dzbar = wirtinger_from_real(j.grad[:2], j.grad[2:])
        want_sym = 0.5 * (j.hess + j.hess.swapaxes(0, 1))
        (dz, dzbar), sym = j.wirtinger, j.sym_hess
    assert not np.all(np.isfinite(j.grad))
    np.testing.assert_array_equal(dz, want_dz)
    np.testing.assert_array_equal(dzbar, want_dzbar)
    np.testing.assert_array_equal(sym, want_sym)
    np.testing.assert_array_equal(sym, sym.swapaxes(0, 1))
    assert j.wirtinger[0] is dz and j.wirtinger[1] is dzbar
    assert j.sym_hess is sym


@pytest.mark.parametrize("order", [1, 2])
@pytest.mark.parametrize("m", [1, 4])
@pytest.mark.parametrize("n", [1, 3])
def test_jet_n_is_the_fields_n(n, m, order):
    f = parse_field(f"q1 * p{n}^2 + z{n}", n)
    Q, P = np.random.default_rng(n).uniform(-1.0, 1.0, size=(2, n, m))
    assert eval_jet(f, Q, P, order=order).n == f.n == n


# ---------------------------------------------------------------------------
# the point memo: one jet per field's code, keyed by the point's bits


@pytest.fixture
def jet_evals(monkeypatch):
    """The (field text, order) of every jet fields.eval_jet evaluates from
    now on; point_jets calls it only where its memo misses."""
    evals = []
    eval_jet_ = fields.eval_jet

    def counted(f, Q, P, order=0, time=None):
        evals.append((str(f), order))
        return eval_jet_(f, Q, P, order=order, time=time)

    monkeypatch.setattr(fields, "eval_jet", counted)
    return evals


def _forget(*fs):
    """Empty the point memo of each field's code."""
    for f in fs:
        f._code.point = None


def _bits(x):
    """x down to exact bits: arrays by dtype, shape and bytes, numbers by
    repr, dataclasses and tuples field by field."""
    if isinstance(x, np.ndarray):
        return x.dtype.str, x.shape, x.tobytes()
    if isinstance(x, tuple):
        return tuple(map(_bits, x))
    if hasattr(x, "__dataclass_fields__"):
        return type(x).__name__, tuple(_bits(getattr(x, k)) for k in x.__dataclass_fields__)
    return repr(x)


def _n6_system():
    n = 6
    osc = " + ".join(f"(q{j}^2 + p{j}^2) / 2" for j in range(1, n + 1))
    H = parse_field(f"{osc} + 0.03 * q1^2 * q4^2 - 0.02 * q2 * q5 * p3^2 + 0.01 * p6^4", n)
    s = parse_field("0.04 * q1 - 0.03 * p2 + 0.02 * q3 * p4 + 0.01 * q5^2", n)
    f = parse_field("0.7 * z1 * conj(z2) - 0.4 * i * q3 * p4 + 0.3 * z5^2 + p6", n)
    g = parse_field("0.5 * conj(z3) * z4 + 0.6 * i * q1^2 - 0.2 * z6 * p2 + conj(z5)", n)
    return StructuredSystem(n, H, s), f, g


def test_seven_point_queries_at_one_point_evaluate_eight_jets(jet_evals):
    sys_, f, g = _n6_system()
    H, s = sys_.hamiltonian, sys_.structural
    pt = PhasePoint(np.linspace(-0.9, 0.8, 6), np.linspace(0.5, -0.7, 6))
    gchs.gspb(f, g, sys_, pt)
    gchs.gspb_real(f, g, sys_, pt)
    gchs.gspb(f, H, sys_, pt)
    gchs.gchs_rate(f, sys_, pt)
    gchs.s_dynamics(sys_, pt)
    gchs.beta(sys_, pt)
    gchs.covariant_acceleration(f, sys_, pt)
    # each (field, order) once; one by one, the seven calls take 20
    assert jet_evals == [(str(f), 1), (str(g), 1), (str(s), 1), (str(H), 1),
                         ("1.0", 1), (str(H), 2), (str(s), 2), (str(f), 2)]


def test_bracket_command_evaluates_three_jets(jet_evals, capsys):
    path = Path(__file__).resolve().parent.parent / "scenarios" / "structural.json"
    assert main(["bracket", "-f", "z1 * conj(z1) + q1", "-g", "p1^2 - i * z1",
                 "--at", "0.3,-0.8", str(path)]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 4
    # f, g and s once each, where the four brackets one by one take 11
    assert sorted(order for _, order in jet_evals) == [1, 1, 1]
    assert len(set(jet_evals)) == 3


def test_equal_point_built_again_hits_the_memo(jet_evals):
    f = parse_field("sin(q1) * p2 + z2 * conj(z1)", 2)
    first = gradient(f, PhasePoint([0.25, -1.5], [0.75, 2.0]))
    again = gradient(f, PhasePoint(np.array([0.25, -1.5]), [0.75, 2.0]))
    assert len(jet_evals) == 1
    assert _bits(again) == _bits(first)


def test_signed_zero_is_another_point(jet_evals):
    # q1 * p1 + q1 keeps the sign of a zero q1
    f = parse_field("q1 * p1 + q1", 1)
    plus = evaluate(f, PhasePoint([0.0], [1.0]))
    minus = evaluate(f, PhasePoint([-0.0], [1.0]))
    assert len(jet_evals) == 2
    assert (repr(plus), repr(minus)) == ("0j", "(-0+0j)")
    _forget(f)
    assert repr(evaluate(f, PhasePoint([-0.0], [1.0]))) == repr(minus)


def test_another_time_is_evaluated_afresh(jet_evals):
    f = parse_field("sin(t) * q1 + t^2 * p1", 1, allow_time=True)
    assert evaluate(f, PT, time=0.1) == math.sin(0.1) + 0.1 ** 2 * 2.0
    assert evaluate(f, PT, time=0.2) == math.sin(0.2) + 0.2 ** 2 * 2.0
    assert evaluate(f, PT, time=0.2) == math.sin(0.2) + 0.2 ** 2 * 2.0
    assert evaluate(f, PT, time=np.array([0.1])) == math.sin(0.1) + 0.1 ** 2 * 2.0
    assert len(jet_evals) == 3


@pytest.mark.parametrize("src", ["q1^2 * p2 - sin(p1)", "z1 * conj(z2) + i * q2 * p1^2"])
def test_returned_arrays_are_read_only(src):
    f = parse_field(src, 2)
    pt = PhasePoint([0.3, -0.4], [1.1, 0.6])
    grad, hess = gradient(f, pt), second_derivatives(f, pt)
    before = _bits((grad, hess))
    with pytest.raises(ValueError, match="read-only"):
        grad.dz[0] = 5.0
    with pytest.raises(ValueError, match="read-only"):
        grad.dzbar[1] = 5.0
    with pytest.raises(ValueError, match="read-only"):
        hess.matrix[0, 1] = 5.0
    assert _bits((gradient(f, pt), second_derivatives(f, pt))) == before


@pytest.mark.parametrize("m", [1, 3])
def test_every_array_a_jet_holds_or_derives_is_read_only(m):
    sys_ = StructuredSystem(2, parse_field("(q1^2 + p1^2) / 2 + q2 * p2^3", 2),
                            parse_field("0.1 * q1 * p2 - 0.2 * p1", 2))
    Q, P = np.random.default_rng(3).uniform(-1.0, 1.0, size=(2, 2, m))
    Hj, sj = (eval_jet(x, Q, P, order=2) for x in (sys_.hamiltonian, sys_.structural))
    arrays = [Hj.val, Hj.grad, Hj.hess, *Hj.wirtinger, Hj.sym_hess,
              *flow_gradient_jets(Hj, sj), eval_jet(sys_.hamiltonian, Q, P).val]
    assert not any(a.flags.writeable for a in arrays)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_every_single_point_function_equals_its_value_without_the_memo(n):
    rng = np.random.default_rng(100 + n)
    sys_ = random_system(rng, n, max_degree=3)
    f = parse_field(f"{random_polynomial(rng, n, max_degree=3)} + z1 * conj(z{n})", n)
    g = random_smooth_field(rng, n)
    H, s = sys_.hamiltonian, sys_.structural
    calls = {
        "pb_real": lambda pt: gchs.pb_real(f, g, pt),
        "pb_complex": lambda pt: gchs.pb_complex(f, g, pt),
        "structural_derivative": lambda pt: gchs.structural_derivative(f, sys_, pt),
        "geobracket": lambda pt: gchs.geobracket(f, g, sys_, pt),
        "gspb": lambda pt: gchs.gspb(f, g, sys_, pt),
        "geometrio": lambda pt: gchs.geometrio(sys_, pt),
        "gspb_real": lambda pt: gchs.gspb_real(f, g, sys_, pt),
        "gchs_real_rate": lambda pt: gchs.gchs_real_rate(f, sys_, pt),
        "tghs_velocity": lambda pt: gchs.tghs_velocity(sys_, pt),
        "tghs_velocity_pair": lambda pt: gchs.tghs_velocity_pair(sys_, pt),
        "s_dynamics": lambda pt: gchs.s_dynamics(sys_, pt),
        "thorough_rate": lambda pt: gchs.thorough_rate(f, sys_, pt),
        "gchs_rate": lambda pt: gchs.gchs_rate(f, sys_, pt),
        "beta": lambda pt: gchs.beta(sys_, pt),
        "covariant_acceleration": lambda pt: gchs.covariant_acceleration(f, sys_, pt),
        "equilibrium_residual": lambda pt: gchs.equilibrium_residual(f, sys_, pt),
        "gradient": lambda pt: gradient(g, pt),
        "second_derivatives": lambda pt: second_derivatives(H, pt),
    }
    for q, p in rng.uniform(-1.0, 1.0, size=(200, 2, n)):
        pt = PhasePoint(q, p)
        # in turn, so the later calls take their jets from the memo
        shared = {name: _bits(call(pt)) for name, call in calls.items()}
        for name, call in calls.items():
            _forget(f, g, H, s, unit_field(n))
            assert _bits(call(pt)) == shared[name], name


def test_threads_sharing_the_memo_get_their_own_points():
    sys_, f, g = _n6_system()
    rng = np.random.default_rng(9)
    work = [[PhasePoint(q, p) for q, p in rng.uniform(-1, 1, size=(40, 2, 6))]
            for _ in range(4)]
    want = [[gchs.gspb(f, g, sys_, pt) for pt in pts] for pts in work]
    got = [None] * len(work)

    def run(k):
        got[k] = [gchs.gspb(f, g, sys_, pt) for pt in work[k]]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=run, args=(k,)) for k in range(len(work))]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert got == want
